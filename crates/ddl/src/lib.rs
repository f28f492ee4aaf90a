//! # serena-ddl
//!
//! The textual front-ends of the PEMS prototype (§5.1): the **Serena DDL**
//! (`PROTOTYPE`, `SERVICE`, `EXTENDED RELATION` — the pseudo-DDL of
//! Tables 1–2 of the paper, made concrete) and the **Serena Algebra
//! Language** (a textual form of Serena algebra expressions, including the
//! continuous `WINDOW`/`STREAM` operators), plus data statements
//! (`INSERT`/`DELETE`/`DROP`) and query registration
//! (`REGISTER QUERY … AS …`, `EXECUTE …`).
//!
//! Pipeline: [`lexer`] → [`parser`] → [`serena_core::plan::Plan`]. An
//! algebra expression parses straight into the one plan tree of
//! `serena-core`, built by the same calls a programmatic plan uses;
//! [`resolve`] is for what needs a catalog or can fail on one — prototype
//! and relation schemas ([`ast`]'s name-based declarations) and `INSERT` /
//! `DELETE` tuples. [`sql`] lowers a `SELECT` onto the same tree.
//!
//! ```
//! use serena_ddl::{parse_query, to_one_shot};
//!
//! let plan = parse_query(
//!     "INVOKE[sendMessage[messenger]](ASSIGN[text := 'Bonjour!'](SELECT[name <> 'Carla'](contacts)))",
//! ).unwrap();
//! assert_eq!(plan, serena_core::plan::examples::q1());
//! assert_eq!(to_one_shot(&plan), Some(plan));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod resolve;
pub mod sql;

pub use ast::Statement;
pub use parser::{parse_program, parse_query, ParseError};
pub use resolve::{
    resolve_prototype, resolve_relation_schema, resolve_tuple, to_one_shot, DdlError,
};
