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
//! Pipeline: [`lexer`] → [`parser`] (name-based [`ast`]) → [`resolve`]
//! (core schemas and plans — [`serena_stream::plan::StreamPlan`], the one
//! plan tree of `serena-core` — given a prototype catalog).
//!
//! ```
//! use serena_ddl::parser::parse_query;
//! use serena_ddl::resolve::{resolve_query, to_one_shot};
//!
//! let expr = parse_query(
//!     "INVOKE[sendMessage[messenger]](ASSIGN[text := 'Bonjour!'](SELECT[name <> 'Carla'](contacts)))",
//! ).unwrap();
//! let plan = to_one_shot(&resolve_query(&expr)).unwrap();
//! assert_eq!(plan, serena_core::plan::examples::q1());
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod resolve;
pub mod sql;

pub use ast::Statement;
pub use parser::{parse_program, parse_query, ParseError};
pub use resolve::{
    literal_value, resolve_formula, resolve_prototype, resolve_query, resolve_relation_schema,
    resolve_tuple, to_one_shot, DdlError, PrototypeCatalog,
};
