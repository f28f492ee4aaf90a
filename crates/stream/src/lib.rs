//! # serena-stream
//!
//! The continuous extension of the Serena algebra (§4 of the paper):
//! XD-Relations, window and streaming operators, and an incremental
//! executor for continuous queries.
//!
//! * [`multiset`] — instantaneous states as tuple multisets and per-tick
//!   deltas (§4.1's CQL-style semantics);
//! * [`source`] — dynamic tables ([`source::TableHandle`]) and streams
//!   ([`source::StreamHub`]): a stream is pushed into, and every executor
//!   leaf over it reads the instant's one batch through a subscription of
//!   its own;
//! * [`plan`] — [`plan::StreamPlan`], the name continuous-query code
//!   gives [`serena_core::plan::Plan`] (one tree: the Serena operators plus
//!   `W[period]`, `S[insertion|deletion|heartbeat]` and `βˢ`, with static
//!   finite/infinite checking), and the continuous examples `Q3`/`Q4`;
//! * [`exec`] — [`exec::ContinuousQuery`]: tick-by-tick incremental
//!   evaluation with §4.2's delta-only invocation semantics and per-tick
//!   action sets. A query runs the plan it was compiled from for its whole
//!   life; rewriting and costing a plan ([`serena_core::rewrite`]) happen
//!   before it is compiled, never while it runs.
//!
//! ```
//! use serena_core::formula::Formula;
//! use serena_core::metrics::NoopMetrics;
//! use serena_core::schema::XSchema;
//! use serena_core::service::fixtures::example_registry;
//! use serena_core::tuple;
//! use serena_core::value::DataType;
//! use serena_stream::exec::{ContinuousQuery, SourceSet};
//! use serena_stream::plan::StreamPlan;
//! use serena_stream::source::StreamHub;
//!
//! // a temperature stream, windowed and filtered
//! let schema = XSchema::builder()
//!     .real("location", DataType::Str)
//!     .real("temperature", DataType::Real)
//!     .build()
//!     .unwrap();
//! let temps = StreamHub::new();
//! let mut sources = SourceSet::new();
//! sources.add_stream("temps", schema, temps.clone());
//!
//! let plan = StreamPlan::source("temps")
//!     .window(1)
//!     .select(Formula::gt_const("temperature", 35.5));
//! let mut query = ContinuousQuery::compile(&plan, &mut sources).unwrap();
//!
//! let registry = example_registry();
//! temps.push(tuple!["office", 40.0]);
//! let report = query.tick_with(&registry, &NoopMetrics);
//! assert_eq!(report.delta.inserts.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod exec;
pub mod multiset;
pub mod plan;
pub mod source;

pub use exec::{ContinuousQuery, SourceSet, TickReport};
pub use multiset::{Delta, Multiset};
pub use plan::{StreamKind, StreamPlan, StreamSchema};
pub use source::{StreamHub, TableHandle};
