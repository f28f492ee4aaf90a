//! # serena-core
//!
//! From-scratch reproduction of the **Serena algebra** from Gripay, Laforest
//! & Petit, *A Simple (yet Powerful) Algebra for Pervasive Environments*
//! (EDBT 2010): a service-enabled relational algebra over *relational
//! pervasive environments* — databases extended with data streams and
//! active/passive services.
//!
//! The crate provides, bottom-up:
//!
//! * the data model of §2.3: constants ([`value`]), attributes ([`attr`]),
//!   tuples ([`tuple`](mod@tuple)), prototypes & services ([`prototype`], [`service`]),
//!   extended relation schemas with virtual attributes and binding patterns
//!   ([`schema`], [`binding`]), X-Relations ([`xrelation`]) and relational
//!   pervasive environments ([`env`](mod@env));
//! * the Serena algebra of §3: the operators of Table 3 ([`ops`]), logical
//!   plans with static validation ([`plan`]), evaluation with action-set
//!   collection ([`eval`], [`action`]);
//! * query equivalence per Definition 9 ([`equiv`]) and the rewrite rules
//!   of Table 5 with a heuristic optimizer ([`rewrite`]).
//!
//! The continuous extension over XD-Relations (§4) lives in the companion
//! crate `serena-stream`; dynamic service discovery (§5.1) in
//! `serena-services`; the PEMS runtime (Figure 1) in `serena-pems`.
//!
//! ## Quick start
//!
//! ```
//! use serena_core::prelude::*;
//! use serena_core::service::fixtures::example_registry;
//! use serena_core::xrelation::examples::contacts;
//!
//! // Q1 from Table 4: send "Bonjour!" to all contacts except Carla.
//! let q1 = Plan::relation("contacts")
//!     .select(Formula::ne_const("name", "Carla"))
//!     .assign_const("text", "Bonjour!")
//!     .invoke("sendMessage", "messenger");
//!
//! let mut env = Environment::new();
//! env.define_relation("contacts", contacts()).unwrap();
//!
//! let registry = example_registry();
//! let outcome = ExecContext::new(&env, &registry, Instant::ZERO)
//!     .execute(&q1)
//!     .unwrap();
//! assert_eq!(outcome.relation.len(), 2);      // Nicolas + Francois
//! assert_eq!(outcome.actions.len(), 2);       // two messages actually sent
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod action;
pub mod attr;
pub mod binding;
pub mod dedup;
pub mod env;
pub mod equiv;
pub mod error;
pub mod eval;
pub mod exec;
pub mod formula;
pub mod metrics;
pub mod ops;
pub mod physical;
pub mod plan;
pub mod prototype;
pub mod rewrite;
pub mod schema;
pub mod service;
pub mod snapshot;
pub mod sync;
pub mod telemetry;
pub mod time;
pub mod tuple;
pub mod value;
pub mod xrelation;

/// The most common imports, re-exported for downstream crates.
pub mod prelude {
    pub use crate::action::{Action, ActionSet};
    pub use crate::attr::{attr, AttrName};
    pub use crate::binding::BindingPattern;
    pub use crate::dedup::{DedupLayer, DedupState};
    pub use crate::env::Environment;
    pub use crate::error::{EvalError, PlanError, SchemaError};
    pub use crate::eval::EvalOutcome;
    pub use crate::exec::{explain_analyze_text, ExecContext};
    pub use crate::formula::{Expr, Formula};
    pub use crate::metrics::{
        ExecStats, MetricsSink, NodeId, NodeStats, NoopMetrics, OpKind, OpObservation,
    };
    pub use crate::ops::DegradePolicy;
    pub use crate::physical::{ExecOptions, PhysicalPlan};
    pub use crate::plan::Plan;
    pub use crate::prototype::{Prototype, RelationSchema};
    pub use crate::schema::{AttrKind, Attribute, SchemaRef, XSchema};
    pub use crate::service::{Invoker, InvokerLayer, InvokerStack, Service, StaticRegistry};
    pub use crate::telemetry::{
        Counter, Gauge, Histogram, InstrumentedLayer, InvocationObserver, MetricsRegistry,
        NoopTrace, RegistrySink, TraceSink,
    };
    pub use crate::time::Instant;
    pub use crate::tuple::Tuple;
    pub use crate::value::{DataType, ServiceRef, Value};
    pub use crate::xrelation::XRelation;
}
