//! # serena
//!
//! A from-scratch Rust reproduction of
//! *A Simple (yet Powerful) Algebra for Pervasive Environments*
//! (Gripay, Laforest & Petit, EDBT 2010): the **Serena** service-enabled
//! relational algebra, its continuous extension over XD-Relations, and the
//! **PEMS** (Pervasive Environment Management System) prototype around it,
//! with deterministic simulations of every device the paper's experiments
//! used.
//!
//! This crate is the facade re-exporting the workspace:
//!
//! * [`core`] (`serena-core`) — the data model (§2.3: virtual attributes,
//!   binding patterns, X-Relations), the algebra of Table 3, action sets &
//!   query equivalence (Definitions 8–9), the rewrite rules of Table 5 and
//!   a heuristic optimizer. Its `Plan` is the one query tree: it also
//!   carries §4.2's `W[period]` / `S[insertion|deletion|heartbeat]`, so a
//!   continuous query is validated, rewritten and costed by the same code
//!   as a one-shot one;
//! * [`stream`] (`serena-stream`) — XD-Relations as tables and stream
//!   sources, and the incremental continuous executor that runs such a
//!   plan tick by tick (§4);
//! * [`services`] (`serena-services`) — the service directory, discovery bus
//!   with Local Environment Resource Managers, simulated sensors, cameras,
//!   messengers and RSS feeds (§5.1–5.2);
//! * [`ddl`] (`serena-ddl`) — the Serena DDL, the Serena Algebra Language
//!   and Serena SQL, parsed straight into that `Plan`;
//! * [`pems`] (`serena-pems`) — the assembled PEMS runtime (Figure 1) and
//!   the paper's two experimental scenarios.
//!
//! ## Quick start
//!
//! ```
//! use serena::core::prelude::*;
//! use serena::core::env::examples::example_environment;
//! use serena::core::service::fixtures::example_registry;
//!
//! // Q1 from Table 4: message every contact except Carla.
//! let q1 = Plan::relation("contacts")
//!     .select(Formula::ne_const("name", "Carla"))
//!     .assign_const("text", "Bonjour!")
//!     .invoke("sendMessage", "messenger");
//!
//! let env = example_environment();
//! let registry = example_registry();
//! let out = ExecContext::new(&env, &registry, Instant::ZERO)
//!     .execute(&q1)
//!     .unwrap();
//! assert_eq!(out.actions.len(), 2); // the action set of Example 6
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serena_core as core;
pub use serena_ddl as ddl;
pub use serena_pems as pems;
pub use serena_services as services;
pub use serena_stream as stream;

/// Everything most programs need.
pub mod prelude {
    pub use serena_core::prelude::*;
    pub use serena_pems::{ExecOutcome, ExplainAnalyze, Pems, PemsBuilder, PemsError, QueryStats};
    pub use serena_services::{
        BreakerState, HealthStatus, HealthTracker, ResilienceCounters, ResiliencePolicy,
        ResilienceState, ResilientLayer, ServiceHealth,
    };
    pub use serena_stream::{
        ContinuousQuery, SourceSet, StreamKind, StreamPlan, TableHandle, TickReport,
    };
}
