//! # serena-pems
//!
//! The **Pervasive Environment Management System** (Figure 1 of the
//! paper): "manage a relational pervasive environment, with its dynamic
//! data sources and set of services, and execute continuous queries over
//! this environment."
//!
//! * [`pems::Pems`] — the facade: the service directory the discovery bus
//!   delivers into (the core Environment Resource Manager), table manager,
//!   query processor and discovery queries, advanced tick by tick — per
//!   instant: deliver due announcements and poll peers, refresh the
//!   discovery tables, tick every query;
//! * [`table_manager::ExtendedTableManager`] — named XD-Relations, DDL
//!   execution, one-shot environment snapshots;
//! * [`processor::QueryProcessor`] — registered continuous queries in
//!   lock-step, ticked in parallel by the scheduler's round; each runs the
//!   plan it was registered with until it is unregistered, and calls its β
//!   services on the thread that ticks it;
//! * [`scheduler`] — how the processor runs a tick round: the queries split
//!   into contiguous runs over scoped threads, the caller running the first
//!   ([`scheduler::WorkerPool`], sized by [`scheduler::SchedulerConfig`] /
//!   `SERENA_SCHED_WORKERS`);
//! * [`hub`] — stream plumbing (broadcast hubs, sensor samplers, RSS
//!   adapters);
//! * [`recovery`] — periodic checkpoints of the runtime's dynamic state
//!   and crash recovery ([`pems::PemsBuilder::checkpoint`],
//!   [`pems::Pems::restore_from`]);
//! * [`scenario`] — the paper's two experiments (§5.2) as reusable
//!   deployments;
//! * [`envspec`] — the typed [`envspec::EnvSpec`] / [`envspec::WorkloadSpec`]
//!   builders: the one public way to construct device fleets and batches of
//!   continuous queries, from the §5.2 scenario up to 10⁴⁺-device scale
//!   benchmarks, deterministically from a seed.
//!
//! ```
//! use serena_pems::pems::Pems;
//! use serena_services::bus::BusConfig;
//!
//! let mut pems = Pems::builder().bus(BusConfig::instant()).build();
//! pems.run_program("
//!     PROTOTYPE getTemperature( ) : ( temperature REAL );
//!     EXTENDED RELATION sensors (
//!       sensor SERVICE, location STRING, temperature REAL VIRTUAL
//!     ) USING BINDING PATTERNS ( getTemperature[sensor] );
//!     REGISTER QUERY watch AS sensors;
//! ").unwrap();
//! let reports = pems.tick();
//! assert_eq!(reports.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod envspec;
pub mod hub;
pub mod pems;
pub mod processor;
pub mod recovery;
pub mod scenario;
pub mod scheduler;
pub mod table_manager;

pub use envspec::{ArrivalTrace, EnvSpec, Fleet, MessengerFleet, QueryTemplate, WorkloadSpec};
pub use hub::{RssStream, SensorSampler, StreamHub};
pub use pems::{ExecOutcome, ExplainAnalyze, Pems, PemsBuilder, PemsError};
pub use processor::{QueryProcessor, QueryStats};
pub use recovery::RecoveryManager;
pub use scheduler::{SchedulerConfig, WorkerPool};
pub use table_manager::ExtendedTableManager;
