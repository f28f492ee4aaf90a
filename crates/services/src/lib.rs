//! # serena-services
//!
//! The service substrate of the PEMS prototype (§5.1–5.2 of the paper):
//! dynamic service registration, discovery and remote invocation, plus
//! simulated stand-ins for every physical device the authors used.
//!
//! The paper's experimental environment was built from OSGi/UPnP networking,
//! Thermochron iButton sensors, Logitech webcams, an Openfire IM server, a
//! Clickatell SMS gateway, a mail server and live RSS feeds. None of that
//! hardware is available to a reproduction, so this crate implements
//! deterministic simulations that exercise the *same code paths* (see
//! DESIGN.md §2 for the substitution table):
//!
//! * [`directory`] — the core Environment Resource Manager's service
//!   table, [`NodeDirectory`]: which services exist, the Local ERM and
//!   peer node each came from, the metadata describing it, a bounded
//!   join/leave log, and the [`serena_core::service::Invoker`] impl β
//!   calls resolve through; multi-node peer links with heartbeat-driven
//!   liveness;
//! * [`bus`] — the simulated network delay in front of it: *Local
//!   Environment Resource Managers* announce their services with
//!   configurable latency and jitter, and each logical tick the bus
//!   delivers what is due to the directory (Figure 1's distributed module
//!   layout, minus the real network);
//! * [`devices`] — simulated temperature sensors (with scriptable heat
//!   events), cameras, messengers (e-mail / jabber / SMS with an
//!   inspectable outbox) and RSS feed wrappers;
//! * [`faults`] — failure injection: one decorator whose policy makes a
//!   service fail by call count, at a seeded per-instant rate or during an
//!   outage, for robustness tests;
//! * [`fleet`] — deterministic fleet parameterization for massive
//!   environments: zipf-skewed per-service latency and failure draws, all
//!   pure functions of `(seed, index)`, and the one latency decorator;
//! * [`health`] — rolling per-service health (failure rate,
//!   consecutive-error count, last-seen instant) fed by invocation
//!   outcomes through [`serena_core::telemetry::InvocationObserver`];
//! * [`resilience`] — the β resilience middleware: bounded retry with
//!   jittered exponential backoff, and a
//!   health-informed circuit breaker, composable onto any invoker via
//!   [`serena_core::service::InvokerStack`];
//! * [`discovery`] — turning "which services implement prototype ψ?" into
//!   X-Relation rows, and keeping a table equal to that answer by folding
//!   the directory's change log: the PEMS service-discovery queries;
//! * [`transport`] — the node-to-node seam: [`Transport`] with an
//!   in-process hub ([`InProcTransport`], the deterministic test
//!   default) and real TCP/UDS sockets ([`SocketTransport`]), speaking
//!   length-prefixed frames in the `serena-core::snapshot` codec;
//! * [`node`] — serving a directory to peers ([`ServiceNode`]) and
//!   proxying remote services locally ([`RemoteService`]), including
//!   standby checkpoint replication.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod bus;
pub mod devices;
pub mod directory;
pub mod discovery;
pub mod faults;
pub mod fleet;
pub mod health;
pub mod node;
pub mod resilience;
pub mod transport;

pub use bus::{BusConfig, DiscoveryBus, LocalErm};
pub use directory::{NodeDirectory, PeerStatus};
pub use health::{HealthStatus, HealthTracker, ServiceHealth};
pub use node::{NodeHandle, RemoteNodeClient, RemoteService, ServiceNode};
pub use resilience::{
    BreakerState, ResilienceCounters, ResiliencePolicy, ResilienceState, ResilientLayer,
};
pub use transport::{Frame, InProcTransport, SocketTransport, Transport, TransportError};
