//! The simulated discovery network (Figure 1's distributed layout).
//!
//! In the paper's prototype, services register to *Local Environment
//! Resource Managers* (LERMs) distributed in the network; the core
//! Environment Resource Manager discovers them over OSGi/UPnP and makes
//! them "transparently available". This module reproduces that behaviour
//! in-process and deterministically:
//!
//! * a [`DiscoveryBus`] carries announce/leave messages with configurable
//!   latency and deterministic jitter (seeded xorshift — no wall clock, no
//!   global RNG, so every experiment replays identically);
//! * a [`LocalErm`] is a named registration point for services;
//! * each logical tick, [`DiscoveryBus::deliver_due`] hands the messages
//!   that are due to the core ERM's [`NodeDirectory`], from which queries
//!   resolve invocations.
//!
//! The latency model is what makes discovery *churn* observable: a sensor
//! announced at instant τ only becomes queryable at τ + latency(+jitter),
//! exactly the lag the discovery benchmarks (E11) measure.

use std::collections::VecDeque;
use std::sync::Arc;

use serena_core::sync::Mutex;

use serena_core::service::Service;
use serena_core::time::Instant;
use serena_core::value::ServiceRef;

use crate::directory::NodeDirectory;

/// Latency/jitter configuration for the simulated network.
#[derive(Debug, Clone, Copy)]
pub struct BusConfig {
    /// Ticks between a service announcement and its visibility at the core
    /// ERM.
    pub announce_latency: u64,
    /// Ticks between a service leaving and its removal at the core ERM.
    pub leave_latency: u64,
    /// Maximum extra ticks of deterministic jitter added per message.
    pub jitter: u64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig {
            announce_latency: 1,
            leave_latency: 1,
            jitter: 0,
            seed: 0x5EED,
        }
    }
}

impl BusConfig {
    /// Zero-latency bus: announcements apply at the next tick boundary.
    pub fn instant() -> Self {
        BusConfig {
            announce_latency: 0,
            leave_latency: 0,
            jitter: 0,
            seed: 0,
        }
    }
}

enum Payload {
    Announce {
        reference: ServiceRef,
        service: Arc<dyn Service>,
        origin: String,
    },
    Leave {
        reference: ServiceRef,
    },
}

struct Scheduled {
    deliver_at: Instant,
    seq: u64,
    payload: Payload,
}

/// The shared in-process message bus.
pub struct DiscoveryBus {
    config: BusConfig,
    state: Mutex<BusState>,
}

struct BusState {
    queue: VecDeque<Scheduled>,
    seq: u64,
    rng: u64,
}

impl DiscoveryBus {
    /// Create a bus with the given latency model.
    pub fn new(config: BusConfig) -> Arc<Self> {
        Arc::new(DiscoveryBus {
            config,
            state: Mutex::new(BusState {
                queue: VecDeque::new(),
                seq: 0,
                rng: config.seed.max(1),
            }),
        })
    }

    fn jitter(state: &mut BusState, max: u64) -> u64 {
        if max == 0 {
            return 0;
        }
        // xorshift64 — deterministic, no external RNG needed here.
        let mut x = state.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        state.rng = x;
        x % (max + 1)
    }

    fn push(&self, now: Instant, base_latency: u64, payload: Payload) {
        let mut state = self.state.lock();
        let jitter = Self::jitter(&mut state, self.config.jitter);
        let seq = state.seq;
        state.seq += 1;
        state.queue.push_back(Scheduled {
            deliver_at: now + base_latency + jitter,
            seq,
            payload,
        });
    }

    /// Deliver every message due at or before `now` to `directory`, in
    /// (deliver_at, enqueue) order: announcements register, leaves
    /// deregister. Returns the number delivered. Call once per logical
    /// tick.
    pub fn deliver_due(&self, now: Instant, directory: &NodeDirectory) -> usize {
        let mut due = {
            let mut state = self.state.lock();
            let (due, keep): (VecDeque<Scheduled>, VecDeque<Scheduled>) =
                state.queue.drain(..).partition(|m| m.deliver_at <= now);
            state.queue = keep;
            Vec::from(due)
        };
        due.sort_by_key(|m| (m.deliver_at, m.seq));
        let delivered = due.len();
        for msg in due {
            match msg.payload {
                Payload::Announce {
                    reference,
                    service,
                    origin,
                } => directory.register_from(reference, service, origin),
                Payload::Leave { reference } => {
                    directory.deregister(reference);
                }
            }
        }
        delivered
    }
}

/// A Local Environment Resource Manager: the registration point services
/// use in their corner of the network (Figure 1).
pub struct LocalErm {
    id: String,
    bus: Arc<DiscoveryBus>,
}

impl LocalErm {
    /// Create a LERM named `id` attached to `bus`.
    pub fn new(id: impl Into<String>, bus: Arc<DiscoveryBus>) -> Self {
        LocalErm { id: id.into(), bus }
    }

    /// The LERM's identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// A service registers here at instant `now`; it becomes visible at the
    /// core ERM after the bus latency.
    pub fn register_service(
        &self,
        reference: impl Into<ServiceRef>,
        service: Arc<dyn Service>,
        now: Instant,
    ) {
        self.bus.push(
            now,
            self.bus.config.announce_latency,
            Payload::Announce {
                reference: reference.into(),
                service,
                origin: self.id.clone(),
            },
        );
    }

    /// A service deregisters (or dies) at instant `now`.
    pub fn unregister_service(&self, reference: impl Into<ServiceRef>, now: Instant) {
        self.bus.push(
            now,
            self.bus.config.leave_latency,
            Payload::Leave {
                reference: reference.into(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serena_core::service::fixtures;
    use serena_core::value::ServiceRef;

    #[test]
    fn announcement_respects_latency() {
        let bus = DiscoveryBus::new(BusConfig {
            announce_latency: 3,
            leave_latency: 1,
            jitter: 0,
            seed: 1,
        });
        let lerm = LocalErm::new("lerm-A", Arc::clone(&bus));
        let core = NodeDirectory::new("core");

        lerm.register_service("sensor01", fixtures::temperature_sensor(1), Instant(0));
        assert_eq!(bus.deliver_due(Instant(0), &core), 0);
        assert_eq!(bus.deliver_due(Instant(2), &core), 0);
        assert!(!core.contains(&ServiceRef::new("sensor01")));
        assert_eq!(bus.deliver_due(Instant(3), &core), 1);
        assert!(core.contains(&ServiceRef::new("sensor01")));
        assert_eq!(
            core.origin_of(&ServiceRef::new("sensor01")).unwrap(),
            "lerm-A"
        );
    }

    #[test]
    fn leave_removes_after_latency() {
        let bus = DiscoveryBus::new(BusConfig::instant());
        let lerm = LocalErm::new("lerm-A", Arc::clone(&bus));
        let core = NodeDirectory::new("core");
        lerm.register_service("s", fixtures::temperature_sensor(1), Instant(0));
        bus.deliver_due(Instant(0), &core);
        assert_eq!(core.len(), 1);
        lerm.unregister_service("s", Instant(1));
        bus.deliver_due(Instant(1), &core);
        assert_eq!(core.len(), 0);
    }

    #[test]
    fn jitter_is_deterministic() {
        let run = || {
            let bus = DiscoveryBus::new(BusConfig {
                announce_latency: 1,
                leave_latency: 1,
                jitter: 5,
                seed: 42,
            });
            let lerm = LocalErm::new("L", Arc::clone(&bus));
            let core = NodeDirectory::new("core");
            for i in 0..10u64 {
                lerm.register_service(format!("s{i}"), fixtures::temperature_sensor(i), Instant(0));
            }
            (0..10)
                .map(|t| bus.deliver_due(Instant(t), &core))
                .collect::<Vec<usize>>()
        };
        assert_eq!(run(), run());
        // all ten eventually arrive
        assert_eq!(run().iter().sum::<usize>(), 10);
    }

    #[test]
    fn multiple_lerms_share_one_core() {
        let bus = DiscoveryBus::new(BusConfig::instant());
        let lerm_a = LocalErm::new("A", Arc::clone(&bus));
        let lerm_b = LocalErm::new("B", Arc::clone(&bus));
        let core = NodeDirectory::new("core");
        lerm_a.register_service("sensor01", fixtures::temperature_sensor(1), Instant(0));
        lerm_b.register_service("camera01", fixtures::camera(1), Instant(0));
        bus.deliver_due(Instant(0), &core);
        assert_eq!(core.len(), 2);
        assert_eq!(core.origin_of(&ServiceRef::new("camera01")).unwrap(), "B");
        assert!(bus.state.lock().queue.is_empty());
    }

    #[test]
    fn ordering_within_tick_is_fifo_per_deliver_time() {
        let bus = DiscoveryBus::new(BusConfig::instant());
        let lerm = LocalErm::new("L", Arc::clone(&bus));
        let core = NodeDirectory::new("core");
        // register then immediately unregister: both due at the same tick —
        // FIFO order must leave the service absent.
        lerm.register_service("s", fixtures::temperature_sensor(1), Instant(0));
        lerm.unregister_service("s", Instant(0));
        bus.deliver_due(Instant(0), &core);
        assert!(!core.contains(&ServiceRef::new("s")));
    }
}
