//! Typed environment & workload builders: [`EnvSpec`] / [`WorkloadSpec`].
//!
//! §7 of the paper calls for "a benchmark for pervasive environments …
//! with objective indicators"; every harness in this repository needs the
//! same ingredients for that — a fleet of simulated devices, a tuple
//! arrival schedule, and a batch of continuous queries. [`EnvSpec`] is the
//! one public way to describe and deploy such a fleet (sensor/camera/
//! messenger counts, area assignment, scripted heat events, zipf-skewed
//! latency/failure distributions from [`serena_services::fleet`]), and
//! [`WorkloadSpec`] stamps out batches of continuous queries from
//! templates.
//!
//! Everything is a pure function of the spec's seed: no wall clock, no OS
//! randomness. The same spec replays **byte-identically** — deploy twice,
//! tick in lock-step, and every per-query delta and every snapshot byte
//! agrees (the property the scale benchmarks and future scheduler PRs
//! claim "byte-identical vs serial" against).
//!
//! ```
//! use serena_pems::envspec::{ArrivalTrace, EnvSpec, QueryTemplate, WorkloadSpec};
//! let spec = EnvSpec::new(42).sensors(100).arrivals(ArrivalTrace::new(42).mean_per_tick(16));
//! let (mut pems, _fleet) = spec.build().expect("valid spec");
//! WorkloadSpec::new()
//!     .queries(QueryTemplate::HotAreas { window: 4, threshold: 30.0 }, 8)
//!     .register_into(&mut pems, &spec)
//!     .expect("valid workload");
//! pems.run_ticks(3);
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use serena_core::formula::Formula;
use serena_core::prototype::examples as protos;
use serena_core::schema::examples as schemas;
use serena_core::service::FnService;
use serena_core::sync::Mutex;
use serena_core::time::Instant;
use serena_core::tuple::Tuple;
use serena_core::value::Value;
use serena_services::bus::BusConfig;
use serena_services::devices::camera::SimCamera;
use serena_services::devices::messenger::{MessengerKind, SentMessage, SimMessenger};
use serena_services::devices::temperature::SimTemperatureSensor;
use serena_services::faults::{FaultPolicy, FaultyService};
use serena_services::fleet::{mix64, FailureProfile, LatencyProfile, SlowService};
use serena_stream::plan::{StreamKind, StreamPlan};

use crate::pems::{Pems, PemsError};

/// How many messengers a spec deploys, and how they are named.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessengerFleet {
    /// One messenger per transport kind, named by its label
    /// (`email` / `jabber` / `sms`) — the §5.2 scenario shape.
    Kinds,
    /// `n` messengers named `messenger…`, transport kinds round-robin —
    /// the massive-scale shape.
    Indexed(usize),
}

/// Deterministic trace-driven tuple arrival schedule for the
/// `temperatures` stream: at every instant a seeded, zipf-skewed subset of
/// devices report a reading. A pure function of `(seed, instant)` — the
/// same trace replays byte-identically, at any scheduler width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalTrace {
    seed: u64,
    devices: usize,
    mean_per_tick: usize,
    /// Device-activity skew: higher exponents concentrate traffic on fewer
    /// devices (the pervasive "chatty minority" shape).
    activity_exponent: f64,
}

impl ArrivalTrace {
    /// A trace seeded with `seed`: 1000 devices, 64 tuples/tick mean,
    /// activity exponent 2.0.
    pub fn new(seed: u64) -> Self {
        ArrivalTrace {
            seed,
            devices: 1000,
            mean_per_tick: 64,
            activity_exponent: 2.0,
        }
    }

    /// Number of devices the trace draws reporters from (builder style).
    pub fn devices(mut self, n: usize) -> Self {
        self.devices = n.max(1);
        self
    }

    /// Mean tuples per instant (builder style). Actual counts vary ±25%
    /// around the mean, deterministically per instant.
    pub fn mean_per_tick(mut self, n: usize) -> Self {
        self.mean_per_tick = n;
        self
    }

    /// Device-activity zipf-like exponent (builder style).
    pub fn activity_exponent(mut self, s: f64) -> Self {
        self.activity_exponent = s;
        self
    }

    /// Tuples arriving at `at` (deterministic per instant).
    pub fn count_at(&self, at: Instant) -> usize {
        let m = self.mean_per_tick;
        if m == 0 {
            return 0;
        }
        let jitter = (mix64(self.seed, at.ticks(), 0xC0) % (m as u64 / 2 + 1)) as usize;
        m - m / 4 + jitter
    }

    /// The arrivals at `at` as `(device index, temperature °C)` pairs.
    /// Device picks follow a power-law skew toward low indices; readings
    /// span 15.0–32.9 °C so threshold queries around 30 °C see a hot
    /// minority.
    fn events_at(&self, at: Instant) -> Vec<(usize, f64)> {
        (0..self.count_at(at))
            .map(|k| {
                let u =
                    mix64(self.seed, at.ticks(), 0xE0 + k as u64) as f64 / (u64::MAX as f64 + 1.0);
                let idx = ((self.devices as f64) * u.powf(self.activity_exponent)) as usize;
                let t = mix64(self.seed, at.ticks(), 0x7E << 8 | k as u64) % 180;
                (idx.min(self.devices - 1), 15.0 + t as f64 / 10.0)
            })
            .collect()
    }

    /// The arrivals at `at` as `(location, temperature)` tuples, locating
    /// each device round-robin over `areas`.
    pub fn tuples_at(&self, at: Instant, areas: &[String]) -> Vec<Tuple> {
        self.events_at(at)
            .into_iter()
            .map(|(idx, temp)| {
                Tuple::new(vec![
                    Value::str(&areas[idx % areas.len()]),
                    Value::Real(temp),
                ])
            })
            .collect()
    }
}

/// A deployed fleet: what [`EnvSpec::deploy_into`] registered, with
/// inspectable handles.
pub struct Fleet {
    /// `(reference, area)` of every deployed sensor, in deployment order.
    pub sensors: Vec<(String, String)>,
    /// `(reference, area)` of every deployed camera, in deployment order.
    pub cameras: Vec<(String, String)>,
    /// Outboxes of the deployed messengers, keyed by service reference.
    pub outboxes: BTreeMap<String, Arc<Mutex<Vec<SentMessage>>>>,
}

/// A typed, seeded description of a pervasive environment: fleet sizes,
/// area assignment, scripted heat events, fault overrides and zipf-skewed
/// latency/failure distributions. See the module docs for the determinism
/// contract.
#[derive(Debug, Clone)]
pub struct EnvSpec {
    seed: u64,
    sensors: usize,
    cameras: usize,
    messengers: MessengerFleet,
    areas: Vec<String>,
    heat_events: Vec<(usize, Instant, Instant, f64)>,
    sensor_faults: Vec<(usize, FaultPolicy)>,
    failures: Option<FailureProfile>,
    latencies: Option<LatencyProfile>,
    arrivals: Option<ArrivalTrace>,
    bus: BusConfig,
}

impl EnvSpec {
    /// An empty spec seeded with `seed`: no devices, the §5.2 default
    /// areas, kind-named messengers, an instant discovery bus.
    pub fn new(seed: u64) -> Self {
        EnvSpec {
            seed,
            sensors: 0,
            cameras: 0,
            messengers: MessengerFleet::Kinds,
            areas: vec!["corridor".into(), "office".into(), "roof".into()],
            heat_events: Vec::new(),
            sensor_faults: Vec::new(),
            failures: None,
            latencies: None,
            arrivals: None,
            bus: BusConfig::instant(),
        }
    }

    /// Number of temperature sensors (round-robin over the areas).
    pub fn sensors(mut self, n: usize) -> Self {
        self.sensors = n;
        self
    }

    /// Number of cameras (round-robin over the areas).
    pub fn cameras(mut self, n: usize) -> Self {
        self.cameras = n;
        self
    }

    /// Messenger fleet shape.
    pub fn messengers(mut self, fleet: MessengerFleet) -> Self {
        self.messengers = fleet;
        self
    }

    /// Areas devices are assigned to, round-robin by index.
    pub fn areas<I, S>(mut self, areas: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.areas = areas.into_iter().map(Into::into).collect();
        if self.areas.is_empty() {
            self.areas.push("area0".into());
        }
        self
    }

    /// Script a heat event on sensor `index`: it reads `peak` °C between
    /// `from` and `to` inclusive.
    pub fn heat_event(mut self, index: usize, from: Instant, to: Instant, peak: f64) -> Self {
        self.heat_events.push((index, from, to, peak));
        self
    }

    /// Scripted heat events in bulk — `(sensor index, from, to, peak °C)`.
    pub fn heat_events(mut self, events: Vec<(usize, Instant, Instant, f64)>) -> Self {
        self.heat_events.extend(events);
        self
    }

    /// Explicit fault override for sensor `index` (wins over any
    /// [`Self::failures`] profile draw).
    pub fn sensor_fault(mut self, index: usize, policy: FaultPolicy) -> Self {
        self.sensor_faults.push((index, policy));
        self
    }

    /// Zipf-skewed per-sensor failure rates, drawn from the spec's seed.
    pub fn failures(mut self, profile: FailureProfile) -> Self {
        self.failures = Some(profile);
        self
    }

    /// Zipf-skewed per-sensor wall-clock latencies, drawn from the spec's
    /// seed. Latency never changes logical outputs, so determinism holds.
    pub fn latencies(mut self, profile: LatencyProfile) -> Self {
        self.latencies = Some(profile);
        self
    }

    /// Drive the `temperatures` stream from a deterministic arrival trace
    /// instead of live-sampling every discovered sensor (the only viable
    /// shape at 10⁴⁺ devices).
    pub fn arrivals(mut self, trace: ArrivalTrace) -> Self {
        self.arrivals = Some(trace.devices(self.sensors.max(1)));
        self
    }

    /// Discovery-network latency model for [`Self::build`].
    pub fn bus(mut self, bus: BusConfig) -> Self {
        self.bus = bus;
        self
    }

    /// The configured areas.
    pub fn area_names(&self) -> &[String] {
        &self.areas
    }

    /// The area device `index` is assigned to (round-robin).
    pub fn area_of(&self, index: usize) -> &str {
        &self.areas[index % self.areas.len()]
    }

    /// The configured arrival trace, if any.
    pub fn arrival_trace(&self) -> Option<&ArrivalTrace> {
        self.arrivals.as_ref()
    }

    /// The reference of sensor `index` (`sensor00` … zero-padded to the
    /// fleet's width, minimum 2).
    pub fn sensor_name(&self, index: usize) -> String {
        format!("sensor{index:0w$}", w = pad_width(self.sensors))
    }

    /// The reference of camera `index`.
    fn camera_name(&self, index: usize) -> String {
        format!("camera{index:0w$}", w = pad_width(self.cameras))
    }

    /// References of the messengers the spec deploys, in deployment order.
    fn messenger_names(&self) -> Vec<String> {
        match self.messengers {
            MessengerFleet::Kinds => KINDS.iter().map(|k| k.label().to_string()).collect(),
            MessengerFleet::Indexed(n) => (0..n)
                .map(|i| format!("messenger{i:0w$}", w = pad_width(n)))
                .collect(),
        }
    }

    /// The transport kind of messenger `index` (round-robin for indexed
    /// fleets).
    pub fn messenger_kind(&self, index: usize) -> MessengerKind {
        KINDS[index % KINDS.len()]
    }

    /// Register the fleet on `pems`: every sensor/camera/messenger behind
    /// the Local ERM `building`, with directory metadata (`location` / `area`),
    /// scripted heat events, fault policies (explicit overrides first,
    /// then the failure profile) and latency draws applied. Does **not**
    /// declare catalog objects — callers own their DDL (or use
    /// [`Self::build`] for the standard catalog).
    pub fn deploy_into(&self, pems: &Pems) -> Fleet {
        let lerm = pems.local_erm(LERM);
        let now = pems.clock();
        let directory = pems.directory();

        let mut sensors = Vec::with_capacity(self.sensors);
        for i in 0..self.sensors {
            let name = self.sensor_name(i);
            let area = self.area_of(i).to_string();
            let mut sensor = SimTemperatureSensor::room(self.seed.wrapping_add(i as u64));
            for (idx, from, to, peak) in &self.heat_events {
                if *idx == i {
                    sensor = sensor.with_heat_event(*from, *to, *peak);
                }
            }
            let mut svc = sensor.into_service();
            // The explicit override, or else the profile's rate — a
            // per-instant draw, so concurrent queries sharing a device see
            // one outcome.
            let policy = self
                .sensor_faults
                .iter()
                .find(|(idx, _)| *idx == i)
                .map(|(_, p)| p.clone())
                .or_else(|| {
                    self.failures.map(|f| {
                        FaultPolicy::rate(
                            mix64(self.seed, i as u64, 0xF1EE7),
                            f.rate_for(self.seed, i as u64, self.sensors as u64),
                        )
                    })
                });
            if let Some(policy) = policy.filter(|p| !matches!(p, FaultPolicy::None)) {
                svc = FaultyService::new(svc, policy);
            }
            if let Some(lat) = self.latencies {
                let delay = lat.latency_for(self.seed, i as u64, self.sensors as u64);
                // Sub-microsecond draws are not injected: an OS sleep costs
                // tens of µs regardless of the requested duration, which
                // would turn the zipf tail (nanosecond draws) into the
                // dominant cost at 10⁴⁺ devices.
                if delay >= std::time::Duration::from_micros(1) {
                    svc = SlowService::wrap(svc, delay);
                }
            }
            lerm.register_service(name.clone(), svc, now);
            directory.set(name.clone(), "location", Value::str(&area));
            sensors.push((name, area));
        }

        let mut cameras = Vec::with_capacity(self.cameras);
        for i in 0..self.cameras {
            let name = self.camera_name(i);
            let area = self.area_of(i).to_string();
            let camera = SimCamera::new(&name, self.seed.wrapping_add(i as u64), &[area.as_str()]);
            lerm.register_service(name.clone(), camera.into_service(), now);
            directory.set(name.clone(), "area", Value::str(&area));
            cameras.push((name, area));
        }

        let mut outboxes = BTreeMap::new();
        for (i, reference) in self.messenger_names().into_iter().enumerate() {
            let (svc, outbox) = SimMessenger::new(self.messenger_kind(i)).into_service();
            lerm.register_service(reference.clone(), svc, now);
            outboxes.insert(reference, outbox);
        }

        Fleet {
            sensors,
            cameras,
            outboxes,
        }
    }

    /// Build a ready [`Pems`] with the standard catalog and the fleet
    /// deployed: Table 1 prototypes; discovery-maintained `sensors` and
    /// `cameras` tables; and a `temperatures` stream — trace-driven when
    /// [`Self::arrivals`] is set, otherwise sampling every discovered
    /// sensor (the §5.2 shape).
    pub fn build(&self) -> Result<(Pems, Fleet), PemsError> {
        let mut pems = Pems::builder().bus(self.bus).build();
        self.install_catalog(&mut pems)?;
        let fleet = self.deploy_into(&pems);
        Ok((pems, fleet))
    }

    /// The standard-catalog half of [`Self::build`], for callers that need
    /// a custom [`Pems`] (execution options, checkpointing, …).
    ///
    /// `temperatures` is a derived stream ([`Pems::define_stream_as`]) over
    /// `(location, temperature)`: `getTemperature` sampled from every
    /// row of `sensors`, or — under [`Self::arrivals`] — `getReadings` of
    /// the one row of `gateways`, the service on this node that replays
    /// the trace.
    pub fn install_catalog(&self, pems: &mut Pems) -> Result<(), PemsError> {
        for p in [
            protos::get_temperature(),
            protos::check_photo(),
            protos::take_photo(),
            protos::send_message(),
        ] {
            pems.tables().declare_prototype(p)?;
        }
        pems.tables()
            .define_table("sensors", schemas::sensors_schema())?;
        pems.register_discovery("sensors", "getTemperature", "sensor")?;
        pems.tables()
            .define_table("cameras", schemas::cameras_schema())?;
        pems.register_discovery("cameras", "checkPhoto", "camera")?;

        let readings = &["location", "temperature"];
        let plan = match self.arrivals {
            Some(trace) => {
                pems.run_program(&format!(
                    "PROTOTYPE getReadings( ) : ( location STRING, temperature REAL );
                     EXTENDED RELATION gateways (
                       gateway SERVICE, location STRING VIRTUAL, temperature REAL VIRTUAL
                     ) USING BINDING PATTERNS ( getReadings[gateway] );
                     INSERT INTO gateways VALUES ('{GATEWAY}');"
                ))?;
                let prototypes = pems.tables().prototype("getReadings").into_iter().collect();
                let areas = self.areas.clone();
                let gateway =
                    FnService::new(prototypes, move |_, _, at| Ok(trace.tuples_at(at, &areas)));
                // hosted here, so a linked peer's own gateway never shadows it
                pems.directory().register(GATEWAY, Arc::new(gateway));
                sampled("gateways", "getReadings", "gateway", readings)
            }
            None => sampled("sensors", "getTemperature", "sensor", readings),
        };
        pems.define_stream_as("temperatures", &plan)
    }
}

/// The stream of what every provider listed in `table` answers to
/// `prototype` at each instant, projected on `attrs`:
/// `S[heartbeat](π_attrs(W[1](βˢ[1]_{prototype[service_attr]}(table))))`.
/// π needs a finite operand, so the window and the heartbeat take the
/// sample there and back.
pub(crate) fn sampled(
    table: &str,
    prototype: &str,
    service_attr: &str,
    attrs: &[&str],
) -> StreamPlan {
    StreamPlan::source(table)
        .sample_invoke(prototype, service_attr, 1)
        .window(1)
        .project(attrs.iter().copied())
        .stream(StreamKind::Heartbeat)
}

/// The Local ERM every fleet registers behind.
const LERM: &str = "building";

/// The service an [`ArrivalTrace`] is read through.
const GATEWAY: &str = "arrivals";

const KINDS: [MessengerKind; 3] = [
    MessengerKind::Email,
    MessengerKind::Jabber,
    MessengerKind::Sms,
];

/// Zero-pad width for a fleet of `n` (minimum 2, so small fleets keep the
/// §5.2 scenario's `sensor00` naming).
fn pad_width(n: usize) -> usize {
    let digits = n.saturating_sub(1).max(1).ilog10() as usize + 1;
    digits.max(2)
}

/// A continuous-query template a [`WorkloadSpec`] stamps instances from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryTemplate {
    /// Hot readings in a sliding window:
    /// `σ_{temperature>θᵢ}(W[w](temperatures))`. Instance `i` uses
    /// threshold `θᵢ = threshold + (i mod 4)` so concurrent instances keep
    /// distinct result sets.
    HotAreas {
        /// Window period in instants.
        window: u64,
        /// Base alert threshold in °C.
        threshold: f64,
    },
    /// Per-area watch: `σ_{location=areaᵢ}(W[w](temperatures))`, area
    /// round-robin by instance.
    AreaWatch {
        /// Window period in instants.
        window: u64,
    },
    /// Recent reporting locations: `π_location(W[w](temperatures))`.
    RecentReadings {
        /// Window period in instants.
        window: u64,
    },
    /// The discovered-sensor inventory: `sensors` as a changing relation.
    SensorInventory,
    /// Live sampling: `βˢ_{getTemperature[sensor], every}(sensors)` —
    /// exercises the β invoker stack per tick.
    SampledTemperatures {
        /// Re-invocation period in instants.
        every: u64,
    },
}

impl QueryTemplate {
    /// Instance-name prefix for this template.
    fn prefix(&self) -> &'static str {
        match self {
            QueryTemplate::HotAreas { .. } => "hot",
            QueryTemplate::AreaWatch { .. } => "area",
            QueryTemplate::RecentReadings { .. } => "recent",
            QueryTemplate::SensorInventory => "inventory",
            QueryTemplate::SampledTemperatures { .. } => "sampled",
        }
    }

    /// The plan of instance `i`, against `spec`'s environment.
    fn plan(&self, i: usize, spec: &EnvSpec) -> StreamPlan {
        match *self {
            QueryTemplate::HotAreas { window, threshold } => StreamPlan::source("temperatures")
                .window(window)
                .select(Formula::gt_const("temperature", threshold + (i % 4) as f64)),
            QueryTemplate::AreaWatch { window } => StreamPlan::source("temperatures")
                .window(window)
                .select(Formula::eq_const("location", spec.area_of(i))),
            QueryTemplate::RecentReadings { window } => StreamPlan::source("temperatures")
                .window(window)
                .project(["location"]),
            QueryTemplate::SensorInventory => StreamPlan::source("sensors"),
            QueryTemplate::SampledTemperatures { every } => {
                StreamPlan::source("sensors").sample_invoke("getTemperature", "sensor", every)
            }
        }
    }
}

/// A batch of continuous queries, described as `(template, count)` pairs.
#[derive(Debug, Clone, Default)]
pub struct WorkloadSpec {
    entries: Vec<(QueryTemplate, usize)>,
}

impl WorkloadSpec {
    /// An empty workload.
    pub fn new() -> Self {
        WorkloadSpec::default()
    }

    /// Add `count` instances of `template` (builder style).
    pub fn queries(mut self, template: QueryTemplate, count: usize) -> Self {
        self.entries.push((template, count));
        self
    }

    /// Total number of query instances.
    pub fn total(&self) -> usize {
        self.entries.iter().map(|(_, n)| n).sum()
    }

    /// The `(name, plan)` instances, in declaration order. Names are
    /// `<prefix>NNN`, numbered per template kind.
    pub fn plans(&self, spec: &EnvSpec) -> Vec<(String, StreamPlan)> {
        let mut counters: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut out = Vec::with_capacity(self.total());
        for (template, count) in &self.entries {
            for _ in 0..*count {
                let slot = counters.entry(template.prefix()).or_insert(0);
                let i = *slot;
                *slot += 1;
                out.push((
                    format!("{}{i:03}", template.prefix()),
                    template.plan(i, spec),
                ));
            }
        }
        out
    }

    /// Register every instance on `pems` (batch registration), returning
    /// the registered names.
    pub fn register_into(&self, pems: &mut Pems, spec: &EnvSpec) -> Result<Vec<String>, PemsError> {
        pems.register_queries(self.plans(spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_names_and_areas_are_stable() {
        let spec = EnvSpec::new(1).sensors(120).cameras(3);
        assert_eq!(spec.sensor_name(0), "sensor000");
        assert_eq!(spec.sensor_name(119), "sensor119");
        assert_eq!(spec.camera_name(2), "camera02");
        assert_eq!(spec.area_of(0), "corridor");
        assert_eq!(spec.area_of(4), "office");
        assert_eq!(
            spec.messenger_names(),
            vec!["email".to_string(), "jabber".into(), "sms".into()]
        );
        let indexed = spec.messengers(MessengerFleet::Indexed(11));
        assert_eq!(indexed.messenger_names()[10], "messenger10");
        assert_eq!(indexed.messenger_kind(4), MessengerKind::Jabber);
    }

    #[test]
    fn build_deploys_the_fleet_and_streams_the_trace() {
        let spec = EnvSpec::new(7)
            .sensors(12)
            .cameras(4)
            .messengers(MessengerFleet::Indexed(2))
            .arrivals(ArrivalTrace::new(7).mean_per_tick(8));
        let (mut pems, fleet) = spec.build().unwrap();
        assert_eq!(fleet.sensors.len(), 12);
        assert_eq!(fleet.cameras.len(), 4);
        assert_eq!(fleet.outboxes.len(), 2);

        let mut pems2 = {
            let names = WorkloadSpec::new()
                .queries(QueryTemplate::SensorInventory, 1)
                .queries(QueryTemplate::RecentReadings { window: 2 }, 1)
                .register_into(&mut pems, &spec)
                .unwrap();
            assert_eq!(names, vec!["inventory000".to_string(), "recent000".into()]);
            pems
        };
        let reports = pems2.tick();
        let inventory = reports.iter().find(|(n, _)| n == "inventory000").unwrap();
        assert_eq!(
            inventory.1.delta.inserts.len(),
            12,
            "all sensors discovered"
        );
        let recent = reports.iter().find(|(n, _)| n == "recent000").unwrap();
        let trace = spec.arrival_trace().unwrap();
        assert_eq!(recent.1.delta.inserts.len(), trace.count_at(Instant(0)));
    }

    #[test]
    fn trace_is_deterministic_and_skewed() {
        let trace = ArrivalTrace::new(3).devices(100).mean_per_tick(40);
        for t in 0..5 {
            assert_eq!(trace.events_at(Instant(t)), trace.events_at(Instant(t)));
            let n = trace.count_at(Instant(t));
            assert!((30..=60).contains(&n), "count {n} outside ±25% band");
            assert_eq!(trace.events_at(Instant(t)).len(), n);
        }
        // activity skew: low indices dominate
        let events: Vec<usize> = (0..50)
            .flat_map(|t| trace.events_at(Instant(t)))
            .map(|(i, _)| i)
            .collect();
        let low = events.iter().filter(|i| **i < 50).count();
        assert!(
            low * 2 > events.len(),
            "no skew: {low}/{} events on the low half",
            events.len()
        );
        // readings stay in band
        assert!((0..20)
            .flat_map(|t| trace.events_at(Instant(t)))
            .all(|(_, temp)| (15.0..33.0).contains(&temp)));
    }

    #[test]
    fn faults_and_latencies_apply_to_the_fleet() {
        let spec = EnvSpec::new(5)
            .sensors(4)
            .sensor_fault(1, FaultPolicy::Intermittent { fail: 1, ok: 0 })
            .latencies(LatencyProfile::new(
                std::time::Duration::from_micros(50),
                1.0,
            ));
        let (mut pems, _fleet) = spec.build().unwrap();
        pems.register_queries(vec![(
            "sampled".to_string(),
            StreamPlan::source("sensors").sample_invoke("getTemperature", "sensor", 1),
        )])
        .unwrap();
        pems.tick(); // discovery lands
        let reports = pems.tick();
        let (_, r) = &reports[0];
        assert!(
            !r.errors.is_empty(),
            "the always-failing sensor must surface errors"
        );
    }

    #[test]
    fn workload_plans_vary_by_instance() {
        let spec = EnvSpec::new(1).sensors(4);
        let plans = WorkloadSpec::new()
            .queries(
                QueryTemplate::HotAreas {
                    window: 2,
                    threshold: 30.0,
                },
                2,
            )
            .queries(QueryTemplate::AreaWatch { window: 2 }, 2)
            .plans(&spec);
        assert_eq!(plans.len(), 4);
        assert_eq!(plans[0].0, "hot000");
        assert_eq!(plans[3].0, "area001");
        // distinct thresholds / areas per instance
        assert_ne!(plans[0].1.to_algebra(), plans[1].1.to_algebra());
        assert_ne!(plans[2].1.to_algebra(), plans[3].1.to_algebra());
    }
}
