//! The service directory: the core Environment Resource Manager's one
//! table (§5.1, Fig. 1).
//!
//! A [`NodeDirectory`] owns which services exist on this node, where each
//! came from (the Local ERM that announced it, the peer node hosting it),
//! the discovery metadata describing it, and how to call it:
//!
//! * **one table** — service, LERM origin, hosting peer and metadata
//!   behind a single `RwLock`. A β call takes one read lock to resolve the
//!   service and releases it before calling;
//! * **one change log** — every join, leave and metadata write appends
//!   the reference it touched at an absolute position. Readers treat it as
//!   a feed of *dirty keys*: they look the touched references up in the
//!   table as it is now, so what an entry recorded never matters, only
//!   that it is there. Peers poll it ([`NodeDirectory::events_since`]) and
//!   discovery relations fold it ([`NodeDirectory::described_since`]);
//!   only a fixed window of it is kept, and a reader whose cursor has
//!   fallen out of the window starts over from the full listing;
//! * **one removal** — a direct [`NodeDirectory::deregister`], a leave
//!   delivered by the [`bus`](crate::bus), a peer's `Left` event and the
//!   eviction of a dead peer all end in the same function, which drops the
//!   service with its metadata and host tag and logs the leave;
//! * **invocation** — `NodeDirectory: Invoker`, so the directory is the
//!   base of the β executor's `InvokerStack`.
//!
//! Services of linked peers appear here as local proxies
//! ([`RemoteService`]), except under a reference a service hosted here
//! holds: the node's own service wins. Liveness is heartbeat-driven: every
//! [`NodeDirectory::poll_peers`] round-trip doubles as the heartbeat, and
//! a peer that fails one is marked down and its proxies removed —
//! continuous queries observe the departure exactly like a local leave. A
//! later successful poll re-syncs the full listing and the proxies return.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use serena_core::sync::{Mutex, RwLock};

use serena_core::error::EvalError;
use serena_core::prototype::Prototype;
use serena_core::service::{implements, invoke_resolved, Invoker, Service};
use serena_core::time::Instant;
use serena_core::tuple::Tuple;
use serena_core::value::{ServiceRef, Value};

use crate::node::{PeerUpdate, RemoteNodeClient, RemoteService};
use crate::transport::{ServiceAd, Transport, TransportError, WireEvent};

/// How many of the most recent log entries are kept. Peers and discovery
/// relations read once per tick, so this only has to exceed one tick's
/// joins, leaves and metadata writes; a reader further behind takes the
/// full listing.
const LOG_WINDOW: usize = 4096;

/// Discovery metadata of one service, sorted by key.
type Metadata = Vec<(String, Value)>;

/// A reference the log named, with the metadata values asked for if it is
/// a describable provider now (see [`NodeDirectory::described_since`]).
pub type Touched = (ServiceRef, Option<Vec<Value>>);

struct Entry {
    service: Arc<dyn Service>,
    /// The Local ERM that announced it ("" for direct registration).
    origin: String,
    /// Node id of the peer hosting it; `None` for a service hosted here.
    host: Option<String>,
}

struct LogEntry {
    reference: ServiceRef,
    /// Whether the change was to a service hosted by *this* node. Proxies
    /// are left out of what peers see, so listings never loop through a
    /// third node.
    local: bool,
}

#[derive(Default)]
struct State {
    services: HashMap<ServiceRef, Entry>,
    /// Keyed beside `services`, not inside `Entry`: a device's metadata
    /// may be set while its announcement is still on the bus, and then
    /// describes the registration that announcement makes.
    metadata: HashMap<ServiceRef, Metadata>,
    log: VecDeque<LogEntry>,
    /// Absolute position of `log[0]`.
    log_base: u64,
}

impl State {
    fn position(&self) -> u64 {
        self.log_base + self.log.len() as u64
    }

    fn append(&mut self, reference: ServiceRef, local: bool) {
        if self.log.len() == LOG_WINDOW {
            self.log.pop_front();
            self.log_base += 1;
        }
        self.log.push_back(LogEntry { reference, local });
    }

    /// The references of the entries `keep` accepts at absolute positions
    /// `after..`, once each, in order of first appearance; `None` when the
    /// kept window starts later than `after`.
    fn touched<'a>(
        &'a self,
        after: u64,
        keep: impl Fn(&LogEntry) -> bool + 'a,
    ) -> Option<impl Iterator<Item = &'a ServiceRef>> {
        let skip = usize::try_from(after.checked_sub(self.log_base)?).unwrap_or(usize::MAX);
        let mut seen = HashSet::new();
        let entries = self.log.iter().skip(skip);
        let distinct = entries.filter(move |e| keep(e) && seen.insert(&e.reference));
        Some(distinct.map(|e| &e.reference))
    }

    fn insert(&mut self, reference: ServiceRef, entry: Entry) {
        let local = entry.host.is_none();
        self.services.insert(reference.clone(), entry);
        self.append(reference, local);
    }

    /// The one way a service leaves the directory, whoever asked.
    fn remove(&mut self, reference: &ServiceRef) -> bool {
        let Some(entry) = self.services.remove(reference) else {
            return false;
        };
        self.metadata.remove(reference);
        self.append(reference.clone(), entry.host.is_none());
        true
    }

    fn set(&mut self, reference: ServiceRef, key: &str, value: Value) {
        let slot = self.metadata.entry(reference).or_default();
        match slot.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(i) => slot[i].1 = value,
            Err(i) => slot.insert(i, (key.to_string(), value)),
        }
    }

    fn get(&self, reference: &ServiceRef, key: &str) -> Option<&Value> {
        let slot = self.metadata.get(reference)?;
        let i = slot.binary_search_by(|(k, _)| k.as_str().cmp(key)).ok()?;
        Some(&slot[i].1)
    }

    /// The metadata values of `reference` for `keys`, in `keys` order, if
    /// it has one for each.
    fn values(&self, reference: &ServiceRef, keys: &[String]) -> Option<Vec<Value>> {
        keys.iter()
            .map(|key| self.get(reference, key).cloned())
            .collect()
    }

    /// The advertisement for `reference`, if it is hosted here.
    fn advertise(&self, reference: &ServiceRef) -> Option<ServiceAd> {
        let entry = self.services.get(reference).filter(|e| e.host.is_none())?;
        Some(ServiceAd {
            reference: reference.clone(),
            origin: entry.origin.clone(),
            prototypes: entry.service.prototypes(),
            metadata: self.metadata.get(reference).cloned().unwrap_or_default(),
        })
    }

    /// Sorted references of the services `keep` accepts.
    fn references(&self, keep: impl Fn(&Entry) -> bool) -> Vec<ServiceRef> {
        let mut refs: Vec<ServiceRef> = self
            .services
            .iter()
            .filter(|(_, e)| keep(e))
            .map(|(r, _)| r.clone())
            .collect();
        refs.sort();
        refs
    }

    /// Register a proxy for a service advertised by the peer behind
    /// `client`, unless a service hosted here holds the reference: a peer
    /// never shadows this node's own.
    fn adopt(&mut self, client: &RemoteNodeClient, ad: ServiceAd) {
        let hosted_here = |e: &Entry| e.host.is_none();
        if self.services.get(&ad.reference).is_some_and(hosted_here) {
            return;
        }
        for (key, value) in ad.metadata {
            self.set(ad.reference.clone(), &key, value);
        }
        let proxy = RemoteService::new(client.share(), ad.reference.clone(), ad.prototypes);
        let entry = Entry {
            service: Arc::new(proxy),
            origin: ad.origin,
            host: Some(client.node().to_string()),
        };
        self.insert(ad.reference, entry);
    }

    fn hosts(&self, reference: &ServiceRef, node: &str) -> bool {
        self.services
            .get(reference)
            .is_some_and(|e| e.host.as_deref() == Some(node))
    }

    /// Apply one answer of the peer behind `client`: its events in order,
    /// or — for a listing — everything imported from it replaced.
    fn apply(&mut self, client: &RemoteNodeClient, update: PeerUpdate) {
        let node = client.node();
        match update {
            PeerUpdate::Events(events) => {
                for event in events {
                    match event {
                        WireEvent::Joined(ad) => self.adopt(client, ad),
                        WireEvent::Left(reference) => {
                            if self.hosts(&reference, node) {
                                self.remove(&reference);
                            }
                        }
                    }
                }
            }
            PeerUpdate::Listing(services) => {
                self.evict(node);
                for ad in services {
                    self.adopt(client, ad);
                }
            }
        }
    }

    /// Drop every proxy imported from `node`, in reference order.
    fn evict(&mut self, node: &str) {
        for reference in self.references(|e| e.host.as_deref() == Some(node)) {
            self.remove(&reference);
        }
    }
}

struct PeerLink {
    client: RemoteNodeClient,
    /// Cursor into the peer's event log.
    cursor: u64,
    /// Whether the last heartbeat/poll round-trip succeeded.
    alive: bool,
    /// Logical instant of the last successful round-trip.
    last_seen: Instant,
}

/// Health of one connected peer, as reported by
/// [`NodeDirectory::peer_status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerStatus {
    /// The peer's node id (learned during the hello handshake).
    pub node: String,
    /// The peer's address.
    pub addr: String,
    /// Whether the last poll round-trip succeeded.
    pub alive: bool,
    /// Logical instant of the last successful round-trip.
    pub last_seen: Instant,
    /// Number of this peer's services currently proxied here.
    pub services: usize,
}

/// One node's service directory: its service table, event log and peer
/// links (see the module docs).
pub struct NodeDirectory {
    node: String,
    state: RwLock<State>,
    peers: Mutex<Vec<PeerLink>>,
}

impl NodeDirectory {
    /// An empty directory for node `node`.
    pub fn new(node: impl Into<String>) -> Self {
        NodeDirectory {
            node: node.into(),
            state: RwLock::new(State::default()),
            peers: Mutex::new(Vec::new()),
        }
    }

    /// This node's id.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// Register a service hosted here, with no LERM origin. Replaces any
    /// service already registered under `reference`.
    pub fn register(&self, reference: impl Into<ServiceRef>, service: Arc<dyn Service>) {
        self.register_from(reference, service, "");
    }

    /// Register a service hosted here that LERM `origin` announced.
    /// Metadata already [`set`](Self::set) for `reference` describes it.
    pub fn register_from(
        &self,
        reference: impl Into<ServiceRef>,
        service: Arc<dyn Service>,
        origin: impl Into<String>,
    ) {
        let entry = Entry {
            service,
            origin: origin.into(),
            host: None,
        };
        self.state.write().insert(reference.into(), entry);
    }

    /// Remove `reference` and its metadata. Returns `true` if it was
    /// registered.
    pub fn deregister(&self, reference: impl Into<ServiceRef>) -> bool {
        self.state.write().remove(&reference.into())
    }

    /// The service implementation behind `reference`, if registered (for
    /// a remote service this is its local proxy).
    pub fn resolve(&self, reference: &ServiceRef) -> Option<Arc<dyn Service>> {
        let state = self.state.read();
        state.services.get(reference).map(|e| e.service.clone())
    }

    /// All registered references (sorted — deterministic output).
    pub fn references(&self) -> Vec<ServiceRef> {
        self.state.read().references(|_| true)
    }

    /// Number of registered services.
    pub fn len(&self) -> usize {
        self.state.read().services.len()
    }

    /// True iff no services are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `reference` is currently registered.
    pub fn contains(&self, reference: &ServiceRef) -> bool {
        self.state.read().services.contains_key(reference)
    }

    /// The Local ERM that announced `reference`, if registered ("" for a
    /// direct registration).
    pub fn origin_of(&self, reference: &ServiceRef) -> Option<String> {
        let state = self.state.read();
        state.services.get(reference).map(|e| e.origin.clone())
    }

    /// Whether `reference` is a proxy for a service on another node, and
    /// if so which one.
    pub fn hosted_by(&self, reference: &ServiceRef) -> Option<String> {
        let state = self.state.read();
        state.services.get(reference).and_then(|e| e.host.clone())
    }

    /// Set one discovery metadata attribute of `reference`. It is dropped
    /// when the service leaves; set before the service's announcement has
    /// landed, it is kept for that registration. Logged like a join: peers
    /// and discovery relations that already saw the service look at it
    /// again.
    pub fn set(&self, reference: impl Into<ServiceRef>, key: &str, value: Value) {
        let reference = reference.into();
        let mut state = self.state.write();
        state.set(reference.clone(), key, value);
        let local = state
            .services
            .get(&reference)
            .is_some_and(|e| e.host.is_none());
        state.append(reference, local);
    }

    /// One discovery metadata attribute of `reference`.
    pub fn get(&self, reference: impl Into<ServiceRef>, key: &str) -> Option<Value> {
        self.state.read().get(&reference.into(), key).cloned()
    }

    /// The providers of `prototype` (sorted) that have a metadata value
    /// for every one of `keys`, each with those values in `keys` order,
    /// paired with the log position of the listing. A provider lacking a
    /// value is discovered but not yet describable: it is left out until
    /// its metadata arrives.
    pub fn described_providers(
        &self,
        prototype: &str,
        keys: &[String],
    ) -> (u64, Vec<(ServiceRef, Vec<Value>)>) {
        let state = self.state.read();
        let providers = state
            .references(|e| implements(&*e.service, prototype))
            .into_iter()
            .filter_map(|reference| {
                let values = state.values(&reference, keys)?;
                Some((reference, values))
            })
            .collect();
        (state.position(), providers)
    }

    /// Every reference logged after absolute position `after`, once each,
    /// with what [`described_providers`](Self::described_providers) says
    /// about it now — its values, or `None` if it is not (any longer, or
    /// yet) a describable provider of `prototype` — and the caller's next
    /// cursor. A reader that applies this to the listing it took at
    /// `after` holds the listing as of the returned position. `None` when
    /// `after` is older than the kept window of the log: the reader must
    /// take the listing again.
    pub fn described_since(
        &self,
        after: u64,
        prototype: &str,
        keys: &[String],
    ) -> Option<(u64, Vec<Touched>)> {
        let state = self.state.read();
        let touched = state
            .touched(after, |_| true)?
            .map(|reference| {
                let values = match state.services.get(reference) {
                    Some(entry) if implements(&*entry.service, prototype) => {
                        state.values(reference, keys)
                    }
                    _ => None,
                };
                (reference.clone(), values)
            })
            .collect();
        Some((state.position(), touched))
    }

    /// One event per *locally hosted* reference logged after absolute
    /// position `after`, with the caller's next cursor — what peers poll.
    /// The event says what holds now: `Joined`, carrying the service's
    /// current advertisement, if it is hosted here (so metadata set after
    /// the join re-advertises it), `Left` otherwise (so a service that
    /// joined and left again since `after` shows only its leave). `None`
    /// when `after` is older than the kept window of the log: the caller
    /// has missed entries and must take
    /// [`advertise_all`](Self::advertise_all) instead.
    pub fn events_since(&self, after: u64) -> Option<(u64, Vec<WireEvent>)> {
        let state = self.state.read();
        let events = state
            .touched(after, |e| e.local)?
            .map(|reference| match state.advertise(reference) {
                Some(ad) => WireEvent::Joined(ad),
                None => WireEvent::Left(reference.clone()),
            })
            .collect();
        Some((state.position(), events))
    }

    /// Advertisements for every locally hosted service (sorted by
    /// reference), paired with the log position of the listing.
    pub fn advertise_all(&self) -> (u64, Vec<ServiceAd>) {
        let state = self.state.read();
        let ads = state
            .references(|e| e.host.is_none())
            .iter()
            .filter_map(|r| state.advertise(r))
            .collect();
        (state.position(), ads)
    }

    /// Connect to the peer node listening at `addr` and import its
    /// services as local proxies. Returns the peer's node id.
    pub fn connect_peer(
        &self,
        transport: Arc<dyn Transport>,
        addr: &str,
    ) -> Result<String, TransportError> {
        let client = RemoteNodeClient::connect(transport, addr, &self.node)?;
        let node = client.node().to_string();
        // a self-link would relay a β call back to the node that made it
        if node == self.node {
            return Err(TransportError::Protocol(format!(
                "node `{node}` refuses to link to itself"
            )));
        }
        let (cursor, services) = client.list_services()?;
        self.state
            .write()
            .apply(&client, PeerUpdate::Listing(services));
        self.peers.lock().push(PeerLink {
            client,
            cursor,
            alive: true,
            last_seen: Instant(0),
        });
        Ok(node)
    }

    /// Poll every connected peer once: apply its join/leave events and
    /// refresh liveness. The successful round-trip *is* the heartbeat;
    /// one failure marks the peer down and evicts its proxies, so β calls
    /// routed at it fail fast as [`EvalError::UnknownService`] rather than
    /// hanging. A peer that is down is asked for its full listing (a
    /// stale cursor is useless after a server restart), and a live peer
    /// answers with one when our cursor has left its log window; either
    /// way the listing replaces what was imported in one step, so readers
    /// see no gap.
    ///
    /// Called once per tick by the PEMS engine, before discovery
    /// refresh, so membership changes land with the same timing as a
    /// local bus announcement.
    pub fn poll_peers(&self, now: Instant) {
        for peer in self.peers.lock().iter_mut() {
            let answer = if peer.alive {
                peer.client.poll_events(peer.cursor)
            } else {
                let listing = peer.client.list_services();
                listing.map(|(seq, services)| (seq, PeerUpdate::Listing(services)))
            };
            match answer {
                Ok((cursor, update)) => {
                    self.state.write().apply(&peer.client, update);
                    peer.cursor = cursor;
                    peer.alive = true;
                    peer.last_seen = now;
                }
                Err(_) if peer.alive => {
                    peer.alive = false;
                    self.state.write().evict(peer.client.node());
                }
                Err(_) => {}
            }
        }
    }

    /// Liveness and proxy counts for every connected peer.
    pub fn peer_status(&self) -> Vec<PeerStatus> {
        let peers = self.peers.lock();
        let state = self.state.read();
        peers
            .iter()
            .map(|p| PeerStatus {
                node: p.client.node().to_string(),
                addr: p.client.addr().to_string(),
                alive: p.alive,
                last_seen: p.last_seen,
                services: state
                    .services
                    .values()
                    .filter(|e| e.host.as_deref() == Some(p.client.node()))
                    .count(),
            })
            .collect()
    }
}

impl Invoker for NodeDirectory {
    fn invoke(
        &self,
        prototype: &Prototype,
        service_ref: &ServiceRef,
        input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, EvalError> {
        invoke_resolved(self.resolve(service_ref), prototype, service_ref, input, at)
    }

    fn providers_of(&self, prototype: &str) -> Vec<ServiceRef> {
        let state = self.state.read();
        state.references(|e| implements(&*e.service, prototype))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{BusConfig, DiscoveryBus, LocalErm};
    use crate::discovery::{Applied, DiscoveryQuery};
    use crate::node::{NodeHandle, ServiceNode};
    use crate::transport::InProcTransport;
    use serena_core::metrics::NoopMetrics;
    use serena_core::plan::Plan;
    use serena_core::prototype::examples as protos;
    use serena_core::schema::XSchema;
    use serena_core::service::fixtures;
    use serena_core::value::DataType;
    use serena_stream::exec::{ContinuousQuery, SourceSet};
    use serena_stream::multiset::Multiset;
    use serena_stream::source::TableHandle;
    use serena_testkit::Rng;
    use std::collections::BTreeMap;

    fn sref(name: &str) -> ServiceRef {
        ServiceRef::new(name)
    }

    fn joined(event: &WireEvent) -> Option<&str> {
        match event {
            WireEvent::Joined(ad) => Some(ad.reference.as_str()),
            WireEvent::Left(_) => None,
        }
    }

    #[test]
    fn register_resolve_events_and_metadata() {
        let dir = NodeDirectory::new("n1");
        assert_eq!(dir.node(), "n1");
        dir.register("sensor01", fixtures::temperature_sensor(1));
        dir.set("sensor01", "location", Value::str("office"));

        assert!(dir.contains(&sref("sensor01")));
        assert!(dir.resolve(&sref("sensor01")).is_some());
        assert_eq!(dir.get("sensor01", "location"), Some(Value::str("office")));
        assert_eq!(
            dir.state
                .read()
                .advertise(&sref("sensor01"))
                .unwrap()
                .metadata,
            vec![("location".to_string(), Value::str("office"))]
        );

        let (next, events) = dir.events_since(0).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(joined(&events[0]), Some("sensor01"));

        assert!(dir.deregister("sensor01"));
        let (_, events) = dir.events_since(next).unwrap();
        assert_eq!(events, vec![WireEvent::Left(sref("sensor01"))]);
        // metadata evicted with the service
        assert_eq!(dir.get("sensor01", "location"), None);
    }

    #[test]
    fn register_unregister_with_events() {
        let dir = NodeDirectory::new("n1");
        dir.register_from("sensor01", fixtures::temperature_sensor(1), "lerm-A");
        dir.register("sensor02", fixtures::temperature_sensor(2));
        assert_eq!(dir.len(), 2);
        assert_eq!(dir.origin_of(&sref("sensor01")).unwrap(), "lerm-A");

        let (next, events) = dir.events_since(0).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(joined(&events[0]), Some("sensor01"));

        assert!(dir.deregister("sensor01"));
        assert!(!dir.deregister("sensor01"));
        let (_, events) = dir.events_since(next).unwrap();
        assert_eq!(events, vec![WireEvent::Left(sref("sensor01"))]);
    }

    #[test]
    fn directory_is_an_invoker() {
        let dir = NodeDirectory::new("n1");
        dir.register("sensor01", fixtures::temperature_sensor(1));
        let call = |name: &str| {
            dir.invoke(
                &protos::get_temperature(),
                &sref(name),
                &Tuple::empty(),
                Instant(1),
            )
        };
        assert_eq!(call("sensor01").unwrap().len(), 1);
        assert!(call("ghost").is_err());
        assert_eq!(dir.providers_of("getTemperature").len(), 1);
    }

    #[test]
    fn providers_of_updates_with_churn() {
        let dir = NodeDirectory::new("n1");
        dir.register("sensor01", fixtures::temperature_sensor(1));
        dir.register("camera01", fixtures::camera(1));
        assert_eq!(dir.providers_of("getTemperature").len(), 1);
        dir.register("sensor02", fixtures::temperature_sensor(2));
        assert_eq!(dir.providers_of("getTemperature").len(), 2);
        dir.deregister("sensor01");
        assert_eq!(dir.providers_of("getTemperature"), vec![sref("sensor02")]);
    }

    #[test]
    fn replace_registration_keeps_single_entry() {
        let dir = NodeDirectory::new("n1");
        dir.register("s", fixtures::temperature_sensor(1));
        dir.register("s", fixtures::temperature_sensor(9));
        assert_eq!(dir.len(), 1);
        assert_eq!(dir.references().len(), 1);
    }

    #[test]
    fn events_since_excludes_nothing_when_all_local() {
        let dir = NodeDirectory::new("n1");
        dir.register("a", fixtures::temperature_sensor(1));
        dir.register("b", fixtures::temperature_sensor(2));
        let (next, events) = dir.events_since(0).unwrap();
        assert_eq!(next, 2);
        assert_eq!(events.len(), 2);
        // cursor semantics: nothing new after `next`
        assert_eq!(dir.events_since(next), Some((next, Vec::new())));
    }

    #[test]
    fn advertise_carries_prototypes_and_metadata() {
        let dir = NodeDirectory::new("n1");
        dir.register_from("sensor01", fixtures::temperature_sensor(1), "building");
        dir.set("sensor01", "location", Value::str("office"));
        let (_, ads) = dir.advertise_all();
        assert_eq!(ads.len(), 1);
        let ad = &ads[0];
        assert_eq!(ad.origin, "building");
        assert_eq!(ad.prototypes.len(), 1);
        assert_eq!(ad.prototypes[0].name(), "getTemperature");
        assert_eq!(
            ad.metadata,
            vec![("location".to_string(), Value::str("office"))]
        );
    }

    #[test]
    fn metadata_set_before_the_announcement_lands_describes_it_and_leaves_with_it() {
        let bus = DiscoveryBus::new(BusConfig::default());
        let lerm = LocalErm::new("wing", Arc::clone(&bus));
        let dir = NodeDirectory::new("n1");
        let location = ["location".to_string()];

        let described = || dir.described_providers("getTemperature", &location).1;
        lerm.register_service("s0", fixtures::temperature_sensor(1), Instant(0));
        dir.set("s0", "location", Value::str("office"));
        assert!(described().is_empty());
        bus.deliver_due(Instant(1), &dir);
        assert_eq!(described(), vec![(sref("s0"), vec![Value::str("office")])]);

        // a leave delivered by the bus drops the metadata like a direct one
        lerm.unregister_service("s0", Instant(1));
        bus.deliver_due(Instant(2), &dir);
        assert_eq!(dir.get("s0", "location"), None);
        lerm.register_service("s0", fixtures::temperature_sensor(2), Instant(2));
        bus.deliver_due(Instant(3), &dir);
        assert!(dir.contains(&sref("s0")));
        assert!(described().is_empty());
    }

    /// A served, empty directory named `node` and a client connected to it:
    /// what `State::apply` needs to stand in for a polled peer.
    fn peer(transport: &Arc<dyn Transport>, node: &str) -> (NodeHandle, RemoteNodeClient) {
        let addr = format!("inproc:{node}");
        let host = Arc::new(NodeDirectory::new(node));
        let handle = ServiceNode::serve(Arc::clone(transport), &addr, host).unwrap();
        let client = RemoteNodeClient::connect(Arc::clone(transport), &addr, "model").unwrap();
        (handle, client)
    }

    #[derive(Clone, Debug, PartialEq)]
    struct ModelEntry {
        camera: bool,
        origin: String,
        host: Option<String>,
    }

    /// The directory as two plain maps, and the bus as a list.
    #[derive(Default)]
    struct Model {
        services: BTreeMap<String, ModelEntry>,
        metadata: BTreeMap<String, BTreeMap<String, Value>>,
        /// `(deliver_at, bus, name, Some(camera) to announce | None to leave)`
        /// in send order.
        in_flight: Vec<(u64, usize, String, Option<bool>)>,
    }

    impl Model {
        /// Metadata goes with the service it described — a leave for a
        /// name that is not registered takes nothing.
        fn remove(&mut self, name: &str) -> bool {
            let present = self.services.remove(name).is_some();
            if present {
                self.metadata.remove(name);
            }
            present
        }

        /// A peer's advertisement never shadows a service hosted here.
        fn adopt(&mut self, node: &str, ad: &ServiceAd) {
            let name = ad.reference.as_str().to_string();
            if self.services.get(&name).is_some_and(|e| e.host.is_none()) {
                return;
            }
            let slot = self.metadata.entry(name.clone()).or_default();
            slot.extend(ad.metadata.iter().cloned());
            let entry = ModelEntry {
                camera: ad.prototypes[0].name() != "getTemperature",
                origin: ad.origin.clone(),
                host: Some(node.to_string()),
            };
            self.services.insert(name, entry);
        }

        fn evict(&mut self, node: &str) {
            let hosted = |e: &ModelEntry| e.host.as_deref() == Some(node);
            let victims: Vec<String> = self
                .services
                .iter()
                .filter(|(_, e)| hosted(e))
                .map(|(name, _)| name.clone())
                .collect();
            for name in victims {
                self.remove(&name);
            }
        }

        fn providers(&self, camera: bool) -> Vec<ServiceRef> {
            let of_kind = self.services.iter().filter(|(_, e)| e.camera == camera);
            of_kind.map(|(name, _)| sref(name)).collect()
        }
    }

    fn device(camera: bool, seed: u64) -> Arc<dyn Service> {
        if camera {
            fixtures::camera(seed)
        } else {
            fixtures::temperature_sensor(seed)
        }
    }

    fn ad(rng: &mut Rng, name: &str) -> ServiceAd {
        let camera = rng.below(3) == 0;
        let mut metadata = Vec::new();
        if rng.below(2) == 0 {
            metadata.push(("location".to_string(), Value::Int(rng.below(5) as i64)));
        }
        ServiceAd {
            reference: sref(name),
            origin: format!("far-{}", rng.below(2)),
            prototypes: device(camera, 0).prototypes(),
            metadata,
        }
    }

    /// Apply `events_since` output to a reference → origin map.
    fn replay(map: &mut BTreeMap<String, String>, events: Vec<WireEvent>) {
        for event in events {
            match event {
                WireEvent::Joined(ad) => map.insert(ad.reference.as_str().to_string(), ad.origin),
                WireEvent::Left(reference) => map.remove(reference.as_str()),
            };
        }
    }

    /// A discovery relation maintained from the log in a table of its own,
    /// beside a twin table that is handed the whole query every time
    /// (`replace_with`, the maintenance this one replaced). Each table has a
    /// continuous reader that commits it when ticked.
    struct Maintained {
        query: DiscoveryQuery,
        table: TableHandle,
        twin: TableHandle,
        readers: [ContinuousQuery; 2],
    }

    impl Maintained {
        /// Providers of `prototype`, described by the metadata `keys`
        /// (integers, as the walk sets them).
        fn new(prototype: &str, keys: &[&str]) -> Self {
            let mut schema = XSchema::builder().real("service", DataType::Service);
            for key in keys {
                schema = schema.real(*key, DataType::Int);
            }
            let schema = schema.build().unwrap();
            let [table, twin] = [0, 1].map(|_| TableHandle::new(schema.clone()));
            let readers = [&table, &twin].map(|handle| {
                let mut sources = SourceSet::new();
                sources.add_table("maintained", handle.clone());
                ContinuousQuery::compile(&Plan::source("maintained"), &mut sources).unwrap()
            });
            Maintained {
                query: DiscoveryQuery::new(prototype, schema, "service").unwrap(),
                table,
                twin,
                readers,
            }
        }

        /// One `apply`, then the invariant: the table projects the query,
        /// and holds it as the very mutations a wholesale replacement
        /// would have queued — a checkpoint cannot tell the two apart.
        fn apply(&mut self, dir: &NodeDirectory, context: &str) -> Applied {
            let applied = self.query.apply(dir, &self.table);
            let listed = self.query.refresh_in(dir).into_tuples();
            self.twin.replace_with(listed.iter().cloned());
            let listed: Multiset = listed.into_iter().collect();
            assert_eq!(self.table.projected(), listed, "{context}");
            let exported = |table: &TableHandle| {
                let mut w = serena_core::snapshot::Writer::new();
                table.export_state(&mut w);
                w.into_bytes()
            };
            assert_eq!(exported(&self.table), exported(&self.twin), "{context}");
            applied
        }

        /// Commit both tables; a continuous reader holds the query too.
        fn commit(&mut self, dir: &NodeDirectory, context: &str) {
            let mut deltas = self
                .readers
                .iter_mut()
                .map(|reader| reader.tick_with(dir, &NoopMetrics).delta);
            assert_eq!(deltas.next(), deltas.next(), "{context}");
            let read = self.readers[0].current_relation().unwrap();
            assert_eq!(read, self.query.refresh_in(dir), "{context}");
            assert_eq!(self.table.snapshot(), self.table.projected(), "{context}");
        }
    }

    #[test]
    fn random_walk_agrees_with_a_plain_map_model() {
        const STEPS: usize = 2500;
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let (_handle_a, peer_a) = peer(&transport, "peer-a");
        let (_handle_b, peer_b) = peer(&transport, "peer-b");
        let peers = [peer_a, peer_b];
        // two buses: announcements race leaves at different delays
        let configs = [
            BusConfig::instant(),
            BusConfig {
                announce_latency: 3,
                leave_latency: 1,
                ..BusConfig::instant()
            },
        ];
        let buses = configs.map(DiscoveryBus::new);
        let lerms = [0, 1].map(|i| LocalErm::new(format!("lerm-{i}"), Arc::clone(&buses[i])));
        let names: Vec<String> = (0..12).map(|i| format!("s{i:02}")).collect();

        let dir = NodeDirectory::new("model");
        let mut model = Model::default();
        let mut rng = Rng::from_state(0x5EED_D1CE);
        let mut now = 0u64;
        let mut followed = BTreeMap::new();
        let mut cursor = 0u64;
        // two relations folded from the log: one a provider enters when
        // its `location` arrives, one that needs no metadata
        let mut maintained = [
            Maintained::new("getTemperature", &["location"]),
            Maintained::new("checkPhoto", &[]),
        ];
        let mut reconciled = 0;

        for step in 0..STEPS {
            let name = names[rng.below(names.len())].as_str();
            let which = rng.below(2);
            let node = peers[which].node().to_string();
            match rng.below(10) {
                0 => {
                    let camera = rng.below(3) == 0;
                    dir.register(name, device(camera, step as u64));
                    let entry = ModelEntry {
                        camera,
                        origin: String::new(),
                        host: None,
                    };
                    model.services.insert(name.to_string(), entry);
                }
                1 => assert_eq!(dir.deregister(name), model.remove(name), "step {step}"),
                2 => {
                    let camera = rng.below(3) == 0;
                    lerms[which].register_service(name, device(camera, step as u64), Instant(now));
                    let due = now + configs[which].announce_latency;
                    model
                        .in_flight
                        .push((due, which, name.to_string(), Some(camera)));
                }
                3 => {
                    lerms[which].unregister_service(name, Instant(now));
                    let due = now + configs[which].leave_latency;
                    model.in_flight.push((due, which, name.to_string(), None));
                }
                4 | 5 => {
                    now += 1;
                    for (i, bus) in buses.iter().enumerate() {
                        bus.deliver_due(Instant(now), &dir);
                        let (mut due, later): (Vec<_>, Vec<_>) =
                            std::mem::take(&mut model.in_flight)
                                .into_iter()
                                .partition(|m| m.1 == i && m.0 <= now);
                        model.in_flight = later;
                        due.sort_by_key(|m| m.0); // stable: send order within an instant
                        for (_, _, name, announced) in due {
                            match announced {
                                Some(camera) => {
                                    let entry = ModelEntry {
                                        camera,
                                        origin: format!("lerm-{i}"),
                                        host: None,
                                    };
                                    model.services.insert(name, entry);
                                }
                                None => {
                                    model.remove(&name);
                                }
                            }
                        }
                    }
                }
                6 => {
                    let value = Value::Int(rng.below(5) as i64);
                    dir.set(name, "location", value.clone());
                    let slot = model.metadata.entry(name.to_string()).or_default();
                    slot.insert("location".to_string(), value);
                }
                7 => {
                    let ad = ad(&mut rng, name);
                    model.adopt(&node, &ad);
                    let update = PeerUpdate::Events(vec![WireEvent::Joined(ad)]);
                    dir.state.write().apply(&peers[which], update);
                }
                8 => {
                    if model.services.get(name).and_then(|e| e.host.as_ref()) == Some(&node) {
                        model.remove(name);
                    }
                    let update = PeerUpdate::Events(vec![WireEvent::Left(sref(name))]);
                    dir.state.write().apply(&peers[which], update);
                }
                _ => {
                    model.evict(&node);
                    if rng.below(2) == 0 {
                        dir.state.write().evict(&node);
                    } else {
                        let listed = [name, names[rng.below(names.len())].as_str()];
                        let ads: Vec<ServiceAd> =
                            listed.iter().map(|name| ad(&mut rng, name)).collect();
                        ads.iter().for_each(|ad| model.adopt(&node, ad));
                        dir.state
                            .write()
                            .apply(&peers[which], PeerUpdate::Listing(ads));
                    }
                }
            }

            let listed: Vec<ServiceRef> = model.services.keys().map(|n| sref(n)).collect();
            assert_eq!(dir.references(), listed, "step {step}");
            assert_eq!(dir.len(), model.services.len(), "step {step}");
            assert_eq!(
                dir.providers_of("getTemperature"),
                model.providers(false),
                "step {step}"
            );
            assert_eq!(
                dir.providers_of("checkPhoto"),
                model.providers(true),
                "step {step}"
            );
            for name in &names {
                let entry = model.services.get(name);
                let location = model.metadata.get(name).and_then(|m| m.get("location"));
                assert_eq!(dir.get(name.as_str(), "location").as_ref(), location);
                assert_eq!(dir.origin_of(&sref(name)), entry.map(|e| e.origin.clone()));
                assert_eq!(
                    dir.hosted_by(&sref(name)),
                    entry.and_then(|e| e.host.clone())
                );
            }

            // the log rebuilds the locally hosted half, followed from a
            // cursor like a peer does and replayed from the start
            let local: BTreeMap<String, String> = model
                .services
                .iter()
                .filter(|(_, e)| e.host.is_none())
                .map(|(name, e)| (name.clone(), e.origin.clone()))
                .collect();
            let (next, events) = dir.events_since(cursor).unwrap();
            cursor = next;
            replay(&mut followed, events);
            assert_eq!(followed, local, "step {step}");
            if step % 16 == 0 {
                let (_, events) = dir.events_since(0).expect("window holds the whole walk");
                let mut replayed = BTreeMap::new();
                replay(&mut replayed, events);
                assert_eq!(replayed, local, "step {step}");
            }

            // the fold equals the query, whether or not the table was
            // committed since the rows it is asked to take back went in
            for relation in &mut maintained {
                match relation.apply(&dir, &format!("step {step}")) {
                    Applied::Relisted => assert_eq!(step, 0, "the window holds the whole walk"),
                    Applied::Reconciled(n) => reconciled += n,
                }
                if step % 7 == 0 {
                    relation.commit(&dir, &format!("step {step}"));
                }
            }
        }
        // the walk exercised every half of the table
        assert!(cursor > STEPS as u64 / 2, "only {cursor} events");
        assert!(reconciled > STEPS / 2, "only {reconciled} references");
    }

    #[test]
    fn a_discovery_relation_that_fell_out_of_the_log_window_converges_from_the_listing() {
        let dir = NodeDirectory::new("n1");
        let mut sensors = Maintained::new("getTemperature", &["location"]);
        dir.register("stays", fixtures::temperature_sensor(1));
        dir.set("stays", "location", Value::Int(1));
        dir.register("goes", fixtures::temperature_sensor(2));
        dir.set("goes", "location", Value::Int(2));
        dir.register("moves", fixtures::temperature_sensor(3));
        dir.set("moves", "location", Value::Int(3));
        assert_eq!(sensors.apply(&dir, "first"), Applied::Relisted);
        sensors.commit(&dir, "first");
        assert_eq!(sensors.apply(&dir, "idle"), Applied::Reconciled(0));

        // within the window: the three touched references, nothing else
        dir.deregister("goes");
        dir.set("moves", "location", Value::Int(4));
        dir.set("moves", "location", Value::Int(5));
        dir.register("camera", fixtures::camera(4));
        assert_eq!(sensors.apply(&dir, "churn"), Applied::Reconciled(3));

        // more than a window between two calls: the entries that named
        // `moves` and `comes` are gone, the listing still finds them
        dir.set("moves", "location", Value::Int(6));
        dir.register("comes", fixtures::temperature_sensor(5));
        dir.set("comes", "location", Value::Int(7));
        for i in 0..LOG_WINDOW {
            dir.set(format!("blip{}", i % 3), "location", Value::Int(0));
        }
        assert_eq!(sensors.apply(&dir, "overflow"), Applied::Relisted);
        assert_eq!(sensors.table.projected().len(), 3);
        sensors.commit(&dir, "overflow");
        assert_eq!(sensors.apply(&dir, "idle again"), Applied::Reconciled(0));
    }

    #[test]
    fn ten_thousand_fresh_names_leave_nothing_behind() {
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let (_handle, client) = peer(&transport, "peer-a");
        let bus = DiscoveryBus::new(BusConfig::instant());
        let lerm = LocalErm::new("wing", Arc::clone(&bus));
        let dir = NodeDirectory::new("n1");
        dir.register("resident", fixtures::temperature_sensor(0));
        dir.set("resident", "location", Value::str("hall"));

        let mut plateau = None;
        for round in 0..10_000u64 {
            let (near, far) = (format!("near{round}"), format!("far{round}"));
            lerm.register_service(
                near.clone(),
                fixtures::temperature_sensor(round),
                Instant(round),
            );
            dir.set(near.clone(), "location", Value::str("office"));
            bus.deliver_due(Instant(round), &dir);
            let mut ad = dir.state.read().advertise(&sref(&near)).unwrap();
            ad.reference = sref(&far);
            let joined = PeerUpdate::Events(vec![WireEvent::Joined(ad)]);
            dir.state.write().apply(&client, joined);
            assert_eq!(dir.len(), 3);

            lerm.unregister_service(near, Instant(round));
            bus.deliver_due(Instant(round), &dir);
            if round % 2 == 0 {
                let left = PeerUpdate::Events(vec![WireEvent::Left(sref(&far))]);
                dir.state.write().apply(&client, left);
            } else {
                dir.state.write().evict(client.node());
            }

            let state = dir.state.read();
            let sizes = (state.services.len(), state.metadata.len(), state.log.len());
            // the resident's join and `set`; per round two joins, the near
            // one's `set`, two leaves
            assert_eq!(state.position(), 2 + 5 * (round + 1));
            if state.position() > 2 * LOG_WINDOW as u64 {
                assert_eq!(*plateau.get_or_insert(sizes), sizes, "round {round}");
            }
        }
        assert_eq!(plateau, Some((1, 1, LOG_WINDOW)));
    }

    #[test]
    fn a_poller_that_fell_out_of_the_log_window_converges_from_the_listing() {
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let host = Arc::new(NodeDirectory::new("host"));
        host.register("old", fixtures::temperature_sensor(1));
        host.set("old", "location", Value::str("attic"));
        host.register("stays", fixtures::temperature_sensor(2));
        let _handle =
            ServiceNode::serve(Arc::clone(&transport), "inproc:host", Arc::clone(&host)).unwrap();
        let edge = NodeDirectory::new("edge");
        edge.connect_peer(Arc::clone(&transport), "inproc:host")
            .unwrap();
        assert_eq!(edge.references(), host.references());

        // the host churns through more than a window before the edge polls
        host.deregister("old");
        for i in 0..LOG_WINDOW {
            host.register(format!("blip{i}"), fixtures::temperature_sensor(3));
            host.deregister(format!("blip{i}"));
        }
        host.register("new", fixtures::camera(4));
        host.set("new", "area", Value::str("roof"));
        assert_eq!(host.events_since(2), None);

        edge.poll_peers(Instant(1));
        assert_eq!(edge.references(), vec![sref("new"), sref("stays")]);
        assert_eq!(edge.get("new", "area"), Some(Value::str("roof")));
        assert_eq!(edge.get("old", "location"), None);
        // in band: no down/up blip, and the fresh cursor follows on
        let status = edge.peer_status();
        assert!(status[0].alive);
        assert_eq!((status[0].last_seen, status[0].services), (Instant(1), 2));
        host.deregister("stays");
        edge.poll_peers(Instant(2));
        assert_eq!(edge.references(), vec![sref("new")]);
    }
}
