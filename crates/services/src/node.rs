//! Node endpoints: serving a directory to peers and proxying remote
//! services locally.
//!
//! * [`ServiceNode::serve`] exposes a [`NodeDirectory`] on a
//!   [`Transport`] listener — thread-per-connection, one blocking
//!   request/reply exchange at a time per connection;
//! * [`RemoteNodeClient`] is the dialing side: a small connection pool,
//!   a hello handshake that learns the peer's node id, and typed
//!   request helpers;
//! * [`RemoteService`] is the local proxy for one advertised remote
//!   service. It implements [`Service`], so it registers into the local
//!   directory like any device — β calls to it traverse the *entire*
//!   existing `InvokerStack` (retries, circuit breakers,
//!   dedup, telemetry) before crossing the wire, which is how PR 4's
//!   resilience policies come to govern real network latency.
//!
//! Server-side invocation errors are relayed *structurally*
//! ([`InvokeFault::Relayed`]): a `Panicked` on the hosting node is a
//! `Panicked` for the caller, byte-identical to a local panic. Only a
//! transport-level failure (dead node, garbage frames) becomes
//! [`EvalError::RemoteUnavailable`] — and that, in turn, is transient
//! for the resilience layer, so retries and breakers treat a flaky link
//! like a flaky device.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use serena_core::sync::Mutex;

use serena_core::error::EvalError;
use serena_core::prototype::Prototype;
use serena_core::service::{invoke_contained, InvokeFault, Service};
use serena_core::time::Instant;
use serena_core::tuple::Tuple;
use serena_core::value::ServiceRef;

use crate::directory::NodeDirectory;
use crate::transport::{Connection, Frame, ServiceAd, Transport, TransportError, WireEvent};

struct ClientCore {
    transport: Arc<dyn Transport>,
    addr: String,
    local_node: String,
    node: String,
    pool: Mutex<Vec<Box<dyn Connection>>>,
}

/// A pooled, handshaking client for one remote node. Cheap to clone
/// (shared pool); every clone talks to the same endpoint.
#[derive(Clone)]
pub struct RemoteNodeClient {
    core: Arc<ClientCore>,
}

impl RemoteNodeClient {
    /// Dial `addr`, introduce ourselves as `local_node`, and learn the
    /// peer's node id from its welcome.
    pub fn connect(
        transport: Arc<dyn Transport>,
        addr: &str,
        local_node: &str,
    ) -> Result<Self, TransportError> {
        let (conn, node) = dial(&*transport, addr, local_node)?;
        Ok(RemoteNodeClient {
            core: Arc::new(ClientCore {
                transport,
                addr: addr.to_string(),
                local_node: local_node.to_string(),
                node,
                pool: Mutex::new(vec![conn]),
            }),
        })
    }

    /// A handle to the same client (shared connection pool).
    pub fn share(&self) -> RemoteNodeClient {
        self.clone()
    }

    /// The remote node's id (learned during the handshake).
    pub fn node(&self) -> &str {
        &self.core.node
    }

    /// The remote node's address.
    pub fn addr(&self) -> &str {
        &self.core.addr
    }

    fn call(&self, frame: &Frame) -> Result<Frame, TransportError> {
        // try a pooled connection first; it may be stale (peer restarted),
        // in which case fall through to one fresh dial
        let pooled = self.core.pool.lock().pop();
        if let Some(mut conn) = pooled {
            if let Ok(reply) = exchange(&mut conn, frame) {
                self.core.pool.lock().push(conn);
                return Ok(reply);
            }
        }
        let (mut conn, _) = dial(
            &*self.core.transport,
            &self.core.addr,
            &self.core.local_node,
        )?;
        let reply = exchange(&mut conn, frame)?;
        self.core.pool.lock().push(conn);
        Ok(reply)
    }

    /// Full service listing with the matching event-log position.
    pub fn list_services(&self) -> Result<(u64, Vec<ServiceAd>), TransportError> {
        match self.call(&Frame::ListServices)? {
            Frame::ServiceList { seq, services } => Ok((seq, services)),
            other => Err(unexpected("ServiceList", &other)),
        }
    }

    /// What the peer's directory did after log position `after`, with the
    /// caller's next cursor. A successful round-trip doubles as the
    /// liveness heartbeat.
    pub fn poll_events(&self, after: u64) -> Result<(u64, PeerUpdate), TransportError> {
        match self.call(&Frame::PollEvents { after })? {
            Frame::Events { next, events } => Ok((next, PeerUpdate::Events(events))),
            Frame::ServiceList { seq, services } => Ok((seq, PeerUpdate::Listing(services))),
            other => Err(unexpected("Events/ServiceList", &other)),
        }
    }

    /// Relay one β invocation. The outer `Result` is transport success;
    /// the inner one is the remote registry's verdict, relayed
    /// structurally.
    pub fn invoke(
        &self,
        service: &ServiceRef,
        prototype: &str,
        input: &Tuple,
        at: Instant,
    ) -> Result<Result<Vec<Tuple>, EvalError>, TransportError> {
        let frame = Frame::Invoke {
            service: service.clone(),
            prototype: prototype.to_string(),
            input: input.clone(),
            at: at.0,
        };
        match self.call(&frame)? {
            Frame::InvokeOk { tuples } => Ok(Ok(tuples)),
            Frame::InvokeErr { error } => Ok(Err(error)),
            other => Err(unexpected("InvokeOk/InvokeErr", &other)),
        }
    }

    /// Push a checkpoint to a standby peer and wait for its ack.
    pub fn send_checkpoint(&self, tick: u64, bytes: &[u8]) -> Result<(), TransportError> {
        let frame = Frame::Checkpoint {
            tick,
            bytes: bytes.to_vec(),
        };
        match self.call(&frame)? {
            Frame::CheckpointAck { tick: acked } if acked == tick => Ok(()),
            other => Err(unexpected("CheckpointAck", &other)),
        }
    }
}

/// A peer's answer to [`RemoteNodeClient::poll_events`].
#[derive(Debug, Clone, PartialEq)]
pub enum PeerUpdate {
    /// The join/leave events after the polled position, in order.
    Events(Vec<WireEvent>),
    /// The polled position has left the peer's log window: its full
    /// listing, which replaces everything imported from it.
    Listing(Vec<ServiceAd>),
}

fn dial(
    transport: &dyn Transport,
    addr: &str,
    local_node: &str,
) -> Result<(Box<dyn Connection>, String), TransportError> {
    let mut conn = transport.connect(addr)?;
    conn.send(&Frame::Hello {
        node: local_node.to_string(),
    })?;
    match conn.recv()? {
        Frame::Welcome { node } => Ok((conn, node)),
        other => Err(unexpected("Welcome", &other)),
    }
}

fn exchange(conn: &mut Box<dyn Connection>, frame: &Frame) -> Result<Frame, TransportError> {
    conn.send(frame)?;
    conn.recv()
}

fn unexpected(wanted: &str, got: &Frame) -> TransportError {
    // keep the variant name only — payloads may be large (checkpoints)
    let tag = match got {
        Frame::Hello { .. } => "Hello",
        Frame::Welcome { .. } => "Welcome",
        Frame::ListServices => "ListServices",
        Frame::ServiceList { .. } => "ServiceList",
        Frame::PollEvents { .. } => "PollEvents",
        Frame::Events { .. } => "Events",
        Frame::Invoke { .. } => "Invoke",
        Frame::InvokeOk { .. } => "InvokeOk",
        Frame::InvokeErr { .. } => "InvokeErr",
        Frame::Checkpoint { .. } => "Checkpoint",
        Frame::CheckpointAck { .. } => "CheckpointAck",
        Frame::Bye => "Bye",
    };
    TransportError::Protocol(format!("expected {wanted}, got {tag}"))
}

/// The local proxy for one service advertised by a remote node.
pub struct RemoteService {
    client: RemoteNodeClient,
    reference: ServiceRef,
    prototypes: Vec<Arc<Prototype>>,
}

impl RemoteService {
    /// A proxy invoking `reference` through `client`, implementing the
    /// advertised `prototypes` (full schemas, so β results are validated
    /// locally exactly like a local service's).
    pub fn new(
        client: RemoteNodeClient,
        reference: ServiceRef,
        prototypes: Vec<Arc<Prototype>>,
    ) -> Self {
        RemoteService {
            client,
            reference,
            prototypes,
        }
    }

    /// The node hosting the real service.
    pub fn node(&self) -> &str {
        self.client.node()
    }
}

impl Service for RemoteService {
    fn prototypes(&self) -> Vec<Arc<Prototype>> {
        self.prototypes.clone()
    }

    fn invoke(
        &self,
        prototype: &Prototype,
        input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, String> {
        // degraded string channel for callers that bypass the classified
        // path; registries use invoke_classified below
        self.invoke_classified(prototype, input, at)
            .map_err(|fault| match fault {
                InvokeFault::Application(reason) => reason,
                InvokeFault::Relayed(e) => e.to_string(),
                InvokeFault::Transport { node, reason } => {
                    format!("remote node `{node}` unreachable: {reason}")
                }
            })
    }

    fn invoke_classified(
        &self,
        prototype: &Prototype,
        input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, InvokeFault> {
        match self
            .client
            .invoke(&self.reference, prototype.name(), input, at)
        {
            Ok(Ok(tuples)) => Ok(tuples),
            Ok(Err(error)) => Err(InvokeFault::Relayed(error)),
            Err(te) => Err(InvokeFault::Transport {
                node: self.client.node().to_string(),
                reason: te.to_string(),
            }),
        }
    }
}

struct NodeState {
    running: AtomicBool,
    last_checkpoint: Mutex<Option<(u64, Vec<u8>)>>,
    directory: Arc<NodeDirectory>,
}

/// A running node endpoint (see [`ServiceNode::serve`]). Dropping the
/// handle shuts the endpoint down.
pub struct NodeHandle {
    addr: String,
    transport: Arc<dyn Transport>,
    state: Arc<NodeState>,
    accept_thread: Option<JoinHandle<()>>,
}

impl NodeHandle {
    /// The canonical (re-connectable) listen address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The most recent checkpoint replicated to this node, if any —
    /// `(tick, snapshot bytes)`. A standby resumes a dead primary's
    /// queries by `restore_bytes`-ing these.
    pub fn last_checkpoint(&self) -> Option<(u64, Vec<u8>)> {
        self.state.last_checkpoint.lock().clone()
    }

    /// Stop accepting connections and join the accept thread. Handler
    /// threads for still-open connections exit when their peer closes.
    pub fn shutdown(&mut self) {
        if !self.state.running.swap(false, Ordering::SeqCst) {
            return;
        }
        // unblock the accept loop with a throwaway connection
        if let Ok(mut conn) = self.transport.connect(&self.addr) {
            let _ = conn.send(&Frame::Bye);
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Namespace for [`ServiceNode::serve`].
pub struct ServiceNode;

impl ServiceNode {
    /// Expose `directory` at `addr` on `transport`: peers can list and
    /// poll its locally hosted services, relay β invocations to them,
    /// and push standby checkpoints. Returns immediately; the endpoint
    /// runs on background threads until the handle is dropped.
    pub fn serve(
        transport: Arc<dyn Transport>,
        addr: &str,
        directory: Arc<NodeDirectory>,
    ) -> Result<NodeHandle, TransportError> {
        let listener = transport.listen(addr)?;
        let addr = listener.local_addr();
        let state = Arc::new(NodeState {
            running: AtomicBool::new(true),
            last_checkpoint: Mutex::new(None),
            directory,
        });
        let accept_state = Arc::clone(&state);
        let accept_thread = std::thread::spawn(move || loop {
            match listener.accept() {
                Ok(conn) => {
                    if !accept_state.running.load(Ordering::SeqCst) {
                        break;
                    }
                    let conn_state = Arc::clone(&accept_state);
                    std::thread::spawn(move || serve_connection(conn, &conn_state));
                }
                Err(_) => {
                    if !accept_state.running.load(Ordering::SeqCst) {
                        break;
                    }
                    // transient accept failure; keep serving
                }
            }
        });
        Ok(NodeHandle {
            addr,
            transport,
            state,
            accept_thread: Some(accept_thread),
        })
    }
}

fn serve_connection(mut conn: Box<dyn Connection>, state: &NodeState) {
    while state.running.load(Ordering::SeqCst) {
        let request = match conn.recv() {
            Ok(frame) => frame,
            // any failure — clean close, truncation, garbage — ends this
            // connection; the client re-dials
            Err(_) => return,
        };
        // re-check after the (blocking) recv: a frame that raced a
        // shutdown must not be serviced by a dead endpoint
        if !state.running.load(Ordering::SeqCst) {
            return;
        }
        let directory = &state.directory;
        let reply = match request {
            Frame::Hello { .. } => Frame::Welcome {
                node: directory.node().to_string(),
            },
            Frame::ListServices => service_list(directory),
            // a cursor the log window has moved past gets the full listing:
            // the poller replaces what it imported and carries on
            Frame::PollEvents { after } => match directory.events_since(after) {
                Some((next, events)) => Frame::Events { next, events },
                None => service_list(directory),
            },
            Frame::Invoke {
                service,
                prototype,
                input,
                at,
            } => match handle_invoke(directory, &service, &prototype, &input, Instant(at)) {
                Ok(tuples) => Frame::InvokeOk { tuples },
                Err(error) => Frame::InvokeErr { error },
            },
            Frame::Checkpoint { tick, bytes } => {
                *state.last_checkpoint.lock() = Some((tick, bytes));
                Frame::CheckpointAck { tick }
            }
            Frame::Bye => return,
            // a response frame where a request belongs: protocol
            // violation, close the connection
            _ => return,
        };
        if conn.send(&reply).is_err() {
            return;
        }
    }
}

fn handle_invoke(
    directory: &NodeDirectory,
    service: &ServiceRef,
    prototype: &str,
    input: &Tuple,
    at: Instant,
) -> Result<Vec<Tuple>, EvalError> {
    // never relay an invocation for a service this node merely proxies:
    // with symmetric (or self-) links the two endpoints would bounce the
    // call between each other forever
    if directory.hosted_by(service).is_some() {
        return Err(EvalError::UnknownService {
            reference: service.to_string(),
        });
    }
    // resolve the full prototype from the local registration — schemas
    // never cross the wire for invocations, only names
    let resolved = directory
        .resolve(service)
        .ok_or_else(|| EvalError::UnknownService {
            reference: service.to_string(),
        })?;
    let proto = resolved
        .prototypes()
        .into_iter()
        .find(|p| p.name() == prototype)
        .ok_or_else(|| EvalError::PrototypeNotImplemented {
            service: service.to_string(),
            prototype: prototype.to_string(),
        })?;
    // contain panics here so a panicking device on this node relays as
    // `Panicked` — byte-identical to what a local caller's
    // CatchPanicLayer would produce
    invoke_contained(directory, &proto, service, input, at)
}

fn service_list(directory: &NodeDirectory) -> Frame {
    let (seq, services) = directory.advertise_all();
    Frame::ServiceList { seq, services }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcTransport;
    use serena_core::service::fixtures;
    use serena_core::value::Value;

    fn served_directory() -> (Arc<dyn Transport>, NodeHandle, Arc<NodeDirectory>) {
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let dir = Arc::new(NodeDirectory::new("host"));
        dir.register("sensor01", fixtures::temperature_sensor(1));
        dir.set("sensor01", "location", Value::str("office"));
        let handle =
            ServiceNode::serve(Arc::clone(&transport), "inproc:host", Arc::clone(&dir)).unwrap();
        (transport, handle, dir)
    }

    #[test]
    fn handshake_listing_and_remote_invocation() {
        let (transport, _handle, _dir) = served_directory();
        let client = RemoteNodeClient::connect(transport, "inproc:host", "client").unwrap();
        assert_eq!(client.node(), "host");

        let (_seq, services) = client.list_services().unwrap();
        assert_eq!(services.len(), 1);
        assert_eq!(services[0].reference.as_str(), "sensor01");
        assert_eq!(
            services[0].metadata,
            vec![("location".to_string(), Value::str("office"))]
        );

        let proto = &services[0].prototypes[0];
        let out = client
            .invoke(
                &ServiceRef::new("sensor01"),
                proto.name(),
                &Tuple::empty(),
                Instant(3),
            )
            .unwrap()
            .unwrap();
        assert_eq!(out.len(), 1);

        // unknown service relays the structural error
        let err = client
            .invoke(
                &ServiceRef::new("ghost"),
                proto.name(),
                &Tuple::empty(),
                Instant(3),
            )
            .unwrap()
            .unwrap_err();
        assert!(matches!(err, EvalError::UnknownService { .. }));
    }

    #[test]
    fn server_side_panic_relays_as_panicked() {
        let (transport, _handle, dir) = served_directory();
        dir.register("bad", fixtures::panicking_sensor());
        let client = RemoteNodeClient::connect(transport, "inproc:host", "client").unwrap();
        let err = client
            .invoke(
                &ServiceRef::new("bad"),
                "getTemperature",
                &Tuple::empty(),
                Instant(1),
            )
            .unwrap()
            .unwrap_err();
        assert!(matches!(err, EvalError::Panicked { .. }), "{err:?}");
    }

    #[test]
    fn event_polling_sees_join_and_leave() {
        let (transport, _handle, dir) = served_directory();
        let client = RemoteNodeClient::connect(transport, "inproc:host", "client").unwrap();
        let (seq, _) = client.list_services().unwrap();

        dir.register("sensor02", fixtures::temperature_sensor(2));
        dir.deregister("sensor01");

        let (next, PeerUpdate::Events(events)) = client.poll_events(seq).unwrap() else {
            panic!("expected events")
        };
        assert_eq!(events.len(), 2);
        assert!(matches!(
            &events[0],
            WireEvent::Joined(ad) if ad.reference.as_str() == "sensor02"
        ));
        assert!(matches!(
            &events[1],
            WireEvent::Left(r) if r.as_str() == "sensor01"
        ));
        assert_eq!(
            client.poll_events(next).unwrap(),
            (next, PeerUpdate::Events(Vec::new()))
        );
    }

    #[test]
    fn checkpoints_replicate_to_the_handle() {
        let (transport, handle, _dir) = served_directory();
        let client = RemoteNodeClient::connect(transport, "inproc:host", "client").unwrap();
        assert!(handle.last_checkpoint().is_none());
        client.send_checkpoint(7, &[1, 2, 3]).unwrap();
        assert_eq!(handle.last_checkpoint(), Some((7, vec![1, 2, 3])));
        client.send_checkpoint(8, &[4]).unwrap();
        assert_eq!(handle.last_checkpoint(), Some((8, vec![4])));
    }

    #[test]
    fn shutdown_closes_the_endpoint() {
        let (transport, mut handle, _dir) = served_directory();
        let addr = handle.addr().to_string();
        handle.shutdown();
        // after shutdown new connections cannot complete the handshake
        assert!(RemoteNodeClient::connect(transport, &addr, "late").is_err());
    }
}
