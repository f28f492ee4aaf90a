//! The serena node-to-node frame protocol.
//!
//! Every message between PEMS nodes is one *frame*:
//!
//! ```text
//! +----------+------------+---------------------------------------+
//! | "SRNF"   | len: u32LE | payload (snapshot header ++ tag ++ …) |
//! +----------+------------+---------------------------------------+
//! ```
//!
//! The payload is encoded with the PR 5 `serena-core::snapshot` codec and
//! begins with its `MAGIC ++ VERSION` header, so version skew between
//! nodes is caught by the same machinery that guards checkpoint files.
//! Payloads longer than [`MAX_FRAME_LEN`] are rejected *before* any
//! allocation; truncated or garbage input decodes to a typed
//! [`TransportError`], never a panic.
//!
//! β results travel *structurally*: a remote invocation error is relayed
//! as the original [`EvalError`] variant, not a display string, so the
//! error multiset a query observes is byte-identical whether the provider
//! was local or remote (no nested "invocation of … failed: invocation of
//! … failed" wrapping).

use std::io::{Read, Write};
use std::sync::Arc;

use serena_core::attr::AttrName;
use serena_core::error::EvalError;
use serena_core::prototype::{Prototype, RelationSchema};
use serena_core::snapshot::{read_header, write_header, Reader, SnapshotError, Writer};
use serena_core::tuple::Tuple;
use serena_core::value::{DataType, ServiceRef, Value};

use super::TransportError;

/// Frame magic — distinct from the snapshot magic so a checkpoint file
/// piped at a listener is rejected at the first four bytes.
const FRAME_MAGIC: [u8; 4] = *b"SRNF";

/// Maximum accepted payload length (64 MiB). Covers any realistic
/// checkpoint replication frame while bounding what a hostile peer can
/// make the receiver allocate.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// A service advertisement: everything a peer needs to build a local
/// proxy — reference, origin LERM, full prototypes (names *and* schemas,
/// so the proxy validates β results locally exactly like a local
/// service), and discovery metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceAd {
    /// The advertised service's reference.
    pub reference: ServiceRef,
    /// The Local ERM that announced it on its home node.
    pub origin: String,
    /// The prototypes it implements, schemas included.
    pub prototypes: Vec<Arc<Prototype>>,
    /// Discovery metadata (`key`, value) pairs, sorted by key.
    pub metadata: Vec<(String, Value)>,
}

/// A directory change relayed to peers.
#[derive(Debug, Clone, PartialEq)]
pub enum WireEvent {
    /// A service joined the remote node.
    Joined(ServiceAd),
    /// A service left the remote node.
    Left(ServiceRef),
}

/// One protocol message. Tags are part of the wire format; new variants
/// append, existing tags never change meaning. Tags 9 and 10 are retired:
/// they decode as malformed and are not to be reused.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client hello, carrying the caller's node id.
    Hello {
        /// The connecting node's id.
        node: String,
    },
    /// Server reply to [`Frame::Hello`], carrying the serving node's id.
    Welcome {
        /// The serving node's id.
        node: String,
    },
    /// Request the full current service listing.
    ListServices,
    /// Reply to [`Frame::ListServices`] — and to a [`Frame::PollEvents`]
    /// whose cursor the server's bounded event log no longer reaches: the
    /// poller replaces what it imported with this listing.
    ServiceList {
        /// The server's event-log position at listing time; poll from
        /// here to observe every later change exactly once.
        seq: u64,
        /// All services currently hosted by the node.
        services: Vec<ServiceAd>,
    },
    /// Request directory events after log position `after`. A successful
    /// round-trip doubles as the liveness heartbeat.
    PollEvents {
        /// The caller's cursor into the server's event log.
        after: u64,
    },
    /// Reply to [`Frame::PollEvents`] when the log still holds everything
    /// after the caller's cursor.
    Events {
        /// The caller's next cursor.
        next: u64,
        /// Events logged since the request's `after`.
        events: Vec<WireEvent>,
    },
    /// A β invocation relayed to the node hosting the service.
    Invoke {
        /// The target service's reference.
        service: ServiceRef,
        /// Name of the prototype to invoke (the server resolves the full
        /// prototype from its own registration — schemas stay local).
        prototype: String,
        /// The input binding tuple.
        input: Tuple,
        /// The caller's logical instant.
        at: u64,
    },
    /// Successful reply to [`Frame::Invoke`].
    InvokeOk {
        /// The output tuples.
        tuples: Vec<Tuple>,
    },
    /// Failed reply to [`Frame::Invoke`], relaying the structural error.
    InvokeErr {
        /// The evaluation error exactly as a local caller would see it.
        error: EvalError,
    },
    /// A replicated checkpoint pushed to a standby peer.
    Checkpoint {
        /// The logical tick the checkpoint was taken at.
        tick: u64,
        /// The full snapshot bytes (the PR 5 checkpoint format).
        bytes: Vec<u8>,
    },
    /// Standby acknowledgement of [`Frame::Checkpoint`].
    CheckpointAck {
        /// Echo of the replicated tick.
        tick: u64,
    },
    /// Polite shutdown; the receiver closes the connection.
    Bye,
}

fn corrupt(e: SnapshotError) -> TransportError {
    TransportError::Malformed(e.to_string())
}

fn write_data_type(w: &mut Writer, t: DataType) {
    w.u8(match t {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Real => 2,
        DataType::Str => 3,
        DataType::Blob => 4,
        DataType::Service => 5,
    });
}

fn read_data_type(r: &mut Reader<'_>) -> Result<DataType, TransportError> {
    match r.u8().map_err(corrupt)? {
        0 => Ok(DataType::Bool),
        1 => Ok(DataType::Int),
        2 => Ok(DataType::Real),
        3 => Ok(DataType::Str),
        4 => Ok(DataType::Blob),
        5 => Ok(DataType::Service),
        t => Err(TransportError::Malformed(format!(
            "unknown data type tag {t}"
        ))),
    }
}

fn write_schema(w: &mut Writer, s: &RelationSchema) {
    w.usize(s.arity());
    for (name, t) in s.attrs() {
        w.str(name.as_str());
        write_data_type(w, *t);
    }
}

fn read_schema(r: &mut Reader<'_>) -> Result<RelationSchema, TransportError> {
    let n = r.usize().map_err(corrupt)?;
    let mut attrs = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        let name = AttrName::new(r.str().map_err(corrupt)?);
        let t = read_data_type(r)?;
        attrs.push((name, t));
    }
    RelationSchema::new(attrs).map_err(|e| TransportError::Malformed(e.to_string()))
}

fn write_prototype(w: &mut Writer, p: &Prototype) {
    w.str(p.name()).bool(p.is_active());
    write_schema(w, p.input());
    write_schema(w, p.output());
}

fn read_prototype(r: &mut Reader<'_>) -> Result<Arc<Prototype>, TransportError> {
    let name = r.str().map_err(corrupt)?.to_string();
    let active = r.bool().map_err(corrupt)?;
    let input = read_schema(r)?;
    let output = read_schema(r)?;
    Prototype::new(name, input, output, active)
        .map_err(|e| TransportError::Malformed(e.to_string()))
}

fn write_ad(w: &mut Writer, ad: &ServiceAd) {
    w.str(ad.reference.as_str()).str(&ad.origin);
    w.usize(ad.prototypes.len());
    for p in &ad.prototypes {
        write_prototype(w, p);
    }
    w.usize(ad.metadata.len());
    for (k, v) in &ad.metadata {
        w.str(k).value(v);
    }
}

fn read_ad(r: &mut Reader<'_>) -> Result<ServiceAd, TransportError> {
    let reference = ServiceRef::new(r.str().map_err(corrupt)?);
    let origin = r.str().map_err(corrupt)?.to_string();
    let np = r.usize().map_err(corrupt)?;
    let mut prototypes = Vec::with_capacity(np.min(r.remaining()));
    for _ in 0..np {
        prototypes.push(read_prototype(r)?);
    }
    let nm = r.usize().map_err(corrupt)?;
    let mut metadata = Vec::with_capacity(nm.min(r.remaining()));
    for _ in 0..nm {
        let k = r.str().map_err(corrupt)?.to_string();
        let v = r.value().map_err(corrupt)?;
        metadata.push((k, v));
    }
    Ok(ServiceAd {
        reference,
        origin,
        prototypes,
        metadata,
    })
}

fn write_event(w: &mut Writer, ev: &WireEvent) {
    match ev {
        WireEvent::Joined(ad) => {
            w.u8(0);
            write_ad(w, ad);
        }
        WireEvent::Left(reference) => {
            w.u8(1).str(reference.as_str());
        }
    }
}

fn read_event(r: &mut Reader<'_>) -> Result<WireEvent, TransportError> {
    match r.u8().map_err(corrupt)? {
        0 => Ok(WireEvent::Joined(read_ad(r)?)),
        1 => Ok(WireEvent::Left(ServiceRef::new(r.str().map_err(corrupt)?))),
        t => Err(TransportError::Malformed(format!("unknown event tag {t}"))),
    }
}

/// Encode an [`EvalError`] structurally. `Plan` errors cannot arise from
/// a relayed β call, so they are the one variant carried as a display
/// string (decoding to [`EvalError::Value`]). Tag 5 is retired: it decodes
/// as malformed and is not to be reused.
fn write_eval_error(w: &mut Writer, e: &EvalError) {
    match e {
        EvalError::UnknownService { reference } => {
            w.u8(0).str(reference);
        }
        EvalError::PrototypeNotImplemented { service, prototype } => {
            w.u8(1).str(service).str(prototype);
        }
        EvalError::InvocationFailed {
            service,
            prototype,
            reason,
        } => {
            w.u8(2).str(service).str(prototype).str(reason);
        }
        EvalError::MalformedInvocationResult {
            service,
            prototype,
            detail,
        } => {
            w.u8(3).str(service).str(prototype).str(detail);
        }
        EvalError::CircuitOpen { service } => {
            w.u8(4).str(service);
        }
        EvalError::Panicked {
            service,
            prototype,
            reason,
        } => {
            w.u8(6).str(service).str(prototype).str(reason);
        }
        EvalError::RemoteUnavailable {
            service,
            prototype,
            node,
            reason,
        } => {
            w.u8(7).str(service).str(prototype).str(node).str(reason);
        }
        EvalError::TupleSchemaMismatch { relation, detail } => {
            w.u8(8).str(relation).str(detail);
        }
        EvalError::Value(detail) => {
            w.u8(9).str(detail);
        }
        EvalError::Plan(e) => {
            w.u8(10).str(&e.to_string());
        }
    }
}

fn read_eval_error(r: &mut Reader<'_>) -> Result<EvalError, TransportError> {
    let s = |r: &mut Reader<'_>| -> Result<String, TransportError> {
        Ok(r.str().map_err(corrupt)?.to_string())
    };
    match r.u8().map_err(corrupt)? {
        0 => Ok(EvalError::UnknownService { reference: s(r)? }),
        1 => Ok(EvalError::PrototypeNotImplemented {
            service: s(r)?,
            prototype: s(r)?,
        }),
        2 => Ok(EvalError::InvocationFailed {
            service: s(r)?,
            prototype: s(r)?,
            reason: s(r)?,
        }),
        3 => Ok(EvalError::MalformedInvocationResult {
            service: s(r)?,
            prototype: s(r)?,
            detail: s(r)?,
        }),
        4 => Ok(EvalError::CircuitOpen { service: s(r)? }),
        6 => Ok(EvalError::Panicked {
            service: s(r)?,
            prototype: s(r)?,
            reason: s(r)?,
        }),
        7 => Ok(EvalError::RemoteUnavailable {
            service: s(r)?,
            prototype: s(r)?,
            node: s(r)?,
            reason: s(r)?,
        }),
        8 => Ok(EvalError::TupleSchemaMismatch {
            relation: s(r)?,
            detail: s(r)?,
        }),
        9 => Ok(EvalError::Value(s(r)?)),
        10 => Ok(EvalError::Value(format!("plan error: {}", s(r)?))),
        t => Err(TransportError::Malformed(format!("unknown error tag {t}"))),
    }
}

impl Frame {
    /// Encode this frame to its full wire form: `SRNF ++ len ++ payload`.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        write_header(&mut w);
        match self {
            Frame::Hello { node } => {
                w.u8(0).str(node);
            }
            Frame::Welcome { node } => {
                w.u8(1).str(node);
            }
            Frame::ListServices => {
                w.u8(2);
            }
            Frame::ServiceList { seq, services } => {
                w.u8(3).u64(*seq).usize(services.len());
                for ad in services {
                    write_ad(&mut w, ad);
                }
            }
            Frame::PollEvents { after } => {
                w.u8(4).u64(*after);
            }
            Frame::Events { next, events } => {
                w.u8(5).u64(*next).usize(events.len());
                for ev in events {
                    write_event(&mut w, ev);
                }
            }
            Frame::Invoke {
                service,
                prototype,
                input,
                at,
            } => {
                w.u8(6)
                    .str(service.as_str())
                    .str(prototype)
                    .tuple(input)
                    .u64(*at);
            }
            Frame::InvokeOk { tuples } => {
                w.u8(7).usize(tuples.len());
                for t in tuples {
                    w.tuple(t);
                }
            }
            Frame::InvokeErr { error } => {
                w.u8(8);
                write_eval_error(&mut w, error);
            }
            Frame::Checkpoint { tick, bytes } => {
                w.u8(11).u64(*tick).bytes(bytes);
            }
            Frame::CheckpointAck { tick } => {
                w.u8(12).u64(*tick);
            }
            Frame::Bye => {
                w.u8(13);
            }
        }
        let payload = w.into_bytes();
        let mut out = Vec::with_capacity(payload.len() + 8);
        out.extend_from_slice(&FRAME_MAGIC);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decode a frame *payload* (the bytes after magic + length). The
    /// entire payload must be consumed — trailing bytes are malformed.
    fn from_payload(payload: &[u8]) -> Result<Frame, TransportError> {
        let mut r = Reader::new(payload);
        read_header(&mut r).map_err(corrupt)?;
        let frame = match r.u8().map_err(corrupt)? {
            0 => Frame::Hello {
                node: r.str().map_err(corrupt)?.to_string(),
            },
            1 => Frame::Welcome {
                node: r.str().map_err(corrupt)?.to_string(),
            },
            2 => Frame::ListServices,
            3 => {
                let seq = r.u64().map_err(corrupt)?;
                let n = r.usize().map_err(corrupt)?;
                let mut services = Vec::with_capacity(n.min(r.remaining()));
                for _ in 0..n {
                    services.push(read_ad(&mut r)?);
                }
                Frame::ServiceList { seq, services }
            }
            4 => Frame::PollEvents {
                after: r.u64().map_err(corrupt)?,
            },
            5 => {
                let next = r.u64().map_err(corrupt)?;
                let n = r.usize().map_err(corrupt)?;
                let mut events = Vec::with_capacity(n.min(r.remaining()));
                for _ in 0..n {
                    events.push(read_event(&mut r)?);
                }
                Frame::Events { next, events }
            }
            6 => Frame::Invoke {
                service: ServiceRef::new(r.str().map_err(corrupt)?),
                prototype: r.str().map_err(corrupt)?.to_string(),
                input: r.tuple().map_err(corrupt)?,
                at: r.u64().map_err(corrupt)?,
            },
            7 => {
                let n = r.usize().map_err(corrupt)?;
                let mut tuples = Vec::with_capacity(n.min(r.remaining()));
                for _ in 0..n {
                    tuples.push(r.tuple().map_err(corrupt)?);
                }
                Frame::InvokeOk { tuples }
            }
            8 => Frame::InvokeErr {
                error: read_eval_error(&mut r)?,
            },
            11 => Frame::Checkpoint {
                tick: r.u64().map_err(corrupt)?,
                bytes: r.bytes().map_err(corrupt)?.to_vec(),
            },
            12 => Frame::CheckpointAck {
                tick: r.u64().map_err(corrupt)?,
            },
            13 => Frame::Bye,
            t => return Err(TransportError::Malformed(format!("unknown frame tag {t}"))),
        };
        if !r.is_at_end() {
            return Err(TransportError::Malformed(format!(
                "{} trailing bytes after frame",
                r.remaining()
            )));
        }
        Ok(frame)
    }

    /// Decode a frame from its full wire form (magic + length + payload,
    /// exactly one frame). Used by the in-proc transport, so in-proc
    /// traffic exercises the byte-level format end to end.
    pub fn from_wire(bytes: &[u8]) -> Result<Frame, TransportError> {
        let mut cursor = bytes;
        let frame = read_from(&mut cursor)?;
        if !cursor.is_empty() {
            return Err(TransportError::Malformed(format!(
                "{} trailing bytes after frame",
                cursor.len()
            )));
        }
        Ok(frame)
    }
}

/// Read one frame from a blocking byte stream. Clean EOF *between* frames
/// is [`TransportError::Closed`]; EOF mid-frame is
/// [`TransportError::Truncated`].
pub fn read_from(stream: &mut impl Read) -> Result<Frame, TransportError> {
    let mut head = [0u8; 8];
    let mut filled = 0;
    while filled < head.len() {
        match stream.read(&mut head[filled..]) {
            Ok(0) if filled == 0 => return Err(TransportError::Closed),
            Ok(0) => {
                return Err(TransportError::Truncated {
                    expected: 8 - filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(TransportError::Io(e.to_string())),
        }
    }
    if head[..4] != FRAME_MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(&head[..4]);
        return Err(TransportError::BadMagic { found });
    }
    let len = u32::from_le_bytes([head[4], head[5], head[6], head[7]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(TransportError::FrameTooLarge {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    let mut payload = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match stream.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(TransportError::Truncated {
                    expected: len - got,
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(TransportError::Io(e.to_string())),
        }
    }
    Frame::from_payload(&payload)
}

/// Write one frame to a blocking byte stream.
pub fn write_to(stream: &mut impl Write, frame: &Frame) -> Result<(), TransportError> {
    let bytes = frame.to_wire();
    stream
        .write_all(&bytes)
        .and_then(|_| stream.flush())
        .map_err(|e| TransportError::Io(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serena_core::prototype::examples as protos;

    fn sample_ad() -> ServiceAd {
        ServiceAd {
            reference: ServiceRef::new("sensor01"),
            origin: "building".into(),
            prototypes: vec![protos::get_temperature()],
            metadata: vec![
                ("area".into(), Value::str("office")),
                ("floor".into(), Value::Int(3)),
            ],
        }
    }

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { node: "a".into() },
            Frame::Welcome {
                node: "host".into(),
            },
            Frame::ListServices,
            Frame::ServiceList {
                seq: 17,
                services: vec![sample_ad()],
            },
            Frame::PollEvents { after: 3 },
            Frame::Events {
                next: 5,
                events: vec![
                    WireEvent::Joined(sample_ad()),
                    WireEvent::Left(ServiceRef::new("sensor01")),
                ],
            },
            Frame::Invoke {
                service: ServiceRef::new("sensor01"),
                prototype: "getTemperature".into(),
                input: Tuple::empty(),
                at: 42,
            },
            Frame::InvokeOk {
                tuples: vec![Tuple::new(vec![Value::Real(21.5)])],
            },
            Frame::InvokeErr {
                error: EvalError::Panicked {
                    service: "sensor01".into(),
                    prototype: "getTemperature".into(),
                    reason: "boom".into(),
                },
            },
            Frame::Checkpoint {
                tick: 9,
                bytes: vec![1, 2, 3, 4],
            },
            Frame::CheckpointAck { tick: 9 },
            Frame::Bye,
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for frame in all_frames() {
            let wire = frame.to_wire();
            assert_eq!(Frame::from_wire(&wire).unwrap(), frame, "{frame:?}");
        }
    }

    #[test]
    fn every_eval_error_round_trips_structurally() {
        let errors = vec![
            EvalError::UnknownService {
                reference: "x".into(),
            },
            EvalError::PrototypeNotImplemented {
                service: "s".into(),
                prototype: "p".into(),
            },
            EvalError::InvocationFailed {
                service: "s".into(),
                prototype: "p".into(),
                reason: "r".into(),
            },
            EvalError::MalformedInvocationResult {
                service: "s".into(),
                prototype: "p".into(),
                detail: "d".into(),
            },
            EvalError::CircuitOpen {
                service: "s".into(),
            },
            EvalError::Panicked {
                service: "s".into(),
                prototype: "p".into(),
                reason: "r".into(),
            },
            EvalError::RemoteUnavailable {
                service: "s".into(),
                prototype: "p".into(),
                node: "n".into(),
                reason: "r".into(),
            },
            EvalError::TupleSchemaMismatch {
                relation: "r".into(),
                detail: "d".into(),
            },
            EvalError::Value("v".into()),
        ];
        for error in errors {
            let wire = Frame::InvokeErr {
                error: error.clone(),
            }
            .to_wire();
            assert_eq!(Frame::from_wire(&wire).unwrap(), Frame::InvokeErr { error },);
        }
    }

    #[test]
    fn frames_round_trip_through_a_byte_stream() {
        let mut buf: Vec<u8> = Vec::new();
        for frame in all_frames() {
            write_to(&mut buf, &frame).unwrap();
        }
        let mut cursor = &buf[..];
        for frame in all_frames() {
            assert_eq!(read_from(&mut cursor).unwrap(), frame);
        }
        assert_eq!(read_from(&mut cursor), Err(TransportError::Closed));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut wire = Frame::Bye.to_wire();
        wire[0..4].copy_from_slice(b"HTTP");
        assert_eq!(
            Frame::from_wire(&wire),
            Err(TransportError::BadMagic { found: *b"HTTP" })
        );
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&FRAME_MAGIC);
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = &wire[..];
        assert_eq!(
            read_from(&mut cursor),
            Err(TransportError::FrameTooLarge {
                len: u32::MAX as usize,
                max: MAX_FRAME_LEN,
            })
        );
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let wire = Frame::PollEvents { after: 7 }.to_wire();
        // cut mid-header
        let mut cursor = &wire[..3];
        assert!(matches!(
            read_from(&mut cursor),
            Err(TransportError::Truncated { .. })
        ));
        // cut mid-payload
        let mut cursor = &wire[..wire.len() - 2];
        assert!(matches!(
            read_from(&mut cursor),
            Err(TransportError::Truncated { .. })
        ));
    }

    #[test]
    fn garbage_payload_is_malformed_not_panic() {
        // valid magic + length, garbage payload
        let mut wire = Vec::new();
        wire.extend_from_slice(&FRAME_MAGIC);
        wire.extend_from_slice(&8u32.to_le_bytes());
        wire.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0x00, 0x01, 0x02, 0x03]);
        assert!(matches!(
            Frame::from_wire(&wire),
            Err(TransportError::Malformed(_))
        ));
        // unknown frame tag after a valid snapshot header
        let mut w = Writer::new();
        write_header(&mut w);
        w.u8(200);
        let payload = w.into_bytes();
        assert!(matches!(
            Frame::from_payload(&payload),
            Err(TransportError::Malformed(_))
        ));
    }

    #[test]
    fn retired_error_tag_is_malformed_not_panic() {
        // tag 5 named a soft-deadline error no peer produces any more; the
        // tags around it keep their numbers
        let mut w = Writer::new();
        write_header(&mut w);
        w.u8(8); // InvokeErr
        w.u8(5).str("s").str("p");
        let payload = w.into_bytes();
        assert!(matches!(
            Frame::from_payload(&payload),
            Err(TransportError::Malformed(m)) if m == "unknown error tag 5"
        ));
    }

    #[test]
    fn retired_frame_tags_are_malformed_not_panic() {
        // tags 9 and 10 named a heartbeat and its ack, which no node sends
        // any more (the per-tick poll is the liveness check); the tags
        // around them keep their numbers
        for tag in [9u8, 10] {
            let mut w = Writer::new();
            write_header(&mut w);
            w.u8(tag).u64(7);
            let payload = w.into_bytes();
            assert!(matches!(
                Frame::from_payload(&payload),
                Err(TransportError::Malformed(m)) if m == format!("unknown frame tag {tag}")
            ));
        }
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut wire = Frame::Bye.to_wire();
        // append a byte and fix up the declared length
        wire.push(0xAA);
        let len = (wire.len() - 8) as u32;
        wire[4..8].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            Frame::from_wire(&wire),
            Err(TransportError::Malformed(_))
        ));
    }

    #[test]
    fn plan_errors_degrade_to_value_strings() {
        // Plan errors carry structure that never crosses the wire; they
        // degrade to an EvalError::Value carrying the display string.
        let mut w = Writer::new();
        write_header(&mut w);
        w.u8(8); // InvokeErr
        w.u8(10).str("unknown relation `ghosts`"); // Plan wire tag
        let payload = w.into_bytes();
        assert_eq!(
            Frame::from_payload(&payload).unwrap(),
            Frame::InvokeErr {
                error: EvalError::Value("plan error: unknown relation `ghosts`".into())
            }
        );
    }
}
