//! Transport abstraction for distributed PEMS (Fig. 1's network layer).
//!
//! §5.1 of the paper runs discovery and β invocation over a real
//! OSGi/UPnP network; every prior PR simulated that in-process. This
//! module introduces the seam that makes the network real without
//! giving up the determinism contract:
//!
//! * [`Transport`] — listen/connect by address string, yielding framed,
//!   blocking [`Connection`]s that speak [`Frame`]s (length-prefixed,
//!   snapshot-codec payloads — see [`frame`]);
//! * [`InProcTransport`] — an in-memory hub of
//!   named endpoints. Today's deterministic behavior, and the test
//!   default: frames still round-trip through the full codec, so the
//!   wire format is exercised on every in-proc call;
//! * [`SocketTransport`] — TCP and Unix-domain
//!   sockets (`tcp:host:port` / `uds:/path`) via `std::net`, nothing
//!   non-std.
//!
//! Address strings are scheme-prefixed: `inproc:<name>`, `uds:<path>`,
//! `tcp:<host>:<port>`. [`select`] picks a transport by name (`inproc` — a
//! process-wide shared hub — or `socket`); the binaries pass it the
//! `SERENA_TRANSPORT` environment variable.
//!
//! Malformed traffic is never a panic: oversized, truncated or garbage
//! frames surface as typed [`TransportError`]s (see the hostile-input
//! tests in [`frame`]).

pub mod frame;
pub mod inproc;
pub mod socket;

pub use frame::{Frame, ServiceAd, WireEvent, MAX_FRAME_LEN};
pub use inproc::InProcTransport;
pub use socket::SocketTransport;

use std::fmt;
use std::sync::Arc;

/// Errors surfaced by transports and the frame codec. Every failure mode
/// of a hostile or flaky peer maps to a typed variant; none panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The address string does not parse, or its scheme is not served by
    /// this transport (e.g. `uds:` handed to [`InProcTransport`]).
    AddressUnsupported {
        /// The offending address.
        addr: String,
        /// The transport that rejected it.
        transport: &'static str,
    },
    /// The peer closed the connection (clean EOF between frames), or the
    /// endpoint is gone.
    Closed,
    /// An operating-system level I/O failure (connect refused, reset, …).
    Io(String),
    /// An incoming frame announced a payload larger than the receiver's
    /// limit — rejected *before* allocating.
    FrameTooLarge {
        /// The announced payload length.
        len: usize,
        /// The receiver's limit.
        max: usize,
    },
    /// The stream ended mid-frame: the header promised more payload bytes
    /// than arrived.
    Truncated {
        /// Bytes the frame header promised.
        expected: usize,
    },
    /// The 4 magic bytes prefixing every frame were wrong — the peer is
    /// not speaking the serena frame protocol.
    BadMagic {
        /// The bytes actually found.
        found: [u8; 4],
    },
    /// The payload length/magic were fine but the snapshot-codec payload
    /// did not decode (garbage, version skew, trailing bytes, unknown
    /// frame tag).
    Malformed(String),
    /// A frame arrived that is valid but unexpected in the current
    /// protocol state (e.g. a response tag where a request was required).
    Protocol(String),
    /// [`select`] was asked for a transport no one serves.
    UnknownTransport(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::AddressUnsupported { addr, transport } => {
                write!(f, "address `{addr}` not supported by {transport} transport")
            }
            TransportError::Closed => write!(f, "connection closed by peer"),
            TransportError::Io(d) => write!(f, "transport i/o error: {d}"),
            TransportError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            TransportError::Truncated { expected } => {
                write!(
                    f,
                    "stream truncated mid-frame ({expected} payload bytes promised)"
                )
            }
            TransportError::BadMagic { found } => {
                write!(
                    f,
                    "bad frame magic {found:?} (peer is not speaking the serena protocol)"
                )
            }
            TransportError::Malformed(d) => write!(f, "malformed frame payload: {d}"),
            TransportError::Protocol(d) => write!(f, "protocol violation: {d}"),
            TransportError::UnknownTransport(name) => write!(
                f,
                "unknown transport `{name}` (expected inproc, socket, uds, tcp or unix)"
            ),
        }
    }
}

impl std::error::Error for TransportError {}

/// A bidirectional, blocking, framed byte channel to one peer. One
/// request/response exchange at a time per connection; callers needing
/// concurrency open several connections (see
/// [`RemoteNodeClient`](crate::node::RemoteNodeClient)'s pool).
pub trait Connection: Send {
    /// Send one frame (blocking until written).
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError>;
    /// Receive the next frame (blocking). [`TransportError::Closed`] on
    /// clean EOF between frames.
    fn recv(&mut self) -> Result<Frame, TransportError>;
    /// Human-readable peer address, for diagnostics.
    fn peer_addr(&self) -> String;
}

/// A bound endpoint accepting inbound [`Connection`]s.
pub trait Listener: Send {
    /// Accept the next inbound connection (blocking).
    /// [`TransportError::Closed`] once the endpoint is shut down.
    fn accept(&self) -> Result<Box<dyn Connection>, TransportError>;
    /// The canonical address of this endpoint — always re-connectable via
    /// [`Transport::connect`] (e.g. `tcp:127.0.0.1:<actual port>` after
    /// binding port 0).
    fn local_addr(&self) -> String;
}

/// A way of reaching other PEMS nodes: bind listeners and open
/// connections by scheme-prefixed address.
pub trait Transport: Send + Sync {
    /// The scheme(s) this transport serves, for diagnostics.
    fn name(&self) -> &'static str;
    /// Bind a listening endpoint at `addr`.
    fn listen(&self, addr: &str) -> Result<Box<dyn Listener>, TransportError>;
    /// Open a connection to the endpoint at `addr`.
    fn connect(&self, addr: &str) -> Result<Box<dyn Connection>, TransportError>;
}

impl<T: Transport + ?Sized> Transport for Arc<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn listen(&self, addr: &str) -> Result<Box<dyn Listener>, TransportError> {
        (**self).listen(addr)
    }
    fn connect(&self, addr: &str) -> Result<Box<dyn Connection>, TransportError> {
        (**self).connect(addr)
    }
}

/// Select a transport by name: `socket` (or `uds` / `tcp` / `unix`) yields
/// a [`SocketTransport`]; `inproc` or no name yields the process-wide
/// shared [`InProcTransport`] hub, so co-located tools (shell, tests) find
/// each other by `inproc:<name>`. Any other name is
/// [`TransportError::UnknownTransport`].
pub fn select(name: Option<&str>) -> Result<Arc<dyn Transport>, TransportError> {
    match name {
        Some("socket" | "uds" | "tcp" | "unix") => Ok(Arc::new(SocketTransport::new())),
        None | Some("inproc") => Ok(Arc::new(InProcTransport::shared())),
        Some(other) => Err(TransportError::UnknownTransport(other.to_string())),
    }
}

/// Split `addr` into `(scheme, rest)` at the first `:`.
pub(crate) fn split_scheme(addr: &str) -> Option<(&str, &str)> {
    addr.split_once(':')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_detail() {
        let cases: Vec<(TransportError, &str)> = vec![
            (
                TransportError::AddressUnsupported {
                    addr: "carrier-pigeon:coop7".into(),
                    transport: "socket",
                },
                "carrier-pigeon",
            ),
            (TransportError::Closed, "closed"),
            (TransportError::Io("refused".into()), "refused"),
            (
                TransportError::FrameTooLarge { len: 99, max: 10 },
                "99 bytes",
            ),
            (TransportError::Truncated { expected: 7 }, "truncated"),
            (TransportError::BadMagic { found: *b"HTTP" }, "magic"),
            (TransportError::Malformed("trailing".into()), "trailing"),
            (TransportError::Protocol("bad state".into()), "bad state"),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn selection_defaults_to_inproc_and_names_an_unknown_transport() {
        let name = |n| select(n).map(|t| t.name());
        assert_eq!(name(None), Ok("inproc"));
        assert_eq!(name(Some("inproc")), Ok("inproc"));
        for socket in ["socket", "uds", "tcp", "unix"] {
            assert_eq!(name(Some(socket)), Ok("socket"));
        }
        for unknown in ["sokcet", "", "INPROC"] {
            assert_eq!(
                name(Some(unknown)),
                Err(TransportError::UnknownTransport(unknown.to_string()))
            );
        }
        let err = select(Some("sokcet")).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("`sokcet`"), "{err}");
    }
}
