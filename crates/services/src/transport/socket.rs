//! Socket transport: TCP (`tcp:<host>:<port>`) and, on Unix,
//! Unix-domain sockets (`uds:<path>`), built on `std::net` /
//! `std::os::unix::net` only.
//!
//! Frames cross the stream in the `SRNF`-prefixed wire form from
//! [`frame`](super::frame); `TCP_NODELAY` is set on every TCP stream so
//! small β invocation frames are not Nagle-delayed. Binding `tcp:host:0`
//! picks a free port, and [`Listener::local_addr`] reports the actual
//! one, so tests and CI never race on fixed ports. A UDS listener
//! removes a stale socket file on bind and unlinks its path on drop.

use std::net::{TcpListener, TcpStream};

use super::frame::{read_from, write_to, Frame};
use super::{split_scheme, Connection, Listener, Transport, TransportError};

fn io_err(e: std::io::Error) -> TransportError {
    TransportError::Io(e.to_string())
}

/// The socket transport (schemes `tcp:` and, on Unix, `uds:`).
#[derive(Clone, Copy, Default)]
pub struct SocketTransport;

impl SocketTransport {
    /// A socket transport.
    pub fn new() -> Self {
        SocketTransport
    }
}

impl Transport for SocketTransport {
    fn name(&self) -> &'static str {
        "socket"
    }

    fn listen(&self, addr: &str) -> Result<Box<dyn Listener>, TransportError> {
        match split_scheme(addr) {
            Some(("tcp", host_port)) => {
                let inner = TcpListener::bind(host_port).map_err(io_err)?;
                Ok(Box::new(TcpFrameListener { inner }))
            }
            #[cfg(unix)]
            Some(("uds", path)) if !path.is_empty() => {
                // remove a stale socket file left by a crashed process;
                // refuse to touch anything that is not a socket
                let p = std::path::Path::new(path);
                if p.exists() {
                    use std::os::unix::fs::FileTypeExt;
                    let is_socket = std::fs::symlink_metadata(p)
                        .map(|m| m.file_type().is_socket())
                        .unwrap_or(false);
                    if !is_socket {
                        return Err(TransportError::Io(format!(
                            "`{path}` exists and is not a socket"
                        )));
                    }
                    std::fs::remove_file(p).map_err(io_err)?;
                }
                let inner = std::os::unix::net::UnixListener::bind(p).map_err(io_err)?;
                Ok(Box::new(UdsFrameListener {
                    inner,
                    path: path.to_string(),
                }))
            }
            _ => Err(TransportError::AddressUnsupported {
                addr: addr.to_string(),
                transport: "socket",
            }),
        }
    }

    fn connect(&self, addr: &str) -> Result<Box<dyn Connection>, TransportError> {
        match split_scheme(addr) {
            Some(("tcp", host_port)) => {
                let stream = TcpStream::connect(host_port).map_err(io_err)?;
                stream.set_nodelay(true).map_err(io_err)?;
                Ok(Box::new(StreamConnection {
                    stream,
                    peer: addr.to_string(),
                }))
            }
            #[cfg(unix)]
            Some(("uds", path)) if !path.is_empty() => {
                let stream = std::os::unix::net::UnixStream::connect(path).map_err(io_err)?;
                Ok(Box::new(StreamConnection {
                    stream,
                    peer: addr.to_string(),
                }))
            }
            _ => Err(TransportError::AddressUnsupported {
                addr: addr.to_string(),
                transport: "socket",
            }),
        }
    }
}

struct TcpFrameListener {
    inner: TcpListener,
}

impl Listener for TcpFrameListener {
    fn accept(&self) -> Result<Box<dyn Connection>, TransportError> {
        let (stream, peer) = self.inner.accept().map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        Ok(Box::new(StreamConnection {
            stream,
            peer: format!("tcp:{peer}"),
        }))
    }

    fn local_addr(&self) -> String {
        match self.inner.local_addr() {
            Ok(a) => format!("tcp:{a}"),
            Err(_) => "tcp:<unknown>".to_string(),
        }
    }
}

#[cfg(unix)]
struct UdsFrameListener {
    inner: std::os::unix::net::UnixListener,
    path: String,
}

#[cfg(unix)]
impl Listener for UdsFrameListener {
    fn accept(&self) -> Result<Box<dyn Connection>, TransportError> {
        let (stream, _) = self.inner.accept().map_err(io_err)?;
        Ok(Box::new(StreamConnection {
            stream,
            peer: format!("uds:{}", self.path),
        }))
    }

    fn local_addr(&self) -> String {
        format!("uds:{}", self.path)
    }
}

#[cfg(unix)]
impl Drop for UdsFrameListener {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A framed connection over any blocking byte stream.
struct StreamConnection<S> {
    stream: S,
    peer: String,
}

impl<S: std::io::Read + std::io::Write + Send> Connection for StreamConnection<S> {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        write_to(&mut self.stream, frame)
    }

    fn recv(&mut self) -> Result<Frame, TransportError> {
        read_from(&mut self.stream)
    }

    fn peer_addr(&self) -> String {
        self.peer.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn tcp_loopback_exchanges_frames() {
        let t = SocketTransport::new();
        let listener = t.listen("tcp:127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        assert!(addr.starts_with("tcp:127.0.0.1:"));

        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let frame = conn.recv().unwrap();
            assert_eq!(frame, Frame::PollEvents { after: 3 });
            conn.send(&Frame::Bye).unwrap();
        });

        let mut conn = t.connect(&addr).unwrap();
        conn.send(&Frame::PollEvents { after: 3 }).unwrap();
        assert_eq!(conn.recv().unwrap(), Frame::Bye);
        server.join().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn uds_exchanges_frames_and_cleans_up_its_path() {
        let path =
            std::env::temp_dir().join(format!("serena-uds-test-{}.sock", std::process::id()));
        let addr = format!("uds:{}", path.display());
        let t = SocketTransport::new();
        let listener = t.listen(&addr).unwrap();
        assert_eq!(listener.local_addr(), addr);

        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            assert_eq!(conn.recv().unwrap(), Frame::Bye);
            listener // moved in; dropped at thread end, unlinking the path
        });

        let mut conn = t.connect(&addr).unwrap();
        conn.send(&Frame::Bye).unwrap();
        let listener = server.join().unwrap();
        assert!(path.exists());
        drop(listener);
        assert!(!path.exists());
    }

    #[test]
    fn unsupported_addresses_are_typed_errors() {
        let t = SocketTransport::new();
        assert!(matches!(
            t.connect("inproc:x"),
            Err(TransportError::AddressUnsupported { .. })
        ));
        assert!(matches!(
            t.listen("nonsense"),
            Err(TransportError::AddressUnsupported { .. })
        ));
        // connection refused is Io, not a panic
        assert!(matches!(
            t.connect("tcp:127.0.0.1:1"),
            Err(TransportError::Io(_))
        ));
    }

    #[test]
    fn garbage_bytes_on_the_wire_surface_as_typed_errors() {
        let t = SocketTransport::new();
        let listener = t.listen("tcp:127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let raw_addr = addr.trim_start_matches("tcp:").to_string();

        // hostile client writes an HTTP request at our listener
        let client = std::thread::spawn(move || {
            let mut s = std::net::TcpStream::connect(raw_addr).unwrap();
            s.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        });
        let mut conn = listener.accept().unwrap();
        assert_eq!(
            conn.recv(),
            Err(TransportError::BadMagic { found: *b"GET " })
        );
        client.join().unwrap();

        // peer that dies mid-frame surfaces Truncated
        let wire = Frame::PollEvents { after: 1 }.to_wire();
        let raw_addr = addr.trim_start_matches("tcp:").to_string();
        let client = std::thread::spawn(move || {
            let mut s = std::net::TcpStream::connect(raw_addr).unwrap();
            s.write_all(&wire[..wire.len() - 3]).unwrap();
        });
        let mut conn = listener.accept().unwrap();
        assert!(matches!(conn.recv(), Err(TransportError::Truncated { .. })));
        client.join().unwrap();
    }
}
