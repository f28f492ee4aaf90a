//! A versioned binary snapshot codec for checkpoint/recovery.
//!
//! The workspace builds without registry access, so the checkpoint format
//! cannot lean on serde; this module provides the hand-rolled equivalent: a
//! little-endian, length-prefixed binary encoding with a magic/version
//! header, enough to persist every stateful piece of a running PEMS —
//! multisets of [`Tuple`]s, β caches, window rings, breaker states, health
//! windows and the logical clock.
//!
//! Determinism matters more than compactness here: the crash-injection
//! differential suite compares a restored run byte-for-byte against an
//! uninterrupted one, so encoders iterate collections in a canonical
//! (sorted) order wherever the in-memory container is unordered.
//!
//! The format is versioned as a whole: [`write_header`] stamps
//! `MAGIC ++ VERSION` and [`read_header`] rejects anything it does not
//! understand with a typed [`SnapshotError`] — never a panic.

use std::fmt;

use crate::tuple::Tuple;
use crate::value::{Bytes, ServiceRef, Value};

/// File magic identifying a Serena snapshot (8 bytes).
pub const MAGIC: [u8; 8] = *b"SERENSNP";

/// Current snapshot format version. Bumped on any incompatible change;
/// [`read_header`] refuses other versions. v5: the resilience state has no
/// deadline-timeout counter and a half-open breaker no probe budget (v4
/// wrote a `u64` and a `u32` for them), and frames, which carry the same
/// header, no longer know error tag 5. v4: a query carries no per-node
/// operator statistics (v3 also wrote each query's rolling `ExecStats`,
/// wall-clock self-times included); v1–v4 snapshots are not readable.
pub const VERSION: u32 = 5;

/// Errors raised while encoding or (mostly) decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input ended before the value being decoded was complete.
    Truncated,
    /// The input does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    UnsupportedVersion(u32),
    /// Structurally invalid data (unknown tag, non-UTF-8 string, …).
    Corrupt(String),
    /// The snapshot is well-formed but does not fit what it is being
    /// restored into (wrong query name, node-tree shape, schema, …).
    Mismatch(String),
    /// An I/O error while reading or writing the snapshot file.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a Serena snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (supported: {VERSION})")
            }
            SnapshotError::Corrupt(d) => write!(f, "corrupt snapshot: {d}"),
            SnapshotError::Mismatch(d) => write!(f, "snapshot does not match runtime: {d}"),
            SnapshotError::Io(d) => write!(f, "snapshot i/o error: {d}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e.to_string())
    }
}

/// Append-only encoder over a byte buffer.
///
/// ```
/// use serena_core::snapshot::{Reader, Writer};
/// let mut w = Writer::new();
/// w.u64(42).str("hello");
/// let bytes = w.into_bytes();
/// let mut r = Reader::new(&bytes);
/// assert_eq!(r.u64().unwrap(), 42);
/// assert_eq!(r.str().unwrap(), "hello");
/// ```
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// An empty writer with `capacity` bytes preallocated — avoids the
    /// doubling-and-copy growth pattern when the caller knows roughly how
    /// large the snapshot will be (e.g. from the previous checkpoint).
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// The encoded bytes so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True iff nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one raw byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Write a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(v as u8)
    }

    /// Write a `u32` little-endian.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write a `u64` little-endian.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write an `i64` little-endian.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write an `f64` by IEEE-754 bit pattern (exact round-trip, NaN-safe).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Write a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Write a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
        self
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Write one [`Value`] (type tag + payload).
    pub fn value(&mut self, v: &Value) -> &mut Self {
        match v {
            Value::Bool(b) => self.u8(0).bool(*b),
            Value::Int(i) => self.u8(1).i64(*i),
            Value::Real(r) => self.u8(2).f64(*r),
            Value::Str(s) => self.u8(3).str(s),
            Value::Blob(b) => self.u8(4).bytes(b.as_slice()),
            Value::Service(s) => self.u8(5).str(s.as_str()),
        }
    }

    /// Write one [`Tuple`] (arity + values).
    pub fn tuple(&mut self, t: &Tuple) -> &mut Self {
        self.usize(t.arity());
        for v in t.values() {
            self.value(v);
        }
        self
    }
}

/// Cursor-style decoder over a byte slice; every accessor returns a typed
/// [`SnapshotError`] instead of panicking on malformed input.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes remaining past the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True iff the cursor consumed the whole input.
    pub fn is_at_end(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one raw byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool (rejecting anything but 0/1).
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!("bad bool byte {b}"))),
        }
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(i64::from_le_bytes(a))
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `usize` (written as `u64`), bounds-checked against the
    /// remaining input so corrupt lengths fail fast instead of allocating.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt(format!("length {v} overflows")))
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, SnapshotError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|e| SnapshotError::Corrupt(format!("non-UTF-8 string: {e}")))
    }

    /// Read one [`Value`].
    pub fn value(&mut self) -> Result<Value, SnapshotError> {
        match self.u8()? {
            0 => Ok(Value::Bool(self.bool()?)),
            1 => Ok(Value::Int(self.i64()?)),
            2 => Ok(Value::Real(self.f64()?)),
            3 => Ok(Value::str(self.str()?)),
            4 => Ok(Value::Blob(Bytes::copy_from_slice(self.bytes()?))),
            5 => Ok(Value::Service(ServiceRef::new(self.str()?))),
            t => Err(SnapshotError::Corrupt(format!("unknown value tag {t}"))),
        }
    }

    /// Read one [`Tuple`].
    pub fn tuple(&mut self) -> Result<Tuple, SnapshotError> {
        let arity = self.usize()?;
        let mut values = Vec::with_capacity(arity.min(self.remaining()));
        for _ in 0..arity {
            values.push(self.value()?);
        }
        Ok(Tuple::new(values))
    }
}

/// Stamp the snapshot header (`MAGIC ++ VERSION`) onto `w`.
pub fn write_header(w: &mut Writer) {
    w.buf.extend_from_slice(&MAGIC);
    w.u32(VERSION);
}

/// Consume and validate the snapshot header, returning the format version
/// actually read (currently always [`VERSION`]).
pub fn read_header(r: &mut Reader<'_>) -> Result<u32, SnapshotError> {
    let magic = r.take(MAGIC.len())?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    Ok(version)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = Writer::new();
        w.u8(7)
            .bool(true)
            .u32(12345)
            .u64(u64::MAX)
            .i64(-42)
            .f64(f64::NAN)
            .usize(9)
            .str("héllo")
            .bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 12345);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.usize().unwrap(), 9);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert!(r.is_at_end());
    }

    #[test]
    fn values_and_tuples_round_trip() {
        let tuple = Tuple::new(vec![
            Value::Bool(false),
            Value::Int(-7),
            Value::Real(28.5),
            Value::str("office"),
            Value::blob(vec![0u8, 255]),
            Value::service("sensor01"),
        ]);
        let mut w = Writer::new();
        w.tuple(&tuple);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.tuple().unwrap(), tuple);
        assert!(r.is_at_end());
    }

    #[test]
    fn header_round_trip_and_rejection() {
        let mut w = Writer::new();
        write_header(&mut w);
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(read_header(&mut r).unwrap(), VERSION);
        assert_eq!(r.u64().unwrap(), 1);

        // bad magic
        let mut r = Reader::new(b"NOTASNAPxxxx");
        assert_eq!(read_header(&mut r), Err(SnapshotError::BadMagic));

        // future version
        let mut w = Writer::new();
        w.buf.extend_from_slice(&MAGIC);
        w.u32(VERSION + 1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(
            read_header(&mut r),
            Err(SnapshotError::UnsupportedVersion(VERSION + 1))
        );
    }

    #[test]
    fn malformed_input_is_typed_errors_not_panics() {
        // truncated
        assert_eq!(Reader::new(&[1, 2]).u64(), Err(SnapshotError::Truncated));
        // unknown value tag
        assert!(matches!(
            Reader::new(&[99]).value(),
            Err(SnapshotError::Corrupt(_))
        ));
        // corrupt length claims more than remains
        let mut w = Writer::new();
        w.usize(1_000_000);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).bytes(), Err(SnapshotError::Truncated));
        // bad bool byte
        assert!(matches!(
            Reader::new(&[2]).bool(),
            Err(SnapshotError::Corrupt(_))
        ));
        // non-UTF-8 string
        let mut w = Writer::new();
        w.bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        assert!(matches!(
            Reader::new(&bytes).str(),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn display_covers_variants() {
        for e in [
            SnapshotError::Truncated,
            SnapshotError::BadMagic,
            SnapshotError::UnsupportedVersion(9),
            SnapshotError::Corrupt("x".into()),
            SnapshotError::Mismatch("y".into()),
            SnapshotError::Io("z".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
