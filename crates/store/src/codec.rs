//! Versioned binary codec for store types — the durability substrate.
//!
//! The WAL and snapshot files (`birds-wal`) need a compact, stable
//! on-disk form for [`Value`], [`Tuple`], [`Delta`] and [`Relation`].
//! This module defines it once, at the store layer, so every consumer
//! (engine snapshots, per-shard WAL segments, tests) reads and writes
//! the same bytes:
//!
//! * **Length-prefixed records** — [`write_record`] frames a payload as
//!   `len: u32 LE | crc: u32 LE | payload`, and [`read_record`] refuses
//!   to return bytes whose CRC32 does not match. A crash mid-append
//!   leaves a torn tail that reads back as [`RecordRead::Torn`], never
//!   as silently corrupt data.
//! * **Interned strings written by bytes** — a `Value::Str` is encoded
//!   as its UTF-8 bytes (length-prefixed) and re-interned on decode;
//!   pool pointers never reach disk, so files are portable across
//!   processes.
//! * **Versioned** — every framed stream starts with a
//!   [`StreamHeader`] carrying a magic tag and [`FORMAT_VERSION`];
//!   decoding a future (or foreign) format fails up front instead of
//!   misparsing.
//!
//! Numbers are fixed-width little-endian: the corpus workloads are
//! dominated by interned-string bytes and tuple payloads, where varint
//! shaving would buy little at the cost of a second code path.

use crate::delta::Delta;
use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashSet;
use std::fmt;
use std::io::{Read, Write};

/// Version written into every [`StreamHeader`]. Bump when the byte
/// layout of any encoder below changes; decoders reject other versions.
pub const FORMAT_VERSION: u16 = 1;

/// Errors raised while encoding or decoding.
#[derive(Debug)]
pub enum CodecError {
    /// The underlying reader/writer failed.
    Io(std::io::Error),
    /// The bytes do not decode as the expected structure.
    Corrupt(String),
    /// The stream was written by an unknown format version.
    Version { found: u16, expected: u16 },
    /// The stream's magic tag does not match the expected kind.
    Magic { found: [u8; 4], expected: [u8; 4] },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "io error: {e}"),
            CodecError::Corrupt(m) => write!(f, "corrupt stream: {m}"),
            CodecError::Version { found, expected } => {
                write!(
                    f,
                    "unsupported format version {found} (expected {expected})"
                )
            }
            CodecError::Magic { found, expected } => write!(
                f,
                "bad magic {:?} (expected {:?})",
                String::from_utf8_lossy(found),
                String::from_utf8_lossy(expected)
            ),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// Result alias for codec operations.
pub type CodecResult<T> = Result<T, CodecError>;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — the checksum every framed record carries.
// ---------------------------------------------------------------------------

/// The CRC32 lookup tables for slicing-by-8, built once at first use:
/// `tables[0]` is the classic byte-at-a-time table, and `tables[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, so eight table lookups
/// fold eight input bytes at once.
fn crc32_tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        for (i, slot) in tables[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        for k in 1..8 {
            let (done, rest) = tables.split_at_mut(k);
            for (slot, &prev) in rest[0].iter_mut().zip(&done[k - 1]) {
                *slot = (prev >> 8) ^ done[0][(prev & 0xFF) as usize];
            }
        }
        tables
    })
}

/// CRC32 (IEEE) of `bytes` — the per-record checksum the WAL uses to
/// detect torn tails.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// A running [`crc32`] over bytes that arrive in pieces: the checksum of
/// the concatenation of every `update`.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// The checksum state before any bytes.
    pub fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Fold `bytes` in, eight at a time (slicing-by-8: snapshots checksum
    /// every relation record, megabytes per checkpoint).
    pub fn update(&mut self, bytes: &[u8]) {
        let t = crc32_tables();
        let byte = |word: u32, shift: u32| ((word >> shift) & 0xFF) as usize;
        let mut crc = self.0;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][byte(lo, 0)]
                ^ t[6][byte(lo, 8)]
                ^ t[5][byte(lo, 16)]
                ^ t[4][byte(lo, 24)]
                ^ t[3][byte(hi, 0)]
                ^ t[2][byte(hi, 8)]
                ^ t[1][byte(hi, 16)]
                ^ t[0][byte(hi, 24)];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][byte(crc ^ u32::from(b), 0)];
        }
        self.0 = crc;
    }

    /// The checksum of everything folded in so far.
    pub fn finish(&self) -> u32 {
        !self.0
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

// ---------------------------------------------------------------------------
// Primitives.
// ---------------------------------------------------------------------------

/// Append a single byte (tags and flags).
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a `u32` (little-endian).
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` (little-endian).
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed byte string.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// A cursor over an in-memory payload being decoded.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Decode from `bytes`.
    pub fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// `true` once every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::Corrupt(format!(
                "truncated payload: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> CodecResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> CodecResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> CodecResult<&'a [u8]> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> CodecResult<&'a str> {
        std::str::from_utf8(self.get_bytes()?)
            .map_err(|e| CodecError::Corrupt(format!("invalid UTF-8 in string: {e}")))
    }
}

// ---------------------------------------------------------------------------
// Values, tuples, deltas, relations.
// ---------------------------------------------------------------------------

const TAG_INT: u8 = 0;
const TAG_FLOAT: u8 = 1;
const TAG_STR: u8 = 2;
const TAG_BOOL: u8 = 3;

/// Encode one [`Value`]: a sort tag byte followed by the payload. A
/// string is written as its bytes — the intern pool is process-local and
/// never serialized.
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            buf.push(TAG_INT);
            put_u64(buf, *i as u64);
        }
        Value::Float(f) => {
            buf.push(TAG_FLOAT);
            put_u64(buf, f.get().to_bits());
        }
        Value::Str(s) => {
            buf.push(TAG_STR);
            put_str(buf, s.as_str());
        }
        Value::Bool(b) => {
            buf.push(TAG_BOOL);
            buf.push(u8::from(*b));
        }
    }
}

/// Decode one [`Value`]. Strings are re-interned; floats go back through
/// [`Value::float`]'s normalization (`-0.0` → `0.0`), and NaN bits —
/// which no encoder produces — are rejected rather than panicking.
pub fn get_value(cur: &mut Cursor<'_>) -> CodecResult<Value> {
    match cur.get_u8()? {
        TAG_INT => Ok(Value::Int(cur.get_u64()? as i64)),
        TAG_FLOAT => {
            let bits = cur.get_u64()?;
            let f = f64::from_bits(bits);
            if f.is_nan() {
                return Err(CodecError::Corrupt("NaN float value".into()));
            }
            Ok(Value::float(f))
        }
        TAG_STR => Ok(Value::str(cur.get_str()?)),
        TAG_BOOL => match cur.get_u8()? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            other => Err(CodecError::Corrupt(format!("bad bool byte {other}"))),
        },
        tag => Err(CodecError::Corrupt(format!("unknown value tag {tag}"))),
    }
}

/// Encode one [`Tuple`]: arity then values.
pub fn put_tuple(buf: &mut Vec<u8>, t: &Tuple) {
    put_u32(buf, t.arity() as u32);
    for v in t.values() {
        put_value(buf, v);
    }
}

/// Decode one [`Tuple`].
pub fn get_tuple(cur: &mut Cursor<'_>) -> CodecResult<Tuple> {
    let arity = cur.get_u32()? as usize;
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(get_value(cur)?);
    }
    Ok(Tuple::new(values))
}

fn put_tuple_set<'a>(buf: &mut Vec<u8>, tuples: impl ExactSizeIterator<Item = &'a Tuple>) {
    put_u32(buf, tuples.len() as u32);
    for t in tuples {
        put_tuple(buf, t);
    }
}

fn get_tuple_set(cur: &mut Cursor<'_>) -> CodecResult<HashSet<Tuple>> {
    let count = cur.get_u32()? as usize;
    let mut set = HashSet::with_capacity(count);
    for _ in 0..count {
        set.insert(get_tuple(cur)?);
    }
    Ok(set)
}

/// Encode one [`Delta`]: insertions then deletions. Set iteration order
/// is arbitrary, so two encodings of the same delta may differ byte for
/// byte — equality is defined on the decoded sets, not the bytes.
pub fn put_delta(buf: &mut Vec<u8>, d: &Delta) {
    put_tuple_set(buf, d.insertions.iter());
    put_tuple_set(buf, d.deletions.iter());
}

/// Decode one [`Delta`].
pub fn get_delta(cur: &mut Cursor<'_>) -> CodecResult<Delta> {
    let insertions = get_tuple_set(cur)?;
    let deletions = get_tuple_set(cur)?;
    Ok(Delta::from_sets(insertions, deletions))
}

/// Encode one [`Relation`]: name, arity, tuple count, tuples. Secondary
/// indexes are derived data and are not serialized — the engine rebuilds
/// them on restore.
pub fn put_relation(buf: &mut Vec<u8>, rel: &Relation) {
    put_relation_head(buf, rel);
    for t in rel.iter() {
        put_tuple(buf, t);
    }
}

/// Everything [`put_relation`] writes before the first tuple.
fn put_relation_head(buf: &mut Vec<u8>, rel: &Relation) {
    put_str(buf, rel.name());
    put_u32(buf, rel.arity() as u32);
    put_u64(buf, rel.len() as u64);
}

/// Decode one [`Relation`] (no indexes — see [`put_relation`]).
pub fn get_relation(cur: &mut Cursor<'_>) -> CodecResult<Relation> {
    let name = cur.get_str()?.to_owned();
    let arity = cur.get_u32()? as usize;
    let count = cur.get_u64()? as usize;
    let mut rel = Relation::new(name, arity);
    for _ in 0..count {
        let t = get_tuple(cur)?;
        rel.insert(t)
            .map_err(|e| CodecError::Corrupt(format!("relation payload: {e}")))?;
    }
    Ok(rel)
}

// ---------------------------------------------------------------------------
// Stream headers and record framing.
// ---------------------------------------------------------------------------

/// The versioned header every framed stream (WAL segment, snapshot)
/// starts with: 4 magic bytes + `FORMAT_VERSION` (u16 LE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHeader {
    /// Stream kind tag (e.g. `b"BWAL"`, `b"BSNP"`).
    pub magic: [u8; 4],
}

impl StreamHeader {
    /// Write the header.
    pub fn write(&self, w: &mut impl Write) -> CodecResult<()> {
        w.write_all(&self.magic)?;
        w.write_all(&FORMAT_VERSION.to_le_bytes())?;
        Ok(())
    }

    /// Read and validate a header of the expected kind.
    pub fn read(r: &mut impl Read, expected: [u8; 4]) -> CodecResult<()> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if magic != expected {
            return Err(CodecError::Magic {
                found: magic,
                expected,
            });
        }
        let mut version = [0u8; 2];
        r.read_exact(&mut version)?;
        let version = u16::from_le_bytes(version);
        if version != FORMAT_VERSION {
            return Err(CodecError::Version {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        Ok(())
    }

    /// Header size in bytes.
    pub const LEN: u64 = 6;
}

/// Upper bound on one framed record, a corruption tripwire: a length
/// prefix beyond this is treated as a torn/corrupt tail rather than an
/// instruction to allocate gigabytes.
pub const MAX_RECORD_BYTES: u32 = 1 << 30;

/// Frame and write one record: `len | crc32(payload) | payload`. An
/// oversized payload is a hard error (not a debug assert): silently
/// framing it would produce a record that [`read_record`] rejects as
/// torn — an acknowledged-but-unreadable write.
pub fn write_record(w: &mut impl Write, payload: &[u8]) -> CodecResult<()> {
    if payload.len() as u64 > u64::from(MAX_RECORD_BYTES) {
        return Err(CodecError::Corrupt(format!(
            "record payload of {} bytes exceeds the {MAX_RECORD_BYTES}-byte cap",
            payload.len()
        )));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// How many encoded bytes [`write_relation_record`] gathers before
/// handing them on. Its buffer is twice this, so the tuple that crosses
/// the mark never reallocates it, and stays under the allocator's default
/// mmap threshold (128 KiB): the buffer is recycled from the heap instead
/// of mapped and unmapped per record.
const RECORD_CHUNK_BYTES: usize = 32 * 1024;

/// Frame and write one [`Relation`] record — exactly the bytes of
/// [`write_record`] over a [`put_relation`] payload — without
/// materializing the payload. The relation is encoded twice in bounded
/// chunks: the first pass only measures its length and CRC for the
/// frame header, the second writes it. A snapshot of a large relation
/// thus costs one more encoding pass instead of a transient copy of the
/// whole payload. Both passes iterate the same immutable tuple set, so
/// they see the tuples in the same order.
pub fn write_relation_record(w: &mut impl Write, rel: &Relation) -> CodecResult<()> {
    let mut chunk = Vec::with_capacity(2 * RECORD_CHUNK_BYTES);
    let mut len = 0u64;
    let mut crc = Crc32::new();
    encode_relation_chunks(rel, &mut chunk, &mut |bytes| {
        len += bytes.len() as u64;
        crc.update(bytes);
        Ok(())
    })?;
    if len > u64::from(MAX_RECORD_BYTES) {
        return Err(CodecError::Corrupt(format!(
            "record payload of {len} bytes exceeds the {MAX_RECORD_BYTES}-byte cap"
        )));
    }
    w.write_all(&(len as u32).to_le_bytes())?;
    w.write_all(&crc.finish().to_le_bytes())?;
    encode_relation_chunks(rel, &mut chunk, &mut |bytes| Ok(w.write_all(bytes)?))
}

/// Feed the [`put_relation`] encoding of `rel` to `sink` in pieces of
/// about [`RECORD_CHUNK_BYTES`], reusing `chunk` as the buffer.
fn encode_relation_chunks(
    rel: &Relation,
    chunk: &mut Vec<u8>,
    sink: &mut dyn FnMut(&[u8]) -> CodecResult<()>,
) -> CodecResult<()> {
    chunk.clear();
    put_relation_head(chunk, rel);
    for t in rel.iter() {
        put_tuple(chunk, t);
        if chunk.len() >= RECORD_CHUNK_BYTES {
            sink(chunk)?;
            chunk.clear();
        }
    }
    sink(chunk)
}

/// Outcome of one framed-record read.
#[derive(Debug)]
pub enum RecordRead {
    /// A complete record whose CRC matched.
    Payload(Vec<u8>),
    /// Clean end of stream: zero bytes remained.
    Eof,
    /// The stream ended mid-record, or the CRC did not match — the torn
    /// tail a crash mid-append leaves behind. Everything read so far is
    /// valid; everything from this record on must be discarded.
    Torn,
}

/// Read one framed record. IO errors other than a mid-record EOF are
/// surfaced as [`CodecError::Io`]; a short read or CRC mismatch is
/// [`RecordRead::Torn`].
pub fn read_record(r: &mut impl Read) -> CodecResult<RecordRead> {
    let mut len_bytes = [0u8; 4];
    match read_exact_or_eof(r, &mut len_bytes)? {
        Fill::Empty => return Ok(RecordRead::Eof),
        Fill::Partial => return Ok(RecordRead::Torn),
        Fill::Full => {}
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_RECORD_BYTES {
        return Ok(RecordRead::Torn);
    }
    let mut crc_bytes = [0u8; 4];
    match read_exact_or_eof(r, &mut crc_bytes)? {
        Fill::Full => {}
        _ => return Ok(RecordRead::Torn),
    }
    let expected_crc = u32::from_le_bytes(crc_bytes);
    let mut payload = vec![0u8; len as usize];
    match read_exact_or_eof(r, &mut payload)? {
        Fill::Full => {}
        _ => return Ok(RecordRead::Torn),
    }
    if crc32(&payload) != expected_crc {
        return Ok(RecordRead::Torn);
    }
    Ok(RecordRead::Payload(payload))
}

enum Fill {
    Empty,
    Partial,
    Full,
}

/// `read_exact` that distinguishes "no bytes at all" from "some but not
/// enough" — the difference between a clean EOF and a torn record.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> CodecResult<Fill> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    Fill::Empty
                } else {
                    Fill::Partial
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(CodecError::Io(e)),
        }
    }
    Ok(Fill::Full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    fn round_trip_value(v: Value) {
        let mut buf = Vec::new();
        put_value(&mut buf, &v);
        let mut cur = Cursor::new(&buf);
        assert_eq!(get_value(&mut cur).unwrap(), v);
        assert!(cur.is_exhausted());
    }

    #[test]
    fn values_round_trip() {
        round_trip_value(Value::int(0));
        round_trip_value(Value::int(-1));
        round_trip_value(Value::int(i64::MAX));
        round_trip_value(Value::int(i64::MIN));
        round_trip_value(Value::float(3.5));
        round_trip_value(Value::float(-0.0)); // normalized to 0.0 both sides
        round_trip_value(Value::str(""));
        round_trip_value(Value::str("1962-01-01"));
        round_trip_value(Value::str("uni\u{00e7}ode"));
        round_trip_value(Value::Bool(true));
        round_trip_value(Value::Bool(false));
    }

    #[test]
    fn decoded_strings_are_interned() {
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::str("pooled"));
        let decoded = get_value(&mut Cursor::new(&buf)).unwrap();
        let (Value::Str(a), Value::Str(b)) = (decoded, Value::str("pooled")) else {
            panic!("not strings");
        };
        assert!(std::ptr::eq(a.as_str(), b.as_str()), "one pool entry");
    }

    #[test]
    fn nan_bits_are_rejected_not_panicked() {
        let mut buf = vec![TAG_FLOAT];
        put_u64(&mut buf, f64::NAN.to_bits());
        assert!(matches!(
            get_value(&mut Cursor::new(&buf)),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn tuples_round_trip() {
        for t in [tuple![], tuple![1], tuple![1, "ann", true, 2.5]] {
            let mut buf = Vec::new();
            put_tuple(&mut buf, &t);
            assert_eq!(get_tuple(&mut Cursor::new(&buf)).unwrap(), t);
        }
    }

    #[test]
    fn deltas_round_trip() {
        let mut d = Delta::new();
        d.push_insert(tuple![1, "a"]);
        d.push_insert(tuple![2, "b"]);
        d.push_delete(tuple![3, "c"]);
        let mut buf = Vec::new();
        put_delta(&mut buf, &d);
        let decoded = get_delta(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(decoded, d);
    }

    #[test]
    fn relations_round_trip_without_indexes() {
        let mut rel = Relation::with_tuples("r", 2, vec![tuple![1, "a"], tuple![2, "b"]]).unwrap();
        rel.ensure_index(&[0]).unwrap();
        let mut buf = Vec::new();
        put_relation(&mut buf, &rel);
        let decoded = get_relation(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(decoded.name(), "r");
        assert_eq!(decoded.arity(), 2);
        assert_eq!(decoded.tuples(), rel.tuples());
        assert!(!decoded.has_index(&[0]), "indexes are rebuilt, not stored");
    }

    #[test]
    fn sliced_crc_matches_the_bitwise_definition() {
        // Every length 0..=100 exercises the 8-byte body and each
        // remainder length.
        let bitwise = |bytes: &[u8]| {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ 0xEDB8_8320
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        };
        let bytes: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        for n in 0..=bytes.len() {
            assert_eq!(crc32(&bytes[..n]), bitwise(&bytes[..n]), "length {n}");
        }
    }

    #[test]
    fn running_crc_matches_the_one_shot_crc() {
        let bytes: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        let mut crc = Crc32::new();
        for piece in bytes.chunks(33) {
            crc.update(piece);
        }
        assert_eq!(crc.finish(), crc32(&bytes));
        assert_eq!(Crc32::new().finish(), crc32(b""));
    }

    #[test]
    fn streamed_relation_records_match_materialized_ones() {
        // Empty, one chunk, and many chunks (≈ 30 bytes a tuple).
        for n in [0i64, 3, 20_000] {
            let rel =
                Relation::with_tuples("r", 2, (0..n).map(|i| tuple![i, "some text"])).unwrap();
            let mut payload = Vec::new();
            put_relation(&mut payload, &rel);
            assert_eq!(payload.len() > 3 * RECORD_CHUNK_BYTES, n == 20_000);
            let mut expected = Vec::new();
            write_record(&mut expected, &payload).unwrap();
            let mut streamed = Vec::new();
            write_relation_record(&mut streamed, &rel).unwrap();
            assert!(streamed == expected, "{n} tuples: the bytes differ");
        }
    }

    #[test]
    fn records_round_trip_and_detect_corruption() {
        let mut stream = Vec::new();
        write_record(&mut stream, b"first").unwrap();
        write_record(&mut stream, b"second record").unwrap();

        let mut r = &stream[..];
        assert!(matches!(
            read_record(&mut r).unwrap(),
            RecordRead::Payload(p) if p == b"first"
        ));
        assert!(matches!(
            read_record(&mut r).unwrap(),
            RecordRead::Payload(p) if p == b"second record"
        ));
        assert!(matches!(read_record(&mut r).unwrap(), RecordRead::Eof));

        // Flip one payload byte: CRC must catch it.
        let mut bad = stream.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        let mut r = &bad[..];
        assert!(matches!(
            read_record(&mut r).unwrap(),
            RecordRead::Payload(_)
        ));
        assert!(matches!(read_record(&mut r).unwrap(), RecordRead::Torn));
    }

    #[test]
    fn torn_tails_at_every_truncation_point() {
        let mut stream = Vec::new();
        write_record(&mut stream, b"only").unwrap();
        for cut in 1..stream.len() {
            let mut r = &stream[..cut];
            assert!(
                matches!(read_record(&mut r).unwrap(), RecordRead::Torn),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_payload_is_rejected_before_any_byte_is_written() {
        // Zero-filled and never touched until write, so the 1 GiB + 1
        // allocation stays virtual: write_record must refuse up front.
        let payload = vec![0u8; MAX_RECORD_BYTES as usize + 1];
        let mut out = Vec::new();
        assert!(matches!(
            write_record(&mut out, &payload),
            Err(CodecError::Corrupt(_))
        ));
        assert!(out.is_empty(), "nothing reached the stream");
    }

    #[test]
    fn absurd_length_prefix_is_torn_not_oom() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&u32::MAX.to_le_bytes());
        stream.extend_from_slice(&0u32.to_le_bytes());
        let mut r = &stream[..];
        assert!(matches!(read_record(&mut r).unwrap(), RecordRead::Torn));
    }

    #[test]
    fn stream_headers_validate_magic_and_version() {
        let header = StreamHeader { magic: *b"BTST" };
        let mut buf = Vec::new();
        header.write(&mut buf).unwrap();
        assert_eq!(buf.len() as u64, StreamHeader::LEN);
        assert!(StreamHeader::read(&mut &buf[..], *b"BTST").is_ok());
        assert!(matches!(
            StreamHeader::read(&mut &buf[..], *b"XXXX"),
            Err(CodecError::Magic { .. })
        ));
        let mut wrong_version = buf.clone();
        wrong_version[4] = 0xFF;
        assert!(matches!(
            StreamHeader::read(&mut &wrong_version[..], *b"BTST"),
            Err(CodecError::Version { .. })
        ));
    }
}
