//! WAL records: committed epochs plus topology changes.
//!
//! The log interleaves three record kinds, distinguished by a leading
//! kind byte:
//!
//! * [`WalRecord::Commit`] — one committed epoch: the member
//!   transactions' commit sequence numbers and the net per-view deltas
//!   the epoch applied, in application order. Replay re-derives
//!   everything else (source deltas, cascades, constraint effects) by
//!   re-running each delta through the engine's deterministic
//!   `apply_delta` path — the log stores *intent at the view boundary*.
//! * [`WalRecord::Register`] — a runtime view registration: the
//!   complete, self-contained [`ViewDef`] (schemas + program texts)
//!   tagged with the commit seq the registration consumed. Replay
//!   re-registers the view before applying any later commit through it.
//! * [`WalRecord::Unregister`] — the inverse: drop the named view.
//!
//! Registrations and unregistrations take a commit seq from the same
//! global counter as transactions, assigned while every affected
//! shard's write lock is held — so sorting all shards' records by
//! [`WalRecord::first_seq`] reproduces the exact interleaving of
//! topology changes and commits ([`crate::recover`]).

use crate::error::{WalError, WalResult};
use birds_store::codec::{self, Cursor};
use birds_store::{Attribute, Delta, Schema, ValueSort};

/// A registered view reduced to what a fresh engine needs to
/// re-register it: relation schemas plus the Datalog program *texts*
/// (`Display` round-trips through the parser, so text is the canonical
/// serialization). The WAL logs one per runtime registration; a
/// checkpoint's snapshot file carries the full live set as a manifest
/// (see [`encode_view_defs`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewDef {
    /// Schemas of the strategy's source relations, in declaration order.
    pub sources: Vec<Schema>,
    /// Schema of the view relation.
    pub view: Schema,
    /// Putback program source.
    pub putdelta: String,
    /// Expected get the strategy was registered with, if any.
    pub expected_get: Option<String>,
    /// The get program the view was materialized from.
    pub get: String,
    /// `true` when the strategy runs its incrementalized program.
    pub incremental: bool,
}

/// A runtime registration event: the definition plus the commit seq it
/// consumed. Boxed inside [`WalRecord::Register`] to keep the enum
/// small for the common `Commit` case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registration {
    /// The registration's position in the global commit order.
    pub seq: u64,
    /// The complete view definition.
    pub def: ViewDef,
}

/// One durable WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// One committed epoch.
    Commit {
        /// Member transactions' commit sequence numbers, ascending. A
        /// session batch commit has exactly one; a group-commit epoch
        /// has one per coalesced transaction.
        seqs: Vec<u64>,
        /// `(view, net delta)` in application order. Order matters: a
        /// later view's delta was derived against the state *after* the
        /// earlier ones (including their cascades), so replay must
        /// preserve it.
        deltas: Vec<(String, Delta)>,
    },
    /// A runtime view registration.
    Register(Box<Registration>),
    /// A runtime view deregistration.
    Unregister {
        /// The deregistration's position in the global commit order.
        seq: u64,
        /// Name of the dropped view.
        view: String,
    },
}

const KIND_COMMIT: u8 = 0;
const KIND_REGISTER: u8 = 1;
const KIND_UNREGISTER: u8 = 2;

impl WalRecord {
    /// The first (lowest) member seq — the global replay sort key.
    /// Sound because seqs are assigned while the record's shard locks
    /// are held: two records touching any common shard have disjoint,
    /// ordered seq ranges, and records on disjoint shards commute.
    pub fn first_seq(&self) -> u64 {
        match self {
            WalRecord::Commit { seqs, .. } => seqs.first().copied().unwrap_or(0),
            WalRecord::Register(reg) => reg.seq,
            WalRecord::Unregister { seq, .. } => *seq,
        }
    }

    /// The last (highest) member seq.
    pub fn last_seq(&self) -> u64 {
        match self {
            WalRecord::Commit { seqs, .. } => seqs.last().copied().unwrap_or(0),
            WalRecord::Register(reg) => reg.seq,
            WalRecord::Unregister { seq, .. } => *seq,
        }
    }

    /// Encode to the framed-record payload format.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            WalRecord::Commit { seqs, deltas } => {
                codec::put_u8(&mut buf, KIND_COMMIT);
                codec::put_u32(&mut buf, seqs.len() as u32);
                for seq in seqs {
                    codec::put_u64(&mut buf, *seq);
                }
                codec::put_u32(&mut buf, deltas.len() as u32);
                for (view, delta) in deltas {
                    codec::put_str(&mut buf, view);
                    codec::put_delta(&mut buf, delta);
                }
            }
            WalRecord::Register(reg) => {
                codec::put_u8(&mut buf, KIND_REGISTER);
                codec::put_u64(&mut buf, reg.seq);
                put_view_def(&mut buf, &reg.def);
            }
            WalRecord::Unregister { seq, view } => {
                codec::put_u8(&mut buf, KIND_UNREGISTER);
                codec::put_u64(&mut buf, *seq);
                codec::put_str(&mut buf, view);
            }
        }
        buf
    }

    /// Decode from a framed-record payload.
    pub fn decode(payload: &[u8]) -> WalResult<WalRecord> {
        let mut cur = Cursor::new(payload);
        let record = match cur.get_u8()? {
            KIND_COMMIT => {
                let seq_count = cur.get_u32()? as usize;
                let mut seqs = Vec::with_capacity(seq_count);
                for _ in 0..seq_count {
                    seqs.push(cur.get_u64()?);
                }
                let delta_count = cur.get_u32()? as usize;
                let mut deltas = Vec::with_capacity(delta_count);
                for _ in 0..delta_count {
                    let view = cur.get_str()?.to_owned();
                    let delta = codec::get_delta(&mut cur)?;
                    deltas.push((view, delta));
                }
                WalRecord::Commit { seqs, deltas }
            }
            KIND_REGISTER => {
                let seq = cur.get_u64()?;
                let def = get_view_def(&mut cur)?;
                WalRecord::Register(Box::new(Registration { seq, def }))
            }
            KIND_UNREGISTER => {
                let seq = cur.get_u64()?;
                let view = cur.get_str()?.to_owned();
                WalRecord::Unregister { seq, view }
            }
            kind => {
                return Err(WalError::Corrupt(format!("unknown record kind {kind}")));
            }
        };
        if !cur.is_exhausted() {
            return Err(WalError::Corrupt(format!(
                "{} trailing bytes after record",
                cur.remaining()
            )));
        }
        Ok(record)
    }
}

fn sort_tag(sort: ValueSort) -> u8 {
    match sort {
        ValueSort::Int => 0,
        ValueSort::Float => 1,
        ValueSort::Str => 2,
        ValueSort::Bool => 3,
    }
}

fn sort_from_tag(tag: u8) -> WalResult<ValueSort> {
    Ok(match tag {
        0 => ValueSort::Int,
        1 => ValueSort::Float,
        2 => ValueSort::Str,
        3 => ValueSort::Bool,
        _ => return Err(WalError::Corrupt(format!("unknown sort tag {tag}"))),
    })
}

fn put_schema(buf: &mut Vec<u8>, schema: &Schema) {
    codec::put_str(buf, &schema.name);
    codec::put_u32(buf, schema.attributes.len() as u32);
    for attr in &schema.attributes {
        codec::put_str(buf, &attr.name);
        codec::put_u8(buf, sort_tag(attr.sort));
    }
}

fn get_schema(cur: &mut Cursor<'_>) -> WalResult<Schema> {
    let name = cur.get_str()?.to_owned();
    let attr_count = cur.get_u32()? as usize;
    let mut attributes = Vec::with_capacity(attr_count.min(cur.remaining()));
    for _ in 0..attr_count {
        let attr_name = cur.get_str()?.to_owned();
        let sort = sort_from_tag(cur.get_u8()?)?;
        attributes.push(Attribute {
            name: attr_name,
            sort,
        });
    }
    Ok(Schema { name, attributes })
}

fn put_view_def(buf: &mut Vec<u8>, def: &ViewDef) {
    codec::put_u32(buf, def.sources.len() as u32);
    for schema in &def.sources {
        put_schema(buf, schema);
    }
    put_schema(buf, &def.view);
    codec::put_str(buf, &def.putdelta);
    match &def.expected_get {
        Some(text) => {
            codec::put_u8(buf, 1);
            codec::put_str(buf, text);
        }
        None => codec::put_u8(buf, 0),
    }
    codec::put_str(buf, &def.get);
    codec::put_u8(buf, def.incremental as u8);
}

fn get_view_def(cur: &mut Cursor<'_>) -> WalResult<ViewDef> {
    let source_count = cur.get_u32()? as usize;
    let mut sources = Vec::with_capacity(source_count.min(cur.remaining()));
    for _ in 0..source_count {
        sources.push(get_schema(cur)?);
    }
    let view = get_schema(cur)?;
    let putdelta = cur.get_str()?.to_owned();
    let expected_get = match cur.get_u8()? {
        0 => None,
        1 => Some(cur.get_str()?.to_owned()),
        tag => {
            return Err(WalError::Corrupt(format!(
                "bad expected-get presence tag {tag}"
            )))
        }
    };
    let get = cur.get_str()?.to_owned();
    let incremental = match cur.get_u8()? {
        0 => false,
        1 => true,
        tag => return Err(WalError::Corrupt(format!("bad incremental flag {tag}"))),
    };
    Ok(ViewDef {
        sources,
        view,
        putdelta,
        expected_get,
        get,
        incremental,
    })
}

/// Encode a checkpoint's **registration manifest**: the live view
/// definitions, in dependency order (cascade targets first). Written as
/// the prefix of the snapshot file's body, ahead of the engine's
/// relation-contents stream.
pub fn encode_view_defs(defs: &[ViewDef]) -> Vec<u8> {
    let mut buf = Vec::new();
    codec::put_u32(&mut buf, defs.len() as u32);
    for def in defs {
        put_view_def(&mut buf, def);
    }
    buf
}

/// Decode a registration manifest from the front of a snapshot body.
/// Returns the definitions plus the number of bytes consumed — the
/// remainder of the body is the engine's relation-contents stream.
pub fn decode_view_defs(bytes: &[u8]) -> WalResult<(Vec<ViewDef>, usize)> {
    let mut cur = Cursor::new(bytes);
    let count = cur.get_u32()? as usize;
    // The manifest is not CRC-framed: never trust its counts with an
    // allocation (every element consumes at least one byte).
    let mut defs = Vec::with_capacity(count.min(cur.remaining()));
    for _ in 0..count {
        defs.push(get_view_def(&mut cur)?);
    }
    let consumed = bytes.len() - cur.remaining();
    Ok((defs, consumed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use birds_store::tuple;

    fn sample() -> WalRecord {
        let mut d1 = Delta::new();
        d1.push_insert(tuple![1, "a"]);
        d1.push_delete(tuple![2, "b"]);
        let mut d2 = Delta::new();
        d2.push_insert(tuple![3]);
        WalRecord::Commit {
            seqs: vec![4, 5, 9],
            deltas: vec![("v".to_owned(), d1), ("w".to_owned(), d2)],
        }
    }

    fn sample_def() -> ViewDef {
        ViewDef {
            sources: vec![
                Schema::new("r1", vec![("a", ValueSort::Int)]),
                Schema::new("r2", vec![("a", ValueSort::Int), ("b", ValueSort::Str)]),
            ],
            view: Schema::new("v", vec![("a", ValueSort::Int)]),
            putdelta: "-r1(X) :- r1(X), not v(X).".to_owned(),
            expected_get: Some("v(X) :- r1(X).".to_owned()),
            get: "v(X) :- r1(X).".to_owned(),
            incremental: true,
        }
    }

    #[test]
    fn commit_records_round_trip() {
        let record = sample();
        let decoded = WalRecord::decode(&record.encode()).unwrap();
        assert_eq!(decoded, record);
        assert_eq!(decoded.first_seq(), 4);
        assert_eq!(decoded.last_seq(), 9);
    }

    #[test]
    fn register_records_round_trip() {
        let record = WalRecord::Register(Box::new(Registration {
            seq: 17,
            def: sample_def(),
        }));
        let decoded = WalRecord::decode(&record.encode()).unwrap();
        assert_eq!(decoded, record);
        assert_eq!(decoded.first_seq(), 17);
        assert_eq!(decoded.last_seq(), 17);
    }

    #[test]
    fn unregister_records_round_trip() {
        let record = WalRecord::Unregister {
            seq: 23,
            view: "v".to_owned(),
        };
        let decoded = WalRecord::decode(&record.encode()).unwrap();
        assert_eq!(decoded, record);
        assert_eq!(decoded.first_seq(), 23);
    }

    #[test]
    fn empty_record_round_trips() {
        let record = WalRecord::Commit {
            seqs: vec![],
            deltas: vec![],
        };
        assert_eq!(WalRecord::decode(&record.encode()).unwrap(), record);
        assert_eq!(record.first_seq(), 0);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(matches!(
            WalRecord::decode(&bytes),
            Err(WalError::Corrupt(_))
        ));
    }

    #[test]
    fn unknown_kinds_are_rejected() {
        assert!(matches!(
            WalRecord::decode(&[9, 0, 0, 0, 0]),
            Err(WalError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_payloads_are_rejected() {
        for record in [
            sample(),
            WalRecord::Register(Box::new(Registration {
                seq: 1,
                def: sample_def(),
            })),
        ] {
            let bytes = record.encode();
            for cut in [1, bytes.len() / 2, bytes.len() - 1] {
                assert!(WalRecord::decode(&bytes[..cut]).is_err(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn manifests_round_trip_with_a_trailing_stream() {
        let defs = vec![sample_def(), {
            let mut d = sample_def();
            d.view.name = "w".to_owned();
            d.expected_get = None;
            d.incremental = false;
            d
        }];
        let mut bytes = encode_view_defs(&defs);
        let manifest_len = bytes.len();
        bytes.extend_from_slice(b"ENGINE-SNAPSHOT-STREAM");
        let (decoded, consumed) = decode_view_defs(&bytes).unwrap();
        assert_eq!(decoded, defs);
        assert_eq!(consumed, manifest_len);
        assert_eq!(&bytes[consumed..], b"ENGINE-SNAPSHOT-STREAM");
    }
}
