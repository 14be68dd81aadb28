//! Engine snapshots: serialize every stored relation to a versioned
//! binary stream and restore it later.
//!
//! A snapshot captures *contents only* — relation names, arities and
//! tuple sets, materialized views included — using the store codec
//! (`birds_store::codec`). It does not capture strategies, plans or
//! indexes: those are code-derived, so recovery re-registers the same
//! views (the same construction code that built the engine) and then
//! [`Engine::restore`] overwrites the relation contents. Each relation
//! is written as one CRC-framed record, so a truncated or bit-flipped
//! snapshot fails loudly at restore time instead of half-loading.
//!
//! Layout: `"BSNP"` header ([`codec::StreamHeader`]) · `u64` relation
//! count · one framed record per relation.

use crate::engine::Engine;
use crate::error::{EngineError, EngineResult};
use birds_store::codec::{self, RecordRead, StreamHeader};
use birds_store::Relation;
use std::io::{Read, Write};

/// Magic tag of an engine snapshot stream.
const SNAPSHOT_MAGIC: [u8; 4] = *b"BSNP";

/// Write a snapshot stream covering exactly `relations`. The sharded
/// service uses this directly to checkpoint across shard engines; a
/// single engine snapshots itself via [`Engine::snapshot`]. Records are
/// streamed in bounded chunks ([`codec::write_relation_record`]), so a
/// checkpoint never holds an encoded copy of a whole relation.
pub fn write_snapshot(w: &mut impl Write, relations: &[&Relation]) -> EngineResult<()> {
    let header = StreamHeader {
        magic: SNAPSHOT_MAGIC,
    };
    header.write(w).map_err(snapshot_err)?;
    w.write_all(&(relations.len() as u64).to_le_bytes())
        .map_err(|e| snapshot_err(codec::CodecError::Io(e)))?;
    for rel in relations {
        codec::write_relation_record(w, rel).map_err(snapshot_err)?;
    }
    Ok(())
}

/// Read every relation out of a snapshot stream.
pub fn read_snapshot(r: &mut impl Read) -> EngineResult<Vec<Relation>> {
    StreamHeader::read(r, SNAPSHOT_MAGIC).map_err(snapshot_err)?;
    let mut count_bytes = [0u8; 8];
    r.read_exact(&mut count_bytes)
        .map_err(|e| snapshot_err(codec::CodecError::Io(e)))?;
    let count = u64::from_le_bytes(count_bytes);
    let mut relations = Vec::new();
    for i in 0..count {
        let payload = match codec::read_record(r).map_err(snapshot_err)? {
            RecordRead::Payload(p) => p,
            RecordRead::Eof | RecordRead::Torn => {
                return Err(EngineError::Snapshot(format!(
                    "snapshot truncated at relation {i} of {count}"
                )));
            }
        };
        let mut cur = codec::Cursor::new(&payload);
        let rel = codec::get_relation(&mut cur).map_err(snapshot_err)?;
        if !cur.is_exhausted() {
            return Err(EngineError::Snapshot(format!(
                "trailing bytes after relation '{}'",
                rel.name()
            )));
        }
        relations.push(rel);
    }
    Ok(relations)
}

fn snapshot_err(e: codec::CodecError) -> EngineError {
    EngineError::Snapshot(e.to_string())
}

impl Engine {
    /// Serialize every stored relation (base tables and materialized
    /// views) to `w`. See the module docs for the format and what is
    /// deliberately *not* captured.
    pub fn snapshot(&self, w: &mut impl Write) -> EngineResult<()> {
        let relations: Vec<&Relation> = self.database().relations().collect();
        write_snapshot(w, &relations)
    }

    /// Replace the contents of every stored relation from a snapshot
    /// stream previously produced by [`Engine::snapshot`] (or the
    /// service's sharded checkpoint writer).
    ///
    /// The snapshot must cover **exactly** this engine's relation set —
    /// same names, same arities. A mismatch (a view added or dropped
    /// since the snapshot was taken, an arity change) is a schema
    /// migration, which this subsystem deliberately refuses to guess at:
    /// the restore fails without modifying the engine. On success
    /// secondary indexes are rebuilt; plans costed against relation sizes
    /// the restore changed by more than their drift factor re-plan on
    /// first use.
    pub fn restore(&mut self, mut r: impl Read) -> EngineResult<()> {
        let relations = read_snapshot(&mut r)?;
        // Validate the full set before touching anything.
        for rel in &relations {
            match self.relation(rel.name()) {
                None => {
                    return Err(EngineError::Snapshot(format!(
                        "snapshot carries unknown relation '{}'",
                        rel.name()
                    )));
                }
                Some(existing) if existing.arity() != rel.arity() => {
                    return Err(EngineError::Snapshot(format!(
                        "snapshot relation '{}' has arity {} but the engine expects {}",
                        rel.name(),
                        rel.arity(),
                        existing.arity()
                    )));
                }
                Some(_) => {}
            }
        }
        let expected = self.database().relations().count();
        if relations.len() != expected {
            return Err(EngineError::Snapshot(format!(
                "snapshot covers {} relations but the engine has {expected}",
                relations.len()
            )));
        }
        for rel in relations {
            let target = self
                .database_mut()
                .relation_mut(rel.name())
                .expect("validated above");
            target.replace_all(rel.into_tuples())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StrategyMode;
    use birds_core::UpdateStrategy;
    use birds_store::{tuple, Database, DatabaseSchema, Schema, SortKind};

    fn union_engine() -> Engine {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("r1", 1, vec![tuple![1]]).unwrap())
            .unwrap();
        db.add_relation(Relation::with_tuples("r2", 1, vec![tuple![2], tuple![4]]).unwrap())
            .unwrap();
        let strategy = UpdateStrategy::parse(
            DatabaseSchema::new()
                .with(Schema::new("r1", vec![("a", SortKind::Int)]))
                .with(Schema::new("r2", vec![("a", SortKind::Int)])),
            Schema::new("v", vec![("a", SortKind::Int)]),
            "
            -r1(X) :- r1(X), not v(X).
            -r2(X) :- r2(X), not v(X).
            +r1(X) :- v(X), not r1(X), not r2(X).
            ",
            None,
        )
        .unwrap();
        let mut engine = Engine::new(db);
        engine
            .register_view(strategy, StrategyMode::Incremental)
            .unwrap();
        engine
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut source = union_engine();
        source.execute("INSERT INTO v VALUES (9);").unwrap();
        source.execute("DELETE FROM v WHERE a = 2;").unwrap();
        let mut bytes = Vec::new();
        source.snapshot(&mut bytes).unwrap();

        // A freshly built engine (same registration code, seed data)
        // restored from the snapshot must match the source exactly.
        let mut recovered = union_engine();
        recovered.restore(&bytes[..]).unwrap();
        assert!(recovered.database().same_contents(source.database()));

        // The restored engine stays updatable (indexes were rebuilt).
        recovered.execute("INSERT INTO v VALUES (70);").unwrap();
        assert!(recovered.relation("r1").unwrap().contains(&tuple![70]));
    }

    #[test]
    fn restore_rejects_schema_mismatch_without_mutation() {
        let source = union_engine();
        let mut bytes = Vec::new();
        source.snapshot(&mut bytes).unwrap();

        // An engine with a different relation set refuses the snapshot.
        let mut other = Engine::new(Database::new());
        other
            .database_mut()
            .add_relation(Relation::new("r1", 1))
            .unwrap();
        let err = other.restore(&bytes[..]).unwrap_err();
        assert!(matches!(err, EngineError::Snapshot(_)), "{err}");
        assert!(other.relation("r1").unwrap().is_empty(), "unmodified");
    }

    #[test]
    fn restore_rejects_truncated_snapshots() {
        let source = union_engine();
        let mut bytes = Vec::new();
        source.snapshot(&mut bytes).unwrap();
        for cut in [bytes.len() - 1, bytes.len() / 2, 10] {
            let mut target = union_engine();
            assert!(
                target.restore(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn restore_rejects_corrupted_payloads() {
        let source = union_engine();
        let mut bytes = Vec::new();
        source.snapshot(&mut bytes).unwrap();
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        let mut target = union_engine();
        assert!(target.restore(&corrupt[..]).is_err(), "CRC must catch it");
    }
}
