//! Crash recovery: scan a data directory into a replayable state.
//!
//! Recovery merges the per-shard logs into one globally ordered record
//! stream:
//!
//! 1. read the snapshot file (if any) — its watermark is the commit seq
//!    everything at or below which is already captured;
//! 2. read every shard's segments in order, truncating a torn tail on
//!    the *last* segment of a shard (the only place a crash can tear) —
//!    a torn record followed by later segments or records is refused as
//!    corruption rather than silently skipped;
//! 3. drop records whose first seq is at or below the watermark (the
//!    leftovers of a checkpoint that crashed between snapshot rename
//!    and truncation);
//! 4. sort the survivors by first member seq — commit seqs are assigned
//!    under the shard locks the commit holds, so this ordering agrees
//!    with every shard's application order and *is* the global commit
//!    order.
//!
//! The caller (the service) then restores the snapshot into its engine
//! and replays each record's deltas through the deterministic
//! `apply_delta` path.

use crate::error::{WalError, WalResult};
use crate::record::WalRecord;
use crate::segment::{read_segment, scan_segments};
use crate::snapshot_file::read_snapshot_file;
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::Read;
use std::path::Path;

/// Everything recovery found in a data directory.
pub struct Recovery {
    /// The snapshot body (an engine snapshot stream), if a snapshot
    /// file existed.
    pub snapshot: Option<Vec<u8>>,
    /// The snapshot's watermark (0 without a snapshot): every commit
    /// seq ≤ watermark is inside the snapshot.
    pub watermark: u64,
    /// Surviving WAL records, sorted by first member seq — replay them
    /// in this order.
    pub records: Vec<WalRecord>,
    /// The highest commit seq anywhere (watermark included): the
    /// recovered service resumes its commit sequence after this.
    pub max_seq: u64,
    /// Shard segment files whose torn tails were truncated.
    pub truncated_tails: usize,
}

/// Scan `data_dir` and produce a [`Recovery`]. Truncates torn tails in
/// place (so a subsequently opened [`crate::SegmentWriter`] appends
/// after the last intact record). A directory with no snapshot and no
/// segments recovers to the empty state.
pub fn recover(data_dir: &Path) -> WalResult<Recovery> {
    let (watermark, snapshot) = match read_snapshot_file(data_dir)? {
        Some((watermark, mut reader)) => {
            let mut body = Vec::new();
            reader.read_to_end(&mut body)?;
            (watermark, Some(body))
        }
        None => (0, None),
    };

    // Group segments per shard, in segment order (scan_segments sorts).
    let mut per_shard: BTreeMap<usize, Vec<crate::segment::SegmentInfo>> = BTreeMap::new();
    for info in scan_segments(data_dir)? {
        per_shard.entry(info.shard).or_default().push(info);
    }

    let mut records: Vec<WalRecord> = Vec::new();
    let mut truncated_tails = 0usize;
    for (shard, segments) in &per_shard {
        let last_index = segments.len() - 1;
        let mut last_seq_seen: Option<u64> = None;
        for (index, info) in segments.iter().enumerate() {
            let contents = read_segment(&info.path)?;
            if contents.torn {
                if index != last_index {
                    return Err(WalError::Corrupt(format!(
                        "shard {shard}: segment {} has a torn record but later \
                         segments exist — a crash can only tear the newest tail",
                        info.seg
                    )));
                }
                let file = OpenOptions::new().write(true).open(&info.path)?;
                file.set_len(contents.valid_len)?;
                file.sync_all()?;
                truncated_tails += 1;
            }
            for record in contents.records {
                // Per-shard logs are append-ordered; refuse a log whose
                // seqs go backwards (impossible from our writer — it
                // would mean tampering or a bug worth failing loudly on).
                if let Some(prev) = last_seq_seen {
                    if record.first_seq() <= prev {
                        return Err(WalError::Corrupt(format!(
                            "shard {shard}: record seq {} not after {} — \
                             per-shard order violated",
                            record.first_seq(),
                            prev
                        )));
                    }
                }
                last_seq_seen = Some(record.last_seq());
                records.push(record);
            }
        }
    }

    // Drop records the snapshot already covers (a checkpoint that
    // crashed after the snapshot rename but before truncation). Seq
    // assignment and snapshotting both happen under the shard locks, so
    // a record is entirely ≤ or entirely > the watermark.
    records.retain(|r| r.first_seq() > watermark);
    records.sort_by_key(WalRecord::first_seq);

    let max_seq = records
        .iter()
        .map(WalRecord::last_seq)
        .max()
        .unwrap_or(0)
        .max(watermark);
    Ok(Recovery {
        snapshot,
        watermark,
        records,
        max_seq,
        truncated_tails,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{SegmentWriter, DEFAULT_SEGMENT_BYTES};
    use crate::snapshot_file::write_snapshot_file;
    use crate::FsyncPolicy;
    use birds_store::{tuple, Delta};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "birds-wal-rec-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(seqs: &[u64]) -> WalRecord {
        let mut d = Delta::new();
        d.push_insert(tuple![seqs[0] as i64]);
        WalRecord::Commit {
            seqs: seqs.to_vec(),
            deltas: vec![("v".to_owned(), d)],
        }
    }

    #[test]
    fn empty_directory_recovers_to_empty_state() {
        let dir = temp_dir("empty");
        let rec = recover(&dir).unwrap();
        assert!(rec.snapshot.is_none());
        assert_eq!(rec.watermark, 0);
        assert!(rec.records.is_empty());
        assert_eq!(rec.max_seq, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn records_merge_across_shards_in_global_seq_order() {
        let dir = temp_dir("merge");
        let mut w0 = SegmentWriter::open(&dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
        let mut w1 = SegmentWriter::open(&dir, 1, DEFAULT_SEGMENT_BYTES).unwrap();
        // Interleaved commit seqs across two shards, epochs of varying size.
        w0.append(&record(&[1]), FsyncPolicy::Off).unwrap();
        w1.append(&record(&[2, 3]), FsyncPolicy::Off).unwrap();
        w0.append(&record(&[4]), FsyncPolicy::Off).unwrap();
        w1.append(&record(&[5]), FsyncPolicy::Off).unwrap();
        w0.sync().unwrap();
        w1.sync().unwrap();
        let rec = recover(&dir).unwrap();
        let firsts: Vec<u64> = rec.records.iter().map(WalRecord::first_seq).collect();
        assert_eq!(firsts, vec![1, 2, 4, 5]);
        assert_eq!(rec.max_seq, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watermark_filters_checkpointed_records() {
        let dir = temp_dir("watermark");
        let mut w = SegmentWriter::open(&dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
        for seq in 1..=4 {
            w.append(&record(&[seq]), FsyncPolicy::Off).unwrap();
        }
        w.sync().unwrap();
        // A checkpoint at seq 2 that crashed before truncation.
        write_snapshot_file(&dir, 2, |wr| wr.write_all(b"body")).unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.watermark, 2);
        assert_eq!(rec.snapshot.as_deref(), Some(&b"body"[..]));
        let firsts: Vec<u64> = rec.records.iter().map(WalRecord::first_seq).collect();
        assert_eq!(firsts, vec![3, 4], "covered records dropped");
        assert_eq!(rec.max_seq, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_so_reopen_appends_cleanly() {
        let dir = temp_dir("tail");
        let mut w = SegmentWriter::open(&dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
        w.append(&record(&[1]), FsyncPolicy::Epoch).unwrap();
        w.append(&record(&[2]), FsyncPolicy::Epoch).unwrap();
        w.sync().unwrap();
        drop(w);
        let path = scan_segments(&dir).unwrap()[0].path.clone();
        let full = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 3).unwrap(); // tear the last record
        drop(f);

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.truncated_tails, 1);
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.max_seq, 1);

        // Appending after recovery must yield a clean log.
        let mut w = SegmentWriter::open(&dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
        w.append(&record(&[2]), FsyncPolicy::Epoch).unwrap();
        w.sync().unwrap();
        drop(w);
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.truncated_tails, 0);
        let firsts: Vec<u64> = rec.records.iter().map(WalRecord::first_seq).collect();
        assert_eq!(firsts, vec![1, 2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_record_before_later_segments_is_refused() {
        let dir = temp_dir("midtorn");
        let mut w = SegmentWriter::open(&dir, 0, 64).unwrap(); // force rotation
        for seq in 1..=6 {
            w.append(&record(&[seq]), FsyncPolicy::Off).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let segments = scan_segments(&dir).unwrap();
        assert!(segments.len() >= 2);
        // Corrupt the FIRST segment's tail byte: not a legal crash shape.
        let path = &segments[0].path;
        let mut bytes = std::fs::read(path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(path, &bytes).unwrap();
        assert!(matches!(recover(&dir), Err(WalError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_order_seqs_within_a_shard_are_refused() {
        let dir = temp_dir("order");
        let mut w = SegmentWriter::open(&dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
        w.append(&record(&[5]), FsyncPolicy::Off).unwrap();
        w.append(&record(&[3]), FsyncPolicy::Off).unwrap();
        w.sync().unwrap();
        drop(w);
        assert!(matches!(recover(&dir), Err(WalError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
