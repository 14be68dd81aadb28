//! Per-shard WAL segment files: append, rotate, scan, read.
//!
//! Each shard owns a series of numbered segment files under
//! `<data-dir>/wal/`, named `shard-SSSS.NNNNNN.wal`. Appends go to the
//! highest-numbered segment; when it crosses the configured size the
//! writer rotates to the next number. Every segment starts with a
//! versioned `"BWAL"` header; records are CRC-framed
//! (`birds_store::codec::write_record`), so a torn tail is detectable
//! and truncatable.

use crate::error::{WalError, WalResult};
use crate::record::WalRecord;
use crate::FsyncPolicy;
use birds_store::codec::{read_record, write_record, RecordRead, StreamHeader, MAX_RECORD_BYTES};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Magic tag of a WAL segment stream.
pub const WAL_MAGIC: [u8; 4] = *b"BWAL";

/// Default segment rotation threshold: 8 MiB.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 << 20;

/// The `wal/` directory under a data directory.
pub fn wal_dir(data_dir: &Path) -> PathBuf {
    data_dir.join("wal")
}

/// Segment file name for `(shard, seg)`.
fn segment_name(shard: usize, seg: u64) -> String {
    format!("shard-{shard:04}.{seg:06}.wal")
}

/// Parse a segment file name back into `(shard, seg)`.
fn parse_segment_name(name: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix("shard-")?.strip_suffix(".wal")?;
    let (shard, seg) = rest.split_once('.')?;
    Some((shard.parse().ok()?, seg.parse().ok()?))
}

/// One segment file found on disk.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SegmentInfo {
    /// Owning shard index.
    pub shard: usize,
    /// Segment number within the shard.
    pub seg: u64,
    /// Full path.
    pub path: PathBuf,
}

/// All segment files under `data_dir`, sorted by `(shard, seg)`.
pub fn scan_segments(data_dir: &Path) -> WalResult<Vec<SegmentInfo>> {
    let dir = wal_dir(data_dir);
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(&dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(WalError::Io(e)),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        if let Some((shard, seg)) = name.to_str().and_then(parse_segment_name) {
            out.push(SegmentInfo {
                shard,
                seg,
                path: entry.path(),
            });
        }
    }
    out.sort();
    Ok(out)
}

/// What one segment file held.
#[derive(Debug)]
pub struct SegmentContents {
    /// Records with valid CRC, in file order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (header + intact records).
    pub valid_len: u64,
    /// `true` when bytes past `valid_len` existed — a torn tail.
    pub torn: bool,
}

/// Read one segment: every intact record plus the length of the valid
/// prefix. A missing or truncated *header* counts as a fully torn file
/// (`valid_len == 0`): the crash happened before the segment was
/// usable. A wrong magic or format version is an error — that is not a
/// torn tail but a foreign file.
pub fn read_segment(path: &Path) -> WalResult<SegmentContents> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut reader = BufReader::new(file);
    if file_len < StreamHeader::LEN {
        return Ok(SegmentContents {
            records: Vec::new(),
            valid_len: 0,
            torn: file_len > 0,
        });
    }
    StreamHeader::read(&mut reader, WAL_MAGIC)?;
    let mut records = Vec::new();
    let mut valid_len = StreamHeader::LEN;
    loop {
        match read_record(&mut reader)? {
            RecordRead::Payload(payload) => {
                records.push(WalRecord::decode(&payload)?);
                valid_len += 8 + payload.len() as u64;
            }
            RecordRead::Eof => {
                return Ok(SegmentContents {
                    records,
                    valid_len,
                    torn: false,
                });
            }
            RecordRead::Torn => {
                return Ok(SegmentContents {
                    records,
                    valid_len,
                    torn: true,
                });
            }
        }
    }
}

/// Best-effort directory sync: makes freshly created/renamed/removed
/// entries durable on filesystems that need it. Failures are ignored —
/// some platforms cannot sync directories, and the data-file syncs
/// still bound the loss to the fsync policy's contract.
pub fn sync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

/// Appender for one shard's segment series.
pub struct SegmentWriter {
    dir: PathBuf,
    shard: usize,
    seg: u64,
    file: File,
    /// Bytes written to the current segment so far.
    bytes: u64,
    segment_bytes: u64,
    /// Set once a write or sync has *failed*: the segment tail may hold
    /// partial garbage, so appending anything further would bury intact-
    /// looking records behind a torn region — records recovery would
    /// then silently discard (or refuse as corrupt). A sealed writer
    /// rejects every append until [`SegmentWriter::reset`] gives it a
    /// brand-new segment series.
    sealed: bool,
    /// Where this writer counts its `fdatasync` calls (see
    /// [`SegmentWriter::syncs`]); shared with other writers after
    /// [`SegmentWriter::count_syncs_in`].
    syncs: Arc<AtomicU64>,
}

impl SegmentWriter {
    /// Open the writer for `shard`, continuing at the end of its
    /// highest-numbered existing segment (whose tail the caller — the
    /// recovery path — must already have truncated to its valid
    /// prefix), or starting segment 0. Creates the `wal/` directory as
    /// needed.
    pub fn open(data_dir: &Path, shard: usize, segment_bytes: u64) -> WalResult<SegmentWriter> {
        let dir = wal_dir(data_dir);
        std::fs::create_dir_all(&dir)?;
        let seg = scan_segments(data_dir)?
            .into_iter()
            .filter(|info| info.shard == shard)
            .map(|info| info.seg)
            .max();
        let (seg, path) = match seg {
            Some(seg) => (seg, dir.join(segment_name(shard, seg))),
            None => (0, dir.join(segment_name(shard, 0))),
        };
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        let mut bytes = file.seek(SeekFrom::End(0))?;
        if bytes < StreamHeader::LEN {
            // Fresh (or header-torn-and-truncated) segment: start clean.
            file.set_len(0)?;
            StreamHeader { magic: WAL_MAGIC }.write(&mut file)?;
            file.sync_all()?;
            sync_dir(&dir);
            bytes = StreamHeader::LEN;
        }
        Ok(SegmentWriter {
            dir,
            shard,
            seg,
            file,
            bytes,
            segment_bytes,
            sealed: false,
            syncs: Arc::default(),
        })
    }

    /// Append one record, rotating to a fresh segment first when the
    /// current one has crossed the size threshold. An append never
    /// syncs: durability is the caller's one [`SegmentWriter::sync`] per
    /// epoch, whatever the policy. The `_fsync` argument no longer
    /// changes anything; it stays so existing callers keep compiling.
    ///
    /// A failed write or sync **seals** the writer: the tail may be torn
    /// mid-file, and appending past it would put acknowledged records
    /// where recovery cannot reach them. Every subsequent append fails
    /// fast until a checkpoint [`SegmentWriter::reset`]s the series.
    /// (An oversized record is rejected *before* any byte is written
    /// and does not seal — nothing reached the file.)
    pub fn append(&mut self, record: &WalRecord, _fsync: FsyncPolicy) -> WalResult<()> {
        if self.sealed {
            return Err(WalError::Corrupt(format!(
                "shard {} wal writer is sealed after an earlier append/sync \
                 failure; a checkpoint must reset the segment series",
                self.shard
            )));
        }
        let payload = record.encode();
        if payload.len() as u64 > u64::from(MAX_RECORD_BYTES) {
            return Err(WalError::Corrupt(format!(
                "record of {} bytes exceeds the {MAX_RECORD_BYTES}-byte framing cap",
                payload.len()
            )));
        }
        let result = (|| -> WalResult<()> {
            if self.bytes >= self.segment_bytes && self.bytes > StreamHeader::LEN {
                self.rotate()?;
            }
            write_record(&mut self.file, &payload)?;
            self.bytes += 8 + payload.len() as u64;
            Ok(())
        })();
        if result.is_err() {
            self.sealed = true;
        }
        result
    }

    /// Flush the current segment to stable storage (`fdatasync`). A
    /// failure seals the writer (see [`SegmentWriter::append`]).
    pub fn sync(&mut self) -> WalResult<()> {
        if self.sealed {
            return Err(WalError::Corrupt(format!(
                "shard {} wal writer is sealed after an earlier append/sync failure",
                self.shard
            )));
        }
        if let Err(e) = self.sync_data() {
            self.sealed = true;
            return Err(WalError::Io(e));
        }
        Ok(())
    }

    /// One counted `fdatasync` of the current segment.
    fn sync_data(&mut self) -> std::io::Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.file.sync_data()
    }

    /// Close the current segment (syncing it) and start the next one.
    fn rotate(&mut self) -> WalResult<()> {
        self.sync_data()?;
        self.seg += 1;
        let path = self.dir.join(segment_name(self.shard, self.seg));
        let mut file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)?;
        StreamHeader { magic: WAL_MAGIC }.write(&mut file)?;
        file.sync_all()?;
        sync_dir(&self.dir);
        self.file = file;
        self.bytes = StreamHeader::LEN;
        Ok(())
    }

    /// Close the current segment and start a fresh one, returning the
    /// paths of every now-closed segment of this shard — the lock-side
    /// half of a lock-free checkpoint: the caller pairs the rotation
    /// with the shard's published snapshot (under the shard lock), then
    /// deletes the returned files only after the new snapshot file has
    /// durably renamed in. Appends racing the checkpoint land in the
    /// fresh segment, which the checkpoint never deletes.
    ///
    /// A current segment with no records is not rotated (no churn), but
    /// older closed segments are still returned. Fails on a sealed
    /// writer — a sealed series may end in a torn record, and rotating
    /// would bury that tear behind a newer segment, turning a legal
    /// crash shape into reported corruption; the checkpoint path
    /// handles sealed writers with [`SegmentWriter::reset`] instead.
    pub fn rotate_for_checkpoint(&mut self) -> WalResult<Vec<PathBuf>> {
        if self.sealed {
            return Err(WalError::Corrupt(format!(
                "shard {} wal writer is sealed; reset the series instead of rotating",
                self.shard
            )));
        }
        if self.bytes > StreamHeader::LEN {
            if let Err(e) = self.rotate() {
                // The tail state is unknown (the pre-rotation sync may
                // have failed): seal, exactly like a failed append.
                self.sealed = true;
                return Err(e);
            }
        }
        let data_dir = self
            .dir
            .parent()
            .map(Path::to_path_buf)
            .unwrap_or_else(|| self.dir.clone());
        Ok(scan_segments(&data_dir)?
            .into_iter()
            .filter(|info| info.shard == self.shard && info.seg < self.seg)
            .map(|info| info.path)
            .collect())
    }

    /// Delete every segment of this shard and start a fresh series —
    /// the truncation half of a snapshot-then-truncate checkpoint on a
    /// **sealed** shard (no appender can race: a sealed writer rejects
    /// every append until this call). Healthy shards rotate instead
    /// ([`SegmentWriter::rotate_for_checkpoint`]), keeping their fresh
    /// tail. Unseals a writer sealed by an earlier failure: the damaged
    /// series is gone and the new segment starts clean.
    pub fn reset(&mut self) -> WalResult<()> {
        let data_dir = self
            .dir
            .parent()
            .map(Path::to_path_buf)
            .unwrap_or_else(|| self.dir.clone());
        for info in scan_segments(&data_dir)? {
            if info.shard == self.shard {
                std::fs::remove_file(&info.path)?;
            }
        }
        let path = self.dir.join(segment_name(self.shard, 0));
        let mut file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)?;
        StreamHeader { magic: WAL_MAGIC }.write(&mut file)?;
        file.sync_all()?;
        sync_dir(&self.dir);
        self.file = file;
        self.seg = 0;
        self.bytes = StreamHeader::LEN;
        self.sealed = false;
        Ok(())
    }

    /// Current segment number (diagnostics and rotation tests).
    pub fn current_segment(&self) -> u64 {
        self.seg
    }

    /// `fdatasync` calls counted where this writer counts them — one
    /// per epoch [`SegmentWriter::sync`] plus one per rotation, failed
    /// ones included. Syncs are what a commit pays the disk for, so
    /// this is the count that shows how many commits share one.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Count this writer's syncs in `counter` from now on — one counter
    /// shared by several writers sums their syncs, readable without
    /// taking any writer's lock.
    pub fn count_syncs_in(mut self, counter: Arc<AtomicU64>) -> SegmentWriter {
        self.syncs = counter;
        self
    }

    /// Has a write/sync failure sealed this writer? (Diagnostics; the
    /// service surfaces the sealed state as commit errors.)
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use birds_store::{tuple, Delta};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "birds-wal-seg-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(seq: u64) -> WalRecord {
        let mut d = Delta::new();
        d.push_insert(tuple![seq as i64]);
        WalRecord::Commit {
            seqs: vec![seq],
            deltas: vec![("v".to_owned(), d)],
        }
    }

    #[test]
    fn append_reopen_append_reads_back_in_order() {
        let dir = temp_dir("reopen");
        {
            let mut w = SegmentWriter::open(&dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
            w.append(&record(1), FsyncPolicy::Epoch).unwrap();
            w.sync().unwrap();
            w.append(&record(2), FsyncPolicy::Off).unwrap();
            w.sync().unwrap();
        }
        {
            let mut w = SegmentWriter::open(&dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
            w.append(&record(3), FsyncPolicy::Epoch).unwrap();
            w.sync().unwrap();
        }
        let segments = scan_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1);
        let contents = read_segment(&segments[0].path).unwrap();
        assert!(!contents.torn);
        let seqs: Vec<u64> = contents.records.iter().map(WalRecord::first_seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_splits_the_series_and_scan_orders_it() {
        let dir = temp_dir("rotate");
        let mut w = SegmentWriter::open(&dir, 2, 64).unwrap(); // tiny threshold
        for seq in 1..=6 {
            w.append(&record(seq), FsyncPolicy::Off).unwrap();
        }
        w.sync().unwrap();
        assert!(w.current_segment() >= 1, "rotation happened");
        let segments = scan_segments(&dir).unwrap();
        assert!(segments.len() >= 2);
        assert!(segments.windows(2).all(|p| p[0].seg < p[1].seg));
        let mut seqs = Vec::new();
        for info in &segments {
            assert_eq!(info.shard, 2);
            let contents = read_segment(&info.path).unwrap();
            assert!(!contents.torn);
            seqs.extend(contents.records.iter().map(WalRecord::first_seq));
        }
        assert_eq!(seqs, vec![1, 2, 3, 4, 5, 6]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_valid_prefix_preserved() {
        let dir = temp_dir("torn");
        let mut w = SegmentWriter::open(&dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
        w.append(&record(1), FsyncPolicy::Epoch).unwrap();
        w.append(&record(2), FsyncPolicy::Epoch).unwrap();
        w.sync().unwrap();
        drop(w);
        let path = scan_segments(&dir).unwrap()[0].path.clone();
        let original = std::fs::read(&path).unwrap();
        let full = original.len() as u64;
        let intact = read_segment(&path).unwrap();
        assert_eq!(intact.valid_len, full);

        // Locate the end of the first record so cuts land inside the
        // second one.
        let first_record_end = {
            let mut r = &original[StreamHeader::LEN as usize..];
            let before = r.len();
            let RecordRead::Payload(p) = read_record(&mut r).unwrap() else {
                panic!("first record intact");
            };
            assert_eq!(before - r.len(), 8 + p.len());
            StreamHeader::LEN + (before - r.len()) as u64
        };
        // Tear the tail at every byte boundary inside the last record:
        // recovery must always keep exactly the first record.
        for cut in first_record_end + 1..full {
            std::fs::write(&path, &original[..cut as usize]).unwrap();
            let contents = read_segment(&path).unwrap();
            assert!(contents.torn, "cut at {cut}");
            assert_eq!(contents.records.len(), 1, "cut at {cut}");
            assert_eq!(contents.valid_len, first_record_end, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_torn_file_reads_as_empty() {
        let dir = temp_dir("header");
        std::fs::create_dir_all(wal_dir(&dir)).unwrap();
        let path = wal_dir(&dir).join(segment_name(0, 0));
        std::fs::write(&path, b"BW").unwrap(); // crash mid-header
        let contents = read_segment(&path).unwrap();
        assert!(contents.torn);
        assert_eq!(contents.valid_len, 0);
        assert!(contents.records.is_empty());
        // The writer re-initializes it.
        let mut w = SegmentWriter::open(&dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
        w.append(&record(9), FsyncPolicy::Epoch).unwrap();
        w.sync().unwrap();
        drop(w);
        let contents = read_segment(&path).unwrap();
        assert!(!contents.torn);
        assert_eq!(contents.records.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_rotation_closes_the_series_and_keeps_appending() {
        let dir = temp_dir("ckpt-rotate");
        let mut w = SegmentWriter::open(&dir, 1, DEFAULT_SEGMENT_BYTES).unwrap();
        w.append(&record(1), FsyncPolicy::Epoch).unwrap();
        w.append(&record(2), FsyncPolicy::Epoch).unwrap();
        w.sync().unwrap();
        let closed = w.rotate_for_checkpoint().unwrap();
        assert_eq!(closed.len(), 1, "one closed segment");
        assert_eq!(w.current_segment(), 1);
        // The closed segment holds the pre-rotation records, intact.
        let contents = read_segment(&closed[0]).unwrap();
        assert!(!contents.torn);
        assert_eq!(contents.records.len(), 2);
        // Appends continue in the fresh segment; deleting the closed
        // one (the checkpoint's phase 3) leaves a clean series.
        w.append(&record(3), FsyncPolicy::Epoch).unwrap();
        w.sync().unwrap();
        std::fs::remove_file(&closed[0]).unwrap();
        let segments = scan_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1);
        let contents = read_segment(&segments[0].path).unwrap();
        assert_eq!(contents.records.len(), 1);
        assert_eq!(contents.records[0].first_seq(), 3);
        // Record 3 makes the tail non-empty, so the next checkpoint
        // rotation closes it too.
        let closed = w.rotate_for_checkpoint().unwrap();
        assert_eq!(w.current_segment(), 2);
        assert_eq!(closed.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_rotation_skips_empty_tail_but_returns_older_segments() {
        let dir = temp_dir("ckpt-empty");
        let mut w = SegmentWriter::open(&dir, 0, 64).unwrap(); // tiny threshold
        for seq in 1..=6 {
            w.append(&record(seq), FsyncPolicy::Off).unwrap();
        }
        let first = w.rotate_for_checkpoint().unwrap();
        assert!(!first.is_empty());
        let seg_after_first = w.current_segment();
        // Until phase 3 deletes them, closed segments are handed back
        // again — a checkpoint that crashed mid-delete retries cleanly.
        let retry = w.rotate_for_checkpoint().unwrap();
        assert_eq!(retry, first);
        // After deletion, a rotation with an empty tail is a no-op: no
        // new segment, nothing older to hand back.
        for path in &first {
            std::fs::remove_file(path).unwrap();
        }
        let second = w.rotate_for_checkpoint().unwrap();
        assert_eq!(w.current_segment(), seg_after_first);
        assert!(second.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sealed_writer_refuses_checkpoint_rotation() {
        let dir = temp_dir("ckpt-sealed");
        let mut w = SegmentWriter::open(&dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
        w.append(&record(1), FsyncPolicy::Epoch).unwrap();
        w.sync().unwrap();
        w.sealed = true;
        assert!(matches!(
            w.rotate_for_checkpoint(),
            Err(WalError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_clears_the_series() {
        let dir = temp_dir("reset");
        let mut w = SegmentWriter::open(&dir, 0, 64).unwrap();
        for seq in 1..=6 {
            w.append(&record(seq), FsyncPolicy::Off).unwrap();
        }
        assert!(scan_segments(&dir).unwrap().len() >= 2);
        w.reset().unwrap();
        let segments = scan_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].seg, 0);
        assert!(read_segment(&segments[0].path).unwrap().records.is_empty());
        // Still appendable after reset.
        w.append(&record(7), FsyncPolicy::Epoch).unwrap();
        w.sync().unwrap();
        drop(w);
        let contents = read_segment(&segments[0].path).unwrap();
        assert_eq!(contents.records.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sealed_writer_rejects_appends_until_reset() {
        let dir = temp_dir("sealed");
        let mut w = SegmentWriter::open(&dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
        w.append(&record(1), FsyncPolicy::Epoch).unwrap();
        w.sync().unwrap();
        assert!(!w.is_sealed());
        // Simulate the aftermath of a failed write: the tail may be
        // torn, so the writer must refuse to bury further records
        // behind it.
        w.sealed = true;
        assert!(matches!(
            w.append(&record(2), FsyncPolicy::Off),
            Err(WalError::Corrupt(_))
        ));
        assert!(matches!(w.sync(), Err(WalError::Corrupt(_))));
        // A checkpoint reset rebuilds the series and unseals.
        w.reset().unwrap();
        assert!(!w.is_sealed());
        w.append(&record(3), FsyncPolicy::Epoch).unwrap();
        w.sync().unwrap();
        let segments = scan_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1);
        let contents = read_segment(&segments[0].path).unwrap();
        assert_eq!(contents.records.len(), 1);
        assert_eq!(contents.records[0].first_seq(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn syncs_count_each_fdatasync_and_no_append() {
        let dir = temp_dir("syncs");
        let mut w = SegmentWriter::open(&dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
        assert_eq!(w.syncs(), 0, "opening a series is not an epoch sync");
        for seq in 1..=3 {
            w.append(&record(seq), FsyncPolicy::Epoch).unwrap();
        }
        assert_eq!(w.syncs(), 0, "appends never sync");
        w.sync().unwrap();
        assert_eq!(w.syncs(), 1, "one epoch, one sync");
        w.append(&record(4), FsyncPolicy::Epoch).unwrap();
        w.rotate_for_checkpoint().unwrap();
        assert_eq!(w.syncs(), 2, "closing a segment syncs it");

        // Writers sharing a counter sum their syncs into it.
        let shared = Arc::new(AtomicU64::new(0));
        let mut a = w.count_syncs_in(Arc::clone(&shared));
        let mut b = SegmentWriter::open(&dir, 1, DEFAULT_SEGMENT_BYTES)
            .unwrap()
            .count_syncs_in(Arc::clone(&shared));
        a.sync().unwrap();
        b.sync().unwrap();
        b.sync().unwrap();
        assert_eq!((a.syncs(), shared.load(Ordering::Relaxed)), (3, 3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(parse_segment_name("shard-0003.000042.wal"), Some((3, 42)));
        assert_eq!(
            parse_segment_name(&segment_name(17, 123456)),
            Some((17, 123456))
        );
        assert_eq!(parse_segment_name("snapshot.bin"), None);
        assert_eq!(parse_segment_name("shard-x.1.wal"), None);
    }
}
