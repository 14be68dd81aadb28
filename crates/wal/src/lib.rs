//! # birds-wal
//!
//! The durability subsystem: a write-ahead log plus snapshots, designed
//! around the service layer's commit structure.
//!
//! The service's group-commit epochs are natural WAL batch boundaries
//! (the durability/epoch coupling of Obladi, arXiv:1809.10559): every
//! committed epoch is one [`WalRecord`] — the member transactions'
//! commit sequence numbers plus the *net* per-view deltas the epoch
//! applied — appended to the owning shard's segment file **before** the
//! shard lock is released and the members' results are filled. Because
//! appends happen under the shard's write lock, each shard's log is in
//! application order by construction; because commit seqs are assigned
//! under the same locks, sorting all shards' records by first member
//! seq reproduces the global commit order exactly ([`recover`]).
//!
//! On disk, a data directory looks like:
//!
//! ```text
//! <data-dir>/
//!   snapshot.bin            # latest checkpoint: watermark + relation contents
//!   wal/
//!     shard-0000.000000.wal # CRC-framed records, rotated by size
//!     shard-0000.000001.wal
//!     shard-0001.000000.wal
//! ```
//!
//! * **Torn tails** — every record is length-prefixed and CRC32-checked
//!   (`birds_store::codec`); a crash mid-append leaves a tail that
//!   recovery detects, truncates, and never replays.
//! * **Fsync policy** ([`FsyncPolicy`]) — `epoch` syncs once per commit
//!   epoch (one sync amortized over every transaction the epoch
//!   coalesced), `off` leaves flushing to the OS page cache (survives
//!   SIGKILL, not power loss). No commit is acknowledged before its
//!   epoch's sync, so a per-record sync would add syncs and no
//!   guarantee: there is none.
//! * **Rotation** — a segment that crosses the configured size is
//!   closed and a numbered successor opened, so checkpoint truncation
//!   and future segment GC work at file granularity.
//! * **Checkpoints** — [`write_snapshot_file`] writes the snapshot to a
//!   temp file and renames it into place (atomic on every platform the
//!   tests run on), then the caller truncates the segments; a crash
//!   between the two steps is benign because recovery skips records at
//!   or below the snapshot's watermark.

pub mod error;
pub mod record;
pub mod recovery;
pub mod segment;
pub mod snapshot_file;

pub use error::{WalError, WalResult};
pub use record::{decode_view_defs, encode_view_defs, Registration, ViewDef, WalRecord};
pub use recovery::{recover, Recovery};
pub use segment::{SegmentWriter, DEFAULT_SEGMENT_BYTES, WAL_MAGIC};
pub use snapshot_file::{read_snapshot_file, write_snapshot_file, SNAPSHOT_FILE};

use std::fmt;
use std::str::FromStr;

/// When WAL appends are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Sync once per commit epoch, after the epoch's records are
    /// appended and before any member transaction learns it committed —
    /// the group-commit amortization: one sync covers every transaction
    /// the epoch coalesced. The default.
    #[default]
    Epoch,
    /// Never sync explicitly. Appends still reach the kernel page cache
    /// before a commit is acknowledged, so a SIGKILL of the process
    /// loses nothing; an OS crash or power failure can lose the
    /// unflushed tail (which recovery then discards cleanly via CRC).
    Off,
}

impl FsyncPolicy {
    /// Should the end of an epoch sync?
    pub fn sync_each_epoch(self) -> bool {
        matches!(self, FsyncPolicy::Epoch)
    }
}

impl FromStr for FsyncPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "epoch" => Ok(FsyncPolicy::Epoch),
            "off" => Ok(FsyncPolicy::Off),
            // No commit is acknowledged before its epoch's sync, so a
            // sync per record bought no guarantee `epoch` lacks.
            "always" => Err("fsync policy 'always' was retired: use 'epoch', which \
                 syncs before any commit is acknowledged"
                .to_owned()),
            other => Err(format!(
                "unknown fsync policy '{other}' (expected epoch|off)"
            )),
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FsyncPolicy::Epoch => "epoch",
            FsyncPolicy::Off => "off",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_policy_parses_and_displays() {
        for (text, policy) in [("epoch", FsyncPolicy::Epoch), ("off", FsyncPolicy::Off)] {
            assert_eq!(text.parse::<FsyncPolicy>().unwrap(), policy);
            assert_eq!(policy.to_string(), text);
        }
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
        assert_eq!(FsyncPolicy::default(), FsyncPolicy::Epoch);
    }

    #[test]
    fn the_retired_always_policy_points_at_epoch() {
        let error = "always".parse::<FsyncPolicy>().unwrap_err();
        assert!(error.contains("'epoch'"), "{error}");
    }

    #[test]
    fn fsync_policy_sync_points() {
        assert!(FsyncPolicy::Epoch.sync_each_epoch());
        assert!(!FsyncPolicy::Off.sync_each_epoch());
    }
}
