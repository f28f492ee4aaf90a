//! Checkpoint & recovery for the PEMS runtime.
//!
//! A *checkpoint* is one versioned snapshot file capturing everything the
//! runtime cannot rebuild from its static setup: table contents (committed
//! state + pending mutations), per-query executor state (window rings,
//! multisets, β caches), aggregated query statistics, the logical clock,
//! circuit-breaker state and service-health windows. Telemetry registry
//! series are deliberately *not* captured — counters restart from the
//! restored aggregates' point of view.
//!
//! The recovery model is **re-run the static setup, rehydrate the dynamic
//! state**: a recovering process constructs a fresh [`crate::pems::Pems`],
//! replays its DDL program / service registrations / query registrations,
//! then calls [`crate::pems::Pems::restore_from`]. The snapshot is cut at
//! a tick boundary (after a tick completes, before the next begins), so a
//! restored runtime's next tick evaluates exactly the instant the original
//! would have — byte-identical output from there on, provided services are
//! deterministic functions of the instant. The re-run setup decides what
//! each section of named entries must hold.
//!
//! Checkpoint files are written atomically: the snapshot is staged to a
//! `.tmp` sibling and `rename(2)`d into place, so a crash mid-write leaves
//! the previous checkpoint intact.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use serena_core::snapshot::{Reader, SnapshotError};

/// File name of the current checkpoint inside the checkpoint directory.
const CHECKPOINT_FILE: &str = "serena.ckpt";

/// Staging suffix used for the atomic write-then-rename protocol.
const TMP_SUFFIX: &str = ".tmp";

/// Periodic checkpoint writer: owns the checkpoint directory, the cadence
/// (every `n` completed ticks), and the atomic write protocol.
#[derive(Debug)]
pub struct RecoveryManager {
    dir: PathBuf,
    every: u64,
    ticks_since_checkpoint: u64,
}

impl RecoveryManager {
    /// A manager writing a checkpoint into `dir` every `every_n_ticks`
    /// completed ticks. A cadence of 0 is treated as 1 (every tick).
    pub fn new(dir: impl Into<PathBuf>, every_n_ticks: u64) -> Self {
        RecoveryManager {
            dir: dir.into(),
            every: every_n_ticks.max(1),
            ticks_since_checkpoint: 0,
        }
    }

    /// Record one completed tick; true when the cadence says a checkpoint
    /// is due now. The internal counter resets on `true` — the caller is
    /// expected to write the checkpoint (a failed write skips at most one
    /// cadence interval, it does not wedge the schedule).
    pub fn tick_completed(&mut self) -> bool {
        self.ticks_since_checkpoint += 1;
        if self.ticks_since_checkpoint >= self.every {
            self.ticks_since_checkpoint = 0;
            true
        } else {
            false
        }
    }

    /// Atomically replace the checkpoint with `bytes`: create the
    /// directory if needed, stage to a `.tmp` sibling, fsync, rename.
    pub fn write(&self, bytes: &[u8]) -> Result<PathBuf, SnapshotError> {
        fs::create_dir_all(&self.dir)?;
        let target = self.dir.join(CHECKPOINT_FILE);
        let mut tmp = target.clone().into_os_string();
        tmp.push(TMP_SUFFIX);
        let tmp = PathBuf::from(tmp);
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &target)?;
        Ok(target)
    }
}

/// Read the checkpoint bytes from `dir` (a directory containing
/// the checkpoint file, or a direct path to a snapshot file).
pub fn read_checkpoint(dir: impl AsRef<Path>) -> Result<Vec<u8>, SnapshotError> {
    let p = dir.as_ref();
    let path = if p.is_dir() {
        p.join(CHECKPOINT_FILE)
    } else {
        p.to_path_buf()
    };
    Ok(fs::read(path)?)
}

/// Read a snapshot section's count of entries and check it against the
/// `defined` ones the re-run setup made: a [`SnapshotError::Mismatch`]
/// naming what the entries are if it differs.
pub(crate) fn read_count(
    r: &mut Reader<'_>,
    what: &str,
    defined: usize,
) -> Result<(), SnapshotError> {
    let n = r.usize()?;
    if n != defined {
        let held = format!("snapshot holds {n} {what}, {defined} defined");
        return Err(SnapshotError::Mismatch(held));
    }
    Ok(())
}

/// Read named snapshot entries into `entries`, the ones the re-run setup
/// defined, in order: per entry its name, then what `read` takes of it. A
/// name that differs is a [`SnapshotError::Mismatch`] naming what the entry
/// is.
pub(crate) fn read_named<'r, 'n, T>(
    r: &mut Reader<'r>,
    what: &str,
    entries: impl Iterator<Item = (&'n str, T)>,
    mut read: impl FnMut(T, &mut Reader<'r>) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    for (name, entry) in entries {
        let stored = r.str()?;
        if stored != name {
            let held = format!("snapshot holds {what} `{stored}` where `{name}` is defined");
            return Err(SnapshotError::Mismatch(held));
        }
        read(entry, r)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("serena-recovery-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cadence_counts_completed_ticks() {
        let mut rm = RecoveryManager::new("unused", 3);
        let due: Vec<bool> = (0..7).map(|_| rm.tick_completed()).collect();
        assert_eq!(due, [false, false, true, false, false, true, false]);
        // cadence 0 degrades to every tick
        let mut every = RecoveryManager::new("unused", 0);
        assert!(every.tick_completed());
        assert!(every.tick_completed());
    }

    #[test]
    fn write_is_atomic_and_readable() {
        let dir = temp_dir("atomic");
        let rm = RecoveryManager::new(&dir, 1);
        let path = rm.write(b"first").expect("write");
        assert_eq!(path, dir.join(CHECKPOINT_FILE));
        assert_eq!(read_checkpoint(&dir).expect("read"), b"first");
        // a second write replaces, never leaves the staging file behind
        rm.write(b"second").expect("rewrite");
        assert_eq!(read_checkpoint(&dir).expect("read"), b"second");
        assert_eq!(read_checkpoint(&path).expect("direct path"), b"second");
        assert!(!dir.join(format!("{CHECKPOINT_FILE}{TMP_SUFFIX}")).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_checkpoint_is_an_io_error() {
        let err = read_checkpoint(temp_dir("missing")).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)), "{err}");
    }
}
