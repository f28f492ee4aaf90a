//! Checkpoint and restore: the runtime's dynamic state as one versioned
//! snapshot, written to disk, streamed to a standby, and read back. See
//! [`crate::recovery`] for the recovery model.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

use serena_core::snapshot::{self, Reader, SnapshotError, Writer};
use serena_core::time::Instant;

use super::{Pems, PemsError};
use crate::processor::trace_failure;
use crate::recovery::{read_checkpoint, RecoveryManager};

impl Pems {
    /// Serialize the runtime's full dynamic state into one versioned
    /// snapshot: table contents, per-query executor state and statistics,
    /// the logical clock, circuit breakers and service-health windows.
    /// Static setup (DDL, service registrations, query registrations) is
    /// *not* captured — see [`crate::recovery`] for the recovery model.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let hint = self.snapshot_size_hint.load(Ordering::Relaxed);
        let mut w = Writer::with_capacity(hint + hint / 4 + 256);
        snapshot::write_header(&mut w);
        self.tables.export_tables(&mut w);
        self.processor.write_snapshot(&mut w);
        self.beta.resilience.export_state(&mut w);
        self.beta.health.export_state(&mut w);
        self.snapshot_size_hint.store(w.len(), Ordering::Relaxed);
        w.into_bytes()
    }

    /// Restore dynamic state from [`Self::snapshot_bytes`] output. The
    /// static setup must already have been re-run on this instance (same
    /// tables, same queries, same plans); a disagreement surfaces as
    /// [`SnapshotError::Mismatch`]. All or nothing: a snapshot that fails
    /// part-way — a mismatch, a corrupt section, a trailing byte — leaves
    /// the runtime as it was, by re-applying a snapshot cut before. Should
    /// that re-apply fail too, the error names both failures.
    pub fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), PemsError> {
        let before = self.snapshot_bytes();
        if let Err(e) = self.apply_snapshot(bytes) {
            return Err(match self.apply_snapshot(&before) {
                Ok(()) => e.into(),
                Err(undo) => SnapshotError::Mismatch(format!("{e}; undo failed: {undo}")).into(),
            });
        }
        // the tables hold what the checkpointed runtime's did, not what
        // this runtime's discovery queries wrote into them
        for (_, query) in &mut self.discoveries {
            query.forget();
        }
        Ok(())
    }

    /// Read `bytes` into the runtime's dynamic state, section by section:
    /// an error leaves the sections read so far applied.
    fn apply_snapshot(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = Reader::new(bytes);
        snapshot::read_header(&mut r)?;
        self.tables.import_tables(&mut r)?;
        self.processor.read_snapshot(&mut r)?;
        self.beta.resilience.import_state(&mut r)?;
        self.beta.health.import_state(&mut r)?;
        if !r.is_at_end() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after snapshot",
                r.remaining()
            )));
        }
        Ok(())
    }

    /// Restore from the checkpoint in `dir` (a checkpoint directory, or a
    /// direct path to a snapshot file). Call after re-running the static
    /// setup; the next [`Self::tick`] then evaluates exactly the instant
    /// the checkpointed runtime would have evaluated next.
    pub fn restore_from(&mut self, dir: impl AsRef<Path>) -> Result<(), PemsError> {
        let bytes = read_checkpoint(dir)?;
        self.restore_bytes(&bytes)
    }

    /// Write a one-off checkpoint of the current state into `dir`,
    /// independent of any configured cadence — the shell's `.checkpoint`
    /// command.
    pub fn checkpoint_to(&self, dir: impl AsRef<Path>) -> Result<PathBuf, PemsError> {
        let rm = RecoveryManager::new(dir.as_ref(), 1);
        self.write_checkpoint(&rm, &self.snapshot_bytes())
    }

    /// Write already-cut snapshot bytes through `rm`, counted in
    /// `serena_checkpoint_total`.
    fn write_checkpoint(&self, rm: &RecoveryManager, bytes: &[u8]) -> Result<PathBuf, PemsError> {
        let path = rm.write(bytes)?;
        self.beta
            .telemetry
            .counter("serena_checkpoint_total", &[])
            .inc();
        Ok(path)
    }

    /// The last phase of the tick at `now`, where the snapshot cut is
    /// consistent: cut one snapshot and fan it out — to disk if the cadence
    /// says a checkpoint is due, and to the standby peer if one is linked.
    /// Neither failure may take the runtime down: both are counted and
    /// traced.
    pub(super) fn checkpoint_and_replicate(&mut self, now: Instant) {
        let due = self
            .recovery
            .as_mut()
            .is_some_and(RecoveryManager::tick_completed);
        if !due && self.standby.is_none() {
            return;
        }
        let bytes = self.snapshot_bytes();
        let telemetry = &self.beta.telemetry;
        if let Some(rm) = self.recovery.as_ref().filter(|_| due) {
            if let Err(e) = self.write_checkpoint(rm, &bytes) {
                telemetry
                    .counter("serena_checkpoint_errors_total", &[])
                    .inc();
                trace_failure(&self.beta.tracer, "checkpoint", self.processor.clock(), &e);
            }
        }
        if let Some(standby) = &self.standby {
            match standby.send_checkpoint(now.0, &bytes) {
                Ok(()) => telemetry.counter("serena_replication_total", &[]).inc(),
                Err(e) => {
                    telemetry
                        .counter("serena_replication_errors_total", &[])
                        .inc();
                    trace_failure(&self.beta.tracer, "replication", self.processor.clock(), &e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pems::tests::{pems_with_messenger, SETUP};
    use serena_services::bus::BusConfig;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("serena-pems-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn periodic_checkpoints_follow_the_cadence() {
        let dir = temp_dir("cadence");
        let mut pems = Pems::builder()
            .bus(BusConfig::instant())
            .checkpoint(&dir, 2)
            .build();
        let (svc, _outbox) = serena_services::devices::messenger::SimMessenger::new(
            serena_services::devices::messenger::MessengerKind::Email,
        )
        .into_service();
        pems.directory().register("email", svc);
        pems.run_program(SETUP).unwrap();
        pems.run_program("REGISTER QUERY watch AS contacts;")
            .unwrap();
        pems.run_ticks(5);
        assert_eq!(
            pems.metrics_registry()
                .counter_value("serena_checkpoint_total", &[]),
            Some(2) // after ticks 2 and 4
        );
        assert!(dir.join("serena.ckpt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_resumes_exactly_where_the_checkpoint_cut() {
        let dir = temp_dir("restore");
        let setup = || {
            let mut pems = pems_with_messenger();
            pems.run_program(SETUP).unwrap();
            pems.run_program("REGISTER QUERY watch AS SELECT[messenger = 'email'](contacts);")
                .unwrap();
            pems
        };

        let mut original = setup();
        original.run_ticks(2);
        original
            .run_program("DELETE FROM contacts VALUES ('Carla', 'carla@elysee.fr', 'email');")
            .unwrap();
        original.checkpoint_to(&dir).unwrap(); // pending delete captured

        // crash: re-run the static setup on a fresh process, rehydrate
        let mut recovered = setup();
        recovered.restore_from(&dir).unwrap();
        assert_eq!(recovered.clock(), original.clock());
        assert_eq!(
            recovered.processor().stats("watch"),
            original.processor().stats("watch")
        );

        // both runtimes tick forward in lock-step: the pending delete
        // commits identically
        let a = original.tick();
        let b = recovered.tick();
        assert_eq!(a[0].1.delta, b[0].1.delta);
        assert_eq!(a[0].1.delta.deletes.len(), 1);
        assert_eq!(
            recovered.processor().current_relation("watch").unwrap(),
            original.processor().current_relation("watch").unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A restore that fails part-way applies nothing: one trailing byte
    /// is found after every section was read, and a query named otherwise
    /// after the tables were — either way the runtime keeps the state it
    /// had, byte for byte, and a good snapshot still restores.
    #[test]
    fn a_failed_restore_changes_nothing() {
        let setup = |query: &str| {
            let mut pems = pems_with_messenger();
            pems.run_program(SETUP).unwrap();
            let register =
                format!("REGISTER QUERY {query} AS SELECT[messenger = 'email'](contacts);");
            pems.run_program(&register).unwrap();
            pems
        };
        let cut = |query: &str| {
            let mut pems = setup(query);
            pems.run_ticks(3);
            pems.run_program("DELETE FROM contacts VALUES ('Carla', 'carla@elysee.fr', 'email');")
                .unwrap();
            pems.snapshot_bytes()
        };
        let good = cut("watch");
        let mut trailing = good.clone();
        trailing.push(0);
        let mut target = setup("watch");
        target.run_ticks(1);
        let before = target.snapshot_bytes();
        for (bytes, refused) in [
            (trailing, "trailing"),
            (cut("other"), "where `watch` is defined"),
        ] {
            let err = target.restore_bytes(&bytes).unwrap_err();
            assert!(err.to_string().contains(refused), "{err}");
            assert_eq!(target.snapshot_bytes(), before, "{err}");
            assert_eq!(target.clock(), Instant(1));
        }
        target.restore_bytes(&good).unwrap();
        assert_eq!(target.snapshot_bytes(), good);
    }

    #[test]
    fn checkpoint_errors_are_reported_not_fatal() {
        let mut pems = pems_with_messenger();
        // restoring garbage is a typed snapshot error
        assert!(matches!(
            pems.restore_bytes(b"not a snapshot"),
            Err(PemsError::Snapshot(_))
        ));
        // a checkpoint directory that cannot be created is counted and
        // traced, and the tick still succeeds
        let mut pems = Pems::builder()
            .bus(BusConfig::instant())
            .checkpoint("/proc/serena-cannot-write-here", 1)
            .build();
        pems.run_program("EXTENDED RELATION t ( x INTEGER );")
            .unwrap();
        pems.run_program("REGISTER QUERY q AS t;").unwrap();
        let reports = pems.tick();
        assert_eq!(reports.len(), 1);
        assert_eq!(
            pems.metrics_registry()
                .counter_value("serena_checkpoint_errors_total", &[]),
            Some(1)
        );
        // ...and its span carries the error beside the counter
        let spans = pems.flight_recorder().snapshot();
        let failures: Vec<_> = spans.iter().filter(|s| s.name == "pems.failure").collect();
        assert_eq!(failures.len(), 1, "{spans:?}");
        assert_eq!(failures[0].attr_str("scope"), Some("checkpoint"));
        let message = failures[0].attr_str("message").unwrap();
        assert!(message.starts_with("snapshot i/o error"), "{message}");
    }
}
