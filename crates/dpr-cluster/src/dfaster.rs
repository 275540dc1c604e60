//! The D-FASTER shard: deep DPR integration with the FASTER-style store
//! (§5).
//!
//! `Commit()` maps to FASTER's CPR fold-over checkpoint (a lightweight
//! metadata-only operation over the already-flushing log) and `Restore()`
//! to the non-blocking THROW/PURGE rollback of §5.5. Per client session, the
//! worker keeps a corresponding FASTER session under the same globally
//! unique id (§5.2).

use crate::message::{ClusterOp, OpResult};
use crate::worker::ShardStore;
use dpr_core::{Result, SessionId, ShardId, StripedMap, Value, Version};
use dpr_faster::{AsBatchOp, BatchOp, FasterKv, OpOutcome, RmwFn, Session};
use libdpr::{CommitDescriptor, StateObject};
use std::sync::{Arc, LazyLock};
use std::time::Duration;

/// The update `ClusterOp::Incr` applies: a u64 counter, absent = 0.
static INCR: LazyLock<RmwFn> = LazyLock::new(|| {
    Arc::new(|old: Option<&Value>| Value::from_u64(old.and_then(Value::as_u64).unwrap_or(0) + 1))
});

impl AsBatchOp for ClusterOp {
    fn as_batch_op(&self) -> BatchOp<'_> {
        match self {
            ClusterOp::Read(k) => BatchOp::Read(k),
            ClusterOp::Upsert(k, v) => BatchOp::Upsert(k, v),
            ClusterOp::Incr(k) => BatchOp::Rmw(k, &INCR),
            ClusterOp::Delete(k) => BatchOp::Delete(k),
        }
    }
}

enum Slot {
    Idle(Session),
    /// Checked out by an executor thread; batches for the same session
    /// queue behind it, preserving the sequential session discipline.
    Busy,
}

/// A FASTER-backed shard.
pub struct FasterShard {
    shard: ShardId,
    kv: Arc<FasterKv>,
    /// Server-side FASTER sessions, one per client session id (§5.2).
    /// Striped by session id: checkout/checkin happens on every batch, so
    /// concurrent client sessions must not serialise on one map lock.
    sessions: StripedMap<SessionId, Slot>,
}

impl FasterShard {
    /// Wrap a store as shard `shard`.
    pub fn new(shard: ShardId, kv: Arc<FasterKv>) -> Self {
        FasterShard {
            shard,
            kv,
            sessions: StripedMap::with_default_stripes(),
        }
    }

    /// The underlying store (diagnostics/tests).
    #[must_use]
    pub fn kv(&self) -> &Arc<FasterKv> {
        &self.kv
    }

    fn checkout(&self, id: SessionId) -> Session {
        loop {
            {
                let mut sessions = self.sessions.lock_for(&id);
                match sessions.get_mut(&id) {
                    Some(slot @ Slot::Idle(_)) => {
                        let Slot::Idle(s) = std::mem::replace(slot, Slot::Busy) else {
                            unreachable!()
                        };
                        return s;
                    }
                    Some(Slot::Busy) => { /* fall through to retry */ }
                    None => {
                        // First contact from this client session: create the
                        // corresponding store session (§5.2). Mark busy under
                        // the lock so no duplicate can be created.
                        sessions.insert(id, Slot::Busy);
                        drop(sessions);
                        return self.kv.start_session(id);
                    }
                }
            }
            std::thread::yield_now();
        }
    }

    fn checkin(&self, id: SessionId, session: Session) {
        self.sessions.lock_for(&id).insert(id, Slot::Idle(session));
    }
}

impl ShardStore for FasterShard {
    fn execute_batch(
        &self,
        session_id: SessionId,
        ops: &[ClusterOp],
    ) -> Result<(Vec<OpResult>, Version)> {
        let mut results = Vec::with_capacity(ops.len());
        let version = self.execute_batch_into(session_id, ops, &mut results)?;
        Ok((results, version))
    }

    fn execute_batch_into(
        &self,
        session_id: SessionId,
        ops: &[ClusterOp],
        out: &mut Vec<OpResult>,
    ) -> Result<Version> {
        let base = out.len();
        let session = self.checkout(session_id);
        let run = (|| {
            // Placeholder results written in place; `OpResult::Value(None)`
            // doubles as the "unresolved" marker a PENDING op leaves until
            // completion fills it in. Reused buffers make this allocation-
            // free in steady state.
            out.resize(base + ops.len(), OpResult::Value(None));
            // A batch's serials are consecutive: op `i` gets `first + i`.
            let mut first_serial = 0;
            let mut pending = false;
            let mut version = session.execute_batch(ops, |i, outcome| {
                first_serial = outcome.serial() - i as u64;
                match outcome {
                    OpOutcome::Read { value, .. } => out[base + i] = OpResult::Value(value),
                    OpOutcome::Mutated { .. } => out[base + i] = OpResult::Done,
                    OpOutcome::Pending(_) => pending = true,
                }
            })?;
            if pending {
                // Remote execution resolves PENDINGs before replying (the
                // background-thread path of §5.2).
                for c in session.complete_pending()? {
                    let Some(idx) = c
                        .serial
                        .checked_sub(first_serial)
                        .map(|i| i as usize)
                        .filter(|&i| i < ops.len())
                    else {
                        continue;
                    };
                    version = version.max(c.version);
                    out[base + idx] = match &ops[idx] {
                        ClusterOp::Read(_) => OpResult::Value(c.value),
                        _ => OpResult::Done,
                    };
                }
            }
            Ok(version)
        })();
        self.checkin(session_id, session);
        if run.is_err() {
            out.truncate(base);
        }
        run
    }

    fn scan_live(&self) -> Result<Vec<(dpr_core::Key, Value)>> {
        self.kv.scan_live()
    }

    fn collect_garbage(&self, version: Version) -> Result<()> {
        if version > Version::ZERO && version <= self.kv.durable_version() {
            let _ = self.kv.collect_garbage(version)?;
        }
        Ok(())
    }

    fn inject_commit_stall(&self, duration: std::time::Duration) {
        self.kv.stall_checkpoints_for(duration);
    }

    fn clear_commit_stall(&self) {
        self.kv.clear_checkpoint_stall();
    }
}

impl StateObject for FasterShard {
    fn shard(&self) -> ShardId {
        self.shard
    }

    fn current_version(&self) -> Version {
        self.kv.current_version()
    }

    fn durable_version(&self) -> Version {
        self.kv.durable_version()
    }

    fn request_commit(&self, target: Option<Version>) -> bool {
        self.kv.request_checkpoint(target)
    }

    fn take_commits(&self) -> Vec<CommitDescriptor> {
        self.kv
            .take_completed_checkpoints()
            .into_iter()
            .map(|c| CommitDescriptor { version: c.version })
            .collect()
    }

    fn restore(&self, version: Version) -> Result<()> {
        self.kv.restore_sync(version, Duration::from_secs(30))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_core::Key;
    use dpr_faster::FasterConfig;
    use dpr_storage::{MemBlobStore, MemLogDevice};

    fn shard() -> FasterShard {
        let kv = FasterKv::new(
            FasterConfig {
                index_buckets: 1 << 10,
                memory_budget_records: 1 << 20,
                auto_maintenance: true,
                ..FasterConfig::default()
            },
            Arc::new(MemLogDevice::null()),
            Arc::new(MemBlobStore::new()),
        );
        FasterShard::new(ShardId(0), kv)
    }

    #[test]
    fn batch_execution_round_trip() {
        let s = shard();
        let ops = vec![
            ClusterOp::Upsert(Key::from_u64(1), Value::from_u64(10)),
            ClusterOp::Read(Key::from_u64(1)),
            ClusterOp::Incr(Key::from_u64(2)),
            ClusterOp::Incr(Key::from_u64(2)),
            ClusterOp::Read(Key::from_u64(2)),
            ClusterOp::Delete(Key::from_u64(1)),
            ClusterOp::Read(Key::from_u64(1)),
        ];
        let (results, version) = s.execute_batch(SessionId(1), &ops).unwrap();
        assert_eq!(version, Version(1));
        assert_eq!(results[1], OpResult::Value(Some(Value::from_u64(10))));
        assert_eq!(results[4], OpResult::Value(Some(Value::from_u64(2))));
        assert_eq!(results[6], OpResult::Value(None));
    }

    #[test]
    fn pending_ops_resolve_in_batch_order() {
        let kv = FasterKv::new(
            FasterConfig {
                index_buckets: 1 << 10,
                memory_budget_records: 0,
                auto_maintenance: false,
                ..FasterConfig::default()
            },
            Arc::new(MemLogDevice::null()),
            Arc::new(MemBlobStore::new()),
        );
        let s = FasterShard::new(ShardId(0), kv);
        let fill: Vec<ClusterOp> = (0..40_000u64)
            .map(|i| ClusterOp::Upsert(Key::from_u64(i), Value::from_u64(i)))
            .collect();
        s.execute_batch(SessionId(1), &fill).unwrap();
        s.request_commit(None);
        assert!(s.kv().wait_for_durable(Version(1), Duration::from_secs(30)));
        s.kv().force_evict();
        // Keys 3 and 5 live on the device: the read and the increment go
        // PENDING and must resolve as if executed in place in the batch.
        let ops = vec![
            ClusterOp::Read(Key::from_u64(3)),
            ClusterOp::Upsert(Key::from_u64(3), Value::from_u64(33)),
            ClusterOp::Incr(Key::from_u64(5)),
            ClusterOp::Read(Key::from_u64(3)),
        ];
        let (results, _) = s.execute_batch(SessionId(1), &ops).unwrap();
        assert_eq!(results[0], OpResult::Value(Some(Value::from_u64(3))));
        assert_eq!(results[1], OpResult::Done);
        assert_eq!(results[2], OpResult::Done);
        assert_eq!(results[3], OpResult::Value(Some(Value::from_u64(33))));
        let (results, _) = s
            .execute_batch(SessionId(1), &[ClusterOp::Read(Key::from_u64(5))])
            .unwrap();
        assert_eq!(results[0], OpResult::Value(Some(Value::from_u64(6))));
    }

    #[test]
    fn state_object_commit_cycle() {
        let s = shard();
        s.execute_batch(
            SessionId(1),
            &[ClusterOp::Upsert(Key::from_u64(1), Value::from_u64(1))],
        )
        .unwrap();
        assert!(s.request_commit(None));
        assert!(s.kv().wait_for_durable(Version(1), Duration::from_secs(5)));
        let commits = s.take_commits();
        assert_eq!(
            commits,
            vec![CommitDescriptor {
                version: Version(1)
            }]
        );
    }

    #[test]
    fn restore_rolls_back_uncommitted_batches() {
        let s = shard();
        s.execute_batch(
            SessionId(1),
            &[ClusterOp::Upsert(Key::from_u64(1), Value::from_u64(1))],
        )
        .unwrap();
        s.request_commit(None);
        assert!(s.kv().wait_for_durable(Version(1), Duration::from_secs(5)));
        s.execute_batch(
            SessionId(1),
            &[ClusterOp::Upsert(Key::from_u64(1), Value::from_u64(99))],
        )
        .unwrap();
        s.restore(Version(1)).unwrap();
        let (results, _) = s
            .execute_batch(SessionId(2), &[ClusterOp::Read(Key::from_u64(1))])
            .unwrap();
        assert_eq!(results[0], OpResult::Value(Some(Value::from_u64(1))));
    }
}
