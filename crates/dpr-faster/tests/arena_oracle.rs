//! Differential property tests: the in-place page-arena log against the
//! pre-arena engine (`dpr_faster::legacy`) as an oracle, plus a pure
//! model.
//!
//! A random program of upserts, deletes, version bumps and rollbacks runs
//! against three implementations of the same chain semantics:
//!
//! * the arena log ([`dpr_faster::RecordLog`]) with the real
//!   [`HashIndex`],
//! * the legacy `Arc<Record>` log with an explicit head map,
//! * a Vec-of-writes model.
//!
//! After every rollback (`purge_versions`), reads must "travel back" the
//! hash chain past invalidated versions (§5.5) identically in all three,
//! and tombstones must read as absent without terminating the walk early.
//!
//! A second property drives the store's batch execution kernel itself
//! (`Session::execute_batch`) with random batches over several sessions,
//! interleaved with checkpoints, eviction under a tiny memory budget and
//! one rollback, and checks every result and the final state against the
//! same Vec-of-writes model.

use dpr_core::{Key, SessionId, Value, Version};
use dpr_faster::index::HashIndex;
use dpr_faster::legacy;
use dpr_faster::{
    BatchOp, FasterConfig, FasterKv, GetOutcome, OpOutcome, RecordLog, RmwFn, NONE_ADDRESS,
};
use dpr_storage::{MemBlobStore, MemLogDevice};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone)]
enum Op {
    Upsert(u8, u16),
    Delete(u8),
    NewVersion,
    /// Roll back to `current_version - (1 + n % current_version)` … i.e.
    /// some strictly earlier version.
    Rollback(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0..24u8, 0..u16::MAX).prop_map(|(k, v)| Op::Upsert(k, v)),
        2 => (0..24u8).prop_map(Op::Delete),
        2 => Just(Op::NewVersion),
        1 => (0..255u8).prop_map(Op::Rollback),
    ]
}

/// What a read of `key` must observe after the program: the newest write
/// whose version survives every purge, interpreted through tombstones.
fn model_visible<T: Copy>(
    writes: &HashMap<u8, Vec<(u64, Option<T>)>>,
    purged: &[(u64, u64)],
    key: u8,
) -> Option<T> {
    let chain = writes.get(&key)?;
    for &(version, value) in chain.iter().rev() {
        if purged.iter().any(|&(lo, hi)| version > lo && version <= hi) {
            continue;
        }
        return value;
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arena_matches_legacy_and_model(
        ops in prop::collection::vec(op_strategy(), 1..120)
    ) {
        let arena = RecordLog::new(Arc::new(MemLogDevice::null()), 1 << 22);
        let index = HashIndex::new(256);
        let old = legacy::RecordLog::new(Arc::new(MemLogDevice::null()), 1 << 22);
        let mut old_heads: HashMap<u8, u64> = HashMap::new();
        let mut writes: HashMap<u8, Vec<(u64, Option<u16>)>> = HashMap::new();
        let mut purged: Vec<(u64, u64)> = Vec::new();
        let mut version = 1u64;

        let apply_write = |k: u8, v: Option<u16>, version: u64,
                               old_heads: &mut HashMap<u8, u64>,
                               writes: &mut HashMap<u8, Vec<(u64, Option<u16>)>>| {
            let key = Key::from_u64(u64::from(k));
            let value = Value::from_u64(u64::from(v.unwrap_or(0)));
            let tomb = v.is_none();
            // Arena: append with prev = current chain head, publish.
            let prev = index.head(&key);
            let addr = arena.append(&key, &value, Version(version), tomb, prev);
            index.set_head(&key, addr);
            // Legacy: append, then link the chain by hand.
            let rec = old.append(key, value, Version(version), tomb);
            rec.set_prev(old_heads.get(&k).copied().unwrap_or(NONE_ADDRESS));
            old_heads.insert(k, rec.address());
            writes.entry(k).or_default().push((version, v));
        };

        for op in &ops {
            match *op {
                Op::Upsert(k, v) => apply_write(k, Some(v), version, &mut old_heads, &mut writes),
                Op::Delete(k) => apply_write(k, None, version, &mut old_heads, &mut writes),
                Op::NewVersion => version += 1,
                Op::Rollback(n) => {
                    let v_safe = version - 1 - (u64::from(n) % version).min(version - 1);
                    purged.push((v_safe, version));
                    arena.purge_versions(Version(v_safe), Version(version));
                    old.purge_versions(Version(v_safe), Version(version));
                    version += 1;
                }
            }
        }

        // Every key must resolve identically in all three implementations.
        for k in 0..24u8 {
            let expected = model_visible(&writes, &purged, k);
            let key = Key::from_u64(u64::from(k));

            // Arena: travel back the chain past invalidated records.
            let guard = arena.protect();
            let mut addr = index.head(&key);
            let mut got_arena = None;
            while addr != NONE_ADDRESS {
                match arena.get_ready(&guard, addr).unwrap() {
                    GetOutcome::Resident(view) => {
                        let m = view.meta();
                        if view.key_matches(&key) && !m.invalid {
                            got_arena = (!m.tombstone).then(|| view.read_value());
                            break;
                        }
                        addr = view.prev();
                    }
                    _ => panic!("record at {addr} must be resident (nothing was evicted)"),
                }
            }
            drop(guard);

            // Legacy oracle: same walk over Arc<Record> nodes.
            let mut addr = old_heads.get(&k).copied().unwrap_or(NONE_ADDRESS);
            let mut got_legacy = None;
            while addr != NONE_ADDRESS {
                match old.get(addr).unwrap() {
                    legacy::RecordRef::Resident(rec) => {
                        let m = rec.meta();
                        if rec.key() == &key && !m.invalid {
                            got_legacy = (!m.tombstone).then(|| rec.read_value());
                            break;
                        }
                        addr = rec.prev();
                    }
                    legacy::RecordRef::OnDisk => panic!("nothing was evicted"),
                }
            }

            let expected_value = expected.map(u64::from);
            prop_assert_eq!(
                got_arena.as_ref().and_then(|v| v.as_u64()), expected_value,
                "arena diverges from model at key {}", k
            );
            prop_assert_eq!(
                got_legacy.as_ref().and_then(|v| v.as_u64()), expected_value,
                "legacy oracle diverges from model at key {}", k
            );
        }
    }
}

/// One operation of a kernel batch, over a small key space.
#[derive(Debug, Clone)]
enum KOp {
    Read(u8),
    Upsert(u8, u16),
    Incr(u8),
    Delete(u8),
}

#[derive(Debug, Clone)]
enum Step {
    Batch {
        session: u8,
        ops: Vec<KOp>,
    },
    Checkpoint,
    /// Evict every flushed page (the budget-driven eviction of the
    /// maintenance thread runs too, but on its own schedule).
    Evict,
    /// Roll back to the last durable version; only the first one runs.
    Rollback,
}

const KERNEL_KEYS: u8 = 12;

fn kop_strategy() -> impl Strategy<Value = KOp> {
    prop_oneof![
        4 => (0..KERNEL_KEYS).prop_map(KOp::Read),
        4 => (0..KERNEL_KEYS, 0..u16::MAX).prop_map(|(k, v)| KOp::Upsert(k, v)),
        2 => (0..KERNEL_KEYS).prop_map(KOp::Incr),
        1 => (0..KERNEL_KEYS).prop_map(KOp::Delete),
    ]
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        12 => (0..3u8, prop::collection::vec(kop_strategy(), 1..12))
            .prop_map(|(session, ops)| Step::Batch { session, ops }),
        2 => Just(Step::Checkpoint),
        2 => Just(Step::Evict),
        1 => Just(Step::Rollback),
    ]
}

/// Keys are 8 KiB long so a short program spans many 64 KiB pages and
/// the two-page memory budget forces eviction (reads and RMWs then go
/// PENDING on the device).
fn kernel_key(k: u8) -> Key {
    let mut b = vec![0u8; 8192];
    b[0] = k;
    Key(bytes::Bytes::from(b))
}

fn incr() -> RmwFn {
    Arc::new(|old: Option<&Value>| Value::from_u64(old.and_then(Value::as_u64).unwrap_or(0) + 1))
}

/// Checkpoint and wait until the machine is back at rest.
fn checkpoint(kv: &FasterKv) {
    let version = kv.current_version();
    while !kv.request_checkpoint(None) {
        kv.tick();
    }
    assert!(kv.wait_for_durable(version, Duration::from_secs(10)));
    while !kv.machine_idle() {
        kv.tick();
        std::thread::yield_now();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn batch_kernel_matches_model(
        steps in prop::collection::vec(step_strategy(), 1..48)
    ) {
        let kv = FasterKv::new(
            FasterConfig {
                index_buckets: 64,
                memory_budget_records: 0,
                auto_maintenance: true,
                unflushed_limit_records: Some(2048),
                ..FasterConfig::default()
            },
            Arc::new(MemLogDevice::null()),
            Arc::new(MemBlobStore::new()),
        );
        let sessions: Vec<_> = (0..3u64).map(|i| kv.start_session(SessionId(i + 1))).collect();
        let keys: Vec<Key> = (0..KERNEL_KEYS).map(kernel_key).collect();
        let incr = incr();
        let mut writes: HashMap<u8, Vec<(u64, Option<u64>)>> = HashMap::new();
        let mut purged: Vec<(u64, u64)> = Vec::new();
        let mut rolled_back = false;

        for step in &steps {
            match step {
                Step::Batch { session, ops } => {
                    let values: Vec<Value> = ops
                        .iter()
                        .map(|op| match *op {
                            KOp::Upsert(_, v) => Value::from_u64(u64::from(v)),
                            _ => Value::from_u64(0),
                        })
                        .collect();
                    let batch: Vec<BatchOp<'_>> = ops
                        .iter()
                        .zip(&values)
                        .map(|(op, value)| match *op {
                            KOp::Read(k) => BatchOp::Read(&keys[k as usize]),
                            KOp::Upsert(k, _) => BatchOp::Upsert(&keys[k as usize], value),
                            KOp::Incr(k) => BatchOp::Rmw(&keys[k as usize], &incr),
                            KOp::Delete(k) => BatchOp::Delete(&keys[k as usize]),
                        })
                        .collect();
                    let s = &sessions[*session as usize];
                    let mut outcomes = Vec::new();
                    let version = s
                        .execute_batch(&batch, |i, outcome| outcomes.push((i, outcome)))
                        .unwrap();
                    prop_assert_eq!(outcomes.len(), ops.len());
                    // Replay the batch on the model in serial order. A
                    // PENDING read must resolve to the value at its issue;
                    // a PENDING RMW applies when `complete_pending` runs.
                    let mut pending_reads: HashMap<u64, Option<u64>> = HashMap::new();
                    let mut pending_incrs: Vec<u64> = Vec::new();
                    for (i, outcome) in outcomes {
                        let expected = |k: u8| model_visible(&writes, &purged, k);
                        match (&ops[i], outcome) {
                            (KOp::Read(k), OpOutcome::Read { value, version: v, .. }) => {
                                prop_assert_eq!(v, version);
                                prop_assert_eq!(
                                    value.and_then(|v| v.as_u64()), expected(*k),
                                    "read of key {} (op {})", k, i
                                );
                            }
                            (KOp::Read(k), OpOutcome::Pending(t)) => {
                                pending_reads.insert(t.serial, expected(*k));
                            }
                            (KOp::Upsert(k, v), OpOutcome::Mutated { .. }) => {
                                writes.entry(*k).or_default().push((version.0, Some(u64::from(*v))));
                            }
                            (KOp::Delete(k), OpOutcome::Mutated { .. }) => {
                                writes.entry(*k).or_default().push((version.0, None));
                            }
                            (KOp::Incr(k), OpOutcome::Mutated { .. }) => {
                                let new = expected(*k).unwrap_or(0) + 1;
                                writes.entry(*k).or_default().push((version.0, Some(new)));
                            }
                            (KOp::Incr(_), OpOutcome::Pending(t)) => pending_incrs.push(t.serial),
                            (op, outcome) => {
                                return Err(TestCaseError::fail(format!(
                                    "{op:?} produced {outcome:?}"
                                )));
                            }
                        }
                    }
                    if pending_reads.is_empty() && pending_incrs.is_empty() {
                        continue;
                    }
                    let first_serial = s.next_serial() - ops.len() as u64;
                    for c in s.complete_pending().unwrap() {
                        prop_assert!(!c.lost);
                        let (KOp::Incr(k) | KOp::Read(k)) = ops[(c.serial - first_serial) as usize]
                        else {
                            unreachable!("only reads and RMWs go pending");
                        };
                        if let Some(expected) = pending_reads.get(&c.serial) {
                            prop_assert_eq!(
                                c.value.and_then(|v| v.as_u64()), *expected,
                                "pending read of key {}", k
                            );
                        } else {
                            prop_assert!(pending_incrs.contains(&c.serial));
                            let new = model_visible(&writes, &purged, k).unwrap_or(0) + 1;
                            writes.entry(k).or_default().push((c.version.0, Some(new)));
                        }
                    }
                }
                Step::Checkpoint => checkpoint(&kv),
                Step::Evict => {
                    kv.force_evict();
                }
                Step::Rollback if !rolled_back => {
                    rolled_back = true;
                    // Everything since the last checkpoint is lost.
                    let v_safe = kv.durable_version();
                    let before = kv.current_version();
                    kv.restore_sync(v_safe, Duration::from_secs(10)).unwrap();
                    if kv.current_version() > before {
                        purged.push((v_safe.0, before.0));
                    }
                }
                Step::Rollback => {}
            }
        }

        // Final state: every key reads back as the model says, and the live
        // scan holds exactly the model's surviving keys.
        for k in 0..KERNEL_KEYS {
            let got = kv.get(&keys[k as usize]).unwrap().and_then(|v| v.as_u64());
            prop_assert_eq!(got, model_visible(&writes, &purged, k), "final value of key {}", k);
        }
        let mut live: Vec<(u8, u64)> = kv
            .scan_live()
            .unwrap()
            .into_iter()
            .map(|(key, value)| (key.as_bytes()[0], value.as_u64().unwrap()))
            .collect();
        live.sort_unstable();
        let mut expected: Vec<(u8, u64)> = (0..KERNEL_KEYS)
            .filter_map(|k| model_visible(&writes, &purged, k).map(|v| (k, v)))
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(live, expected);
    }
}
