//! The three workloads, their seeded op streams, and the reference model
//! that every read is checked against.
//!
//! Each connection owns a disjoint key range on every shard, so the
//! expected result of each read is known when the batch is generated: the
//! range's last upserted value, or the preload value. The server executes
//! one connection's frames in arrival order, so issue order is execution
//! order.

use dpr_cluster::{ClusterOp, OpResult};
use dpr_core::{Key, ShardId, Value};
use dpr_ycsb::{BatchPlan, KeyDistribution, PlannedKind, WorkloadGen, WorkloadSpec};
use std::time::Duration;

/// Shards in the server's cluster.
pub const SHARDS: usize = 4;
/// Load threads, each owning one connection (one DPR session).
pub const CONNECTIONS: usize = 2;
/// Operations per batch.
pub const BATCH: usize = 8;
/// Period of the cut-request timer, identical on every workload.
///
/// A client learns that a batch committed only from a cut reply, so the
/// period adds on average half of itself to every commit-latency sample.
/// The cut it can learn changes at most once per finder interval (5 ms by
/// default) and commit latency itself is set by the 100 ms checkpoint
/// interval, so 10 ms resolves it to a few ms while keeping cut frames a
/// small share of the traffic (`loadgen.cut_frame_frac`). README.md gives
/// the measurement against 2 ms and 50 ms.
pub const CUT_PERIOD: Duration = Duration::from_millis(10);

/// How load is offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Batches on a fixed schedule, `ops_per_s` across all connections.
    Open {
        /// Offered rate, ops/s, summed over connections.
        ops_per_s: f64,
    },
    /// Each connection keeps `window` batches in flight.
    Closed {
        /// Batches in flight per connection.
        window: usize,
    },
}

/// One workload: a traffic mix, a keyspace and a way to offer load.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line.
    pub name: &'static str,
    /// Share of reads; the rest are blind upserts.
    pub read_fraction: f64,
    /// Zipfian skew, or `None` for uniform keys.
    pub zipf_theta: Option<f64>,
    /// Keys per (connection, shard) range; all are preloaded.
    pub keys_per_range: u64,
    /// `ClusterConfig::memory_budget_records` per shard, when not default.
    pub memory_budget_records: Option<usize>,
    /// Open or closed loop.
    pub load: Load,
}

/// YCSB-A inputs shared by the low-rate and the peak workload.
const YCSB_A_KEYS_PER_RANGE: u64 = 8192;

/// All workloads, in reporting order.
pub const WORKLOADS: [Workload; 3] = [
    // 8k ops/s is about 1% of the closed-loop YCSB-A peak on a 2-vCPU VM, so
    // the I/O threads idle between batches (netload's old 8k point).
    Workload {
        name: "ycsb_a_low",
        read_fraction: 0.5,
        zipf_theta: None,
        keys_per_range: YCSB_A_KEYS_PER_RANGE,
        memory_budget_records: None,
        load: Load::Open { ops_per_s: 8000.0 },
    },
    Workload {
        name: "ycsb_a_peak",
        read_fraction: 0.5,
        zipf_theta: None,
        keys_per_range: YCSB_A_KEYS_PER_RANGE,
        memory_budget_records: None,
        load: Load::Closed { window: 8 },
    },
    // 32768 keys per shard against a 4096-record budget: 8x, so most of
    // the keyspace lives only on the log device.
    Workload {
        name: "ycsb_b_ltm",
        read_fraction: 0.95,
        zipf_theta: Some(0.99),
        keys_per_range: 16384,
        memory_budget_records: Some(4096),
        load: Load::Closed { window: 8 },
    },
];

/// Look a workload up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The key of slot `idx` in `conn`'s range on `shard`.
#[must_use]
pub fn key_id(conn: usize, shard: usize, idx: u64) -> u64 {
    ((shard as u64) << 40) | ((conn as u64) << 32) | idx
}

/// Value every key holds after the preload.
#[must_use]
pub fn preload_value(key: u64) -> u64 {
    (1 << 63) | key
}

/// Seed of connection `conn`'s op stream.
#[must_use]
pub fn conn_seed(seed: u64, conn: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (conn as u64 + 1)
}

/// The expected outcome of one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A read returning this value.
    Read(u64),
    /// An acknowledged upsert.
    Done,
}

/// Check `results` against `expect`, op by op.
#[must_use]
pub fn results_match(expect: &[Expect], results: &[OpResult]) -> bool {
    expect.len() == results.len()
        && expect.iter().zip(results).all(|(e, r)| match (e, r) {
            (Expect::Read(v), OpResult::Value(Some(got))) => got.as_u64() == Some(*v),
            (Expect::Done, OpResult::Done) => true,
            _ => false,
        })
}

/// One connection's seeded op stream plus its reference model.
pub struct OpStream {
    conn: usize,
    gen: WorkloadGen,
    plan: BatchPlan,
    /// Last value of every key in this connection's ranges, per shard.
    model: Vec<Vec<u64>>,
    /// Upserts generated so far; the next upsert's value derives from it.
    upserts: u64,
    /// Batches generated so far; picks the next shard round-robin.
    batches: u64,
}

impl OpStream {
    /// The op stream of connection `conn` for `seed`.
    #[must_use]
    pub fn new(w: &Workload, seed: u64, conn: usize) -> OpStream {
        let distribution = match w.zipf_theta {
            Some(theta) => KeyDistribution::Zipfian { theta },
            None => KeyDistribution::Uniform,
        };
        let spec = WorkloadSpec {
            keys: w.keys_per_range,
            read_fraction: w.read_fraction,
            rmw_fraction: 0.0,
            distribution,
            value_size: 8,
        };
        let model = (0..SHARDS)
            .map(|s| {
                (0..w.keys_per_range)
                    .map(|i| preload_value(key_id(conn, s, i)))
                    .collect()
            })
            .collect();
        OpStream {
            conn,
            gen: WorkloadGen::new(spec, conn_seed(seed, conn)),
            plan: BatchPlan::new(),
            model,
            upserts: 0,
            batches: 0,
        }
    }

    /// Fill `ops` and `expect` with the next batch and return its shard.
    /// Batches go round-robin over the shards (offset per connection), so
    /// each carries dependencies on the others, as in DPR.
    pub fn next_batch(&mut self, ops: &mut Vec<ClusterOp>, expect: &mut Vec<Expect>) -> ShardId {
        let shard = (self.batches as usize + self.conn) % SHARDS;
        self.batches += 1;
        self.gen.fill_plan(&mut self.plan, BATCH);
        ops.clear();
        expect.clear();
        let slots = &mut self.model[shard];
        for op in self.plan.ops() {
            let key = Key::from_u64(key_id(self.conn, shard, op.key_id));
            let slot = &mut slots[op.key_id as usize];
            match op.kind {
                PlannedKind::Read => {
                    ops.push(ClusterOp::Read(key));
                    expect.push(Expect::Read(*slot));
                }
                PlannedKind::Update | PlannedKind::Rmw => {
                    self.upserts += 1;
                    let v = ((self.conn as u64 + 1) << 56) | self.upserts;
                    *slot = v;
                    ops.push(ClusterOp::Upsert(key, Value::from_u64(v)));
                    expect.push(Expect::Done);
                }
            }
        }
        ShardId(shard as u32)
    }
}

/// The preload of connection `conn`: every key of its ranges, as batches
/// of `per_batch` upserts, shard by shard.
pub fn preload_batches(
    w: &Workload,
    conn: usize,
    per_batch: usize,
) -> impl Iterator<Item = (ShardId, Vec<ClusterOp>)> + '_ {
    (0..SHARDS).flat_map(move |s| {
        let keys = w.keys_per_range;
        (0..keys).step_by(per_batch).map(move |start| {
            let ops = (start..(start + per_batch as u64).min(keys))
                .map(|i| {
                    let k = key_id(conn, s, i);
                    ClusterOp::Upsert(Key::from_u64(k), Value::from_u64(preload_value(k)))
                })
                .collect();
            (ShardId(s as u32), ops)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for w in WORKLOADS {
            assert_eq!(by_name(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn ranges_are_disjoint_across_connections_and_shards() {
        let mut seen = std::collections::HashSet::new();
        for conn in 0..CONNECTIONS {
            for shard in 0..SHARDS {
                for idx in [0, 1, 16383] {
                    assert!(seen.insert(key_id(conn, shard, idx)));
                }
            }
        }
    }

    #[test]
    fn same_seed_gives_same_batches() {
        let w = WORKLOADS[0];
        let (mut a, mut b) = (OpStream::new(&w, 7, 1), OpStream::new(&w, 7, 1));
        let (mut oa, mut ob, mut ea, mut eb) = (vec![], vec![], vec![], vec![]);
        for _ in 0..50 {
            assert_eq!(
                a.next_batch(&mut oa, &mut ea),
                b.next_batch(&mut ob, &mut eb)
            );
            assert_eq!(oa, ob);
            assert_eq!(ea, eb);
        }
        let mut c = OpStream::new(&w, 8, 1);
        let (mut oc, mut ec) = (vec![], vec![]);
        c.next_batch(&mut oc, &mut ec);
        a = OpStream::new(&w, 7, 1);
        a.next_batch(&mut oa, &mut ea);
        assert_ne!(oa, oc);
    }

    #[test]
    fn reads_expect_the_last_upsert_or_the_preload() {
        let w = WORKLOADS[0];
        let mut s = OpStream::new(&w, 3, 0);
        let mut last: std::collections::HashMap<u64, u64> = Default::default();
        let (mut ops, mut expect) = (vec![], vec![]);
        for _ in 0..2000 {
            s.next_batch(&mut ops, &mut expect);
            for (op, e) in ops.iter().zip(&expect) {
                match (op, e) {
                    (ClusterOp::Read(k), Expect::Read(v)) => {
                        let k = k.as_u64().expect("u64 key");
                        assert_eq!(*v, *last.get(&k).unwrap_or(&preload_value(k)));
                    }
                    (ClusterOp::Upsert(k, v), Expect::Done) => {
                        last.insert(k.as_u64().expect("key"), v.as_u64().expect("value"));
                    }
                    _ => panic!("op and expectation disagree"),
                }
            }
        }
        assert!(!last.is_empty());
    }

    #[test]
    fn result_check_rejects_wrong_values() {
        let ok = [OpResult::Value(Some(Value::from_u64(5))), OpResult::Done];
        assert!(results_match(&[Expect::Read(5), Expect::Done], &ok));
        assert!(!results_match(&[Expect::Read(6), Expect::Done], &ok));
        assert!(!results_match(&[Expect::Read(5)], &ok));
        assert!(!results_match(
            &[Expect::Read(5), Expect::Done],
            &[OpResult::Value(None), OpResult::Done]
        ));
    }

    #[test]
    fn preload_covers_every_key_once() {
        let w = WORKLOADS[2];
        let n: usize = preload_batches(&w, 1, 64).map(|(_, ops)| ops.len()).sum();
        assert_eq!(n as u64, w.keys_per_range * SHARDS as u64);
    }
}
