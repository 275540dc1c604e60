//! In-process replay of a workload's seeded batches through each layer's
//! public functions, timing every call.
//!
//! The server's request path is `wire::decode_request_body_into` →
//! `Worker::execute_local_into` (gate validate, store execute, gate
//! record) → `wire::encode_response`. The replay runs the same calls on
//! the same batches against an in-process cluster with the benchmark's
//! configuration, and also times `ShardStore::execute_batch_into` alone
//! on each batch so the gate's own share can be split from the store's.
//! The store call runs before the worker call on odd batches and after it
//! on even ones, so neither is always the one that finds the keys cached.

use crate::server::cluster_config;
use crate::workload::{preload_batches, results_match, OpStream, Workload, CONNECTIONS};
use bytes::Bytes;
use dpr_cluster::{wire, Cluster, ClusterOp, OpResult};
use dpr_core::{SessionId, Version};
use libdpr::{BatchHeader, DprClientSession};
use std::time::{Duration, Instant};

/// Mean cost of each replayed call, per batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCosts {
    /// `wire::decode_request_body_into`, ns per batch.
    pub decode_ns: f64,
    /// `Worker::execute_local_into`, ns per batch.
    pub worker_ns: f64,
    /// `ShardStore::execute_batch_into`, ns per batch.
    pub store_ns: f64,
    /// `wire::encode_response`, ns per batch.
    pub encode_ns: f64,
    /// Ops per replayed batch, on average.
    pub ops_per_batch: f64,
}

fn empty_header() -> BatchHeader {
    BatchHeader {
        session: SessionId(0),
        world_line: dpr_core::WorldLine(0),
        version_lower_bound: Version::ZERO,
        deps: Vec::new(),
        first_serial: 0,
        op_count: 0,
    }
}

/// Replay `batches` batches of workload `w` for `seed` (the first tenth
/// untimed, as warm-up).
pub fn replay(w: &Workload, seed: u64, batches: usize) -> Result<ReplayCosts, String> {
    let cluster = Cluster::start(cluster_config(w.memory_budget_records))
        .map_err(|e| format!("start replay cluster: {e}"))?;
    let out = run(&cluster, w, seed, batches);
    cluster.shutdown();
    out
}

fn run(cluster: &Cluster, w: &Workload, seed: u64, batches: usize) -> Result<ReplayCosts, String> {
    let workers = cluster.workers();
    let mut sessions: Vec<DprClientSession> = (0..CONNECTIONS)
        .map(|c| DprClientSession::new(SessionId(c as u64 + 1)))
        .collect();
    let mut header = empty_header();
    let mut results: Vec<OpResult> = Vec::new();

    // Preload exactly as the load generator does, then let a checkpoint make it
    // durable so the store can evict it, as in the measured runs.
    for (conn, session) in sessions.iter_mut().enumerate() {
        for (shard, ops) in preload_batches(w, conn, 64) {
            session
                .begin_batch_into(shard, ops.len() as u32, &mut header)
                .map_err(|e| format!("preload header: {e}"))?;
            results.clear();
            let reply = workers[shard.0 as usize]
                .execute_local_into(&header, &ops, &mut results)
                .map_err(|e| format!("preload: {e}"))?;
            session
                .process_reply(&reply)
                .map_err(|e| format!("preload reply: {e}"))?;
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    for worker in workers {
        let target = worker.store().current_version();
        while worker.store().durable_version() < target {
            if Instant::now() > deadline {
                return Err("replay preload did not become durable".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    let mut streams: Vec<OpStream> = (0..CONNECTIONS)
        .map(|c| OpStream::new(w, seed, c))
        .collect();
    let (mut ops, mut expect) = (Vec::new(), Vec::new());
    let mut decoded_ops: Vec<ClusterOp> = Vec::new();
    let mut decoded = empty_header();
    let mut store_results: Vec<OpResult> = Vec::new();
    let (mut req, mut resp) = (Vec::new(), Vec::new());
    let warmup = batches / 10;
    let (mut decode, mut worker_t, mut store_t, mut encode) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    let mut timed_ops = 0usize;
    for i in 0..batches {
        let conn = i % CONNECTIONS;
        let shard = streams[conn].next_batch(&mut ops, &mut expect);
        let session = &mut sessions[conn];
        session
            .begin_batch_into(shard, ops.len() as u32, &mut header)
            .map_err(|e| format!("replay header: {e}"))?;
        req.clear();
        wire::encode_request(&mut req, shard, i as u64, &header, &ops);
        let body = Bytes::copy_from_slice(&req[wire::FRAME_HEADER_LEN..]);
        let worker = &workers[shard.0 as usize];

        let t = Instant::now();
        decoded_ops.clear();
        wire::decode_request_body_into(&body, &mut decoded_ops, &mut decoded)
            .map_err(|e| format!("replay decode: {e}"))?;
        let d_decode = t.elapsed();

        let time_store = |out: &mut Vec<OpResult>| -> Result<Duration, String> {
            out.clear();
            let t = Instant::now();
            worker
                .store()
                .execute_batch_into(decoded.session, &decoded_ops, out)
                .map_err(|e| format!("replay store: {e}"))?;
            Ok(t.elapsed())
        };
        let store_first = i % 2 == 1;
        let mut d_store = Duration::ZERO;
        if store_first {
            d_store = time_store(&mut store_results)?;
        }
        results.clear();
        let t = Instant::now();
        let reply = worker
            .execute_local_into(&decoded, &decoded_ops, &mut results)
            .map_err(|e| format!("replay execute: {e}"))?;
        let d_worker = t.elapsed();
        if !store_first {
            d_store = time_store(&mut store_results)?;
        }
        // Only the first of the two executions matches the model: the
        // second sees this batch's own upserts when it reads a key that
        // the batch also writes.
        let first = if store_first {
            &store_results
        } else {
            &results
        };
        if !results_match(&expect, first) {
            return Err(format!("replay batch {i} returned wrong results"));
        }

        resp.clear();
        let t = Instant::now();
        wire::encode_response(&mut resp, shard.0, i as u64, Ok((&reply, &results)));
        let d_encode = t.elapsed();
        session
            .process_reply(&reply)
            .map_err(|e| format!("replay reply: {e}"))?;

        if i >= warmup {
            decode += d_decode;
            worker_t += d_worker;
            store_t += d_store;
            encode += d_encode;
            timed_ops += ops.len();
        }
    }
    let n = (batches - warmup).max(1) as f64;
    let per = |d: Duration| d.as_nanos() as f64 / n;
    Ok(ReplayCosts {
        decode_ns: per(decode),
        worker_ns: per(worker_t),
        store_ns: per(store_t),
        encode_ns: per(encode),
        ops_per_batch: timed_ops as f64 / n,
    })
}
