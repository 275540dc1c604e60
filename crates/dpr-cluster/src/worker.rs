//! Shard workers: batch execution + libDPR server hooks + background
//! checkpointing, commit pumping, and recovery participation.

use crate::lease::{CutLease, OwnershipLease};
use crate::message::{ClusterOp, Message, OpResult, RequestMsg, ResponseMsg};
use crate::transport::{EndpointId, SimNetwork};
use crossbeam::channel::Receiver;
use dpr_core::{DprError, Result, SessionId, ShardId, Version, WorldLine};
use dpr_metadata::{MetadataStore, OwnershipTable};
use libdpr::{BatchHeader, BatchReply, DprFinder, DprServer, StateObject};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// A cache-store shard as the worker drives it: the libDPR
/// [`StateObject`] plus batch execution.
pub trait ShardStore: StateObject {
    /// Execute a batch of operations for `session`, returning per-op results
    /// and the version the batch executed in.
    fn execute_batch(
        &self,
        session: SessionId,
        ops: &[ClusterOp],
    ) -> Result<(Vec<OpResult>, Version)>;

    /// Like [`ShardStore::execute_batch`] but appends results to a
    /// caller-provided buffer, so steady-state callers (the network plane)
    /// can reuse one allocation across batches. The default delegates to
    /// [`ShardStore::execute_batch`]; hot stores override it to write
    /// results in place.
    fn execute_batch_into(
        &self,
        session: SessionId,
        ops: &[ClusterOp],
        out: &mut Vec<OpResult>,
    ) -> Result<Version> {
        let (results, version) = self.execute_batch(session, ops)?;
        out.extend(results);
        Ok(version)
    }

    /// Snapshot the live key/value pairs (key migration, §5.3).
    fn scan_live(&self) -> Result<Vec<(dpr_core::Key, dpr_core::Value)>>;

    /// Garbage-collect durable state below the DPR-guaranteed `version`
    /// (§5.5). Default: stores with no log to truncate do nothing.
    fn collect_garbage(&self, version: Version) -> Result<()> {
        let _ = version;
        Ok(())
    }

    /// Chaos fault point: delay in-flight and future checkpoint
    /// completion for `duration`, simulating a hung flush device.
    /// Default: stores without a checkpoint machine ignore it.
    fn inject_commit_stall(&self, duration: Duration) {
        let _ = duration;
    }

    /// Lift any active commit stall ("the device recovers"). The chaos
    /// harness must call this before injecting a crash: rollback waits
    /// for the checkpoint machine to go idle, which a stalled `WaitFlush`
    /// phase would block. Default: no-op.
    fn clear_commit_stall(&self) {}
}

/// Worker behavior knobs (these map onto the paper's experiment axes).
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Checkpoint trigger period; `None` disables checkpoints entirely
    /// ("No Chkpts" in Figs. 10–11).
    pub checkpoint_interval: Option<Duration>,
    /// Track dependencies and report commits to the DPR finder. Disabling
    /// this with checkpoints still on gives the "No DPR" / eventual
    /// configurations.
    pub dpr_enabled: bool,
    /// Make every batch wait for durability before replying (the
    /// synchronous recoverability level of §7.6).
    pub sync_commit: bool,
    /// Executor threads consuming the request inbox.
    pub executors: usize,
    /// Validate key ownership per operation (§5.3).
    pub validate_ownership: bool,
    /// Fast-forward lagging checkpoints to the cluster `Vmax` (§3.4).
    pub fast_forward: bool,
    /// Remember the replies of at least the last `dedupe_window` remote
    /// batches of every session (the cache is striped by session and each
    /// stripe holds this many) and replay them on duplicate delivery
    /// instead of re-executing, keeping non-idempotent ops exactly-once
    /// when clients retransmit over lossy links. `0` (the default)
    /// disables the cache; the chaos harness enables it alongside client
    /// retransmission.
    pub dedupe_window: usize,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            checkpoint_interval: Some(Duration::from_millis(100)),
            dpr_enabled: true,
            sync_commit: false,
            executors: 2,
            validate_ownership: true,
            fast_forward: true,
            dedupe_window: 0,
        }
    }
}

/// State of one remembered batch in the duplicate-suppression cache.
enum DedupeEntry {
    /// The first copy is still executing; drop duplicates (its reply is
    /// already on the way, and the client retries again if it is lost).
    Executing,
    /// Completed; replay this reply on duplicate delivery.
    Done(BatchReply, Vec<OpResult>),
}

/// Bounded FIFO cache of recent batch replies, keyed by the client-unique
/// `(session, first_serial)` pair.
#[derive(Default)]
struct DedupeCache {
    entries: std::collections::HashMap<(SessionId, u64), DedupeEntry>,
    order: std::collections::VecDeque<(SessionId, u64)>,
    /// Result buffers reclaimed from evicted `Done` entries; recording a
    /// fresh outcome reuses one, so a full window caches replies without
    /// a per-batch allocation.
    spare: Vec<Vec<OpResult>>,
}

/// Cap on recycled result buffers per dedupe stripe.
const DEDUPE_SPARE_BUFFERS: usize = 32;

/// One cache-padded dedupe stripe. The cache is sharded by session so
/// concurrent sessions on different I/O threads stop serialising on one
/// global lock (§6's "implemented scalably", applied to session state).
#[repr(align(128))]
struct DedupeStripe(parking_lot::Mutex<DedupeCache>);

/// One shard worker.
pub struct Worker {
    shard: ShardId,
    store: Arc<dyn ShardStore>,
    server: Arc<DprServer>,
    net: Arc<SimNetwork>,
    endpoint: EndpointId,
    ownership: Arc<OwnershipTable>,
    /// Worker-local lease cache over `ownership` — the per-op validation
    /// path reads this (one epoch load + local lookup) instead of taking
    /// the shared table's lock per operation (§5.3 at scale).
    ownership_lease: OwnershipLease,
    meta: Arc<dyn MetadataStore>,
    finder: Arc<dyn DprFinder>,
    config: WorkerConfig,
    shutdown: AtomicBool,
    /// Operations executed (all sessions) — worker-side throughput counter.
    executed_ops: AtomicU64,
    /// Duplicate suppression for retransmitted remote batches, striped by
    /// session (volatile: a crash-restart clears it, which is safe because
    /// the rolled-back world-line forces clients to rebuild their sessions
    /// anyway).
    dedupe: Box<[DedupeStripe]>,
    /// TTL + world-line-fenced `(world_line, cut)` cache served to `CutReq`
    /// frames, so commit polling from many clients does not clone the cut
    /// out of the metadata store per request. Staleness is bounded by
    /// [`CUT_CACHE_TTL`] (well under the finder's own publish cadence) and
    /// by the world-line fence: a cut from an abandoned world-line is never
    /// served after this worker rolls forward.
    cut_lease: CutLease,
}

/// See [`Worker::read_cut_cached`].
const CUT_CACHE_TTL: Duration = Duration::from_millis(2);

impl Worker {
    /// Create and start a worker: registers on the bus and metadata store,
    /// spawns executor and control threads.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        shard: ShardId,
        store: Arc<dyn ShardStore>,
        net: Arc<SimNetwork>,
        ownership: Arc<OwnershipTable>,
        meta: Arc<dyn MetadataStore>,
        finder: Arc<dyn DprFinder>,
        config: WorkerConfig,
    ) -> Result<Arc<Worker>> {
        let (endpoint, inbox) = net.register();
        meta.register_worker(shard)?;
        let stripes = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .next_power_of_two()
            .min(16);
        let worker = Arc::new(Worker {
            shard,
            store,
            server: Arc::new(DprServer::new(shard)),
            net,
            endpoint,
            ownership_lease: OwnershipLease::new(ownership.clone(), shard),
            ownership,
            meta,
            finder,
            config,
            shutdown: AtomicBool::new(false),
            executed_ops: AtomicU64::new(0),
            dedupe: (0..stripes)
                .map(|_| DedupeStripe(parking_lot::Mutex::new(DedupeCache::default())))
                .collect(),
            cut_lease: CutLease::new(CUT_CACHE_TTL),
        });
        for i in 0..worker.config.executors.max(1) {
            let weak = Arc::downgrade(&worker);
            let rx = inbox.clone();
            std::thread::Builder::new()
                .name(format!("worker-{}-exec-{i}", shard.0))
                .spawn(move || executor_loop(&weak, &rx))
                .expect("spawn executor");
        }
        {
            let weak = Arc::downgrade(&worker);
            std::thread::Builder::new()
                .name(format!("worker-{}-ctl", shard.0))
                .spawn(move || control_loop(&weak))
                .expect("spawn control thread");
        }
        Ok(worker)
    }

    /// This worker's shard id.
    #[must_use]
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// This worker's bus address.
    #[must_use]
    pub fn endpoint(&self) -> EndpointId {
        self.endpoint
    }

    /// The world-line this worker is on.
    #[must_use]
    pub fn world_line(&self) -> WorldLine {
        self.server.world_line()
    }

    /// Total operations executed by this worker.
    #[must_use]
    pub fn executed_ops(&self) -> u64 {
        self.executed_ops.load(Ordering::Relaxed)
    }

    /// The underlying store (tests/diagnostics).
    #[must_use]
    pub fn store(&self) -> &Arc<dyn ShardStore> {
        &self.store
    }

    /// Execute a batch on the calling thread — the path used both by
    /// executor threads for remote requests and directly by co-located
    /// applications (§5.2's local execution).
    pub fn execute_local(
        &self,
        header: &BatchHeader,
        ops: &[ClusterOp],
    ) -> Result<(BatchReply, Vec<OpResult>)> {
        let mut results = Vec::with_capacity(ops.len());
        let reply = self.execute_local_into(header, ops, &mut results)?;
        Ok((reply, results))
    }

    /// [`Worker::execute_local`] with a caller-provided results buffer —
    /// the network plane's steady-state path reuses one buffer across
    /// batches so a request allocates nothing here. Results are appended.
    pub fn execute_local_into(
        &self,
        header: &BatchHeader,
        ops: &[ClusterOp],
        results: &mut Vec<OpResult>,
    ) -> Result<BatchReply> {
        self.server
            .validate_blocking(header, self.store.as_ref(), Duration::from_secs(10))?;
        if self.config.validate_ownership {
            for op in ops {
                if !self.ownership_lease.validate(op.key()) {
                    return Err(DprError::NotOwner { shard: self.shard });
                }
            }
        }
        let version = self
            .store
            .execute_batch_into(header.session, ops, results)?;
        self.executed_ops
            .fetch_add(ops.len() as u64, Ordering::Relaxed);
        crate::metrics::batches().inc();
        crate::metrics::batch_ops().record(ops.len() as u64);
        if self.config.dpr_enabled {
            self.server.record_batch(header, version);
        }
        if self.config.sync_commit {
            // Synchronous recoverability: group-commit and wait (§7.6),
            // backing off spin → yield → short sleep so waiting batches do
            // not burn a core while the checkpoint completes.
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut backoff = dpr_core::Backoff::new();
            while self.store.durable_version() < version {
                self.store.request_commit(None);
                if backoff.is_waiting_long() && Instant::now() > deadline {
                    return Err(DprError::Timeout);
                }
                backoff.snooze();
            }
        }
        Ok(self.server.make_reply(header, version))
    }

    /// Stop background threads.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Simulate the volatile-state loss of a process crash + restart
    /// (chaos harness, via [`crate::Cluster::inject_failure_at`]): durable
    /// state survives, the duplicate-suppression cache does not.
    pub fn simulate_crash_restart(&self) {
        for stripe in &self.dedupe {
            let mut cache = stripe.0.lock();
            cache.entries.clear();
            cache.order.clear();
        }
    }

    /// The dedupe stripe owning `session` (sessions map to stripes by a
    /// SplitMix-style hash so consecutive ids spread out).
    fn dedupe_stripe(&self, session: SessionId) -> &parking_lot::Mutex<DedupeCache> {
        let mut h = session.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        &self.dedupe[(h as usize) % self.dedupe.len()].0
    }

    /// Whether duplicate suppression is enabled for remote batches.
    #[must_use]
    pub(crate) fn dedupe_enabled(&self) -> bool {
        self.config.dedupe_window > 0
    }

    /// Current DPR cut and world-line straight from the metadata store —
    /// what the network plane serves for `CutReq` frames so remote clients
    /// can track commits without a side channel.
    pub fn read_cut(&self) -> Result<(WorldLine, dpr_metadata::Cut)> {
        let cut = self.meta.read_cut()?;
        let world_line = self.meta.world_line()?;
        Ok((world_line, cut))
    }

    /// Like [`Worker::read_cut`], but served from a `CUT_CACHE_TTL`-bounded,
    /// world-line-fenced cache shared by all readers: the steady-state
    /// commit-polling path (many clients sending `CutReq` frames) costs one
    /// metadata read per TTL instead of one cut clone per request. The
    /// fence is this worker's own world-line, so once recovery rolls the
    /// worker forward no cut from the abandoned world-line is served, even
    /// within the TTL window.
    pub fn read_cut_cached(&self) -> Result<Arc<(WorldLine, dpr_metadata::Cut)>> {
        self.cut_lease
            .get(self.server.world_line(), || self.read_cut())
    }

    /// Duplicate check for a remote batch. `None` means fresh (caller
    /// executes and records the outcome); `Some(None)` means a copy is
    /// already executing (drop the duplicate); `Some(Some(_))` replays
    /// the cached reply.
    #[allow(clippy::option_option)]
    pub(crate) fn dedupe_check(
        &self,
        header: &BatchHeader,
    ) -> Option<Option<(BatchReply, Vec<OpResult>)>> {
        let key = (header.session, header.first_serial);
        let mut cache = self.dedupe_stripe(header.session).lock();
        match cache.entries.get(&key) {
            Some(DedupeEntry::Executing) => Some(None),
            Some(DedupeEntry::Done(reply, results)) => Some(Some((reply.clone(), results.clone()))),
            None => {
                cache.entries.insert(key, DedupeEntry::Executing);
                cache.order.push_back(key);
                // The whole window per stripe: a session's history must not
                // shrink with the stripe count (a retransmit of a batch
                // evicted early would execute twice).
                while cache.order.len() > self.config.dedupe_window {
                    if let Some(old) = cache.order.pop_front() {
                        if let Some(DedupeEntry::Done(_, buf)) = cache.entries.remove(&old) {
                            if cache.spare.len() < DEDUPE_SPARE_BUFFERS {
                                cache.spare.push(buf);
                            }
                        }
                    }
                }
                None
            }
        }
    }

    /// Record the outcome of a fresh batch: successes are cached for
    /// replay; failures clear the in-flight marker so a retry re-executes.
    pub(crate) fn dedupe_record(
        &self,
        header: &BatchHeader,
        outcome: &Result<(BatchReply, Vec<OpResult>)>,
    ) {
        match outcome {
            Ok((reply, results)) => self.dedupe_record_parts(header, Ok((reply, results))),
            Err(e) => self.dedupe_record_parts(header, Err(e)),
        }
    }

    /// [`Worker::dedupe_record`] over borrowed parts, for callers that keep
    /// results in a reusable buffer instead of an owned tuple.
    pub(crate) fn dedupe_record_parts(
        &self,
        header: &BatchHeader,
        outcome: std::result::Result<(&BatchReply, &[OpResult]), &DprError>,
    ) {
        let key = (header.session, header.first_serial);
        let mut cache = self.dedupe_stripe(header.session).lock();
        match outcome {
            Ok((reply, results)) => {
                let mut buf = cache.spare.pop().unwrap_or_default();
                buf.clear();
                buf.extend_from_slice(results);
                if let Some(entry) = cache.entries.get_mut(&key) {
                    *entry = DedupeEntry::Done(reply.clone(), buf);
                }
            }
            Err(_) => {
                if matches!(cache.entries.get(&key), Some(DedupeEntry::Executing)) {
                    cache.entries.remove(&key);
                    cache.order.retain(|k| k != &key);
                }
            }
        }
    }

    fn control_tick(&self, last_checkpoint: &mut Instant, poll_counter: &mut u32) {
        if let Some(interval) = self.config.checkpoint_interval {
            if last_checkpoint.elapsed() >= interval {
                let target = if self.config.dpr_enabled && self.config.fast_forward {
                    self.finder.max_version().ok()
                } else {
                    None
                };
                if self.store.request_commit(target) {
                    *last_checkpoint = Instant::now();
                }
            }
        }
        if self.config.dpr_enabled {
            let _ = self
                .server
                .pump_commits(self.store.as_ref(), self.finder.as_ref());
        }
        *poll_counter += 1;
        if (*poll_counter).is_multiple_of(4) {
            self.ownership.renew_leases(self.shard);
            self.check_recovery();
        }
        if (*poll_counter).is_multiple_of(512) && self.config.dpr_enabled {
            // GC durable log space the DPR cut has moved past (§5.5).
            if let Ok(cut) = self.finder.current_cut() {
                if let Some(&v) = cut.get(&self.shard) {
                    let _ = self.store.collect_garbage(v);
                }
            }
        }
    }

    /// Participate in cluster recovery (§4.1): if the cluster manager has
    /// begun a recovery we have not completed, roll back to the guaranteed
    /// cut, advance the world-line, and report completion.
    fn check_recovery(&self) {
        let Ok(Some(rec)) = self.meta.recovery_in_progress() else {
            return;
        };
        if !rec.pending.contains(&self.shard) || rec.world_line <= self.server.world_line() {
            return;
        }
        let target = rec.cut.get(&self.shard).copied().unwrap_or(Version::ZERO);
        if self.store.restore(target).is_ok() {
            self.server.on_restore(target);
            self.server.set_world_line(rec.world_line);
            // Cached replies carry the old world-line; never replay them
            // into the new one. Same for the lease caches: ownership may
            // have been reassigned around the failure, and the cached cut
            // belongs to the abandoned world-line.
            self.simulate_crash_restart();
            self.ownership_lease.invalidate();
            self.cut_lease.invalidate();
            crate::metrics::worker_rollbacks().inc();
            dpr_telemetry::global().span("dpr-cluster", "worker_rollback", || {
                format!(
                    "shard {} -> v{} (world-line {})",
                    self.shard.0, target.0, rec.world_line.0
                )
            });
            let _ = self.meta.report_rollback_complete(self.shard);
        }
    }
}

fn executor_loop(worker: &Weak<Worker>, inbox: &Receiver<Message>) {
    let mut recv_count = 0u32;
    loop {
        let Some(w) = worker.upgrade() else { return };
        if w.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Sample the gauge every ~64 receives: a telemetry store on every
        // message would ride the per-request hot path for a signal that only
        // needs trend resolution.
        if recv_count.is_multiple_of(64) {
            crate::metrics::worker_inbox_depth().set(inbox.len() as i64);
        }
        recv_count = recv_count.wrapping_add(1);
        match inbox.recv_timeout(Duration::from_millis(20)) {
            Ok(Message::Request(req)) => handle_request(&w, req),
            Ok(Message::Response(_)) => { /* workers do not expect responses */ }
            Err(_) => {}
        }
    }
}

fn handle_request(w: &Arc<Worker>, req: RequestMsg) {
    let RequestMsg {
        reply_to,
        header,
        ops,
    } = req;
    let dedupe = w.config.dedupe_window > 0;
    if dedupe {
        match w.dedupe_check(&header) {
            // First copy still executing; its reply is on the way.
            Some(None) => return,
            Some(Some(cached)) => {
                let _ = w.net.send(
                    reply_to,
                    Message::Response(ResponseMsg {
                        session: Some(header.session),
                        first_serial: header.first_serial,
                        op_count: header.op_count,
                        outcome: Ok(cached),
                    }),
                );
                return;
            }
            None => {}
        }
    }
    let outcome = w.execute_local(&header, &ops);
    if dedupe {
        w.dedupe_record(&header, &outcome);
    }
    let _ = w.net.send(
        reply_to,
        Message::Response(ResponseMsg {
            session: Some(header.session),
            first_serial: header.first_serial,
            op_count: header.op_count,
            outcome,
        }),
    );
}

fn control_loop(worker: &Weak<Worker>) {
    let mut last_checkpoint = Instant::now();
    let mut poll_counter = 0u32;
    loop {
        let Some(w) = worker.upgrade() else { return };
        if w.shutdown.load(Ordering::Acquire) {
            return;
        }
        w.control_tick(&mut last_checkpoint, &mut poll_counter);
        drop(w);
        std::thread::sleep(Duration::from_millis(1));
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.stop();
    }
}
