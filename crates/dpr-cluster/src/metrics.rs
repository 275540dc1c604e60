//! Metric accessors for the cluster layer.
//!
//! Every metric defined here is documented (name, unit, paper
//! cross-reference) in `docs/OBSERVABILITY.md`; keep the two in sync.

use dpr_telemetry::metric_fn;

metric_fn!(
    /// Batches executed by workers (local + remote).
    pub(crate) fn batches() -> Counter =
        ("dpr_cluster_batches_total", Count,
         "Batches executed by workers")
);

metric_fn!(
    /// Operations per executed batch (the Fig. 13 batching axis `b`).
    pub(crate) fn batch_ops() -> Histogram =
        ("dpr_cluster_batch_ops", Ops,
         "Operations per executed batch")
);

metric_fn!(
    /// Depth of a worker's request inbox, sampled by executor threads every
    /// ~64 receives (not per message — the gauge must not ride the hot path).
    pub(crate) fn worker_inbox_depth() -> Gauge =
        ("dpr_cluster_worker_inbox_depth", Count,
         "Requests queued in a worker inbox (sampled every ~64 receives)")
);

metric_fn!(
    /// Messages queued in the simulated network's delay heap.
    pub(crate) fn net_inflight() -> Gauge =
        ("dpr_cluster_net_inflight", Count,
         "Messages in flight on the simulated network (delay heap depth)")
);

metric_fn!(
    /// Messages dropped by an injected lossy-link fault (chaos harness).
    pub(crate) fn net_dropped() -> Counter =
        ("dpr_cluster_net_dropped_total", Count,
         "Messages dropped by injected lossy-link faults")
);

metric_fn!(
    /// Messages currently parked behind a partitioned-link fault.
    pub(crate) fn net_parked() -> Gauge =
        ("dpr_cluster_net_parked", Count,
         "Messages held behind partitioned links (released on heal)")
);

metric_fn!(
    /// TCP connections currently held by network-plane I/O threads.
    pub(crate) fn net_conns_active() -> Gauge =
        ("dpr_net_conns_active", Count,
         "Open network-plane TCP connections (accepted minus closed)")
);

metric_fn!(
    /// Frames sent by the network plane (server side).
    pub(crate) fn net_frames_tx() -> Counter =
        ("dpr_net_frames_tx_total", Count,
         "Wire frames transmitted by the network plane")
);

metric_fn!(
    /// Frames received by the network plane (server side).
    pub(crate) fn net_frames_rx() -> Counter =
        ("dpr_net_frames_rx_total", Count,
         "Wire frames received by the network plane")
);

metric_fn!(
    /// Encoded size of every frame crossing the network plane, both
    /// directions (header + body).
    pub(crate) fn net_frame_bytes() -> Histogram =
        ("dpr_net_frame_bytes", Bytes,
         "Encoded wire-frame sizes (header + body, both directions)")
);

metric_fn!(
    /// Times a network-plane I/O thread found no work after spinning and
    /// blocked in `ppoll(2)` until a socket or its wake handle was ready.
    pub(crate) fn net_io_waits() -> Counter =
        ("dpr_net_io_waits_total", Count,
         "Blocking readiness waits by network-plane I/O threads")
);

metric_fn!(
    /// Protocol-level rejections emitted as Error frames (bad magic or
    /// version, handshake violations, stale epochs, unknown shards,
    /// duplicate-in-flight).
    pub(crate) fn net_frame_rejects() -> Counter =
        ("dpr_net_frame_rejects_total", Count,
         "Error frames sent for protocol-level rejections")
);

metric_fn!(
    /// Ownership-lease cache refills: the worker re-snapshotted the shared
    /// ownership table (epoch moved, lease expired, or explicit invalidate).
    pub(crate) fn lease_refills() -> Counter =
        ("dpr_cluster_lease_refills_total", Count,
         "Worker ownership-lease cache refills from the shared table")
);

metric_fn!(
    /// Explicit lease-cache invalidations (ownership or cut), driven by
    /// recovery and membership changes.
    pub(crate) fn lease_invalidations() -> Counter =
        ("dpr_cluster_lease_invalidations_total", Count,
         "Explicit worker lease-cache invalidations (recovery, membership change)")
);

metric_fn!(
    /// Cluster recoveries completed (§4.1).
    pub(crate) fn recoveries() -> Counter =
        ("dpr_cluster_recoveries_total", Count,
         "Cluster recoveries driven to completion")
);

metric_fn!(
    /// Whole-cluster recovery duration, failure trigger to all-workers-done.
    pub(crate) fn recovery_duration() -> Histogram =
        ("dpr_cluster_recovery_us", Micros,
         "Cluster recovery duration from trigger_failure to the last rollback report")
);

metric_fn!(
    /// Per-worker rollbacks performed during recoveries.
    pub(crate) fn worker_rollbacks() -> Counter =
        ("dpr_cluster_worker_rollbacks_total", Count,
         "Worker rollbacks to the guaranteed cut during recovery")
);
