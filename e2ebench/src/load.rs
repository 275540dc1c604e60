//! The load generator: one thread per connection, each connection one
//! `PipelinedClient` (one DPR session).
//!
//! * Open loop: batches are due on a fixed schedule. Latency is measured
//!   from the *intended* send time, so a stall is charged to every batch
//!   it delays, and the lateness of each send is recorded. `poll_each` is
//!   only entered while a batch is in flight; with nothing in flight the
//!   thread sleeps until the next send. `PipelinedClient` clamps every
//!   socket wait to at least 1 ms, and the kernel rounds a socket timeout
//!   up to whole scheduler ticks (8 ms at `HZ=250`), so a poll that finds
//!   no response can overrun the next send; that shows as lateness. A cut
//!   reply that arrives while the thread sleeps is read by the poll after
//!   the next send, so a commit sample can be stamped up to one send
//!   period late.
//! * Closed loop: each connection keeps a fixed window of batches in
//!   flight; latency is measured from issue.
//!
//! Cut requests go out every [`CUT_PERIOD`] in both modes. A batch's
//! commit latency runs from the same start point to the return of the
//! `poll_each` after which the session's committed prefix covers the
//! batch's last serial.

use crate::procfs;
use crate::workload::{
    preload_batches, results_match, Expect, Load, OpStream, Workload, BATCH, CUT_PERIOD,
};
use dpr_cluster::{ClusterOp, PipelinedClient};
use dpr_core::SessionId;
use libdpr::DprClientSession;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// How long after the window in-flight batches may still be answered.
pub const DRAIN_DEADLINE: Duration = Duration::from_secs(5);
/// How long after the drain every completed batch must have committed.
pub const COMMIT_DEADLINE: Duration = Duration::from_secs(10);
/// Preload batch size and window.
const PRELOAD_BATCH: usize = 64;
const PRELOAD_WINDOW: usize = 16;
/// The smallest socket wait `PipelinedClient::poll_each` honours.
const MIN_POLL_WAIT: Duration = Duration::from_millis(1);
/// The open loop sleeps until this long before a send, then spins.
const SPIN: Duration = Duration::from_micros(60);

/// One connection: its client, op stream and reusable buffers.
pub struct Conn {
    client: PipelinedClient,
    stream: OpStream,
    ops: Vec<ClusterOp>,
    expect: Vec<Expect>,
}

/// Connect connection `conn`, preload its key ranges, and wait until the
/// preload has committed.
pub fn setup_conn(addr: SocketAddr, w: &Workload, seed: u64, conn: usize) -> Result<Conn, String> {
    let session = DprClientSession::new(SessionId(conn as u64 + 1));
    let mut client =
        PipelinedClient::connect(session, addr).map_err(|e| format!("connect: {e}"))?;
    let mut failure: Option<String> = None;
    for (shard, ops) in preload_batches(w, conn, PRELOAD_BATCH) {
        while client.inflight() >= PRELOAD_WINDOW {
            client
                .poll_each(MIN_POLL_WAIT, |d| check_preload(&d, &mut failure))
                .map_err(|e| format!("preload poll: {e}"))?;
        }
        client
            .issue(shard, &ops)
            .map_err(|e| format!("preload issue: {e}"))?;
    }
    let deadline = Instant::now() + DRAIN_DEADLINE + COMMIT_DEADLINE;
    loop {
        if let Some(f) = failure.take() {
            return Err(f);
        }
        let idle = client.inflight() == 0;
        let session = client.session_mut();
        if idle && session.committed_prefix() >= session.issued() {
            break;
        }
        if Instant::now() > deadline {
            return Err("preload did not commit before its deadline".into());
        }
        client
            .request_cut()
            .map_err(|e| format!("request cut: {e}"))?;
        client
            .poll_each(CUT_PERIOD, |d| check_preload(&d, &mut failure))
            .map_err(|e| format!("preload poll: {e}"))?;
    }
    Ok(Conn {
        client,
        stream: OpStream::new(w, seed, conn),
        ops: Vec::with_capacity(BATCH),
        expect: Vec::with_capacity(BATCH),
    })
}

/// Note the first preload batch that failed or answered anything but
/// `Done` for every upsert.
fn check_preload(done: &dpr_cluster::CompletedRef<'_>, failure: &mut Option<String>) {
    let problem = match &done.result {
        Ok(results) if results.iter().all(|r| *r == dpr_cluster::OpResult::Done) => return,
        Ok(_) => "preload upsert returned a value".to_string(),
        Err(e) => format!("preload batch failed: {e}"),
    };
    failure.get_or_insert(problem);
}

/// Splits a window into equal slices; per-slice rates are combined by
/// their interquartile mean, so a short disturbance moves one slice, not
/// the result.
#[derive(Debug, Clone, Copy)]
pub struct SliceClock {
    /// Start of the window.
    pub start: Instant,
    /// Length of one slice.
    pub len: Duration,
    /// Number of slices.
    pub count: usize,
}

impl SliceClock {
    /// `seconds` split into slices of about `slice_s` (at least one).
    #[must_use]
    pub fn new(start: Instant, seconds: f64, slice_s: f64) -> SliceClock {
        let count = ((seconds / slice_s).round() as usize).max(1);
        SliceClock {
            start,
            len: Duration::from_secs_f64(seconds / count as f64),
            count,
        }
    }

    /// End of the window.
    #[must_use]
    pub fn end(&self) -> Instant {
        self.start + self.len * self.count as u32
    }

    /// The slice holding instant `t`, or `None` outside the window.
    #[must_use]
    pub fn index(&self, t: Instant) -> Option<usize> {
        let since = t.checked_duration_since(self.start)?;
        let i = (since.as_nanos() / self.len.as_nanos()) as usize;
        (i < self.count).then_some(i)
    }
}

/// What one connection measured over one window.
#[derive(Debug, Default)]
pub struct ConnResult {
    /// Completion latency of each batch started in the window, ns.
    pub op_lat_ns: Vec<u64>,
    /// Commit latency of each batch started in the window, ns.
    pub commit_lat_ns: Vec<u64>,
    /// Ops completed during each slice of the window.
    pub slice_ops: Vec<u64>,
    /// Send lateness against the schedule (open loop only), ns.
    pub late_ns: Vec<u64>,
    /// Batches issued in the window.
    pub attempted: u64,
    /// Batches answered with an error.
    pub errors: u64,
    /// Batches still unanswered at the drain deadline.
    pub unanswered: u64,
    /// Completed batches not committed by the commit deadline.
    pub uncommitted: u64,
    /// Batches whose results differ from the reference model.
    pub mismatches: u64,
    /// Ops completed successfully, window and drain together.
    pub ops_completed: u64,
    /// Batches sent during the window.
    pub window_batches: u64,
    /// Cut requests sent during the window.
    pub window_cuts: u64,
    /// This thread's CPU time over the window, ns.
    pub cpu_ns: u64,
    /// Duration of each `issue` call, ns (traced windows only).
    pub issue_ns: Vec<u64>,
    /// Time spent inside `poll_each` during the window, ns (traced only).
    pub poll_ns: u64,
    /// Batches those `poll_each` calls delivered (traced only).
    pub polled_batches: u64,
    /// The first error seen, for the log.
    pub first_error: Option<String>,
    /// The first batch whose results differed from the model, for the log.
    pub first_mismatch: Option<String>,
}

/// A batch awaiting its response.
struct Inflight {
    seq: u64,
    start: Instant,
    end_serial: u64,
    expect: [Expect; BATCH],
    len: usize,
}

/// Per-window state threaded through the loop helpers.
struct Window {
    res: ConnResult,
    inflight: VecDeque<Inflight>,
    /// Completed batches awaiting commit: `(end serial, start)`.
    uncommitted: VecDeque<(u64, Instant)>,
    clock: SliceClock,
    traced: bool,
}

impl Window {
    fn issue(&mut self, c: &mut Conn, start: Instant) -> Result<(), String> {
        let shard = c.stream.next_batch(&mut c.ops, &mut c.expect);
        let t = Instant::now();
        let seq = c
            .client
            .issue(shard, &c.ops)
            .map_err(|e| format!("issue: {e}"))?;
        if self.traced {
            self.res.issue_ns.push(t.elapsed().as_nanos() as u64);
        }
        if self.clock.index(t).is_some() {
            self.res.window_batches += 1;
        }
        let mut expect = [Expect::Done; BATCH];
        expect[..c.expect.len()].copy_from_slice(&c.expect);
        self.inflight.push_back(Inflight {
            seq,
            start,
            end_serial: c.client.session_mut().issued(),
            expect,
            len: c.expect.len(),
        });
        self.res.attempted += 1;
        Ok(())
    }

    fn poll(&mut self, c: &mut Conn, wait: Duration) -> Result<(), String> {
        let t = Instant::now();
        let in_window = self.clock.index(t).is_some();
        let Window {
            res,
            inflight,
            uncommitted,
            clock,
            ..
        } = self;
        let delivered = c
            .client
            .poll_each(wait, |done| {
                let now = Instant::now();
                let Some(pos) = inflight.iter().position(|b| b.seq == done.seq) else {
                    return;
                };
                let b = inflight.remove(pos).expect("position is in range");
                match done.result {
                    Ok(results) => {
                        if !results_match(&b.expect[..b.len], results) {
                            res.mismatches += 1;
                            res.first_mismatch.get_or_insert_with(|| {
                                format!("expected {:?}, got {results:?}", &b.expect[..b.len])
                            });
                        }
                        let n = results.len() as u64;
                        res.ops_completed += n;
                        if clock.index(b.start).is_some() {
                            res.op_lat_ns
                                .push(now.duration_since(b.start).as_nanos() as u64);
                        }
                        if let Some(i) = clock.index(now) {
                            res.slice_ops[i] += n;
                        }
                        uncommitted.push_back((b.end_serial, b.start));
                    }
                    Err(e) => {
                        res.errors += 1;
                        res.first_error
                            .get_or_insert_with(|| format!("batch error: {e}"));
                    }
                }
            })
            .map_err(|e| format!("poll: {e}"))?;
        let now = Instant::now();
        if self.traced && in_window {
            self.res.poll_ns += now.duration_since(t).as_nanos() as u64;
            self.res.polled_batches += delivered as u64;
        }
        let prefix = c.client.session_mut().committed_prefix();
        while let Some(&(end_serial, start)) = self.uncommitted.front() {
            if end_serial > prefix {
                break;
            }
            self.uncommitted.pop_front();
            if self.clock.index(start).is_some() {
                self.res
                    .commit_lat_ns
                    .push(now.duration_since(start).as_nanos() as u64);
            }
        }
        Ok(())
    }

    /// Send a cut request and advance the timer past `now`, skipping
    /// ticks missed while the thread was busy.
    fn request_cut(
        &mut self,
        c: &mut Conn,
        next_cut: &mut Instant,
        now: Instant,
    ) -> Result<(), String> {
        c.client
            .request_cut()
            .map_err(|e| format!("request cut: {e}"))?;
        if self.clock.index(now).is_some() {
            self.res.window_cuts += 1;
        }
        while *next_cut <= now {
            *next_cut += CUT_PERIOD;
        }
        Ok(())
    }
}

/// Drive one connection under `load` from `warmup` before the window of
/// `clock` to its end, then drain it and wait for every completed batch to
/// commit. Latency, throughput and CPU count only inside the window;
/// attempts, failures and checks cover the warm-up too. `conn` offsets the
/// open loop's schedule so connections do not send in lockstep.
pub fn run_window(
    c: &mut Conn,
    load: Load,
    conn: usize,
    clock: SliceClock,
    warmup: Duration,
    traced: bool,
) -> Result<ConnResult, String> {
    let (start, end) = (clock.start - warmup, clock.end());
    let mut w = Window {
        res: ConnResult {
            slice_ops: vec![0; clock.count],
            ..ConnResult::default()
        },
        inflight: VecDeque::new(),
        uncommitted: VecDeque::new(),
        clock,
        traced,
    };
    if let Some(d) = start.checked_duration_since(Instant::now()) {
        std::thread::sleep(d);
    }
    let mut cpu0 = None;
    let mut next_cut = start;
    match load {
        Load::Open { ops_per_s } => {
            let per_conn = ops_per_s / crate::workload::CONNECTIONS as f64;
            let period = Duration::from_secs_f64(BATCH as f64 / per_conn);
            let mut next_due =
                start + period.mul_f64(conn as f64 / crate::workload::CONNECTIONS as f64);
            loop {
                let now = Instant::now();
                if now >= end {
                    break;
                }
                if cpu0.is_none() && now >= clock.start {
                    cpu0 = Some(procfs::thread_self().run_ns);
                }
                if now >= next_due {
                    w.res
                        .late_ns
                        .push(now.duration_since(next_due).as_nanos() as u64);
                    w.issue(c, next_due)?;
                    next_due += period;
                    continue;
                }
                if now >= next_cut {
                    w.request_cut(c, &mut next_cut, now)?;
                    continue;
                }
                let mut until = next_due.min(end);
                if next_cut.saturating_duration_since(now) >= MIN_POLL_WAIT {
                    until = until.min(next_cut);
                }
                let remaining = until.saturating_duration_since(now);
                if !w.inflight.is_empty() {
                    // Returns as soon as a response arrives; may overrun
                    // `remaining` if none does (the socket timeout is at
                    // least MIN_POLL_WAIT, rounded up to scheduler ticks),
                    // which the next send's lateness records.
                    w.poll(c, remaining)?;
                } else if remaining > SPIN {
                    std::thread::sleep(remaining - SPIN);
                } else {
                    std::hint::spin_loop();
                }
            }
        }
        Load::Closed { window } => loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            if cpu0.is_none() && now >= clock.start {
                cpu0 = Some(procfs::thread_self().run_ns);
            }
            while w.inflight.len() < window {
                w.issue(c, Instant::now())?;
            }
            if now >= next_cut {
                w.request_cut(c, &mut next_cut, now)?;
            }
            w.poll(c, MIN_POLL_WAIT)?;
        },
    }
    let cpu1 = procfs::thread_self().run_ns;
    w.res.cpu_ns = cpu1 - cpu0.unwrap_or(cpu1);

    // Drain, then wait for commits; cut requests keep their timer.
    let drain_deadline = end + DRAIN_DEADLINE;
    let mut commit_deadline = None;
    loop {
        let now = Instant::now();
        if w.inflight.is_empty() && commit_deadline.is_none() {
            commit_deadline = Some(now + COMMIT_DEADLINE);
        }
        if w.inflight.is_empty() && w.uncommitted.is_empty() {
            break;
        }
        if !w.inflight.is_empty() && now >= drain_deadline {
            w.res.unanswered = w.inflight.len() as u64;
            w.inflight.clear();
            commit_deadline = Some(now + COMMIT_DEADLINE);
        }
        if commit_deadline.is_some_and(|d| now >= d) {
            w.res.uncommitted = w.uncommitted.len() as u64;
            break;
        }
        if now >= next_cut {
            w.request_cut(c, &mut next_cut, now)?;
        }
        w.poll(c, MIN_POLL_WAIT)?;
    }
    Ok(w.res)
}
