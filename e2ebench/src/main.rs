//! dpr-e2ebench — end-to-end DPR-over-TCP benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload ycsb_a_peak --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload against a real `NetServer` + `Cluster` child process
//! over loopback TCP, checks every result, and prints each metric with its
//! unit, then one JSON object as the last line of standard output. The
//! exit code is 0 only when every output check passed. `--trace 0` gives
//! the end-to-end metrics; `--trace 1` the per-layer metrics. See
//! `e2ebench/README.md` for the workloads, the metrics and what each
//! layer metric is expected to move.

mod load;
mod procfs;
mod prom;
mod replay;
mod server;
mod stats;
mod workload;

use load::{Conn, ConnResult, SliceClock};
use procfs::{Group, SchedStat, TaskSnapshot};
use prom::Scrape;
use server::ServerProc;
use stats::{percentiles_ns, ratio};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workload::{Workload, CONNECTIONS};

/// Server children per untraced run, each set up and measured in turn;
/// `setup_s` is the median of their set-up times.
const INSTANCES: usize = 8;
/// Gap between launching the load threads and the window's start.
const START_DELAY: Duration = Duration::from_millis(5);
/// Target length of one slice of a window, seconds.
const SLICE_S: f64 = 2.0;
/// Load offered before each window and left out of its figures, so caches
/// and the checkpoint cycle reach their steady state first.
const WARMUP: Duration = Duration::from_secs(1);
/// Batches the traced run replays in process.
const REPLAY_BATCHES: usize = 20_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |name: &str| flags.get(name).copied().ok_or(format!("missing {name}"));
    let name = get("--workload")?;
    let workload = workload::by_name(name).ok_or_else(|| {
        let known: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// A finished run: metrics plus the check outcome.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Everything one measured window produced.
struct WindowOutcome {
    conns: Vec<ConnResult>,
    clock: SliceClock,
    /// Server CPU per thread group over the window.
    groups: BTreeMap<Group, SchedStat>,
    /// Server CPU of each slice, ns.
    slice_server_ns: Vec<u64>,
    server_rss_mib: f64,
    /// Ops the server executed from the window's start to the end of the
    /// drain.
    executed: u64,
    /// Telemetry scrapes at the window's start and end (traced windows
    /// only), taken with the schedstat snapshots at the same edges.
    scrapes: Option<(Scrape, Scrape)>,
}

impl WindowOutcome {
    fn seconds(&self) -> f64 {
        (self.clock.len * self.clock.count as u32).as_secs_f64()
    }

    fn slice_ops(&self, i: usize) -> u64 {
        self.conns.iter().map(|c| c.slice_ops[i]).sum()
    }

    fn ops_in_window(&self) -> u64 {
        (0..self.clock.count).map(|i| self.slice_ops(i)).sum()
    }

    fn ops_per_s(&self) -> f64 {
        self.ops_in_window() as f64 / self.seconds()
    }

    /// Share of the request frames sent in the window that were cut
    /// requests rather than batches.
    fn cut_frame_frac(&self) -> f64 {
        let cuts: u64 = self.conns.iter().map(|c| c.window_cuts).sum();
        let batches: u64 = self.conns.iter().map(|c| c.window_batches).sum();
        ratio(cuts as f64, (cuts + batches) as f64)
    }

    fn attempted(&self) -> u64 {
        self.conns.iter().map(|c| c.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.conns
            .iter()
            .map(|c| c.errors + c.unanswered + c.uncommitted)
            .sum()
    }

    /// The output checks; each failure is described on standard error.
    fn checks_pass(&self, label: &str) -> bool {
        let mut ok = true;
        let mismatches: u64 = self.conns.iter().map(|c| c.mismatches).sum();
        if mismatches > 0 {
            eprintln!("CHECK FAILED [{label}]: {mismatches} batches read a value other than the range's last upsert or preload");
            ok = false;
        }
        let completed: u64 = self.conns.iter().map(|c| c.ops_completed).sum();
        if self.executed != completed {
            eprintln!(
                "CHECK FAILED [{label}]: server executed {} ops, the clients completed {completed} (exactly-once)",
                self.executed
            );
            ok = false;
        }
        let uncommitted: u64 = self.conns.iter().map(|c| c.uncommitted).sum();
        if uncommitted > 0 {
            eprintln!("CHECK FAILED [{label}]: {uncommitted} completed batches did not commit before the commit deadline");
            ok = false;
        }
        for c in &self.conns {
            for e in [&c.first_error, &c.first_mismatch].into_iter().flatten() {
                eprintln!("[{label}] {e}");
            }
        }
        ok
    }
}

/// Connect and preload every connection in parallel.
fn setup_conns(addr: std::net::SocketAddr, w: &Workload, seed: u64) -> Result<Vec<Conn>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| s.spawn(move || load::setup_conn(addr, w, seed, c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "setup thread panicked".to_string())?)
            .collect()
    })
}

/// Run one window of `seconds` on every connection, reading the server's
/// CPU at every slice edge and, in a traced window, its telemetry at the
/// window's start and end, so that both cover exactly the span whose ops
/// and seconds they are divided by.
fn measure_window(
    proc: &mut ServerProc,
    conns: &mut [Conn],
    w: &Workload,
    seconds: f64,
    traced: bool,
) -> Result<WindowOutcome, String> {
    let executed0 = proc.executed_ops()?;
    if traced {
        proc.set_telemetry(true)?;
    }
    let clock = SliceClock::new(Instant::now() + START_DELAY + WARMUP, seconds, SLICE_S);
    let pid = proc.pid();
    let load = w.load;
    let (conn_results, edges) = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, c)| s.spawn(move || load::run_window(c, load, i, clock, WARMUP, traced)))
            .collect();
        // Server threads' CPU at every slice boundary; telemetry text at
        // the first and the last.
        let edges = (|| -> Result<_, String> {
            let mut snaps = Vec::with_capacity(clock.count + 1);
            let mut prom = Vec::with_capacity(2);
            for k in 0..=clock.count {
                let at = clock.start + clock.len * k as u32;
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                snaps.push(TaskSnapshot::read(pid).map_err(|e| format!("read tasks: {e}"))?);
                if traced && (k == 0 || k == clock.count) {
                    prom.push(proc.scrape()?);
                }
            }
            let rss = procfs::peak_rss_mib(pid).map_err(|e| format!("read rss: {e}"))?;
            let slices = snaps
                .windows(2)
                .map(|p| procfs::total_run_ns(&p[1].since(&p[0])))
                .collect::<Vec<_>>();
            Ok((snaps[clock.count].since(&snaps[0]), slices, rss, prom))
        })();
        let results: Result<Vec<ConnResult>, String> = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "load thread panicked".to_string())?)
            .collect();
        (results, edges)
    });
    let conns_out = conn_results?;
    let (groups, slice_server_ns, server_rss_mib, prom) = edges?;
    let scrapes = match <[String; 2]>::try_from(prom) {
        Ok([before, after]) => {
            proc.set_telemetry(false)?;
            Some((Scrape::parse(&before), Scrape::parse(&after)))
        }
        Err(_) => None,
    };
    let executed = proc.executed_ops()? - executed0;
    Ok(WindowOutcome {
        conns: conns_out,
        clock,
        groups,
        slice_server_ns,
        server_rss_mib,
        executed,
        scrapes,
    })
}

/// One per-connection sample set, gathered over connections.
fn concat(conns: &[ConnResult], f: impl Fn(&ConnResult) -> &Vec<u64>) -> Vec<u64> {
    conns.iter().flat_map(|c| f(c).iter().copied()).collect()
}

/// The untraced run: end-to-end metrics. The run's seconds are split over
/// `INSTANCES` server children, each set up from scratch and measured in
/// turn, because some figures (commit latency above all) depend on the
/// phase of each shard's checkpoint timer, which is fixed per process.
/// Latency percentiles are exact per instance (every sample kept) and the
/// run reports their median over instances; throughput and CPU per op are
/// computed per slice of each window and the run reports the mean of the
/// middle half of all slices. A burst of interference from outside then
/// moves one instance or slice, not the result.
fn run_e2e(a: &Args) -> Result<Report, String> {
    let w = &a.workload;
    let mut setups = Vec::with_capacity(INSTANCES);
    let mut rss = Vec::with_capacity(INSTANCES);
    let (mut slice_ops_s, mut slice_cpu) = (Vec::new(), Vec::new());
    // Per instance: op p50, p90, p99, commit p50, p99.
    let mut lat: [Vec<f64>; 5] = Default::default();
    let mut min_samples = usize::MAX;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for _ in 0..INSTANCES {
        let t0 = Instant::now();
        let mut proc = ServerProc::spawn(w.memory_budget_records)?;
        let mut conns = setup_conns(proc.addr(), w, a.seed)?;
        // Set-up ends when the preload has committed and load can start.
        setups.push(t0.elapsed().as_secs_f64());
        let out = measure_window(
            &mut proc,
            &mut conns,
            w,
            a.seconds / INSTANCES as f64,
            false,
        )?;
        drop(conns);
        proc.stop();
        correct &= out.checks_pass(w.name);
        attempted += out.attempted();
        failed += out.failed();
        rss.push(out.server_rss_mib);
        let op = percentiles_ns(&concat(&out.conns, |c| &c.op_lat_ns), 1e3);
        let commit = percentiles_ns(&concat(&out.conns, |c| &c.commit_lat_ns), 1e6);
        min_samples = min_samples.min(op.count).min(commit.count);
        for (acc, v) in lat
            .iter_mut()
            .zip([op.p50, op.p90, op.p99, commit.p50, commit.p99])
        {
            acc.push(v);
        }
        let slice_s = out.clock.len.as_secs_f64();
        for i in 0..out.clock.count {
            let ops = out.slice_ops(i) as f64;
            slice_ops_s.push(ops / slice_s);
            slice_cpu.push(ratio(out.slice_server_ns[i] as f64 / 1e3, ops));
        }
    }
    eprintln!(
        "{}: {attempted} batches attempted, {failed} failed; {INSTANCES} server instances, each with >= {min_samples} op- and commit-latency samples; op p99 per instance {:?} us; ops/s per slice {:?}; setups {setups:?} s",
        w.name,
        lat[2].iter().map(|v| v.round()).collect::<Vec<_>>(),
        slice_ops_s.iter().map(|v| v.round()).collect::<Vec<_>>()
    );
    let [mut op50, mut op90, mut op99, mut c50, mut c99] = lat;
    // Printed, not metrics, because they do not repeat closely enough
    // between runs to gate on (see README.md): the latency tail is set by
    // rare stalls and host CPU steal, and on a closed loop throughput and
    // the memory the log grows to follow the CPU time the host leaves the
    // VM, which varied up to 2x between runs.
    for (name, value, unit) in [
        (
            "ops_per_s",
            stats::interquartile_mean(&mut slice_ops_s),
            "ops/s",
        ),
        ("server_rss_mb", stats::median(&mut rss), "MiB"),
        ("op_p90_us", stats::median(&mut op90), "us"),
        ("op_p99_us", stats::median(&mut op99), "us"),
    ] {
        println!("{name:<32} {value:>16.4} {unit} (not gated)");
    }
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: stats::median(&mut setups),
            unit: "s",
        },
        Metric {
            name: "op_p50_us",
            value: stats::median(&mut op50),
            unit: "us",
        },
        Metric {
            name: "commit_p50_ms",
            value: stats::median(&mut c50),
            unit: "ms",
        },
        Metric {
            name: "commit_p99_ms",
            value: stats::median(&mut c99),
            unit: "ms",
        },
        Metric {
            name: "ok_frac",
            value: 1.0 - ratio(failed as f64, attempted as f64),
            unit: "fraction",
        },
        Metric {
            name: "server_cpu_us_per_op",
            value: stats::interquartile_mean(&mut slice_cpu),
            unit: "us/op",
        },
    ];
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// The traced run: per-layer metrics.
fn run_traced(a: &Args) -> Result<Report, String> {
    let w = &a.workload;
    let mut proc = ServerProc::spawn(w.memory_budget_records)?;
    let mut conns = setup_conns(proc.addr(), w, a.seed)?;
    let half = a.seconds / 2.0;
    let plain = measure_window(&mut proc, &mut conns, w, half, false)?;
    let traced = measure_window(&mut proc, &mut conns, w, half, true)?;
    drop(conns);
    proc.stop();
    let correct = plain.checks_pass(w.name) & traced.checks_pass(w.name);
    let costs = replay::replay(w, a.seed, REPLAY_BATCHES)?;

    // Thread CPU comes from the untraced window, so the telemetry timers'
    // own cost is not charged to any layer; telemetry from the traced one.
    let p = &plain;
    let p_ops = p.ops_in_window() as f64;
    let per_op = |g: Group| ratio(p.groups[&g].run_ns as f64, p_ops);
    let t = &traced;
    let ops = t.ops_in_window() as f64;
    let secs = t.seconds();
    let (before, after) = t.scrapes.as_ref().expect("traced window scrapes");
    let counter = |name: &str| after.counter_since(before, name);
    let hist_p50 = |name: &str| after.hist_since(before, name).quantile(0.5);
    let late = percentiles_ns(&concat(&t.conns, |c| &c.late_ns), 1e3);
    let issue = percentiles_ns(&concat(&t.conns, |c| &c.issue_ns), 1.0);
    let poll_ns: u64 = t.conns.iter().map(|c| c.poll_ns).sum();
    let polled: u64 = t.conns.iter().map(|c| c.polled_batches).sum();
    let client_cpu: u64 = p.conns.iter().map(|c| c.cpu_ns).sum();
    let io_cpu = per_op(Group::NetIo);
    let replayed_path_per_op = ratio(
        costs.decode_ns + costs.worker_ns + costs.encode_ns,
        costs.ops_per_batch,
    );
    let metrics = vec![
        Metric {
            name: "loadgen.late_p50_us",
            value: late.p50,
            unit: "us",
        },
        Metric {
            name: "loadgen.late_p99_us",
            value: late.p99,
            unit: "us",
        },
        Metric {
            name: "loadgen.cut_frame_frac",
            value: p.cut_frame_frac(),
            unit: "fraction",
        },
        Metric {
            name: "tcp.issue_ns_p50",
            value: issue.p50,
            unit: "ns",
        },
        Metric {
            name: "tcp.poll_ns_per_batch",
            value: ratio(poll_ns as f64, polled as f64),
            unit: "ns/batch",
        },
        Metric {
            name: "tcp.client_cpu_ns_per_op",
            value: ratio(client_cpu as f64, p_ops),
            unit: "ns/op",
        },
        Metric {
            name: "wire.decode_req_ns_per_batch",
            value: costs.decode_ns,
            unit: "ns/batch",
        },
        Metric {
            name: "wire.encode_resp_ns_per_batch",
            value: costs.encode_ns,
            unit: "ns/batch",
        },
        Metric {
            name: "wire.frame_bytes_per_op",
            value: ratio(after.hist_since(before, "dpr_net_frame_bytes").sum, ops),
            unit: "bytes/op",
        },
        Metric {
            name: "net.io_cpu_ns_per_op",
            value: io_cpu,
            unit: "ns/op",
        },
        Metric {
            name: "net.io_runq_wait_ns_per_op",
            value: ratio(p.groups[&Group::NetIo].wait_ns as f64, p_ops),
            unit: "ns/op",
        },
        Metric {
            name: "net.io_other_ns_per_op",
            value: io_cpu - replayed_path_per_op,
            unit: "ns/op",
        },
        Metric {
            name: "worker.execute_ns_per_batch",
            value: costs.worker_ns,
            unit: "ns/batch",
        },
        Metric {
            name: "gate.self_ns_per_batch",
            value: costs.worker_ns - costs.store_ns,
            unit: "ns/batch",
        },
        Metric {
            name: "gate.validate_delay_frac",
            value: ratio(
                counter("dpr_server_validate_delay_total"),
                counter("dpr_server_validate_execute_total"),
            ),
            unit: "fraction",
        },
        Metric {
            name: "gate.commit_latency_p50_ms",
            value: hist_p50("dpr_server_commit_latency_us") / 1e3,
            unit: "ms",
        },
        Metric {
            name: "worker_ctl.cpu_ns_per_op",
            value: per_op(Group::WorkerCtl),
            unit: "ns/op",
        },
        Metric {
            name: "store.execute_ns_per_op",
            value: ratio(costs.store_ns, costs.ops_per_batch),
            unit: "ns/op",
        },
        Metric {
            name: "store.maint_cpu_ns_per_op",
            value: per_op(Group::FasterMaint),
            unit: "ns/op",
        },
        Metric {
            name: "store.checkpoint_ms_p50",
            value: hist_p50("dpr_faster_checkpoint_total_us") / 1e3,
            unit: "ms",
        },
        Metric {
            name: "store.backpressure_stalls",
            value: counter("dpr_faster_log_backpressure_stalls_total"),
            unit: "count",
        },
        Metric {
            name: "finder.cpu_ms_per_s",
            value: p.groups[&Group::Finder].run_ns as f64 / 1e6 / p.seconds(),
            unit: "ms/s",
        },
        Metric {
            name: "finder.refresh_us_p50",
            value: hist_p50("dpr_finder_refresh_us"),
            unit: "us",
        },
        Metric {
            name: "finder.cut_lag_versions",
            value: hist_p50("dpr_finder_cut_lag_versions"),
            unit: "versions",
        },
        Metric {
            name: "metadata.statements_per_s",
            value: counter("dpr_metadata_statements_total") / secs,
            unit: "1/s",
        },
        Metric {
            name: "metadata.statement_us_p50",
            value: hist_p50("dpr_metadata_statement_us"),
            unit: "us",
        },
        Metric {
            name: "server.other_cpu_ns_per_op",
            value: per_op(Group::Other),
            unit: "ns/op",
        },
        Metric {
            name: "trace.overhead_frac",
            value: 1.0 - ratio(traced.ops_per_s(), plain.ops_per_s()),
            unit: "fraction",
        },
    ];
    eprintln!(
        "{}: traced window {} ops; replay {:.1} ops/batch",
        w.name,
        t.ops_in_window(),
        costs.ops_per_batch
    );
    Ok(Report {
        correct,
        attempted: plain.attempted() + traced.attempted(),
        failed: plain.failed() + traced.failed(),
        metrics,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--serve") {
        let budget = match argv.get(1..3) {
            Some([flag, n]) if flag == "--budget" => n.parse().ok(),
            _ => None,
        };
        if let Err(e) = server::serve(budget) {
            eprintln!("server: {e}");
            std::process::exit(2);
        }
        return;
    }
    let report = parse_args(&argv).and_then(|a| if a.trace { run_traced(&a) } else { run_e2e(&a) });
    match report {
        Ok(r) => {
            for m in &r.metrics {
                println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", r.json());
            std::process::exit(if r.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("dpr-e2ebench: {e}");
            std::process::exit(2);
        }
    }
}
