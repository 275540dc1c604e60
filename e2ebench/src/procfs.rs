//! CPU and memory accounting read from `/proc`, from outside the measured
//! program.
//!
//! `/proc/<pid>/task/<tid>/schedstat` holds three numbers per thread: time
//! spent on a CPU (ns), time spent runnable but waiting on a run queue
//! (ns), and the number of time slices. Threads are grouped by the name
//! the program gives them (`comm`), which maps each thread to a layer.

use std::collections::BTreeMap;
use std::path::Path;

/// One thread's cumulative scheduler statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Nanoseconds spent running on a CPU.
    pub run_ns: u64,
    /// Nanoseconds spent runnable, waiting for a CPU.
    pub wait_ns: u64,
}

/// Parse the text of a `schedstat` file (`"<run> <wait> <slices>\n"`).
#[must_use]
pub fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut it = text.split_whitespace();
    let run_ns = it.next()?.parse().ok()?;
    let wait_ns = it.next()?.parse().ok()?;
    Some(SchedStat { run_ns, wait_ns })
}

/// The layer a server thread belongs to, by thread name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Group {
    /// `dpr-net-io-*`: `NetServer` I/O threads (decode, execute, encode).
    NetIo,
    /// `worker-*-ctl`: per-shard control threads (checkpoint trigger,
    /// commit pump, metadata reports).
    WorkerCtl,
    /// `faster-maint`: store maintenance (flush, eviction, checkpoints).
    FasterMaint,
    /// `dpr-finder`: the cut finder service.
    Finder,
    /// Everything else (acceptor, bus executors, main thread).
    Other,
}

/// Every group, in reporting order.
pub const GROUPS: [Group; 5] = [
    Group::NetIo,
    Group::WorkerCtl,
    Group::FasterMaint,
    Group::Finder,
    Group::Other,
];

/// Map a thread name to its group.
#[must_use]
pub fn group_of(comm: &str) -> Group {
    let comm = comm.trim();
    if comm.starts_with("dpr-net-io") {
        Group::NetIo
    } else if comm.starts_with("worker-") && comm.ends_with("-ctl") {
        Group::WorkerCtl
    } else if comm.starts_with("faster-maint") {
        Group::FasterMaint
    } else if comm.starts_with("dpr-finder") {
        Group::Finder
    } else {
        Group::Other
    }
}

/// Scheduler statistics of every thread of one process at one instant.
#[derive(Debug, Clone, Default)]
pub struct TaskSnapshot {
    tasks: BTreeMap<u64, (Group, SchedStat)>,
}

impl TaskSnapshot {
    /// Read `/proc/<pid>/task/*/{comm,schedstat}`. Threads that exit while
    /// the directory is walked are skipped.
    pub fn read(pid: u32) -> std::io::Result<TaskSnapshot> {
        let dir = format!("/proc/{pid}/task");
        let mut tasks = BTreeMap::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                continue;
            };
            let path = entry.path();
            let (Ok(comm), Ok(stat)) = (
                std::fs::read_to_string(path.join("comm")),
                std::fs::read_to_string(path.join("schedstat")),
            ) else {
                continue;
            };
            if let Some(stat) = parse_schedstat(&stat) {
                tasks.insert(tid, (group_of(&comm), stat));
            }
        }
        Ok(TaskSnapshot { tasks })
    }

    /// Build a snapshot from `(tid, comm, schedstat text)` triples.
    #[cfg(test)]
    fn from_parts(parts: &[(u64, &str, &str)]) -> TaskSnapshot {
        let tasks = parts
            .iter()
            .map(|&(tid, comm, stat)| {
                (tid, (group_of(comm), parse_schedstat(stat).expect("valid")))
            })
            .collect();
        TaskSnapshot { tasks }
    }

    /// Per-group CPU and run-queue time accrued between `before` and
    /// `self`. A thread born in between counts from zero; one that died is
    /// dropped (the program's threads live for the whole run).
    #[must_use]
    pub fn since(&self, before: &TaskSnapshot) -> BTreeMap<Group, SchedStat> {
        let mut out: BTreeMap<Group, SchedStat> =
            GROUPS.iter().map(|&g| (g, SchedStat::default())).collect();
        for (tid, (group, now)) in &self.tasks {
            let base = before.tasks.get(tid).map(|(_, s)| *s).unwrap_or_default();
            let acc = out.entry(*group).or_default();
            acc.run_ns += now.run_ns.saturating_sub(base.run_ns);
            acc.wait_ns += now.wait_ns.saturating_sub(base.wait_ns);
        }
        out
    }
}

/// Total CPU time across groups.
#[must_use]
pub fn total_run_ns(groups: &BTreeMap<Group, SchedStat>) -> u64 {
    groups.values().map(|s| s.run_ns).sum()
}

/// The calling thread's own scheduler statistics.
#[must_use]
pub fn thread_self() -> SchedStat {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| parse_schedstat(&s))
        .unwrap_or_default()
}

/// Parse `VmHWM` (peak resident set, KiB) out of a `/proc/<pid>/status`.
#[must_use]
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Peak resident set of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> std::io::Result<f64> {
    let status = std::fs::read_to_string(Path::new("/proc").join(pid.to_string()).join("status"))?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_parses_three_fields() {
        let s = parse_schedstat("123456789 4242 17\n").expect("parses");
        assert_eq!(s.run_ns, 123_456_789);
        assert_eq!(s.wait_ns, 4242);
        assert!(parse_schedstat("").is_none());
        assert!(parse_schedstat("12 x 3").is_none());
    }

    #[test]
    fn threads_group_by_name() {
        assert_eq!(group_of("dpr-net-io-0\n"), Group::NetIo);
        assert_eq!(group_of("worker-3-ctl"), Group::WorkerCtl);
        assert_eq!(group_of("worker-3-exec-1"), Group::Other);
        assert_eq!(group_of("faster-maint"), Group::FasterMaint);
        assert_eq!(group_of("dpr-finder"), Group::Finder);
        assert_eq!(group_of("dpr-net-accept"), Group::Other);
    }

    #[test]
    fn deltas_sum_per_group_and_count_new_threads_from_zero() {
        let before = TaskSnapshot::from_parts(&[
            (1, "dpr-net-io-0", "100 10 1"),
            (2, "dpr-net-io-1", "200 20 1"),
            (3, "dpr-finder", "50 5 1"),
        ]);
        let after = TaskSnapshot::from_parts(&[
            (1, "dpr-net-io-0", "150 15 2"),
            (2, "dpr-net-io-1", "260 20 2"),
            (3, "dpr-finder", "51 5 2"),
            (4, "worker-0-ctl", "30 3 1"),
        ]);
        let d = after.since(&before);
        assert_eq!(
            d[&Group::NetIo],
            SchedStat {
                run_ns: 110,
                wait_ns: 5
            }
        );
        assert_eq!(
            d[&Group::Finder],
            SchedStat {
                run_ns: 1,
                wait_ns: 0
            }
        );
        assert_eq!(
            d[&Group::WorkerCtl],
            SchedStat {
                run_ns: 30,
                wait_ns: 3
            }
        );
        assert_eq!(d[&Group::Other], SchedStat::default());
        assert_eq!(total_run_ns(&d), 141);
    }

    #[test]
    fn vm_hwm_parses_kib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
        assert_eq!(parse_vm_hwm_kib("Name: x\n"), None);
    }

    #[test]
    fn own_thread_stats_are_readable() {
        let mut spin = 0u64;
        for i in 0..100_000u64 {
            spin = spin.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(spin);
        // The kernel folds a running thread's time into schedstat when it
        // is switched out; sleep once so the spin above is accounted.
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(thread_self().run_ns > 0);
        let snap = TaskSnapshot::read(std::process::id()).expect("own task dir");
        assert!(!snap.tasks.is_empty());
    }
}
