//! The server child: one process hosting a `Cluster` behind a `NetServer`,
//! and the load generator's handle on it.
//!
//! The benchmark re-executes its own binary with `--serve`. The child prints
//! `LISTEN <addr>` and then answers line commands on stdin (the control
//! pipe) over stdout:
//!
//! * `MARK` → `MARK <executed ops summed over workers>`
//! * `TELEMETRY <0|1>` → `OK` after switching `dpr-telemetry` timers
//! * `PROM` → the registry's Prometheus text, then a line `END`
//! * `STOP` (or end of input) → shut down and exit.

use dpr_cluster::{Cluster, ClusterConfig, NetServer, NetServerConfig};
use dpr_storage::StorageProfile;
use std::io::{BufRead, BufReader, Lines, Write};
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The cluster every workload runs against: the defaults, with 4 shards,
/// ownership checks off (keys are partitioned by the external generator),
/// duplicate suppression on, and the local-SSD device profile so that
/// checkpoint flushes cost time. `memory_budget_records` overrides the
/// store's in-memory budget per shard.
#[must_use]
pub fn cluster_config(memory_budget_records: Option<usize>) -> ClusterConfig {
    let defaults = ClusterConfig::default();
    ClusterConfig {
        shards: crate::workload::SHARDS,
        validate_ownership: false,
        dedupe_window: 4096,
        storage: StorageProfile::LocalSsd,
        memory_budget_records: memory_budget_records.unwrap_or(defaults.memory_budget_records),
        ..defaults
    }
}

/// Child role: serve until `STOP` or end of input.
pub fn serve(memory_budget_records: Option<usize>) -> Result<(), String> {
    let cluster = Cluster::start(cluster_config(memory_budget_records))
        .map_err(|e| format!("start cluster: {e}"))?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let server = NetServer::start(
        cluster.workers().to_vec(),
        listener,
        NetServerConfig::default(),
    )
    .map_err(|e| format!("start net server: {e}"))?;
    let mut out = std::io::stdout().lock();
    let reply = |out: &mut std::io::StdoutLock<'_>, text: &str| -> Result<(), String> {
        out.write_all(text.as_bytes())
            .and_then(|()| out.flush())
            .map_err(|e| format!("control pipe: {e}"))
    };
    reply(&mut out, &format!("LISTEN {}\n", server.local_addr()))?;
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let mut words = line.split_whitespace();
        match words.next() {
            Some("STOP") => break,
            Some("MARK") => {
                let ops: u64 = cluster.workers().iter().map(|w| w.executed_ops()).sum();
                reply(&mut out, &format!("MARK {ops}\n"))?;
            }
            Some("TELEMETRY") => {
                dpr_telemetry::set_enabled(words.next() == Some("1"));
                reply(&mut out, "OK\n")?;
            }
            Some("PROM") => {
                let text = dpr_telemetry::global().render_prometheus();
                reply(&mut out, &format!("{text}END\n"))?;
            }
            _ => {}
        }
    }
    server.shutdown();
    cluster.shutdown();
    Ok(())
}

/// The load generator's handle on a running server child.
pub struct ServerProc {
    child: Child,
    addr: SocketAddr,
    lines: Lines<BufReader<ChildStdout>>,
}

impl ServerProc {
    /// Spawn the child and wait for its `LISTEN` line.
    pub fn spawn(memory_budget_records: Option<usize>) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("--serve");
        if let Some(budget) = memory_budget_records {
            cmd.arg("--budget").arg(budget.to_string());
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server child: {e}"))?;
        let stdout = child.stdout.take().ok_or("child has no stdout")?;
        let mut proc = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            lines: BufReader::new(stdout).lines(),
        };
        let line = proc.read_line()?;
        proc.addr = line
            .strip_prefix("LISTEN ")
            .and_then(|a| a.trim().parse().ok())
            .ok_or_else(|| format!("bad LISTEN line {line:?}"))?;
        Ok(proc)
    }

    /// Address of the child's listener.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The child's process id (for `/proc` reads).
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn read_line(&mut self) -> Result<String, String> {
        match self.lines.next() {
            Some(Ok(line)) => Ok(line),
            Some(Err(e)) => Err(format!("read control pipe: {e}")),
            None => Err("server child exited".into()),
        }
    }

    fn command(&mut self, cmd: &str) -> Result<(), String> {
        let stdin = self.child.stdin.as_mut().ok_or("child stdin closed")?;
        stdin
            .write_all(format!("{cmd}\n").as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("write {cmd}: {e}"))
    }

    /// Operations the child's workers have executed so far.
    pub fn executed_ops(&mut self) -> Result<u64, String> {
        self.command("MARK")?;
        let line = self.read_line()?;
        line.strip_prefix("MARK ")
            .and_then(|n| n.trim().parse().ok())
            .ok_or_else(|| format!("bad MARK reply {line:?}"))
    }

    /// Switch the child's clock-based telemetry on or off.
    pub fn set_telemetry(&mut self, on: bool) -> Result<(), String> {
        self.command(if on { "TELEMETRY 1" } else { "TELEMETRY 0" })?;
        match self.read_line()?.as_str() {
            "OK" => Ok(()),
            other => Err(format!("bad TELEMETRY reply {other:?}")),
        }
    }

    /// The child's telemetry registry as Prometheus text.
    pub fn scrape(&mut self) -> Result<String, String> {
        self.command("PROM")?;
        let mut text = String::new();
        loop {
            let line = self.read_line()?;
            if line == "END" {
                return Ok(text);
            }
            text.push_str(&line);
            text.push('\n');
        }
    }

    /// Stop the child and wait for it to exit; kill it if it does not
    /// exit within a few seconds.
    pub fn stop(mut self) {
        let _ = self.command("STOP");
        drop(self.child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(_) => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Acts only when an error path skipped `stop`: never leave the
        // child running.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
