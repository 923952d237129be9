//! The `incgraph` binary as a separate process: store creation, `serve`
//! with readiness from its `listening on` line, `/proc` accounting, and
//! a graceful wire `SHUTDOWN`.

use incgraph_service::Client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, String>;

/// `incgraph checkpoint --store DIR --graph FILE`: creates the durable
/// store with the default class set (all seven on an undirected graph),
/// Sim pattern from `pattern_seed`, rooted classes at node 0.
pub fn create_store(bin: &Path, store: &Path, graph: &Path, pattern_seed: u64) -> Res<()> {
    let out = Command::new(bin)
        .arg("checkpoint")
        .arg("--store")
        .arg(store)
        .arg("--graph")
        .arg(graph)
        .args(["--seed", &pattern_seed.to_string(), "--source", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!("incgraph checkpoint failed: {}", out.status));
    }
    Ok(())
}

/// A running `incgraph serve`.
pub struct Server {
    child: Child,
    // Held open so the server never sees a closed stdout.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `incgraph serve` (mounting `store` when given) and blocks
    /// until it prints its bind line.
    pub fn start(bin: &Path, store: Option<&Path>) -> Res<Server> {
        let mut cmd = Command::new(bin);
        cmd.args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--idle-timeout-secs",
            "600",
        ]);
        if let Some(dir) = store {
            cmd.arg("--store").arg(dir).args(["--nodes", "1"]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => line.trim().rsplit(' ').next().and_then(|a| a.parse().ok()),
            _ => None,
        };
        match addr {
            Some(addr) => Ok(Server {
                child,
                _stdout: stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("serve did not report a bind address: {line:?}"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Wire `SHUTDOWN` (drain + checkpoint), then waits for exit.
    pub fn shutdown(mut self) -> Res<()> {
        let asked = Client::connect(self.addr, "svcbench-ctl")
            .and_then(|mut c| c.shutdown_server())
            .map_err(|e| format!("SHUTDOWN: {e}"));
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return asked,
                Ok(Some(status)) => return Err(format!("serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("serve did not stop within 60 s of SHUTDOWN".into());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached on error paths: never leave a server behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// User + system CPU of process `pid` so far, in milliseconds.
pub fn cpu_ms(pid: u32, ticks_per_s: f64) -> Res<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("read /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc stat")?;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Res<f64> {
        f.get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc stat".to_string())
    };
    Ok((tick(11)? + tick(12)?) * 1e3 / ticks_per_s)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Res<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc status".to_string())
}

/// Clock ticks per second for `/proc` CPU times (`getconf CLK_TCK`).
pub fn clock_ticks() -> f64 {
    Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(100.0)
}

/// A fresh, empty scratch directory under the benchmark's work root.
pub fn fresh_dir(root: &Path, name: &str) -> Res<PathBuf> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}
