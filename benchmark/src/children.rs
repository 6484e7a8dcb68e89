//! Child-process hygiene for the serve workloads.
//!
//! `served` and `router` are the repository's own binaries, built from
//! the root manifest into the same target directory the harness was
//! built into, and spawned on port 0 with their `listening on` line
//! scraped. Every child is killed when its guard drops, so a panicking
//! harness leaves nothing behind; a clean teardown sends `SHUTDOWN`
//! first and only kills what does not exit in time.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use asicgap_serve::client::Client;

/// `<target>/release`, found from the running harness binary: the
/// driver sets `CARGO_TARGET_DIR`, a developer may pass `--target-dir`,
/// and in both cases the children must land beside the harness.
fn release_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the harness: {e}"))?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("harness path {exe:?} has no directory"))
}

/// Builds `served` and `router` from the root manifest (cargo's own
/// freshness check makes this a no-op when they are current, and makes
/// a stale binary impossible) and returns their paths.
pub fn build_servers() -> Result<(PathBuf, PathBuf), String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/serve").is_dir() {
        return Err(
            "run from the repository root: ./Cargo.toml and ./crates/serve are needed to build \
             `served` and `router`"
                .to_string(),
        );
    }
    let release = release_dir()?;
    let target = release
        .parent()
        .ok_or_else(|| format!("{release:?} is not <target>/release"))?;
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "asicgap-serve", "--bin", "served", "--bin", "router"])
        .arg("--target-dir")
        .arg(target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building served/router failed ({status})"));
    }
    let served = release.join("served");
    let router = release.join("router");
    for bin in [&served, &router] {
        if !bin.is_file() {
            return Err(format!("cargo built no {bin:?}"));
        }
    }
    Ok((served, router))
}

/// Every live child, so the watchdog can kill them before it exits the
/// process (`process::exit` runs no destructors).
static LIVE: Mutex<Vec<Arc<Mutex<Child>>>> = Mutex::new(Vec::new());

fn kill(child: &Mutex<Child>) {
    let mut child = child.lock().unwrap_or_else(|e| e.into_inner());
    let _ = child.kill();
    let _ = child.wait();
}

/// Bounds the whole run: if the harness is still alive after `limit`
/// (a request hung past every deadline), kill the children and exit
/// non-zero instead of hanging the caller.
pub fn arm_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("benchmark: still running after {limit:?}; killing children and giving up");
        for child in LIVE.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            kill(child);
        }
        std::process::exit(3);
    });
}

/// One spawned daemon. Killed on drop.
pub struct Daemon {
    child: Arc<Mutex<Child>>,
    pid: u32,
    pub addr: SocketAddr,
    name: &'static str,
}

impl Daemon {
    /// Spawns `bin args…`, waits for `<name> listening on <addr>` on its
    /// stdout, and returns the guard. `threads` becomes the child's
    /// `ASICGAP_THREADS`.
    pub fn spawn(
        bin: &Path,
        name: &'static str,
        args: &[String],
        threads: usize,
    ) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(args)
            .env("ASICGAP_THREADS", threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {bin:?}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix(name)
            .and_then(|rest| rest.strip_prefix(" listening on "))
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                let pid = child.id();
                let child = Arc::new(Mutex::new(child));
                LIVE.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(Arc::clone(&child));
                Ok(Daemon {
                    child,
                    pid,
                    addr,
                    name,
                })
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "{name} did not announce its address (got {line:?})"
                ))
            }
        }
    }

    /// Peak resident set (`VmHWM`) of the child so far, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.pid))
    }

    /// Sends `SHUTDOWN` and waits for the exit; kills after `patience`.
    /// Returns whether the child exited on its own.
    pub fn shutdown(self, patience: Duration) -> bool {
        if let Ok(mut c) = Client::connect(self.addr) {
            let _ = c.shutdown();
        }
        let start = Instant::now();
        while start.elapsed() < patience {
            let exited = self
                .child
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .try_wait();
            if let Ok(Some(_)) = exited {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        eprintln!("benchmark: {} ignored SHUTDOWN; killing it", self.name);
        false
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        kill(&self.child);
        LIVE.lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|c| !Arc::ptr_eq(c, &self.child));
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, MB; 0 if unreadable.
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A scratch directory under `benchmark/out/`, removed on drop. The
/// benchmark may only write inside its checkout, so no `/tmp`.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new() -> Result<TempDir, String> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = PathBuf::from(format!(
            "benchmark/out/tmp-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
