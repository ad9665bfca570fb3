//! The `spark serve` child process: spawn, set-up timing, scraping, and
//! shutdown.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spark_serve::http::client_request;
use spark_util::json::{self, Value};

/// Longest a server may take to become healthy or to exit.
const DEADLINE: Duration = Duration::from_secs(60);

/// A running `spark serve`. Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    drain: Option<JoinHandle<()>>,
    pub addr: String,
    /// Spawn to the first `200` on `/healthz`.
    pub setup: Duration,
}

impl Server {
    /// Starts `spark serve` on an ephemeral loopback port with the
    /// production defaults (plus `--store` when given) and waits for its
    /// first healthy `/healthz`.
    pub fn start(bin: &Path, store: Option<&Path>) -> Result<Self, String> {
        let mut args: Vec<String> = vec!["serve".into(), "--addr".into(), "127.0.0.1:0".into()];
        if let Some(dir) = store {
            args.push("--store".into());
            args.push(dir.display().to_string());
        }
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // The first line names the bound address; the rest is drained
        // until exit so the child never writes into a closed pipe.
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            if let Some(Ok(first)) = lines.next() {
                let _ = tx.send(first);
            }
            for _ in lines {}
        });
        let mut server = Server {
            child,
            drain: Some(drain),
            addr: String::new(),
            setup: Duration::ZERO,
        };
        let first = rx
            .recv_timeout(DEADLINE)
            .map_err(|_| "spark serve printed no listening line".to_string())?;
        server.addr = first
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("unexpected first line from spark serve: {first:?}"))?
            .to_string();
        loop {
            if let Ok((200, _)) = client_request(&server.addr, "GET", "/healthz", "", b"") {
                break;
            }
            if started.elapsed() > DEADLINE {
                return Err("spark serve never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        server.setup = started.elapsed();
        Ok(server)
    }

    /// `GET /metrics`, parsed.
    pub fn metrics(&self) -> Result<Value, String> {
        let (status, body) = client_request(&self.addr, "GET", "/metrics", "", b"")?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        json::parse(&String::from_utf8_lossy(&body)).map_err(|e| e.to_string())
    }

    /// The child's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read /proc status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or("no VmHWM in /proc status")?;
        Ok(kb / 1024.0)
    }

    /// `POST /shutdown` and waits for the process to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = client_request(&self.addr, "POST", "/shutdown", "", b"");
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("spark serve exited with {status}")),
                Ok(None) if t0.elapsed() < DEADLINE => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("spark serve did not exit after /shutdown".into()),
                Err(e) => return Err(format!("wait for spark serve: {e}")),
            }
        }
        if let Some(drain) = self.drain.take() {
            drain
                .join()
                .map_err(|_| "stdout drain thread panicked".to_string())?;
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Copies every regular file of `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    if to.exists() {
        std::fs::remove_dir_all(to).map_err(|e| format!("clear {}: {e}", to.display()))?;
    }
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("list {}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let dest: PathBuf = to.join(entry.file_name());
        std::fs::copy(entry.path(), &dest).map_err(|e| format!("copy {}: {e}", dest.display()))?;
    }
    Ok(())
}
