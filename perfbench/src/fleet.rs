//! The serving fleet under test: two `cactus-serve` backends and one
//! `cactus-gateway --backend A --backend B`, each its own process with
//! default flags, ports handed back through `--port-file`.

use std::collections::BTreeMap;
use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::http::Conn;

/// How long a daemon may take to come up before the run fails.
const START_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Fleet {
    /// Gateway first, then the backends.
    children: Vec<Child>,
    pub gateway: SocketAddr,
    pub backends: [SocketAddr; 2],
    /// Process spawn until all three answer `/v1/healthz`.
    pub setup_s: f64,
}

impl Fleet {
    /// Start a fleet on the two store directories (created if missing).
    /// `dir` holds port files and daemon logs.
    pub fn start(bin: &Path, dir: &Path, stores: [&Path; 2]) -> Result<Fleet, String> {
        fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let mut fleet = Fleet {
            children: Vec::new(),
            gateway: ([127, 0, 0, 1], 0).into(),
            backends: [([127, 0, 0, 1], 0).into(); 2],
            setup_s: 0.0,
        };
        let mut ports = Vec::new();
        for (i, store) in stores.iter().enumerate() {
            let port_file = dir.join(format!("serve{i}.port"));
            let _ = fs::remove_file(&port_file);
            let child = spawn(
                &bin.join("cactus-serve"),
                &[
                    "--addr",
                    "127.0.0.1:0",
                    "--store-dir",
                    &store.display().to_string(),
                    "--port-file",
                    &port_file.display().to_string(),
                ],
                &dir.join(format!("serve{i}.log")),
            )?;
            fleet.children.push(child);
            ports.push(port_file);
        }
        for (i, port_file) in ports.iter().enumerate() {
            fleet.backends[i] = wait_port(port_file, &mut fleet.children[i])?;
        }
        let port_file = dir.join("gateway.port");
        let _ = fs::remove_file(&port_file);
        let [a, b] = fleet.backends.map(|a| a.to_string());
        let child = spawn(
            &bin.join("cactus-gateway"),
            &[
                "--addr",
                "127.0.0.1:0",
                "--backend",
                &a,
                "--backend",
                &b,
                "--port-file",
                &port_file.display().to_string(),
            ],
            &dir.join("gateway.log"),
        )?;
        fleet.children.insert(0, child);
        fleet.gateway = wait_port(&port_file, &mut fleet.children[0])?;
        for addr in [fleet.gateway, fleet.backends[0], fleet.backends[1]] {
            wait_healthy(addr)?;
        }
        fleet.setup_s = t0.elapsed().as_secs_f64();
        Ok(fleet)
    }

    /// Peak resident set (`VmHWM`) summed over the three daemons, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.children.iter().map(|c| vm_hwm_mb(c.id())).sum()
    }

    /// Scrape `/v1/metricsz` of the gateway (`None`) or one backend.
    pub fn scrape(&self, backend: Option<usize>) -> BTreeMap<String, f64> {
        let addr = backend.map_or(self.gateway, |i| self.backends[i]);
        Conn::new(addr)
            .get("/v1/metricsz")
            .map(|r| parse_exposition(&r.body))
            .unwrap_or_default()
    }

    /// Graceful stop: `SIGTERM` (the daemons drain and exit 0), then wait.
    /// Close client connections first: the gateway drains them too.
    pub fn stop(mut self) {
        self.terminate();
    }

    /// Gateway first: once it has exited, its pooled keep-alive
    /// connections close and no longer hold backend workers, so the
    /// backends drain at once instead of after their read timeout.
    fn terminate(&mut self) {
        for child in &mut self.children {
            signal(child.id(), SIGTERM);
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                match child.try_wait() {
                    Ok(Some(_)) | Err(_) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Ok(None) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
        self.children.clear();
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.terminate();
    }
}

fn spawn(program: &Path, args: &[&str], log: &Path) -> Result<Child, String> {
    let log = fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", program.display()))
}

fn wait_port(port_file: &Path, child: &mut Child) -> Result<SocketAddr, String> {
    let deadline = Instant::now() + START_TIMEOUT;
    loop {
        if let Ok(text) = fs::read_to_string(port_file) {
            if let Some(port) = text.strip_suffix('\n').and_then(|p| p.parse::<u16>().ok()) {
                return Ok(([127, 0, 0, 1], port).into());
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!(
                "daemon exited early ({status}); see {}",
                log_of(port_file)
            ));
        }
        if Instant::now() > deadline {
            return Err(format!("daemon did not write {}", port_file.display()));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn log_of(port_file: &Path) -> String {
    port_file.with_extension("log").display().to_string()
}

fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + START_TIMEOUT;
    loop {
        if Conn::new(addr).get("/v1/healthz").is_ok_and(|r| r.ok()) {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("{addr} never answered /v1/healthz"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `VmHWM` of one process in MiB (0 when it cannot be read).
pub fn vm_hwm_mb(pid: u32) -> f64 {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `name value` lines of a metrics exposition; comments skipped.
pub fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.trim().to_owned(), value.trim().parse().ok()?))
        })
        .collect()
}

/// Sum of one counter's growth between two scrapes of several processes.
pub fn delta(before: &[BTreeMap<String, f64>], after: &[BTreeMap<String, f64>], name: &str) -> f64 {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| a.get(name).copied().unwrap_or(0.0) - b.get(name).copied().unwrap_or(0.0))
        .sum()
}

/// Fresh, empty store directories for one fleet.
pub fn fresh_stores(dir: &Path) -> Result<[PathBuf; 2], String> {
    let stores = [dir.join("store0"), dir.join("store1")];
    for s in &stores {
        let _ = fs::remove_dir_all(s);
        fs::create_dir_all(s).map_err(|e| format!("{}: {e}", s.display()))?;
    }
    Ok(stores)
}

const SIGTERM: i32 = 15;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

fn signal(pid: u32, sig: i32) {
    if let Ok(pid) = i32::try_from(pid) {
        // SAFETY: `kill(2)` takes plain integers and has no memory-safety
        // preconditions; `pid` is a child this process spawned and has not
        // yet reaped, so the id cannot have been recycled.
        unsafe {
            kill(pid, sig);
        }
    }
}
