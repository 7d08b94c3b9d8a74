//! The servers under test: real `privmech-serve` (and `privmech-router`)
//! child processes from the release build.

use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::Conn;
use crate::plan::Topology;

/// One spawned server process.
struct Process {
    child: Child,
    /// Kept open so the child's final "stopped" line never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

/// A running topology: shards, plus the router in front of them if any.
pub struct Servers {
    /// Serving processes; for a fleet the router is last.
    processes: Vec<Process>,
}

impl Servers {
    /// Start `topology` and wait until its front door answers `ping`.
    pub fn start(topology: &Topology, serve_bin: &Path, router_bin: &Path) -> io::Result<Servers> {
        let mut servers = Servers {
            processes: Vec::new(),
        };
        match topology {
            Topology::Single(args) => {
                servers
                    .processes
                    .push(spawn(serve_bin, args, "privmech-serve")?);
            }
            Topology::Fleet { shards, shard_args } => {
                let mut router_args = Vec::new();
                for _ in 0..*shards {
                    let shard = spawn(serve_bin, shard_args, "privmech-serve")?;
                    router_args.push("--shard".to_string());
                    router_args.push(shard.addr.clone());
                    servers.processes.push(shard);
                }
                servers
                    .processes
                    .push(spawn(router_bin, &router_args, "privmech-router")?);
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Conn::connect(servers.addr())
                .and_then(|mut conn| conn.call("{\"v\":2,\"id\":1,\"op\":\"ping\"}"))
            {
                Ok(reply) if reply.contains("\"pong\":true") => return Ok(servers),
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                Ok(reply) => return Err(io::Error::other(format!("bad ping reply: {reply}"))),
                Err(e) => return Err(e),
            }
        }
    }

    /// The address clients connect to.
    pub fn addr(&self) -> &str {
        &self
            .processes
            .last()
            .expect("a topology has a process")
            .addr
    }

    /// Sum of `VmHWM` (peak resident set) over every serving process, in KiB.
    pub fn peak_rss_kib(&self) -> io::Result<u64> {
        let mut total = 0;
        for process in &self.processes {
            let status = std::fs::read_to_string(format!("/proc/{}/status", process.child.id()))?;
            let line = status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
            total += line
                .split_whitespace()
                .nth(1)
                .and_then(|kib| kib.parse::<u64>().ok())
                .ok_or_else(|| io::Error::other("unparsable VmHWM"))?;
        }
        Ok(total)
    }

    /// Graceful stop: one `shutdown` through the front door (the router
    /// broadcasts it to its shards), then reap every process. A process that
    /// has not exited after a grace period is killed.
    pub fn stop(mut self) -> io::Result<()> {
        let sent = Conn::connect(self.addr())
            .and_then(|mut conn| conn.call("{\"v\":2,\"id\":1,\"op\":\"shutdown\"}"));
        self.reap(Duration::from_secs(if sent.is_ok() { 10 } else { 0 }));
        sent.map(drop)
    }

    fn reap(&mut self, grace: Duration) {
        let deadline = Instant::now() + grace;
        for mut process in self.processes.drain(..) {
            loop {
                match process.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    _ => {
                        let _ = process.child.kill();
                        let _ = process.child.wait();
                        break;
                    }
                }
            }
        }
    }
}

impl Drop for Servers {
    fn drop(&mut self) {
        // Reached only on an error path that skipped `stop`.
        self.reap(Duration::ZERO);
    }
}

/// Spawn one server binary on an ephemeral port and read its banner.
fn spawn(bin: &Path, args: &[String], name: &str) -> io::Result<Process> {
    let mut child = Command::new(bin)
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| io::Error::new(e.kind(), format!("spawning {}: {e}", bin.display())))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut banner = String::new();
    let prefix = format!("{name} listening on ");
    let addr = match stdout.read_line(&mut banner) {
        Ok(_) => banner.trim_end().strip_prefix(&prefix).map(str::to_string),
        Err(_) => None,
    };
    match addr {
        Some(addr) => Ok(Process {
            child,
            _stdout: stdout,
            addr,
        }),
        None => {
            let _ = child.kill();
            let _ = child.wait();
            Err(io::Error::other(format!(
                "{name} did not start (banner {banner:?})"
            )))
        }
    }
}
