//! One `locert-serve` daemon process: launched with default flags, read
//! until its `ready` line, drained over the wire, and always waited for.

use locert_serve::Client;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: std::ffi::c_ulong = 9;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// A running daemon. Dropping it kills and reaps the process if it was
/// not drained first, so no run leaves a daemon behind.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    /// Launch to `ready` line.
    pub ready_after: Duration,
}

impl Daemon {
    /// Launches `binary` with default flags and waits for `ready addr=`.
    ///
    /// # Errors
    ///
    /// Spawn errors, or a daemon that exits or prints something else
    /// before its ready line.
    pub fn launch(binary: &Path) -> io::Result<Daemon> {
        let t0 = Instant::now();
        let mut command = Command::new(binary);
        command
            // The pool width must be the daemon's default: the machine's
            // parallelism, not an inherited override.
            .env_remove("LOCERT_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        // SAFETY: `prctl(PR_SET_PDEATHSIG)` is async-signal-safe and
        // touches only the calling (child) process, as `pre_exec`
        // requires. It makes the kernel kill the daemon if this process
        // dies without running `Drop`, e.g. on a signal.
        unsafe {
            command.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL) == 0 {
                    Ok(())
                } else {
                    Err(io::Error::last_os_error())
                }
            });
        }
        let mut child = command.spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(_) => line
                .trim()
                .strip_prefix("ready addr=")
                .and_then(|a| a.parse::<SocketAddr>().ok()),
            Err(_) => None,
        };
        let ready_after = t0.elapsed();
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "daemon did not report ready (got {:?})",
                line.trim()
            )));
        };
        Ok(Daemon {
            child,
            _stdout: stdout,
            addr,
            ready_after,
        })
    }

    /// The protocol address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    ///
    /// # Errors
    ///
    /// When `/proc/<pid>/status` is unreadable or lacks the field.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Sends the drain opcode and waits for the process to exit; kills
    /// it if the drain does not finish within ten seconds.
    ///
    /// # Errors
    ///
    /// A missing ack, a non-zero exit, or a daemon that had to be killed.
    pub fn shutdown(mut self) -> io::Result<()> {
        let acked = Client::connect(self.addr).and_then(Client::shutdown);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return match acked {
                    Ok(true) if status.success() => Ok(()),
                    Ok(_) => Err(io::Error::other(format!("drain not acked ({status})"))),
                    Err(e) => Err(e),
                };
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("daemon did not drain within 10 s"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
