//! The `qbe-server` process under test: launch with default serving flags on an ephemeral
//! loopback port, wait until it listens, read its peak memory, stop it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a launch may take before it counts as failed.
const LAUNCH_TIMEOUT: Duration = Duration::from_secs(120);

/// A running server process; killed and reaped on drop.
pub struct ServerProcess {
    child: Child,
    /// The address it listens on.
    pub addr: SocketAddr,
    stdout: Option<JoinHandle<()>>,
}

impl ServerProcess {
    /// Launch `binary`, with `--data-dir <dir> --persist` when `data_dir` is given, and
    /// wait until it prints its listening line. Returns the process and the time from
    /// launch to listening.
    pub fn launch(
        binary: &Path,
        data_dir: Option<&Path>,
    ) -> Result<(ServerProcess, Duration), String> {
        let mut command = Command::new(binary);
        command.args(["--addr", "127.0.0.1:0"]);
        if let Some(dir) = data_dir {
            command.arg("--data-dir").arg(dir).arg("--persist");
        }
        command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let start = Instant::now();
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot launch {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Forward the first line, then keep draining so the server never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            if let Some(Ok(line)) = lines.next() {
                let _ = tx.send(line);
            }
            for _ in lines.by_ref() {}
        });
        let mut server = ServerProcess {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout: Some(drain),
        };
        let line = rx
            .recv_timeout(LAUNCH_TIMEOUT)
            .map_err(|_| format!("{} did not report a listening address", binary.display()))?;
        let listened = start.elapsed();
        server.addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok())
            .ok_or_else(|| format!("unexpected first line from the server: {line:?}"))?;
        Ok((server, listened))
    }

    /// The process's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM line in {path}"))
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stdout.take() {
            let _ = drain.join();
        }
    }
}
