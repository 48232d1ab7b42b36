//! The one client of the closed loop: spawns the real `cajade-serve`
//! binary at its shipped defaults and exchanges JSON lines with it over
//! one stdin/stdout pipe pair, the next request only after the previous
//! response.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cajade_service::json::Json;

/// An op that takes longer than this counts as failed and ends the run.
pub const OP_TIMEOUT: Duration = Duration::from_secs(120);

/// Linux reports process times in ticks of 1/100 s on every supported
/// platform (`sysconf(_SC_CLK_TCK)`).
const CLOCK_TICKS_PER_S: f64 = 100.0;

pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<std::io::Result<String>>,
    reader: Option<JoinHandle<()>>,
}

/// What `/proc` said about the server just before it was shut down.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcessUsage {
    /// `VmHWM`: the resident-set high-water mark.
    pub peak_rss_mb: f64,
    /// utime + stime.
    pub cpu_s: f64,
}

impl Server {
    pub fn spawn(binary: &Path) -> Result<Server, String> {
        let mut child = Command::new(binary)
            .env_remove("CAJADE_TRACE")
            .env_remove("CAJADE_FAULTS")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        // Reads happen on a thread so an op can time out; the thread ends
        // when the server closes its stdout.
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(Server {
            child,
            stdin: Some(stdin),
            lines,
            reader: Some(reader),
        })
    }

    /// Writes one request line and waits for its response line. Returns
    /// the parsed response with the milliseconds from write to read.
    pub fn exchange(&mut self, request: &str) -> Result<(Json, f64), String> {
        let stdin = self.stdin.as_mut().ok_or("server already shut down")?;
        let t0 = Instant::now();
        stdin
            .write_all(request.as_bytes())
            .and_then(|()| stdin.write_all(b"\n"))
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("server died (write failed: {e})"))?;
        let line = match self.lines.recv_timeout(OP_TIMEOUT) {
            Ok(Ok(line)) => line,
            Ok(Err(e)) => return Err(format!("read response: {e}")),
            Err(RecvTimeoutError::Timeout) => {
                return Err(format!("no response within {} s", OP_TIMEOUT.as_secs()))
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err("server died (stdout closed)".to_string())
            }
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let json = Json::parse(&line).map_err(|e| format!("bad response JSON ({e}): {line}"))?;
        Ok((json, ms))
    }

    /// Reads the server's peak RSS and CPU time from `/proc/<pid>`.
    pub fn usage(&self) -> ProcessUsage {
        let pid = self.child.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
        ProcessUsage {
            peak_rss_mb: parse_vm_hwm_kb(&status).unwrap_or(0.0) / 1024.0,
            cpu_s: parse_cpu_ticks(&stat).unwrap_or(0.0) / CLOCK_TICKS_PER_S,
        }
    }

    /// Closes the server's stdin, which ends its read loop, and waits for
    /// the process and the reader thread.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.stop()
    }

    fn stop(&mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => {
                    self.child.kill().ok();
                    break self.child.wait();
                }
                Err(e) => break Err(e),
            }
        };
        if let Some(reader) = self.reader.take() {
            reader.join().ok();
        }
        match status {
            Ok(s) if s.success() => Ok(()),
            Ok(s) => Err(format!("server exited with {s}")),
            Err(e) => Err(format!("wait for server: {e}")),
        }
    }
}

impl Drop for Server {
    /// An error path must not leave the server running.
    fn drop(&mut self) {
        if self.reader.is_some() {
            self.stop().ok();
        }
    }
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// utime + stime: fields 14 and 15 of `/proc/<pid>/stat`, counted after
/// the parenthesised command name (which may itself contain spaces).
fn parse_cpu_ticks(stat: &str) -> Option<f64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_parsers_read_the_documented_fields() {
        let status = "Name:\tcajade-serve\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(204800.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        let stat = "42 (cajade serve) S 1 42 42 0 -1 4194304 500 0 0 0 1234 66 0 0 20 0 3 0";
        assert_eq!(parse_cpu_ticks(stat), Some(1300.0));
    }
}
