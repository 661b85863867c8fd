//! Driving a `pristi` child over its stdin/stdout pipes: spawn, readiness,
//! the open-loop phase runner (one writer, one reader thread), and the
//! closed loop of one client.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStderr, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

/// A running `pristi` child.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    stderr: BufReader<ChildStderr>,
}

impl Server {
    /// Spawn `bin args…` with all three standard streams piped.
    pub fn spawn(bin: &Path, args: &[&str]) -> std::io::Result<Self> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        if let Some(pipe) = &stdin {
            widen_pipe(pipe);
        }
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        Ok(Self {
            child,
            stdin,
            stdout,
            stderr,
        })
    }

    /// Block until the child prints a stderr line containing `needle` (its
    /// ready banner); an early EOF is an error.
    pub fn wait_banner(&mut self, needle: &str) -> std::io::Result<String> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.stderr.read_line(&mut line)? == 0 {
                return Err(std::io::Error::other(format!(
                    "server exited before printing `{needle}`"
                )));
            }
            if line.contains(needle) {
                return Ok(line.trim_end().to_string());
            }
        }
    }

    /// Peak resident set size of the child so far (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        vm_hwm_mib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Run one phase: write `lines[i].1` at `start + lines[i].0` seconds and
    /// collect `expect` response lines, or every line until EOF when `close`
    /// shuts stdin after the last write. Kills the child if the phase is not
    /// done by `timeout`.
    pub fn phase(
        &mut self,
        lines: &[(f64, String)],
        expect: Option<usize>,
        close: bool,
        timeout: Duration,
    ) -> std::io::Result<Phase> {
        let mut stdin = self
            .stdin
            .take()
            .ok_or_else(|| std::io::Error::other("stdin already closed"))?;
        let stdout = &mut self.stdout;
        let child = &mut self.child;
        let start = Instant::now();
        let mut write_ms = Vec::with_capacity(lines.len());
        let mut write_error = None;
        let status = format!("/proc/{}/status", child.id());
        let mut peak: Option<f64> = None;
        let mut sample_peak = || {
            if let Some(v) = vm_hwm_mib(&status) {
                peak = Some(peak.map_or(v, |p: f64| p.max(v)));
            }
        };
        let (responses, stdin) = std::thread::scope(|scope| {
            let reader = scope.spawn(move || {
                let mut out = Vec::new();
                let mut line = String::new();
                while expect.is_none_or(|n| out.len() < n) {
                    line.clear();
                    match stdout.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => out.push((Instant::now(), line.trim_end().to_string())),
                    }
                }
                out
            });
            for (due, text) in lines {
                let due_at = start + Duration::from_secs_f64(*due);
                let now = Instant::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
                let t = Instant::now();
                write_ms.push(t.saturating_duration_since(due_at).as_secs_f64() * 1e3);
                if let Err(e) = stdin
                    .write_all(text.as_bytes())
                    .and_then(|()| stdin.write_all(b"\n"))
                {
                    write_error = Some(e);
                    break;
                }
            }
            let _ = stdin.flush();
            sample_peak();
            let stdin = if close || write_error.is_some() {
                drop(stdin);
                None
            } else {
                Some(stdin)
            };
            let deadline = start + timeout;
            while !reader.is_finished() {
                if Instant::now() > deadline {
                    let _ = child.kill();
                }
                sample_peak();
                std::thread::sleep(Duration::from_millis(5));
            }
            (reader.join().expect("reader thread panicked"), stdin)
        });
        self.stdin = stdin;
        Ok(Phase {
            start,
            lateness_ms: write_ms,
            responses,
            write_error: write_error.map(|e| e.to_string()),
            peak_rss_mib: peak,
        })
    }

    /// A closed loop of one client: write each line as soon as the answer to
    /// the previous one has arrived, reading the answers on the calling
    /// thread, so no thread hand-off or polling on the client side adds to a
    /// round trip. One phase per line, started at its write. Kills the child
    /// if the lines are not all answered by `timeout`.
    pub fn closed_loop(
        &mut self,
        lines: &[String],
        timeout: Duration,
    ) -> std::io::Result<Vec<Phase>> {
        let Server {
            child,
            stdin,
            stdout,
            ..
        } = self;
        let stdin = stdin
            .as_mut()
            .ok_or_else(|| std::io::Error::other("stdin already closed"))?;
        let (done, wait) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                if wait.recv_timeout(timeout) == Err(RecvTimeoutError::Timeout) {
                    let _ = child.kill();
                }
            });
            let mut phases = Vec::with_capacity(lines.len());
            let mut answer = String::new();
            let outcome = lines.iter().try_for_each(|line| {
                let start = Instant::now();
                stdin.write_all(format!("{line}\n").as_bytes())?;
                answer.clear();
                if stdout.read_line(&mut answer)? == 0 {
                    return Err(std::io::Error::other("server closed its stdout"));
                }
                phases.push(Phase {
                    start,
                    lateness_ms: vec![0.0],
                    responses: vec![(Instant::now(), answer.trim_end().to_string())],
                    write_error: None,
                    peak_rss_mib: None,
                });
                Ok(())
            });
            drop(done);
            outcome.map(|()| phases)
        })
    }

    /// Close stdin, wait for the child to exit, return whether it exited 0.
    pub fn finish(mut self) -> std::io::Result<bool> {
        drop(self.stdin.take());
        let mut rest = String::new();
        while self.stdout.read_line(&mut rest)? > 0 {
            rest.clear();
        }
        Ok(self.child.wait()?.success())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What one phase produced.
pub struct Phase {
    /// When the phase's clock started.
    pub start: Instant,
    /// Per line: how late the writer started it after its due time, ms.
    pub lateness_ms: Vec<f64>,
    /// Response lines with arrival times.
    pub responses: Vec<(Instant, String)>,
    /// A write failure (the child went away), if any.
    pub write_error: Option<String>,
    /// Highest `VmHWM` of the child seen while the phase ran, MiB.
    pub peak_rss_mib: Option<f64>,
}

impl Phase {
    /// Milliseconds from `start + due` to `at`.
    pub fn since_due_ms(&self, due: f64, at: Instant) -> f64 {
        (at.saturating_duration_since(self.start).as_secs_f64() - due) * 1e3
    }
}

/// Ask for a 1 MiB pipe buffer (the unprivileged Linux maximum), so the
/// writer only blocks once about 200 requests are queued: at a rung the
/// server keeps up with, writes never wait on the pipe. Failure leaves the
/// default 64 KiB buffer.
fn widen_pipe(pipe: &ChildStdin) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn fcntl(fd: i32, cmd: i32, ...) -> i32;
    }
    const F_SETPIPE_SZ: i32 = 1031;
    // SAFETY: `pipe` owns an open descriptor for the duration of the call;
    // F_SETPIPE_SZ takes one int argument and writes no memory of ours.
    let _ = unsafe { fcntl(pipe.as_raw_fd(), F_SETPIPE_SZ, 1i32 << 20) };
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn vm_hwm_mib(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
