//! Building the real `copack` binary and running it as a child process.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Builds the repository's `copack` binary from source (release,
/// offline) and returns its path. Cargo's own up-to-date check makes
/// this cheap after the first build in a checkout.
///
/// # Errors
///
/// When cargo fails or the binary is missing afterwards.
pub fn build_copack() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = Command::new(&cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "copack",
        ])
        .args(["--manifest-path", "Cargo.toml"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("{cargo}: {e}"))?;
    if !status.success() {
        return Err(format!("building copack failed ({status})"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_owned());
    let bin = Path::new(&target).join("release").join("copack");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not built", bin.display()))
    }
}

/// One finished `copack` invocation.
pub struct Run {
    /// Wall time from spawn to reaping.
    pub wall: Duration,
    /// Everything it wrote to standard output.
    pub stdout: Vec<u8>,
    /// Its peak resident set size, in KiB.
    pub maxrss_kib: u64,
}

/// Runs `bin args...` to completion, timing it from spawn to reaping.
///
/// # Errors
///
/// When the process cannot start or exits unsuccessfully.
pub fn run_timed(bin: &Path, args: &[&str]) -> Result<Run, String> {
    let started = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let mut stdout = Vec::new();
    let mut stderr = Vec::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout)
        .map_err(|e| e.to_string())?;
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_end(&mut stderr)
        .map_err(|e| e.to_string())?;
    let (status, maxrss_kib) = reap(&child)?;
    let wall = started.elapsed();
    if status != 0 {
        return Err(format!(
            "copack {} exited with wait status {status}: {}",
            args.join(" "),
            String::from_utf8_lossy(&stderr).trim()
        ));
    }
    Ok(Run {
        wall,
        stdout,
        maxrss_kib,
    })
}

/// The first argument that makes the benchmark binary act as the
/// intermediate process of [`run_measured`] (see [`spawn_main`]).
pub const SPAWN_FLAG: &str = "--spawn";

/// Runs `bin args...` through a fresh copy of this benchmark binary,
/// which times it, reaps it and reports its peak RSS.
///
/// Linux charges a child the peak RSS of the process that spawned it:
/// `exec` records the high-water mark of the address space it replaces,
/// and a spawned child's address space is its parent's until then. Run
/// from this process after its in-process plans, every `copack` would
/// report this process's peak. The intermediate copy stays small, so the
/// figure it reports is the child's own.
///
/// # Errors
///
/// When either process fails or the report is malformed.
pub fn run_measured(bin: &Path, args: &[&str]) -> Result<Run, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = bin.to_str().ok_or("the copack path is not UTF-8")?;
    let mut spawn_args = vec![SPAWN_FLAG, bin];
    spawn_args.extend_from_slice(args);
    let outer = run_timed(&me, &spawn_args)?;
    let malformed = || format!("malformed report from {SPAWN_FLAG}");
    let newline = outer
        .stdout
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(malformed)?;
    let header = std::str::from_utf8(&outer.stdout[..newline]).map_err(|_| malformed())?;
    let (wall_ns, maxrss_kib) = header.split_once(' ').ok_or_else(malformed)?;
    Ok(Run {
        wall: Duration::from_nanos(wall_ns.parse().map_err(|_| malformed())?),
        stdout: outer.stdout[newline + 1..].to_vec(),
        maxrss_kib: maxrss_kib.parse().map_err(|_| malformed())?,
    })
}

/// The intermediate process of [`run_measured`]: runs `argv[0]` with
/// the remaining arguments, then prints one line `<wall ns> <peak RSS
/// KiB>` followed by the child's standard output.
///
/// # Errors
///
/// When the child fails or the output cannot be written.
pub fn spawn_main(argv: &[String]) -> Result<(), String> {
    let (bin, args) = argv.split_first().ok_or("--spawn needs a program")?;
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let run = run_timed(Path::new(bin), &args)?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "{} {}", run.wall.as_nanos(), run.maxrss_kib)
        .and_then(|()| out.write_all(&run.stdout))
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())
}

/// The C `struct rusage` of Linux on 64-bit targets: two `timeval`s
/// followed by fourteen `long`s, the first of which is `ru_maxrss`.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reaps `child` with `wait4`, returning its raw wait status and peak
/// RSS. `std`'s `Child::wait` discards the resource usage.
fn reap(child: &Child) -> Result<(i32, u64), String> {
    let pid = i32::try_from(child.id()).map_err(|e| e.to_string())?;
    let mut status = 0i32;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (std never waits on
        // it behind our back: `Child` only reaps in `wait`/`try_wait`,
        // which are never called), and both out-pointers refer to live,
        // properly sized and aligned locals for the duration of the call.
        let got = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if got == pid {
            return Ok((status, u64::try_from(usage.maxrss).unwrap_or(0)));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
}

/// A `copack serve` daemon started as a child process.
pub struct Daemon {
    child: Child,
    /// The address it announced.
    pub addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Starts `copack serve --workers <workers>` on an ephemeral local
    /// port and waits for its `listening on` line.
    ///
    /// # Errors
    ///
    /// When the daemon cannot start or does not announce an address.
    pub fn start(bin: &Path, workers: usize) -> Result<Self, String> {
        let workers = workers.to_string();
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", &workers])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line.trim().strip_prefix("listening on ").map(str::to_owned);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Self {
                child,
                addr,
                _stdout: stdout,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("the daemon did not announce an address: {line:?}"))
            }
        }
    }

    /// The daemon's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A `VmRSS`/`VmHWM`-style field of the daemon's `/proc` status, in
    /// bytes.
    ///
    /// # Errors
    ///
    /// When the status file cannot be read or lacks the field.
    pub fn memory(&self, field: &str) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        text.lines()
            .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
            .and_then(|v| v.trim().strip_suffix(" kB")?.trim().parse::<u64>().ok())
            .map(|kib| kib * 1024)
            .ok_or_else(|| format!("{path}: no {field}"))
    }

    /// Waits for the daemon to exit after a `shutdown` request.
    ///
    /// # Errors
    ///
    /// When it fails to exit cleanly.
    pub fn wait(mut self) -> Result<(), String> {
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("the daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A daemon still running here belongs to a failed run: stop it
        // so no process outlives the benchmark.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
