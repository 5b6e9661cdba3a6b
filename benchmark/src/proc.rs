//! Child processes: the `tenoc` binary run to completion with its peak
//! memory watched from `/proc`, and a long-lived `tenoc serve` that is
//! killed on every exit path.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How often a running child's `VmHWM` is read.
const RSS_POLL: Duration = Duration::from_millis(20);

/// Where the repository and its built binary live.
#[derive(Clone, Debug)]
pub struct Repo {
    /// Repository root (the parent of this package).
    pub root: PathBuf,
    /// The built `tenoc` binary.
    pub tenoc: PathBuf,
    /// Scratch directory for this process, under `benchmark/out/`.
    pub out: PathBuf,
}

impl Repo {
    /// Locates the repository from this package's compile-time manifest
    /// directory, and the target directory the way cargo does: an
    /// explicit `CARGO_TARGET_DIR` (relative to the invocation's working
    /// directory) or `<root>/target`.
    pub fn locate() -> Repo {
        let bench = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = bench.parent().expect("the package sits in the repository").to_path_buf();
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) => std::env::current_dir().unwrap_or_else(|_| root.clone()).join(dir),
            None => root.join("target"),
        };
        let out = bench.join("out").join(format!("run-{}", std::process::id()));
        Repo { tenoc: target.join("release").join("tenoc"), root, out }
    }

    /// Runs the tier-1 `cargo build --release` (not timed; a no-op when
    /// fresh) so every end-to-end number comes from the binary a user of
    /// this checkout would run.
    ///
    /// # Errors
    ///
    /// Returns cargo's captured output if the build fails.
    pub fn build(&self) -> Result<(), String> {
        let target = self.tenoc.parent().and_then(Path::parent).expect("target/release/tenoc");
        let out = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
            .args(["build", "--release", "--offline"])
            .current_dir(&self.root)
            .env("CARGO_TARGET_DIR", target)
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !out.status.success() || !self.tenoc.is_file() {
            return Err(format!(
                "tier-1 `cargo build --release` failed in {}:\n{}",
                self.root.display(),
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        Ok(())
    }

    /// A `tenoc` invocation with the repository root as working
    /// directory (golden paths are given relative to it).
    pub fn tenoc(&self, args: &[String]) -> Command {
        let mut cmd = Command::new(&self.tenoc);
        cmd.args(args).current_dir(&self.root).stdin(Stdio::null());
        cmd
    }

    /// Creates (emptying any previous content) a scratch directory.
    ///
    /// # Errors
    ///
    /// Returns the I/O error with the path.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.out.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// Removes the process's scratch directory when dropped, so runs leave
/// only what they were asked to write.
pub struct ScratchGuard(pub PathBuf);

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set (`VmHWM`) of a live process in KiB, or `None` once
/// it is gone.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// What one finished child did.
#[derive(Debug)]
pub struct Finished {
    /// `true` for exit code 0.
    pub ok: bool,
    /// Spawn to exit.
    pub wall: Duration,
    /// Highest `VmHWM` seen, KiB.
    pub peak_rss_kb: u64,
    /// Captured standard error (shown only on failure).
    pub stderr: String,
}

/// Runs a command to completion with stdout discarded and stderr
/// captured, polling its peak memory from a second thread while the
/// caller blocks in `wait`.
///
/// # Errors
///
/// Returns a message if the process cannot be spawned or waited for.
pub fn run(mut cmd: Command) -> Result<Finished, String> {
    cmd.stdout(Stdio::null()).stderr(Stdio::piped());
    let start = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
    let pid = child.id();
    let mut pipe = child.stderr.take().expect("stderr is piped");
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::SeqCst) {
                peak = peak.max(vm_hwm_kb(pid).unwrap_or(0));
                std::thread::sleep(RSS_POLL);
            }
            peak
        });
        let reader = s.spawn(move || {
            let mut text = String::new();
            let _ = pipe.read_to_string(&mut text);
            text
        });
        let status = child.wait();
        let wall = start.elapsed();
        done.store(true, Ordering::SeqCst);
        let peak_rss_kb = watcher.join().expect("the watcher does not panic");
        let stderr = reader.join().expect("the reader does not panic");
        let status = status.map_err(|e| format!("cannot wait for {cmd:?}: {e}"))?;
        Ok(Finished { ok: status.success(), wall, peak_rss_kb, stderr })
    })
}

/// A running `tenoc serve`, killed and reaped when dropped — on normal
/// return, on `?`, and on panic alike.
pub struct Server {
    child: Child,
    /// Address it listens on.
    pub addr: SocketAddr,
}

impl Server {
    /// Picks a free port by binding `127.0.0.1:0` first, spawns
    /// `tenoc serve` on it over `cache`, and waits until it accepts.
    ///
    /// # Errors
    ///
    /// Returns a message (with the server's stderr) if it never accepts.
    pub fn spawn(repo: &Repo, cache: &Path) -> Result<Server, String> {
        let addr = {
            let probe =
                TcpListener::bind("127.0.0.1:0").map_err(|e| format!("no free port: {e}"))?;
            probe.local_addr().map_err(|e| e.to_string())?
        };
        let args = [
            "serve".to_string(),
            "--addr".to_string(),
            addr.to_string(),
            "--cache".to_string(),
            cache.display().to_string(),
            "--jobs".to_string(),
            crate::spec::JOBS.to_string(),
        ];
        let start = Instant::now();
        let child = repo
            .tenoc(&args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn tenoc serve: {e}"))?;
        let mut server = Server { child, addr };
        let deadline = start + Duration::from_secs(10);
        loop {
            if TcpStream::connect(addr).is_ok() {
                return Ok(server);
            }
            let exited = matches!(server.child.try_wait(), Ok(Some(_)));
            if exited || Instant::now() > deadline {
                return Err(format!("tenoc serve never accepted on {addr}:\n{}", server.stderr()));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Peak resident set so far, KiB.
    pub fn peak_rss_kb(&self) -> u64 {
        vm_hwm_kb(self.child.id()).unwrap_or(0)
    }

    /// SIGKILLs the server (no goodbye: this is the crash the journal
    /// exists for) and reaps it.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Kills the server and returns what it wrote to stderr.
    fn stderr(&mut self) -> String {
        self.stop();
        let mut text = String::new();
        if let Some(mut pipe) = self.child.stderr.take() {
            let _ = pipe.read_to_string(&mut text);
        }
        text
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}
