//! The sweep service: a JSON-lines-over-TCP server over a worker pool.
//!
//! Every sweep request is planned into content-addressed cells, and each
//! cell takes exactly one of three paths:
//!
//! 1. **cache hit** — the cell was simulated before (by anyone, ever,
//!    journaled in the [`DiskCache`]); its record is streamed back
//!    immediately;
//! 2. **in-flight dedup** — the same cell is simulating right now for
//!    another request; this request registers as a waiter and the one
//!    simulation fans out to all of them;
//! 3. **scheduled** — the cell enters the requesting tenant's
//!    deadline-RR queue and is simulated once by the worker pool.
//!
//! All three paths produce byte-identical record lines (the cache-hook
//! equivalence tested in `tenoc-harness`), so the service is provably
//! just a memoized, fairly-scheduled `tenoc sweep`.

use crate::canon::cell_key;
use crate::proto::{event_line, write_line, SweepRequest};
use crate::sched::DeadlineRr;
use serde::json::Value;
use serde::Serialize;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use tenoc_harness::{annotate_cached, run_cell, SweepCell};
use tenoc_harness::{CachedCell, DiskCache, Memo};

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (tests).
    pub addr: String,
    /// Cache directory holding the `cells.jsonl` journal.
    pub cache_dir: PathBuf,
    /// Simulation worker threads.
    pub workers: usize,
    /// Start with the worker pool paused (tests use this to stage
    /// deterministic queue contents before any cell runs).
    pub start_paused: bool,
}

impl ServerConfig {
    /// A config with the given bind address and cache directory, one
    /// worker per available core, workers running.
    pub fn new(addr: &str, cache_dir: impl Into<PathBuf>) -> Self {
        ServerConfig {
            addr: addr.to_string(),
            cache_dir: cache_dir.into(),
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            start_paused: false,
        }
    }
}

/// A point-in-time view of the server's counters — the payload of the
/// `stats` endpoint.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Sweep requests accepted.
    pub requests: u64,
    /// Cells actually simulated (each distinct cell counts once, ever).
    pub simulated: u64,
    /// Cells served from the persistent cache.
    pub cache_hits: u64,
    /// Cells that attached to an in-flight simulation instead of
    /// starting their own.
    pub dedup_hits: u64,
    /// Distinct cells in the persistent cache.
    pub cache_entries: u64,
    /// Cells currently queued for the worker pool.
    pub queued: u64,
    /// Distinct cells currently simulating or queued (in-flight table
    /// size).
    pub inflight: u64,
}

impl StatsSnapshot {
    /// The stats event wire line.
    pub fn to_line(&self) -> String {
        event_line(
            "stats",
            &[
                ("requests", self.requests.to_value()),
                ("simulated", self.simulated.to_value()),
                ("cache_hits", self.cache_hits.to_value()),
                ("dedup_hits", self.dedup_hits.to_value()),
                ("cache_entries", self.cache_entries.to_value()),
                ("queued", self.queued.to_value()),
                ("inflight", self.inflight.to_value()),
            ],
        )
    }
}

/// One scheduled unit of simulation work.
struct Job {
    key: String,
    cell: SweepCell,
}

/// A request waiting on a cell: where to send the record, and the cell
/// identity *as that request sees it* (its grid index and preset label
/// may differ from the job's even though the physics is shared).
struct Waiter {
    cell: SweepCell,
    tx: Sender<String>,
}

#[derive(Default)]
struct Counters {
    requests: u64,
    simulated: u64,
    cache_hits: u64,
    dedup_hits: u64,
}

struct State {
    cache: DiskCache,
    inflight: HashMap<String, Vec<Waiter>>,
    sched: DeadlineRr<Job>,
    stats: Counters,
}

struct Inner {
    state: Mutex<State>,
    work: Condvar,
    shutdown: AtomicBool,
    paused: AtomicBool,
}

/// A running server: join handles plus the shared state.
pub struct ServerHandle {
    inner: Arc<Inner>,
    addr: SocketAddr,
    listener: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// Serializes the record a cache entry implies for `cell` — exactly the
/// bytes `tenoc sweep` would emit for that cell.
fn record_line(cell: &SweepCell, hit: &CachedCell) -> String {
    let record = annotate_cached(cell, hit.class, hit.metrics);
    serde_json::to_string(&record).expect("record is plain data")
}

fn snapshot(st: &State) -> StatsSnapshot {
    StatsSnapshot {
        requests: st.stats.requests,
        simulated: st.stats.simulated,
        cache_hits: st.stats.cache_hits,
        dedup_hits: st.stats.dedup_hits,
        cache_entries: st.cache.len() as u64,
        queued: st.sched.len() as u64,
        inflight: st.inflight.len() as u64,
    }
}

/// Starts the service: binds, replays the journal, spawns the worker
/// pool and the accept loop.
///
/// # Errors
///
/// Returns the underlying I/O error if the bind or the cache open fails.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let cache = DiskCache::open(&config.cache_dir)?;
    if let Some(warning) = cache.replay_warning() {
        eprintln!("serve: {warning}");
    }
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            cache,
            inflight: HashMap::new(),
            sched: DeadlineRr::new(),
            stats: Counters::default(),
        }),
        work: Condvar::new(),
        shutdown: AtomicBool::new(false),
        paused: AtomicBool::new(config.start_paused),
    });

    let workers: Vec<_> = (0..config.workers.max(1))
        .map(|_| {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || worker_loop(&inner))
        })
        .collect();

    let accept_inner = Arc::clone(&inner);
    let listener_thread = std::thread::spawn(move || {
        let conn_ids = AtomicU64::new(0);
        for stream in listener.incoming() {
            if accept_inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let inner = Arc::clone(&accept_inner);
            let id = conn_ids.fetch_add(1, Ordering::Relaxed);
            std::thread::spawn(move || {
                let _ = handle_conn(&inner, stream, id);
            });
        }
    });

    Ok(ServerHandle { inner, addr, listener: listener_thread, workers })
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Unpauses the worker pool.
    pub fn resume(&self) {
        self.inner.paused.store(false, Ordering::SeqCst);
        self.inner.work.notify_all();
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        snapshot(&self.inner.state.lock().expect("state lock poisoned"))
    }

    /// Stops the server: queued-but-unstarted cells are dropped, waiters
    /// are aborted, in-progress simulations finish and are journaled,
    /// every thread is joined. The cache directory remains valid for the
    /// next `start` — this is the "kill the server" half of crash-resume.
    pub fn shutdown(self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            let mut st = self.inner.state.lock().expect("state lock poisoned");
            st.sched.clear();
            // Dropping the waiters drops their channel senders; blocked
            // request handlers see the hangup and abort their streams.
            st.inflight.clear();
        }
        self.inner.work.notify_all();
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        let _ = self.listener.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        // Claim work under the lock; simulate outside it.
        let job = {
            let mut st = inner.state.lock().expect("state lock poisoned");
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if !inner.paused.load(Ordering::SeqCst) {
                    if let Some((_, job)) = st.sched.pop() {
                        break job;
                    }
                }
                st = inner.work.wait(st).expect("state lock poisoned");
            }
        };

        let r = run_cell(&job.cell);
        let cached = CachedCell { class: r.class, metrics: r.metrics };
        finish(&mut inner.state.lock().expect("state lock poisoned"), &job.key, cached);
    }
}

/// Records a simulated cell and hands it to everything waiting on it.
fn finish(st: &mut State, key: &str, cached: CachedCell) {
    // Journal before fan-out: once any waiter has seen this result, a
    // restarted server will serve it from cache. A run cut short by the
    // safety cycle limit is still delivered — its waiters asked for it —
    // but never remembered.
    if cached.finished() {
        if let Err(e) = st.cache.put(key, cached) {
            eprintln!("serve: journal append failed for {key}: {e}");
        }
    }
    st.stats.simulated += 1;
    if let Some(waiters) = st.inflight.remove(key) {
        for w in waiters {
            // A hung-up waiter (disconnected client) is fine; the
            // result is cached either way.
            let _ = w.tx.send(record_line(&w.cell, &cached));
        }
    }
}

/// Longest request line a connection may send. A `sweep` request naming
/// every preset and benchmark is under 2 kB; the cap is what keeps one
/// peer from growing the line buffer without bound.
const MAX_REQUEST_LINE: u64 = 1 << 20;

/// Sends one `error` event.
fn reject(writer: &mut TcpStream, msg: String) -> std::io::Result<()> {
    write_line(writer, &event_line("error", &[("message", msg.to_value())]))
}

fn handle_conn(inner: &Arc<Inner>, stream: TcpStream, conn_id: u64) -> std::io::Result<()> {
    // Replies are several small lines; Nagle would hold each behind the
    // client's delayed ACK of the one before.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = Vec::new();
    loop {
        line.clear();
        // One byte past the cap tells an over-long line from a full one
        // without ever buffering more than the cap.
        if reader.by_ref().take(MAX_REQUEST_LINE + 1).read_until(b'\n', &mut line)? == 0 {
            return Ok(());
        }
        if line.len() as u64 > MAX_REQUEST_LINE && line.last() != Some(&b'\n') {
            return reject(
                &mut writer,
                format!("request line longer than {MAX_REQUEST_LINE} bytes; closing"),
            );
        }
        // Lossy: bytes that are not UTF-8 become U+FFFD, which the parser
        // rejects anywhere but inside a string.
        let text = String::from_utf8_lossy(&line);
        if text.trim().is_empty() {
            continue;
        }
        let parsed = match serde::json::parse(&text) {
            Ok(v) => v,
            Err(e) => {
                reject(&mut writer, format!("malformed request: {e}"))?;
                continue;
            }
        };
        let op = parsed.field("op").ok().and_then(|o| o.as_str().ok().map(str::to_string));
        match op.as_deref() {
            Some("stats") => {
                let snap = snapshot(&inner.state.lock().expect("state lock poisoned"));
                write_line(&mut writer, &snap.to_line())?;
            }
            Some("sweep") => handle_sweep(inner, &mut writer, &parsed, conn_id)?,
            other => reject(&mut writer, format!("unknown op {other:?}"))?,
        }
    }
}

fn handle_sweep(
    inner: &Arc<Inner>,
    writer: &mut TcpStream,
    parsed: &Value,
    conn_id: u64,
) -> std::io::Result<()> {
    let req = match SweepRequest::from_value(parsed) {
        Ok(r) => r,
        Err(msg) => return reject(writer, msg),
    };
    let grid = match req.grid() {
        Ok(g) => g,
        Err(msg) => return reject(writer, msg),
    };
    let tenant = if req.tenant.is_empty() { format!("conn-{conn_id}") } else { req.tenant.clone() };
    let cells = grid.cells();

    let (tx, rx) = std::sync::mpsc::channel::<String>();
    let mut cache_hits = 0u64;
    let mut dedup_hits = 0u64;
    let mut scheduled = 0u64;
    {
        let mut st = inner.state.lock().expect("state lock poisoned");
        if inner.shutdown.load(Ordering::SeqCst) {
            drop(st);
            return reject(writer, "server is shutting down".to_string());
        }
        st.stats.requests += 1;
        for cell in &cells {
            let key = cell_key(cell);
            if let Some(&hit) = st.cache.get(&key) {
                // Send through the same channel as simulated cells so the
                // stream preserves one uniform accounting path.
                let _ = tx.send(record_line(cell, &hit));
                cache_hits += 1;
                st.stats.cache_hits += 1;
            } else if let Some(waiters) = st.inflight.get_mut(&key) {
                waiters.push(Waiter { cell: cell.clone(), tx: tx.clone() });
                dedup_hits += 1;
                st.stats.dedup_hits += 1;
            } else {
                st.inflight
                    .insert(key.clone(), vec![Waiter { cell: cell.clone(), tx: tx.clone() }]);
                st.sched.push(&tenant, Job { key, cell: cell.clone() });
                scheduled += 1;
            }
        }
    }
    inner.work.notify_all();
    drop(tx);

    write_line(writer, &event_line("planned", &[("cells", (cells.len() as u64).to_value())]))?;
    let mut received = 0usize;
    while received < cells.len() {
        match rx.recv() {
            Ok(line) => {
                write_line(writer, &line)?;
                received += 1;
            }
            Err(_) => {
                // Every sender hung up before the stream completed: the
                // server is shutting down.
                return write_line(
                    writer,
                    &event_line("aborted", &[("received", (received as u64).to_value())]),
                );
            }
        }
    }
    write_line(
        writer,
        &event_line(
            "done",
            &[
                ("cells", (cells.len() as u64).to_value()),
                ("simulated", scheduled.to_value()),
                ("cache_hits", cache_hits.to_value()),
                ("dedup_hits", dedup_hits.to_value()),
            ],
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenoc_harness::{cell_system_config, tiny_grid};

    #[test]
    fn a_cell_cut_short_by_the_cycle_limit_is_delivered_but_never_journaled() {
        let dir =
            std::env::temp_dir().join(format!("tenoc-serve-unfinished-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cell = tiny_grid().cell(0);
        let spec = tenoc_workloads::by_name(&cell.benchmark).expect("tiny grid benchmark");
        let mut cfg = cell_system_config(&cell);
        cfg.max_core_cycles = 500;
        // `System::run` reports the cap; `run_cell` asserts on it instead.
        let metrics = tenoc_core::System::new(cfg, &spec.scaled(cell.scale)).run();
        assert!(!metrics.completed, "500 core cycles cannot finish the cell");

        let (tx, rx) = std::sync::mpsc::channel();
        let key = cell_key(&cell);
        let mut st = State {
            cache: DiskCache::open(&dir).unwrap(),
            inflight: HashMap::from([(key.clone(), vec![Waiter { cell, tx }])]),
            sched: DeadlineRr::new(),
            stats: Counters::default(),
        };
        finish(&mut st, &key, CachedCell { class: spec.class, metrics });

        let line = rx.try_recv().expect("the waiter still gets its record");
        assert!(line.contains("\"completed\":false"), "{line}");
        assert!(st.cache.is_empty() && st.cache.get(&key).is_none());
        assert_eq!(std::fs::read_to_string(st.cache.path()).unwrap(), "", "journal stays empty");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
