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
//! just a memoized, fairly-scheduled `tenoc sweep`. A request whose cells
//! were all cache hits also leaves its whole answer in a bounded memo,
//! and the same request again (under any tenant) is answered with those
//! bytes before it is planned.

use crate::proto::{event_line, write_line, SweepRequest};
use crate::sched::DeadlineRr;
use serde::json::Value;
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use tenoc_harness::{cached_line, cell_keys, run_cell, SweepCell};
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
    memo: AnswerMemo,
}

/// Most record lines the answer memo holds. A record line is at most
/// ~800 bytes (the longest preset label, 20-digit seeds, shortest
/// round-trip floats), and an answer's key — its request with `tenant`
/// blanked — adds under 40 bytes per line, since a grid has at least as
/// many cells as it names presets and benchmarks, and under 300 bytes of
/// framing and table overhead per answer. So the memo holds at most
/// 4096 × (800 + 40 + 300) B ≈ 4.7 MB, however the answers are split:
/// room for five of the 775-cell figures grid.
const MEMO_LINES: usize = 1 << 12;

/// A fully cached request's answer, by canonical request: `planned`,
/// every record, `done`, exactly as the render path wrote them, and the
/// cell count its counters move by. Exact for the life of the process
/// because the journal is append-only — [`DiskCache::store`] never
/// replaces a key and nothing removes one — so an all-hit answer is a
/// pure function of its request; a restart starts with an empty memo.
#[derive(Default)]
struct AnswerMemo {
    answers: HashMap<String, (Arc<str>, usize)>,
    /// Keys oldest first, for eviction.
    order: VecDeque<String>,
    /// Record lines held, at most [`MEMO_LINES`].
    lines: usize,
}

impl AnswerMemo {
    fn get(&self, request: &str) -> Option<(Arc<str>, usize)> {
        self.answers.get(request).cloned()
    }

    /// Keeps `answer` for `request`, evicting the oldest answers until
    /// its `cells` lines fit. An answer larger than the whole memo, or one
    /// a concurrent twin already stored, is not kept.
    fn insert(&mut self, request: String, answer: Arc<str>, cells: usize) {
        if cells > MEMO_LINES || self.answers.contains_key(&request) {
            return;
        }
        while self.lines + cells > MEMO_LINES {
            let oldest = self.order.pop_front().expect("held lines belong to some answer");
            let (_, evicted) = self.answers.remove(&oldest).expect("ordered keys are held");
            self.lines -= evicted;
        }
        self.lines += cells;
        self.order.push_back(request.clone());
        self.answers.insert(request, (answer, cells));
    }
}

/// Everything connections and workers share. Lock discipline: `state` is
/// held for table operations only — cache lookups, the in-flight table,
/// the scheduler, counters, the answer memo — plus, once per simulated
/// cell, the journal append that must be ordered with them. Addressing a
/// cell and rendering a record, an event or a canonical request allocate
/// `Value`s and format floats, and never run under it: a tenant queued
/// behind a 10k-cell request waits out its lookups, not its serialization.
struct Inner {
    state: Mutex<State>,
    work: Condvar,
    shutdown: AtomicBool,
    paused: AtomicBool,
    /// Times a worker looked at the queue: what a wake-up costs.
    #[cfg(test)]
    polls: AtomicU64,
    /// Sweep requests answered from the answer memo.
    #[cfg(test)]
    memo_answers: AtomicU64,
}

impl Inner {
    fn new(cache: DiskCache, paused: bool) -> Self {
        Inner {
            state: Mutex::new(State {
                cache,
                inflight: HashMap::new(),
                sched: DeadlineRr::new(),
                stats: Counters::default(),
                memo: AnswerMemo::default(),
            }),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            paused: AtomicBool::new(paused),
            #[cfg(test)]
            polls: AtomicU64::new(0),
            #[cfg(test)]
            memo_answers: AtomicU64::new(0),
        }
    }
}

/// A running server: join handles plus the shared state.
pub struct ServerHandle {
    inner: Arc<Inner>,
    addr: SocketAddr,
    listener: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
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
    let inner = Arc::new(Inner::new(cache, config.start_paused));

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
                let _ = serve_stream(&inner, stream, id);
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
                    #[cfg(test)]
                    inner.polls.fetch_add(1, Ordering::Relaxed);
                    if let Some((_, job)) = st.sched.pop() {
                        break job;
                    }
                }
                st = inner.work.wait(st).expect("state lock poisoned");
            }
        };

        // A cell that panics costs its waiters one line each, never the
        // worker: the lock is not held here, so nothing is poisoned, and
        // a cell borrows nothing a panic could leave half-updated.
        match std::panic::catch_unwind(|| run_cell(&job.cell)) {
            Ok(r) => finish(inner, &job.key, Ok(CachedCell { class: r.class, metrics: r.metrics })),
            Err(panic) => {
                let text = panic.downcast_ref::<String>().map(String::as_str);
                let text = text.or_else(|| panic.downcast_ref::<&str>().copied());
                finish(inner, &job.key, Err(text.unwrap_or("the cell's simulation panicked")));
            }
        }
    }
}

/// Settles a job: records the simulated cell — or, for one that panicked
/// (`Err`, the panic's message), nothing — and hands the outcome to
/// everything waiting on it.
fn finish(inner: &Inner, key: &str, outcome: Result<CachedCell, &str>) {
    let waiters = {
        let mut st = inner.state.lock().expect("state lock poisoned");
        if let Ok(cached) = outcome {
            // Journal before fan-out: once any waiter has seen this
            // result, a restarted server will serve it from cache. A run
            // cut short by the safety cycle limit is still delivered —
            // its waiters asked for it — but never remembered.
            if cached.finished() {
                if let Err(e) = st.cache.put(key, cached) {
                    eprintln!("serve: journal append failed for {key}: {e}");
                }
            }
            st.stats.simulated += 1;
        }
        st.inflight.remove(key).unwrap_or_default()
    };
    // Rendered after unlocking, once per waiter: each sees the cell under
    // its own grid index and preset label. A panicked cell's `error`
    // event counts as that cell's delivery, so the stream still ends in
    // `done`; the next request for the cell schedules it afresh.
    for w in waiters {
        let line = match outcome {
            Ok(cached) => cached_line(&w.cell, &cached),
            Err(message) => {
                let cell = (w.cell.index as u64).to_value();
                event_line("error", &[("cell", cell), ("message", message.to_value())])
            }
        };
        // A hung-up waiter (disconnected client) is fine; a result is
        // cached either way.
        let _ = w.tx.send(line);
    }
}

/// Longest request line a connection may send. A `sweep` request naming
/// every preset and benchmark is under 2 kB; the cap is what keeps one
/// peer from growing the line buffer without bound.
const MAX_REQUEST_LINE: u64 = 1 << 20;

/// Sends one `error` event.
fn reject(writer: &mut impl Write, msg: String) -> std::io::Result<()> {
    write_line(writer, &event_line("error", &[("message", msg.to_value())]))
}

/// The one production transport: a TCP stream, read buffered.
fn serve_stream(inner: &Inner, stream: TcpStream, conn_id: u64) -> std::io::Result<()> {
    // A streamed cell is one small write; Nagle would hold it behind the
    // client's delayed ACK of the one before.
    stream.set_nodelay(true)?;
    let reader = BufReader::new(stream.try_clone()?);
    handle_conn(inner, reader, stream, conn_id)
}

/// Serves one connection, request line by request line, until the peer
/// closes its half or sends a line over the cap.
fn handle_conn(
    inner: &Inner,
    mut reader: impl BufRead,
    mut writer: impl Write,
    conn_id: u64,
) -> std::io::Result<()> {
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

/// Sends what `burst` holds — whole lines — in one `write`, and empties it.
fn send(writer: &mut impl Write, burst: &mut String) -> std::io::Result<()> {
    if !burst.is_empty() {
        writer.write_all(burst.as_bytes())?;
        writer.flush()?;
        burst.clear();
    }
    Ok(())
}

/// Serves one sweep request: a repeated all-hit request straight from
/// the answer memo; any other through plan → address (once per fabric) →
/// look up under the lock → render → burst. Every line that is ready
/// leaves in one `write`; a line that is not is never waited for with
/// others buffered behind it.
fn handle_sweep(
    inner: &Inner,
    writer: &mut impl Write,
    parsed: &Value,
    conn_id: u64,
) -> std::io::Result<()> {
    let mut req = match SweepRequest::from_value(parsed) {
        Ok(r) => r,
        Err(msg) => return reject(writer, msg),
    };
    // The tenant only picks a queue, never a byte of the answer.
    let tenant = std::mem::take(&mut req.tenant);
    let canonical = req.to_line();
    {
        let mut st = inner.state.lock().expect("state lock poisoned");
        if let Some((answer, cells)) = st.memo.get(&canonical) {
            if inner.shutdown.load(Ordering::SeqCst) {
                drop(st);
                return reject(writer, "server is shutting down".to_string());
            }
            st.stats.requests += 1;
            st.stats.cache_hits += cells as u64;
            drop(st);
            #[cfg(test)]
            inner.memo_answers.fetch_add(1, Ordering::Relaxed);
            writer.write_all(answer.as_bytes())?;
            return writer.flush();
        }
    }
    let grid = match req.grid() {
        Ok(g) => g,
        Err(msg) => return reject(writer, msg),
    };
    let tenant = if tenant.is_empty() { format!("conn-{conn_id}") } else { tenant };
    let cells = grid.cells();
    let keys = cell_keys(&cells);

    let (tx, rx) = std::sync::mpsc::channel::<String>();
    let mut hits: Vec<(usize, CachedCell)> = Vec::new();
    let mut dedup_hits = 0u64;
    let mut scheduled = 0u64;
    {
        let mut st = inner.state.lock().expect("state lock poisoned");
        if inner.shutdown.load(Ordering::SeqCst) {
            drop(st);
            return reject(writer, "server is shutting down".to_string());
        }
        st.stats.requests += 1;
        for (i, (cell, key)) in cells.iter().zip(keys).enumerate() {
            if let Some(&hit) = st.cache.get(&key) {
                hits.push((i, hit));
            } else if let Some(waiters) = st.inflight.get_mut(&key) {
                waiters.push(Waiter { cell: cell.clone(), tx: tx.clone() });
                dedup_hits += 1;
            } else {
                st.inflight
                    .insert(key.clone(), vec![Waiter { cell: cell.clone(), tx: tx.clone() }]);
                st.sched.push(&tenant, Job { key, cell: cell.clone() });
                scheduled += 1;
            }
        }
        st.stats.cache_hits += hits.len() as u64;
        st.stats.dedup_hits += dedup_hits;
    }
    if scheduled > 0 {
        inner.work.notify_all();
    }
    drop(tx);

    let count = |n: usize| (n as u64).to_value();
    let mut burst = String::new();
    let push = |burst: &mut String, line: &str| {
        burst.push_str(line);
        burst.push('\n');
    };
    push(&mut burst, &event_line("planned", &[("cells", count(cells.len()))]));
    // Hits first, in cell order, exactly the bytes `tenoc sweep` emits.
    for (i, hit) in &hits {
        push(&mut burst, &cached_line(&cells[*i], hit));
    }
    // Then the rest in completion order. Whatever has already finished
    // joins the burst; the moment nothing has, the burst leaves, so a
    // line never waits on a simulation that is not its own.
    for received in hits.len()..cells.len() {
        let line = match rx.try_recv() {
            Ok(line) => Ok(line),
            Err(_) => {
                send(writer, &mut burst)?;
                rx.recv()
            }
        };
        match line {
            Ok(line) => push(&mut burst, &line),
            Err(_) => {
                // Every sender hung up before the stream completed: the
                // server is shutting down.
                push(&mut burst, &event_line("aborted", &[("received", count(received))]));
                return send(writer, &mut burst);
            }
        }
    }
    push(
        &mut burst,
        &event_line(
            "done",
            &[
                ("cells", count(cells.len())),
                ("simulated", scheduled.to_value()),
                ("cache_hits", count(hits.len())),
                ("dedup_hits", dedup_hits.to_value()),
            ],
        ),
    );
    if scheduled == 0 && dedup_hits == 0 {
        let answer = Arc::from(burst.as_str());
        let mut st = inner.state.lock().expect("state lock poisoned");
        st.memo.insert(canonical, answer, cells.len());
    }
    send(writer, &mut burst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver};
    use std::time::Duration;
    use tenoc_core::{Preset, RunMetrics};
    use tenoc_harness::{annotate, cell_key, cell_system_config, tiny_grid, CellResult};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tenoc-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A made-up finished result: these tests move bytes, not flits.
    fn made_up() -> CachedCell {
        let metrics = RunMetrics {
            completed: true,
            core_cycles: 1000,
            icnt_cycles: 464,
            scalar_insts: 12345,
            ipc: 12.345,
            avg_net_latency: 20.5,
            mc_injection_rate: 0.25,
            core_injection_rate: 0.05,
            mc_stall_fraction: 0.4,
            dram_efficiency: 0.5,
            l2_read_hit_rate: 0.3,
            accepted_flits_per_node: 0.125,
            core_replays: 7,
            flit_hops: 4096,
        };
        CachedCell {
            class: tenoc_workloads::by_name("RD").expect("a Table I kernel").class,
            metrics,
        }
    }

    /// The benchmark's 24-cell grid: four fabrics under six kernels.
    fn grid24() -> SweepRequest {
        let names = |csv: &str| csv.split(',').map(str::to_owned).collect();
        SweepRequest {
            tenant: "t".into(),
            presets: names("thr-eff,baseline,cp-cr,torus"),
            benchmarks: names("RD,BFS,KM,AES,BIN,HSP"),
            scale: 0.05,
            seed: 7,
            ..SweepRequest::default()
        }
    }

    /// The shared state with no pool behind it and `cached` already in
    /// its cache (as [`made_up`] results).
    fn poolless(dir: &std::path::Path, cached: &[SweepCell]) -> Inner {
        let mut cache = DiskCache::open(dir).unwrap();
        for key in cell_keys(cached) {
            cache.put(&key, made_up()).unwrap();
        }
        Inner::new(cache, true)
    }

    /// The in-memory transport's write half: every `write` call arrives
    /// on a channel as its own buffer. The read half is a byte slice.
    struct Writes(Sender<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.send(buf.to_vec()).expect("the test outlives the connection");
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Serves `input` as one connection to its end; returns each write.
    fn converse(inner: &Inner, input: &[u8]) -> Vec<String> {
        let (tx, rx) = channel();
        handle_conn(inner, input, Writes(tx), 0).expect("an in-memory transport cannot fail");
        rx.iter().map(|w| String::from_utf8(w).unwrap()).collect()
    }

    /// What the per-line path renders for `cell`: a sealed record,
    /// serialized whole.
    fn per_line(cell: &SweepCell) -> String {
        let CachedCell { class, metrics } = made_up();
        let record = annotate(&CellResult { cell: cell.clone(), class, metrics, wall_nanos: 0 });
        record.to_value().to_json_compact() + "\n"
    }

    fn next_write(rx: &Receiver<Vec<u8>>) -> String {
        let bytes = rx.recv_timeout(Duration::from_secs(60)).expect("a write within the timeout");
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn a_fully_cached_request_is_one_write_of_the_per_line_bytes() {
        let dir = tmp_dir("burst");
        let cells = grid24().grid().unwrap().cells();
        let inner = poolless(&dir, &cells);

        let writes = converse(&inner, format!("{}\n", grid24().to_line()).as_bytes());
        assert!(writes.len() <= 2, "{} writes for one cached request", writes.len());
        let mut expected = String::from("{\"event\":\"planned\",\"cells\":24}\n");
        expected.extend(cells.iter().map(per_line));
        expected.push_str(
            "{\"event\":\"done\",\"cells\":24,\"simulated\":0,\"cache_hits\":24,\"dedup_hits\":0}\n",
        );
        assert_eq!(writes.concat(), expected);

        let st = inner.state.lock().unwrap();
        assert_eq!((st.stats.requests, st.stats.cache_hits, st.sched.len()), (1, 24, 0));
        drop(st);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_lines_leave_before_the_request_blocks_on_an_uncached_cell() {
        let dir = tmp_dir("boundary");
        let cells = grid24().grid().unwrap().cells();
        let (last, cached) = cells.split_last().unwrap();
        let inner = poolless(&dir, cached);
        let request = format!("{}\n", grid24().to_line());
        let (tx, rx) = channel();

        std::thread::scope(|s| {
            let conn = s.spawn(|| handle_conn(&inner, request.as_bytes(), Writes(tx), 0));
            // No pool: cell 23 sits in the queue, and the 23 lines that
            // were ready must already be out.
            let mut expected = String::from("{\"event\":\"planned\",\"cells\":24}\n");
            expected.extend(cached.iter().map(per_line));
            assert_eq!(next_write(&rx), expected);
            let job = {
                let mut st = inner.state.lock().unwrap();
                assert_eq!((st.sched.len(), st.inflight.len()), (1, 1));
                st.sched.pop().unwrap().1
            };
            finish(&inner, &job.key, Ok(made_up()));
            let tail = "{\"event\":\"done\",\"cells\":24,\"simulated\":1,\"cache_hits\":23,\"dedup_hits\":0}\n";
            assert_eq!(next_write(&rx), per_line(last) + tail);
            conn.join().unwrap().unwrap();
        });
        assert!(rx.try_recv().is_err(), "nothing after done");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The in-memory twins of `tests/hostile_input.rs`: no socket, no sleep.
    #[test]
    fn hostile_lines_are_refused_in_memory() {
        let dir = tmp_dir("hostile");
        let inner = poolless(&dir, &[]);

        // Deep nesting is an event, and the connection keeps serving.
        let mut probe = vec![b'['; 300_000];
        probe.extend_from_slice(b"\n{\"op\":\"nope\"}\n\n{\"op\":\"stats\"}\n");
        let writes = converse(&inner, &probe);
        assert_eq!(writes.len(), 3, "{writes:?}");
        assert!(writes[0].starts_with("{\"event\":\"error\",\"message\":\"malformed request: "));
        assert!(writes[0].contains("nesting deeper than 64 levels"), "{}", writes[0]);
        assert!(writes[1].contains("unknown op"), "{}", writes[1]);
        assert!(writes[2].starts_with("{\"event\":\"stats\",\"requests\":0,"), "{}", writes[2]);

        // A line over the cap is refused by length, before it is parsed
        // (it would parse: padding, then a well-formed request), and the
        // connection is closed: the stats line behind it goes unanswered.
        let mut long = vec![b' '; MAX_REQUEST_LINE as usize];
        long.extend_from_slice(b"{\"op\":\"stats\"}\n{\"op\":\"stats\"}\n");
        let writes = converse(&inner, &long);
        assert_eq!(writes.len(), 1, "{writes:?}");
        assert!(writes[0].contains("request line longer than 1048576 bytes; closing"));

        // A line of exactly the cap, newline included, is a full line.
        let mut full = vec![b' '; MAX_REQUEST_LINE as usize - 15];
        full.extend_from_slice(b"{\"op\":\"stats\"}\n");
        assert_eq!(full.len() as u64, MAX_REQUEST_LINE);
        let writes = converse(&inner, &full);
        assert!(writes.len() == 1 && writes[0].starts_with("{\"event\":\"stats\""), "{writes:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A radix above the bound is refused by name before any fabric is
    /// resolved — unrefused, `65536` panics the connection thread inside
    /// `cell_keys` and the stream ends with no event — and the same
    /// connection, on the same state, goes on serving.
    #[test]
    fn an_oversized_mesh_radix_is_a_named_error_and_the_next_request_is_served() {
        let dir = tmp_dir("radix");
        let small = SweepRequest {
            presets: vec!["baseline".into()],
            benchmarks: vec!["HIS".into()],
            ..SweepRequest::default()
        };
        let inner = poolless(&dir, &small.grid().unwrap().cells());
        let mut input = String::new();
        for k in ["65536", "4294967296"] {
            input.push_str(&format!(
                "{{\"op\":\"sweep\",\"presets\":[\"baseline\"],\"benchmarks\":[\"HIS\"],\"mesh_k\":{k}}}\n"
            ));
        }
        input.push_str(&format!("{}\n", small.to_line()));
        let writes = converse(&inner, input.as_bytes());
        let refused = format!(
            "{{\"event\":\"error\",\"message\":\"mesh_k must be between 2 and {}\"}}\n",
            tenoc_core::MAX_MESH_K
        );
        assert_eq!(writes.len(), 3, "{writes:?}");
        assert_eq!(writes[..2], [refused.clone(), refused]);
        assert!(writes[2].starts_with("{\"event\":\"planned\",\"cells\":1}\n"), "{writes:?}");
        assert!(writes[2].ends_with("\"simulated\":0,\"cache_hits\":1,\"dedup_hits\":0}\n"));
        let st = inner.state.lock().unwrap();
        assert_eq!((st.stats.requests, st.sched.len(), st.inflight.len()), (1, 0, 0));
        drop(st);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The counters a request moved: `after` minus `before`, field by
    /// field (`queued` and `inflight` are levels, compared as they are).
    fn moved(before: StatsSnapshot, after: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            requests: after.requests - before.requests,
            simulated: after.simulated - before.simulated,
            cache_hits: after.cache_hits - before.cache_hits,
            dedup_hits: after.dedup_hits - before.dedup_hits,
            cache_entries: after.cache_entries - before.cache_entries,
            ..after
        }
    }

    fn stats_of(inner: &Inner) -> StatsSnapshot {
        snapshot(&inner.state.lock().unwrap())
    }

    fn memo_answers(inner: &Inner) -> u64 {
        inner.memo_answers.load(Ordering::SeqCst)
    }

    /// One request, sent alone on a connection: its answer, whole.
    fn answer(inner: &Inner, line: &str) -> String {
        converse(inner, format!("{line}\n").as_bytes()).concat()
    }

    #[test]
    fn a_repeated_all_hit_request_is_answered_from_the_memo_under_any_tenant_and_spelling() {
        let dir = tmp_dir("memo");
        let cells = grid24().grid().unwrap().cells();
        let inner = poolless(&dir, &cells);

        let first = SweepRequest { tenant: "a".into(), ..grid24() }.to_line();
        let before = stats_of(&inner);
        let rendered = answer(&inner, &first);
        let after_first = stats_of(&inner);
        assert_eq!(memo_answers(&inner), 0, "the first answer is rendered");
        // The same request under another tenant, its fields reordered and
        // spaced, `scale` in exponent form and `mesh_k` left to default.
        let second = r#" { "seed": 7, "benchmarks": ["RD", "BFS", "KM", "AES", "BIN", "HSP"],
            "scale": 5e-2, "tenant": "b", "op": "sweep",
            "presets": ["thr-eff", "baseline", "cp-cr", "torus"] }"#
            .replace('\n', "");
        let memoized = answer(&inner, &second);
        let after_second = stats_of(&inner);
        assert_eq!(memo_answers(&inner), 1, "the second answer comes from the memo");
        assert_eq!(memoized, rendered);
        assert!(rendered.ends_with(
            "{\"event\":\"done\",\"cells\":24,\"simulated\":0,\"cache_hits\":24,\"dedup_hits\":0}\n"
        ));
        assert_eq!(moved(after_first, after_second), moved(before, after_first));
        assert_eq!((after_second.requests, after_second.cache_hits), (2, 48));
        // A memo answer is one write, like the burst it replays.
        let tenantless = SweepRequest { tenant: String::new(), ..grid24() }.to_line();
        assert_eq!(converse(&inner, format!("{tenantless}\n").as_bytes()), [rendered]);
        assert_eq!(memo_answers(&inner), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_request_that_scheduled_or_awaited_a_cell_is_never_memoized() {
        let dir = tmp_dir("memo-wait");
        let cells = grid24().grid().unwrap().cells();
        let inner = poolless(&dir, &cells[..23]);
        let request = format!("{}\n", grid24().to_line());
        let ((tx_a, rx_a), (tx_b, rx_b)) = (channel(), channel());

        std::thread::scope(|s| {
            // A schedules cell 23; B, the same request, attaches to it.
            let a = s.spawn(|| handle_conn(&inner, request.as_bytes(), Writes(tx_a), 0));
            next_write(&rx_a);
            let b = s.spawn(|| handle_conn(&inner, request.as_bytes(), Writes(tx_b), 1));
            next_write(&rx_b);
            let job = {
                let mut st = inner.state.lock().unwrap();
                assert_eq!(st.stats.dedup_hits, 1, "B waits on A's cell");
                st.sched.pop().unwrap().1
            };
            finish(&inner, &job.key, Ok(made_up()));
            a.join().unwrap().unwrap();
            b.join().unwrap().unwrap();
        });
        assert!(rx_a.iter().chain(rx_b.iter()).all(|w| !w.is_empty()));
        assert!(inner.state.lock().unwrap().memo.answers.is_empty());

        // Now every cell is a hit: the next answer is rendered and kept,
        // the one after it replayed.
        let rendered = answer(&inner, &grid24().to_line());
        assert_eq!(memo_answers(&inner), 0);
        assert_eq!(answer(&inner, &grid24().to_line()), rendered);
        assert_eq!(memo_answers(&inner), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn requests_that_differ_in_any_axis_never_share_an_answer() {
        let dir = tmp_dir("memo-axes");
        let base = SweepRequest {
            presets: vec!["baseline".into(), "torus".into()],
            benchmarks: vec!["HIS".into(), "RD".into()],
            scale: 0.05,
            seed: 7,
            ..SweepRequest::default()
        };
        let variants = [
            base.clone(),
            SweepRequest { seed: 8, ..base.clone() },
            SweepRequest { presets: vec!["torus".into(), "baseline".into()], ..base.clone() },
            SweepRequest { scale: 0.06, ..base.clone() },
            SweepRequest { mesh_k: 4, ..base.clone() },
            SweepRequest::tiny(""),
        ];
        let all: Vec<SweepCell> = variants.iter().flat_map(|r| r.grid().unwrap().cells()).collect();
        let inner = poolless(&dir, &all);

        let rendered: Vec<String> = variants.iter().map(|r| answer(&inner, &r.to_line())).collect();
        assert_eq!(memo_answers(&inner), 0, "no variant was answered with another's bytes");
        for (i, a) in rendered.iter().enumerate() {
            assert!(rendered[..i].iter().all(|b| a != b), "variant {i} repeats an answer");
        }
        for (r, expected) in variants.iter().zip(&rendered) {
            assert_eq!(&answer(&inner, &r.to_line()), expected);
        }
        assert_eq!(memo_answers(&inner), variants.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn past_the_cap_the_oldest_answer_is_evicted_and_answers_stay_right() {
        let dir = tmp_dir("memo-cap");
        // Every named preset under every kernel: 465 lines per answer.
        let request = |seed| SweepRequest {
            presets: Preset::NAMED.iter().map(|p| p.flag().to_string()).collect(),
            benchmarks: tenoc_workloads::suite().into_iter().map(|s| s.name).collect(),
            scale: 0.05,
            seed,
            ..SweepRequest::default()
        };
        let per = request(0).grid().unwrap().len();
        let fit = MEMO_LINES / per;
        let seeds = 1..=fit as u64 + 1;
        let all: Vec<SweepCell> =
            seeds.clone().flat_map(|s| request(s).grid().unwrap().cells()).collect();
        let inner = poolless(&dir, &all);
        let held = || {
            let st = inner.state.lock().unwrap();
            (st.memo.order.len(), st.memo.lines)
        };

        let rendered: Vec<String> =
            seeds.clone().map(|s| answer(&inner, &request(s).to_line())).collect();
        assert_eq!(memo_answers(&inner), 0);
        assert_eq!(held(), (fit, fit * per), "the last answer evicted the first");
        // Seed 2 is held; seed 1 was evicted, so it is rendered again,
        // byte for byte, and evicts seed 2, now the oldest.
        assert_eq!(answer(&inner, &request(2).to_line()), rendered[1]);
        assert_eq!(memo_answers(&inner), 1);
        assert_eq!(answer(&inner, &request(1).to_line()), rendered[0]);
        assert_eq!(memo_answers(&inner), 1);
        assert_eq!(answer(&inner, &request(2).to_line()), rendered[1]);
        assert_eq!(memo_answers(&inner), 1, "seed 2 went first, though it was just replayed");
        assert!(held().1 <= MEMO_LINES);

        // An answer larger than the whole memo is never kept.
        let mut memo = AnswerMemo::default();
        memo.insert("huge".into(), Arc::from(""), MEMO_LINES + 1);
        assert!(memo.get("huge").is_none() && memo.lines == 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn during_shutdown_a_memo_hit_is_still_refused() {
        let dir = tmp_dir("memo-shutdown");
        let cells = grid24().grid().unwrap().cells();
        let inner = poolless(&dir, &cells);
        let rendered = answer(&inner, &grid24().to_line());
        assert_eq!(answer(&inner, &grid24().to_line()), rendered);
        assert_eq!(memo_answers(&inner), 1);

        inner.shutdown.store(true, Ordering::SeqCst);
        let before = stats_of(&inner);
        assert_eq!(
            answer(&inner, &grid24().to_line()),
            "{\"event\":\"error\",\"message\":\"server is shutting down\"}\n"
        );
        assert_eq!(stats_of(&inner), before, "a refused request moves no counter");
        assert_eq!(memo_answers(&inner), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
        for _ in 0..2000 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn a_fully_cached_request_wakes_no_worker() {
        let dir = tmp_dir("wake");
        let cells = grid24().grid().unwrap().cells();
        drop(poolless(&dir, &cells));
        let config = ServerConfig {
            workers: 2,
            start_paused: true,
            ..ServerConfig::new("127.0.0.1:0", &dir)
        };
        let handle = start(config).unwrap();
        let inner = Arc::clone(&handle.inner);
        let polls = || inner.polls.load(Ordering::SeqCst);
        assert_eq!(polls(), 0, "a paused pool does not look at the queue");
        handle.resume();
        wait_for(|| polls() == 2, "both workers to find the queue empty");

        let writes = converse(&inner, format!("{}\n", grid24().to_line()).as_bytes());
        assert!(writes.concat().ends_with("\"simulated\":0,\"cache_hits\":24,\"dedup_hits\":0}\n"));
        // Both workers were back on the condvar before the request took
        // the lock; a wake-up it sent would show as a poll. The sleep can
        // only make the check sharper, never flaky.
        std::thread::sleep(Duration::from_millis(50));
        handle.shutdown();
        assert_eq!(polls(), 2, "a request that scheduled nothing woke the pool");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_cell_costs_its_waiter_one_error_line_and_nothing_else() {
        let dir = tmp_dir("panic");
        let config = ServerConfig {
            workers: 1,
            start_paused: true,
            ..ServerConfig::new("127.0.0.1:0", &dir)
        };
        let handle = start(config).unwrap();
        let good = tiny_grid().cell(0);
        // `SweepRequest::grid` refuses an unknown benchmark, so the job
        // that panics (`run_config_cell`) is staged by hand, first in line.
        let bad = SweepCell { index: 5, benchmark: "NOPE".into(), ..good.clone() };
        let (tx, rx) = channel();
        {
            let mut st = handle.inner.state.lock().unwrap();
            for cell in [&bad, &good] {
                let key = cell_key(cell);
                st.inflight
                    .insert(key.clone(), vec![Waiter { cell: cell.clone(), tx: tx.clone() }]);
                st.sched.push("t", Job { key, cell: cell.clone() });
            }
        }
        drop(tx);
        handle.resume();

        let wait = Duration::from_secs(60);
        let error = rx.recv_timeout(wait).expect("the panicking cell's waiter is released");
        assert_eq!(
            error,
            "{\"event\":\"error\",\"cell\":5,\"message\":\"unknown benchmark NOPE\"}"
        );
        let record = rx.recv_timeout(wait).expect("the one worker survived to run the next cell");
        assert!(
            record.starts_with("{\"cell\":0,\"preset\":\"TB-DOR\",\"benchmark\":\"HIS\""),
            "{record}"
        );

        // The server keeps serving: the good cell again, now from cache.
        let again = SweepRequest {
            presets: vec!["baseline".into()],
            benchmarks: vec![good.benchmark.clone()],
            ..SweepRequest::default()
        };
        let writes = converse(&handle.inner, format!("{}\n", again.to_line()).as_bytes());
        assert_eq!(writes.len(), 1, "{writes:?}");
        assert!(writes[0].contains(&record), "{writes:?}");
        assert!(writes[0].ends_with("\"simulated\":0,\"cache_hits\":1,\"dedup_hits\":0}\n"));
        let stats = handle.stats();
        assert_eq!((stats.inflight, stats.queued), (0, 0), "{stats:?}");
        assert_eq!((stats.simulated, stats.cache_entries), (1, 1), "the panic is not a result");
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_cell_cut_short_by_the_cycle_limit_is_delivered_but_never_journaled() {
        let dir = tmp_dir("unfinished");
        let cell = tiny_grid().cell(0);
        let spec = tenoc_workloads::by_name(&cell.benchmark).expect("tiny grid benchmark");
        let mut cfg = cell_system_config(&cell);
        cfg.max_core_cycles = 500;
        // `System::run` reports the cap; `run_cell` asserts on it instead.
        let metrics = tenoc_core::System::new(cfg, &spec.scaled(cell.scale)).run();
        assert!(!metrics.completed, "500 core cycles cannot finish the cell");

        let (tx, rx) = channel();
        let key = cell_key(&cell);
        let inner = poolless(&dir, &[]);
        inner.state.lock().unwrap().inflight.insert(key.clone(), vec![Waiter { cell, tx }]);
        finish(&inner, &key, Ok(CachedCell { class: spec.class, metrics }));

        let line = rx.try_recv().expect("the waiter still gets its record");
        assert!(line.contains("\"completed\":false"), "{line}");
        let st = inner.state.lock().unwrap();
        assert!(st.cache.is_empty() && st.cache.get(&key).is_none());
        assert_eq!(std::fs::read_to_string(st.cache.path()).unwrap(), "", "journal stays empty");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
