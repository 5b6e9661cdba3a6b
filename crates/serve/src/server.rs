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

use crate::proto::{event_line, write_line, SweepRequest};
use crate::sched::DeadlineRr;
use serde::json::Value;
use serde::Serialize;
use std::collections::HashMap;
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
}

/// Everything connections and workers share. Lock discipline: `state` is
/// held for table operations only — cache lookups, the in-flight table,
/// the scheduler, counters — plus, once per simulated cell, the journal
/// append that must be ordered with them. Addressing a cell and rendering
/// a record or an event allocate `Value`s and format floats, and never
/// run under it: a tenant queued behind a 10k-cell request waits out its
/// lookups, not its serialization.
struct Inner {
    state: Mutex<State>,
    work: Condvar,
    shutdown: AtomicBool,
    paused: AtomicBool,
    /// Times a worker looked at the queue: what a wake-up costs.
    #[cfg(test)]
    polls: AtomicU64,
}

impl Inner {
    fn new(cache: DiskCache, paused: bool) -> Self {
        Inner {
            state: Mutex::new(State {
                cache,
                inflight: HashMap::new(),
                sched: DeadlineRr::new(),
                stats: Counters::default(),
            }),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            paused: AtomicBool::new(paused),
            #[cfg(test)]
            polls: AtomicU64::new(0),
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

/// Serves one sweep request: plan → address (once per fabric) → look up
/// under the lock → render → burst. Every line that is ready leaves in
/// one `write`; a line that is not is never waited for with others
/// buffered behind it.
fn handle_sweep(
    inner: &Inner,
    writer: &mut impl Write,
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
    send(writer, &mut burst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver};
    use std::time::Duration;
    use tenoc_core::RunMetrics;
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
        serde_json::to_string(&record).unwrap() + "\n"
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
