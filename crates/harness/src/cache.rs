//! The persistent content-addressed result store.
//!
//! One append-only JSON-lines journal (`cells.jsonl` in the cache
//! directory) is both the durable cache and the crash-resume log: every
//! finished result is appended *before* it is handed to whoever waits on
//! it, so a process killed mid-run loses at most the result in flight.
//! On open the journal is replayed into the in-memory map and every
//! journaled result is served without re-simulation — across restarts,
//! across tenants, across sweeps and tuner runs.
//!
//! The store holds three kinds of result under one journal, one replay
//! and one version gate: closed-loop cells ([`CachedCell`], addressed by
//! [`config_cell_key`](crate::canon::config_cell_key)), open-loop probe
//! answers (an [`OpenLoopResult`], or `None` for a bounded question the
//! bound cut; addressed by [`probe_key`](crate::canon::probe_key)) and
//! the link-utilization heatmaps of a traced cell ([`Heatmaps`],
//! addressed by [`heatmap_key`](crate::canon::heatmap_key)). Every line
//! carries the [`MODEL_VERSION`] that produced it; a line from any other
//! version is left on disk but never loaded, so no result outlives the
//! simulator that measured it. [`memoize`] is the one lookup → run-misses
//! → put path every caller with a batch of addressed work goes through.

use serde::json::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use tenoc_core::pool::run_indexed;
use tenoc_core::RunMetrics;
use tenoc_noc::openloop::OpenLoopResult;
use tenoc_simt::TrafficClass;

/// The version of the simulated model. Content addresses name *what* was
/// asked; this names *which simulator answered*. Bump it whenever a
/// change moves a simulated number — that is, whenever
/// `tests/golden/tiny.jsonl` is re-blessed for a measured value (a test
/// ties the two) — and every journal written before the bump stops being
/// served. A record field that no journaled value feeds moves the golden
/// alone: the journal stores only [`CachedCell`]s, which still rebuild
/// every record.
pub const MODEL_VERSION: u32 = 1;

/// One cached cell result: everything a record needs beyond the cell's
/// own identity.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CachedCell {
    /// Traffic class of the cell's benchmark.
    pub class: TrafficClass,
    /// The measured closed-loop metrics.
    pub metrics: RunMetrics,
}

/// The link-utilization heatmaps of one traced cell, one per physical
/// network in the order the system reports them: `(label, heatmap)`, with
/// `heatmap[y][x]` the mean utilization of node `(x, y)`'s outgoing links.
#[derive(Clone, Debug, PartialEq)]
pub struct Heatmaps(pub Vec<(String, Vec<Vec<f64>>)>);

/// One journaled result.
#[derive(Clone, Debug)]
pub enum Entry {
    /// A closed-loop cell.
    Cell(CachedCell),
    /// An open-loop probe answer: measured, or `None` when cut by its
    /// bound.
    Probe(Option<OpenLoopResult>),
    /// A traced cell's heatmaps.
    Heatmap(Heatmaps),
}

/// A result kind the store can hold.
pub trait Memo: Clone + Into<Entry> {
    /// The result an entry holds, if it is of this kind.
    fn from_entry(entry: &Entry) -> Option<&Self>;
    /// `false` for a run that was cut short (a closed-loop cell that hit
    /// its safety cycle limit): still a result to report, never one to
    /// remember.
    fn finished(&self) -> bool;
}

impl From<CachedCell> for Entry {
    fn from(cell: CachedCell) -> Self {
        Entry::Cell(cell)
    }
}

impl Memo for CachedCell {
    fn from_entry(entry: &Entry) -> Option<&Self> {
        match entry {
            Entry::Cell(cell) => Some(cell),
            _ => None,
        }
    }

    fn finished(&self) -> bool {
        self.metrics.completed
    }
}

impl From<Option<OpenLoopResult>> for Entry {
    fn from(probe: Option<OpenLoopResult>) -> Self {
        Entry::Probe(probe)
    }
}

impl Memo for Option<OpenLoopResult> {
    fn from_entry(entry: &Entry) -> Option<&Self> {
        match entry {
            Entry::Probe(probe) => Some(probe),
            _ => None,
        }
    }

    /// A probe runs its fixed windows to the end whatever the fabric does,
    /// and a cut is a proof, not a partial run.
    fn finished(&self) -> bool {
        true
    }
}

impl From<Heatmaps> for Entry {
    fn from(heatmaps: Heatmaps) -> Self {
        Entry::Heatmap(heatmaps)
    }
}

impl Memo for Heatmaps {
    fn from_entry(entry: &Entry) -> Option<&Self> {
        match entry {
            Entry::Heatmap(heatmaps) => Some(heatmaps),
            _ => None,
        }
    }

    /// A traced run that hits its cycle limit panics instead of reporting.
    fn finished(&self) -> bool {
        true
    }
}

/// A probe's eight fields as raw bit patterns, in declaration order.
/// Probe results hold non-finite floats (`avg_*_latency` is infinite
/// when nothing was measured) that a JSON number cannot carry, so the
/// journal stores bits, not numbers. Exhaustive, so a new field does not
/// compile until it is journaled.
fn probe_bits(probe: &OpenLoopResult) -> [u64; 8] {
    let OpenLoopResult {
        offered,
        accepted,
        ejection_rate,
        ejection_bytes_rate,
        avg_latency,
        avg_request_latency,
        avg_reply_latency,
        delivered_fraction,
    } = *probe;
    [
        offered,
        accepted,
        ejection_rate,
        ejection_bytes_rate,
        avg_latency,
        avg_request_latency,
        avg_reply_latency,
        delivered_fraction,
    ]
    .map(f64::to_bits)
}

/// The inverse of [`probe_bits`].
fn probe_from_bits(bits: [u64; 8]) -> OpenLoopResult {
    let f = bits.map(f64::from_bits);
    OpenLoopResult {
        offered: f[0],
        accepted: f[1],
        ejection_rate: f[2],
        ejection_bytes_rate: f[3],
        avg_latency: f[4],
        avg_request_latency: f[5],
        avg_reply_latency: f[6],
        delivered_fraction: f[7],
    }
}

/// A float's bit pattern as the journal writes it: 16 hex digits.
fn hex(bits: u64) -> Value {
    Value::String(format!("{bits:016x}"))
}

/// The inverse of [`hex`].
fn unhex(v: &Value) -> Option<u64> {
    u64::from_str_radix(v.as_str().ok()?, 16).ok()
}

/// Every grid of a [`Heatmaps`] as bit-pattern rows, like a probe's
/// fields: `[[label, [[bits…]…]]…]`.
fn heatmaps_value(heatmaps: &Heatmaps) -> Value {
    let slices = heatmaps.0.iter().map(|(label, grid)| {
        let rows =
            grid.iter().map(|row| Value::Array(row.iter().map(|x| hex(x.to_bits())).collect()));
        Value::Array(vec![label.to_value(), Value::Array(rows.collect())])
    });
    Value::Array(slices.collect())
}

/// The inverse of [`heatmaps_value`].
fn heatmaps_from_value(v: &Value) -> Option<Heatmaps> {
    let cell = |h: &Value| unhex(h).map(f64::from_bits);
    let row = |r: &Value| r.as_array().ok()?.iter().map(cell).collect::<Option<Vec<f64>>>();
    let slice = |s: &Value| {
        let [label, rows] = s.as_array().ok()? else { return None };
        let grid = rows.as_array().ok()?.iter().map(row).collect::<Option<_>>()?;
        Some((label.as_str().ok()?.to_string(), grid))
    };
    v.as_array().ok()?.iter().map(slice).collect::<Option<_>>().map(Heatmaps)
}

/// What replay makes of one complete journal line.
enum Line {
    Live(String, Entry),
    /// Written under another [`MODEL_VERSION`] (or before versioning).
    Stale,
    Unparseable,
}

/// The on-disk store: an in-memory map over an append-only journal.
pub struct DiskCache {
    path: PathBuf,
    journal: File,
    map: HashMap<String, Entry>,
    /// Journal lines that failed to parse on load (a crash can truncate
    /// the final line; anything else indicates corruption worth seeing).
    pub skipped_lines: usize,
    /// Well-formed journal lines left unloaded because a different
    /// [`MODEL_VERSION`] (or none) wrote them.
    pub stale_lines: usize,
}

impl DiskCache {
    /// The journal file inside a cache directory.
    pub fn journal_path(dir: &Path) -> PathBuf {
        dir.join("cells.jsonl")
    }

    /// Opens (creating if needed) the cache rooted at `dir` and replays
    /// its journal.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory or journal
    /// cannot be created or read.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = Self::journal_path(dir);
        let existing = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        // Only '\n'-terminated lines are records: a crash mid-append
        // leaves a partial tail, and even a tail that happens to parse
        // (crash between the payload and its newline) is treated as the
        // one in-flight cell the durability contract allows losing.
        let boundary = existing.rfind('\n').map(|i| i + 1).unwrap_or(0);
        let (complete, tail) = existing.split_at(boundary);
        let mut map = HashMap::new();
        let mut skipped_lines = 0;
        let mut stale_lines = 0;
        for line in complete.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match Self::parse_line(line) {
                Line::Live(key, entry) => {
                    map.insert(key, entry);
                }
                Line::Stale => stale_lines += 1,
                Line::Unparseable => skipped_lines += 1,
            }
        }
        // Trim the partial tail before reopening for append: appending
        // after it would glue the next record onto the partial bytes and
        // silently lose that record on the *next* replay.
        if !tail.is_empty() {
            if !tail.trim().is_empty() {
                skipped_lines += 1;
            }
            let trim = OpenOptions::new().write(true).open(&path)?;
            trim.set_len(boundary as u64)?;
        }
        let journal = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(DiskCache { path, journal, map, skipped_lines, stale_lines })
    }

    fn parse_line(line: &str) -> Line {
        let Ok(v @ Value::Object(_)) = serde::json::parse(line) else { return Line::Unparseable };
        // The version is read before anything else: another version's
        // payload need not even have this version's shape.
        if v.field("v").and_then(Value::as_u64).ok() != Some(u64::from(MODEL_VERSION)) {
            return Line::Stale;
        }
        let entry = || -> Option<(String, Entry)> {
            let key = v.field("key").ok()?.as_str().ok()?.to_string();
            if let Ok(bits) = v.field("probe") {
                if bits.as_str().ok() == Some("cut") {
                    return Some((key, Entry::Probe(None)));
                }
                let mut words = [0u64; 8];
                let hex = bits.as_array().ok()?;
                if hex.len() != words.len() {
                    return None;
                }
                for (word, h) in words.iter_mut().zip(hex) {
                    *word = unhex(h)?;
                }
                return Some((key, Entry::Probe(Some(probe_from_bits(words)))));
            }
            if let Ok(slices) = v.field("heatmap") {
                return Some((key, Entry::Heatmap(heatmaps_from_value(slices)?)));
            }
            let class = v.field("class").ok()?.as_str().ok()?.parse().ok()?;
            let metrics = RunMetrics::from_value(v.field("metrics").ok()?).ok()?;
            Some((key, Entry::Cell(CachedCell { class, metrics })))
        };
        entry().map_or(Line::Unparseable, |(key, e)| Line::Live(key, e))
    }

    /// One line saying what replay left out, `None` for a journal that
    /// loaded whole. Stale lines are expected after a model change;
    /// unparseable ones (beyond a crash's one truncated tail) are not.
    pub fn replay_warning(&self) -> Option<String> {
        (self.stale_lines + self.skipped_lines > 0).then(|| {
            format!(
                "ignored {} journal line(s) written under another model version and {} \
                 unparseable line(s) in {}",
                self.stale_lines,
                self.skipped_lines,
                self.path.display()
            )
        })
    }

    /// Looks up a cell by content address.
    pub fn get(&self, key: &str) -> Option<&CachedCell> {
        self.lookup(key)
    }

    /// Looks up a result of either kind by content address.
    pub fn lookup<V: Memo>(&self, key: &str) -> Option<&V> {
        self.map.get(key).and_then(V::from_entry)
    }

    /// Number of distinct cached results.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Journals and caches a freshly-simulated cell: [`store`](Self::store)
    /// for the kind the sweep service deals in.
    ///
    /// # Errors
    ///
    /// As [`store`](Self::store).
    pub fn put(&mut self, key: &str, cell: CachedCell) -> std::io::Result<()> {
        self.store(key, cell)
    }

    /// Journals and caches a fresh result. The journal line is flushed
    /// before this returns — once a waiter sees the result, a restart
    /// will too.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the append fails; the
    /// in-memory insert happens regardless so the running process stays
    /// correct even on a full disk.
    pub fn store<V: Memo>(&mut self, key: &str, value: V) -> std::io::Result<()> {
        if self.map.contains_key(key) {
            // Already journaled (e.g. two workers raced on a non-deduped
            // path); keep the journal free of duplicates.
            return Ok(());
        }
        let entry: Entry = value.into();
        let mut line =
            vec![("v".to_string(), MODEL_VERSION.to_value()), ("key".to_string(), key.to_value())];
        match &entry {
            Entry::Cell(cell) => {
                line.push(("class".to_string(), cell.class.label().to_value()));
                line.push(("metrics".to_string(), cell.metrics.to_value()));
            }
            Entry::Probe(probe) => {
                let answer = match probe {
                    Some(probe) => Value::Array(probe_bits(probe).map(hex).to_vec()),
                    None => "cut".to_value(),
                };
                line.push(("probe".to_string(), answer));
            }
            Entry::Heatmap(heatmaps) => {
                line.push(("heatmap".to_string(), heatmaps_value(heatmaps)));
            }
        }
        self.map.insert(key.to_string(), entry);
        let mut text = Value::Object(line).to_json_compact();
        text.push('\n');
        self.journal.write_all(text.as_bytes())?;
        self.journal.flush()
    }

    /// The journal's path (for stats and diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The one memo path: looks every key up, runs only the misses (across
/// `jobs` workers, `run(j)` measuring the work `keys[j]` addresses),
/// journals each finished one, and returns all results in key order plus
/// how many came from the cache. Without a cache every key is a miss and
/// nothing is written. An unfinished result ([`Memo::finished`]) is
/// returned like any other but never stored.
///
/// # Errors
///
/// Returns the underlying I/O error if a journal append fails.
///
/// # Panics
///
/// Propagates panics from `run`.
pub fn memoize<V: Memo + Send>(
    mut cache: Option<&mut DiskCache>,
    keys: &[String],
    jobs: usize,
    run: impl Fn(usize) -> V + Sync,
) -> std::io::Result<(Vec<V>, usize)> {
    let mut results: Vec<Option<V>> =
        keys.iter().map(|k| cache.as_deref().and_then(|c| c.lookup(k)).cloned()).collect();
    let misses: Vec<usize> = (0..keys.len()).filter(|&j| results[j].is_none()).collect();
    let fresh = run_indexed(misses.len(), jobs, |m| run(misses[m]));
    for (&j, value) in misses.iter().zip(fresh) {
        if let Some(c) = cache.as_deref_mut().filter(|_| value.finished()) {
            c.store(&keys[j], value.clone())?;
        }
        results[j] = Some(value);
    }
    let hits = keys.len() - misses.len();
    Ok((results.into_iter().map(|r| r.expect("looked up or freshly run")).collect(), hits))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> RunMetrics {
        RunMetrics {
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
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tenoc-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_across_reopen() {
        let dir = tmp_dir("roundtrip");
        let cell = CachedCell { class: TrafficClass::HH, metrics: sample_metrics() };
        {
            let mut cache = DiskCache::open(&dir).unwrap();
            assert!(cache.is_empty());
            cache.put("00aa", cell).unwrap();
            cache.put("00bb", cell).unwrap();
            assert_eq!(cache.len(), 2);
        }
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get("00aa"), Some(&cell));
        assert_eq!(cache.skipped_lines, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_puts_do_not_duplicate_journal_lines() {
        let dir = tmp_dir("dupes");
        let cell = CachedCell { class: TrafficClass::LL, metrics: sample_metrics() };
        let mut cache = DiskCache::open(&dir).unwrap();
        cache.put("k", cell).unwrap();
        cache.put("k", cell).unwrap();
        drop(cache);
        let text = std::fs::read_to_string(DiskCache::journal_path(&dir)).unwrap();
        assert_eq!(text.lines().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_final_line_is_skipped_not_fatal() {
        let dir = tmp_dir("truncated");
        let cell = CachedCell { class: TrafficClass::LH, metrics: sample_metrics() };
        {
            let mut cache = DiskCache::open(&dir).unwrap();
            cache.put("good", cell).unwrap();
        }
        // Simulate a crash mid-append: a half-written final line.
        {
            let mut f =
                OpenOptions::new().append(true).open(DiskCache::journal_path(&dir)).unwrap();
            f.write_all(b"{\"key\":\"bad\",\"cla").unwrap();
        }
        let cell2 = CachedCell { class: TrafficClass::HH, metrics: sample_metrics() };
        {
            let mut cache = DiskCache::open(&dir).unwrap();
            assert_eq!(cache.len(), 1);
            assert_eq!(cache.skipped_lines, 1);
            assert!(cache.get("good").is_some());
            // The partial line must have been trimmed: a put after reopen
            // starts on a fresh line instead of gluing onto the stub.
            cache.put("after-crash", cell2).unwrap();
        }
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 2, "both cells survive a second replay");
        assert!(cache.get("good").is_some());
        assert!(cache.get("after-crash").is_some());
        assert_eq!(cache.skipped_lines, 0, "the trimmed journal is fully parseable");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_with_no_complete_lines_truncates_to_empty() {
        let dir = tmp_dir("all-partial");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(DiskCache::journal_path(&dir), b"{\"key\":\"never-finis").unwrap();
        let cell = CachedCell { class: TrafficClass::LL, metrics: sample_metrics() };
        {
            let mut cache = DiskCache::open(&dir).unwrap();
            assert_eq!(cache.len(), 0);
            assert_eq!(cache.skipped_lines, 1);
            cache.put("fresh", cell).unwrap();
        }
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache.get("fresh").is_some());
        assert_eq!(cache.skipped_lines, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn sample_probe() -> OpenLoopResult {
        probe_from_bits([
            0.04f64.to_bits(),
            0.21f64.to_bits(),
            0.2f64.to_bits(),
            (-0.0f64).to_bits(),
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            0x7ff8_dead_beef_0001, // a NaN with a payload
            1,                     // the smallest subnormal
        ])
    }

    #[test]
    fn model_version_is_pinned_to_the_golden_sweep() {
        // Every simulated golden, not only the 3 x 3 tiny grid: a kernel
        // change visible only on the tuner's frontier or in a figure row
        // cannot re-bless its snapshot and leave stale journal lines live.
        let hash = |golden: &[u8]| crate::record::fnv1a64(golden);
        assert_eq!(
            (
                MODEL_VERSION,
                hash(include_bytes!("../../../tests/golden/tiny.jsonl")),
                hash(include_bytes!("../../../tests/golden/frontier.json")),
                hash(include_bytes!("../../../tests/golden/figures.json")),
            ),
            (1, 0x1c9a_885c_7aa7_d6c5, 0x65b5_0dde_06de_375a, 0xa6e0_51be_4739_952d),
            "a simulator change that re-blesses tiny.jsonl, frontier.json or figures.json bumps \
             MODEL_VERSION; a figures.json row rename, a frontier.json entry that no longer \
             reports a number it did not simulate, a static bound the tuner ranks by, a change to \
             the probe questions the tuner asks (whose answers sit at new addresses), or a record field that no journaled \
             value feeds, moves its hash alone"
        );
    }

    #[test]
    fn cells_and_probes_share_one_journal_and_probes_round_trip_bit_exactly() {
        let dir = tmp_dir("two-kinds");
        let cell = CachedCell { class: TrafficClass::HH, metrics: sample_metrics() };
        let probe = sample_probe();
        {
            let mut cache = DiskCache::open(&dir).unwrap();
            cache.put("cell", cell).unwrap();
            cache.store("probe", Some(probe)).unwrap();
            cache.store("probe", Some(probe)).unwrap();
            cache.store("cut", None::<OpenLoopResult>).unwrap();
        }
        let text = std::fs::read_to_string(DiskCache::journal_path(&dir)).unwrap();
        assert_eq!(text.lines().count(), 3, "one line per result, duplicates suppressed");
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!((cache.len(), cache.skipped_lines, cache.stale_lines), (3, 0, 0));
        assert_eq!(cache.get("cell"), Some(&cell));
        let back: &Option<OpenLoopResult> = cache.lookup("probe").expect("probe replayed");
        assert_eq!(back.as_ref().map(probe_bits), Some(probe_bits(&probe)));
        // A cut answer replays as a cut, not as a miss.
        assert!(cache.lookup::<Option<OpenLoopResult>>("cut").is_some_and(Option::is_none));
        // An address holds one kind: asking for the other is a miss.
        assert!(cache.get("probe").is_none());
        assert!(cache.lookup::<Option<OpenLoopResult>>("cell").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_two_slice_heatmap_replays_bit_exactly_beside_its_cell() {
        let dir = tmp_dir("heatmap");
        let cell = crate::ConfigCell {
            icnt: tenoc_core::Preset::ThroughputEffective.icnt(6),
            benchmark: "HIS".to_string(),
            scale: 0.12,
            seed: tenoc_core::DEFAULT_SEED,
        };
        let (cell_key, key) = (crate::config_cell_key(&cell), crate::heatmap_key(&cell));
        assert_ne!(cell_key, key, "the domain tag separates a cell from its heatmaps");
        let grid = |x: f64| vec![vec![x, -0.0], vec![f64::from_bits(1), 1.0 / 3.0]];
        let heatmaps =
            Heatmaps(vec![("request".to_string(), grid(0.1)), ("reply".to_string(), grid(0.7))]);
        {
            let mut cache = DiskCache::open(&dir).unwrap();
            let metrics = sample_metrics();
            cache.put(&cell_key, CachedCell { class: TrafficClass::HH, metrics }).unwrap();
            cache.store(&key, heatmaps.clone()).unwrap();
            cache.store(&key, heatmaps.clone()).unwrap();
        }
        let text = std::fs::read_to_string(DiskCache::journal_path(&dir)).unwrap();
        assert_eq!(text.lines().count(), 2, "one line per result, duplicates suppressed");
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!((cache.len(), cache.skipped_lines, cache.stale_lines), (2, 0, 0));
        let bits = |h: &Heatmaps| -> Vec<(String, Vec<Vec<u64>>)> {
            let row = |r: &Vec<f64>| r.iter().map(|x| x.to_bits()).collect();
            h.0.iter().map(|(label, g)| (label.clone(), g.iter().map(row).collect())).collect()
        };
        let back: &Heatmaps = cache.lookup(&key).expect("heatmaps replayed");
        assert_eq!(bits(back), bits(&heatmaps));
        assert!(cache.get(&key).is_none() && cache.lookup::<Heatmaps>(&cell_key).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_journal_from_another_model_version_is_never_served() {
        let dir = tmp_dir("stale");
        let cell = CachedCell { class: TrafficClass::LH, metrics: sample_metrics() };
        {
            let mut cache = DiskCache::open(&dir).unwrap();
            cache.put("a", cell).unwrap();
            cache.put("b", cell).unwrap();
            cache.store("p", Some(sample_probe())).unwrap();
        }
        // Rewrite the version field: one line to another version, one to
        // none at all (a journal from before versioning).
        let journal = DiskCache::journal_path(&dir);
        let stamp = format!("{{\"v\":{MODEL_VERSION},");
        let text = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(text.matches(&stamp).count(), 3, "every line carries the version: {text}");
        let other = format!("{{\"v\":{},", MODEL_VERSION + 1);
        let rewritten = text.replacen(&stamp, "{", 1).replace(&stamp, &other);
        std::fs::write(&journal, rewritten).unwrap();
        {
            let mut cache = DiskCache::open(&dir).unwrap();
            assert!(cache.get("a").is_none() && cache.get("b").is_none());
            assert!(cache.lookup::<Option<OpenLoopResult>>("p").is_none());
            assert_eq!((cache.len(), cache.stale_lines, cache.skipped_lines), (0, 3, 0));
            assert!(cache.replay_warning().is_some());
            // A fresh result for a stale key is appended, not suppressed.
            cache.put("a", cell).unwrap();
        }
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.get("a"), Some(&cell), "the fresh put survives the next replay");
        assert_eq!((cache.len(), cache.stale_lines, cache.skipped_lines), (1, 3, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memoize_runs_only_the_misses_and_returns_results_in_key_order() {
        let dir = tmp_dir("memoize");
        let keys: Vec<String> = (0..5).map(|j| format!("k{j}")).collect();
        let value = |j: usize| CachedCell {
            class: TrafficClass::LL,
            metrics: RunMetrics { core_cycles: j as u64, ..sample_metrics() },
        };
        let expected: Vec<CachedCell> = (0..5).map(value).collect();
        // No cache: everything runs, nothing is written anywhere.
        let (got, hits) = memoize(None, &keys, 2, value).unwrap();
        assert_eq!((got, hits), (expected.clone(), 0));

        let mut cache = DiskCache::open(&dir).unwrap();
        cache.put("k1", value(1)).unwrap();
        cache.put("k3", value(3)).unwrap();
        let ran = std::sync::Mutex::new(Vec::new());
        let (got, hits) = memoize(Some(&mut cache), &keys, 2, |j| {
            ran.lock().unwrap().push(j);
            value(j)
        })
        .unwrap();
        assert_eq!((got, hits), (expected.clone(), 2));
        let mut ran = ran.into_inner().unwrap();
        ran.sort_unstable();
        assert_eq!(ran, [0, 2, 4]);
        drop(cache);

        let mut cache = DiskCache::open(&dir).unwrap();
        let (got, hits) =
            memoize(Some(&mut cache), &keys, 2, |_| -> CachedCell { panic!("all hits") }).unwrap();
        assert_eq!((got, hits), (expected, 5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memoize_never_journals_a_run_cut_short_by_the_cycle_limit() {
        let dir = tmp_dir("unfinished");
        let cell = crate::tiny_grid().cell(0);
        let key = vec![crate::cell_key(&cell)];
        let spec = tenoc_workloads::by_name(&cell.benchmark).expect("tiny grid benchmark");
        let run = |max_core_cycles: u64| {
            let mut cfg = crate::cell_system_config(&cell);
            cfg.max_core_cycles = max_core_cycles;
            // `System::run` reports the cap; the `experiments` wrappers
            // every production path goes through assert on it instead.
            let metrics = tenoc_core::System::new(cfg, &spec.scaled(cell.scale)).run();
            CachedCell { class: spec.class, metrics }
        };
        let mut cache = DiskCache::open(&dir).unwrap();
        let (got, hits) = memoize(Some(&mut cache), &key, 1, |_| run(500)).unwrap();
        assert!(!got[0].metrics.completed && hits == 0, "the capped run is still returned");
        assert!(cache.is_empty());
        assert_eq!(std::fs::read_to_string(cache.path()).unwrap(), "", "journal stays empty");
        // The same address, run to the end, is remembered.
        let (got, _) = memoize(Some(&mut cache), &key, 1, |_| run(50_000_000)).unwrap();
        assert!(got[0].metrics.completed);
        assert_eq!(cache.get(&key[0]), Some(&got[0]));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
