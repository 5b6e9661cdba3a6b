//! Structured per-cell results: the JSON-lines schema and the stable
//! fingerprint hash asserted by golden-snapshot tests.

use serde::{Deserialize, Serialize};
use tenoc_core::RunMetrics;

/// One sweep cell's result, serialized as one JSON line.
///
/// A record is exactly its JSON: every field is serialized, in
/// declaration order, and two records are equal when their serialized
/// forms are. Nothing that varies run to run (wall time, telemetry)
/// lives here, which is what keeps record files byte-identical across
/// job counts, cache hits and machines; wall time is on
/// [`CellResult`](crate::CellResult).
///
/// The `fingerprint` field is the FNV-1a 64-bit hash (lower-case hex) of
/// the record's compact JSON with `fingerprint` itself set to the empty
/// string. Float fields are formatted with Rust's shortest round-trip
/// representation, so the hash is stable across runs, job counts and
/// processes of the same build.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Cell index within the grid (preset-major).
    pub cell: u64,
    /// Design-point label (e.g. `TB-DOR`).
    pub preset: String,
    /// Benchmark abbreviation (Table I).
    pub benchmark: String,
    /// Traffic-class label (`LL`/`LH`/`HH`).
    pub class: String,
    /// Kernel-length scale factor.
    pub scale: f64,
    /// Workload seed the cell ran with.
    pub seed: u64,
    /// Closed-loop metrics.
    pub metrics: RunMetrics,
    /// NoC area of the design point in mm².
    pub noc_area_mm2: f64,
    /// Total chip area of the design point in mm².
    pub chip_area_mm2: f64,
    /// Throughput-effectiveness (IPC per mm²) of this run.
    pub ipc_per_mm2: f64,
    /// Stability hash of every other field (see type docs).
    pub fingerprint: String,
}

/// FNV-1a 64-bit over a byte string: the workspace's one stable hash,
/// behind record fingerprints and canonical content addresses alike.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl RunRecord {
    /// The fingerprint implied by the record's current field values.
    pub fn compute_fingerprint(&self) -> String {
        let mut blank = self.clone();
        blank.fingerprint = String::new();
        let canonical = blank.to_value().to_json_compact();
        format!("{:016x}", fnv1a64(canonical.as_bytes()))
    }

    /// Computes and stores the fingerprint, and returns the record's JSON
    /// line (no newline). The fingerprint is the last field and its hashed
    /// text is the line with that field blank, so the sealed line is the
    /// hashed text with the hex spliced into the trailing `"fingerprint":""`
    /// — one serialization where sealing and then rendering costs two.
    pub(crate) fn seal(&mut self) -> String {
        const BLANK_TAIL: &str = "\"fingerprint\":\"\"}";
        self.fingerprint.clear();
        let mut line = self.to_value().to_json_compact();
        assert!(line.ends_with(BLANK_TAIL), "fingerprint is the record's last field: {line}");
        self.fingerprint = format!("{:016x}", fnv1a64(line.as_bytes()));
        line.insert_str(line.len() - 2, &self.fingerprint);
        line
    }

    /// `true` if the stored fingerprint matches the field values.
    pub fn fingerprint_valid(&self) -> bool {
        self.fingerprint == self.compute_fingerprint()
    }

    /// Stable identity of the cell within a grid (for golden diffs).
    pub fn key(&self) -> String {
        format!("{}/{}@{}#{}", self.preset, self.benchmark, self.scale, self.seed)
    }
}

/// Serializes records as JSON lines (one compact object per line, trailing
/// newline).
pub fn to_jsonl(records: &[RunRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_value().to_json_compact());
        out.push('\n');
    }
    out
}

/// Parses JSON-lines text back into records; blank lines are skipped.
///
/// # Errors
///
/// Returns the underlying JSON error (tagged with the 1-based line
/// number) on malformed input.
pub fn from_jsonl(text: &str) -> Result<Vec<RunRecord>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = serde::json::parse(line)
            .and_then(|v| RunRecord::from_value(&v))
            .map_err(|e| format!("line {}: {e:?}", lineno + 1))?;
        out.push(record);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
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
        let mut r = RunRecord {
            cell: 3,
            preset: "TB-DOR".into(),
            benchmark: "HIS".into(),
            class: "LL".into(),
            scale: 0.02,
            seed: 0x7e0c,
            metrics,
            noc_area_mm2: 40.0,
            chip_area_mm2: 576.0,
            ipc_per_mm2: 12.345 / 576.0,
            fingerprint: String::new(),
        };
        r.seal();
        r
    }

    #[test]
    fn fingerprint_is_stable_and_validates() {
        let r = sample();
        assert!(r.fingerprint_valid());
        assert_eq!(r.fingerprint, sample().fingerprint);
        assert_eq!(r.fingerprint.len(), 16);
    }

    #[test]
    fn the_spliced_line_is_the_sealed_records_serialization_on_every_golden_record() {
        let golden = include_str!("../../../tests/golden/tiny.jsonl");
        let mut records = from_jsonl(golden).unwrap();
        records.push(sample());
        let mut rendered = String::new();
        for mut r in records {
            // Re-seal from a wrong fingerprint: the line may not depend on it.
            r.fingerprint = "stale".into();
            let line = r.seal();
            assert_eq!(line, r.to_value().to_json_compact());
            assert!(r.fingerprint_valid(), "{line}");
            rendered.push_str(&line);
            rendered.push('\n');
        }
        assert!(rendered.starts_with(golden), "re-rendered golden lines moved a byte");
    }

    #[test]
    fn fingerprint_detects_any_field_change() {
        let mut r = sample();
        r.metrics.scalar_insts += 1;
        assert!(!r.fingerprint_valid());
        let mut r = sample();
        r.seed ^= 1;
        assert!(!r.fingerprint_valid());
        let mut r = sample();
        r.ipc_per_mm2 += 1e-9;
        assert!(!r.fingerprint_valid());
    }

    #[test]
    fn jsonl_roundtrip_preserves_records_exactly() {
        let records = vec![sample(), { sample() }];
        let text = to_jsonl(&records);
        assert_eq!(text.lines().count(), 2);
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back, records);
        assert!(back.iter().all(RunRecord::fingerprint_valid));
    }

    #[test]
    fn jsonl_skips_blank_lines_and_reports_bad_ones() {
        let text = format!("\n{}\n\n", to_jsonl(&[sample()]));
        assert_eq!(from_jsonl(&text).unwrap().len(), 1);
        let err = from_jsonl("{broken").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn fnv_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
