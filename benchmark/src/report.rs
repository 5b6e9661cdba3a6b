//! What a run reports: the driver's one-line JSON result, the human
//! table, results files with a machine fingerprint, and `--compare`.

use crate::spec::{is_exact, Better, MetricDecl, END_TO_END, PER_LAYER};
use serde::json::Value;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::Path;

/// The values of one metric table, every declared name present.
#[derive(Clone, Debug)]
pub struct Metrics {
    decls: &'static [MetricDecl],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// A table with every declared metric at 0 (what a bypassed layer
    /// reports).
    pub fn zeroed(decls: &'static [MetricDecl]) -> Metrics {
        Metrics { decls, values: decls.iter().map(|d| (d.name, 0.0)).collect() }
    }

    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name or a non-finite value: both are bugs
    /// in the benchmark, not results.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "{name} = {value} is not a number");
        let slot =
            self.values.get_mut(name).unwrap_or_else(|| panic!("metric {name} is not declared"));
        *slot = value;
    }

    /// `(declaration, value)` in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricDecl, f64)> + '_ {
        self.decls.iter().map(|d| (d, self.values[d.name]))
    }

    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(d, v)| {
                    let entry = vec![
                        ("value".to_string(), v.to_value()),
                        ("unit".to_string(), d.unit.to_value()),
                    ];
                    (d.name.to_string(), Value::Object(entry))
                })
                .collect(),
        )
    }
}

/// Operations attempted and failed. A failed operation is one whose
/// output was missing, wrong, or not byte-identical to what it had to
/// equal; the definitions per workload are in README.md.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
}

impl Ops {
    /// Counts `n` operations of which `failed` failed.
    pub fn add(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed.min(n);
    }
}

/// One run of one workload in one mode.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Operation counts.
    pub ops: Ops,
    /// Why operations failed (shown on stderr).
    pub problems: Vec<String>,
    /// The mode's metric table.
    pub metrics: Metrics,
    /// FNV-1a digest of the workload's output bytes.
    pub digest: u64,
}

impl Outcome {
    /// `true` when nothing failed.
    pub fn correct(&self) -> bool {
        self.ops.failed == 0
    }

    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("correct".to_string(), self.correct().to_value()),
            ("attempted".to_string(), self.ops.attempted.max(1).to_value()),
            ("failed".to_string(), self.ops.failed.to_value()),
            ("metrics".to_string(), self.metrics.to_value()),
        ])
    }

    /// Prints every metric by name with its unit, and the operation
    /// counts, to stderr.
    pub fn print(&self, workload: &str, mode: &str) {
        eprintln!("== {workload} ({mode})");
        for (d, v) in self.metrics.iter() {
            eprintln!("  {:<34} {:>16.4} {}", d.name, v, d.unit);
        }
        eprintln!(
            "  fail_share {} = {} failed / {} attempted",
            self.ops.failed as f64 / self.ops.attempted.max(1) as f64,
            self.ops.failed,
            self.ops.attempted
        );
        for p in &self.problems {
            eprintln!("  FAILED: {p}");
        }
    }
}

/// Where and on what a results file was measured.
pub fn fingerprint(root: &Path, seed: u64) -> Value {
    let run = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .current_dir(root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Value::Object(vec![
        ("nproc".to_string(), nproc.to_value()),
        ("rustc".to_string(), run("rustc", &["-V"]).to_value()),
        ("git_sha".to_string(), run("git", &["rev-parse", "HEAD"]).to_value()),
        ("seed".to_string(), seed.to_value()),
    ])
}

/// A results file: the fingerprint plus, per workload, each mode's
/// outcome.
pub fn results_file(fingerprint: Value, runs: &[(String, &'static str, Outcome)]) -> Value {
    let mut workloads: Vec<(String, Value)> = Vec::new();
    for (workload, mode, outcome) in runs {
        let entry = (mode.to_string(), outcome.to_value());
        match workloads.iter_mut().find(|(name, _)| name == workload) {
            Some((_, Value::Object(modes))) => modes.push(entry),
            _ => workloads.push((workload.clone(), Value::Object(vec![entry]))),
        }
    }
    Value::Object(vec![
        ("fingerprint".to_string(), fingerprint),
        ("workloads".to_string(), Value::Object(workloads)),
    ])
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The regression bound of every end-to-end metric, from
/// `BENCHMARK.json`.
fn bounds(root: &Path) -> Result<BTreeMap<String, f64>, String> {
    let v = read_json(&root.join("BENCHMARK.json"))?;
    let mut out = BTreeMap::new();
    for m in v.field("end_to_end").and_then(Value::as_array).map_err(|e| e.to_string())? {
        let name = m.field("name").and_then(Value::as_str).map_err(|e| e.to_string())?;
        let bound = m.field("bound").and_then(Value::as_f64).map_err(|e| e.to_string())?;
        out.insert(name.to_string(), bound);
    }
    Ok(out)
}

fn metric_value(outcome: &Value, name: &str) -> Option<f64> {
    outcome.field("metrics").ok()?.field(name).ok()?.field("value").ok()?.as_f64().ok()
}

/// `--compare A B`: per workload and metric, both values, the ratio
/// `B / A` (base A), the bound, and a verdict. End-to-end metrics may be
/// worse by at most their bound; failed operations may not increase;
/// simulated statistics and counts must be identical.
///
/// Returns `Ok(true)` when everything is within bounds.
///
/// # Errors
///
/// Returns a message for unreadable or malformed files.
pub fn compare(root: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let bounds = bounds(root)?;
    let (fa, fb) = (read_json(a)?, read_json(b)?);
    for (label, f) in [("A", &fa), ("B", &fb)] {
        let print = f.field("fingerprint").map(Value::to_json_compact).unwrap_or_default();
        println!("{label} (base for ratios: A) {print}");
    }
    let (Ok(Value::Object(wa)), Ok(wb)) = (fa.field("workloads"), fb.field("workloads")) else {
        return Err("a results file has no workloads object".to_string());
    };
    println!(
        "{:<15} {:<34} {:>16} {:>16} {:>8} {:>8} verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let row = |workload: &str, name: &str, a: f64, b: f64, bound: &str, ok: bool| {
        let ratio = if a == 0.0 { f64::from(u8::from(b == 0.0)) } else { b / a };
        let verdict = if ok { "ok" } else { "OUTSIDE" };
        println!("{workload:<15} {name:<34} {a:>16.4} {b:>16.4} {ratio:>8.3} {bound:>8} {verdict}");
        ok
    };
    let mut all_ok = true;
    for (workload, modes_a) in wa {
        let Ok(modes_b) = wb.field(workload) else {
            println!("{workload:<15} missing from B");
            all_ok = false;
            continue;
        };
        if let (Ok(ea), Ok(eb)) = (modes_a.field("end_to_end"), modes_b.field("end_to_end")) {
            for d in &END_TO_END {
                let (Some(va), Some(vb)) = (metric_value(ea, d.name), metric_value(eb, d.name))
                else {
                    continue;
                };
                let bound = bounds.get(d.name).copied().unwrap_or(0.0);
                let ok = match d.better {
                    Better::Lower => vb <= va * (1.0 + bound),
                    Better::Higher => vb >= va * (1.0 - bound),
                };
                all_ok &= row(workload, d.name, va, vb, &bound.to_string(), ok);
            }
            let failed = |e: &Value| e.field("failed").and_then(Value::as_u64).unwrap_or(0) as f64;
            let (va, vb) = (failed(ea), failed(eb));
            all_ok &= row(workload, "failed", va, vb, "0", vb <= va);
        }
        if let (Ok(la), Ok(lb)) = (modes_a.field("per_layer"), modes_b.field("per_layer")) {
            for d in &PER_LAYER {
                let (Some(va), Some(vb)) = (metric_value(la, d.name), metric_value(lb, d.name))
                else {
                    continue;
                };
                let exact = is_exact(d);
                let bound = if exact { "exact" } else { "-" };
                all_ok &= row(workload, d.name, va, vb, bound, !exact || va == vb);
            }
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(decls: &'static [MetricDecl], set: &[(&str, f64)]) -> Outcome {
        let mut metrics = Metrics::zeroed(decls);
        for &(name, v) in set {
            metrics.set(name, v);
        }
        Outcome { ops: Ops { attempted: 10, failed: 0 }, problems: Vec::new(), metrics, digest: 0 }
    }

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let v = outcome(&END_TO_END, &[("wall_s", 1.25)]).to_value();
        let Value::Object(fields) = &v else { panic!("object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Value::Object(metrics) = v.field("metrics").unwrap() else { panic!("object") };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metric_value(&v, "wall_s"), Some(1.25));
        assert_eq!(
            v.field("metrics").unwrap().field("wall_s").unwrap().field("unit").unwrap(),
            &"s".to_value()
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_a_bug() {
        Metrics::zeroed(&END_TO_END).set("wall_seconds", 1.0);
    }

    #[test]
    fn compare_flags_a_regression_beyond_the_bound_and_any_count_drift() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join("compare-test");
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, wall: f64, cycles: f64| {
            let runs = vec![
                ("sweep_hh".to_string(), "end_to_end", outcome(&END_TO_END, &[("wall_s", wall)])),
                (
                    "sweep_hh".to_string(),
                    "per_layer",
                    outcome(
                        &PER_LAYER,
                        &[("sim.icnt_cycles", cycles), ("noc.arena.tick_ns", wall)],
                    ),
                ),
            ];
            let path = dir.join(name);
            std::fs::write(&path, results_file(fingerprint(root, 1), &runs).to_json_pretty())
                .unwrap();
            path
        };
        let base = write("a.json", 1.0, 1000.0);
        assert!(compare(root, &base, &write("same.json", 1.0, 1000.0)).unwrap());
        assert!(compare(root, &base, &write("faster.json", 0.5, 1000.0)).unwrap());
        assert!(!compare(root, &base, &write("slower.json", 2.0, 1000.0)).unwrap());
        assert!(!compare(root, &base, &write("model.json", 1.0, 1001.0)).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
