//! What the benchmark runs and what it reports: workload constants and
//! the metric tables. `BENCHMARK.json` declares the same names (a test
//! fails when the two drift).

/// The grid seed every tool in the repository defaults to.
pub const DEFAULT_SEED: u64 = 0x7e0c;

/// Worker threads everywhere: the reference box has two cores.
pub const JOBS: usize = 2;

/// Set-up is repeated this many times per run and `setup_s` is the
/// median, as the driver's contract asks.
pub const SETUP_REPS: usize = 3;

/// How big a run is.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// About a twentieth: schema and correctness only.
    Smoke,
}

/// A `presets x benchmarks` grid as `tenoc sweep` flags.
#[derive(Copy, Clone, Debug)]
pub struct GridSpec {
    /// `--presets` value.
    pub presets: &'static str,
    /// `--benchmarks` value.
    pub benchmarks: &'static str,
    /// `--scale` value.
    pub scale: f64,
}

/// What a workload drives.
#[derive(Copy, Clone, Debug)]
pub enum Kind {
    /// Repeated `tenoc sweep` processes over one grid.
    Sweep {
        /// Offered load of the workload's open-loop NoC trace
        /// (flits/cycle/node); `None` when the fabric is bypassed.
        noc_rate: Option<f64>,
    },
    /// `tenoc serve` spoken to over sockets.
    Serve {
        /// Cached resubmits per pass.
        resubmits: usize,
    },
    /// `tenoc tune`, cold then warm on one cache directory.
    Tune {
        /// Run the 16-point `--tiny` search instead of `--k 6`.
        tiny: bool,
    },
}

/// One workload at one size.
#[derive(Copy, Clone, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The grid swept, submitted, or (tune) unused.
    pub grid: GridSpec,
    /// Which surface it drives.
    pub kind: Kind,
}

/// The four fabrics every NoC-bound sweep covers: double checkerboard
/// with 2-port MCs, plain mesh, dateline torus, 7-port concentrated
/// mesh — so a kernel change that helps one shape and hurts another
/// shows.
const FABRICS: &str = "thr-eff,baseline,torus,cmesh";

/// Workload names, in report order.
pub const WORKLOADS: [&str; 5] =
    ["sweep_hh", "sweep_ll", "sweep_perfect", "serve_resubmit", "tune_k6"];

/// Resolves a workload by name at a size.
///
/// Scales are sized on the 2-core reference box so that one pass of a
/// sweep takes 2.5-4 s (five to eight passes fit a 20 s run), one serve pass about
/// 2.4 s and the one tune pass about 19 s. The HH scale is the floor:
/// `KernelSpec::scaled` clamps at 16 instructions per warp, so a smaller
/// scale would not shorten the kernels.
pub fn workload(name: &str, size: Size) -> Option<Workload> {
    let full = size == Size::Full;
    let w = match name {
        "sweep_hh" => Workload {
            name: "sweep_hh",
            grid: if full {
                GridSpec { presets: FABRICS, benchmarks: "RD,BFS,KM,MUM,STC,SCP", scale: 0.03 }
            } else {
                GridSpec { presets: "thr-eff,baseline", benchmarks: "RD,KM", scale: 0.02 }
            },
            kind: Kind::Sweep { noc_rate: Some(0.06) },
        },
        "sweep_ll" => Workload {
            name: "sweep_ll",
            grid: if full {
                GridSpec { presets: FABRICS, benchmarks: "AES,BIN,HSP,NE,HW,LU", scale: 0.5 }
            } else {
                GridSpec { presets: "thr-eff,baseline", benchmarks: "AES,BIN", scale: 0.05 }
            },
            kind: Kind::Sweep { noc_rate: Some(0.01) },
        },
        "sweep_perfect" => Workload {
            name: "sweep_perfect",
            grid: if full {
                GridSpec { presets: "perfect", benchmarks: "all", scale: 1.0 }
            } else {
                GridSpec { presets: "perfect", benchmarks: "RD,AES,HIS,MM", scale: 0.05 }
            },
            kind: Kind::Sweep { noc_rate: None },
        },
        "serve_resubmit" => Workload {
            name: "serve_resubmit",
            grid: if full {
                GridSpec {
                    presets: "thr-eff,baseline,cp-cr,torus",
                    benchmarks: "RD,BFS,KM,AES,BIN,HSP",
                    scale: 0.05,
                }
            } else {
                GridSpec { presets: "thr-eff,baseline", benchmarks: "RD,AES", scale: 0.02 }
            },
            kind: Kind::Serve { resubmits: if full { 1000 } else { 50 } },
        },
        "tune_k6" => Workload {
            name: "tune_k6",
            grid: GridSpec { presets: "", benchmarks: "", scale: 0.0 },
            kind: Kind::Tune { tiny: !full },
        },
        _ => return None,
    };
    Some(w)
}

/// Which way a metric should move.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A declared metric.
#[derive(Copy, Clone, Debug)]
pub struct MetricDecl {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl { name, unit, better: Better::Higher }
}

/// End-to-end metrics: host time and memory as a user of the `tenoc`
/// binary sees them. Every workload reports every one (the driver's
/// contract), so the names are roles; README.md says what each is on
/// each workload.
pub const END_TO_END: [MetricDecl; 5] = [
    lower("setup_s", "s"),
    lower("wall_s", "s"),
    lower("cold_s", "s"),
    lower("warm_ms", "ms"),
    lower("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`). Host time unless the name starts
/// with `sim.`; a layer a workload bypasses reports 0.
pub const PER_LAYER: [MetricDecl; 61] = [
    // core: the clocked system driven edge by edge, per engine.
    lower("core.oracle.icnt_edge_ns", "ns"),
    lower("core.arena.icnt_edge_ns", "ns"),
    lower("core.oracle.ns_per_icnt_cycle", "ns"),
    lower("core.arena.ns_per_icnt_cycle", "ns"),
    lower("core.oracle.icnt_share", "ratio"),
    lower("core.arena.icnt_share", "ratio"),
    higher("core.arena_over_oracle", "x"),
    lower("simt.core_edge_ns", "ns"),
    lower("dram.dram_edge_ns", "ns"),
    // noc: the fabric alone under the open-loop generator.
    lower("noc.oracle.tick_ns", "ns"),
    lower("noc.arena.tick_ns", "ns"),
    lower("noc.arena.tick_req_ns", "ns"),
    lower("noc.arena.tick_rep_ns", "ns"),
    lower("noc.oracle.inject_ns", "ns"),
    lower("noc.arena.inject_ns", "ns"),
    lower("noc.oracle.eject_ns", "ns"),
    lower("noc.arena.eject_ns", "ns"),
    lower("noc.oracle.ns_per_flit_hop", "ns"),
    lower("noc.arena.ns_per_flit_hop", "ns"),
    lower("noc.inject_refused_ratio", "ratio"),
    lower("noc.openloop_probe_ms", "ms"),
    // sim: simulated statistics of the traced cell; must repeat exactly.
    lower("sim.icnt_cycles", "count"),
    lower("sim.core_cycles", "count"),
    higher("sim.scalar_insts", "count"),
    lower("sim.flit_hops", "count"),
    lower("sim.avg_net_latency", "cycles"),
    lower("sim.mc_stall_fraction", "ratio"),
    higher("sim.l2_read_hit_rate", "ratio"),
    higher("sim.dram_efficiency", "ratio"),
    lower("sim.core_replays", "count"),
    higher("sim.output_digest", "hash"),
    higher("sim.digest_match", "bool"),
    // harness, json, cli.
    higher("harness.jobs2_speedup", "x"),
    lower("harness.worker_idle_share", "ratio"),
    higher("harness.sim_kcycles_per_s", "kcycles/s"),
    lower("json.parse_us_per_record", "us"),
    lower("json.emit_us_per_record", "us"),
    lower("cli.spawn_ms", "ms"),
    // serve.
    lower("serve.canon_ns_per_cell", "ns"),
    lower("serve.cache_put_us", "us"),
    lower("serve.cache_get_ns", "ns"),
    lower("serve.cache_replay_us_per_entry", "us"),
    lower("serve.sched_ns_per_op", "ns"),
    lower("serve.plan_us", "us"),
    lower("serve.stats_rtt_us", "us"),
    lower("serve.cold_submit_ms", "ms"),
    lower("serve.cached_p50_ms", "ms"),
    lower("serve.cached_p99_ms", "ms"),
    higher("serve.cached_req_per_s", "1/s"),
    lower("serve.keepalive_p50_ms", "ms"),
    lower("serve.restart_ready_ms", "ms"),
    higher("serve.dedup_hits", "count"),
    lower("serve.simulated", "count"),
    // verify, tune.
    lower("verify.audit_grid_ms", "ms"),
    lower("verify.analyze_us_per_preset", "us"),
    lower("tune.stage012_s", "s"),
    lower("tune.stage3_s", "s"),
    lower("tune.stage3_cells", "count"),
    higher("tune.stage3_cache_hits", "count"),
    lower("tune.probes", "count"),
    // the cost of looking.
    lower("trace.overhead_share", "ratio"),
];

/// `true` for a per-layer metric that must repeat exactly between two
/// runs at one seed: simulated statistics and counts.
pub fn is_exact(decl: &MetricDecl) -> bool {
    (decl.name.starts_with("sim.") && decl.name != "sim.digest_match")
        || matches!(decl.unit, "count" | "hash")
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json::Value;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        serde::json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses")
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn declared(v: &Value, key: &str) -> Vec<(String, String, String)> {
        v.field(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.field(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn table(decls: &[MetricDecl]) -> Vec<(String, String, String)> {
        decls
            .iter()
            .map(|d| {
                let better = if d.better == Better::Lower { "lower" } else { "higher" };
                (d.name.to_string(), d.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|d| d.name))
            .chain(PER_LAYER.iter().map(|d| d.name))
        {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is declared twice");
        }
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(d.unit.len() <= 16, "{}", d.unit);
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_what_is_emitted() {
        let v = benchmark_json();
        assert_eq!(declared(&v, "end_to_end"), table(&END_TO_END));
        assert_eq!(declared(&v, "per_layer"), table(&PER_LAYER));
        let names: Vec<String> = v
            .field("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.field("name").and_then(Value::as_str).expect("name").to_string())
            .collect();
        assert_eq!(names, WORKLOADS);
        assert_eq!(v.field("paths").and_then(Value::as_array).expect("paths").len(), 1);
    }

    #[test]
    fn every_workload_resolves_at_both_sizes() {
        for name in WORKLOADS {
            for size in [Size::Full, Size::Smoke] {
                assert_eq!(workload(name, size).expect(name).name, name);
            }
        }
        assert!(workload("sweep_hl", Size::Full).is_none());
    }

    /// The `[profile.release]` table of a manifest as sorted
    /// `key = value` lines.
    fn release_profile(manifest: &str) -> Vec<String> {
        let mut lines: Vec<String> = manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| l.split('#').next().unwrap_or("").split_whitespace().collect::<String>())
            .filter(|l| !l.is_empty())
            .collect();
        lines.sort();
        lines
    }

    #[test]
    fn release_profile_mirrors_the_root_manifest() {
        let read = |rel: &str| {
            std::fs::read_to_string(format!("{}/{rel}", env!("CARGO_MANIFEST_DIR")))
                .expect("manifest is readable")
        };
        let root = release_profile(&read("../Cargo.toml"));
        assert!(!root.is_empty(), "the root manifest has a release profile");
        assert_eq!(release_profile(&read("Cargo.toml")), root);
    }
}
