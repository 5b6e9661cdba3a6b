//! The wire protocol: JSON lines over TCP.
//!
//! A client sends one request object per line; the server answers a
//! `sweep` request with a `planned` event, then one **raw record line per
//! cell** (exactly the bytes `tenoc sweep` would have written for that
//! cell, streamed in completion order), then a `done` event with the
//! request's cache accounting. Control events are objects carrying an
//! `"event"` key; record lines never have one, which is how a stream
//! consumer tells them apart without buffering. A cell whose simulation
//! panicked is answered in its record's place by
//! `{"event":"error","cell":<index>,"message":…}`; the stream still ends
//! in `done`.
//!
//! ```text
//! -> {"op":"sweep","tenant":"alice","presets":["baseline"],"benchmarks":["HIS"],"scale":0.02,"seed":32268}
//! <- {"event":"planned","cells":1}
//! <- {"cell":0,"preset":"TB-DOR","benchmark":"HIS",...,"fingerprint":"..."}
//! <- {"event":"done","cells":1,"simulated":1,"cache_hits":0,"dedup_hits":0}
//! ```

use serde::json::Value;
use serde::Serialize;
use std::io::Write;
use tenoc_core::Preset;
use tenoc_harness::{tiny_grid, SeedMode, SweepGrid};

/// Derived-seed base of a request that names none, matching `tenoc sweep`.
pub const DEFAULT_SEED: u64 = tenoc_core::DEFAULT_SEED;
/// Kernel-length scale of a wire request that names none (the golden tiny
/// grid's). The CLI always sends the field.
pub(crate) const DEFAULT_SCALE: f64 = 0.02;

/// A parsed sweep submission.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRequest {
    /// Scheduling identity: requests sharing a tenant share one fair
    /// queue. Defaults to the connection's identity when empty.
    pub tenant: String,
    /// Preset flag names (e.g. `baseline`, `thr-eff`).
    pub presets: Vec<String>,
    /// Benchmark abbreviations (Table I).
    pub benchmarks: Vec<String>,
    /// Kernel-length scale factor.
    pub scale: f64,
    /// Grid seed (per-cell seeds derive from `(seed, index)`).
    pub seed: u64,
    /// Mesh radix.
    pub mesh_k: usize,
    /// Shorthand for the canonical golden tiny grid (overrides the axes).
    pub tiny: bool,
}

impl Default for SweepRequest {
    fn default() -> Self {
        SweepRequest {
            tenant: String::new(),
            presets: Vec::new(),
            benchmarks: Vec::new(),
            scale: DEFAULT_SCALE,
            seed: DEFAULT_SEED,
            mesh_k: 6,
            tiny: false,
        }
    }
}

impl SweepRequest {
    /// The golden tiny-grid request.
    pub fn tiny(tenant: &str) -> Self {
        SweepRequest { tenant: tenant.to_string(), tiny: true, ..Self::default() }
    }

    /// Serializes the request as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut fields = vec![
            ("op".to_string(), "sweep".to_value()),
            ("tenant".to_string(), self.tenant.to_value()),
        ];
        if self.tiny {
            fields.push(("tiny".to_string(), true.to_value()));
        } else {
            fields.push(("presets".to_string(), self.presets.to_value()));
            fields.push(("benchmarks".to_string(), self.benchmarks.to_value()));
            fields.push(("scale".to_string(), self.scale.to_value()));
            fields.push(("seed".to_string(), self.seed.to_value()));
            fields.push(("mesh_k".to_string(), self.mesh_k.to_value()));
        }
        Value::Object(fields).to_json_compact()
    }

    /// Parses a request from an already-parsed wire object (the caller
    /// has checked `op == "sweep"`). Absent fields take their defaults.
    ///
    /// # Errors
    ///
    /// Returns a message for type mismatches on present fields.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let mut req = SweepRequest::default();
        if let Ok(t) = v.field("tenant") {
            req.tenant = t.as_str().map_err(|e| e.to_string())?.to_string();
        }
        if let Ok(t) = v.field("tiny") {
            req.tiny = matches!(t, Value::Bool(true));
        }
        if let Ok(p) = v.field("presets") {
            req.presets = p
                .as_array()
                .map_err(|e| e.to_string())?
                .iter()
                .map(|x| x.as_str().map(str::to_string).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?;
        }
        if let Ok(b) = v.field("benchmarks") {
            req.benchmarks = b
                .as_array()
                .map_err(|e| e.to_string())?
                .iter()
                .map(|x| x.as_str().map(str::to_string).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?;
        }
        if let Ok(s) = v.field("scale") {
            req.scale = s.as_f64().map_err(|e| e.to_string())?;
        }
        if let Ok(s) = v.field("seed") {
            req.seed = s.as_u64().map_err(|e| e.to_string())?;
        }
        if let Ok(k) = v.field("mesh_k") {
            req.mesh_k = k.as_u64().map_err(|e| e.to_string())? as usize;
        }
        Ok(req)
    }

    /// Plans the request into its grid. This is the one names-to-grid
    /// planner: `tenoc sweep` runs the grid of the same request `tenoc
    /// submit` puts on the wire.
    ///
    /// # Errors
    ///
    /// Returns a message naming any unknown preset or benchmark, or empty
    /// axes.
    pub fn grid(&self) -> Result<SweepGrid, String> {
        if self.tiny {
            return Ok(tiny_grid());
        }
        if self.presets.is_empty() || self.benchmarks.is_empty() {
            return Err("sweep needs at least one preset and one benchmark".into());
        }
        let mut presets = Vec::with_capacity(self.presets.len());
        for name in &self.presets {
            presets.push(Preset::from_flag(name).ok_or_else(|| format!("unknown preset {name}"))?);
        }
        for name in &self.benchmarks {
            if tenoc_workloads::by_name(name).is_none() {
                return Err(format!("unknown benchmark {name}"));
            }
        }
        if self.mesh_k < 2 {
            return Err("mesh_k must be at least 2".into());
        }
        let mut grid = SweepGrid::new(presets, self.benchmarks.clone(), self.scale)
            .with_seed_mode(SeedMode::Derived(self.seed));
        grid.mesh_k = self.mesh_k;
        Ok(grid)
    }
}

/// Sends one protocol line: the line and its newline leave in a single
/// `write`, so a reader never sees half a line and a small reply is one
/// segment, not two with the second waiting on the peer's delayed ACK.
///
/// # Errors
///
/// Returns the transport's write or flush error.
pub(crate) fn write_line(writer: &mut impl Write, line: &str) -> std::io::Result<()> {
    writer.write_all(format!("{line}\n").as_bytes())?;
    writer.flush()
}

/// Builds a control-event line (no trailing newline).
pub(crate) fn event_line(event: &str, fields: &[(&str, Value)]) -> String {
    let mut obj = vec![("event".to_string(), event.to_value())];
    obj.extend(fields.iter().map(|(k, v)| (k.to_string(), v.clone())));
    Value::Object(obj).to_json_compact()
}

/// Classifies one received line: a control event (returning its name and
/// the parsed object) or a raw record line (returning the parsed object
/// for field access; the caller keeps the raw bytes).
///
/// # Errors
///
/// Returns a message for unparseable lines.
pub fn classify_line(line: &str) -> Result<(Option<String>, Value), String> {
    let v = serde::json::parse(line).map_err(|e| format!("malformed line: {e}"))?;
    let event = v.field("event").ok().and_then(|e| e.as_str().ok().map(str::to_string));
    Ok((event, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_via_wire_line() {
        let req = SweepRequest {
            tenant: "alice".into(),
            presets: vec!["baseline".into(), "thr-eff".into()],
            benchmarks: vec!["HIS".into(), "RD".into()],
            scale: 0.05,
            seed: 99,
            mesh_k: 6,
            tiny: false,
        };
        let v = serde::json::parse(&req.to_line()).unwrap();
        assert_eq!(v.field("op").unwrap().as_str().unwrap(), "sweep");
        assert_eq!(SweepRequest::from_value(&v).unwrap(), req);
    }

    #[test]
    fn tiny_request_plans_the_golden_grid() {
        let req = SweepRequest::tiny("ci");
        let v = serde::json::parse(&req.to_line()).unwrap();
        let back = SweepRequest::from_value(&v).unwrap();
        assert!(back.tiny);
        assert_eq!(back.grid().unwrap(), tiny_grid());
    }

    #[test]
    fn grid_resolves_names_and_derives_seeds() {
        let req = SweepRequest {
            tenant: "t".into(),
            presets: vec!["baseline".into(), "cp-cr".into()],
            benchmarks: vec!["HIS".into(), "MM".into()],
            scale: 0.03,
            seed: 7,
            mesh_k: 6,
            tiny: false,
        };
        let grid = req.grid().unwrap();
        let expected = SweepGrid::new(
            vec![Preset::BaselineTbDor, Preset::CpCr4vc],
            vec!["HIS".into(), "MM".into()],
            0.03,
        )
        .with_seed_mode(SeedMode::Derived(7));
        assert_eq!(grid, expected);
    }

    #[test]
    fn bad_requests_are_rejected_with_names() {
        let req = SweepRequest {
            presets: vec!["warp-drive".into()],
            benchmarks: vec!["HIS".into()],
            ..SweepRequest::default()
        };
        assert!(req.grid().unwrap_err().contains("warp-drive"));
        let req = SweepRequest {
            presets: vec!["baseline".into()],
            benchmarks: vec!["NOPE".into()],
            ..SweepRequest::default()
        };
        assert!(req.grid().unwrap_err().contains("NOPE"));
        assert!(SweepRequest::default().grid().is_err());
    }

    #[test]
    fn one_line_is_one_write() {
        struct Counting(Vec<Vec<u8>>);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting(Vec::new());
        write_line(&mut w, r#"{"event":"planned","cells":1}"#).unwrap();
        assert_eq!(w.0, [b"{\"event\":\"planned\",\"cells\":1}\n".to_vec()]);
    }

    #[test]
    fn classify_distinguishes_events_from_records() {
        let (ev, _) = classify_line(r#"{"event":"done","cells":1}"#).unwrap();
        assert_eq!(ev.as_deref(), Some("done"));
        let (ev, v) = classify_line(r#"{"cell":3,"preset":"TB-DOR"}"#).unwrap();
        assert!(ev.is_none());
        assert_eq!(v.field("cell").unwrap().as_u64().unwrap(), 3);
        assert!(classify_line("{oops").is_err());
    }
}
