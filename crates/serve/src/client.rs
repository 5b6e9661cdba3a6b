//! A blocking client for the sweep service.
//!
//! [`submit`] sends one request and drains its response stream. Record
//! lines arrive in **completion** order (cache hits first, then whatever
//! the worker pool finishes); [`SubmitOutcome::jsonl`] reorders them by
//! cell index, which makes the reassembled file byte-identical to what
//! `tenoc sweep` writes for the same grid.

use crate::proto::{classify_line, write_line, SweepRequest};
use std::io::{BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use tenoc_harness::{from_jsonl, RunRecord};

/// Everything one sweep submission produced.
#[derive(Clone, Debug, Default)]
pub struct SubmitOutcome {
    /// Cells the server planned for this request.
    pub planned: u64,
    /// `(cell index, raw record line)` in arrival (completion) order.
    pub lines: Vec<(u64, String)>,
    /// Cells this request caused to simulate.
    pub simulated: u64,
    /// Cells served from the persistent cache.
    pub cache_hits: u64,
    /// Cells that attached to another request's in-flight simulation.
    pub dedup_hits: u64,
    /// `true` if the server aborted the stream (shutdown mid-request).
    pub aborted: bool,
}

impl SubmitOutcome {
    /// The records reassembled in cell order as a JSONL file — the exact
    /// bytes `tenoc sweep` writes for the same grid.
    pub fn jsonl(&self) -> String {
        let mut ordered = self.lines.clone();
        ordered.sort_by_key(|&(cell, _)| cell);
        let mut out = String::new();
        for (_, line) in ordered {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Parses the stream back into records (cell order).
    ///
    /// # Errors
    ///
    /// Returns a message if any line fails to parse as a record.
    pub fn records(&self) -> Result<Vec<RunRecord>, String> {
        from_jsonl(&self.jsonl())
    }
}

/// Connects with Nagle off: requests are single small writes that must
/// not wait on the server's delayed ACK.
fn connect(addr: impl ToSocketAddrs) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn bad_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Submits one sweep over an existing connection and drains its stream.
/// The connection stays usable for further requests afterwards.
///
/// # Errors
///
/// Returns an I/O error for transport failures, a server-reported
/// `error` event, or a stream that ends without a terminal event.
pub fn submit_on(stream: &mut TcpStream, req: &SweepRequest) -> std::io::Result<SubmitOutcome> {
    write_line(stream, &req.to_line())?;
    let reader = BufReader::new(stream.try_clone()?);
    let mut outcome = SubmitOutcome::default();
    for line in reader.lines() {
        let line = line?;
        let (event, v) = classify_line(&line).map_err(bad_data)?;
        match event.as_deref() {
            None => {
                let cell = v
                    .field("cell")
                    .and_then(|c| c.as_u64())
                    .map_err(|e| bad_data(format!("record line without cell index: {e}")))?;
                outcome.lines.push((cell, line));
            }
            Some("planned") => {
                outcome.planned = v
                    .field("cells")
                    .and_then(|c| c.as_u64())
                    .map_err(|e| bad_data(e.to_string()))?;
            }
            Some("done") => {
                let count = |name: &str| v.field(name).and_then(|c| c.as_u64()).unwrap_or(0);
                outcome.simulated = count("simulated");
                outcome.cache_hits = count("cache_hits");
                outcome.dedup_hits = count("dedup_hits");
                return Ok(outcome);
            }
            Some("aborted") => {
                outcome.aborted = true;
                return Ok(outcome);
            }
            Some("error") => {
                let msg = v
                    .field("message")
                    .ok()
                    .and_then(|m| m.as_str().ok().map(str::to_string))
                    .unwrap_or_else(|| "unspecified server error".to_string());
                return Err(bad_data(format!("server rejected request: {msg}")));
            }
            Some(_) => {} // Unknown events are forward-compatible noise.
        }
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "stream ended without a done/aborted event",
    ))
}

/// Connects, submits one sweep, and drains its stream.
///
/// # Errors
///
/// As [`submit_on`], plus connection failures.
pub fn submit(addr: impl ToSocketAddrs, req: &SweepRequest) -> std::io::Result<SubmitOutcome> {
    submit_on(&mut connect(addr)?, req)
}

/// Fetches the server's stats counters as the parsed stats event object.
///
/// # Errors
///
/// Returns an I/O error for transport failures or a malformed reply.
pub fn fetch_stats(addr: impl ToSocketAddrs) -> std::io::Result<serde::json::Value> {
    let mut stream = connect(addr)?;
    write_line(&mut stream, r#"{"op":"stats"}"#)?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let (event, v) = classify_line(line.trim_end()).map_err(bad_data)?;
    if event.as_deref() != Some("stats") {
        return Err(bad_data(format!("expected stats event, got: {line}")));
    }
    Ok(v)
}

/// Connects with retries — for CLI use where the server was just spawned
/// and may not be listening yet.
///
/// # Errors
///
/// Returns the final connection error once the attempts are exhausted.
pub fn connect_with_retry(
    addr: &str,
    attempts: u32,
    delay: Duration,
) -> std::io::Result<TcpStream> {
    let mut last = None;
    for i in 0..attempts.max(1) {
        if i > 0 {
            std::thread::sleep(delay);
        }
        match connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("at least one attempt"))
}
