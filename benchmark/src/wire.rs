//! A JSON-lines client for `tenoc serve` over `std::net::TcpStream`
//! that knows only the documented protocol (it shares no code with
//! `tenoc-serve`'s own client): control events carry an `"event"` key,
//! every other line is a record that starts with its `"cell"` index.

use serde::json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One reply to a sweep request, as read off the socket.
pub struct Reply {
    /// Cells the server planned.
    pub planned: u64,
    /// Record lines in cell order, newline-terminated: the bytes
    /// `tenoc sweep` writes for the same grid.
    pub records: String,
    /// Record lines received.
    pub count: u64,
    /// Cells this request caused to simulate.
    pub simulated: u64,
    /// From the start of the exchange (connecting, for [`submit`]) to the
    /// `done` event read.
    pub latency: Duration,
}

/// An open connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects.
    ///
    /// # Errors
    ///
    /// Returns the connection error as text.
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
        // A wedged server fails the request instead of hanging the run.
        writer.set_read_timeout(Some(Duration::from_secs(120))).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { writer, reader })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        // One write per request: a line split across two segments waits
        // out the peer's delayed ACK before the newline leaves.
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("write failed: {e}"))
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("the server closed the stream".to_string()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("read failed: {e}")),
        }
    }

    /// Sends one sweep request and reads its stream to the terminal
    /// event, timing from `start`.
    ///
    /// # Errors
    ///
    /// Any transport error, `error` or `aborted` event.
    pub fn sweep(&mut self, request: &str, start: Instant) -> Result<Reply, String> {
        self.send(request)?;
        let mut planned = 0;
        let mut lines: Vec<(u64, String)> = Vec::new();
        loop {
            let line = self.read_line()?;
            if let Some(rest) = line.strip_prefix("{\"cell\":") {
                let digits = rest.split(|c: char| !c.is_ascii_digit()).next().unwrap_or("");
                let cell = digits.parse().map_err(|_| format!("record without index: {line}"))?;
                lines.push((cell, line));
                continue;
            }
            let v = serde::json::parse(line.trim_end()).map_err(|e| format!("bad line: {e}"))?;
            let count = |k: &str| v.field(k).and_then(Value::as_u64).unwrap_or(0);
            match v.field("event").and_then(Value::as_str) {
                Ok("planned") => planned = count("cells"),
                Ok("done") => {
                    let latency = start.elapsed();
                    // Completion order on a cold run, cell order on a hit.
                    lines.sort_by_key(|&(cell, _)| cell);
                    return Ok(Reply {
                        planned,
                        count: lines.len() as u64,
                        records: lines.into_iter().map(|(_, l)| l).collect(),
                        simulated: count("simulated"),
                        latency,
                    });
                }
                Ok("error" | "aborted") => return Err(format!("server said: {}", line.trim())),
                _ => {} // Unknown events are forward-compatible noise.
            }
        }
    }
}

/// One sweep request on a connection of its own — what `tenoc submit`
/// does — timed from before the connect.
///
/// # Errors
///
/// As [`Conn::sweep`], plus connection failures.
pub fn submit(addr: SocketAddr, request: &str) -> Result<Reply, String> {
    let start = Instant::now();
    Conn::open(addr)?.sweep(request, start)
}

/// One `{"op":"stats"}` round trip on a connection of its own:
/// transport, parse and the state lock with no cell work.
///
/// # Errors
///
/// Transport errors, or a reply that is not a stats event.
pub fn stats_round_trip(addr: SocketAddr) -> Result<Duration, String> {
    let start = Instant::now();
    let mut conn = Conn::open(addr)?;
    conn.send("{\"op\":\"stats\"}")?;
    let line = conn.read_line()?;
    if !line.starts_with("{\"event\":\"stats\"") {
        return Err(format!("expected a stats event, got {}", line.trim()));
    }
    Ok(start.elapsed())
}
