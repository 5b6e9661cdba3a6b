//! Bounded inputs: neither a deeply nested request nor an over-long line
//! may take the server down, and other connections keep being served.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;
use tenoc_serve::{classify_line, client, server};

/// Sends `payload` on a fresh connection and returns the first reply
/// line's `error` message, or `None` if the server closed instead.
fn error_reply(addr: std::net::SocketAddr, payload: &[u8]) -> Option<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    // The server may close before reading everything: a failed write is
    // the clean-close case, decided by the read below.
    let _ = stream.write_all(payload);
    let mut line = String::new();
    match BufReader::new(stream).read_line(&mut line) {
        Ok(0) => None,
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => None,
        Err(e) => panic!("no reply within the timeout: {e}"),
        Ok(_) => {
            let (event, v) = classify_line(line.trim_end()).expect("parseable reply");
            assert_eq!(event.as_deref(), Some("error"), "{line}");
            Some(v.field("message").unwrap().as_str().unwrap().to_string())
        }
    }
}

#[test]
fn deep_nesting_and_overlong_lines_are_refused_and_the_server_keeps_serving() {
    let cache = std::env::temp_dir().join(format!("tenoc-serve-hostile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let handle = server::start(server::ServerConfig::new("127.0.0.1:0", &cache)).expect("starts");

    // The reviewer's probe: 300 kB of `[` used to overflow the parser's
    // stack and abort the process.
    let mut probe = vec![b'['; 300_000];
    probe.push(b'\n');
    let msg = error_reply(handle.addr(), &probe).expect("a parse error is an event, not a close");
    assert!(msg.contains("nesting deeper"), "{msg}");

    // A line over the cap is refused by length, before it is parsed
    // (it would parse: padding, then a well-formed request).
    let mut long = vec![b' '; 1 << 20];
    long.extend_from_slice(b"{\"op\":\"stats\"}\n");
    if let Some(msg) = error_reply(handle.addr(), &long) {
        assert!(msg.contains("request line longer than"), "{msg}");
    }

    let stats = client::fetch_stats(handle.addr()).expect("a new connection is still answered");
    assert_eq!(stats.field("requests").unwrap().as_u64().unwrap(), 0);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}
