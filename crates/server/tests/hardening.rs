//! Wire-protocol abuse tests: hostile and broken clients must degrade into
//! typed error lines and counters — never a panic, a wedged daemon, or a
//! leaked thread. Each scenario checks the daemon still serves a well-formed
//! request afterwards.

mod common;

use common::*;
use dbscan_server::json::Value;
use dbscan_server::{start, Bind, Client, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

const EPS: f64 = 6.0;
const MIN_PTS: usize = 4;

fn tcp_server(
    tweak: impl FnOnce(&mut ServerConfig),
) -> (dbscan_server::ServerHandle, std::net::SocketAddr) {
    let mut cfg = ServerConfig {
        bind: Bind::Tcp("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    tweak(&mut cfg);
    let handle = start(cfg).expect("start server");
    let addr = handle.tcp_addr.expect("tcp bind reports its address");
    (handle, addr)
}

/// Sends raw bytes, then reads one response line (with a read timeout so a
/// silent server fails the test instead of hanging it).
fn raw_exchange(addr: &std::net::SocketAddr, bytes: &[u8]) -> Option<String> {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(bytes).expect("write");
    let mut line = String::new();
    match BufReader::new(s).read_line(&mut line) {
        Ok(0) => None, // server closed without a response
        Ok(_) => Some(line),
        Err(_) => None,
    }
}

fn error_code(line: &str) -> String {
    dbscan_server::json::parse(line.trim())
        .ok()
        .and_then(|v| {
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str)
                .map(str::to_string)
        })
        .unwrap_or_default()
}

/// The daemon must answer a well-formed request — the abuse didn't wedge it.
fn assert_still_serving(addr: &std::net::SocketAddr) {
    let mut client = Client::connect_tcp(&addr.to_string()).expect("fresh connect");
    let pts = blob_points(60, 0xabad);
    let job = submit_ok(&mut client, &submit_req(&pts, EPS, MIN_PTS, vec![]));
    let r = client.call(&result_req(job)).expect("result");
    assert_eq!(
        r.get("state").and_then(Value::as_str),
        Some("done"),
        "{r:?}"
    );
}

#[test]
fn garbage_frames_draw_typed_errors_not_panics() {
    let _g = lock();
    let (handle, addr) = tcp_server(|_| {});

    // Non-JSON text, binary garbage, invalid UTF-8, deep nesting, truncated
    // JSON: every one must come back as a typed bad_request line.
    let abuses: Vec<Vec<u8>> = vec![
        b"this is not json\n".to_vec(),
        b"{\"verb\": \"submit\", \"points\": [[1,\n".to_vec(),
        vec![0xff, 0xfe, 0x80, 0x81, b'\n'],
        {
            // Seeded random bytes (xorshift, newline-terminated).
            let mut s = 0x5eedu64 | 1;
            let mut buf: Vec<u8> = (0..512)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    (s >> 24) as u8
                })
                .filter(|&b| b != b'\n')
                .collect();
            buf.push(b'\n');
            buf
        },
        {
            let mut nested = vec![b'['; 5_000];
            nested.push(b'\n');
            nested
        },
    ];
    for abuse in &abuses {
        let resp = raw_exchange(&addr, abuse).expect("typed error line");
        assert_eq!(
            error_code(&resp),
            "bad_request",
            "abuse {abuse:?} -> {resp}"
        );
    }

    // A half-written frame followed by a clean disconnect must also be fine.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"{\"verb\": \"he").expect("write");
        drop(s);
    }

    assert_still_serving(&addr);
    let mut client = Client::connect_tcp(&addr.to_string()).expect("connect");
    let health = client.call(&verb("health")).expect("health");
    let malformed = health
        .get("stats")
        .and_then(|s| s.get("malformed_frames"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    assert!(
        malformed >= abuses.len() as u64,
        "expected at least {} malformed frames accounted, saw {malformed}",
        abuses.len()
    );
    handle.shutdown();
    handle.wait();
    assert_daemon_threads_gone();
}

#[test]
fn oversized_frames_are_cut_off_at_the_cap() {
    let _g = lock();
    let (handle, addr) = tcp_server(|cfg| cfg.max_frame_bytes = 4 << 10);

    // 64 KiB of newline-free payload against a 4 KiB cap: the daemon must
    // answer frame_too_large (and hang up) without ever buffering the rest.
    let flood = vec![b'x'; 64 << 10];
    let resp = raw_exchange(&addr, &flood).expect("typed error before EOF");
    assert_eq!(error_code(&resp), "frame_too_large", "{resp}");

    assert_still_serving(&addr);
    handle.shutdown();
    handle.wait();
    assert_daemon_threads_gone();
}

#[test]
fn slow_loris_connections_are_evicted_on_the_idle_deadline() {
    let _g = lock();
    let (handle, addr) = tcp_server(|cfg| cfg.conn_timeout = Some(Duration::from_millis(150)));

    // Connect, trickle half a frame, then stall past the idle deadline.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"{\"verb\":").expect("write");
    let mut resp = String::new();
    let n = BufReader::new(&s).read_line(&mut resp).unwrap_or(0);
    if n > 0 {
        assert_eq!(error_code(&resp), "conn_timeout", "{resp}");
    }
    // Whether or not the goodbye line won the race with the close, the
    // eviction must be accounted and the daemon must still serve.
    let mut client = Client::connect_tcp(&addr.to_string()).expect("connect");
    let t0 = std::time::Instant::now();
    loop {
        let health = client.call(&verb("health")).expect("health");
        let evicted = health
            .get("stats")
            .and_then(|st| st.get("evicted_conns"))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        if evicted >= 1 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "stalled connection was never evicted: {health:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(s);
    assert_still_serving(&addr);
    handle.shutdown();
    handle.wait();
    assert_daemon_threads_gone();
}

#[test]
fn the_connection_cap_sheds_excess_connections_with_a_typed_error() {
    let _g = lock();
    let (handle, addr) = tcp_server(|cfg| cfg.max_conns = 2);

    // Fill both slots with idle-but-live connections.
    let held: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    // Give the accept loop a moment to register both.
    std::thread::sleep(Duration::from_millis(50));

    // The third connection is turned away with too_many_conns.
    let mut turned_away = String::new();
    let s3 = TcpStream::connect(addr).expect("connect");
    s3.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let got = BufReader::new(s3).read_line(&mut turned_away).unwrap_or(0);
    assert!(got > 0, "capped connection should get a goodbye line");
    assert_eq!(error_code(&turned_away), "too_many_conns", "{turned_away}");

    // Releasing a slot restores service. Until the handlers of the closed
    // connections notice, a new connection may itself be turned away with
    // a too_many_conns line, so only an `ok` health reply counts.
    drop(held);
    let t0 = std::time::Instant::now();
    let (client, health) = loop {
        if let Ok(mut client) = Client::connect_tcp(&addr.to_string()) {
            if let Ok(health) = client.call(&verb("health")) {
                if health.get("ok").and_then(Value::as_bool) == Some(true) {
                    break (client, health);
                }
            }
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "slot never freed after the held connections closed"
        );
        std::thread::sleep(Duration::from_millis(20));
    };

    let rejected = health
        .get("stats")
        .and_then(|st| st.get("rejected_conns"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    assert!(
        rejected >= 1,
        "rejected connection not accounted: {health:?}"
    );
    drop(client);
    handle.shutdown();
    handle.wait();
    assert_daemon_threads_gone();
}

#[test]
fn a_dangling_unterminated_frame_is_served_at_eof() {
    let _g = lock();
    let (handle, addr) = tcp_server(|_| {});

    // A well-formed request missing its trailing newline, then shutdown of
    // the write half: the daemon serves it at EOF instead of dropping it.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"{\"verb\": \"health\"}").expect("write");
    s.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut line = String::new();
    let n = BufReader::new(&mut s)
        .read_line(&mut line)
        .expect("read response");
    assert!(n > 0, "EOF-terminated frame got no response");
    let v = dbscan_server::json::parse(line.trim()).expect("json response");
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{line}");
    drop(s);

    assert_still_serving(&addr);
    handle.shutdown();
    handle.wait();
    assert_daemon_threads_gone();
}

#[test]
fn a_multi_megabyte_tag_is_parsed_in_linear_time() {
    let _g = lock();
    let (handle, addr) = tcp_server(|_| {});

    // Parsing that revalidates the rest of the frame per character takes
    // seconds per 100 KB, so a 4 MiB tag would pin the connection thread
    // for hours; `raw_exchange` gives up after 5 s.
    let half = 2 << 20;
    let tag = format!("{}é\"\\\n{}", "a".repeat(half), "b".repeat(half));
    let req = submit_req(
        &blob_points(60, 0x7a9),
        EPS,
        MIN_PTS,
        vec![("tag", Value::Str(tag.clone()))],
    );
    let line = raw_exchange(&addr, format!("{}\n", req.to_line()).as_bytes())
        .expect("a 4 MiB tag must be answered within the read timeout");
    let v = dbscan_server::json::parse(line.trim()).expect("json response");
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{line}");
    let job = v.get("job").and_then(Value::as_u64).expect("job id");

    // The tag comes back whole in the result envelope.
    let mut client = Client::connect_tcp(&addr.to_string()).expect("connect");
    let r = client.call(&result_req(job)).expect("result");
    assert_eq!(r.get("state").and_then(Value::as_str), Some("done"));
    assert!(r.get("tag").and_then(Value::as_str) == Some(tag.as_str()));
    drop(client);

    assert_still_serving(&addr);
    handle.shutdown();
    handle.wait();
    assert_daemon_threads_gone();
}
