//! Telemetry-plane integration tests over a real daemon: the `metrics`
//! verb's Prometheus exposition cross-checked against `health`, inline
//! per-request trace capture in both formats (phase parity against a
//! standalone traced run, budget truncation), the rolling health
//! time-series, and the structured log file's lifecycle events.

mod common;

use common::*;
use dbscan_core::algorithms::{grid_exact_instrumented, BcpStrategy};
use dbscan_core::{DbscanParams, TracedStats};
use dbscan_server::json::{parse, Value};
use dbscan_server::{parse_exposition, start, Bind, Client, Level, ServerConfig};
use std::collections::BTreeSet;
use std::time::Duration;

const EPS: f64 = 6.0;
const MIN_PTS: usize = 4;

fn tcp_server(tweak: impl FnOnce(&mut ServerConfig)) -> (dbscan_server::ServerHandle, Client) {
    let mut cfg = ServerConfig {
        bind: Bind::Tcp("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    tweak(&mut cfg);
    let handle = start(cfg).expect("start server");
    let addr = handle.tcp_addr.expect("tcp bind reports its address");
    let client = Client::connect_tcp(&addr.to_string()).expect("connect");
    (handle, client)
}

fn submit_ok(client: &mut Client, req: &Value) -> u64 {
    let resp = client.call(req).expect("submit call");
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "{resp:?}"
    );
    resp.get("job").and_then(Value::as_u64).expect("job id")
}

fn metric(pairs: &[(String, f64)], name: &str) -> f64 {
    let key = format!("dbscan_server_{name}");
    pairs
        .iter()
        .find(|(k, _)| *k == key)
        .unwrap_or_else(|| panic!("metric {key} missing from exposition"))
        .1
}

/// Distinct phase-span names (`cat == "phase"`) in a parsed Chrome trace.
fn chrome_phase_names(trace: &Value) -> BTreeSet<String> {
    trace
        .as_arr()
        .expect("chrome trace is a JSON array")
        .iter()
        .filter(|ev| ev.get("cat").and_then(Value::as_str) == Some("phase"))
        .filter_map(|ev| ev.get("name").and_then(Value::as_str))
        .map(str::to_string)
        .collect()
}

#[test]
fn metrics_exposition_matches_health_counters() {
    let _g = lock();
    let pts = blob_points(600, 0x7e1e);
    let (handle, mut client) = tcp_server(|_| {});

    // Two fresh jobs plus one cache hit so the cache counters move too.
    for _ in 0..2 {
        let job = submit_ok(&mut client, &submit_req(&pts, EPS, MIN_PTS, vec![]));
        let resp = client.call(&result_req(job)).expect("result");
        assert_eq!(resp.get("state").and_then(Value::as_str), Some("done"));
    }
    let other = blob_points(500, 0xfade);
    let job = submit_ok(&mut client, &submit_req(&other, EPS, MIN_PTS, vec![]));
    client.call(&result_req(job)).expect("result");

    let resp = client.call(&verb("metrics")).expect("metrics verb");
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(
        resp.get("schema").and_then(Value::as_str),
        Some("dbscan-server-metrics/v1")
    );
    let text = resp
        .get("exposition")
        .and_then(Value::as_str)
        .expect("exposition text");
    assert!(text.contains("# TYPE dbscan_server_jobs_submitted_total counter"));
    assert!(text.contains("# TYPE dbscan_server_service_time_us histogram"));
    let pairs = parse_exposition(text);

    // The scrape and the health envelope must read the same registry.
    let health = client.call(&verb("health")).expect("health verb");
    let stats = health.get("stats").expect("health stats");
    let of = |k: &str| stats.get(k).and_then(Value::as_u64).unwrap() as f64;
    assert_eq!(metric(&pairs, "jobs_submitted_total"), of("submitted"));
    assert_eq!(metric(&pairs, "jobs_completed_total"), of("completed"));
    assert_eq!(metric(&pairs, "jobs_failed_total"), of("failed"));
    assert_eq!(metric(&pairs, "jobs_cancelled_total"), of("cancelled"));
    assert_eq!(metric(&pairs, "jobs_shed_total"), of("shed_jobs"));
    assert_eq!(metric(&pairs, "worker_panics_total"), of("worker_panics"));
    assert_eq!(metric(&pairs, "jobs_submitted_total"), 3.0);
    assert_eq!(
        metric(&pairs, "jobs_submitted_total"),
        metric(&pairs, "jobs_completed_total")
            + metric(&pairs, "jobs_failed_total")
            + metric(&pairs, "jobs_cancelled_total"),
        "accounting invariant must hold at quiescence"
    );
    // Every terminal job records one observation in each latency histogram.
    assert_eq!(metric(&pairs, "service_time_us_count"), 3.0);
    assert_eq!(metric(&pairs, "queue_wait_us_count"), 3.0);
    assert_eq!(metric(&pairs, "end_to_end_us_count"), 3.0);
    assert!(metric(&pairs, "cache_hits_total") >= 1.0);
    assert!(metric(&pairs, "cache_misses_total") >= 2.0);

    // The client helper returns the same exposition as the raw verb.
    let via_helper = client.metrics_text().expect("metrics_text");
    assert!(via_helper.contains("dbscan_server_jobs_submitted_total"));

    handle.shutdown();
    handle.wait();
    assert_daemon_threads_gone();
}

#[test]
fn traced_chrome_submit_matches_standalone_phase_spans() {
    let _g = lock();
    // Fresh (uncached) data: a cache hit would skip the build phases and the
    // parity assertion below would be vacuous for grid_build/labeling.
    let pts = blob_points(800, 0x7ace);
    let params = DbscanParams::new(EPS, MIN_PTS).unwrap();

    let (handle, mut client) = tcp_server(|_| {});
    let job = submit_ok(
        &mut client,
        &submit_req(
            &pts,
            EPS,
            MIN_PTS,
            vec![("trace", Value::Str("chrome".into()))],
        ),
    );
    let resp = client.call(&result_req(job)).expect("result");
    assert_eq!(resp.get("state").and_then(Value::as_str), Some("done"));
    assert_eq!(
        resp.get("trace_format").and_then(Value::as_str),
        Some("chrome")
    );
    assert_eq!(
        resp.get("trace_truncated").and_then(Value::as_bool),
        Some(false)
    );
    assert_eq!(resp.get("events_dropped").and_then(Value::as_u64), Some(0));
    assert_eq!(labels_of(&resp).len(), pts.len());

    let raw = resp
        .get("trace")
        .and_then(Value::as_str)
        .expect("inline trace");
    let trace = parse(raw).expect("served trace must be valid JSON");
    let served = chrome_phase_names(&trace);

    // The same computation traced standalone must cover the same phases.
    let ts = TracedStats::new(1);
    grid_exact_instrumented(&pts, params, BcpStrategy::TreeAssisted, &ts);
    let standalone: BTreeSet<String> = ts
        .tracer
        .snapshot()
        .events
        .iter()
        .filter(|ev| ev.name.as_phase().is_some())
        .map(|ev| ev.name.label().to_string())
        .collect();
    assert_eq!(
        served, standalone,
        "served trace phases diverge from standalone run"
    );
    assert!(served.contains("grid_build") && served.contains("edge_tests"));

    handle.shutdown();
    handle.wait();
}

#[test]
fn tiny_trace_budget_truncates_but_stays_valid_json() {
    let _g = lock();
    let pts = blob_points(800, 0xbeef);
    let (handle, mut client) = tcp_server(|cfg| cfg.trace_max_bytes = 700);
    let job = submit_ok(
        &mut client,
        &submit_req(
            &pts,
            EPS,
            MIN_PTS,
            vec![("trace", Value::Str("chrome".into()))],
        ),
    );
    let resp = client.call(&result_req(job)).expect("result");
    assert_eq!(resp.get("state").and_then(Value::as_str), Some("done"));
    assert_eq!(
        resp.get("trace_truncated").and_then(Value::as_bool),
        Some(true)
    );
    let raw = resp.get("trace").and_then(Value::as_str).expect("trace");
    assert!(
        raw.len() <= 700,
        "capped trace overran its budget: {} bytes",
        raw.len()
    );
    let trace = parse(raw).expect("capped trace must still be valid JSON");
    // The truncation is surfaced inside the trace itself too.
    let omitted = trace
        .as_arr()
        .unwrap()
        .iter()
        .any(|ev| ev.get("name").and_then(Value::as_str) == Some("events_omitted"));
    assert!(
        omitted,
        "capped trace should carry an events_omitted marker"
    );

    handle.shutdown();
    handle.wait();
}

#[test]
fn folded_trace_capture_returns_flamegraph_lines() {
    let _g = lock();
    let pts = blob_points(700, 0xf01d);
    let (handle, mut client) = tcp_server(|_| {});
    let job = submit_ok(
        &mut client,
        &submit_req(
            &pts,
            EPS,
            MIN_PTS,
            vec![("trace", Value::Str("folded".into()))],
        ),
    );
    let resp = client.call(&result_req(job)).expect("result");
    assert_eq!(resp.get("state").and_then(Value::as_str), Some("done"));
    assert_eq!(
        resp.get("trace_format").and_then(Value::as_str),
        Some("folded")
    );
    let raw = resp.get("trace").and_then(Value::as_str).expect("trace");
    assert!(!raw.trim().is_empty(), "folded trace should not be empty");
    for line in raw.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("folded line is `stack count`");
        assert!(!stack.is_empty());
        count.parse::<u64>().expect("folded count is integral");
    }

    handle.shutdown();
    handle.wait();
}

#[test]
fn bad_trace_format_is_rejected_at_submit() {
    let _g = lock();
    let pts = blob_points(50, 0xbad);
    let (handle, mut client) = tcp_server(|_| {});
    let resp = client
        .call(&submit_req(
            &pts,
            EPS,
            MIN_PTS,
            vec![("trace", Value::Str("svg".into()))],
        ))
        .expect("call");
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    handle.shutdown();
    handle.wait();
}

#[test]
fn timeseries_ring_fills_and_rolls() {
    let _g = lock();
    let pts = blob_points(400, 0x1155);
    let (handle, mut client) = tcp_server(|cfg| {
        cfg.sample_interval = Duration::from_millis(20);
        cfg.timeseries_cap = 5;
    });
    let job = submit_ok(&mut client, &submit_req(&pts, EPS, MIN_PTS, vec![]));
    client.call(&result_req(job)).expect("result");

    // Poll until the sampler has pushed past capacity, then check rotation.
    let t0 = std::time::Instant::now();
    let resp = loop {
        let resp = client.call(&verb("timeseries")).expect("timeseries verb");
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
        if resp
            .get("total_samples")
            .and_then(Value::as_u64)
            .unwrap_or(0)
            > 5
        {
            break resp;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "sampler never filled the ring"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(
        resp.get("schema").and_then(Value::as_str),
        Some("dbscan-server-timeseries/v1")
    );
    assert_eq!(resp.get("interval_ms").and_then(Value::as_u64), Some(20));
    assert_eq!(resp.get("capacity").and_then(Value::as_u64), Some(5));
    let samples = resp
        .get("samples")
        .and_then(Value::as_arr)
        .expect("samples");
    assert_eq!(
        samples.len(),
        5,
        "ring past capacity holds exactly `capacity` samples"
    );
    // Rotation keeps chronological order, and the counters are cumulative.
    let uptimes: Vec<u64> = samples
        .iter()
        .map(|s| s.get("uptime_ms").and_then(Value::as_u64).unwrap())
        .collect();
    assert!(
        uptimes.windows(2).all(|w| w[0] <= w[1]),
        "samples out of order: {uptimes:?}"
    );
    let last = samples.last().unwrap();
    assert_eq!(last.get("completed").and_then(Value::as_u64), Some(1));
    assert!(last
        .get("throughput_per_s")
        .and_then(Value::as_f64)
        .is_some());

    handle.shutdown();
    handle.wait();
}

#[test]
fn log_file_records_lifecycle_events() {
    let _g = lock();
    let log_path = std::env::temp_dir().join(format!(
        "dbscan-telemetry-log-{}-{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&log_path);

    let pts = blob_points(300, 0x106);
    let (handle, mut client) = tcp_server(|cfg| {
        cfg.log_file = Some(log_path.clone());
        cfg.log_level = Level::Debug;
    });
    let job = submit_ok(&mut client, &submit_req(&pts, EPS, MIN_PTS, vec![]));
    let resp = client.call(&result_req(job)).expect("result");
    assert_eq!(resp.get("state").and_then(Value::as_str), Some("done"));
    handle.shutdown();
    handle.wait();

    let text = std::fs::read_to_string(&log_path).expect("log file exists");
    let mut events = Vec::new();
    for line in text.lines() {
        let rec = parse(line).expect("every log line is one JSON object");
        assert!(rec.get("ts_ms").and_then(Value::as_u64).is_some());
        assert!(rec.get("level").and_then(Value::as_str).is_some());
        events.push(
            rec.get("event")
                .and_then(Value::as_str)
                .unwrap()
                .to_string(),
        );
    }
    for expected in [
        "server_start",
        "job_submitted",
        "job_done",
        "server_drain",
        "server_exit",
    ] {
        assert!(
            events.iter().any(|e| e == expected),
            "log should carry a {expected} event; got {events:?}"
        );
    }
    // The exit record snapshots the final counters.
    let exit = text
        .lines()
        .map(|l| parse(l).unwrap())
        .find(|r| r.get("event").and_then(Value::as_str) == Some("server_exit"))
        .unwrap();
    assert_eq!(exit.get("completed").and_then(Value::as_u64), Some(1));
    let _ = std::fs::remove_file(&log_path);
}
