//! Tenant fault-isolation proof (fault-injection builds only): one daemon,
//! eight concurrent clients — two submit fault-seeded jobs that panic a
//! worker, one submits a dataset whose index exceeds the per-request byte
//! budget, and the remaining five are healthy. The faulty tenants get typed
//! error lines; the healthy five complete bit-identically to standalone
//! runs; the daemon keeps serving throughout, drains cleanly, and leaks no
//! threads.

#![cfg(feature = "fault-injection")]

mod common;

use common::*;
use dbscan_core::algorithms::grid_exact;
use dbscan_core::DbscanParams;
use dbscan_server::json::Value;
use dbscan_server::{label_hash, start, Bind, Client, ServerConfig};

const EPS: f64 = 6.0;
const MIN_PTS: usize = 4;

#[test]
fn faulty_tenants_cannot_harm_healthy_ones() {
    let _g = lock();
    assert!(
        dbscan_threads().is_empty(),
        "daemon threads alive at test start"
    );

    let healthy_pts = blob_points(800, 0x11);
    let huge_pts = blob_points(60_000, 0x22);
    let params = DbscanParams::new(EPS, MIN_PTS).unwrap();
    let expected = grid_exact(&healthy_pts, params).flat_labels();
    let expected_hash = format!("{:016x}", label_hash(&expected));

    // The byte budget sits between the healthy dataset's index footprint and
    // the huge one's, so exactly one tenant trips the resource limit.
    let handle = start(ServerConfig {
        bind: Bind::Tcp("127.0.0.1:0".to_string()),
        workers: 2,
        max_index_bytes: Some(512 << 10),
        ..ServerConfig::default()
    })
    .expect("start server");
    let addr = handle.tcp_addr.unwrap().to_string();

    // Eight tenants, each on its own connection, all in flight concurrently.
    let tenants: Vec<std::thread::JoinHandle<(String, Value)>> = (0..8)
        .map(|i| {
            let addr = addr.clone();
            let pts = if i == 2 {
                huge_pts.clone()
            } else {
                healthy_pts.clone()
            };
            std::thread::spawn(move || {
                let mut client = Client::connect_tcp(&addr).expect("connect");
                let mut extra: Vec<(&str, Value)> = Vec::new();
                let kind = match i {
                    // Tenants 0 and 1: deterministic worker panic in the
                    // parallel edge phase, recovery policy "fail" so the
                    // panic surfaces as a typed error instead of healing.
                    0 | 1 => {
                        extra.push(("faults", Value::Str("seed=42,edge=1".to_string())));
                        extra.push(("recovery", Value::Str("fail".to_string())));
                        "faulted"
                    }
                    // Tenant 2: index footprint past --max-index-bytes.
                    2 => "oversized",
                    _ => "healthy",
                };
                let resp = client
                    .call(&submit_req(&pts, EPS, MIN_PTS, extra))
                    .expect("submit");
                let job = resp.get("job").and_then(Value::as_u64).expect("admitted");
                let result = client.call(&result_req(job)).expect("result");
                (kind.to_string(), result)
            })
        })
        .collect();

    let mut healthy = 0;
    for t in tenants {
        let (kind, resp) = t.join().expect("tenant thread");
        let state = resp.get("state").and_then(Value::as_str).unwrap_or("?");
        let code = resp
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str);
        match kind.as_str() {
            "faulted" => {
                assert_eq!(
                    state, "failed",
                    "faulted tenant should fail typed: {resp:?}"
                );
                assert_eq!(code, Some("worker_panicked"), "{resp:?}");
            }
            "oversized" => {
                assert_eq!(
                    state, "failed",
                    "oversized tenant should fail typed: {resp:?}"
                );
                assert_eq!(code, Some("resource_limit"), "{resp:?}");
            }
            _ => {
                assert_eq!(state, "done", "healthy tenant must complete: {resp:?}");
                assert_eq!(
                    resp.get("label_hash").and_then(Value::as_str),
                    Some(expected_hash.as_str()),
                    "healthy tenant diverged from the standalone run: {resp:?}"
                );
                assert_eq!(labels_of(&resp), expected);
                healthy += 1;
            }
        }
    }
    assert_eq!(healthy, 5);

    // The daemon survived its faulty tenants and still serves.
    let mut client = Client::connect_tcp(&addr).expect("reconnect");
    let health = client.call(&verb("health")).expect("health");
    assert_eq!(health.get("ok").and_then(Value::as_bool), Some(true));

    // A metrics scrape at quiescence must agree with the job ledger: the
    // exposition reads the same registry the final stats envelope snapshots,
    // and the two seeded-panic tenants surface in worker_panics_total.
    let pairs = dbscan_server::parse_exposition(&client.metrics_text().expect("metrics"));
    let metric = |name: &str| {
        let key = format!("dbscan_server_{name}");
        pairs
            .iter()
            .find(|(k, _)| *k == key)
            .unwrap_or_else(|| panic!("metric {key} missing"))
            .1
    };
    assert_eq!(metric("jobs_submitted_total"), 8.0);
    assert_eq!(metric("jobs_completed_total"), 5.0);
    assert_eq!(metric("jobs_failed_total"), 3.0);
    assert_eq!(metric("jobs_cancelled_total"), 0.0);
    assert!(
        metric("worker_panics_total") >= 2.0,
        "both fault-seeded tenants should record their worker panics: {}",
        metric("worker_panics_total")
    );
    assert_eq!(
        metric("jobs_submitted_total"),
        metric("jobs_completed_total")
            + metric("jobs_failed_total")
            + metric("jobs_cancelled_total"),
        "accounting invariant must hold under chaos"
    );
    // Every terminal job recorded one observation per latency histogram.
    assert_eq!(metric("service_time_us_count"), 8.0);
    assert_eq!(metric("end_to_end_us_count"), 8.0);

    handle.shutdown();
    let stats = handle.wait();
    assert_eq!(stats.get("submitted").and_then(Value::as_u64), Some(8));
    assert_eq!(stats.get("completed").and_then(Value::as_u64), Some(5));
    assert_eq!(stats.get("failed").and_then(Value::as_u64), Some(3));
    assert_eq!(stats.get("cancelled").and_then(Value::as_u64), Some(0));
    assert_daemon_threads_gone();
}
