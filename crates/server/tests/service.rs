//! End-to-end daemon tests over real sockets: bit-identity with standalone
//! runs, the structure cache, admission control, pressure degradation (with
//! the Sandwich guarantee), cancellation, drain semantics, and thread
//! hygiene.

mod common;

use common::*;
use dbscan_core::algorithms::{grid_exact, rho_approx};
use dbscan_core::DbscanParams;
use dbscan_eval::sandwich::{check_sandwich, SandwichOutcome};
use dbscan_geom::Point;
use dbscan_server::journal::JOURNAL_FILE;
use dbscan_server::json::{obj, Value};
use dbscan_server::{label_hash, start, Bind, Client, JournalConfig, ServerConfig};
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
        "submit should be admitted: {resp:?}"
    );
    resp.get("job").and_then(Value::as_u64).expect("job id")
}

#[test]
fn served_exact_run_is_bit_identical_to_standalone() {
    let _g = lock();
    let pts = blob_points(900, 0x5eed);
    let params = DbscanParams::new(EPS, MIN_PTS).unwrap();
    let standalone = grid_exact(&pts, params);

    let (handle, mut client) = tcp_server(|_| {});
    let job = submit_ok(&mut client, &submit_req(&pts, EPS, MIN_PTS, vec![]));
    let resp = client.call(&result_req(job)).expect("result call");
    assert_eq!(resp.get("state").and_then(Value::as_str), Some("done"));
    assert_eq!(resp.get("outcome").and_then(Value::as_str), Some("exact"));
    assert_eq!(
        resp.get("num_clusters").and_then(Value::as_u64),
        Some(standalone.num_clusters as u64)
    );
    let served = labels_of(&resp);
    assert_eq!(
        served,
        standalone.flat_labels(),
        "labels must match bit-for-bit"
    );
    assert_eq!(
        resp.get("label_hash").and_then(Value::as_str),
        Some(format!("{:016x}", label_hash(&standalone.flat_labels())).as_str())
    );

    handle.shutdown();
    handle.wait();
}

#[test]
fn extreme_and_negative_zero_coordinates_cross_the_wire_bit_exact() {
    let _g = lock();
    let dir = std::env::temp_dir().join(format!("dbscan-wire-bits-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    // The journal keeps each admitted job's coordinates as raw bits, so it
    // shows exactly what the daemon decoded.
    let (handle, mut client) = tcp_server(|cfg| {
        cfg.journal = Some(JournalConfig::new(dir.clone()));
    });

    // Blobs with signed zeros, subnormals and full-precision values in the
    // SS domain [0, 1e5]; then a run at an ε large enough for ±1e300,
    // whose text takes the writer's `{}` fallback.
    let mut near = blob_points(300, 0xb175);
    near.extend([
        Point([-0.0, 0.0]),
        Point([0.0, -0.0]),
        Point([1e-300, 5e-324]),
        Point([-5e-324, -1e-300]),
        Point([f64::MIN_POSITIVE, -0.1]),
        Point([99_999.999_999_999_99, 12_345.678_901_234_567]),
        Point([0.1 + 0.2, 1e5]),
    ]);
    let far = vec![
        Point([1e300, 1e300]),
        Point([1e300, -1e300]),
        Point([-0.0, 1e300]),
        Point([5e-324, -0.0]),
        Point([12_345.678_901_234_567, 99_999.5]),
        Point([-1.797_693_134_862_315_7e300, 3e299]),
    ];
    for (pts, eps, min_pts) in [(near, EPS, MIN_PTS), (far, 1e290, 2)] {
        let standalone = grid_exact(&pts, DbscanParams::new(eps, min_pts).unwrap());
        let job = submit_ok(&mut client, &submit_req(&pts, eps, min_pts, vec![]));
        let resp = client.call(&result_req(job)).expect("result call");
        assert_eq!(resp.get("state").and_then(Value::as_str), Some("done"));
        assert_eq!(labels_of(&resp), standalone.flat_labels(), "eps {eps}");
        assert_eq!(
            resp.get("label_hash").and_then(Value::as_str),
            Some(format!("{:016x}", label_hash(&standalone.flat_labels())).as_str())
        );
        let bits: Vec<u8> = pts
            .iter()
            .flat_map(|p| p.0)
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        let journal = std::fs::read(dir.join(JOURNAL_FILE)).expect("read journal");
        assert!(
            journal.windows(bits.len()).any(|w| w == bits),
            "the daemon decoded other bits than the client sent (eps {eps})"
        );
    }

    handle.shutdown();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeat_queries_hit_the_structure_cache_with_identical_output() {
    let _g = lock();
    let pts = blob_points(700, 0xcafe);
    let (handle, mut client) = tcp_server(|_| {});

    let first = submit_ok(&mut client, &submit_req(&pts, EPS, MIN_PTS, vec![]));
    let r1 = client.call(&result_req(first)).expect("result 1");
    assert_eq!(r1.get("from_cache").and_then(Value::as_bool), Some(false));

    // Same dataset + params again: the grid/core structure is reused.
    let second = submit_ok(&mut client, &submit_req(&pts, EPS, MIN_PTS, vec![]));
    let r2 = client.call(&result_req(second)).expect("result 2");
    assert_eq!(r2.get("from_cache").and_then(Value::as_bool), Some(true));
    assert_eq!(
        r1.get("label_hash").and_then(Value::as_str),
        r2.get("label_hash").and_then(Value::as_str),
        "cached structure must produce the identical clustering"
    );

    // A rho-approximate query over the same (dataset, eps, MinPts) reuses the
    // same cached cells — the approximate counters are built lazily per rho.
    let approx = submit_ok(
        &mut client,
        &submit_req(
            &pts,
            EPS,
            MIN_PTS,
            vec![
                ("algorithm", Value::Str("approx".to_string())),
                ("rho", Value::Num(0.01)),
            ],
        ),
    );
    let r3 = client.call(&result_req(approx)).expect("result 3");
    assert_eq!(r3.get("from_cache").and_then(Value::as_bool), Some(true));
    assert_eq!(r3.get("rho_used").and_then(Value::as_f64), Some(0.01));

    let health = client.call(&verb("health")).expect("health");
    let cache = health
        .get("stats")
        .and_then(|s| s.get("cache"))
        .expect("cache stats");
    assert!(cache.get("hits").and_then(Value::as_u64).unwrap() >= 2);
    assert_eq!(cache.get("entries").and_then(Value::as_u64), Some(1));

    handle.shutdown();
    handle.wait();
}

#[test]
fn truncated_partial_build_never_poisons_the_structure_cache() {
    let _g = lock();
    let pts = blob_points(900, 0x7a11);
    let params = DbscanParams::new(EPS, MIN_PTS).unwrap();
    let standalone = grid_exact(&pts, params);
    let (handle, mut client) = tcp_server(|_| {});

    // A zero-budget partial job truncates the structure build: the result is
    // an honest incomplete prefix ...
    let partial = submit_ok(
        &mut client,
        &submit_req(
            &pts,
            EPS,
            MIN_PTS,
            vec![
                ("deadline", Value::Str("0us".to_string())),
                ("deadline_policy", Value::Str("partial".to_string())),
            ],
        ),
    );
    let r1 = client.call(&result_req(partial)).expect("partial result");
    assert_eq!(
        r1.get("state").and_then(Value::as_str),
        Some("done"),
        "{r1:?}"
    );
    assert_eq!(r1.get("outcome").and_then(Value::as_str), Some("partial"));
    assert_eq!(r1.get("complete").and_then(Value::as_bool), Some(false));

    // ... and must NOT be cached: a full-budget request for the identical
    // (data, eps, min_pts) rebuilds from scratch and is bit-identical to the
    // standalone exact run, not the truncated prefix.
    let full = submit_ok(&mut client, &submit_req(&pts, EPS, MIN_PTS, vec![]));
    let r2 = client.call(&result_req(full)).expect("full result");
    assert_eq!(
        r2.get("outcome").and_then(Value::as_str),
        Some("exact"),
        "{r2:?}"
    );
    assert_eq!(r2.get("complete").and_then(Value::as_bool), Some(true));
    assert_eq!(
        r2.get("from_cache").and_then(Value::as_bool),
        Some(false),
        "a truncated build must not have been cached: {r2:?}"
    );
    assert_eq!(labels_of(&r2), standalone.flat_labels());

    // The complete structure from the full-budget run IS cached.
    let again = submit_ok(&mut client, &submit_req(&pts, EPS, MIN_PTS, vec![]));
    let r3 = client.call(&result_req(again)).expect("repeat result");
    assert_eq!(r3.get("from_cache").and_then(Value::as_bool), Some(true));
    assert_eq!(labels_of(&r3), standalone.flat_labels());

    handle.shutdown();
    handle.wait();
}

#[test]
fn terminal_records_are_released_after_result_delivery() {
    let _g = lock();
    let pts = blob_points(300, 0x6c6c);
    let (handle, mut client) = tcp_server(|_| {});

    let job = submit_ok(&mut client, &submit_req(&pts, EPS, MIN_PTS, vec![]));
    let r = client.call(&result_req(job)).expect("result");
    assert_eq!(r.get("state").and_then(Value::as_str), Some("done"));

    // `result` is consume-once: the record (points + labels) is released on
    // delivery, so the daemon does not retain per-job memory forever.
    for verb_name in ["status", "result"] {
        let gone = client
            .call(&obj(vec![
                ("verb", Value::Str(verb_name.to_string())),
                ("job", Value::Num(job as f64)),
            ]))
            .expect("post-delivery call");
        assert_eq!(
            gone.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str),
            Some("unknown_job"),
            "{verb_name} after delivery should not find the job: {gone:?}"
        );
    }

    // Counters are unaffected by record retirement.
    handle.shutdown();
    let stats = handle.wait();
    assert_eq!(stats.get("submitted").and_then(Value::as_u64), Some(1));
    assert_eq!(stats.get("completed").and_then(Value::as_u64), Some(1));
}

#[test]
fn saturated_queue_sheds_with_retry_after_and_never_hangs() {
    let _g = lock();
    let pts = blob_points(200, 0xbeef);
    let (handle, mut client) = tcp_server(|cfg| {
        cfg.workers = 1;
        cfg.max_queue = 1;
    });

    // Occupy the single executor, then fill the queue's single slot.
    let running = submit_ok(
        &mut client,
        &submit_req(&pts, EPS, MIN_PTS, vec![("pause_ms", Value::Num(400.0))]),
    );
    wait_for_state(&mut client, running, "running");
    let queued = submit_ok(
        &mut client,
        &submit_req(&pts, EPS, MIN_PTS, vec![("pause_ms", Value::Num(50.0))]),
    );

    // The queue is at max_queue: the next submission is shed, not parked.
    let shed = client
        .call(&submit_req(&pts, EPS, MIN_PTS, vec![]))
        .expect("shed submit");
    assert_eq!(shed.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(
        shed.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("overloaded")
    );
    assert!(
        shed.get("retry_after_ms").and_then(Value::as_u64).unwrap() >= 10,
        "shed response must carry a usable retry hint: {shed:?}"
    );

    // The admitted jobs still complete normally.
    for job in [running, queued] {
        let r = client.call(&result_req(job)).expect("result");
        assert_eq!(
            r.get("state").and_then(Value::as_str),
            Some("done"),
            "{r:?}"
        );
    }

    handle.shutdown();
    let stats = handle.wait();
    assert_eq!(stats.get("shed_jobs").and_then(Value::as_u64), Some(1));
    // Accounting invariant at quiescence: every admitted job is accounted
    // for exactly once; shed jobs are counted separately.
    assert_eq!(stats.get("submitted").and_then(Value::as_u64), Some(2));
    assert_eq!(stats.get("completed").and_then(Value::as_u64), Some(2));
}

#[test]
fn pressure_degradation_is_sandwich_valid_and_bit_identical_to_standalone_approx() {
    let _g = lock();
    let pts = blob_points(900, 0xd06);
    let params = DbscanParams::new(EPS, MIN_PTS).unwrap();
    const OVERLOAD_RHO: f64 = 0.05;

    // The standalone picture the server's degraded answer must match, plus
    // the Theorem 3 sandwich it must sit inside.
    let inner = grid_exact(&pts, params);
    let approx = rho_approx(&pts, params, OVERLOAD_RHO);
    let outer = grid_exact(&pts, params.inflate(OVERLOAD_RHO));
    assert_eq!(
        check_sandwich(&inner, &approx, &outer),
        SandwichOutcome::Holds,
        "the overload rho must itself be Sandwich-valid on this dataset"
    );

    let (handle, mut client) = tcp_server(|cfg| {
        cfg.workers = 1;
        cfg.pressure_threshold = Some(Duration::from_millis(1));
        cfg.overload_rho = OVERLOAD_RHO;
    });

    // Hold the executor so the exact job ages past the pressure threshold.
    // The blocker is approx: only exact jobs are eligible for degradation,
    // so the counter below can attribute the one degrade unambiguously.
    let blocker = submit_ok(
        &mut client,
        &submit_req(
            &pts,
            EPS,
            MIN_PTS,
            vec![
                ("algorithm", Value::Str("approx".to_string())),
                ("pause_ms", Value::Num(150.0)),
            ],
        ),
    );
    wait_for_state(&mut client, blocker, "running");
    let job = submit_ok(&mut client, &submit_req(&pts, EPS, MIN_PTS, vec![]));

    let resp = client.call(&result_req(job)).expect("result");
    assert_eq!(
        resp.get("state").and_then(Value::as_str),
        Some("done"),
        "{resp:?}"
    );
    assert_eq!(
        resp.get("outcome").and_then(Value::as_str),
        Some("degraded")
    );
    assert_eq!(
        resp.get("degraded_by_server").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(
        resp.get("rho_used").and_then(Value::as_f64),
        Some(OVERLOAD_RHO)
    );
    // The degraded answer is exactly the standalone rho-approximate run —
    // load shedding swaps the algorithm, it does not invent output.
    assert_eq!(labels_of(&resp), approx.flat_labels());

    handle.shutdown();
    let stats = handle.wait();
    assert_eq!(stats.get("degraded_jobs").and_then(Value::as_u64), Some(1));
}

#[test]
fn cancel_verb_stops_queued_and_running_jobs() {
    let _g = lock();
    let pts = blob_points(200, 0xace);
    let (handle, mut client) = tcp_server(|cfg| cfg.workers = 1);

    let running = submit_ok(
        &mut client,
        &submit_req(&pts, EPS, MIN_PTS, vec![("pause_ms", Value::Num(2000.0))]),
    );
    wait_for_state(&mut client, running, "running");
    let queued = submit_ok(
        &mut client,
        &submit_req(&pts, EPS, MIN_PTS, vec![("pause_ms", Value::Num(2000.0))]),
    );

    // Cancelling a queued job is immediate; cancelling a running one trips
    // its RunCtl and lands within one cooperative slice.
    let c1 = client
        .call(&obj(vec![
            ("verb", Value::Str("cancel".to_string())),
            ("job", Value::Num(queued as f64)),
        ]))
        .expect("cancel queued");
    assert_eq!(c1.get("state").and_then(Value::as_str), Some("cancelled"));
    client
        .call(&obj(vec![
            ("verb", Value::Str("cancel".to_string())),
            ("job", Value::Num(running as f64)),
        ]))
        .expect("cancel running");
    let r = client.call(&result_req(running)).expect("result");
    assert_eq!(
        r.get("state").and_then(Value::as_str),
        Some("cancelled"),
        "{r:?}"
    );

    handle.shutdown();
    let stats = handle.wait();
    assert_eq!(stats.get("cancelled").and_then(Value::as_u64), Some(2));
}

#[test]
fn per_request_deadline_fails_typed_without_harming_the_daemon() {
    let _g = lock();
    let pts = blob_points(200, 0xfade);
    let (handle, mut client) = tcp_server(|_| {});

    let job = submit_ok(
        &mut client,
        &submit_req(
            &pts,
            EPS,
            MIN_PTS,
            vec![
                ("pause_ms", Value::Num(100.0)),
                ("deadline", Value::Str("1ms".to_string())),
            ],
        ),
    );
    let resp = client.call(&result_req(job)).expect("result");
    assert_eq!(resp.get("state").and_then(Value::as_str), Some("failed"));
    assert_eq!(
        resp.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("deadline_exceeded"),
        "{resp:?}"
    );

    // The daemon is unharmed: the next job completes.
    let ok = submit_ok(&mut client, &submit_req(&pts, EPS, MIN_PTS, vec![]));
    let r = client.call(&result_req(ok)).expect("result");
    assert_eq!(r.get("state").and_then(Value::as_str), Some("done"));

    handle.shutdown();
    handle.wait();
}

#[test]
fn unix_socket_roundtrip_drain_refusal_and_zero_thread_leak() {
    let _g = lock();
    assert!(
        dbscan_threads().is_empty(),
        "suite serialization broken: daemon threads alive at test start"
    );
    let sock = std::env::temp_dir().join(format!("dbscan-test-{}.sock", std::process::id()));
    let pts = blob_points(400, 0xf00d);
    let params = DbscanParams::new(EPS, MIN_PTS).unwrap();

    let handle = start(ServerConfig {
        bind: Bind::Unix(sock.clone()),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("start unix server");
    let mut client = Client::connect_unix_retry(&sock, Duration::from_secs(2)).expect("connect");

    let health = client.call(&verb("health")).expect("health");
    assert_eq!(health.get("ok").and_then(Value::as_bool), Some(true));

    // Keep the drain non-trivial: a job is still running when we ask for
    // shutdown, and the daemon must finish it before exiting.
    let job = submit_ok(
        &mut client,
        &submit_req(&pts, EPS, MIN_PTS, vec![("pause_ms", Value::Num(200.0))]),
    );
    wait_for_state(&mut client, job, "running");
    let down = client.call(&verb("shutdown")).expect("shutdown verb");
    assert_eq!(down.get("draining").and_then(Value::as_bool), Some(true));

    // Draining: new submissions are refused with a typed code.
    let refused = client
        .call(&submit_req(&pts, EPS, MIN_PTS, vec![]))
        .expect("submit while draining");
    assert_eq!(
        refused
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("draining")
    );

    // The in-flight job still completes (graceful drain, not abort).
    let r = client.call(&result_req(job)).expect("result");
    assert_eq!(r.get("state").and_then(Value::as_str), Some("done"));
    assert_eq!(labels_of(&r), grid_exact(&pts, params).flat_labels());

    let stats = handle.wait();
    assert_eq!(stats.get("completed").and_then(Value::as_u64), Some(1));
    assert_daemon_threads_gone();
    assert!(
        !sock.exists(),
        "unix socket file should be unlinked on shutdown"
    );
}

#[test]
fn invalid_requests_get_typed_errors() {
    let _g = lock();
    let pts = blob_points(50, 0xbad);
    let (handle, mut client) = tcp_server(|_| {});

    let bad_eps = client
        .call(&submit_req(&pts, -1.0, MIN_PTS, vec![]))
        .expect("bad eps");
    assert_eq!(
        bad_eps
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("invalid_params")
    );
    let bad_rho = client
        .call(&submit_req(
            &pts,
            EPS,
            MIN_PTS,
            vec![
                ("algorithm", Value::Str("approx".to_string())),
                ("rho", Value::Num(-0.5)),
            ],
        ))
        .expect("bad rho");
    assert_eq!(
        bad_rho
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("invalid_rho")
    );
    let unknown = client
        .call(&obj(vec![
            ("verb", Value::Str("result".to_string())),
            ("job", Value::Num(999.0)),
        ]))
        .expect("unknown job");
    assert_eq!(
        unknown
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("unknown_job")
    );
    let garbage = client.call(&verb("frobnicate")).expect("unknown verb");
    assert_eq!(
        garbage
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("bad_request")
    );

    handle.shutdown();
    handle.wait();
}

/// Admission bounds the dimensionality to 1-8: a 9-D point set and a 0-D
/// one (an empty first point) are typed `bad_request`s.
#[test]
fn out_of_range_dimensionality_is_a_bad_request() {
    let _g = lock();
    let (handle, mut client) = tcp_server(|_| {});
    for (dim, message) in [
        (9, "unsupported dimensionality 9 (1-8)"),
        (0, "unsupported dimensionality 0 (1-8)"),
    ] {
        let point = Value::Arr((0..dim).map(|c| Value::Num(c as f64)).collect());
        let resp = client
            .call(&obj(vec![
                ("verb", Value::Str("submit".to_string())),
                ("points", Value::Arr(vec![point.clone(), point])),
                ("eps", Value::Num(EPS)),
                ("min_pts", Value::Num(MIN_PTS as f64)),
            ]))
            .expect("submit call");
        let error = resp.get("error").expect("refused");
        assert_eq!(
            error.get("code").and_then(Value::as_str),
            Some("bad_request")
        );
        assert_eq!(error.get("message").and_then(Value::as_str), Some(message));
    }
    handle.shutdown();
    handle.wait();
}
