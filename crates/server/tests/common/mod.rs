//! Helpers shared by the daemon integration tests.
//!
//! Tests in this suite each start a real daemon with real sockets, and the
//! whole suite serializes on [`lock`], so a test's thread-hygiene assertion
//! sees only the threads its own daemon started.

use dbscan_geom::Point;
use dbscan_server::json::{obj, Value};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Ids of the `dbscan-*` threads that were alive when the test now holding
/// [`lock`] took it. They belong to no daemon of that test (a daemon left
/// running by an earlier test that failed is one), so
/// [`assert_daemon_threads_gone`] does not count them.
static THREADS_BEFORE: Mutex<Vec<u64>> = Mutex::new(Vec::new());

pub fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    *THREADS_BEFORE
        .lock()
        .unwrap_or_else(PoisonError::into_inner) =
        dbscan_tasks().into_iter().map(|(tid, _)| tid).collect();
    guard
}

/// Deterministic 2D dataset: three dense blobs plus sparse background noise
/// (xorshift; no rand dependency in this crate).
pub fn blob_points(n: usize, seed: u64) -> Vec<Point<2>> {
    let mut s = seed | 1;
    let mut unit = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    const CENTERS: [(f64, f64); 3] = [(20.0, 20.0), (120.0, 30.0), (40.0, 140.0)];
    (0..n)
        .map(|i| {
            if i % 10 == 9 {
                // background noise over the whole window
                Point([unit() * 200.0, unit() * 200.0])
            } else {
                let (cx, cy) = CENTERS[i % 3];
                Point([cx + (unit() - 0.5) * 12.0, cy + (unit() - 0.5) * 12.0])
            }
        })
        .collect()
}

pub fn points_value(pts: &[Point<2>]) -> Value {
    Value::Arr(
        pts.iter()
            .map(|p| Value::Arr(vec![Value::Num(p.0[0]), Value::Num(p.0[1])]))
            .collect(),
    )
}

/// A `submit` request for `pts` with extra members appended.
pub fn submit_req(pts: &[Point<2>], eps: f64, min_pts: usize, extra: Vec<(&str, Value)>) -> Value {
    let mut members = vec![
        ("verb", Value::Str("submit".to_string())),
        ("points", points_value(pts)),
        ("eps", Value::Num(eps)),
        ("min_pts", Value::Num(min_pts as f64)),
    ];
    members.extend(extra);
    obj(members)
}

/// Submits and asserts admission, returning the job id.
#[allow(dead_code)] // each test binary compiles its own copy of this module
pub fn submit_ok(client: &mut dbscan_server::Client, req: &Value) -> u64 {
    let resp = client.call(req).expect("submit call");
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "submit should be admitted: {resp:?}"
    );
    resp.get("job").and_then(Value::as_u64).expect("job id")
}

pub fn result_req(job: u64) -> Value {
    obj(vec![
        ("verb", Value::Str("result".to_string())),
        ("job", Value::Num(job as f64)),
    ])
}

pub fn verb(name: &str) -> Value {
    obj(vec![("verb", Value::Str(name.to_string()))])
}

/// Labels from a `result` response (`null` = noise).
#[allow(dead_code)] // each test binary compiles its own copy of this module
pub fn labels_of(resp: &Value) -> Vec<Option<u32>> {
    resp.get("labels")
        .and_then(Value::as_arr)
        .expect("result should carry labels")
        .iter()
        .map(|v| v.as_u64().map(|c| c as u32))
        .collect()
}

/// Kernel thread ids and names of the live `dbscan-*` threads in this
/// process (executors, the accept loop, connection handlers).
fn dbscan_tasks() -> Vec<(u64, String)> {
    let mut out = Vec::new();
    if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
        for entry in dir.flatten() {
            let Some(tid) = entry.file_name().to_str().and_then(|t| t.parse().ok()) else {
                continue;
            };
            if let Ok(comm) = std::fs::read_to_string(entry.path().join("comm")) {
                let name = comm.trim().to_string();
                if name.starts_with("dbscan-") {
                    out.push((tid, name));
                }
            }
        }
    }
    out
}

/// Names of live `dbscan-*` threads in this process. Empty once every
/// daemon has fully shut down.
#[allow(dead_code)] // each test binary compiles its own copy of this module
pub fn dbscan_threads() -> Vec<String> {
    dbscan_tasks().into_iter().map(|(_, name)| name).collect()
}

/// Asserts that every `dbscan-*` thread started since this test took
/// [`lock`] is gone after its daemon's `wait()`. A joined thread can stay
/// listed in `/proc/self/task` until the kernel reaps it, so this polls for
/// up to 5 s; a thread that really leaked is still listed then and fails
/// the test.
pub fn assert_daemon_threads_gone() {
    let before = THREADS_BEFORE
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let live: Vec<(u64, String)> = dbscan_tasks()
            .into_iter()
            .filter(|(tid, _)| !before.contains(tid))
            .collect();
        if live.is_empty() {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "daemon threads leaked past wait(): {live:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// Polls `status` until the job reports `state`, panicking after ~5s.
#[allow(dead_code)] // each test binary compiles its own copy of this module
pub fn wait_for_state(client: &mut dbscan_server::Client, job: u64, state: &str) {
    let t0 = std::time::Instant::now();
    loop {
        let resp = client
            .call(&obj(vec![
                ("verb", Value::Str("status".to_string())),
                ("job", Value::Num(job as f64)),
            ]))
            .expect("status call");
        if resp.get("state").and_then(Value::as_str) == Some(state) {
            return;
        }
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "job {job} never reached state {state:?}: {resp:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}
