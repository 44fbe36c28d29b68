//! Crash-durability integration tests: fabricated journals fed to a real
//! daemon. Covers replay of unfinished jobs (bit-identical re-execution),
//! tombstone semantics (delivered work never re-runs), valid-prefix recovery
//! from corrupt tails, and size-triggered compaction across a restart.

mod common;

use common::*;
use dbscan_core::algorithms::grid_exact;
use dbscan_core::DbscanParams;
use dbscan_server::journal::{submit_record, tombstone_record, JOURNAL_FILE};
use dbscan_server::json::Value;
use dbscan_server::{label_hash, start, Bind, Client, JournalConfig, ServerConfig};
use std::path::{Path, PathBuf};

const EPS: f64 = 6.0;
const MIN_PTS: usize = 4;

/// Fresh scratch directory for one test's journal + log.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbscan-jrec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Starts a TCP daemon journaling into `dir`, logging to `dir/server.log`.
fn journaled_server(
    dir: &Path,
    tweak: impl FnOnce(&mut ServerConfig),
) -> (dbscan_server::ServerHandle, Client) {
    let mut cfg = ServerConfig {
        bind: Bind::Tcp("127.0.0.1:0".to_string()),
        journal: Some(JournalConfig::new(dir.to_path_buf())),
        log_file: Some(dir.join("server.log")),
        ..ServerConfig::default()
    };
    tweak(&mut cfg);
    let handle = start(cfg).expect("start journaled server");
    let addr = handle.tcp_addr.expect("tcp bind reports its address");
    let client = Client::connect_tcp(&addr.to_string()).expect("connect");
    (handle, client)
}

fn flat(pts: &[dbscan_geom::Point<2>]) -> Vec<f64> {
    pts.iter().flat_map(|p| p.0).collect()
}

fn stat_of(client: &mut Client, key: &str) -> u64 {
    let health = client.call(&verb("health")).expect("health");
    health
        .get("stats")
        .and_then(|s| s.get(key))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

#[test]
fn replay_reexecutes_unfinished_jobs_and_honours_tombstones() {
    let _g = lock();
    let dir = scratch("replay");
    let pts = blob_points(500, 0x5eed);
    let params = DbscanParams::new(EPS, MIN_PTS).unwrap();
    let expected = format!(
        "{:016x}",
        label_hash(&grid_exact(&pts, params).flat_labels())
    );

    // Journal as a crashed daemon would have left it: job 7 acked but never
    // finished, job 9 acked and terminal (tombstoned, result delivered).
    let mut log = Vec::new();
    log.extend_from_slice(&submit_record(
        7,
        Some("alpha"),
        EPS,
        MIN_PTS,
        2,
        &flat(&pts),
    ));
    log.extend_from_slice(&submit_record(9, None, EPS, MIN_PTS, 2, &flat(&pts)));
    log.extend_from_slice(&tombstone_record(9, "done"));
    std::fs::write(dir.join(JOURNAL_FILE), &log).expect("write journal");

    let (handle, mut client) = journaled_server(&dir, |_| {});

    // The unfinished job replays to a bit-identical result, flagged as
    // recovered; the tombstoned one is gone for good.
    let r7 = client.call(&result_req(7)).expect("result 7");
    assert_eq!(
        r7.get("state").and_then(Value::as_str),
        Some("done"),
        "{r7:?}"
    );
    assert_eq!(
        r7.get("label_hash").and_then(Value::as_str),
        Some(expected.as_str()),
        "replayed job must reproduce the standalone clustering"
    );
    assert_eq!(r7.get("recovered").and_then(Value::as_bool), Some(true));
    assert_eq!(r7.get("tag").and_then(Value::as_str), Some("alpha"));
    assert_eq!(
        labels_of(&r7),
        grid_exact(&pts, params).flat_labels(),
        "replayed labels must match the standalone run bit-for-bit"
    );
    let r9 = client.call(&result_req(9)).expect("result 9");
    assert_eq!(
        r9.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("unknown_job"),
        "tombstoned job must never re-run: {r9:?}"
    );
    assert_eq!(stat_of(&mut client, "recovered_jobs"), 1);

    // The id counter resumed above everything ever journaled, so fresh ids
    // cannot collide with delivered (tombstoned) ones.
    let fresh = submit_ok(&mut client, &submit_req(&pts, EPS, MIN_PTS, vec![]));
    assert!(
        fresh > 9,
        "fresh id {fresh} must exceed the journaled high-water mark"
    );

    handle.shutdown();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_tails_truncate_to_the_valid_prefix_without_aborting() {
    let _g = lock();
    let pts = blob_points(300, 0xc0de);
    let rec1 = submit_record(1, None, EPS, MIN_PTS, 2, &flat(&pts));
    let rec2 = submit_record(2, None, EPS, MIN_PTS, 2, &flat(&pts));

    // Three corruption shapes, same expectation: the valid prefix survives,
    // the daemon starts, and a `journal_truncated` event is logged.
    let cases: Vec<(&str, Vec<u8>, u64)> = vec![
        (
            "bitflip",
            {
                // Flip a byte inside the second record's body.
                let mut log = [rec1.clone(), rec2.clone()].concat();
                let off = rec1.len() + rec2.len() / 2;
                log[off] ^= 0x40;
                log
            },
            1,
        ),
        (
            "torn",
            // The second record stops halfway through: a mid-write crash.
            [rec1.clone(), rec2[..rec2.len() / 2].to_vec()].concat(),
            1,
        ),
        (
            "garbage",
            // Both records intact, then non-record bytes to the end.
            [
                rec1.clone(),
                rec2.clone(),
                b"!!not a journal record!!".to_vec(),
            ]
            .concat(),
            2,
        ),
    ];

    for (tag, log, want_recovered) in cases {
        let dir = scratch(tag);
        std::fs::write(dir.join(JOURNAL_FILE), &log).expect("write journal");
        let (handle, mut client) = journaled_server(&dir, |_| {});
        assert_eq!(
            stat_of(&mut client, "recovered_jobs"),
            want_recovered,
            "case {tag}: wrong number of jobs survived the corrupt tail"
        );
        // Drain the replays so shutdown is quick.
        for id in 1..=want_recovered {
            let r = client.call(&result_req(id)).expect("replayed result");
            assert_eq!(
                r.get("state").and_then(Value::as_str),
                Some("done"),
                "case {tag}: replayed job {id} failed: {r:?}"
            );
        }
        handle.shutdown();
        handle.wait();
        let server_log = std::fs::read_to_string(dir.join("server.log")).unwrap_or_default();
        assert!(
            server_log.contains("journal_truncated"),
            "case {tag}: expected a journal_truncated event in the log"
        );
        // The truncation was physical and the deliveries minted durable
        // tombstones: a second restart has nothing left to replay.
        let (handle, mut client) = journaled_server(&dir, |_| {});
        assert_eq!(stat_of(&mut client, "recovered_jobs"), 0, "case {tag}");
        for id in 1..=want_recovered {
            let r = client.call(&result_req(id)).expect("post-delivery lookup");
            assert_eq!(
                r.get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Value::as_str),
                Some("unknown_job"),
                "case {tag}: delivered job {id} must not re-run: {r:?}"
            );
        }
        handle.shutdown();
        handle.wait();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn compaction_bounds_the_log_and_leaves_nothing_to_recover() {
    let _g = lock();
    let dir = scratch("compact");
    let pts = blob_points(400, 0xfeed);

    // Tiny trigger: every tombstone past ~8 KiB compacts the log.
    let (handle, mut client) = journaled_server(&dir, |cfg| {
        cfg.journal.as_mut().unwrap().compact_bytes = 8 << 10;
    });
    for _ in 0..6 {
        let job = submit_ok(&mut client, &submit_req(&pts, EPS, MIN_PTS, vec![]));
        let r = client.call(&result_req(job)).expect("result");
        assert_eq!(
            r.get("state").and_then(Value::as_str),
            Some("done"),
            "{r:?}"
        );
    }
    let health = client.call(&verb("health")).expect("health");
    let jstat = |k: &str| {
        health
            .get("stats")
            .and_then(|s| s.get("journal"))
            .and_then(|j| j.get(k))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    assert!(
        jstat("compactions") >= 1,
        "the tiny trigger must have compacted"
    );
    assert_eq!(jstat("live_jobs"), 0, "everything was delivered");
    assert!(
        jstat("bytes") <= 8 << 10,
        "log stayed above the compaction trigger at quiescence: {} bytes",
        jstat("bytes")
    );
    handle.shutdown();
    handle.wait();

    let disk = std::fs::metadata(dir.join(JOURNAL_FILE))
        .expect("journal exists")
        .len();
    assert!(
        disk <= 8 << 10,
        "on-disk journal is {disk} bytes, above the trigger"
    );

    // A restart on the compacted journal has nothing to replay.
    let (handle, mut client) = journaled_server(&dir, |_| {});
    assert_eq!(stat_of(&mut client, "recovered_jobs"), 0);
    handle.shutdown();
    handle.wait();
    assert_daemon_threads_gone();
    let _ = std::fs::remove_dir_all(&dir);
}
