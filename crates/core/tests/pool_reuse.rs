//! Persistent worker-pool properties: the park/unpark epoch protocol cannot
//! miss a wakeup, and one pool handle serves many clustering runs without
//! spawning a single additional thread.

use dbscan_core::algorithms::grid_exact;
use dbscan_core::parallel::{try_grid_exact_par_instrumented, ParConfig};
use dbscan_core::{RecoveryPolicy, ResourceLimits, Stats, WorkerPool};
use dbscan_geom::point::p2;
use dbscan_geom::Point;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn lcg_points(n: usize, span: f64, seed: u64) -> Vec<Point<2>> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64 * span
    };
    (0..n).map(|_| p2(next(), next())).collect()
}

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(1, |d| d.count())
}

/// Interleaving check for the phase-handoff protocol, in the style of the
/// `WorkQueue::close` spin harness: phases are submitted back-to-back with no
/// gap, so the coordinator's epoch bump races the workers' re-park (the
/// coordinator is released from the completion barrier while workers are
/// still on their way back to the condvar wait). A missed wakeup would leave
/// `remaining > 0` forever and hang the barrier — the rounds run on a helper
/// thread and the test fails via `recv_timeout` instead of wedging the suite.
///
/// Uneven spin bodies stagger the workers, so every round some workers are
/// parking (or already parked) while the next phase is submitted — exactly
/// the window the under-mutex epoch check must cover.
#[test]
fn no_missed_wakeup_when_phase_submitted_while_parking() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let pool = WorkerPool::new(4);
        let calls: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        for round in 0..500u64 {
            pool.run_phase(&|w| {
                // Worker-dependent spin: finish times diverge, so the fast
                // workers park while the slow ones still hold the phase open.
                for _ in 0..(w as u64 * 50 * (round % 3)) {
                    std::hint::spin_loop();
                }
                calls[w].fetch_add(1, Ordering::Relaxed);
            });
        }
        let counts: Vec<u64> = calls.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        tx.send(counts).unwrap();
    });
    let counts = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("phase handoff hung: a parking worker missed an epoch wakeup");
    assert_eq!(counts, vec![500; 4], "every worker runs every phase once");
}

/// One pool, ten consecutive clustering runs: labels stay bit-identical to
/// the sequential result on every run, and the process thread count after the
/// first (pool-spawning) run never grows again — phases park and reuse the
/// same workers instead of respawning. With `fault-injection` enabled, run 5
/// is a chaos run whose injected edge-phase panic falls back to the
/// sequential path mid-sequence; the pool must absorb that too and keep
/// serving the remaining runs from the same threads.
#[test]
fn ten_runs_on_one_pool_are_bit_identical_with_zero_thread_growth() {
    let pts = lcg_points(2_000, 30.0, 7);
    let p = dbscan_core::DbscanParams::new(1.0, 4).unwrap();
    let seq = grid_exact(&pts, p);

    let pool = Arc::new(WorkerPool::new(4));
    let config = ParConfig {
        pool: Some(Arc::clone(&pool)),
        limits: ResourceLimits::UNLIMITED,
        recovery: RecoveryPolicy::FallbackSequential,
        ..ParConfig::default()
    };

    // Run 0 warms nothing extra: the explicit pool spawned at construction.
    let baseline = thread_count();
    for run in 0..10 {
        #[cfg(feature = "fault-injection")]
        let config = {
            let mut c = config.clone();
            if run == 5 {
                // Kill every edge task: the attempt poisons, the driver falls
                // back sequentially, and the result must still be identical.
                c.faults = dbscan_core::FaultPlan::new(42)
                    .with_panic(dbscan_core::FaultSite::EdgeTests, 1.0);
            }
            c
        };
        let stats = Stats::new();
        let out = try_grid_exact_par_instrumented(&pts, p, &config, &stats)
            .unwrap_or_else(|e| panic!("run {run}: {e}"));
        assert_eq!(
            out.assignments, seq.assignments,
            "run {run}: labels must be bit-identical to sequential"
        );
        #[cfg(feature = "fault-injection")]
        if run == 5 {
            use dbscan_core::Counter;
            assert_eq!(
                stats.report().counter(Counter::SequentialFallbacks),
                1,
                "run 5 must have taken the fallback path"
            );
        }
        let now = thread_count();
        assert!(
            now <= baseline,
            "run {run}: thread count grew {baseline} -> {now} (pool must reuse, not respawn)"
        );
    }
    drop(config);
    drop(pool);
}
