//! Integration tests for deadline-aware execution: graceful degradation
//! (Sandwich-Theorem validity), partial-result consistency, abort hygiene,
//! bounded cancellation latency, and the stall watchdog.

use dbscan_core::algorithms::{cluster, grid_exact, Algorithm, BcpStrategy, Spec};
use dbscan_core::parallel::ParConfig;
use dbscan_core::{
    Assignment, Clustering, DbscanError, DbscanParams, DeadlineConfig, DeadlineOutcome,
    DeadlinePolicy, DeadlineReport, NoStats, RecoveryPolicy, ResourceLimits, RunCtl, StatsSink,
};
use dbscan_geom::point::p2;
use dbscan_geom::Point;
use std::time::Duration;

fn params(eps: f64, min_pts: usize) -> DbscanParams {
    DbscanParams::new(eps, min_pts).unwrap()
}

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

fn deadline(budget: Duration, policy: DeadlinePolicy) -> DeadlineConfig {
    DeadlineConfig {
        budget: Some(budget),
        policy,
        degrade_rho: 0.05,
        stall_timeout: None,
    }
}

/// An exact run on `config`'s pool under `dl`, with its deadline report.
fn exact_run<S: StatsSink>(
    pts: &[Point<2>],
    p: DbscanParams,
    config: &ParConfig,
    dl: &DeadlineConfig,
    stats: &S,
) -> Result<(Clustering, DeadlineReport), DbscanError> {
    let ctl = RunCtl::new(dl);
    let spec = Spec {
        algorithm: Algorithm::Exact(BcpStrategy::TreeAssisted),
        params: p,
        exec: config.clone(),
    };
    cluster(pts, None, &spec, stats, &ctl).map(|c| (c, ctl.report()))
}

/// A sequential exact run under `dl`, with its deadline report.
fn seq_run(
    pts: &[Point<2>],
    p: DbscanParams,
    dl: &DeadlineConfig,
) -> Result<(Clustering, DeadlineReport), DbscanError> {
    exact_run(pts, p, &par_config(1), dl, &NoStats)
}

/// A parallel exact run on `config`'s pool under `dl`, with its deadline
/// report.
fn par_run(
    pts: &[Point<2>],
    p: DbscanParams,
    config: &ParConfig,
    dl: &DeadlineConfig,
) -> Result<(Clustering, DeadlineReport), DbscanError> {
    exact_run(pts, p, config, dl, &NoStats)
}

fn par_config(threads: usize) -> ParConfig {
    ParConfig {
        threads: Some(threads),
        recovery: RecoveryPolicy::Fail,
        limits: ResourceLimits::UNLIMITED,
        ..ParConfig::default()
    }
}

/// Assert that `a`'s clusters refine `b`'s on core points: every core point
/// of `a` is core in `b`, and two core points sharing a cluster in `a` share
/// one in `b`. This is the containment direction of the Sandwich Theorem
/// restricted to core points (where cluster membership is unique).
fn assert_core_refines(a: &Clustering, b: &Clustering, what: &str) {
    let mut map: Vec<Option<u32>> = vec![None; a.num_clusters];
    for (i, ass) in a.assignments.iter().enumerate() {
        if let Assignment::Core(ca) = ass {
            let Assignment::Core(cb) = &b.assignments[i] else {
                panic!("{what}: point {i} is core on the finer side but not the coarser");
            };
            match map[*ca as usize] {
                None => map[*ca as usize] = Some(*cb),
                Some(prev) => assert_eq!(
                    prev, *cb,
                    "{what}: cluster {ca} split across coarser clusters at point {i}"
                ),
            }
        }
    }
}

#[test]
fn zero_budget_degrade_is_deterministic_and_identical_across_paths() {
    let pts = lcg_points(2_000, 30.0, 11);
    let p = params(1.0, 4);
    let dl = deadline(Duration::ZERO, DeadlinePolicy::Degrade);

    let run_seq = || seq_run(&pts, p, &dl).unwrap();
    let (first, rep1) = run_seq();
    let (second, rep2) = run_seq();
    assert_eq!(rep1.outcome, DeadlineOutcome::Degraded);
    assert_eq!(rep2.outcome, DeadlineOutcome::Degraded);
    assert!(rep1.degraded_edges > 0, "{rep1}");
    assert!(rep1.complete && rep2.complete);
    // Every edge went through the deterministic approximate path, so two
    // runs at the same budget point agree bit-for-bit.
    assert_eq!(first.assignments, second.assignments);
    assert_eq!(first.num_clusters, second.num_clusters);

    // The parallel edge phase answers the same deterministic predicate per
    // pair (skipped pairs are already-connected), so it lands on the same
    // clustering as the sequential degraded run.
    for threads in [2, 4] {
        let (par, rep) = par_run(&pts, p, &par_config(threads), &dl).unwrap();
        assert_eq!(rep.outcome, DeadlineOutcome::Degraded);
        assert!(rep.degraded_edges > 0);
        assert_eq!(par.assignments, first.assignments, "threads={threads}");
    }
}

#[test]
fn degraded_runs_stay_inside_the_sandwich() {
    let pts = lcg_points(2_000, 25.0, 3);
    let p = params(1.2, 4);
    let rho = 0.05;
    let inner = grid_exact(&pts, p);
    let outer = grid_exact(&pts, p.inflate(rho));

    // A spread of budget points: all-degraded (zero) through mixed
    // exact/degraded prefixes. Where the trip lands is timing-dependent;
    // the sandwich must hold at every mix.
    for budget_us in [0u64, 50, 200, 1_000, 5_000] {
        let (got, report) = seq_run(
            &pts,
            p,
            &deadline(Duration::from_micros(budget_us), DeadlinePolicy::Degrade),
        )
        .unwrap();
        assert!(report.complete, "degrade never truncates: {report}");
        // Labeling stays exact under degrade, so the core set matches the
        // exact run's point for point.
        for (i, a) in inner.assignments.iter().enumerate() {
            assert_eq!(
                a.is_core(),
                got.assignments[i].is_core(),
                "budget={budget_us}us point={i}"
            );
        }
        assert_core_refines(&inner, &got, "inner ⊑ degraded");
        assert_core_refines(&got, &outer, "degraded ⊑ outer");
    }
}

#[test]
fn partial_results_are_subset_consistent_prefixes() {
    let pts = lcg_points(2_000, 25.0, 5);
    let p = params(1.2, 4);
    let full = grid_exact(&pts, p);

    for budget_us in [0u64, 100, 500, 2_000] {
        let (got, report) = seq_run(
            &pts,
            p,
            &deadline(Duration::from_micros(budget_us), DeadlinePolicy::Partial),
        )
        .unwrap();
        if report.outcome == DeadlineOutcome::Exact {
            // The run finished without observing the trip; it must be the
            // exact answer.
            assert_eq!(got.assignments, full.assignments);
            continue;
        }
        assert_eq!(report.outcome, DeadlineOutcome::Partial);
        assert!(!report.complete);
        // Prefix property: every core point of the partial run is core in
        // the full run, and partial co-membership implies full
        // co-membership (the partial union-find holds a subset of the
        // full run's unions).
        assert_core_refines(&got, &full, "partial ⊑ full");
        // A partial border point is within ε of a discovered core point,
        // so the full run cannot call it noise.
        for (i, a) in got.assignments.iter().enumerate() {
            if a.is_border() {
                assert!(
                    !full.assignments[i].is_noise(),
                    "budget={budget_us}us point={i} is border in partial but noise in full"
                );
            }
        }
    }

    // Zero budget with Partial must still produce a structurally valid
    // clustering (validated ids, non-empty border lists).
    let (zero, report) =
        seq_run(&pts, p, &deadline(Duration::ZERO, DeadlinePolicy::Partial)).unwrap();
    assert_eq!(report.outcome, DeadlineOutcome::Partial);
    assert!(zero.validate().is_ok(), "{:?}", zero.validate());
}

#[test]
fn abort_surfaces_typed_error_and_leaks_no_threads() {
    let pts = lcg_points(4_000, 40.0, 9);
    let p = params(1.0, 4);
    let dl = deadline(Duration::ZERO, DeadlinePolicy::Abort);

    // Sequential: the first checkpoint observes the trip in the labeling
    // stage.
    let err = seq_run(&pts, p, &dl).unwrap_err();
    match &err {
        DbscanError::DeadlineExceeded { phase, .. } => assert_eq!(*phase, "labeling"),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // Parallel: same typed error. Workers now live on the persistent shared
    // pool (parked, not torn down — see `dbscan_core::WorkerPool`), so the
    // hygiene invariant is *no growth across calls*: after a first call has
    // warmed the pool for this thread count, repeated aborting calls must
    // leave the process thread count exactly where it was.
    let start = std::time::Instant::now();
    let err = par_run(&pts, p, &par_config(4), &dl).unwrap_err();
    assert!(
        matches!(err, DbscanError::DeadlineExceeded { .. }),
        "got {err:?}"
    );
    // An impossible budget must terminate promptly — well inside budget +
    // cancellation-latency bound, generously padded for CI jitter.
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "abort took {:?}",
        start.elapsed()
    );
    // Tests in this binary run concurrently and share the process-wide
    // pools, which live as long as the process. Warm every pool size they
    // use (2 and 4 threads) first, so none is spawned inside the window.
    par_run(&pts, p, &par_config(2), &dl).unwrap_err();
    let baseline = worker_thread_count();
    for _ in 0..5 {
        let err = par_run(&pts, p, &par_config(4), &dl).unwrap_err();
        assert!(matches!(err, DbscanError::DeadlineExceeded { .. }));
    }
    // A private pool another test drops is joined, not leaked: give such
    // threads a few seconds to exit before calling the growth a leak.
    let give_up = std::time::Instant::now() + Duration::from_secs(5);
    let mut now = worker_thread_count();
    while now > baseline && std::time::Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(20));
        now = worker_thread_count();
    }
    assert!(
        now <= baseline,
        "leaked worker threads: {baseline} -> {now}"
    );
}

/// Live pool workers in this process: the threads whose name (`comm`)
/// starts with `dbscan-worker`. The test harness's own threads come and go
/// with the tests running beside this one, so they are not counted.
fn worker_thread_count() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm"))
                .is_ok_and(|name| name.starts_with("dbscan-worker"))
        })
        .count()
}

/// The stall watchdog: a worker held up by an injected steal delay far past
/// `stall_timeout` is reported as a failure of its stage and escalates to the
/// run's recovery policy, exactly like a panic.
#[cfg(feature = "fault-injection")]
#[test]
fn stall_watchdog_poisons_the_run_and_recovery_reruns_it() {
    use dbscan_core::{Counter, FaultPlan, Stats};

    let pts = lcg_points(4_000, 40.0, 21);
    let p = params(1.0, 4);
    let dl = DeadlineConfig {
        stall_timeout: Some(Duration::from_millis(20)),
        ..DeadlineConfig::default()
    };
    let stalling = |recovery| {
        let mut config = par_config(4);
        config.recovery = recovery;
        // Every stolen claim sleeps 10x the threshold before it runs.
        config.faults = FaultPlan::new(3).with_steal_delay_micros(200_000);
        config
    };

    let config = stalling(RecoveryPolicy::Fail);
    match par_run(&pts, p, &config, &dl) {
        Err(DbscanError::WorkerPanicked {
            payload,
            panic_count,
            ..
        }) => {
            assert!(payload.contains("stall watchdog"), "{payload}");
            assert_eq!(panic_count, 1);
        }
        other => panic!("expected the watchdog to poison the run, got {other:?}"),
    }

    let config = stalling(RecoveryPolicy::FallbackSequential);
    let stats = Stats::new();
    let (got, _) = exact_run(&pts, p, &config, &dl, &stats).unwrap();
    assert_eq!(got.assignments, grid_exact(&pts, p).assignments);
    assert_eq!(stats.report().counter(Counter::SequentialFallbacks), 1);
}

/// Cancellation latency stays bounded even when workers are slowed by
/// injected steal delays: the first checkpoint past the budget edge records
/// how far past it the run actually noticed.
#[cfg(feature = "fault-injection")]
#[test]
fn cancel_latency_is_bounded_under_injected_steal_delays() {
    use dbscan_core::FaultPlan;

    let pts = lcg_points(4_000, 40.0, 13);
    let p = params(1.0, 4);
    let dl = deadline(Duration::from_micros(200), DeadlinePolicy::Partial);
    let mut config = par_config(4);
    config.faults = FaultPlan::new(5).with_steal_delay_micros(2_000);
    let (_, report) = par_run(&pts, p, &config, &dl).unwrap();
    // The budget certainly trips on this input; the observed overshoot must
    // stay within one task plus the injected delay, padded generously.
    assert!(
        report.cancel_latency_ns < 500_000_000,
        "cancel latency {}ns out of bounds ({report})",
        report.cancel_latency_ns
    );
}
