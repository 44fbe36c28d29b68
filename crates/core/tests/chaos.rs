//! Chaos tests: deterministic fault injection into the parallel pipeline.
//!
//! Compiled only with `--features fault-injection`; without the feature the
//! [`FaultPlan`] hooks are no-ops and these scenarios cannot fire.
#![cfg(feature = "fault-injection")]

use dbscan_core::algorithms::{cluster, grid_exact, rho_approx, Algorithm, ApproxOracle, Spec};
use dbscan_core::parallel::{try_grid_exact_par_instrumented, ParConfig};
use dbscan_core::{
    Clustering, Counter, DbscanError, DbscanParams, FaultPlan, FaultSite, RecoveryPolicy,
    ResourceLimits, RunCtl, Stats,
};
use dbscan_geom::point::p2;
use dbscan_geom::Point;

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

/// A dataset whose grid spans far more than 2×4 cells, so the parallel
/// labeling path (and hence every fault site) actually engages at 4 threads.
fn dataset() -> Vec<Point<2>> {
    lcg_points(2_000, 30.0, 7)
}

fn config(recovery: RecoveryPolicy, faults: FaultPlan) -> ParConfig {
    ParConfig {
        threads: Some(4),
        recovery,
        limits: ResourceLimits::UNLIMITED,
        faults,
        ..ParConfig::default()
    }
}

/// The ρ-approximate algorithm under `exec`.
fn run_approx(
    pts: &[Point<2>],
    p: DbscanParams,
    rho: f64,
    exec: ParConfig,
    stats: &Stats,
) -> Result<Clustering, DbscanError> {
    let spec = Spec {
        algorithm: Algorithm::Approx {
            rho,
            oracle: ApproxOracle::ProbeFirst,
        },
        params: p,
        exec,
    };
    cluster(pts, None, &spec, stats, &RunCtl::unlimited())
}

#[test]
fn edge_phase_panic_under_fail_policy_surfaces_worker_panicked() {
    let pts = dataset();
    let p = params(1.0, 4);
    let faults = FaultPlan::new(42).with_panic(FaultSite::EdgeTests, 1.0);
    let stats = Stats::new();
    let err =
        try_grid_exact_par_instrumented(&pts, p, &config(RecoveryPolicy::Fail, faults), &stats)
            .unwrap_err();
    match err {
        DbscanError::WorkerPanicked { phase, payload, .. } => {
            assert_eq!(phase, "edge_tests");
            assert!(payload.contains("injected fault"), "payload: {payload}");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    assert!(stats.report().counter(Counter::WorkerPanics) >= 1);
    assert_eq!(stats.report().counter(Counter::SequentialFallbacks), 0);
}

#[test]
fn fallback_sequential_is_bit_identical_to_unfaulted_sequential_run() {
    let pts = dataset();
    let p = params(1.0, 4);
    let seq = grid_exact(&pts, p);
    let faults = FaultPlan::new(42).with_panic(FaultSite::EdgeTests, 1.0);
    let stats = Stats::new();
    let out = try_grid_exact_par_instrumented(
        &pts,
        p,
        &config(RecoveryPolicy::FallbackSequential, faults),
        &stats,
    )
    .expect("fallback must absorb the injected panic");
    assert_eq!(out.assignments, seq.assignments);
    assert_eq!(out.num_clusters, seq.num_clusters);
    let report = stats.report();
    assert!(report.counter(Counter::WorkerPanics) >= 1);
    assert_eq!(report.counter(Counter::SequentialFallbacks), 1);
}

#[test]
fn labeling_phase_faults_are_isolated_too() {
    let pts = dataset();
    let p = params(1.0, 4);
    let faults = FaultPlan::new(7).with_panic(FaultSite::Labeling, 1.0);
    let err = try_grid_exact_par_instrumented(
        &pts,
        p,
        &config(RecoveryPolicy::Fail, faults.clone()),
        &Stats::new(),
    )
    .unwrap_err();
    assert!(
        matches!(&err, DbscanError::WorkerPanicked { phase, .. } if phase == "labeling"),
        "unexpected error: {err:?}"
    );
    let seq = grid_exact(&pts, p);
    let recovered = try_grid_exact_par_instrumented(
        &pts,
        p,
        &config(RecoveryPolicy::FallbackSequential, faults),
        &Stats::new(),
    )
    .unwrap();
    assert_eq!(recovered.assignments, seq.assignments);
}

#[test]
fn rho_approx_par_recovers_identically() {
    let pts = dataset();
    let p = params(1.0, 4);
    let rho = 0.01;
    let seq = rho_approx(&pts, p, rho);
    let faults = FaultPlan::new(99).with_panic(FaultSite::EdgeTests, 1.0);
    let stats = Stats::new();
    let exec = config(RecoveryPolicy::FallbackSequential, faults);
    let out = run_approx(&pts, p, rho, exec, &stats).unwrap();
    assert_eq!(out.assignments, seq.assignments);
    assert_eq!(stats.report().counter(Counter::SequentialFallbacks), 1);

    // Under Fail the same plan surfaces the typed error instead.
    let faults = FaultPlan::new(99).with_panic(FaultSite::EdgeTests, 1.0);
    let exec = config(RecoveryPolicy::Fail, faults);
    let err = run_approx(&pts, p, rho, exec, &Stats::new()).unwrap_err();
    assert!(
        matches!(&err, DbscanError::WorkerPanicked { phase, .. } if phase == "edge_tests"),
        "unexpected error: {err:?}"
    );
}

#[test]
fn partial_probability_panics_are_seed_deterministic() {
    let pts = dataset();
    let p = params(1.0, 4);
    // With probability 0.25 per edge task and hundreds of core cells, some
    // task panics with near certainty — and which tasks are doomed is a pure
    // function of (seed, site, task), so two runs agree on the outcome class.
    let plan = || FaultPlan::new(1234).with_panic(FaultSite::EdgeTests, 0.25);
    let first = try_grid_exact_par_instrumented(
        &pts,
        p,
        &config(RecoveryPolicy::Fail, plan()),
        &Stats::new(),
    );
    let second = try_grid_exact_par_instrumented(
        &pts,
        p,
        &config(RecoveryPolicy::Fail, plan()),
        &Stats::new(),
    );
    assert!(first.is_err() && second.is_err());
}

#[test]
fn steal_delays_alone_do_not_change_the_result() {
    let pts = dataset();
    let p = params(1.0, 4);
    let seq = grid_exact(&pts, p);
    let faults = FaultPlan::new(5).with_steal_delay_micros(50);
    let stats = Stats::new();
    let out =
        try_grid_exact_par_instrumented(&pts, p, &config(RecoveryPolicy::Fail, faults), &stats)
            .expect("delays are not failures");
    assert_eq!(out.assignments, seq.assignments);
    assert_eq!(stats.report().counter(Counter::WorkerPanics), 0);
    assert_eq!(stats.report().counter(Counter::SequentialFallbacks), 0);
}

#[test]
fn grid_build_panics_follow_the_recovery_policy() {
    let pts = dataset();
    let p = params(1.0, 4);
    let seq = grid_exact(&pts, p);
    let faults = FaultPlan::new(3).with_panic(FaultSite::Grid, 1.0);
    let stats = Stats::new();
    let err = try_grid_exact_par_instrumented(
        &pts,
        p,
        &config(RecoveryPolicy::Fail, faults.clone()),
        &stats,
    )
    .unwrap_err();
    match &err {
        DbscanError::WorkerPanicked { phase, payload, .. } => {
            assert_eq!(phase, "grid_build");
            assert!(
                payload.contains("injected fault: grid"),
                "payload: {payload}"
            );
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    assert!(stats.report().counter(Counter::WorkerPanics) >= 1);

    // Under fallback-sequential the rerun is bit-identical to the unfaulted
    // sequential run, for both grid algorithms.
    let stats = Stats::new();
    let out = try_grid_exact_par_instrumented(
        &pts,
        p,
        &config(RecoveryPolicy::FallbackSequential, faults.clone()),
        &stats,
    )
    .expect("fallback must absorb the grid-build panic");
    assert_eq!(out.assignments, seq.assignments);
    assert_eq!(out.num_clusters, seq.num_clusters);
    assert_eq!(stats.report().counter(Counter::SequentialFallbacks), 1);
    let rho = 0.01;
    let exec = config(RecoveryPolicy::FallbackSequential, faults.clone());
    let out = run_approx(&pts, p, rho, exec, &Stats::new()).unwrap();
    assert_eq!(out.assignments, rho_approx(&pts, p, rho).assignments);

    // A sequential run is the one-thread pool, so its grid tasks are fault
    // sites too.
    let mut one = config(RecoveryPolicy::Fail, faults);
    one.threads = Some(1);
    let err = try_grid_exact_par_instrumented(&pts, p, &one, &Stats::new()).unwrap_err();
    assert!(
        matches!(&err, DbscanError::WorkerPanicked { phase, .. } if phase == "grid_build"),
        "unexpected error: {err:?}"
    );
}
