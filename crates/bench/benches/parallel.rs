//! Scaling of the multi-threaded variants (`dbscan_core::parallel`) against
//! their sequential counterparts — an extension beyond the paper (its
//! implementation was single-threaded), exercising the observation that all
//! phases except the final union-find are embarrassingly parallel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbscan_bench::config::{DEFAULT_EPS, DEFAULT_RHO};
use dbscan_bench::datasets::spreader_points;
use dbscan_bench::{approx, run_on, EXACT};
use dbscan_core::algorithms::{grid_exact, rho_approx};
use dbscan_core::{DbscanParams, NoStats};
use std::hint::black_box;

fn bench_parallel(c: &mut Criterion) {
    let pts = spreader_points::<5>(50_000);
    let params = DbscanParams::new(DEFAULT_EPS, 20).unwrap();

    let mut group = c.benchmark_group("parallel_exact");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(grid_exact(&pts, params)))
    });
    for threads in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &t| {
            b.iter(|| black_box(run_on(&pts, EXACT, params, Some(t), &NoStats)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("parallel_approx");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(rho_approx(&pts, params, DEFAULT_RHO)))
    });
    for threads in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &t| {
            b.iter(|| black_box(run_on(&pts, approx(DEFAULT_RHO), params, Some(t), &NoStats)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
