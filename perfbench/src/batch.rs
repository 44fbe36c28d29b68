//! `batch-ss5d`: the library in-process, no daemon. Each round generates a
//! fresh n = 500 000 SS5D dataset and clusters it with sequential exact,
//! ρ-approximate and exact on a 2-thread worker pool, in rotating order.

use crate::data::{mix, ss_dataset, Stream};
use crate::library::{Library, THREADS};
use crate::report::Outcome;
use crate::summary::{median, quantile};
use crate::trace::Tracer;
use crate::{host, RunArgs, SETUP_REPEATS};
use dbscan_core::WorkerPool;
use dbscan_geom::Point;
use dbscan_server::json::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const N: usize = 500_000;
pub const D: usize = 5;
/// Warm-up dataset size: large enough to fault in every code path, small
/// enough that set-up stays well under a second.
const WARM_N: usize = 50_000;
/// At least this many rounds, however short `--seconds` is.
const MIN_ROUNDS: u64 = 3;

/// One set-up: a fresh worker pool plus a warm-up round of every
/// algorithm; its time goes to `times`.
fn set_up(warm: &[Point<D>], traced: bool, out: &mut Outcome, times: &mut Vec<f64>) -> Library {
    let t = Instant::now();
    let mut lib = Library::new(Arc::new(WorkerPool::new(THREADS)), traced);
    if let Err(e) = lib.round(warm, 0, &Tracer::new(false), 0) {
        out.wrong(format!("warm-up: {e}"));
    }
    times.push(t.elapsed().as_secs_f64());
    lib
}

pub fn run(args: &RunArgs, tracer: &Tracer, out: &mut Outcome) {
    // The first set-up serves the rounds. The others are timed between
    // rounds, evenly spread over the run, so that their median sees the
    // host throughout it.
    let warm = ss_dataset::<D>(WARM_N, mix(args.seed, Stream::Warmup, 0));
    let mut setup_s = Vec::new();
    let pool = set_up(&warm, tracer.enabled(), out, &mut setup_s).pool();
    let mut lib = Library::new(pool, tracer.enabled());

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut probe = host::Probe::default();
    let mut probes = Vec::new();
    let mut round = 0u64;
    while round < MIN_ROUNDS || start.elapsed() < budget {
        let pts = ss_dataset::<D>(N, mix(args.seed, Stream::Timed, round));
        probes.push(probe.ms());
        out.attempted += 3;
        if let Err(e) = lib.round(&pts, round as usize, tracer, round) {
            out.wrong(format!("round {round}: {e}"));
        }
        probes.push(probe.ms());
        round += 1;
        let due = budget * setup_s.len() as u32 / SETUP_REPEATS as u32;
        if setup_s.len() < SETUP_REPEATS && start.elapsed() >= due {
            set_up(&warm, tracer.enabled(), out, &mut setup_s);
        }
    }
    while setup_s.len() < SETUP_REPEATS {
        set_up(&warm, tracer.enabled(), out, &mut setup_s);
    }
    out.set("setup_wall_s", median(&setup_s));

    lib.report_end_to_end(out);
    let jobs = lib.call_ms();
    out.set("job_p50_ms", median(&jobs));
    out.set("job_p90_ms", quantile(&jobs, 0.9));
    out.set("jobs_per_s", lib.calls() as f64 / lib.busy_s());
    out.set("host.probe_ms", median(&probes));
    out.note("rounds", Value::Num(round as f64));
    out.note("jobs", Value::Num(jobs.len() as f64));
    if tracer.enabled() {
        lib.report_layers(out);
    }
}
