//! The grid pipeline shared by the paper's three grid algorithms, on a
//! [`WorkerPool`] of any size.
//!
//! Gunawan's 2D algorithm, the exact algorithm (Section 3.2) and the
//! ρ-approximate algorithm (Section 4.4) decompose into per-cell work
//! (labeling, border assignment) and per-pair work (the ε-neighbor edge tests
//! of the core-cell graph `G`); only the edge rule differs (see
//! [`crate::cells`]). Every stage runs here as tasks claimed from a
//! [`WorkQueue`] — a std-only self-scheduling task list, heaviest task first
//! (see [`crate::scheduler`]). A *sequential* run is the same pipeline on a
//! one-thread pool: [`WorkerPool::global`]`(1)` spawns no thread and runs each
//! stage inline on the caller. A single claimant drains the per-cell queues
//! (labeling, border assignment) in natural cell order, where the order
//! changes nothing but memory locality, and the edge queue heaviest-first,
//! as every pool does: that order decides which candidate pairs the live
//! union-find lets the stage skip (see `Graph::connect`). So a sequential and a
//! parallel [`cluster`] run differ only in the pool their [`Spec`]'s
//! [`ParConfig`] hands the pipeline.
//!
//! The edge phase is *fused*: one barrier-free stage performs lazy per-cell
//! structure builds (kd-trees / Lemma 5 counters, each built at most once via
//! [`OnceLock`] by whichever worker first needs it), the pair tests, and the
//! unions — into a lock-free [`ConcurrentUnionFind`]. Because unions land in
//! a structure every worker can read *live*, workers skip candidate pairs
//! whose cells are already joined ([`Counter::EdgeTestsSkipped`]).
//!
//! Results are bit-identical across thread counts: the edge predicates are
//! deterministic, a skipped pair is by definition already connected (a
//! `same() == true` answer is definitive even mid-race), union by index makes
//! the final partition independent of thread timing, and
//! [`UnionFind::compact_labels`] assigns cluster ids by first appearance over
//! ranks, independent of forest shape.
//!
//! # Counters across thread counts
//!
//! At one thread every [`Counter`] is deterministic. At more threads the
//! candidate-pair enumeration is still identical ([`Counter::EdgeTests`]
//! agrees exactly), but [`Counter::EdgeTestsSkipped`] and everything that
//! follows from which pairs were skipped (decision, build/cache-hit and
//! query counts), [`Counter::TasksStolen`] and [`Counter::UfCasRetries`]
//! depend on thread timing.
//!
//! # Worker pool
//!
//! Every stage (the chunked grid build, labeling and its core-first
//! partition, the fused edge stage, border assignment) runs on a persistent
//! [`WorkerPool`]: workers are spawned once — lazily through
//! the process-wide [`WorkerPool::global`] cache, or explicitly via
//! [`ParConfig::pool`] for callers that manage their own handle — and parked
//! on a condvar between stages.
//!
//! An instrumented run shares one [`StatsSink`] across all worker threads
//! (its counters are relaxed atomics); workers accumulate counts in locals
//! and flush once per stage. Phase times are wall-clock
//! spans measured on the coordinating thread. The fused edge stage's span is
//! split three ways: nanoseconds the workers spent in lazy `OnceLock`
//! structure builds go to [`Phase::StructureBuild`], nanoseconds spent in
//! `cuf.union` go to [`Phase::UnionFind`], and the remainder is
//! [`Phase::EdgeTests`]. The build/union figures are *summed per-worker*
//! time, so with more than one worker they are attribution shares rather
//! than exclusive wall-clock spans; both are capped at the stage span so the
//! disjoint-phases invariant (the named phases never sum past
//! [`Phase::Total`]) holds on any core count. Task spans, steal instants and
//! heartbeats describe pool threads, so a one-thread run records none: its
//! only timeline is the caller's (lane 0), which holds the phase spans.
//!
//! # Fault isolation
//!
//! Every task a worker claims runs under [`std::panic::catch_unwind`]. A
//! panicking task poisons the run through a shared [`Poison`] latch: the
//! panicking worker records the first panic's task id and payload and stops;
//! the remaining workers observe the latch before their next claim and drain
//! cooperatively (no abort, no hang, no half-written output — stage results
//! are discarded wholesale on poison). The driver then surfaces
//! [`DbscanError::WorkerPanicked`] — or, under
//! [`RecoveryPolicy::FallbackSequential`], re-runs the same pipeline on the
//! one-thread pool with the fault plan off; it shares no state with the
//! poisoned attempt and therefore produces the exact unfaulted result. Both
//! events are visible in the stats report ([`Counter::WorkerPanics`],
//! [`Counter::SequentialFallbacks`]).
//!
//! The deterministic chaos hooks ([`FaultPlan`]) are compiled to no-ops
//! unless the `fault-injection` feature is on.
//!
//! # Deadlines and stalls
//!
//! Every stage except the two atomic ones (the grid build and the
//! core-first partition, so that a tripped budget never leaves a truncated
//! grid) is also a cooperative cancellation point: workers consult the run's
//! [`RunCtl`] before each claim, so a tripped time budget stops the whole
//! fleet within one task's worth of work (the queue is
//! closed by the first observer, which bounds how much the others can still
//! claim). Under [`DeadlinePolicy::Degrade`](crate::deadline::DeadlinePolicy)
//! the edge stage instead switches the remaining pair tests to the Lemma 5
//! approximate counters (see [`crate::deadline`] for why the mixed result is
//! still a legal ρ′-approximate clustering). On pools of more than one
//! thread a coordinator-side stall watchdog — armed by
//! [`DeadlineConfig::stall_timeout`](crate::DeadlineConfig) — watches
//! per-worker [`Heartbeats`]; a worker that stops beating past the threshold
//! emits a `stall` trace instant and poisons the run through the same latch
//! a panic uses, so stalls escalate to the existing [`RecoveryPolicy`]
//! machinery.

use crate::algorithms::{
    cluster, counter_edge_test, Algorithm, BcpStrategy, CounterSlots, EdgeRule, Spec,
};
use crate::bcp;
use crate::border::assign_border_clusters;
use crate::cells::CoreCells;
use crate::deadline::{precheck_degrade, Heartbeats, RunCtl, StageId};
use crate::error::{DbscanError, RecoveryPolicy, ResourceLimits};
use crate::faults::{FaultPlan, FaultSite};
use crate::scheduler::{Poison, WorkQueue, WorkerPool};
use crate::stats::{Counter, NoStats, Phase, StatsSink};
use crate::trace::{hist::HistKind, EventName};
use crate::types::{Assignment, Clustering, DbscanParams};
use crate::unionfind::{ConcurrentUnionFind, UnionFind};
use dbscan_geom::{Aabb, Point};
use dbscan_index::GridIndex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How a pipeline run executes (the `exec` of a [`Spec`], and
/// [`CoreCells::try_build_ctl`]): worker count or pool, what to do when a
/// worker panics, resource budgets, and the (test-only) fault-injection
/// plan. The time budget is not here: the run's [`RunCtl`] carries it.
#[derive(Clone, Debug, Default)]
pub struct ParConfig {
    /// Worker threads; `None` defers to [`resolve_threads`].
    pub threads: Option<usize>,
    /// What to do when a worker panics mid-run.
    pub recovery: RecoveryPolicy,
    /// Resource budgets enforced before index builds.
    pub limits: ResourceLimits,
    /// Deterministic fault plan; a no-op unless the `fault-injection`
    /// feature is enabled.
    pub faults: FaultPlan,
    /// Worker pool to run on. `None` (the default) shares the lazily-spawned
    /// process-wide [`WorkerPool::global`] pool for the resolved thread
    /// count; a caller that manages its own pool lifetime (e.g. a service
    /// tier pinning one pool across requests) passes a handle here, and its
    /// thread count overrides [`ParConfig::threads`].
    pub pool: Option<Arc<WorkerPool>>,
}

impl ParConfig {
    /// A config that only sets the worker count.
    pub fn with_threads(threads: Option<usize>) -> Self {
        ParConfig {
            threads,
            ..ParConfig::default()
        }
    }

    /// The config of a sequential run: the one-thread pool under `limits`.
    pub(crate) fn sequential(limits: &ResourceLimits) -> Self {
        ParConfig {
            threads: Some(1),
            limits: *limits,
            ..ParConfig::default()
        }
    }
}

/// Environment variable consulted when no explicit thread count is given.
/// Same convention as the resolved value: a positive integer is the worker
/// count, `0` means all available cores.
pub const THREADS_ENV: &str = "DBSCAN_THREADS";

/// Number of worker threads for a pipeline run whose [`ParConfig`] names no
/// pool.
///
/// Resolution order: explicit `threads` argument, then the [`THREADS_ENV`]
/// environment variable, then all available cores. `Some(0)` (or an env value
/// of `0`) also means all available cores. An env value that does not parse
/// as an integer is ignored here — front ends (the CLI) are expected to
/// validate it and reject with a diagnostic before calling in.
pub fn resolve_threads(threads: Option<usize>) -> usize {
    let requested = threads.or_else(|| {
        std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
    });
    match requested {
        // `available_parallelism` walks cgroup files on Linux — tens of
        // microseconds per call, which a pooled run pays on *every* launch.
        // The count is stable for the process lifetime, so resolve it once.
        None | Some(0) => {
            *ALL_CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        }
        Some(t) => t,
    }
}

static ALL_CORES: OnceLock<usize> = OnceLock::new();

/// The pool a run executes on: an explicit [`ParConfig::pool`] handle wins
/// (its thread count is authoritative); otherwise the process-wide shared
/// pool for the [`resolve_threads`] count.
fn resolve_pool(config: &ParConfig) -> Arc<WorkerPool> {
    config
        .pool
        .clone()
        .unwrap_or_else(|| WorkerPool::global(resolve_threads(config.threads)))
}

/// Runs `attempt` on `config`'s pool and fault plan. Under
/// [`RecoveryPolicy::FallbackSequential`] a [`DbscanError::WorkerPanicked`]
/// is absorbed by running `attempt` again on the one-thread pool with the
/// fault plan off (recorded as [`Counter::SequentialFallbacks`]). The rerun
/// shares the caller's [`RunCtl`], so whatever time budget remains carries
/// over and its stages re-declare their totals.
pub(crate) fn with_fallback<S: StatsSink, T>(
    config: &ParConfig,
    stats: &S,
    ctl: &RunCtl,
    attempt: impl Fn(&Exec<'_, S>) -> Result<T, DbscanError>,
) -> Result<T, DbscanError> {
    let exec = |pool: &WorkerPool, faults: &FaultPlan| {
        attempt(&Exec {
            pool,
            faults,
            limits: &config.limits,
            stats,
            ctl,
        })
    };
    match exec(&resolve_pool(config), &config.faults) {
        Err(DbscanError::WorkerPanicked { .. })
            if config.recovery == RecoveryPolicy::FallbackSequential =>
        {
            stats.bump(Counter::SequentialFallbacks);
            stats.trace_instant(0, EventName::SequentialFallback, [0, 0]);
            exec(&WorkerPool::global(1), &FaultPlan::default())
        }
        other => other,
    }
}

/// What every stage of one pipeline attempt shares: the pool it runs on, the
/// fault plan its tasks consult, the resource budgets, the stats sink, and
/// the run's control block.
pub(crate) struct Exec<'a, S> {
    pub(crate) pool: &'a WorkerPool,
    pub(crate) faults: &'a FaultPlan,
    pub(crate) limits: &'a ResourceLimits,
    pub(crate) stats: &'a S,
    pub(crate) ctl: &'a RunCtl,
}

/// The fixed names of one pipeline stage.
pub(crate) struct Stage {
    /// Progress slot in the run's [`RunCtl`]. A stage without one is atomic:
    /// it is no cancellation point and runs every task.
    id: Option<StageId>,
    /// Phase name reported by [`DbscanError::WorkerPanicked`].
    name: &'static str,
    site: FaultSite,
    /// Trace name of one claimed task.
    span: EventName,
}

/// The passes of the chunked grid build, one task per chunk.
const GRID: Stage = Stage {
    id: None,
    name: "grid_build",
    site: FaultSite::Grid,
    span: EventName::TaskGrid,
};
pub(crate) const LABELING: Stage = Stage {
    id: Some(StageId::Labeling),
    name: "labeling",
    site: FaultSite::Labeling,
    span: EventName::TaskLabeling,
};
/// The core-first partition that closes labeling: its verdicts must reach
/// every cell, even under a tripped budget.
const CORE_PARTITION: Stage = Stage {
    id: None,
    ..LABELING
};
const EDGES: Stage = Stage {
    id: Some(StageId::EdgeTests),
    name: "edge_tests",
    site: FaultSite::EdgeTests,
    span: EventName::TaskEdge,
};
const BORDER: Stage = Stage {
    id: Some(StageId::BorderAssign),
    name: "border_assign",
    site: FaultSite::BorderAssign,
    span: EventName::TaskBorder,
};

impl<S: StatsSink> Exec<'_, S> {
    /// Runs one stage: every worker claims tasks from `queue` until it is
    /// drained, the run is poisoned, or `ctl` says stop, and runs
    /// `task(&mut local, worker, task_id)` on each under `catch_unwind`.
    /// Each worker starts from `init()` and hands its local to
    /// `finish(worker, local)` once it stops claiming. A panicking task
    /// poisons the stage and surfaces as [`DbscanError::WorkerPanicked`];
    /// `payload(task_id)` sizes the task's trace span.
    pub(crate) fn run_tasks<L>(
        &self,
        stage: &Stage,
        queue: &WorkQueue,
        init: impl Fn() -> L + Sync,
        task: impl Fn(&mut L, usize, u32) + Sync,
        payload: impl Fn(u32) -> u64 + Sync,
        finish: impl Fn(usize, L) + Sync,
    ) -> Result<(), DbscanError> {
        let (pool, faults, stats, ctl) = (self.pool, self.faults, self.stats, self.ctl);
        let threads = pool.threads();
        let workers = threads > 1;
        let stall = ctl.stall_timeout().filter(|_| workers);
        let progress = stage.id.filter(|_| ctl.armed());
        if let Some(id) = progress {
            ctl.stage_begin(id, queue.len() as u64);
        }
        let poison = Poison::new();
        let hb = Heartbeats::new(threads);
        let body = |w: usize| {
            let mut local = init();
            let mut stolen = 0u64;
            loop {
                if poison.is_poisoned() {
                    // cooperative drain after a peer's panic
                    stats.trace_instant(w + 1, EventName::PoisonTrip, [0, 0]);
                    queue.close();
                    break;
                }
                if stage.id.is_some() && ctl.should_stop() {
                    // budget tripped: close so peers stop claiming too.
                    // Under `degrade` this never fires — the edge test flips
                    // to the approximate path instead.
                    queue.close();
                    break;
                }
                let Some(claim) = queue.claim(w) else {
                    break;
                };
                if stall.is_some() {
                    hb.beat(w);
                }
                stolen += u64::from(claim.stolen);
                if claim.stolen {
                    stats.trace_instant(w + 1, EventName::Steal, [claim.task, claim.home as u32]);
                }
                faults.maybe_steal_delay(claim.stolen);
                let t0 = if workers { stats.trace_start() } else { None };
                let res = catch_unwind(AssertUnwindSafe(|| {
                    faults.maybe_panic(stage.site, claim.task);
                    task(&mut local, w, claim.task);
                }));
                if t0.is_some() {
                    stats.trace_task_span(
                        w + 1,
                        stage.span,
                        t0,
                        claim.task,
                        payload(claim.task),
                        claim.stolen,
                        claim.home,
                    );
                }
                if let Err(payload) = res {
                    stats.trace_instant(w + 1, EventName::WorkerPanic, [claim.task, 0]);
                    poison.record(stage.name, claim.task, payload);
                    break;
                }
                if let Some(id) = progress {
                    ctl.stage_done(id, 1);
                }
            }
            hb.mark_done(w);
            if S::ENABLED {
                stats.add(Counter::TasksStolen, stolen);
            }
            finish(w, local);
        };
        match stall {
            // The watchdog is the one per-stage thread spawn, and only on
            // runs that opt into stall detection; it exits as soon as every
            // worker has marked its heartbeat done.
            Some(stall) => std::thread::scope(|s| {
                s.spawn(|| stall_watchdog(stall, &hb, &poison, queue, stage.name, stats));
                pool.run_phase(&body);
            }),
            None => pool.run_phase(&body),
        }
        check_poison(&poison, stage.name, stats)
    }

    /// Runs `task(t)` for every `t` in `0..tasks` as tasks of the atomic
    /// `stage`: the chunk runner of the grid passes.
    fn run_all(
        &self,
        stage: &Stage,
        tasks: usize,
        task: &(dyn Fn(usize) + Sync),
    ) -> Result<(), DbscanError> {
        let queue = WorkQueue::unweighted(tasks, self.pool.threads());
        self.run_tasks(
            stage,
            &queue,
            || (),
            |_, _, t| task(t as usize),
            |_| 0,
            |_, _| (),
        )
    }

    /// The side-`ε/√d` grid over `points`, built in one chunk per pool
    /// thread ([`GridIndex::try_build_chunked`]) under the run's byte budget.
    pub(crate) fn build_grid<const D: usize>(
        &self,
        points: &[Point<D>],
        eps: f64,
    ) -> Result<GridIndex<D>, DbscanError> {
        GridIndex::try_build_chunked(
            points,
            eps,
            self.limits.max_index_bytes,
            self.pool.threads(),
            |tasks, task| self.run_all(&GRID, tasks, task),
        )
    }

    /// Moves every cell's core points ahead of its other points
    /// ([`GridIndex::partition_cells`]) and returns the core count per cell.
    pub(crate) fn partition_core_first<const D: usize>(
        &self,
        grid: &mut GridIndex<D>,
        is_core: &[bool],
    ) -> Result<Vec<u32>, DbscanError> {
        grid.partition_cells(
            |p| is_core[p as usize],
            self.pool.threads(),
            |tasks, task| self.run_all(&CORE_PARTITION, tasks, task),
        )
    }
}

/// Converts a finished stage's [`Poison`] latch into the driver-level error,
/// recording the panic count ([`Counter::WorkerPanics`]) on the way out. The
/// error names every distinct phase that recorded a failure (normally just
/// this stage's, but a latch can outlive a stage in tests) and carries the
/// total failure count.
fn check_poison<S: StatsSink>(
    poison: &Poison,
    phase: &'static str,
    stats: &S,
) -> Result<(), DbscanError> {
    if let Some(summary) = poison.take_summary() {
        stats.add(Counter::WorkerPanics, summary.panic_count);
        let phases = if summary.phases.is_empty() {
            phase.to_string()
        } else {
            summary.phases
        };
        return Err(DbscanError::WorkerPanicked {
            phase: phases,
            task: summary.task,
            payload: summary.payload,
            panic_count: summary.panic_count,
        });
    }
    Ok(())
}

/// Coordinator-side stall watchdog: polls the per-worker [`Heartbeats`] at a
/// quarter of the threshold (clamped to [1ms, 25ms]) and, when some live
/// worker's last beat is older than `stall`, emits a [`EventName::Stall`]
/// trace instant, records a poison message (escalating to the run's
/// [`RecoveryPolicy`] exactly like a panic), and closes the queue so the
/// healthy workers drain promptly. It deliberately does *not* trip the
/// cancellation token: a stall is a fault, not a budget expiry, and the
/// fallback rerun should keep whatever budget remains.
fn stall_watchdog<S: StatsSink>(
    stall: Duration,
    hb: &Heartbeats,
    poison: &Poison,
    queue: &WorkQueue,
    phase: &'static str,
    stats: &S,
) {
    let poll = (stall / 4).clamp(Duration::from_millis(1), Duration::from_millis(25));
    loop {
        std::thread::sleep(poll);
        if hb.all_done() || poison.is_poisoned() || queue.is_closed() {
            return;
        }
        if let Some((w, age)) = hb.stalest_age() {
            if age >= stall {
                stats.trace_instant(
                    0,
                    EventName::Stall,
                    [w as u32, age.as_millis().min(u32::MAX as u128) as u32],
                );
                poison.record_message(
                    phase,
                    w as u32,
                    format!(
                        "stall watchdog: worker {w} made no progress for {age:?} \
                         (threshold {stall:?})"
                    ),
                );
                queue.close();
                return;
            }
        }
    }
}

/// Runs one grid algorithm end to end under `config`: core cells (built on
/// the pool, or `prebuilt`), the edge phase `edges` runs over them, then
/// border assignment — with the fallback of [`with_fallback`]. `edges`
/// receives the attempt's [`Graph`] and returns the components of `G`
/// (normally through [`Graph::connect`]). A `prebuilt` structure skips the
/// grid build and labeling (the service tier's cache fast path); it must have
/// been built over exactly `points`, or the run is refused with
/// [`DbscanError::IndexSizeMismatch`]. [`Phase::Total`] covers exactly the
/// work this call does.
pub(crate) fn run_grid<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    prebuilt: Option<&CoreCells<D>>,
    config: &ParConfig,
    stats: &S,
    ctl: &RunCtl,
    edges: impl Fn(&Graph<'_, D, S>) -> Result<UnionFind, DbscanError>,
) -> Result<Clustering, DbscanError> {
    if let Some(cells) = prebuilt {
        if cells.is_core.len() != points.len() {
            return Err(DbscanError::IndexSizeMismatch {
                index_len: cells.is_core.len(),
                points_len: points.len(),
            });
        }
    }
    precheck_degrade(points, params, ctl)?;
    with_fallback(config, stats, ctl, |exec| {
        let total = stats.now();
        let built;
        let cc = match prebuilt {
            Some(cells) => cells,
            None => {
                built = CoreCells::build_on(points, params, exec)?;
                if ctl.aborted() {
                    return Err(ctl.deadline_error(StageId::Labeling));
                }
                &built
            }
        };
        let graph = Graph::new(points, cc, exec);
        let mut uf = edges(&graph)?;
        if ctl.aborted() {
            return Err(ctl.deadline_error(StageId::EdgeTests));
        }
        let out = assemble(points, cc, &mut uf, exec)?;
        if ctl.aborted() {
            return Err(ctl.deadline_error(StageId::BorderAssign));
        }
        stats.finish(Phase::Total, total);
        Ok(out)
    })
}

/// One attempt's core-cell graph `G`, as an edge rule sees it.
pub(crate) struct Graph<'a, const D: usize, S> {
    pub(crate) points: &'a [Point<D>],
    pub(crate) cc: &'a CoreCells<D>,
    pub(crate) exec: &'a Exec<'a, S>,
    /// Nanoseconds workers spent in [`Graph::lazy`] builds, carved out of the
    /// edge stage into [`Phase::StructureBuild`].
    build_nanos: AtomicU64,
    /// Per rank, the bounding box of its core points, computed by
    /// [`Graph::settle`] the first time a pair needs it.
    boxes: Vec<OnceLock<Aabb<D>>>,
}

impl<'a, const D: usize, S: StatsSink> Graph<'a, D, S> {
    fn new(points: &'a [Point<D>], cc: &'a CoreCells<D>, exec: &'a Exec<'a, S>) -> Self {
        Graph {
            points,
            cc,
            exec,
            build_nanos: AtomicU64::new(0),
            boxes: (0..cc.num_core_cells()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// One empty structure slot per core cell, for [`Graph::lazy`].
    pub(crate) fn slots<T>(&self) -> Vec<OnceLock<T>> {
        (0..self.cc.num_core_cells())
            .map(|_| OnceLock::new())
            .collect()
    }

    /// The structure in `slot`, built by `build` on first use (by whichever
    /// worker needs it first; the others wait for it), and whether this call
    /// built it. Build time is reported as [`Phase::StructureBuild`]. The
    /// cache-hit fast path is one `OnceLock::get` load and no clock read.
    pub(crate) fn lazy<'s, T>(
        &self,
        slot: &'s OnceLock<T>,
        build: impl FnOnce() -> T,
    ) -> (&'s T, bool) {
        if let Some(v) = slot.get() {
            return (v, false);
        }
        let t0 = S::ENABLED.then(Instant::now);
        let mut built = false;
        let v = slot.get_or_init(|| {
            built = true;
            build()
        });
        if let (true, Some(t0)) = (built, t0) {
            self.build_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        (v, built)
    }

    /// The exact edge front end both edge oracles share:
    /// [`bcp::front_end`] on the core blocks of ranks `r1` and `r2`. Counts
    /// one [`Counter::BlockKernelCalls`] and, when it settles the pair, one
    /// [`Counter::BruteForceDecisions`]; `None` leaves the pair to the
    /// oracle's own structure (a kd-tree or a Lemma 5 counter).
    pub(crate) fn settle(&self, r1: usize, r2: usize) -> Option<bool> {
        let (cc, stats) = (self.cc, self.exec.stats);
        stats.bump(Counter::BlockKernelCalls);
        let (a, b) = (cc.core_block(r1), cc.core_block(r2));
        let core_box =
            |r: usize| *self.boxes[r].get_or_init(|| bcp::bounding_box(&cc.core_block(r)));
        let answer =
            bcp::front_end_with(&a, &b, cc.params.eps(), || (core_box(r1), core_box(r2))).answer();
        if answer.is_some() {
            stats.bump(Counter::BruteForceDecisions);
        }
        answer
    }

    /// The fused edge stage: workers claim core cells from a [`WorkQueue`]
    /// (weighted by [`CoreCells::edge_task_weight`], heaviest first at every
    /// thread count), run `oracle` on each candidate pair `(r1, r2)` (ranks,
    /// `r1 < r2`), and union discovered edges into a shared
    /// [`ConcurrentUnionFind`] *while testing continues* — so a pair whose
    /// cells are already connected is skipped
    /// ([`Counter::EdgeTestsSkipped`]), mirroring the "all such p have been
    /// tried" early exits of the paper's edge computations.
    ///
    /// The order is there for the skips, not for load balance: heavy cells
    /// have the most candidate pairs, so running them first joins most of
    /// `G` early and leaves the light cells' pairs to be skipped. On
    /// `batch-ss5d` a one-thread run in rank order built about three times
    /// as many kd-trees and Lemma 5 counters as one in this order.
    ///
    /// Every candidate pair counts one [`Counter::EdgeTests`] whether or not
    /// it is skipped, so the count is identical at every thread count. Once
    /// a `degrade` deadline trips, the remaining pairs go to
    /// [`degraded_edge_test_shared`] instead of `oracle`. The stage's wall
    /// span — including the final snapshot conversion to a sequential
    /// [`UnionFind`] — is split into [`Phase::StructureBuild`] (the
    /// [`Graph::lazy`] builds), [`Phase::UnionFind`] (summed `cuf.union`
    /// time), and [`Phase::EdgeTests`] (the remainder).
    pub(crate) fn connect(
        &self,
        oracle: impl Fn(usize, usize) -> bool + Sync,
    ) -> Result<UnionFind, DbscanError> {
        let (cc, stats, ctl) = (self.cc, self.exec.stats, self.exec.ctl);
        let threads = self.exec.pool.threads();
        let m = cc.num_core_cells();
        let degrade_counters = if ctl.may_degrade() {
            self.slots()
        } else {
            Vec::new()
        };
        let span = stats.now();
        let queue = WorkQueue::new((0..m).map(|r| cc.edge_task_weight(r)), threads);
        let cuf = ConcurrentUnionFind::new(m);
        let union_nanos = AtomicU64::new(0);
        #[derive(Default)]
        struct Tally {
            tests: u64,
            skipped: u64,
            edges: u64,
            retries: u64,
            unions_ns: u64,
        }
        self.exec.run_tasks(
            &EDGES,
            &queue,
            Tally::default,
            |t, w, r1| {
                let retries_before = t.retries;
                let r1 = r1 as usize;
                cc.for_candidate_partners(r1, |r2| {
                    t.tests += 1;
                    // A `true` from the concurrent structure is definitive
                    // even mid-race, so skipping can only drop a pair that
                    // is already redundant for connectivity.
                    if cuf.same(r1 as u32, r2 as u32) {
                        t.skipped += 1;
                        return;
                    }
                    let e0 = stats.trace_start();
                    let hit = if ctl.edge_degraded() {
                        degraded_edge_test_shared(self, &degrade_counters, r1, r2)
                    } else {
                        oracle(r1, r2)
                    };
                    if let Some(e0) = e0 {
                        stats.trace_hist(HistKind::EdgeTestNanos, e0.elapsed().as_nanos() as u64);
                    }
                    if hit {
                        t.edges += 1;
                        if S::ENABLED {
                            let u0 = Instant::now();
                            cuf.union(r1 as u32, r2 as u32, &mut t.retries);
                            t.unions_ns += u0.elapsed().as_nanos() as u64;
                        } else {
                            cuf.union(r1 as u32, r2 as u32, &mut t.retries);
                        }
                    }
                });
                let burst = t.retries - retries_before;
                if burst > 0 {
                    stats.trace_instant(
                        w + 1,
                        EventName::UfCasRetries,
                        [r1 as u32, burst.min(u32::MAX as u64) as u32],
                    );
                }
            },
            |r1| cc.edge_task_weight(r1 as usize),
            |_, t| {
                if S::ENABLED {
                    stats.add(Counter::EdgeTests, t.tests);
                    stats.add(Counter::EdgeTestsSkipped, t.skipped);
                    stats.add(Counter::EdgesFound, t.edges);
                    stats.add(Counter::UnionOps, t.edges);
                    stats.add(Counter::UfCasRetries, t.retries);
                    union_nanos.fetch_add(t.unions_ns, Ordering::Relaxed);
                }
            },
        )?;
        let uf = UnionFind::from_parents(cuf.into_parents());
        if let Some(start) = span {
            // Lazy builds and unions are carved out of the stage span, capped
            // so the named phases can never sum past it even when summed
            // per-worker time exceeds wall clock.
            let total = start.elapsed().as_nanos() as u64;
            let builds = self.build_nanos.load(Ordering::Relaxed).min(total);
            let unions = union_nanos.load(Ordering::Relaxed).min(total - builds);
            let edge = total - builds - unions;
            stats.add_phase_nanos(Phase::UnionFind, unions);
            stats.add_phase_nanos(Phase::StructureBuild, builds);
            stats.add_phase_nanos(Phase::EdgeTests, edge);
            if S::TRACE_ENABLED {
                stats.trace_connect_spans(start, edge, unions, builds);
            }
        }
        Ok(uf)
    }
}

/// The degraded edge test shared by every grid algorithm: once a `degrade`
/// deadline trips, the `(r1, r2)` edge is decided by the ρ-approximate
/// algorithm's edge rule ([`counter_edge_test`], probe first) at the
/// configured `degrade_rho`, over its own lazily built counters. The same
/// oracle as the ρ-approximate algorithm — which is what makes a mixed
/// exact/degraded run a valid ρ′-approximate clustering under the Sandwich
/// Theorem.
pub(crate) fn degraded_edge_test_shared<const D: usize, S: StatsSink>(
    g: &Graph<'_, D, S>,
    counters: &CounterSlots<D>,
    r1: usize,
    r2: usize,
) -> bool {
    g.exec.ctl.note_degraded_edge();
    let rule = EdgeRule::probe_first(g.exec.ctl.degrade_rho());
    counter_edge_test(g, counters, rule, r1, r2)
}

/// Border assignment: core points inherit their cell's component of `G`;
/// workers claim grid cells (weighted by point count) and assign each
/// non-core point to every cluster owning a core point within ε, or leave it
/// noise (Section 2.2, "Assigning Border Points"). The whole pass is
/// [`Phase::BorderAssign`]. Core-point assignment always completes — it is
/// what makes a `partial` result a coherent clustering; under a truncating
/// deadline the border points of unclaimed cells stay noise (the
/// conservative direction: never a wrong cluster).
fn assemble<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    cc: &CoreCells<D>,
    uf: &mut UnionFind,
    exec: &Exec<'_, S>,
) -> Result<Clustering, DbscanError> {
    let stats = exec.stats;
    let span = stats.now();
    let (component_of_rank, num_clusters) = uf.compact_labels();
    // One sequential pass over the points: core points take their cell's
    // component, the rest start as noise.
    let mut assignments: Vec<Assignment> = (0u32..)
        .zip(&cc.is_core)
        .map(|(p, &core)| {
            if core {
                let rank = cc.rank_of_cell[cc.grid.cell_of_point(p) as usize];
                Assignment::Core(component_of_rank[rank as usize])
            } else {
                Assignment::Noise
            }
        })
        .collect();
    let threads = exec.pool.threads();
    let queue = WorkQueue::balanced(
        (0..cc.grid.num_cells() as u32).map(|cell| cc.non_core_points(cell).len() as u64),
        threads,
    );
    // Per-worker buffers of (border point, adjacent cluster ids) pairs.
    type BorderOut = Vec<(u32, Vec<u32>)>;
    let slots: Vec<Mutex<BorderOut>> = (0..threads).map(|_| Mutex::new(Vec::new())).collect();
    exec.run_tasks(
        &BORDER,
        &queue,
        Vec::new,
        |out: &mut BorderOut, _, cell| {
            for &p in cc.non_core_points(cell) {
                let clusters = assign_border_clusters(points, cc, &component_of_rank, p);
                if !clusters.is_empty() {
                    out.push((p, clusters));
                }
            }
        },
        |cell| cc.non_core_points(cell).len() as u64,
        |w, out| *slots[w].lock().unwrap_or_else(|e| e.into_inner()) = out,
    )?;
    for slot in slots {
        for (p, clusters) in slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
            assignments[p as usize] = Assignment::Border(clusters);
        }
    }
    stats.finish(Phase::BorderAssign, span);
    Ok(Clustering {
        assignments,
        num_clusters,
    })
}

/// [`crate::algorithms::grid_exact`] on `config`'s pool: a [`cluster`] run
/// of [`Algorithm::Exact`] with the default [`BcpStrategy`]. Produces the
/// same clustering as the sequential run at every thread count.
pub fn try_grid_exact_par<const D: usize>(
    points: &[Point<D>],
    params: DbscanParams,
    config: &ParConfig,
) -> Result<Clustering, DbscanError> {
    let spec = Spec {
        algorithm: Algorithm::Exact(BcpStrategy::TreeAssisted),
        params,
        exec: config.clone(),
    };
    cluster(points, None, &spec, &NoStats, &RunCtl::unlimited())
}

/// [`try_grid_exact_par`] with an observability sink (see [`crate::stats`]).
///
/// Kd-trees are built lazily inside the fused edge stage
/// ([`Counter::KdTreeBuilds`] on first use via [`OnceLock`],
/// [`Counter::TreeCacheHits`] after), so [`Counter::TreeFallbackBrute`] is
/// structurally zero — there is no prebuilt set to fall outside of. Under
/// [`RecoveryPolicy::FallbackSequential`] a worker panic is absorbed by the
/// one-thread rerun (recorded as [`Counter::SequentialFallbacks`]); any other
/// error — and a panic under [`RecoveryPolicy::Fail`] — is returned.
pub fn try_grid_exact_par_instrumented<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    config: &ParConfig,
    stats: &S,
) -> Result<Clustering, DbscanError> {
    let spec = Spec {
        algorithm: Algorithm::Exact(BcpStrategy::TreeAssisted),
        params,
        exec: config.clone(),
    };
    cluster(points, None, &spec, stats, &RunCtl::unlimited())
}

/// The components of `G` under `oracle` on a `threads`-worker pool, for unit
/// tests of the edge stage.
#[cfg(test)]
pub(crate) fn connect_with<const D: usize>(
    points: &[Point<D>],
    cc: &CoreCells<D>,
    threads: usize,
    oracle: impl Fn(usize, usize) -> bool + Sync,
) -> UnionFind {
    let exec = Exec {
        pool: &WorkerPool::global(threads),
        faults: &FaultPlan::default(),
        limits: &ResourceLimits::UNLIMITED,
        stats: &NoStats,
        ctl: &RunCtl::unlimited(),
    };
    Graph::new(points, cc, &exec).connect(oracle).unwrap()
}

/// [`assemble`] on a `threads`-worker pool, for unit tests.
#[cfg(test)]
pub(crate) fn assemble_with<const D: usize>(
    points: &[Point<D>],
    cc: &CoreCells<D>,
    uf: &mut UnionFind,
    threads: usize,
) -> Clustering {
    let exec = Exec {
        pool: &WorkerPool::global(threads),
        faults: &FaultPlan::default(),
        limits: &ResourceLimits::UNLIMITED,
        stats: &NoStats,
        ctl: &RunCtl::unlimited(),
    };
    assemble(points, cc, uf, &exec).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{grid_exact, grid_exact_instrumented, rho_approx, ApproxOracle};
    use crate::bcp;
    use crate::stats::Stats;
    use dbscan_geom::point::p2;

    fn params(eps: f64, min_pts: usize) -> DbscanParams {
        DbscanParams::new(eps, min_pts).unwrap()
    }

    /// A [`cluster`] run of `algorithm` on a `threads`-worker pool.
    fn run_par<S: StatsSink>(
        pts: &[Point<2>],
        algorithm: Algorithm,
        p: DbscanParams,
        threads: usize,
        stats: &S,
    ) -> Clustering {
        let mut spec = Spec::new(algorithm, p);
        spec.exec.threads = Some(threads);
        cluster(pts, None, &spec, stats, &RunCtl::unlimited()).unwrap()
    }

    const EXACT: Algorithm = Algorithm::Exact(BcpStrategy::TreeAssisted);

    fn approx(rho: f64) -> Algorithm {
        Algorithm::Approx {
            rho,
            oracle: ApproxOracle::ProbeFirst,
        }
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

    #[test]
    fn resolve_threads_explicit_zero_and_none() {
        let all = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(1)), 1);
        // 0 means "all cores", not "clamp to one".
        assert_eq!(resolve_threads(Some(0)), all);
        // None defers to the environment / all cores; with the env var unset
        // in the test harness this is all cores. (The DBSCAN_THREADS path is
        // exercised through the CLI integration tests — a separate process —
        // because mutating the environment races with other test threads.)
        if std::env::var(THREADS_ENV).is_err() {
            assert_eq!(resolve_threads(None), all);
        }
    }

    #[test]
    fn parallel_exact_matches_sequential() {
        for seed in [1u64, 2] {
            let pts = lcg_points(1_500, 30.0, seed);
            for (eps, min_pts) in [(1.0, 4), (2.5, 10)] {
                let p = params(eps, min_pts);
                let seq = grid_exact(&pts, p);
                for threads in [1, 2, 4, 7] {
                    let par = run_par(&pts, EXACT, p, threads, &NoStats);
                    assert_eq!(
                        par.assignments, seq.assignments,
                        "threads={threads} seed={seed}"
                    );
                    assert_eq!(par.num_clusters, seq.num_clusters);
                }
            }
        }
    }

    #[test]
    fn parallel_approx_matches_sequential() {
        let pts = lcg_points(1_500, 30.0, 3);
        let p = params(1.5, 5);
        for rho in [0.001, 0.1] {
            let seq = rho_approx(&pts, p, rho);
            let par = run_par(&pts, approx(rho), p, 4, &NoStats);
            assert_eq!(par.assignments, seq.assignments, "rho={rho}");
        }
    }

    #[test]
    fn connect_components_agree_across_thread_counts() {
        let pts = lcg_points(1_000, 20.0, 5);
        let p = params(1.2, 4);
        let cc = CoreCells::build(&pts, p);
        let edge = |r1: usize, r2: usize| {
            bcp::within_threshold_brute(&pts, cc.core_points(r1), cc.core_points(r2), p.eps())
        };
        let mut seq_uf = connect_with(&pts, &cc, 1, edge);
        let mut par_uf = connect_with(&pts, &cc, 4, edge);
        let seq = assemble_with(&pts, &cc, &mut seq_uf, 1);
        let par = assemble_with(&pts, &cc, &mut par_uf, 4);
        assert_eq!(seq.assignments, par.assignments);
    }

    /// The candidate-pair enumeration is identical at every thread count
    /// (EdgeTests agree exactly), the live union-find short-circuit fires
    /// (EdgeTestsSkipped > 0), and lazy tree builds via `OnceLock` make the
    /// prebuild fallback structurally impossible.
    #[test]
    fn fused_edge_stage_skips_and_matches_sequential_counters() {
        // Dense blob (cells far above the brute-force product limit — with
        // the raised 16384 crossover that needs ~130+ core points per cell)
        // plus a sparse fringe (cells below it), so both front-end routes
        // fire, and far away a pair the front end leaves to the tree route.
        let mut pts = lcg_points(6_000, 4.0, 11);
        pts.extend(lcg_points(2_000, 30.0, 12));
        pts.extend(crate::bcp::open_pair(80, (-100, -100)));
        let p = params(1.0, 4);

        let seq_stats = Stats::new();
        let seq = grid_exact_instrumented(&pts, p, BcpStrategy::TreeAssisted, &seq_stats);
        let par_stats = Stats::new();
        let par = run_par(&pts, EXACT, p, 4, &par_stats);
        assert_eq!(seq.assignments, par.assignments);

        let sr = seq_stats.report();
        let pr = par_stats.report();
        assert!(
            pr.counter(Counter::TreeProbeDecisions) > 0,
            "test data must exercise the tree route"
        );
        assert!(
            pr.counter(Counter::BruteForceDecisions) > 0,
            "test data must exercise the brute route"
        );
        // Both runs enumerate the identical candidate-pair set...
        assert_eq!(
            sr.counter(Counter::EdgeTests),
            pr.counter(Counter::EdgeTests)
        );
        // ...and prune it through live connectivity.
        assert!(pr.counter(Counter::EdgeTestsSkipped) > 0);
        // Trees are built lazily on first use; no prebuild set to miss.
        assert_eq!(pr.counter(Counter::TreeFallbackBrute), 0);
        assert!(pr.counter(Counter::KdTreeBuilds) > 0);
        // Every union attempt stems from a discovered edge.
        assert_eq!(
            pr.counter(Counter::UnionOps),
            pr.counter(Counter::EdgesFound)
        );
    }

    /// A one-thread run tests its edge tasks heaviest-first, as a
    /// multi-worker run does, and so skips the pair that rank order would
    /// send to a kd-tree or a Lemma 5 counter.
    ///
    /// Four core cells at ε = 1: `a` and `b` are [`bcp::open_pair`], which
    /// the front end leaves open and which has no edge; `y`, above `a` and
    /// right of `b`, has an edge to both; `z`, right of `y`, has an edge to
    /// `a` and `y`. Input order makes the ranks `a < y < b < z`. In rank order
    /// `a`'s task tests `(a, b)` before `y`'s task has joined `y` and `b`. `y`
    /// is the heaviest task, so heaviest-first order joins `y`, `b` and `z`
    /// first, and `a`'s task then skips `(a, b)` and `(a, z)`.
    #[test]
    fn one_thread_edge_stage_runs_heaviest_first() {
        let clump = |x: f64, y: f64, n: usize| -> Vec<Point<2>> {
            (0..n)
                .map(|i| p2(x + (i % 20) as f64 * 1e-3, y + (i / 20) as f64 * 1e-3))
                .collect()
        };
        let ab = bcp::open_pair(80, (0, 0));
        let (a, b) = ab.split_at(160);
        let mut pts = a.to_vec();
        pts.extend(clump(0.2, 0.9, 400));
        pts.extend_from_slice(b);
        pts.extend(clump(0.9, 1.0, 300));
        let p = params(1.0, 4);
        let cc = CoreCells::build(&pts, p);
        let rank = |p: Point<2>| {
            let id = pts.iter().position(|&q| q == p).unwrap();
            cc.rank_of_cell[cc.grid.cell_of_point(id as u32) as usize] as usize
        };
        let (ra, ry, rb) = (rank(a[0]), rank(p2(0.2, 0.9)), rank(b[0]));
        assert_eq!((ra, ry, rb, cc.num_core_cells()), (0, 1, 2, 4));
        assert_eq!(
            bcp::front_end(&cc.core_block(ra), &cc.core_block(rb), 1.0),
            bcp::Settled::Open
        );

        // The skips of a sequential loop over the tasks in `order`.
        let skips = |order: &[usize]| {
            let mut uf = UnionFind::new(cc.num_core_cells());
            let mut skipped = 0u64;
            for &r1 in order {
                cc.for_candidate_partners(r1, |r2| {
                    if uf.same(r1 as u32, r2 as u32) {
                        skipped += 1;
                    } else if bcp::within_threshold_brute(
                        &pts,
                        cc.core_points(r1),
                        cc.core_points(r2),
                        1.0,
                    ) {
                        uf.union(r1 as u32, r2 as u32);
                    }
                });
            }
            skipped
        };
        let mut heaviest: Vec<usize> = (0..cc.num_core_cells()).collect();
        heaviest.sort_by_key(|&r| (std::cmp::Reverse(cc.edge_task_weight(r)), r));
        assert_eq!(heaviest[0], ry);
        let rank_order: Vec<usize> = (0..cc.num_core_cells()).collect();
        assert!(
            skips(&rank_order) < skips(&heaviest),
            "rank order tests (a, b)"
        );

        for (algorithm, builds) in [
            (EXACT, Counter::KdTreeBuilds),
            (approx(0.001), Counter::CounterBuilds),
        ] {
            let stats = Stats::new();
            run_par(&pts, algorithm, p, 1, &stats);
            let r = stats.report();
            assert_eq!(r.counter(Counter::EdgeTests), 6, "{algorithm:?}");
            assert_eq!(
                r.counter(Counter::EdgeTestsSkipped),
                skips(&heaviest),
                "{algorithm:?}"
            );
            assert_eq!(r.counter(builds), 0, "{algorithm:?}");
        }
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(
            run_par(&[], EXACT, params(1.0, 2), 4, &NoStats).num_clusters,
            0
        );
        let one = run_par(&[p2(0.0, 0.0)], approx(0.01), params(1.0, 1), 16, &NoStats);
        assert_eq!(one.num_clusters, 1);
    }
}
