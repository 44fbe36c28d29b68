//! Zero-overhead observability for the DBSCAN algorithms: per-phase wall
//! times and operation counters.
//!
//! The paper's running-time claims (Figures 11–13) attribute the cost of
//! OurExact/OurApprox to specific *phases* — grid building, core labeling,
//! per-cell structure builds, BCP edge tests, union-find, border assignment.
//! This module makes those phases measurable without touching the
//! uninstrumented hot path:
//!
//! * [`StatsSink`] is the collection interface.
//!   [`cluster`](crate::algorithms::cluster) is generic over
//!   `S: StatsSink`; the uninstrumented convenience functions pass
//!   [`NoStats`], whose
//!   `ENABLED = false` lets the optimizer erase every recording site (the
//!   branches are decided at monomorphization time, so the hot path stays
//!   branch-free).
//! * [`Stats`] is the real collector: relaxed atomic counters, so a single
//!   instance can aggregate across the worker threads of a parallel run on
//!   [`crate::parallel`]'s pipeline.
//! * [`StatsReport`] is an immutable snapshot with a stable JSON rendering
//!   (the `dbscan-stats/v7` schema documented in EXPERIMENTS.md; v2 = v1
//!   plus the [`Counter::TasksStolen`] / [`Counter::UfCasRetries`] scheduler
//!   and concurrency counters; v3 = v2 plus the [`Counter::WorkerPanics`] /
//!   [`Counter::SequentialFallbacks`] resilience counters and the envelope's
//!   `recovery` field; v4 = v3 plus the lossless integer `phases_ns`
//!   object and, on traced runs, the envelope's `histograms` /
//!   `events_dropped` members from [`crate::trace`]; v7 = v6 plus the
//!   [`Counter::BlockKernelCalls`] / [`Counter::BruteForceCells`] kernel
//!   counters and the envelope's `kernel_block` field).
//!
//! Phase attribution is disjoint: a nanosecond is counted in exactly one
//! phase, so phases sum to (at most) [`Phase::Total`]. In the sequential
//! algorithms, lazily built structures (the exact algorithm's kd-trees, the
//! approximate algorithm's counters) are built *inside* the edge loop but
//! their build time is re-attributed from [`Phase::EdgeTests`] to
//! [`Phase::StructureBuild`]. The parallel variants fuse structure builds,
//! edge tests, and unions into one barrier-free stage whose whole wall-clock
//! span lands in [`Phase::EdgeTests`] (their [`Phase::StructureBuild`] and
//! [`Phase::UnionFind`] report zero) — splitting per-thread time back out
//! would double-count wall-clock nanoseconds across workers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The phases of the grid-based DBSCAN template (and their analogues in
/// KDD'96 and CIT08 — see the phase-mapping table in EXPERIMENTS.md).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Building the ε/√d grid (CIT08: the coarse partition + halo pass).
    GridBuild,
    /// Core-point labeling (KDD'96: the seed-expansion flood, whose region
    /// queries decide core status).
    Labeling,
    /// Per-cell kd-tree / approximate-counter builds; index builds for
    /// KDD'96 and CIT08.
    StructureBuild,
    /// Edge tests between ε-neighbor core cells (BCP predicates, NN probes,
    /// approximate-counter probes), excluding lazy builds and union-find.
    EdgeTests,
    /// Union-find operations over discovered edges (CIT08: the cross-partition
    /// merge).
    UnionFind,
    /// Border-point assignment / the final assembly pass.
    BorderAssign,
    /// End-to-end wall time of the algorithm, measured around everything
    /// else (so `Total` ≥ the sum of the other phases; the difference is
    /// unattributed glue).
    Total,
}

impl Phase {
    pub const COUNT: usize = 7;

    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::GridBuild,
        Phase::Labeling,
        Phase::StructureBuild,
        Phase::EdgeTests,
        Phase::UnionFind,
        Phase::BorderAssign,
        Phase::Total,
    ];

    /// Stable snake_case key used in the JSON schema and bench tables.
    pub fn name(self) -> &'static str {
        match self {
            Phase::GridBuild => "grid_build",
            Phase::Labeling => "labeling",
            Phase::StructureBuild => "structure_build",
            Phase::EdgeTests => "edge_tests",
            Phase::UnionFind => "union_find",
            Phase::BorderAssign => "border_assign",
            Phase::Total => "total",
        }
    }
}

/// Operation counters. All are *counts of decisions or operations*, not
/// timings, so sequential and parallel runs of the same algorithm on the
/// same input are directly comparable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Candidate ε-neighbor core-cell pairs enumerated by the edge loop,
    /// counted *before* the union-find short-circuit — identical at every
    /// thread count on the same input.
    EdgeTests,
    /// Candidate pairs skipped because the union-find already connected
    /// them — the edge workers' live consultation of the concurrent
    /// union-find. (Deterministic on one thread; with more, counts are
    /// timing-dependent: a pair is skipped if some worker joined its cells
    /// first.)
    EdgeTestsSkipped,
    /// Edge tests that returned true (an edge of the core-cell graph `G`).
    EdgesFound,
    /// Edge tests decided by the early-exit brute-force scan or by the exact
    /// front end of [`crate::bcp::front_end`] (blocked scan, budgeted probe,
    /// core-box tests; exact and ρ-approximate algorithms alike).
    BruteForceDecisions,
    /// Edge tests decided by probing a per-cell kd-tree.
    TreeProbeDecisions,
    /// Edge tests decided by a full BCP computation
    /// ([`crate::algorithms::BcpStrategy::FullBcp`] / `FullBruteBcp`).
    FullBcpDecisions,
    /// Edge tests decided by the Lemma 5 approximate counter (ρ-approximate
    /// algorithm, and degraded edge tests): every pair under
    /// [`crate::algorithms::ApproxOracle::CounterOnly`], only the pairs the
    /// exact front end leaves open otherwise.
    CounterDecisions,
    /// Historical (kept for schema stability): the old parallel exact path
    /// pre-built kd-trees from a heuristic and counted pairs whose designated
    /// tree was missing here. Trees are now built on demand inside the edge
    /// tasks, so this is structurally zero.
    TreeFallbackBrute,
    /// kd-trees built (per-cell trees, and the on-the-fly indexes of the
    /// KDD'96 wrappers and CIT08 partitions).
    KdTreeBuilds,
    /// Tree-probe decisions served by an already-built (cached) tree.
    TreeCacheHits,
    /// Lemma 5 approximate counters built.
    CounterBuilds,
    /// Approximate-counter point queries (`query_positive` calls).
    CounterQueries,
    /// Region queries issued through a [`dbscan_index::RangeIndex`]
    /// (KDD'96 and CIT08's local runs).
    RangeQueries,
    /// Total points returned by those region queries — the Θ(n²) lower-bound
    /// witness of the paper's footnote 1.
    RangePointsReturned,
    /// Index nodes visited while answering counted probes and region
    /// queries (kd-tree/R-tree nodes; the linear scan counts points).
    IndexNodesVisited,
    /// Points whose distance the grid labeling step computed while counting
    /// neighborhoods; cells settled whole by their preimage boxes add none.
    GridPointsExamined,
    /// Union-find `union` calls.
    UnionOps,
    /// Scheduler tasks a worker claimed outside its static home segment —
    /// exactly the work the old contiguous-chunk split would have placed on
    /// a different (possibly still busy) thread. Zero means static chunking
    /// would have balanced; positive counts measure rescued skew. See
    /// [`crate::scheduler`].
    TasksStolen,
    /// Failed root-link CAS attempts in the concurrent union-find (each one
    /// lost a race to another worker's link and restarted). A contention
    /// gauge for the parallel connect phase.
    UfCasRetries,
    /// Worker tasks that panicked inside a parallel stage and were caught by
    /// the stage's `catch_unwind` envelope (see [`crate::scheduler::Poison`]).
    /// Nonzero only when something actually went wrong — or when the
    /// `fault-injection` harness was told to make it go wrong.
    WorkerPanics,
    /// Parallel runs that were transparently re-executed sequentially under
    /// [`crate::RecoveryPolicy::FallbackSequential`] after a worker panic.
    SequentialFallbacks,
    /// Kernel-backed distance-primitive dispatches from instrumented paths:
    /// one per cell that labeling scans (a cell its preimage box settles is
    /// not scanned) and one per blocked BCP predicate or exact front-end
    /// call in the edge phase (see `dbscan_geom::kernels`). Zero on paths
    /// that never touch a blocked kernel (e.g. `FullBcp` strategies).
    BlockKernelCalls,
    /// Core cells that finished the edge phase without ever building their
    /// heavy per-cell structure (kd-tree in the exact algorithm, Lemma 5
    /// counter in the approximate one) — every pair touching them was
    /// decided by the blocked brute-force kernel, skipped, or never
    /// enumerated. The raised brute-force crossover shows up here: a
    /// shrinking `structure_build` phase is explained by a growing
    /// `brute_force_cells`.
    BruteForceCells,
}

impl Counter {
    pub const COUNT: usize = 23;

    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::EdgeTests,
        Counter::EdgeTestsSkipped,
        Counter::EdgesFound,
        Counter::BruteForceDecisions,
        Counter::TreeProbeDecisions,
        Counter::FullBcpDecisions,
        Counter::CounterDecisions,
        Counter::TreeFallbackBrute,
        Counter::KdTreeBuilds,
        Counter::TreeCacheHits,
        Counter::CounterBuilds,
        Counter::CounterQueries,
        Counter::RangeQueries,
        Counter::RangePointsReturned,
        Counter::IndexNodesVisited,
        Counter::GridPointsExamined,
        Counter::UnionOps,
        Counter::TasksStolen,
        Counter::UfCasRetries,
        Counter::WorkerPanics,
        Counter::SequentialFallbacks,
        Counter::BlockKernelCalls,
        Counter::BruteForceCells,
    ];

    /// Stable snake_case key used in the JSON schema and bench tables.
    pub fn name(self) -> &'static str {
        match self {
            Counter::EdgeTests => "edge_tests",
            Counter::EdgeTestsSkipped => "edge_tests_skipped",
            Counter::EdgesFound => "edges_found",
            Counter::BruteForceDecisions => "brute_force_decisions",
            Counter::TreeProbeDecisions => "tree_probe_decisions",
            Counter::FullBcpDecisions => "full_bcp_decisions",
            Counter::CounterDecisions => "counter_decisions",
            Counter::TreeFallbackBrute => "tree_fallback_brute",
            Counter::KdTreeBuilds => "kd_tree_builds",
            Counter::TreeCacheHits => "tree_cache_hits",
            Counter::CounterBuilds => "counter_builds",
            Counter::CounterQueries => "counter_queries",
            Counter::RangeQueries => "range_queries",
            Counter::RangePointsReturned => "range_points_returned",
            Counter::IndexNodesVisited => "index_nodes_visited",
            Counter::GridPointsExamined => "grid_points_examined",
            Counter::UnionOps => "union_ops",
            Counter::TasksStolen => "tasks_stolen",
            Counter::UfCasRetries => "uf_cas_retries",
            Counter::WorkerPanics => "worker_panics",
            Counter::SequentialFallbacks => "sequential_fallbacks",
            Counter::BlockKernelCalls => "block_kernel_calls",
            Counter::BruteForceCells => "brute_force_cells",
        }
    }
}

/// Collection interface threaded through every [`cluster`](crate::algorithms::cluster) run.
///
/// `ENABLED` is an associated *const*, so with [`NoStats`] every recording
/// site folds to nothing at monomorphization time — the uninstrumented
/// public APIs compile to the same code they had before this layer existed.
///
/// [`crate::trace::TraceSink`] is a supertrait, so every `S: StatsSink`
/// entry point also accepts trace events; [`NoStats`] and [`Stats`] carry
/// disabled trace impls, and [`crate::trace::TracedStats`] enables both
/// layers at once. The [`StatsSink::time`]/[`StatsSink::finish`] helpers
/// below feed each phase measurement to *both* layers from a single
/// `elapsed()` reading, so phase spans in a trace agree exactly with the
/// stats phase nanos.
pub trait StatsSink: crate::trace::TraceSink {
    const ENABLED: bool;

    /// Adds `n` to counter `c`.
    fn add(&self, c: Counter, n: u64);

    /// Adds wall time to a phase.
    fn add_phase_nanos(&self, p: Phase, nanos: u64);

    /// Increments counter `c` by one.
    #[inline(always)]
    fn bump(&self, c: Counter) {
        if Self::ENABLED {
            self.add(c, 1);
        }
    }

    /// Runs `f`, attributing its wall time to phase `p` (free when disabled:
    /// no `Instant::now` is ever taken).
    #[inline(always)]
    fn time<T>(&self, p: Phase, f: impl FnOnce() -> T) -> T {
        if Self::ENABLED {
            let start = Instant::now();
            let out = f();
            let nanos = start.elapsed().as_nanos() as u64;
            self.add_phase_nanos(p, nanos);
            if Self::TRACE_ENABLED {
                self.trace_span_from(0, crate::trace::EventName::of_phase(p), start, nanos);
            }
            out
        } else {
            f()
        }
    }

    /// `Instant::now()` only when enabled — for spans that cannot be closed
    /// over with [`StatsSink::time`].
    #[inline(always)]
    fn now(&self) -> Option<Instant> {
        if Self::ENABLED {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes a span opened with [`StatsSink::now`].
    #[inline(always)]
    fn finish(&self, p: Phase, start: Option<Instant>) {
        if let Some(start) = start {
            let nanos = start.elapsed().as_nanos() as u64;
            self.add_phase_nanos(p, nanos);
            if Self::TRACE_ENABLED {
                self.trace_span_from(0, crate::trace::EventName::of_phase(p), start, nanos);
            }
        }
    }
}

/// The no-op collector behind every uninstrumented public API.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoStats;

impl StatsSink for NoStats {
    const ENABLED: bool = false;

    #[inline(always)]
    fn add(&self, _c: Counter, _n: u64) {}

    #[inline(always)]
    fn add_phase_nanos(&self, _p: Phase, _nanos: u64) {}
}

/// The real collector: relaxed atomics, shareable across the worker threads
/// of the parallel variants.
#[derive(Debug, Default)]
pub struct Stats {
    counters: [AtomicU64; Counter::COUNT],
    phase_nanos: [AtomicU64; Phase::COUNT],
}

impl Stats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Current accumulated nanoseconds of one phase.
    pub fn phase_nanos(&self, p: Phase) -> u64 {
        self.phase_nanos[p as usize].load(Ordering::Relaxed)
    }

    /// Immutable snapshot for reporting.
    pub fn report(&self) -> StatsReport {
        let mut counters = [0u64; Counter::COUNT];
        for (slot, a) in counters.iter_mut().zip(&self.counters) {
            *slot = a.load(Ordering::Relaxed);
        }
        let mut phase_nanos = [0u64; Phase::COUNT];
        for (slot, a) in phase_nanos.iter_mut().zip(&self.phase_nanos) {
            *slot = a.load(Ordering::Relaxed);
        }
        StatsReport {
            counters,
            phase_nanos,
        }
    }
}

impl StatsSink for Stats {
    const ENABLED: bool = true;

    #[inline]
    fn add(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    fn add_phase_nanos(&self, p: Phase, nanos: u64) {
        self.phase_nanos[p as usize].fetch_add(nanos, Ordering::Relaxed);
    }
}

/// Immutable snapshot of a [`Stats`] collector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatsReport {
    counters: [u64; Counter::COUNT],
    phase_nanos: [u64; Phase::COUNT],
}

impl StatsReport {
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    pub fn phase_nanos(&self, p: Phase) -> u64 {
        self.phase_nanos[p as usize]
    }

    pub fn phase_secs(&self, p: Phase) -> f64 {
        self.phase_nanos(p) as f64 / 1e9
    }

    /// The sum that the edge-test decomposition invariant checks against:
    /// every enumerated candidate pair is either skipped or decided by
    /// exactly one mechanism.
    pub fn decision_sum(&self) -> u64 {
        self.counter(Counter::EdgeTestsSkipped)
            + self.counter(Counter::BruteForceDecisions)
            + self.counter(Counter::TreeProbeDecisions)
            + self.counter(Counter::FullBcpDecisions)
            + self.counter(Counter::CounterDecisions)
            + self.counter(Counter::TreeFallbackBrute)
    }

    /// JSON object `{"grid_build_s": ..., ...}` — phase wall times in
    /// seconds, keys suffixed `_s`, stable order of [`Phase::ALL`].
    pub fn phases_json(&self) -> String {
        let mut out = String::from("{");
        for (i, p) in Phase::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}_s\":{:.9}", p.name(), self.phase_secs(*p)));
        }
        out.push('}');
        out
    }

    /// JSON object `{"grid_build": ..., ...}` — phase wall times as exact
    /// integer nanoseconds, keys *without* suffix, stable order of
    /// [`Phase::ALL`]. The lossless sibling of [`StatsReport::phases_json`]:
    /// the seconds keys stay for human scanning, the nanos are what scripts
    /// should diff.
    pub fn phases_ns_json(&self) -> String {
        let mut out = String::from("{");
        for (i, p) in Phase::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", p.name(), self.phase_nanos(*p)));
        }
        out.push('}');
        out
    }

    /// JSON object `{"edge_tests": ..., ...}` — counters, stable order of
    /// [`Counter::ALL`].
    pub fn counters_json(&self) -> String {
        let mut out = String::from("{");
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", c.name(), self.counter(*c)));
        }
        out.push('}');
        out
    }

    /// Standalone JSON rendering:
    /// `{"phases": {...}, "phases_ns": {...}, "counters": {...}}` —
    /// seconds for humans, integer nanos for scripts. The CLI wraps this in
    /// the full `dbscan-stats/v7` envelope.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"phases\":{},\"phases_ns\":{},\"counters\":{}}}",
            self.phases_json(),
            self.phases_ns_json(),
            self.counters_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_tables_are_consistent() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "Phase::ALL order must match discriminants");
        }
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(
                *c as usize, i,
                "Counter::ALL order must match discriminants"
            );
        }
        // Names are unique (they become JSON keys).
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
    }

    #[test]
    fn stats_records_and_reports() {
        let s = Stats::new();
        s.bump(Counter::EdgeTests);
        s.add(Counter::EdgeTests, 2);
        s.add_phase_nanos(Phase::GridBuild, 1_500_000_000);
        let r = s.report();
        assert_eq!(r.counter(Counter::EdgeTests), 3);
        assert_eq!(r.counter(Counter::UnionOps), 0);
        assert!((r.phase_secs(Phase::GridBuild) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn nostats_time_still_runs_closure() {
        let sink = NoStats;
        let v = sink.time(Phase::Total, || 41 + 1);
        assert_eq!(v, 42);
        assert!(sink.now().is_none());
    }

    #[test]
    fn stats_is_shareable_across_threads() {
        let s = Stats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = &s;
                scope.spawn(move || {
                    for _ in 0..1000 {
                        s.bump(Counter::UnionOps);
                    }
                });
            }
        });
        assert_eq!(s.counter(Counter::UnionOps), 4000);
    }

    #[test]
    fn json_is_well_formed_and_stable() {
        let s = Stats::new();
        s.add(Counter::EdgeTests, 7);
        s.add_phase_nanos(Phase::Labeling, 1_234_567_891);
        let j = s.report().to_json();
        assert!(j.starts_with("{\"phases\":{\"grid_build_s\":"));
        assert!(j.contains("\"edge_tests\":7"));
        assert!(j.ends_with("}}"));
        // Every phase key is present with the _s suffix.
        for p in Phase::ALL {
            assert!(j.contains(&format!("\"{}_s\":", p.name())), "{}", p.name());
        }
        for c in Counter::ALL {
            assert!(j.contains(&format!("\"{}\":", c.name())), "{}", c.name());
        }
        // The nanos sibling carries exact integers (no float formatting).
        assert!(j.contains("\"phases_ns\":{\"grid_build\":0,"));
        assert!(j.contains("\"labeling\":1234567891"));
    }
}
