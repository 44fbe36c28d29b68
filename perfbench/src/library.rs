//! Timed, checked calls into the clustering library: sequential exact,
//! ρ-approximate and exact on the worker-pool pipeline, on the same points.

use crate::check;
use crate::report::Outcome;
use crate::summary::{mean, median};
use crate::trace::Tracer;
use dbscan_core::algorithms::{
    grid_exact, grid_exact_instrumented, rho_approx, rho_approx_instrumented, BcpStrategy,
};
use dbscan_core::parallel::{try_grid_exact_par, try_grid_exact_par_instrumented};
use dbscan_core::{
    Clustering, CoreCells, Counter, DbscanParams, ParConfig, Phase, Stats, StatsReport, WorkerPool,
};
use dbscan_geom::Point;
use dbscan_server::json::{obj, Value};
use std::sync::Arc;
use std::time::Instant;

/// ε, MinPts and ρ: the paper's §5.1 defaults.
pub const EPS: f64 = 5000.0;
pub const MIN_PTS: usize = 100;
pub const RHO: f64 = 0.001;
/// Worker threads of the parallel pipeline.
pub const THREADS: usize = 2;

pub fn params() -> DbscanParams {
    DbscanParams::new(EPS, MIN_PTS).expect("the paper's parameters are valid")
}

/// Label hashes of one checked dataset.
pub struct Hashes {
    pub exact: u64,
    pub approx: u64,
}

/// Sums of [`StatsReport`] phases and counters over the traced runs.
#[derive(Default)]
struct Totals {
    runs: u64,
    phase_ns: [u64; Phase::COUNT],
    counters: [u64; Counter::COUNT],
}

impl Totals {
    fn add(&mut self, r: &StatsReport) {
        self.runs += 1;
        for p in Phase::ALL {
            self.phase_ns[p as usize] += r.phase_nanos(p);
        }
        for c in Counter::ALL {
            self.counters[c as usize] += r.counter(c);
        }
    }

    /// Mean seconds per run of one phase.
    fn secs(&self, p: Phase) -> f64 {
        self.phase_ns[p as usize] as f64 / 1e9 / self.runs.max(1) as f64
    }

    /// Mean count per run of one counter.
    fn count(&self, c: Counter) -> f64 {
        self.counters[c as usize] as f64 / self.runs.max(1) as f64
    }

    /// Total minus the summed phases: time no phase accounts for.
    fn gap(&self) -> f64 {
        let phases: f64 = Phase::ALL
            .iter()
            .filter(|&&p| p != Phase::Total)
            .map(|&p| self.secs(p))
            .sum();
        self.secs(Phase::Total) - phases
    }
}

pub struct Library {
    params: DbscanParams,
    pool: Arc<WorkerPool>,
    traced: bool,
    exact_s: Vec<f64>,
    approx_s: Vec<f64>,
    par_s: Vec<f64>,
    exact: Totals,
    approx: Totals,
    par: Totals,
    cells_build_s: Vec<f64>,
    cells_bytes: Vec<f64>,
}

#[derive(Clone, Copy)]
enum Op {
    Exact,
    Approx,
    Par,
}

impl Op {
    fn span(self) -> &'static str {
        match self {
            Op::Exact => "lib.exact_seq",
            Op::Approx => "lib.approx_seq",
            Op::Par => "lib.exact_par",
        }
    }
}

impl Library {
    pub fn new(pool: Arc<WorkerPool>, traced: bool) -> Library {
        Library {
            params: params(),
            pool,
            traced,
            exact_s: Vec::new(),
            approx_s: Vec::new(),
            par_s: Vec::new(),
            exact: Totals::default(),
            approx: Totals::default(),
            par: Totals::default(),
            cells_build_s: Vec::new(),
            cells_bytes: Vec::new(),
        }
    }

    fn call<const D: usize>(&mut self, op: Op, pts: &[Point<D>]) -> Clustering {
        let cfg = ParConfig {
            pool: Some(Arc::clone(&self.pool)),
            ..ParConfig::default()
        };
        let p = self.params;
        if !self.traced {
            return match op {
                Op::Exact => grid_exact(pts, p),
                Op::Approx => rho_approx(pts, p, RHO),
                Op::Par => try_grid_exact_par(pts, p, &cfg).expect("parallel exact run failed"),
            };
        }
        let stats = Stats::new();
        let c = match op {
            Op::Exact => grid_exact_instrumented(pts, p, BcpStrategy::default(), &stats),
            Op::Approx => rho_approx_instrumented(pts, p, RHO, &stats),
            Op::Par => try_grid_exact_par_instrumented(pts, p, &cfg, &stats)
                .expect("parallel exact run failed"),
        };
        let report = stats.report();
        match op {
            Op::Exact => self.exact.add(&report),
            Op::Approx => self.approx.add(&report),
            Op::Par => self.par.add(&report),
        }
        c
    }

    /// Runs the three algorithms on `pts`, starting with the one `order`
    /// selects so that position in the round does not favour any of them,
    /// then checks the results against each other outside the timed calls.
    /// Returns the label hashes, or the first failed check.
    pub fn round<const D: usize>(
        &mut self,
        pts: &[Point<D>],
        order: usize,
        tracer: &Tracer,
        job: u64,
    ) -> Result<Hashes, String> {
        let parent = tracer.enabled().then(|| tracer.reserve());
        let round_start = Instant::now();
        let ops = [Op::Exact, Op::Approx, Op::Par];
        let mut results: [Option<Clustering>; 3] = [None, None, None];
        for k in 0..3 {
            let i = (order + k) % 3;
            let t = Instant::now();
            let c = std::hint::black_box(self.call(ops[i], std::hint::black_box(pts)));
            let end = Instant::now();
            let secs = (end - t).as_secs_f64();
            match ops[i] {
                Op::Exact => self.exact_s.push(secs),
                Op::Approx => self.approx_s.push(secs),
                Op::Par => self.par_s.push(secs),
            }
            tracer.record(ops[i].span(), t, end, parent, job);
            results[i] = Some(c);
        }
        if self.traced {
            let t = Instant::now();
            let cells = CoreCells::build(pts, self.params);
            let end = Instant::now();
            self.cells_build_s.push((end - t).as_secs_f64());
            self.cells_bytes.push(cells.approx_bytes() as f64);
            tracer.record("lib.cells_build", t, end, parent, job);
        }
        let t = Instant::now();
        let [Some(exact), Some(approx), Some(par)] = results else {
            unreachable!("every op ran once")
        };
        let hashes = Hashes {
            exact: check::hash_of(&exact),
            approx: check::hash_of(&approx),
        };
        let checked = check::same_labels(
            "exact on the pool vs sequential",
            hashes.exact,
            check::hash_of(&par),
        )
        .and_then(|()| {
            let outer = grid_exact(pts, self.params.inflate(RHO));
            check::sandwich(&exact, &approx, &outer)
        });
        tracer.record("lib.check", t, Instant::now(), parent, job);
        if let Some(id) = parent {
            tracer.record_as(id, "lib.round", round_start, Instant::now(), None, job);
        }
        checked.map(|()| hashes)
    }

    pub fn pool(&self) -> Arc<WorkerPool> {
        Arc::clone(&self.pool)
    }

    /// Seconds spent inside the timed library calls.
    pub fn busy_s(&self) -> f64 {
        self.exact_s
            .iter()
            .chain(&self.approx_s)
            .chain(&self.par_s)
            .sum()
    }

    /// Every timed call in milliseconds: the "jobs" of the batch workload.
    pub fn call_ms(&self) -> Vec<f64> {
        self.exact_s
            .iter()
            .chain(&self.approx_s)
            .chain(&self.par_s)
            .map(|s| s * 1e3)
            .collect()
    }

    pub fn calls(&self) -> usize {
        self.exact_s.len() + self.approx_s.len() + self.par_s.len()
    }

    /// The three library end-to-end metrics: median seconds per call.
    pub fn report_end_to_end(&self, out: &mut Outcome) {
        out.set("exact_seq_s", median(&self.exact_s));
        out.set("approx_seq_s", median(&self.approx_s));
        out.set("exact_par_s", median(&self.par_s));
        out.note(
            "library_samples_per_algorithm",
            Value::Num(self.exact_s.len() as f64),
        );
    }

    /// The library's per-layer metrics, as means per call so that the
    /// phases add up to the mean total.
    pub fn report_layers(&self, out: &mut Outcome) {
        let (e, a) = (&self.exact, &self.approx);
        for (name, t, p) in [
            ("exact.geom.grid_build_s", e, Phase::GridBuild),
            ("exact.core.labeling_s", e, Phase::Labeling),
            ("exact.index.kdtree_build_s", e, Phase::StructureBuild),
            ("exact.core.edge_tests_s", e, Phase::EdgeTests),
            ("exact.core.union_find_s", e, Phase::UnionFind),
            ("exact.core.border_assign_s", e, Phase::BorderAssign),
            ("approx.index.counter_build_s", a, Phase::StructureBuild),
            ("approx.core.edge_tests_s", a, Phase::EdgeTests),
        ] {
            out.set(name, t.secs(p));
        }
        for (name, t, c) in [
            ("exact.core.edge_tests", e, Counter::EdgeTests),
            ("exact.core.edges_found", e, Counter::EdgesFound),
            ("exact.index.kd_tree_builds", e, Counter::KdTreeBuilds),
            ("exact.index.nodes_visited", e, Counter::IndexNodesVisited),
            ("exact.geom.points_examined", e, Counter::GridPointsExamined),
            (
                "exact.geom.block_kernel_calls",
                e,
                Counter::BlockKernelCalls,
            ),
            ("approx.index.counter_builds", a, Counter::CounterBuilds),
            ("approx.index.counter_queries", a, Counter::CounterQueries),
            ("approx.index.nodes_visited", a, Counter::IndexNodesVisited),
            (
                "core.scheduler.tasks_stolen",
                &self.par,
                Counter::TasksStolen,
            ),
        ] {
            out.set(name, t.count(c));
        }
        out.set("core.cells.build_s", mean(&self.cells_build_s));
        out.set("core.cells.bytes", mean(&self.cells_bytes));
        out.set(
            "core.parallel.speedup",
            median(&self.exact_s) / median(&self.par_s),
        );
        out.set("recon.exact_phase_gap_s", e.gap());
        out.set("recon.approx_phase_gap_s", a.gap());
        for (what, t) in [("exact", e), ("approx", a)] {
            let total = t.secs(Phase::Total);
            let share = t.gap() / total;
            out.note(
                &format!("recon.{what}_phases"),
                obj(vec![
                    ("total_s", Value::Num(total)),
                    ("gap_s", Value::Num(t.gap())),
                    ("gap_share", Value::Num(share)),
                    ("adds_up", Value::Bool(share.abs() <= 0.05)),
                ]),
            );
        }
        let share = a.secs(Phase::StructureBuild) / a.secs(Phase::Total);
        out.note(
            "share.approx_counter_build_of_approx_seq",
            Value::Num(share),
        );
    }
}
