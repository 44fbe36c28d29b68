//! `repro` — regenerates every table and figure of the paper's evaluation
//! (Section 5) at a configurable machine scale.
//!
//! ```text
//! repro [COMMAND] [--scale tiny|small|medium|large|paper] [--out DIR]
//!
//! COMMANDS
//!   table1    print the resolved parameter grid (Table 1)
//!   fig1      arbitrary-shape clusters: DBSCAN vs k-means (Figure 1)
//!   fig8      generate + dump the 2D seed-spreader visualization dataset
//!   fig9      exact vs ρ-approximate clusters on the 2D dataset (Figure 9)
//!   fig10     maximum legal ρ vs ε, all datasets (Figure 10)
//!   fig11     running time vs cardinality n (Figure 11)
//!   fig12     running time vs radius ε (Figure 12)
//!   fig13     running time vs approximation ratio ρ (Figure 13)
//!   phases    per-phase wall-time / counter breakdown of every algorithm
//!             (the dbscan-stats/v7 instrumentation; see EXPERIMENTS.md)
//!   scaling   thread-scaling sweep (1, 2, 4, ... workers) of the parallel
//!             exact + rho-approximate paths on seed-spreader data, with the
//!             scheduler/union-find counters (emits BENCH_scaling.json)
//!   trace     event-level trace of a parallel exact run on ss5d; writes
//!             Chrome trace-event JSON and folded flamegraph stacks
//!   bench     fixed small seed-spreader matrix (seq + parallel, exact +
//!             approx) -> top-level BENCH_core.json perf baseline
//!   labels    label fingerprints of the bench matrix (seq + parallel,
//!             exact + approx) and of a blob-and-shell instance (both
//!             approximate oracles, sandwich-checked): one FNV-1a hash per
//!             cell, for bit-identity diffs across code changes (see
//!             scripts/verify.sh)
//!   sandwich  empirical check of Theorem 3 on random datasets
//!   all       everything above except trace/bench, in order
//! ```
//!
//! There are also three service-mode subcommands with their own flag sets:
//!
//! ```text
//! repro loadgen (--socket PATH | --connect HOST:PORT) [--jobs N]
//!               [--faulted N] [--past-deadline N] [--out DIR]
//!               [--metrics-out FILE] [--traced N]
//! repro monitor (--socket PATH | --connect HOST:PORT) [--interval-ms N]
//!               [--samples N] [--out DIR]
//! repro crashchaos [--bin PATH] [--jobs N] [--seed N]
//! ```
//!
//! `loadgen` drives a running `dbscan serve` daemon with N concurrent
//! clients (optionally seeding some with deterministic faults or unmeetable
//! deadlines), honours `overloaded` rejections through a seeded, jittered
//! exponential backoff that respects the advertised `retry_after_ms`
//! (retry counts appear in the summary table), cross-checks the daemon's
//! `dbscan-server-stats/v1` accounting — and its `metrics` exposition —
//! at quiescence, and writes a log2 latency histogram to
//! `DIR/loadgen_hist.json`. With `--metrics-out FILE` it additionally polls
//! the `metrics` verb during the burst and writes a
//! `dbscan-loadgen-metrics/v1` time-series of server-side state (queue
//! depth, shed/degraded counts). With `--traced N`, the first N healthy
//! jobs request an inline Chrome trace (`DIR/loadgen_trace.json` keeps the
//! first one). Exits 0 only if every job resolved as expected and all
//! accounting is consistent.
//!
//! `monitor` polls a live daemon's `timeseries` + `health` verbs, renders a
//! one-line-per-sample terminal dashboard, and writes the collected window
//! to `DIR/monitor.json` (`dbscan-monitor/v1`).
//!
//! `crashchaos` is the kill-9 recovery drill: it spawns its own journaled
//! daemon (`dbscan serve --journal`), drives a burst, SIGKILLs the daemon
//! at a seeded random point mid-burst, restarts it on the same journal, and
//! asserts the recovery invariant — no acked job is lost, no delivered job
//! is re-run, replayed results are bit-identical — then checks the journal
//! compacted below its trigger. Exits 0 only if every assertion holds.
//!
//! Absolute numbers depend on the machine; the *shapes* (who wins, by what
//! factor, where the curves cross) are what reproduce the paper. See
//! EXPERIMENTS.md for recorded outputs.

use dbscan_bench::config::{Scale, DATASET_SEED, DEFAULT_EPS, DEFAULT_RHO};
use dbscan_bench::datasets::{
    farm_points, household_points, pamap2_points, spreader_points, viz2d_points, DatasetKind,
};
use dbscan_bench::table::Table;
use dbscan_bench::timing::{time_once, BudgetTracker, Measurement};
use dbscan_bench::{approx, run_on, EXACT};
use dbscan_core::algorithms::{
    cit08, grid_exact, grid_exact_instrumented, gunawan_2d, kdd96_rtree, rho_approx,
    rho_approx_instrumented, Algorithm, ApproxOracle, BcpStrategy, Cit08Config, Kdd96Index,
};
use dbscan_core::hash::Fnv1a;
use dbscan_core::parallel::resolve_threads;
use dbscan_core::{
    chrome_trace_json, folded_stacks, Clustering, Counter, DbscanParams, NoStats, Phase, Stats,
    TracedStats,
};
use dbscan_datagen::io::{write_labeled_csv, write_points_csv};
use dbscan_eval::sandwich::{check_sandwich, SandwichOutcome};
use dbscan_eval::{collapsing_radius, max_legal_rho, same_clustering, PAPER_RHO_GRID};
use dbscan_geom::Point;
use std::path::{Path, PathBuf};

/// Runs `$body` with `$pts` bound to the points of `$kind` at cardinality `$n`
/// (dimension resolved at compile time per arm).
macro_rules! with_dataset_points {
    ($kind:expr, $n:expr, |$pts:ident| $body:expr) => {
        match $kind {
            DatasetKind::Ss3d => {
                let $pts = spreader_points::<3>($n);
                $body
            }
            DatasetKind::Ss5d => {
                let $pts = spreader_points::<5>($n);
                $body
            }
            DatasetKind::Ss7d => {
                let $pts = spreader_points::<7>($n);
                $body
            }
            DatasetKind::Pamap2 => {
                let $pts = pamap2_points($n);
                $body
            }
            DatasetKind::Farm => {
                let $pts = farm_points($n);
                $body
            }
            DatasetKind::Household => {
                let $pts = household_points($n);
                $body
            }
        }
    };
}

fn main() {
    // `loadgen` talks to a daemon instead of running algorithms in-process
    // and has its own flag grammar, so it dispatches before parse_args.
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("loadgen") {
        raw.remove(0);
        std::process::exit(loadgen(raw));
    }
    if raw.first().map(String::as_str) == Some("monitor") {
        raw.remove(0);
        std::process::exit(monitor(raw));
    }
    if raw.first().map(String::as_str) == Some("crashchaos") {
        raw.remove(0);
        std::process::exit(crashchaos(raw));
    }
    let (command, scale, out, huge) = parse_args();
    std::fs::create_dir_all(&out).expect("cannot create output directory");
    println!(
        "# DBSCAN Revisited reproduction — scale '{}' (seed {DATASET_SEED:#x}), output -> {}\n",
        scale.name,
        out.display()
    );
    match command.as_str() {
        "table1" => table1(&scale),
        "fig1" => fig1(&out),
        "fig8" => fig8(&scale, &out),
        "fig9" => fig9(&scale, &out),
        "fig10" => fig10(&scale, &out),
        "fig11" => fig11(&scale, &out),
        "fig12" => fig12(&scale, &out),
        "fig13" => fig13(&scale, &out),
        "phases" => phases(&scale, &out),
        "scaling" => scaling(&scale, &out),
        "trace" => trace_cmd(&scale, &out),
        "bench" => bench(&scale, huge),
        "labels" => labels_cmd(&scale),
        "sandwich" => sandwich(&scale),
        "all" => {
            table1(&scale);
            fig1(&out);
            fig8(&scale, &out);
            fig9(&scale, &out);
            fig10(&scale, &out);
            fig11(&scale, &out);
            fig12(&scale, &out);
            fig13(&scale, &out);
            phases(&scale, &out);
            scaling(&scale, &out);
            sandwich(&scale);
        }
        other => {
            eprintln!("unknown command '{other}' (see --help in the module docs)");
            std::process::exit(2);
        }
    }
}

fn parse_args() -> (String, Scale, PathBuf, bool) {
    let mut command = "all".to_string();
    let mut scale = Scale::default_scale();
    let mut out = PathBuf::from("results");
    let mut huge = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let name = args.next().expect("--scale needs a value");
                scale = Scale::by_name(&name).unwrap_or_else(|| {
                    eprintln!("unknown scale '{name}' (tiny|small|medium|large|paper)");
                    std::process::exit(2);
                });
            }
            "--out" => out = PathBuf::from(args.next().expect("--out needs a value")),
            // `bench` only: extend the large-n tier to n = 10^7 (minutes of
            // runtime and ~10× the memory — opt-in).
            "--huge" => huge = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [table1|fig1|fig8|fig9|fig10|fig11|fig12|fig13|phases|scaling|\
                     trace|bench|sandwich|all] [--scale tiny|small|medium|large|paper] [--out DIR]\
                     [--huge]"
                );
                std::process::exit(0);
            }
            other if !other.starts_with('-') => command = other.to_string(),
            other => {
                eprintln!("unknown flag '{other}'");
                std::process::exit(2);
            }
        }
    }
    (command, scale, out, huge)
}

// --------------------------------------------------------------------------
// Table 1
// --------------------------------------------------------------------------

fn table1(scale: &Scale) {
    println!("== Table 1: parameter values (defaults in the rightmost column) ==");
    let mut t = Table::new(vec!["parameter", "values", "default"]);
    t.push_row(vec![
        "n (synthetic)".to_string(),
        format!("{:?}", scale.n_sweep),
        scale.default_n.to_string(),
    ]);
    t.push_row(vec![
        "d (synthetic)".to_string(),
        "[3, 5, 7]".to_string(),
        "5".to_string(),
    ]);
    t.push_row(vec![
        "eps".to_string(),
        "5000 .. collapsing radius".to_string(),
        format!("{DEFAULT_EPS}"),
    ]);
    t.push_row(vec![
        "rho".to_string(),
        format!("{PAPER_RHO_GRID:?}"),
        format!("{DEFAULT_RHO}"),
    ]);
    t.push_row(vec![
        "MinPts".to_string(),
        "fixed".to_string(),
        scale.min_pts.to_string(),
    ]);
    println!("{}", t.render());
}

// --------------------------------------------------------------------------
// Figure 1: the motivating contrast (arbitrary shapes vs k-means)
// --------------------------------------------------------------------------

fn fig1(out: &Path) {
    use dbscan_core::baselines::kmeans;
    use dbscan_core::Assignment;
    use dbscan_eval::kdist::{sorted_kdist_plot, suggest_eps};
    use dbscan_eval::metrics::adjusted_rand_index;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    println!("== Figure 1: arbitrary-shape clusters — DBSCAN vs k-means ==");
    let mut rng = StdRng::seed_from_u64(DATASET_SEED);
    let (pts, truth) = dbscan_datagen::scenes::moons_and_rings(&mut rng);
    let truth_c = Clustering {
        assignments: truth.iter().map(|&l| Assignment::Core(l)).collect(),
        num_clusters: 4,
    };

    let eps = 2.0 * suggest_eps(&sorted_kdist_plot(&pts, 4)).expect("knee");
    let dbscan = rho_approx(&pts, DbscanParams::new(eps, 5).unwrap(), 0.001);
    let km = kmeans(&pts, 4, 200, &mut rng);
    let km_c = Clustering {
        assignments: km.labels.iter().map(|&l| Assignment::Core(l)).collect(),
        num_clusters: km.centroids.len(),
    };

    let mut t = Table::new(vec!["method", "#clusters", "ARI vs truth"]);
    t.push_row(vec![
        "DBSCAN (rho=0.001)".to_string(),
        dbscan.num_clusters.to_string(),
        format!("{:.3}", adjusted_rand_index(&truth_c, &dbscan)),
    ]);
    t.push_row(vec![
        "k-means (k=4)".to_string(),
        km_c.num_clusters.to_string(),
        format!("{:.3}", adjusted_rand_index(&truth_c, &km_c)),
    ]);
    println!("{}", t.render());
    dbscan_viz::svg::write_clusters(&out.join("fig1_dbscan.svg"), &pts, &dbscan, 900, 420, 2.0)
        .expect("write fig1 svg");
    dbscan_viz::svg::write_clusters(&out.join("fig1_kmeans.svg"), &pts, &km_c, 900, 420, 2.0)
        .expect("write fig1 svg");
    println!("renders written to {}/fig1_*.svg\n", out.display());
}

// --------------------------------------------------------------------------
// Figures 8 and 9: the 2D visualization experiment
// --------------------------------------------------------------------------

fn fig8(scale: &Scale, out: &Path) {
    println!(
        "== Figure 8: 2D seed-spreader dataset (n = {}) ==",
        scale.viz_n
    );
    let pts = viz2d_points(scale.viz_n);
    let path = out.join("fig8_points.csv");
    write_points_csv(&path, &pts).expect("write fig8 csv");
    let svg = dbscan_viz::svg::render_points(&pts, 640, 640, 2.0);
    std::fs::write(out.join("fig8.svg"), svg).expect("write fig8 svg");
    println!(
        "{} points written to {} (+ rendered fig8.svg)\n",
        pts.len(),
        path.display()
    );
}

/// Finds an ε at which the exact cluster count drops (a merge boundary), by
/// doubling from `start` and bisecting. Returns (boundary, clusters just below,
/// clusters at/above). `None` if the count never drops before collapse.
fn find_merge_boundary(
    pts: &[Point<2>],
    min_pts: usize,
    start: f64,
) -> Option<(f64, usize, usize)> {
    let clusters_at =
        |eps: f64| gunawan_2d(pts, DbscanParams::new(eps, min_pts).unwrap()).num_clusters;
    let base = clusters_at(start);
    if base <= 1 {
        return None;
    }
    let mut lo = start;
    let mut hi = start;
    while clusters_at(hi) >= base {
        lo = hi;
        hi *= 1.5;
        if hi > 1e9 {
            return None;
        }
    }
    while hi / lo > 1.0005 {
        let mid = (lo * hi).sqrt();
        if clusters_at(mid) >= base {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some((hi, base, clusters_at(hi)))
}

fn fig9(scale: &Scale, out: &Path) {
    println!("== Figure 9: exact vs rho-approximate clusters (2D, MinPts = 20) ==");
    let pts = viz2d_points(scale.viz_n);
    let rhos = [0.001, 0.01, 0.1];
    let min_pts = 20;

    // The paper probes ε = 5000 plus two values chosen near a merge boundary
    // *of its dataset* (11300, 12200). The boundary location is dataset-specific,
    // so in addition to the paper's values we locate this dataset's own first
    // merge boundary and probe just below it — the regime where large ρ can
    // legitimately change the output (Figure 6's "bad ε").
    let mut eps_list = vec![5_000.0, 11_300.0, 12_200.0];
    if let Some((boundary, below, above)) = find_merge_boundary(&pts, min_pts, 5_000.0) {
        println!(
            "merge boundary of this dataset: eps ~{boundary:.0} ({below} -> {above} clusters); probing 0.995x and 1.01x"
        );
        eps_list.push((boundary * 0.995 * 10.0).round() / 10.0);
        eps_list.push((boundary * 1.01 * 10.0).round() / 10.0);
    }

    let mut t = Table::new(vec![
        "eps",
        "exact #clusters",
        "rho=0.001",
        "rho=0.01",
        "rho=0.1",
    ]);
    for eps in eps_list {
        let params = DbscanParams::new(eps, min_pts).unwrap();
        let exact = gunawan_2d(&pts, params);
        dump_labeled(out, &format!("fig9_exact_eps{eps}"), &pts, &exact);
        dbscan_viz::svg::write_clusters(
            &out.join(format!("fig9_exact_eps{eps}.svg")),
            &pts,
            &exact,
            640,
            640,
            2.5,
        )
        .expect("write fig9 svg");
        let mut cells = vec![format!("{eps}"), exact.num_clusters.to_string()];
        for rho in rhos {
            let approx = rho_approx(&pts, params, rho);
            dump_labeled(out, &format!("fig9_rho{rho}_eps{eps}"), &pts, &approx);
            dbscan_viz::svg::write_clusters(
                &out.join(format!("fig9_rho{rho}_eps{eps}.svg")),
                &pts,
                &approx,
                640,
                640,
                2.5,
            )
            .expect("write fig9 svg");
            let verdict = if same_clustering(&exact, &approx) {
                format!("{} (= exact)", approx.num_clusters)
            } else {
                format!("{} (differs)", approx.num_clusters)
            };
            cells.push(verdict);
        }
        t.push_row(cells);
    }
    println!("{}", t.render());
    println!(
        "labeled dumps + rendered plots written to {}/fig9_*.csv|svg\n",
        out.display()
    );
}

fn dump_labeled<const D: usize>(out: &Path, name: &str, pts: &[Point<D>], c: &Clustering) {
    let labels: Vec<i64> = c
        .flat_labels()
        .into_iter()
        .map(|l| l.map_or(-1, |v| v as i64))
        .collect();
    let path = out.join(format!("{name}.csv"));
    write_labeled_csv(&path, pts, &labels).expect("write labeled csv");
}

// --------------------------------------------------------------------------
// Figure 10: maximum legal rho vs eps
// --------------------------------------------------------------------------

fn fig10(scale: &Scale, out: &Path) {
    println!(
        "== Figure 10: maximum legal rho vs eps (n = {}, MinPts = {}) ==",
        scale.default_n, scale.min_pts
    );
    for kind in DatasetKind::ALL {
        let n = dataset_n(scale, kind);
        with_dataset_points!(kind, n, |pts| {
            let collapse = collapsing_radius(&pts, scale.min_pts, DEFAULT_EPS, 0.02);
            let eps_list = eps_sweep(collapse, 8);
            let mut t = Table::new(vec!["eps", "max legal rho"]);
            for &eps in &eps_list {
                let params = DbscanParams::new(eps, scale.min_pts).unwrap();
                let legal = max_legal_rho(&pts, params, &PAPER_RHO_GRID);
                t.push_row(vec![
                    format!("{eps:.0}"),
                    legal.map_or("<0.001".to_string(), |r| format!("{r}")),
                ]);
            }
            println!(
                "--- {} (collapsing radius ~{:.0}) ---",
                kind.name(),
                collapse
            );
            println!("{}", t.render());
            t.write_csv(&out.join(format!("fig10_{}.csv", kind.name().to_lowercase())))
                .expect("write fig10 csv");
        });
    }
}

/// Linear ε sweep from the paper's 5000 up to the collapsing radius.
fn eps_sweep(collapse: f64, steps: usize) -> Vec<f64> {
    let lo = DEFAULT_EPS.min(collapse);
    let hi = collapse.max(lo * 1.01);
    (0..steps)
        .map(|i| lo + (hi - lo) * i as f64 / (steps - 1) as f64)
        .collect()
}

fn dataset_n(scale: &Scale, kind: DatasetKind) -> usize {
    if DatasetKind::SYNTHETIC.contains(&kind) {
        scale.default_n
    } else {
        scale.real_n
    }
}

// --------------------------------------------------------------------------
// Figures 11-13: running time
// --------------------------------------------------------------------------

/// The paper's four methods plus two ablation lanes with the cost profiles
/// of the paper's own implementations (see DESIGN.md, substitutions):
/// OurApprox building a Lemma 5 counter for every reached cell pair, and
/// OurExact computing the full BCP per cell pair with no early exit.
const ALGOS: [&str; 6] = [
    "OurApprox",
    "OurApprox-counterOnly",
    "OurExact",
    "OurExact-bruteBCP",
    "CIT08",
    "KDD96",
];

fn measure_all<const D: usize>(
    pts: &[Point<D>],
    params: DbscanParams,
    rho: f64,
    tracker: &mut BudgetTracker,
) -> [Measurement; 6] {
    [
        tracker.run(0, || {
            rho_approx(pts, params, rho);
        }),
        tracker.run(1, || {
            let oracle = ApproxOracle::CounterOnly;
            run_on(
                pts,
                Algorithm::Approx { rho, oracle },
                params,
                Some(1),
                &NoStats,
            );
        }),
        tracker.run(2, || {
            grid_exact(pts, params);
        }),
        tracker.run(3, || {
            let brute = Algorithm::Exact(BcpStrategy::FullBruteBcp);
            run_on(pts, brute, params, Some(1), &NoStats);
        }),
        tracker.run(4, || {
            cit08(pts, params, Cit08Config::default());
        }),
        tracker.run(5, || {
            kdd96_rtree(pts, params);
        }),
    ]
}

fn fig11(scale: &Scale, out: &Path) {
    println!(
        "== Figure 11: running time (s) vs cardinality n (eps = {DEFAULT_EPS}, rho = {DEFAULT_RHO}, MinPts = {}) ==",
        scale.min_pts
    );
    for kind in DatasetKind::SYNTHETIC {
        let mut t = Table::new(
            std::iter::once("n".to_string())
                .chain(ALGOS.iter().map(|s| s.to_string()))
                .collect::<Vec<_>>(),
        );
        let mut tracker = BudgetTracker::new(ALGOS.len(), scale.time_budget);
        for &n in &scale.n_sweep {
            with_dataset_points!(kind, n, |pts| {
                let params = DbscanParams::new(DEFAULT_EPS, scale.min_pts).unwrap();
                let ms = measure_all(&pts, params, DEFAULT_RHO, &mut tracker);
                let mut row = vec![n.to_string()];
                row.extend(ms.iter().map(|m| m.display()));
                t.push_row(row);
            });
        }
        println!("--- {} ---", kind.name());
        println!("{}", t.render());
        t.write_csv(&out.join(format!("fig11_{}.csv", kind.name().to_lowercase())))
            .expect("write fig11 csv");
    }
}

fn fig12(scale: &Scale, out: &Path) {
    println!(
        "== Figure 12: running time (s) vs radius eps (rho = {DEFAULT_RHO}, MinPts = {}) ==",
        scale.min_pts
    );
    for kind in DatasetKind::ALL {
        let n = dataset_n(scale, kind);
        with_dataset_points!(kind, n, |pts| {
            let collapse = collapsing_radius(&pts, scale.min_pts, DEFAULT_EPS, 0.02);
            let eps_list = eps_sweep(collapse, 6);
            let mut t = Table::new(
                std::iter::once("eps".to_string())
                    .chain(ALGOS.iter().map(|s| s.to_string()))
                    .collect::<Vec<_>>(),
            );
            let mut tracker = BudgetTracker::new(ALGOS.len(), scale.time_budget);
            for &eps in &eps_list {
                let params = DbscanParams::new(eps, scale.min_pts).unwrap();
                let ms = measure_all(&pts, params, DEFAULT_RHO, &mut tracker);
                let mut row = vec![format!("{eps:.0}")];
                row.extend(ms.iter().map(|m| m.display()));
                t.push_row(row);
            }
            println!("--- {} (n = {n}) ---", kind.name());
            println!("{}", t.render());
            t.write_csv(&out.join(format!("fig12_{}.csv", kind.name().to_lowercase())))
                .expect("write fig12 csv");
        });
    }
}

fn fig13(scale: &Scale, out: &Path) {
    println!(
        "== Figure 13: OurApprox running time (s) vs rho (eps = {DEFAULT_EPS}, MinPts = {}) ==",
        scale.min_pts
    );
    // One column per dataset and oracle: the default probe-first OurApprox,
    // and the counter-only ablation with the paper's cost profile.
    const ORACLES: [(ApproxOracle, &str); 2] = [
        (ApproxOracle::ProbeFirst, ""),
        (ApproxOracle::CounterOnly, "-counterOnly"),
    ];
    let mut t = Table::new(
        std::iter::once("rho".to_string())
            .chain(DatasetKind::ALL.iter().flat_map(|k| {
                ORACLES
                    .iter()
                    .map(move |(_, suffix)| format!("{}{suffix}", k.name()))
            }))
            .collect::<Vec<_>>(),
    );
    // Generate each dataset once; measure per oracle and rho.
    let mut columns: Vec<Vec<String>> = Vec::new();
    for kind in DatasetKind::ALL {
        let n = dataset_n(scale, kind);
        with_dataset_points!(kind, n, |pts| {
            let params = DbscanParams::new(DEFAULT_EPS, scale.min_pts).unwrap();
            for (oracle, _) in ORACLES {
                let col: Vec<String> = PAPER_RHO_GRID
                    .iter()
                    .map(|&rho| {
                        let (_, d) = time_once(|| {
                            let algorithm = Algorithm::Approx { rho, oracle };
                            run_on(&pts, algorithm, params, Some(1), &NoStats)
                        });
                        format!("{:.3}", d.as_secs_f64())
                    })
                    .collect();
                columns.push(col);
            }
        });
    }
    for (i, &rho) in PAPER_RHO_GRID.iter().enumerate() {
        let mut row = vec![format!("{rho}")];
        row.extend(columns.iter().map(|c| c[i].clone()));
        t.push_row(row);
    }
    println!("{}", t.render());
    t.write_csv(&out.join("fig13.csv"))
        .expect("write fig13 csv");
}

// --------------------------------------------------------------------------
// Per-phase breakdown (the instrumentation layer)
// --------------------------------------------------------------------------

/// One table row from a populated [`Stats`] collector: every phase's wall
/// time in seconds plus the headline counters.
fn phase_row(name: &str, stats: &Stats) -> Vec<String> {
    let r = stats.report();
    let mut row = vec![name.to_string()];
    row.extend(
        Phase::ALL
            .iter()
            .map(|&p| format!("{:.4}", r.phase_secs(p))),
    );
    for c in [Counter::EdgeTests, Counter::EdgesFound, Counter::UnionOps] {
        row.push(r.counter(c).to_string());
    }
    row
}

fn phase_header() -> Vec<String> {
    let mut header = vec!["algorithm".to_string()];
    header.extend(Phase::ALL.iter().map(|p| format!("{}_s", p.name())));
    header.extend(
        [Counter::EdgeTests, Counter::EdgesFound, Counter::UnionOps]
            .iter()
            .map(|c| c.name().to_string()),
    );
    header
}

fn phases(scale: &Scale, out: &Path) {
    println!("== Per-phase breakdown (dbscan-stats/v7 instrumentation; see EXPERIMENTS.md) ==");
    // The breakdown's point is the *ratios* between phases, not absolute
    // scale, so cap n to keep the single uninstrumented-KDD96 lane bounded.
    let n = scale.default_n.min(200_000);
    let params = DbscanParams::new(DEFAULT_EPS, scale.min_pts).unwrap();

    let pts = spreader_points::<5>(n);
    let mut t = Table::new(phase_header());
    {
        let s = Stats::new();
        rho_approx_instrumented(&pts, params, DEFAULT_RHO, &s);
        t.push_row(phase_row("OurApprox", &s));
    }
    {
        let s = Stats::new();
        grid_exact_instrumented(&pts, params, BcpStrategy::TreeAssisted, &s);
        t.push_row(phase_row("OurExact", &s));
    }
    {
        let s = Stats::new();
        run_on(&pts, approx(DEFAULT_RHO), params, None, &s);
        t.push_row(phase_row("OurApprox-par", &s));
    }
    {
        let s = Stats::new();
        run_on(&pts, EXACT, params, None, &s);
        t.push_row(phase_row("OurExact-par", &s));
    }
    {
        let s = Stats::new();
        run_on(
            &pts,
            Algorithm::Cit08(Cit08Config::default()),
            params,
            Some(1),
            &s,
        );
        t.push_row(phase_row("CIT08", &s));
    }
    {
        let s = Stats::new();
        run_on(
            &pts,
            Algorithm::Kdd96(Kdd96Index::RTree),
            params,
            Some(1),
            &s,
        );
        t.push_row(phase_row("KDD96", &s));
    }
    println!("--- ss5d (n = {n}) ---");
    println!("{}", t.render());
    t.write_csv(&out.join("phases_ss5d.csv"))
        .expect("write phases csv");
    t.write_json(&out.join("phases_ss5d.json"))
        .expect("write phases json");

    // Gunawan's algorithm only exists in 2D; measure it on the visualization
    // dataset against the exact algorithm under identical parameters.
    let pts2 = viz2d_points(scale.viz_n);
    let params2 = DbscanParams::new(5_000.0, 20).unwrap();
    let mut t2 = Table::new(phase_header());
    {
        let s = Stats::new();
        run_on(&pts2, Algorithm::Gunawan2d, params2, Some(1), &s);
        t2.push_row(phase_row("Gunawan2D", &s));
    }
    {
        let s = Stats::new();
        grid_exact_instrumented(&pts2, params2, BcpStrategy::TreeAssisted, &s);
        t2.push_row(phase_row("OurExact", &s));
    }
    println!("--- 2D visualization dataset (n = {}) ---", pts2.len());
    println!("{}", t2.render());
    t2.write_csv(&out.join("phases_2d.csv"))
        .expect("write phases csv");
    t2.write_json(&out.join("phases_2d.json"))
        .expect("write phases json");
    println!(
        "per-phase series written to {}/phases_*.csv|json\n",
        out.display()
    );
}

// --------------------------------------------------------------------------
// Thread scaling (the work-stealing parallel layer)
// --------------------------------------------------------------------------

/// Thread-scaling sweep of the parallel exact and ρ-approximate paths on the
/// 5D seed-spreader dataset: per thread count, wall time, speedup over the
/// sequential algorithm, and the scheduler/union-find counters
/// ([`Counter::EdgeTestsSkipped`], [`Counter::TasksStolen`],
/// [`Counter::UfCasRetries`]). Emits `BENCH_scaling.csv` / `.json`.
fn scaling(scale: &Scale, out: &Path) {
    println!("== Thread scaling: work-stealing parallel exact + rho-approx (ss5d) ==");
    let n = scale.default_n.min(200_000);
    let pts = spreader_points::<5>(n);
    let params = DbscanParams::new(DEFAULT_EPS, scale.min_pts).unwrap();

    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    // Powers of two up to the core count, but at least 1, 2, 4 so the sweep
    // has a shape even on small hosts; entries beyond the core count measure
    // scheduler overhead under oversubscription, not speedup.
    let mut sweep = vec![1usize];
    while *sweep.last().unwrap() < cores.max(4) {
        let next = sweep.last().unwrap() * 2;
        sweep.push(next);
    }
    println!(
        "{cores} core(s) available; sweeping threads {sweep:?} \
         (n = {n}, eps = {DEFAULT_EPS}, rho = {DEFAULT_RHO}, MinPts = {})",
        scale.min_pts
    );

    // All lanes run instrumented so every row reports the same way; wall time
    // is the instrumentation's own Phase::Total span.
    let run_exact = |threads: Option<usize>| {
        let s = Stats::new();
        run_on(&pts, EXACT, params, Some(threads.unwrap_or(1)), &s);
        s.report()
    };
    let run_approx = |threads: Option<usize>| {
        let s = Stats::new();
        run_on(
            &pts,
            approx(DEFAULT_RHO),
            params,
            Some(threads.unwrap_or(1)),
            &s,
        );
        s.report()
    };

    let mut t = Table::new(vec![
        "threads",
        "exact_s",
        "exact_speedup",
        "approx_s",
        "approx_speedup",
        "exact_edge_tests",
        "exact_edge_tests_skipped",
        "tasks_stolen",
        "uf_cas_retries",
    ]);
    let counters_of = |r: &dbscan_core::StatsReport| {
        [
            r.counter(Counter::EdgeTests),
            r.counter(Counter::EdgeTestsSkipped),
            r.counter(Counter::TasksStolen),
            r.counter(Counter::UfCasRetries),
        ]
    };

    let seq_exact = run_exact(None);
    let seq_approx = run_approx(None);
    let (base_exact, base_approx) = (
        seq_exact.phase_secs(Phase::Total),
        seq_approx.phase_secs(Phase::Total),
    );
    let mut row = vec![
        "seq".to_string(),
        format!("{base_exact:.4}"),
        "1.00".to_string(),
        format!("{base_approx:.4}"),
        "1.00".to_string(),
    ];
    row.extend(counters_of(&seq_exact).iter().map(u64::to_string));
    t.push_row(row);

    for &threads in &sweep {
        let exact = run_exact(Some(threads));
        let approx = run_approx(Some(threads));
        let (es, aps) = (
            exact.phase_secs(Phase::Total),
            approx.phase_secs(Phase::Total),
        );
        let mut row = vec![
            threads.to_string(),
            format!("{es:.4}"),
            format!("{:.2}", base_exact / es.max(1e-12)),
            format!("{aps:.4}"),
            format!("{:.2}", base_approx / aps.max(1e-12)),
        ];
        row.extend(counters_of(&exact).iter().map(u64::to_string));
        t.push_row(row);
    }
    println!("{}", t.render());
    t.write_csv(&out.join("BENCH_scaling.csv"))
        .expect("write scaling csv");
    t.write_json(&out.join("BENCH_scaling.json"))
        .expect("write scaling json");
    println!(
        "scaling series written to {}/BENCH_scaling.csv|json\n",
        out.display()
    );
}

// --------------------------------------------------------------------------
// Event-level trace capture (the dbscan_core::trace layer)
// --------------------------------------------------------------------------

/// Runs the parallel exact algorithm on a seed-spreader workload with event
/// tracing enabled and writes both export formats into the output directory:
/// `trace_ss5d.chrome.json` (load in chrome://tracing or ui.perfetto.dev) and
/// `trace_ss5d.folded.txt` (pipe into a flamegraph renderer).
fn trace_cmd(scale: &Scale, out: &Path) {
    println!("== Event-level trace: parallel exact on ss5d ==");
    let n = scale.default_n.min(100_000);
    let pts = spreader_points::<5>(n);
    let params = DbscanParams::new(DEFAULT_EPS, scale.min_pts).unwrap();
    let workers = std::thread::available_parallelism().map_or(1, |c| c.get());

    let ts = TracedStats::new(workers + 1);
    run_on(&pts, EXACT, params, Some(workers), &ts);
    let snap = ts.tracer.snapshot();

    let chrome_path = out.join("trace_ss5d.chrome.json");
    std::fs::write(&chrome_path, chrome_trace_json(&snap)).expect("write chrome trace");
    let folded_path = out.join("trace_ss5d.folded.txt");
    std::fs::write(&folded_path, folded_stacks(&snap)).expect("write folded trace");

    let report = ts.stats.report();
    println!(
        "n = {n}, {workers} worker(s): {} events on {} timelines ({} dropped), \
         total {:.4}s",
        snap.events.len(),
        snap.num_lanes,
        snap.events_dropped,
        report.phase_secs(Phase::Total)
    );
    for kind in dbscan_core::HistKind::ALL {
        let h = ts.tracer.histograms().snapshot(kind);
        println!(
            "  hist {}: count {} min {} max {}",
            kind.name(),
            h.count,
            h.min,
            h.max
        );
    }
    println!(
        "traces written to {} and {}\n",
        chrome_path.display(),
        folded_path.display()
    );
}

// --------------------------------------------------------------------------
// The perf-trajectory baseline (BENCH_core.json)
// --------------------------------------------------------------------------

/// Runs one bench cell `warmup + reps` times and keeps the repetition with
/// the smallest wall total (min-of-k: the least-disturbed run is the best
/// estimate of the code's cost; means smear scheduler noise and cold-start
/// effects into the baseline — the v1 file's "parallel grid_build 2.4×
/// slower" artifact was exactly that, a first-touch cost attributed to
/// whichever cell ran first).
fn bench_cell(warmup: usize, reps: usize, run: impl Fn(&Stats)) -> dbscan_core::StatsReport {
    for _ in 0..warmup {
        run(&Stats::new());
    }
    let mut best: Option<dbscan_core::StatsReport> = None;
    for _ in 0..reps.max(1) {
        let s = Stats::new();
        run(&s);
        keep_min(&mut best, s.report());
    }
    best.unwrap()
}

fn keep_min(best: &mut Option<dbscan_core::StatsReport>, r: dbscan_core::StatsReport) {
    if best
        .as_ref()
        .is_none_or(|b| r.phase_nanos(Phase::Total) < b.phase_nanos(Phase::Total))
    {
        *best = Some(r);
    }
}

/// Paired variant of [`bench_cell`] for head-to-head cells (sequential vs
/// parallel on the same input): the two runs alternate within one rep loop,
/// so slow drift between bench invocations — frequency scaling, page-cache
/// state, a noisy neighbor — lands on both sides equally instead of biasing
/// whichever cell happened to run in the worse window. Un-paired min-of-k
/// showed the *same code path* differing by ±5% between back-to-back bench
/// invocations; interleaving is what makes the seq/par comparison a real
/// regression signal. Within a rep the A/B order alternates (A-B, B-A, …):
/// a fixed order leaks per-rep ordering bias past the per-side minima —
/// whichever side always runs second inherits, every rep, whatever state
/// the first run leaves behind (identical code paths measured ~2-8% apart
/// with a fixed order, and the gap followed the slot, not the code).
fn bench_pair(
    warmup: usize,
    reps: usize,
    run_a: impl Fn(&Stats),
    run_b: impl Fn(&Stats),
) -> (dbscan_core::StatsReport, dbscan_core::StatsReport) {
    for _ in 0..warmup {
        run_a(&Stats::new());
        run_b(&Stats::new());
    }
    let (mut best_a, mut best_b) = (None, None);
    for rep in 0..reps.max(1) {
        type Run<'a> = &'a dyn Fn(&Stats);
        let (first, second): (Run, Run) = if rep % 2 == 0 {
            (&run_a, &run_b)
        } else {
            (&run_b, &run_a)
        };
        let s = Stats::new();
        first(&s);
        let first_report = s.report();
        let s = Stats::new();
        second(&s);
        let second_report = s.report();
        let (ra, rb) = if rep % 2 == 0 {
            (first_report, second_report)
        } else {
            (second_report, first_report)
        };
        keep_min(&mut best_a, ra);
        keep_min(&mut best_b, rb);
    }
    (best_a.unwrap(), best_b.unwrap())
}

/// One `BENCH_core.json` entry line. `threads_requested` is the raw
/// `--threads`-style value (`null` = sequential path); `threads` is the
/// *resolved* worker count the run actually used, and is what cross-machine
/// comparisons should key on (the v1 file recorded the raw `0` and was
/// unreadable off the recording machine).
#[allow(clippy::too_many_arguments)]
fn bench_entry(
    dataset: &str,
    n: usize,
    algorithm: &str,
    threads_requested: Option<usize>,
    resolved: usize,
    warmup: usize,
    reps: usize,
    r: &dbscan_core::StatsReport,
) -> String {
    let mode = if threads_requested.is_some() {
        "par"
    } else {
        "seq"
    };
    println!(
        "  {dataset} n={n} {algorithm} {mode}@{resolved}: total {:.4}s",
        r.phase_secs(Phase::Total)
    );
    format!(
        "{{\"dataset\":\"{dataset}\",\"n\":{n},\"algorithm\":\"{algorithm}\",\
         \"mode\":\"{mode}\",\"threads_requested\":{},\"threads\":{resolved},\
         \"warmup\":{warmup},\"reps\":{reps},\"total_s\":{:.9},\"phases\":{},\
         \"phases_ns\":{}}}",
        threads_requested.map_or("null".to_string(), |t| t.to_string()),
        r.phase_secs(Phase::Total),
        r.phases_json(),
        r.phases_ns_json()
    )
}

/// Runs the perf-trajectory baseline and writes `BENCH_core.json`
/// (`dbscan-bench-core/v2`). Two tiers:
///
/// * **Fixed small matrix** (n = 20k, ss3d + ss5d, exact + approx,
///   sequential + all-cores parallel): the regression canary. With the
///   persistent worker pool, parallel totals here must not exceed sequential
///   — `scripts/verify.sh` guards exactly that under `VERIFY_BENCH=1`.
/// * **Large-n tier** (ss3d at n = 10^6; `--huge` adds 10^7): where the grid
///   constant factors and parallel speedup actually matter. Parallel runs
///   sweep 1/2/4/all workers (deduplicated by resolved count, so a host
///   whose "all" is already covered doesn't re-run it).
///
/// Every cell runs warm-up + min-of-k (see [`bench_cell`]); each entry
/// records the requested and *resolved* thread counts, and the envelope
/// records the host's core count. The matrix is intentionally independent of
/// `--scale` so the file is comparable across machines and PRs.
fn bench(scale: &Scale, huge: bool) {
    println!("== Perf-trajectory baseline: fixed seed-spreader matrix -> BENCH_core.json ==");
    const BENCH_N: usize = 20_000;
    const LARGE_N: usize = 1_000_000;
    const HUGE_N: usize = 10_000_000;
    let params = DbscanParams::new(DEFAULT_EPS, scale.min_pts).unwrap();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut entries = Vec::new();

    // Tier 1: the fixed 20k matrix (2 warm-ups, min of 7 — cells are
    // millisecond-scale, so the extra repetitions are cheap and the min is
    // stable against scheduler noise). Sequential and all-cores-parallel reps
    // are *interleaved* per cell (see [`bench_pair`]) so the seq/par
    // comparison the verify guard reads is drift-free. `Some(0)` = the
    // core's "all cores" convention (`--threads 0`).
    let (warmup, reps) = (2, 7);
    let resolved_all = resolve_threads(Some(0));
    let pts_3 = spreader_points::<3>(BENCH_N);
    let pts_5 = spreader_points::<5>(BENCH_N);
    for algorithm in ["exact", "approx"] {
        let (seq3, par3) = bench_pair(
            warmup,
            reps,
            |s| {
                if algorithm == "exact" {
                    grid_exact_instrumented(&pts_3, params, BcpStrategy::TreeAssisted, s);
                } else {
                    rho_approx_instrumented(&pts_3, params, DEFAULT_RHO, s);
                }
            },
            |s| {
                if algorithm == "exact" {
                    run_on(&pts_3, EXACT, params, Some(0), s);
                } else {
                    run_on(&pts_3, approx(DEFAULT_RHO), params, Some(0), s);
                }
            },
        );
        entries.push(bench_entry(
            "ss3d", BENCH_N, algorithm, None, 1, warmup, reps, &seq3,
        ));
        entries.push(bench_entry(
            "ss3d",
            BENCH_N,
            algorithm,
            Some(0),
            resolved_all,
            warmup,
            reps,
            &par3,
        ));
        let (seq5, par5) = bench_pair(
            warmup,
            reps,
            |s| {
                if algorithm == "exact" {
                    grid_exact_instrumented(&pts_5, params, BcpStrategy::TreeAssisted, s);
                } else {
                    rho_approx_instrumented(&pts_5, params, DEFAULT_RHO, s);
                }
            },
            |s| {
                if algorithm == "exact" {
                    run_on(&pts_5, EXACT, params, Some(0), s);
                } else {
                    run_on(&pts_5, approx(DEFAULT_RHO), params, Some(0), s);
                }
            },
        );
        entries.push(bench_entry(
            "ss5d", BENCH_N, algorithm, None, 1, warmup, reps, &seq5,
        ));
        entries.push(bench_entry(
            "ss5d",
            BENCH_N,
            algorithm,
            Some(0),
            resolved_all,
            warmup,
            reps,
            &par5,
        ));
    }
    drop(pts_3);
    drop(pts_5);

    // Tier 2: large n, ss3d, thread sweep (1 warm-up, min of 3; the huge tier
    // runs each cell once, cold — at 10^7 a single repetition is already
    // minutes of work and first-touch effects are amortized away).
    let mut sizes = vec![(LARGE_N, 1usize, 3usize)];
    if huge {
        sizes.push((HUGE_N, 0, 1));
    }
    for (n, warmup, reps) in sizes {
        println!("  -- large-n tier: ss3d n={n} --");
        let pts = spreader_points::<3>(n);
        for algorithm in ["exact", "approx"] {
            let seq = bench_cell(warmup, reps, |s| {
                if algorithm == "exact" {
                    grid_exact_instrumented(&pts, params, BcpStrategy::TreeAssisted, s);
                } else {
                    rho_approx_instrumented(&pts, params, DEFAULT_RHO, s);
                }
            });
            entries.push(bench_entry(
                "ss3d", n, algorithm, None, 1, warmup, reps, &seq,
            ));
            // 1/2/4/all workers, deduplicated by resolved count.
            let mut seen = Vec::new();
            for threads in [Some(1), Some(2), Some(4), Some(0)] {
                let resolved = resolve_threads(threads);
                if seen.contains(&resolved) {
                    continue;
                }
                seen.push(resolved);
                let r = bench_cell(warmup, reps, |s| {
                    if algorithm == "exact" {
                        run_on(&pts, EXACT, params, threads, s);
                    } else {
                        run_on(&pts, approx(DEFAULT_RHO), params, threads, s);
                    }
                });
                entries.push(bench_entry(
                    "ss3d", n, algorithm, threads, resolved, warmup, reps, &r,
                ));
            }
        }
    }

    let json = format!(
        "{{\"schema\":\"dbscan-bench-core/v2\",\"eps\":{DEFAULT_EPS},\"rho\":{DEFAULT_RHO},\
         \"min_pts\":{},\"cores\":{cores},\"entries\":[{}]}}\n",
        scale.min_pts,
        entries.join(",")
    );
    let path = PathBuf::from("BENCH_core.json");
    std::fs::write(&path, json.clone()).expect("write BENCH_core.json");
    // Perf trajectory: every recorded run also appends one line to
    // BENCH_history.jsonl (unix timestamp + the same envelope), so successive
    // recordings remain comparable after BENCH_core.json is overwritten.
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let line = format!("{{\"recorded_unix\":{ts},\"run\":{}}}\n", json.trim_end());
    let mut history = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("BENCH_history.jsonl")
        .expect("open BENCH_history.jsonl");
    std::io::Write::write_all(&mut history, line.as_bytes()).expect("append bench history");
    println!(
        "baseline written to {} (history appended)\n",
        path.display()
    );
}

// --------------------------------------------------------------------------
// Label fingerprints (bit-identity canary)
// --------------------------------------------------------------------------

/// FNV-1a-64 over a canonical byte rendering of the assignments — per point
/// a discriminant byte (0 noise, 1 core, 2 border) and the point's
/// little-endian `u32` cluster ids (border lists are sorted and deduped by
/// construction, so the rendering is unique per clustering) — with
/// `num_clusters` added to the hash. Unlike the daemon's `label_hash`, which
/// sees one flat label per point, it covers every cluster of a border point.
fn label_fingerprint(c: &Clustering) -> u64 {
    let mut h = Fnv1a::default();
    for a in &c.assignments {
        match a {
            dbscan_core::Assignment::Core(id) => {
                h.write(&[1]);
                h.write(&id.to_le_bytes());
            }
            dbscan_core::Assignment::Border(ids) => {
                h.write(&[2]);
                for id in ids {
                    h.write(&id.to_le_bytes());
                }
            }
            dbscan_core::Assignment::Noise => h.write(&[0]),
        }
    }
    (c.num_clusters as u64).wrapping_add(h.finish())
}

/// Prints one `dataset algorithm mode fingerprint` line per cell of the bench
/// matrix (n = 20k, ss3d + ss5d, exact + approx, sequential + all-cores
/// parallel), then the blob-and-shell rows of [`labels_shell3d`]. The output
/// is deterministic, so diffing it across code changes is a bit-identity
/// check of the full label output: `scripts/verify.sh` and CI diff it
/// against `BENCH_labels.txt`.
fn labels_cmd(scale: &Scale) {
    println!("== Label fingerprints: fixed seed-spreader matrix (n = 20k) ==");
    const BENCH_N: usize = 20_000;
    let params = DbscanParams::new(DEFAULT_EPS, scale.min_pts).unwrap();
    let run = |dataset: &str, clusterings: [(&str, &str, Clustering); 4]| {
        for (algorithm, mode, c) in clusterings {
            println!(
                "labels {dataset} {algorithm} {mode} {:016x}",
                label_fingerprint(&c)
            );
        }
    };
    let pts3 = spreader_points::<3>(BENCH_N);
    run(
        "ss3d",
        [
            ("exact", "seq", grid_exact(&pts3, params)),
            (
                "exact",
                "par",
                run_on(&pts3, EXACT, params, Some(0), &NoStats),
            ),
            ("approx", "seq", rho_approx(&pts3, params, DEFAULT_RHO)),
            (
                "approx",
                "par",
                run_on(&pts3, approx(DEFAULT_RHO), params, Some(0), &NoStats),
            ),
        ],
    );
    drop(pts3);
    let pts5 = spreader_points::<5>(BENCH_N);
    run(
        "ss5d",
        [
            ("exact", "seq", grid_exact(&pts5, params)),
            (
                "exact",
                "par",
                run_on(&pts5, EXACT, params, Some(0), &NoStats),
            ),
            ("approx", "seq", rho_approx(&pts5, params, DEFAULT_RHO)),
            (
                "approx",
                "par",
                run_on(&pts5, approx(DEFAULT_RHO), params, Some(0), &NoStats),
            ),
        ],
    );
    drop(pts5);
    labels_shell3d();
}

/// The blob-and-shell rows of `repro labels` (n = 20,020): every blob–shell
/// pair sits in the slack band (ε, ε(1+ρ)], so here the exact and the two
/// ρ-approximate oracles may all answer differently, and a change to either
/// oracle moves a fingerprint. An approximate row is printed only when its
/// clustering passes the Sandwich Theorem check against the exact runs at ε
/// and ε(1+ρ); otherwise a `labels-fail` line names the violation.
fn labels_shell3d() {
    use dbscan_datagen::hard::blob_and_shell;
    // A large instance, whose blob–shell pairs exceed the brute-force limit
    // (counter-only decides them with a Lemma 5 counter; the exact front
    // end of exact and probe-first rules them out with its box filter), and
    // a small one 10ε away, whose pairs stay under the limit: probe-first
    // answers those exactly, counter-only may join them.
    let mut pts = blob_and_shell::<3>(2_000, 16_000, 1.0, DEFAULT_RHO, DATASET_SEED);
    let small = blob_and_shell::<3>(20, 2_000, 1.0, DEFAULT_RHO, DATASET_SEED + 1);
    pts.extend(small.iter().map(|p| Point([p[0] + 10.0, p[1], p[2]])));
    let params = DbscanParams::new(1.0, 10).unwrap();
    let exact = grid_exact(&pts, params);
    let outer = grid_exact(&pts, params.inflate(DEFAULT_RHO));
    let print = |algorithm: &str, mode: &str, c: &Clustering| {
        println!(
            "labels shell3d {algorithm} {mode} {:016x}",
            label_fingerprint(c)
        );
    };
    print("exact", "seq", &exact);
    print(
        "exact",
        "par",
        &run_on(&pts, EXACT, params, Some(0), &NoStats),
    );
    for (name, oracle) in [
        ("approx", ApproxOracle::ProbeFirst),
        ("approx-counter", ApproxOracle::CounterOnly),
    ] {
        for (mode, threads) in [("seq", 1), ("par", 0)] {
            let algorithm = Algorithm::Approx {
                rho: DEFAULT_RHO,
                oracle,
            };
            let c = run_on(&pts, algorithm, params, Some(threads), &NoStats);
            match check_sandwich(&exact, &c, &outer) {
                SandwichOutcome::Holds => print(name, mode, &c),
                violated => println!("labels-fail shell3d {name} {mode} {violated:?}"),
            }
        }
    }
}

// --------------------------------------------------------------------------
// Theorem 3 empirical check
// --------------------------------------------------------------------------

fn sandwich(scale: &Scale) {
    println!("== Theorem 3 (sandwich) empirical check ==");
    let n = (scale.default_n / 10).max(2_000);
    let pts = spreader_points::<3>(n);
    let mut t = Table::new(vec!["rho", "outcome"]);
    for rho in [0.001, 0.01, 0.1, 0.5] {
        let params = DbscanParams::new(DEFAULT_EPS, scale.min_pts).unwrap();
        let inner = grid_exact(&pts, params);
        let approx = rho_approx(&pts, params, rho);
        let outer = grid_exact(&pts, params.inflate(rho));
        let outcome = match check_sandwich(&inner, &approx, &outer) {
            SandwichOutcome::Holds => "holds".to_string(),
            other => format!("VIOLATED: {other:?}"),
        };
        t.push_row(vec![format!("{rho}"), outcome]);
    }
    println!("{}", t.render());
}

// --------------------------------------------------------------------------
// loadgen: concurrent client harness for `dbscan serve`
// --------------------------------------------------------------------------

/// What a single loadgen client expects its job to resolve to.
#[derive(Clone, Copy, PartialEq)]
enum JobKind {
    Healthy,
    Faulted,
    PastDeadline,
}

struct JobOutcome {
    kind: JobKind,
    latency_ms: f64,
    state: String,
    outcome: String,
    error_code: String,
    shed_retries: u64,
    degraded: bool,
    ok: bool,
    /// Inline Chrome trace, when the job requested one (`--traced`).
    trace: Option<String>,
}

/// `repro crashchaos`: crash-durability drill — SIGKILL a journaled daemon
/// mid-burst and prove the restart loses nothing that was acked.
///
/// The drill: spawn `dbscan serve --journal DIR --journal-sync always`,
/// submit a burst of paused jobs, deliver a few results, SIGKILL the daemon
/// at a seeded point, restart it on the same journal, and interrogate every
/// acked id. The recovery invariant: a job whose result was delivered
/// pre-kill has a durable tombstone and must answer `unknown_job` (it is
/// never executed twice); every other acked job must resolve to `done` with
/// a label hash bit-identical to the standalone run (carrying
/// `recovered:true`) or `unknown_job` (terminal pre-kill, result consumed
/// by the crash — results are consume-once). The daemon's `recovered_jobs`
/// counter must equal the replayed count exactly, and the journal must have
/// compacted below its trigger by quiescence. All randomness (kill point,
/// pre-kill dwell) is SplitMix64 from `--seed`; no wall clock.
fn crashchaos(argv: Vec<String>) -> i32 {
    use dbscan_server::json::{obj, parse, Value};
    use dbscan_server::{label_hash, Client};
    use std::process::{Command, Stdio};
    use std::time::Duration;

    let mut bin = PathBuf::from("target/release/dbscan");
    let mut jobs = 18usize;
    let mut seed = 42u64;
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        let mut val = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--bin" => bin = PathBuf::from(val("--bin")),
            "--jobs" => jobs = val("--jobs").parse().expect("--jobs: integer"),
            "--seed" => seed = val("--seed").parse().expect("--seed: integer"),
            "--help" | "-h" => {
                eprintln!("usage: repro crashchaos [--bin PATH] [--jobs N] [--seed N]");
                return 0;
            }
            other => {
                eprintln!("crashchaos: unknown flag '{other}'");
                return 2;
            }
        }
    }
    if jobs < 6 {
        eprintln!("crashchaos: --jobs must be at least 6 for a meaningful kill window");
        return 2;
    }
    if !bin.exists() {
        eprintln!(
            "crashchaos: daemon binary {} not found (run `cargo build --release` or pass --bin)",
            bin.display()
        );
        return 2;
    }

    const COMPACT_BYTES: u64 = 65_536;
    let base = std::env::temp_dir().join(format!("dbscan-crashchaos-{}", std::process::id()));
    let journal_dir = base.join("journal");
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&journal_dir).expect("create journal dir");
    let sock = base.join("daemon.sock");

    // Standalone ground truth for the burst's one dataset: replayed jobs
    // must reproduce this hash bit-for-bit.
    let pts = spreader_points::<2>(1_200);
    let params = DbscanParams::new(DEFAULT_EPS, 10).unwrap();
    let expected = format!(
        "{:016x}",
        label_hash(&grid_exact(&pts, params).flat_labels())
    );
    let points_json = Value::Arr(
        pts.iter()
            .map(|p| Value::Arr(p.0.iter().map(|&c| Value::Num(c)).collect()))
            .collect(),
    );

    // SplitMix64 over --seed: the kill point and the pre-kill dwell are the
    // only random choices, and both replay exactly for a given seed.
    let mut rng_state = seed;
    let mut rng = move || {
        rng_state = rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };

    let spawn_daemon = |tag: &str| {
        let out = std::fs::File::create(base.join(format!("{tag}.stdout"))).expect("stdout file");
        let err = std::fs::File::create(base.join(format!("{tag}.stderr"))).expect("stderr file");
        Command::new(&bin)
            .arg("serve")
            .arg("--socket")
            .arg(&sock)
            .arg("--journal")
            .arg(&journal_dir)
            .args(["--journal-sync", "always"])
            .arg("--journal-compact-bytes")
            .arg(COMPACT_BYTES.to_string())
            .args(["--workers", "2", "--max-queue", "64", "--log-level", "warn"])
            .stdout(Stdio::from(out))
            .stderr(Stdio::from(err))
            .spawn()
            .expect("spawn daemon")
    };

    let submit_req = |i: usize| {
        obj(vec![
            ("verb", Value::Str("submit".to_string())),
            ("points", points_json.clone()),
            ("eps", Value::Num(params.eps())),
            ("min_pts", Value::Num(params.min_pts() as f64)),
            ("tag", Value::Str(format!("chaos-{i}"))),
            ("labels", Value::Bool(false)),
            // A worker dwell long enough that the SIGKILL lands mid-burst.
            ("pause_ms", Value::Num(25.0)),
        ])
    };
    let result_req = |id: u64| {
        obj(vec![
            ("verb", Value::Str("result".to_string())),
            ("job", Value::Num(id as f64)),
            ("timeout_ms", Value::Num(60_000.0)),
        ])
    };

    println!(
        "== crashchaos: {jobs} jobs, seed {seed:#x}, journal {} ==",
        journal_dir.display()
    );
    let mut child = spawn_daemon("daemon1");
    let mut client =
        Client::connect_unix_retry(&sock, Duration::from_secs(10)).expect("connect to daemon");

    // Phase 1: submit part of the burst, consume a few results (minting
    // durable tombstones), submit the rest, then SIGKILL at a seeded dwell.
    let kill_after = jobs / 3 + (rng() as usize) % (jobs / 3);
    let mut acked: Vec<u64> = Vec::new();
    for i in 0..kill_after {
        let resp = client.call(&submit_req(i)).expect("submit");
        if resp.get("ok").and_then(Value::as_bool) != Some(true) {
            let _ = child.kill();
            let _ = child.wait();
            return chaos_fail(
                &base,
                &format!("submit {i} not admitted: {}", resp.to_line()),
            );
        }
        acked.push(resp.get("job").and_then(Value::as_u64).expect("job id"));
    }
    let mut delivered: Vec<u64> = Vec::new();
    for &id in acked.iter().take(3) {
        let resp = client.call(&result_req(id)).expect("result");
        if resp.get("state").and_then(Value::as_str) != Some("done")
            || resp.get("label_hash").and_then(Value::as_str) != Some(expected.as_str())
        {
            let _ = child.kill();
            let _ = child.wait();
            return chaos_fail(
                &base,
                &format!("pre-kill result wrong for job {id}: {}", resp.to_line()),
            );
        }
        delivered.push(id);
    }
    for i in kill_after..jobs {
        let resp = client.call(&submit_req(i)).expect("submit");
        if resp.get("ok").and_then(Value::as_bool) != Some(true) {
            let _ = child.kill();
            let _ = child.wait();
            return chaos_fail(
                &base,
                &format!("submit {i} not admitted: {}", resp.to_line()),
            );
        }
        acked.push(resp.get("job").and_then(Value::as_u64).expect("job id"));
    }
    std::thread::sleep(Duration::from_millis(rng() % 40));
    // `Child::kill` is SIGKILL on unix: no drain, no destructors, nothing
    // survives but what fsync already put on disk.
    child.kill().expect("SIGKILL daemon");
    let _ = child.wait();
    drop(client);
    println!(
        "crashchaos: SIGKILLed daemon after {} acks ({} results delivered)",
        acked.len(),
        delivered.len()
    );

    // Phase 2: restart on the same journal and interrogate every acked id.
    let mut child2 = spawn_daemon("daemon2");
    let mut client = Client::connect_unix_retry(&sock, Duration::from_secs(10)).expect("reconnect");
    let mut replayed = 0u64;
    for &id in &acked {
        let resp = client.call(&result_req(id)).expect("post-restart result");
        let tombstoned = resp
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str)
            == Some("unknown_job");
        if delivered.contains(&id) {
            if !tombstoned {
                let _ = child2.kill();
                let _ = child2.wait();
                return chaos_fail(
                    &base,
                    &format!(
                        "delivered job {id} was re-run after restart: {}",
                        resp.to_line()
                    ),
                );
            }
            continue;
        }
        if tombstoned {
            // Terminal before the kill, result consumed by the crash: legal
            // (results are consume-once), just no longer replayable.
            continue;
        }
        if resp.get("state").and_then(Value::as_str) != Some("done")
            || resp.get("label_hash").and_then(Value::as_str) != Some(expected.as_str())
            || resp.get("recovered").and_then(Value::as_bool) != Some(true)
        {
            let _ = child2.kill();
            let _ = child2.wait();
            return chaos_fail(
                &base,
                &format!(
                    "job {id} did not replay bit-identically: {}",
                    resp.to_line()
                ),
            );
        }
        replayed += 1;
    }
    if replayed == 0 {
        let _ = child2.kill();
        let _ = child2.wait();
        return chaos_fail(
            &base,
            "kill landed after the burst drained; nothing was replayed (raise --jobs)",
        );
    }
    let health = client
        .call(&obj(vec![("verb", Value::Str("health".to_string()))]))
        .expect("health");
    let recovered_jobs = health
        .get("stats")
        .and_then(|s| s.get("recovered_jobs"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    if recovered_jobs != replayed {
        let _ = child2.kill();
        let _ = child2.wait();
        return chaos_fail(
            &base,
            &format!("recovered_jobs={recovered_jobs} but {replayed} jobs replayed"),
        );
    }

    // Graceful shutdown; the final stats envelope lands on daemon2's stdout.
    let _ = client.call(&obj(vec![("verb", Value::Str("shutdown".to_string()))]));
    drop(client);
    let _ = child2.wait();
    let stdout = std::fs::read_to_string(base.join("daemon2.stdout")).unwrap_or_default();
    let envelope = stdout
        .lines()
        .rev()
        .find(|l| l.trim_start().starts_with('{'))
        .and_then(|l| parse(l.trim()).ok());
    let Some(envelope) = envelope else {
        return chaos_fail(&base, "daemon2 printed no stats envelope on stdout");
    };
    let jstat = |k: &str| {
        envelope
            .get("journal")
            .and_then(|j| j.get(k))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let (jbytes, compactions) = (jstat("bytes"), jstat("compactions"));
    let disk = std::fs::metadata(journal_dir.join(dbscan_server::journal::JOURNAL_FILE))
        .map(|m| m.len())
        .unwrap_or(0);
    if compactions == 0 || jbytes > COMPACT_BYTES || disk > COMPACT_BYTES {
        return chaos_fail(
            &base,
            &format!(
                "journal failed to compact (bytes={jbytes} disk={disk} \
                 compactions={compactions} trigger={COMPACT_BYTES})"
            ),
        );
    }

    println!(
        "crashchaos: recovery invariant ok (acked={} delivered={} replayed={replayed} \
         recovered_jobs={recovered_jobs})",
        acked.len(),
        delivered.len()
    );
    println!(
        "crashchaos: journal compacted to {disk} bytes (trigger {COMPACT_BYTES}, \
         compactions {compactions})"
    );
    let _ = std::fs::remove_dir_all(&base);
    0
}

fn chaos_fail(base: &Path, msg: &str) -> i32 {
    eprintln!("crashchaos: FAIL: {msg}");
    eprintln!("crashchaos: artifacts kept in {}", base.display());
    1
}

fn loadgen(argv: Vec<String>) -> i32 {
    use dbscan_server::json::{obj, Value};
    use dbscan_server::{Backoff, Client};

    let mut socket: Option<PathBuf> = None;
    let mut connect: Option<String> = None;
    let mut jobs = 16usize;
    let mut faulted = 0usize;
    let mut past_deadline = 0usize;
    let mut traced = 0usize;
    let mut out = PathBuf::from("results");
    let mut metrics_out: Option<PathBuf> = None;
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        let mut val = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--socket" => socket = Some(PathBuf::from(val("--socket"))),
            "--connect" => connect = Some(val("--connect")),
            "--jobs" => jobs = val("--jobs").parse().expect("--jobs: integer"),
            "--faulted" => faulted = val("--faulted").parse().expect("--faulted: integer"),
            "--past-deadline" => {
                past_deadline = val("--past-deadline")
                    .parse()
                    .expect("--past-deadline: integer");
            }
            "--traced" => traced = val("--traced").parse().expect("--traced: integer"),
            "--out" => out = PathBuf::from(val("--out")),
            "--metrics-out" => metrics_out = Some(PathBuf::from(val("--metrics-out"))),
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro loadgen (--socket PATH | --connect HOST:PORT) [--jobs N] \
                     [--faulted N] [--past-deadline N] [--out DIR] [--metrics-out FILE] \
                     [--traced N]"
                );
                return 0;
            }
            other => {
                eprintln!("loadgen: unknown flag '{other}'");
                return 2;
            }
        }
    }
    if socket.is_none() == connect.is_none() {
        eprintln!("loadgen: exactly one of --socket or --connect is required");
        return 2;
    }
    if faulted + past_deadline > jobs {
        eprintln!("loadgen: --faulted + --past-deadline exceed --jobs");
        return 2;
    }
    let dial = move || -> std::io::Result<Client> {
        match (&socket, &connect) {
            (Some(path), _) => Client::connect_unix(path),
            (_, Some(addr)) => Client::connect_tcp(addr),
            _ => unreachable!(),
        }
    };

    // One shared dataset: small enough that a 16-job burst resolves in
    // seconds even on the 1-core box, big enough to be non-trivial.
    let pts = spreader_points::<2>(2_000);
    let points_json = Value::Arr(
        pts.iter()
            .map(|p| Value::Arr(p.0.iter().map(|&c| Value::Num(c)).collect()))
            .collect(),
    );
    let params = DbscanParams::new(DEFAULT_EPS, 10).unwrap();

    // Probe the daemon before unleashing the burst.
    {
        let mut probe = match dial() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("loadgen: cannot reach daemon: {e}");
                return 1;
            }
        };
        let health = probe
            .call(&obj(vec![("verb", Value::Str("health".to_string()))]))
            .expect("health call");
        if health.get("ok").and_then(Value::as_bool) != Some(true) {
            eprintln!("loadgen: daemon unhealthy: {}", health.to_line());
            return 1;
        }
    }

    // Optional server-side metrics poller: scrape the `metrics` verb on a
    // short interval for the duration of the burst, so the BENCH artifact
    // captures queue depth and shed/degraded counts *during* the load, not
    // just the quiescent totals.
    let poll_stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let poller = metrics_out.as_ref().map(|_| {
        let stop = std::sync::Arc::clone(&poll_stop);
        let dial = dial.clone();
        std::thread::spawn(move || -> Vec<(f64, Vec<(String, f64)>)> {
            let mut samples = Vec::new();
            let t0 = std::time::Instant::now();
            let mut client = match dial() {
                Ok(c) => c,
                Err(_) => return samples,
            };
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                if let Ok(text) = client.metrics_text() {
                    samples.push((
                        t0.elapsed().as_secs_f64() * 1e3,
                        dbscan_server::parse_exposition(&text),
                    ));
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            samples
        })
    });

    println!(
        "== loadgen: {jobs} concurrent jobs ({faulted} faulted, {past_deadline} past-deadline) =="
    );
    let t_all = std::time::Instant::now();
    let workers: Vec<std::thread::JoinHandle<JobOutcome>> = (0..jobs)
        .map(|i| {
            let kind = if i < faulted {
                JobKind::Faulted
            } else if i < faulted + past_deadline {
                JobKind::PastDeadline
            } else {
                JobKind::Healthy
            };
            let points_json = points_json.clone();
            let dial = dial.clone();
            let want_trace =
                matches!(kind, JobKind::Healthy) && i < faulted + past_deadline + traced;
            std::thread::spawn(move || {
                let mut client = dial().expect("connect");
                let mut members = vec![
                    ("verb", Value::Str("submit".to_string())),
                    ("points", points_json),
                    ("eps", Value::Num(params.eps())),
                    ("min_pts", Value::Num(params.min_pts() as f64)),
                    ("tag", Value::Str(format!("loadgen-{i}"))),
                    // Skip the label payload: loadgen measures service
                    // latency, not transfer of 2000-element arrays.
                    ("labels", Value::Bool(false)),
                ];
                if want_trace {
                    members.push(("trace", Value::Str("chrome".to_string())));
                }
                match kind {
                    JobKind::Faulted => {
                        members.push(("faults", Value::Str("seed=42,edge=1".to_string())));
                        members.push(("recovery", Value::Str("fail".to_string())));
                    }
                    JobKind::PastDeadline => {
                        members.push(("deadline", Value::Str("1ms".to_string())));
                        members.push(("pause_ms", Value::Num(100.0)));
                    }
                    JobKind::Healthy => {}
                }
                let req = obj(members);
                let t0 = std::time::Instant::now();
                // Seeded jittered exponential backoff so shed clients don't
                // retry in lockstep; honours `retry_after_ms` when present.
                // Seed derives from the job index, keeping bursts
                // deterministic run-to-run.
                let mut backoff = Backoff::new(
                    0x10ad_6e4e_u64 ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    1_000,
                );
                let resp = client.call_retrying(&req, &mut backoff).expect("submit");
                let shed_retries = backoff.retries;
                let job = if resp.get("ok").and_then(Value::as_bool) == Some(true) {
                    resp.get("job").and_then(Value::as_u64).expect("job id")
                } else {
                    let code = resp
                        .get("error")
                        .and_then(|e| e.get("code"))
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_string();
                    return JobOutcome {
                        kind,
                        latency_ms: t0.elapsed().as_secs_f64() * 1e3,
                        state: "rejected".to_string(),
                        outcome: String::new(),
                        error_code: code,
                        shed_retries,
                        degraded: false,
                        ok: false,
                        trace: None,
                    };
                };
                let resp = client
                    .call(&obj(vec![
                        ("verb", Value::Str("result".to_string())),
                        ("job", Value::Num(job as f64)),
                    ]))
                    .expect("result");
                let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                let state = resp
                    .get("state")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string();
                let outcome = resp
                    .get("outcome")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string();
                let error_code = resp
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string();
                let trace = resp
                    .get("trace")
                    .and_then(Value::as_str)
                    .map(str::to_string);
                let ok = match kind {
                    JobKind::Healthy => {
                        state == "done"
                            && (outcome == "exact" || outcome == "degraded")
                            && (!want_trace || trace.is_some())
                    }
                    JobKind::Faulted => state == "failed" && error_code == "worker_panicked",
                    JobKind::PastDeadline => state == "failed" && error_code == "deadline_exceeded",
                };
                JobOutcome {
                    kind,
                    latency_ms,
                    state,
                    outcome: outcome.clone(),
                    error_code,
                    shed_retries,
                    degraded: outcome == "degraded",
                    ok,
                    trace,
                }
            })
        })
        .collect();
    let outcomes: Vec<JobOutcome> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();
    let wall_ms = t_all.elapsed().as_secs_f64() * 1e3;
    poll_stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let metric_samples = poller.map(|h| h.join().expect("metrics poller"));

    // Quiescence accounting from the daemon's own stats envelope.
    let stats = dial()
        .expect("reconnect")
        .call(&obj(vec![("verb", Value::Str("health".to_string()))]))
        .expect("health call");
    let stat = |k: &str| {
        stats
            .get("stats")
            .and_then(|s| s.get(k))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let (submitted, completed, failed, cancelled) = (
        stat("submitted"),
        stat("completed"),
        stat("failed"),
        stat("cancelled"),
    );
    let accounting_ok = submitted == completed + failed + cancelled;

    let mut t = Table::new(vec!["kind", "jobs", "ok", "shed retries", "degraded"]);
    for (kind, name) in [
        (JobKind::Healthy, "healthy"),
        (JobKind::Faulted, "faulted"),
        (JobKind::PastDeadline, "past-deadline"),
    ] {
        let of_kind: Vec<&JobOutcome> = outcomes.iter().filter(|o| o.kind == kind).collect();
        if of_kind.is_empty() {
            continue;
        }
        t.push_row(vec![
            name.to_string(),
            of_kind.len().to_string(),
            of_kind.iter().filter(|o| o.ok).count().to_string(),
            of_kind
                .iter()
                .map(|o| o.shed_retries)
                .sum::<u64>()
                .to_string(),
            of_kind.iter().filter(|o| o.degraded).count().to_string(),
        ]);
    }
    println!("{}", t.render());
    let all_ok = outcomes.iter().all(|o| o.ok);
    for o in outcomes.iter().filter(|o| !o.ok) {
        eprintln!(
            "loadgen: unexpected resolution: state={} outcome={} error={}",
            o.state, o.outcome, o.error_code
        );
    }
    println!(
        "loadgen: accounting {} (submitted={submitted} completed={completed} failed={failed} \
         cancelled={cancelled} shed={} degraded={}) wall={wall_ms:.0}ms",
        if accounting_ok { "ok" } else { "MISMATCH" },
        stat("shed_jobs"),
        stat("degraded_jobs"),
    );

    // Satellite cross-check: the `metrics` exposition and the stats envelope
    // project the same atomics, so they must agree exactly at quiescence.
    let expo = dial()
        .expect("reconnect")
        .metrics_text()
        .expect("metrics scrape");
    let parsed = dbscan_server::parse_exposition(&expo);
    let metric = |name: &str| {
        let full = format!("dbscan_server_{name}");
        parsed
            .iter()
            .find(|(n, _)| *n == full)
            .map(|(_, v)| *v as u64)
            .unwrap_or(0)
    };
    let metrics_match = metric("jobs_submitted_total") == submitted
        && metric("jobs_completed_total") == completed
        && metric("jobs_failed_total") == failed
        && metric("jobs_cancelled_total") == cancelled;
    println!(
        "loadgen: metrics cross-check {} (exposition submitted={} completed={} failed={} \
         cancelled={} worker_panics={})",
        if metrics_match { "ok" } else { "MISMATCH" },
        metric("jobs_submitted_total"),
        metric("jobs_completed_total"),
        metric("jobs_failed_total"),
        metric("jobs_cancelled_total"),
        metric("worker_panics_total"),
    );

    std::fs::create_dir_all(&out).expect("cannot create output directory");
    if let Some(tr) = outcomes.iter().find_map(|o| o.trace.as_ref()) {
        let trace_path = out.join("loadgen_trace.json");
        std::fs::write(&trace_path, tr).expect("cannot write trace");
        println!("loadgen: inline chrome trace -> {}", trace_path.display());
    }
    if let (Some(path), Some(samples)) = (&metrics_out, &metric_samples) {
        let keys = [
            "queue_depth",
            "jobs_running",
            "jobs_submitted_total",
            "jobs_completed_total",
            "jobs_failed_total",
            "jobs_cancelled_total",
            "jobs_shed_total",
            "jobs_degraded_total",
            "worker_panics_total",
        ];
        let mut json = String::from("{\n  \"schema\": \"dbscan-loadgen-metrics/v1\",\n");
        json.push_str("  \"poll_interval_ms\": 100,\n");
        json.push_str(&format!("  \"num_samples\": {},\n", samples.len()));
        json.push_str("  \"samples\": [\n");
        for (i, (elapsed_ms, pairs)) in samples.iter().enumerate() {
            let get = |name: &str| {
                let full = format!("dbscan_server_{name}");
                pairs
                    .iter()
                    .find(|(n, _)| *n == full)
                    .map(|(_, v)| *v)
                    .unwrap_or(0.0)
            };
            json.push_str(&format!("    {{ \"elapsed_ms\": {elapsed_ms:.1}"));
            for k in keys {
                json.push_str(&format!(", \"{k}\": {}", get(k)));
            }
            json.push_str(&format!(
                " }}{}\n",
                if i + 1 < samples.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).expect("cannot create metrics-out directory");
        }
        std::fs::write(path, json).expect("cannot write metrics time-series");
        println!(
            "loadgen: server metrics time-series ({} samples) -> {}",
            samples.len(),
            path.display()
        );
    }

    // Log2 latency histogram: bucket k holds latencies in (2^(k-1), 2^k] ms.
    let mut lat: Vec<f64> = outcomes.iter().map(|o| o.latency_ms).collect();
    lat.sort_by(|a, b| a.total_cmp(b));
    let mut buckets: Vec<(u64, u64)> = Vec::new();
    for &ms in &lat {
        let le = (ms.max(1.0).log2().ceil() as u32).min(30);
        let le_ms = 1u64 << le;
        match buckets.last_mut() {
            Some((b, n)) if *b == le_ms => *n += 1,
            _ => buckets.push((le_ms, 1)),
        }
    }
    let quantile = |q: f64| lat[((lat.len() - 1) as f64 * q).round() as usize];
    std::fs::create_dir_all(&out).expect("cannot create output directory");
    let hist_path = out.join("loadgen_hist.json");
    let mut json = String::from("{\n  \"schema\": \"dbscan-loadgen-hist/v1\",\n");
    json.push_str(&format!("  \"jobs\": {},\n", lat.len()));
    json.push_str(&format!(
        "  \"p50_ms\": {:.3}, \"p90_ms\": {:.3}, \"max_ms\": {:.3},\n",
        quantile(0.50),
        quantile(0.90),
        lat.last().copied().unwrap_or(0.0)
    ));
    json.push_str("  \"log2_buckets_ms\": [\n");
    for (i, (le_ms, n)) in buckets.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"le_ms\": {le_ms}, \"count\": {n} }}{}\n",
            if i + 1 < buckets.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&hist_path, json).expect("cannot write histogram");
    println!(
        "loadgen: latency p50={:.1}ms p90={:.1}ms max={:.1}ms -> {}",
        quantile(0.50),
        quantile(0.90),
        lat.last().copied().unwrap_or(0.0),
        hist_path.display()
    );

    if all_ok && accounting_ok && metrics_match {
        0
    } else {
        1
    }
}

/// `repro monitor`: polls a live daemon's `timeseries` and `health` verbs,
/// prints a one-line-per-sample terminal dashboard, and writes the collected
/// window to `DIR/monitor.json` (`dbscan-monitor/v1`).
fn monitor(argv: Vec<String>) -> i32 {
    use dbscan_server::json::{obj, Value};
    use dbscan_server::Client;

    let mut socket: Option<PathBuf> = None;
    let mut connect: Option<String> = None;
    let mut interval_ms = 500u64;
    let mut samples_wanted = 10usize;
    let mut out = PathBuf::from("results");
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        let mut val = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--socket" => socket = Some(PathBuf::from(val("--socket"))),
            "--connect" => connect = Some(val("--connect")),
            "--interval-ms" => {
                interval_ms = val("--interval-ms")
                    .parse()
                    .expect("--interval-ms: integer")
            }
            "--samples" => samples_wanted = val("--samples").parse().expect("--samples: integer"),
            "--out" => out = PathBuf::from(val("--out")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro monitor (--socket PATH | --connect HOST:PORT) \
                     [--interval-ms N] [--samples N] [--out DIR]"
                );
                return 0;
            }
            other => {
                eprintln!("monitor: unknown flag '{other}'");
                return 2;
            }
        }
    }
    if socket.is_none() == connect.is_none() {
        eprintln!("monitor: exactly one of --socket or --connect is required");
        return 2;
    }
    let mut client = match (&socket, &connect) {
        (Some(path), _) => Client::connect_unix(path),
        (_, Some(addr)) => Client::connect_tcp(addr),
        _ => unreachable!(),
    }
    .unwrap_or_else(|e| {
        eprintln!("monitor: cannot reach daemon: {e}");
        std::process::exit(1);
    });

    println!(
        "== monitor: {samples_wanted} polls every {interval_ms}ms ==\n\
         {:>10} {:>6} {:>7} {:>9} {:>9} {:>8} {:>9} {:>8}",
        "uptime_ms", "queue", "running", "submitted", "completed", "failed", "thru/s", "cache%"
    );
    let mut collected: Vec<String> = Vec::new();
    let mut last_printed = 0u64;
    for _ in 0..samples_wanted {
        let resp = client
            .call(&obj(vec![("verb", Value::Str("timeseries".to_string()))]))
            .unwrap_or_else(|e| {
                eprintln!("monitor: timeseries call failed: {e}");
                std::process::exit(1);
            });
        if let Some(arr) = resp.get("samples").and_then(Value::as_arr) {
            for s in arr {
                let num = |k: &str| s.get(k).and_then(Value::as_f64).unwrap_or(0.0);
                let uptime = num("uptime_ms") as u64;
                if uptime <= last_printed {
                    continue; // already shown in a previous poll
                }
                last_printed = uptime;
                println!(
                    "{:>10} {:>6} {:>7} {:>9} {:>9} {:>8} {:>9.2} {:>7.0}%",
                    uptime,
                    num("queue_depth") as u64,
                    num("running") as u64,
                    num("submitted") as u64,
                    num("completed") as u64,
                    num("failed") as u64,
                    num("throughput_per_s"),
                    num("cache_hit_rate") * 100.0,
                );
                collected.push(s.to_line());
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }

    // Final health snapshot rides along in the artifact.
    let health = client
        .call(&obj(vec![("verb", Value::Str("health".to_string()))]))
        .unwrap_or_else(|e| {
            eprintln!("monitor: health call failed: {e}");
            std::process::exit(1);
        });
    let stats_line = health
        .get("stats")
        .map(Value::to_line)
        .unwrap_or_else(|| "null".to_string());

    std::fs::create_dir_all(&out).expect("cannot create output directory");
    let path = out.join("monitor.json");
    let mut json = String::from("{\n  \"schema\": \"dbscan-monitor/v1\",\n");
    json.push_str(&format!("  \"poll_interval_ms\": {interval_ms},\n"));
    json.push_str(&format!("  \"num_samples\": {},\n", collected.len()));
    json.push_str("  \"samples\": [\n");
    for (i, line) in collected.iter().enumerate() {
        json.push_str(&format!(
            "    {line}{}\n",
            if i + 1 < collected.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"final_health\": {stats_line}\n}}\n"));
    std::fs::write(&path, json).expect("cannot write monitor artifact");
    println!("monitor: {} samples -> {}", collected.len(), path.display());
    0
}
