//! `dbscan` — cluster a CSV of points from the command line.
//!
//! ```text
//! dbscan --input points.csv --eps 5000 --min-pts 100 [OPTIONS]
//!
//! OPTIONS
//!   --input FILE        CSV, one point per line, comma-separated coordinates
//!   --eps FLOAT         radius parameter (required)
//!   --min-pts INT       density threshold (required)
//!   --algorithm NAME    exact | approx | kdd96 | cit08 | gunawan2d [default: approx]
//!   --rho FLOAT         approximation ratio for 'approx'   [default: 0.001]
//!   --threads INT       parallel run with INT workers (0 = all cores);
//!                       'exact' and 'approx' only. Defaults to the
//!                       DBSCAN_THREADS environment variable when set
//!                       (same convention; unset = sequential run)
//!   --recovery POLICY   fail | fallback-sequential: what a parallel run does
//!                       when a worker panics [default: fail]; parallel runs
//!                       only (a usage error without --threads)
//!   --max-index-bytes N refuse index builds whose estimated footprint
//!                       exceeds N bytes (a typed error, not an OOM)
//!   --faults SPEC       deterministic fault-injection plan, e.g.
//!                       'seed=42,edge=1'; requires a binary built with
//!                       --features fault-injection; parallel runs only (a
//!                       usage error without --threads)
//!   --deadline DUR      wall-clock budget for the run, e.g. '500ms', '2s',
//!                       '1m' (suffixes: us, ms, s, m)
//!   --deadline-policy P abort | degrade | partial: what to do when the
//!                       budget expires [default: abort]
//!   --degrade-rho FLOAT the rho' used for approximate edge tests under
//!                       'degrade' [default: 0.001]
//!   --stall-timeout DUR declare the run wedged when a worker makes no
//!                       progress for DUR (escalates to the --recovery
//!                       policy); parallel runs only (a usage error without
//!                       --threads)
//!   --stats             print a dbscan-stats/v7 JSON line (per-phase wall
//!                       times and operation counters) to stdout
//!   --stats-out FILE    write the stats JSON to FILE instead of stdout
//!                       (implies stats collection; the summary stays on
//!                       stdout)
//!   --trace FILE        record an event-level trace (per-worker timelines,
//!                       task spans, steal/panic instants) and write it to
//!                       FILE; see dbscan_core::trace
//!   --trace-format FMT  chrome (trace-event JSON for chrome://tracing /
//!                       Perfetto) | folded (flamegraph stacks)
//!                       [default: chrome]
//!   --output FILE       labeled CSV (x1..xd,label; -1 = noise) [default: stdout summary only]
//!   --svg FILE          render an SVG scatter plot (2D inputs only)
//!   --quiet             suppress the summary
//! ```
//!
//! Dimensionality is inferred from the file (1–8 supported; `gunawan2d`
//! requires 2). Exit status is 0 on success, 2 on usage errors, 1 on I/O or
//! data errors, and 130 when the run was interrupted by SIGINT/SIGTERM.
//! Data errors print the library's typed diagnostics verbatim (malformed CSV
//! rows name the 1-based line and the offending token).
//!
//! The first SIGINT/SIGTERM cancels the in-flight run cooperatively (the
//! cancellation surfaces as a typed `cancelled` diagnostic and exit 130); a
//! second signal kills the process outright. Output files (`--output`,
//! `--stats-out`, `--trace`, `--svg`) are written atomically — a sibling
//! `.tmp` file renamed into place — so an interrupt never leaves a torn file.
//!
//! ```text
//! dbscan serve (--socket PATH | --listen ADDR) [OPTIONS]
//!
//! SERVE OPTIONS
//!   --socket PATH          serve a unix-domain socket at PATH
//!   --listen ADDR          serve TCP at ADDR (e.g. 127.0.0.1:7474; :0 picks
//!                          a free port, printed on startup)
//!   --max-queue N          shed submissions past N queued jobs [default: 64]
//!   --workers N            concurrent job executors [default: 2]
//!   --job-threads N        threads in the shared parallel pool [default: 1]
//!   --pressure-threshold D switch queued exact jobs to rho-approximate once
//!                          their queue age exceeds D (off by default)
//!   --overload-rho F       the rho used for pressure-degraded jobs [default: 0.01]
//!   --drain-deadline D     max drain time on SIGTERM/shutdown [default: 5s]
//!   --max-index-bytes N    per-request index-build byte budget
//!   --cache-bytes N        grid/core-structure cache budget [default: 64 MiB]
//!   --metrics-listen ADDR  serve the Prometheus text exposition over HTTP at
//!                          ADDR (scrape-only; the `metrics` verb works
//!                          without it)
//!   --log-level L          error|warn|info|debug [default: info]
//!   --log-file PATH        write JSON log lines to PATH instead of stderr
//!   --log-max-bytes N      rotate the log file to PATH.1 past N bytes
//!                          [default: 10 MiB]
//!   --sample-interval D    health time-series sampling period [default: 1s]
//!   --timeseries-cap N     health samples retained in the ring [default: 600]
//!   --trace-max-bytes N    byte cap for inline per-request traces
//!                          [default: 4 MiB]
//!   --journal DIR          write-ahead job journal in DIR: admitted submits
//!                          survive kill -9 and are re-run on restart
//!   --journal-sync MODE    always (fsync before each ack, the default) |
//!                          interval | interval=DUR (batched fsync)
//!   --journal-compact-bytes N  rewrite the journal keeping only live jobs
//!                          once it grows past N bytes [default: 8 MiB]
//!   --conn-timeout D       evict connections idle past D (slow-loris
//!                          defense; off by default)
//!   --max-frame-bytes N    hard cap per request frame; larger frames get a
//!                          typed frame_too_large error [default: 16 MiB]
//!   --max-conns N          concurrent connection cap; past it new
//!                          connections get too_many_conns [default: 1024]
//! ```
//!
//! The daemon speaks the newline-delimited JSON protocol documented in the
//! README ("Running as a service"); SIGTERM drains in-flight jobs under the
//! drain deadline and exits 0 with a final `dbscan-server-stats/v1` line on
//! stdout.
//!
//! The `--stats` JSON schema is documented in EXPERIMENTS.md: one object with
//! `schema: "dbscan-stats/v7"`, the run parameters, result summary, the
//! host's `cores`, and the `phases` / `phases_ns` / `counters` objects of
//! [`dbscan_core::StatsReport`]; parallel runs also record the resolved
//! worker count (`threads`), the raw request (`threads_requested`), and the
//! active `recovery` policy, traced runs (`--trace`) add the `histograms` and
//! `events_dropped` members, and budgeted runs (`--deadline`) add the
//! `deadline` object (budget, outcome, degraded-edge count, measured
//! cancellation latency, per-stage progress).

use dbscan_core::algorithms::{
    self, Algorithm, ApproxOracle, BcpStrategy, Cit08Config, Kdd96Index, Spec,
};
use dbscan_core::dim::MAX_DIM;
use dbscan_core::parallel::ParConfig;
use dbscan_core::{
    parse_duration, with_dim, Clustering, DbscanParams, DeadlineConfig, DeadlinePolicy,
    DeadlineReport, FaultPlan, NoStats, RecoveryPolicy, ResourceLimits, RunCtl, Stats, StatsSink,
    TraceFormat, TracedStats, Tracer,
};
use dbscan_datagen::io::{points_from_flat, read_csv_dynamic};
use dbscan_geom::Point;
use dbscan_server::signals;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug)]
struct Args {
    input: PathBuf,
    eps: f64,
    min_pts: usize,
    algorithm: String,
    rho: f64,
    threads: Option<usize>,
    recovery: Option<RecoveryPolicy>,
    max_index_bytes: Option<u64>,
    faults: Option<FaultPlan>,
    deadline: Option<Duration>,
    deadline_policy: DeadlinePolicy,
    degrade_rho: f64,
    stall_timeout: Option<Duration>,
    stats: bool,
    stats_out: Option<PathBuf>,
    trace: Option<PathBuf>,
    trace_format: TraceFormat,
    output: Option<PathBuf>,
    svg: Option<PathBuf>,
    quiet: bool,
}

impl Args {
    fn limits(&self) -> ResourceLimits {
        match self.max_index_bytes {
            Some(b) => ResourceLimits::with_max_index_bytes(b),
            None => ResourceLimits::UNLIMITED,
        }
    }

    fn deadline_config(&self) -> DeadlineConfig {
        DeadlineConfig {
            budget: self.deadline,
            policy: self.deadline_policy,
            degrade_rho: self.degrade_rho,
            stall_timeout: self.stall_timeout,
        }
    }
}

const USAGE: &str = "usage: dbscan --input FILE --eps FLOAT --min-pts INT \
     [--algorithm exact|approx|kdd96|cit08|gunawan2d] [--rho FLOAT] \
     [--threads INT (0 = all cores; default $DBSCAN_THREADS)] \
     [--recovery fail|fallback-sequential] [--max-index-bytes N] \
     [--faults SPEC (needs --features fault-injection)] \
     [--deadline DUR] [--deadline-policy abort|degrade|partial] \
     [--degrade-rho FLOAT] [--stall-timeout DUR] [--stats] \
     [--stats-out FILE] [--trace FILE] [--trace-format chrome|folded] \
     [--output FILE] [--svg FILE] [--quiet]\n\
     (or: dbscan serve --help for the clustering daemon)";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(raw: &str, flag: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: invalid value {raw:?}");
        std::process::exit(2);
    })
}

fn parse_args() -> Args {
    let mut input = None;
    let mut eps = None;
    let mut min_pts = None;
    let mut algorithm = "approx".to_string();
    let mut rho = 0.001;
    let mut threads = None;
    let mut recovery = None;
    let mut max_index_bytes = None;
    let mut faults = None;
    let mut deadline = None;
    let mut deadline_policy = DeadlinePolicy::default();
    let mut degrade_rho = 0.001;
    let mut stall_timeout = None;
    let mut stats = false;
    let mut stats_out = None;
    let mut trace = None;
    let mut trace_format = TraceFormat::default();
    let mut output = None;
    let mut svg = None;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--input" => input = Some(PathBuf::from(value("--input"))),
            "--eps" => eps = Some(parse_num(&value("--eps"), "--eps")),
            "--min-pts" => min_pts = Some(parse_num(&value("--min-pts"), "--min-pts")),
            "--algorithm" => algorithm = value("--algorithm"),
            "--rho" => rho = parse_num(&value("--rho"), "--rho"),
            "--threads" => threads = Some(parse_num(&value("--threads"), "--threads")),
            "--recovery" => {
                recovery = Some(value("--recovery").parse().unwrap_or_else(|e| {
                    eprintln!("--recovery: {e}");
                    std::process::exit(2);
                }))
            }
            "--max-index-bytes" => {
                max_index_bytes = Some(parse_num(&value("--max-index-bytes"), "--max-index-bytes"))
            }
            "--faults" => {
                let spec = value("--faults");
                if !cfg!(feature = "fault-injection") {
                    eprintln!(
                        "--faults: this binary was built without fault injection; \
                         rebuild with `cargo build -p dbscan-cli --features fault-injection`"
                    );
                    std::process::exit(2);
                }
                faults = Some(spec.parse().unwrap_or_else(|e| {
                    eprintln!("--faults: {e}");
                    std::process::exit(2);
                }));
            }
            "--deadline" => {
                deadline = Some(parse_duration(&value("--deadline")).unwrap_or_else(|e| {
                    eprintln!("--deadline: {e}");
                    std::process::exit(2);
                }))
            }
            "--deadline-policy" => {
                deadline_policy = value("--deadline-policy").parse().unwrap_or_else(|e| {
                    eprintln!("--deadline-policy: {e}");
                    std::process::exit(2);
                })
            }
            "--degrade-rho" => degrade_rho = parse_num(&value("--degrade-rho"), "--degrade-rho"),
            "--stall-timeout" => {
                stall_timeout = Some(parse_duration(&value("--stall-timeout")).unwrap_or_else(
                    |e| {
                        eprintln!("--stall-timeout: {e}");
                        std::process::exit(2);
                    },
                ))
            }
            "--stats" => stats = true,
            "--stats-out" => stats_out = Some(PathBuf::from(value("--stats-out"))),
            "--trace" => trace = Some(PathBuf::from(value("--trace"))),
            "--trace-format" => {
                trace_format = value("--trace-format").parse().unwrap_or_else(|e| {
                    eprintln!("--trace-format: {e}");
                    std::process::exit(2);
                })
            }
            "--output" => output = Some(PathBuf::from(value("--output"))),
            "--svg" => svg = Some(PathBuf::from(value("--svg"))),
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            _ => {
                eprintln!("unknown argument: {arg}");
                usage()
            }
        }
    }
    let (Some(input), Some(eps), Some(min_pts)) = (input, eps, min_pts) else {
        usage()
    };
    // Validate --rho before touching any data: a value the approx algorithm
    // would reject (non-positive, NaN/inf, degenerate-hierarchy small, or
    // overflowing eps·(1+ρ)) is a usage error naming the flag.
    if algorithm == "approx" {
        if let Err(e) = dbscan_core::error::validate_rho(eps, rho) {
            eprintln!("--rho: {e}");
            std::process::exit(2);
        }
    }
    // Same validation for the degrade rho', which only matters when the
    // degrade policy can actually fire (a budget is set).
    if deadline.is_some() && deadline_policy == DeadlinePolicy::Degrade {
        if let Err(e) = dbscan_core::error::validate_rho(eps, degrade_rho) {
            eprintln!("--degrade-rho: {e}");
            std::process::exit(2);
        }
    }
    // DBSCAN_THREADS is the default for --threads on the parallel-capable
    // algorithms (the core resolves it too, but only once a parallel entry
    // point is reached — routing must happen here). Reject unparsable values
    // up front instead of silently running sequentially.
    if threads.is_none() && matches!(algorithm.as_str(), "exact" | "approx") {
        if let Ok(raw) = std::env::var(dbscan_core::parallel::THREADS_ENV) {
            threads = Some(parse_num(raw.trim(), dbscan_core::parallel::THREADS_ENV));
        }
    }
    Args {
        input,
        eps,
        min_pts,
        algorithm,
        rho,
        threads,
        recovery,
        max_index_bytes,
        faults,
        deadline,
        deadline_policy,
        degrade_rho,
        stall_timeout,
        stats,
        stats_out,
        trace,
        trace_format,
        output,
        svg,
        quiet,
    }
}

/// Runs the selected algorithm, recording into `stats` (pass [`NoStats`] for
/// the plain uninstrumented path — the recording sites compile away).
///
/// The flags become one [`Spec`] and one [`algorithms::cluster`] call under
/// the caller-owned `ctl` — the one registered with the signal handler — so
/// SIGINT/SIGTERM cancels any algorithm cooperatively. Budgeted runs
/// (`--deadline`) share the same `ctl`; the caller reads the
/// [`DeadlineReport`] off it afterwards.
fn cluster<const D: usize, S: StatsSink>(
    args: &Args,
    points: &[Point<D>],
    params: DbscanParams,
    stats: &S,
    ctl: &RunCtl,
) -> Result<Clustering, String> {
    // `--threads 0` resolves to all available cores in the core's
    // `resolve_threads`; pass the requested value through unchanged.
    if args.threads.is_some() && !matches!(args.algorithm.as_str(), "exact" | "approx") {
        return Err(format!(
            "--threads is only supported for 'exact' and 'approx', not '{}'",
            args.algorithm
        ));
    }
    // These three only act on worker tasks of a parallel run; rather than
    // silently doing nothing on a sequential one, they are refused there.
    for (flag, given) in [
        ("--stall-timeout", args.stall_timeout.is_some()),
        ("--faults", args.faults.is_some()),
        ("--recovery", args.recovery.is_some()),
    ] {
        if given && args.threads.is_none() {
            return Err(format!("{flag} requires a parallel run (--threads)"));
        }
    }
    let algorithm = match args.algorithm.as_str() {
        "exact" => Algorithm::Exact(BcpStrategy::TreeAssisted),
        "approx" => Algorithm::Approx {
            rho: args.rho,
            oracle: ApproxOracle::ProbeFirst,
        },
        "kdd96" => Algorithm::Kdd96(Kdd96Index::KdTree),
        "cit08" => Algorithm::Cit08(Cit08Config::default()),
        "gunawan2d" => Algorithm::Gunawan2d,
        other => return Err(format!("unknown algorithm '{other}'")),
    };
    // A sequential run is the one-thread pool, with the default recovery
    // and no fault plan (the flags are refused above).
    let spec = Spec {
        algorithm,
        params,
        exec: ParConfig {
            threads: Some(args.threads.unwrap_or(1)),
            pool: None,
            recovery: args.recovery.unwrap_or_default(),
            limits: args.limits(),
            faults: args.faults.clone().unwrap_or_default(),
        },
    };
    // Typed library diagnostics are printed verbatim by `main`.
    algorithms::cluster(points, None, &spec, stats, ctl).map_err(|e| e.to_string())
}

/// The single-line `dbscan-stats/v7` JSON object for `--stats` /
/// `--stats-out`. Traced runs pass their tracer so the envelope carries the
/// `histograms` section and the `events_dropped` count; budgeted runs pass
/// their [`DeadlineReport`] so it carries the `deadline` object.
///
/// v6 = v5 plus host/thread provenance: `cores` (the machine's available
/// parallelism) is always present, and parallel runs record both the raw
/// request (`threads_requested`, e.g. `0` = all cores) and the
/// [`resolve_threads`](dbscan_core::parallel::resolve_threads) result the
/// run actually used (`threads`). v7 = v6 plus the blocked-kernel counters
/// (`block_kernel_calls`, `brute_force_cells`) and `kernel_block` (the
/// kernel chunk width, [`dbscan_core::kernels::BLOCK`]).
fn stats_envelope<const D: usize>(
    args: &Args,
    n: usize,
    clustering: &Clustering,
    report: &dbscan_core::StatsReport,
    tracer: Option<&Tracer>,
    deadline: Option<&DeadlineReport>,
) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut out = format!(
        "{{\"schema\":\"dbscan-stats/v7\",\"algorithm\":\"{}\",\"n\":{},\"dim\":{},\
         \"eps\":{},\"min_pts\":{},\"cores\":{},\"kernel_block\":{}",
        args.algorithm,
        n,
        D,
        args.eps,
        args.min_pts,
        cores,
        dbscan_core::kernels::BLOCK
    );
    if args.algorithm == "approx" {
        out.push_str(&format!(",\"rho\":{}", args.rho));
    }
    if let Some(t) = args.threads {
        out.push_str(&format!(
            ",\"threads\":{},\"threads_requested\":{t},\"recovery\":\"{}\"",
            dbscan_core::parallel::resolve_threads(Some(t)),
            args.recovery.unwrap_or_default().name()
        ));
    }
    out.push_str(&format!(
        ",\"num_clusters\":{},\"core\":{},\"border\":{},\"noise\":{},\"phases\":{},\
         \"phases_ns\":{},\"counters\":{}",
        clustering.num_clusters,
        clustering.core_count(),
        clustering.border_count(),
        clustering.noise_count(),
        report.phases_json(),
        report.phases_ns_json(),
        report.counters_json()
    ));
    if let Some(tracer) = tracer {
        out.push_str(&format!(
            ",\"histograms\":{},\"events_dropped\":{}",
            tracer.histograms().to_json(),
            tracer.events_dropped()
        ));
    }
    if let Some(dl) = deadline {
        out.push_str(&format!(",\"deadline\":{}", dl.to_json()));
    }
    out.push('}');
    out
}

/// Writes `contents` to a sibling `.tmp` file and renames it into place, so
/// readers (and an interrupt mid-write) never observe a torn file.
fn write_atomic(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let tmp = tmp_sibling(path);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map_or_else(|| std::ffi::OsString::from("out"), |n| n.to_os_string());
    name.push(".tmp");
    path.with_file_name(name)
}

fn run<const D: usize>(args: &Args, flat: &[f64]) -> Result<(), String> {
    let points: Vec<Point<D>> = points_from_flat(flat);
    let params = DbscanParams::new(args.eps, args.min_pts)
        .map_err(|e| format!("invalid parameters: {e}"))?;
    let start = std::time::Instant::now();
    // The run control the signal handler trips: always armed (cancellable even
    // without a --deadline), registered for the duration of the compute phase.
    // A signal that landed before registration must still cancel the run.
    let ctl = Arc::new(RunCtl::cancellable(&args.deadline_config()));
    signals::register_ctl(&ctl);
    if signals::shutdown_requested() {
        ctl.interrupt();
    }
    // --stats-out implies stats collection; --trace always collects both
    // layers (the envelope needs the histograms even when not printed).
    let want_stats = args.stats || args.stats_out.is_some();
    let budgeted = args.deadline.is_some();
    let mut stats_json = None;
    let outcome = if let Some(trace_path) = &args.trace {
        // One timeline per parallel worker plus the coordinator; sequential
        // runs only ever write lane 0.
        let lanes = match args.threads {
            Some(t) => dbscan_core::parallel::resolve_threads(Some(t)) + 1,
            None => 1,
        };
        let ts = TracedStats::new(lanes);
        cluster(args, &points, params, &ts, &ctl).and_then(|clustering| {
            let (rendered, _) = args.trace_format.render(&ts.tracer.snapshot(), usize::MAX);
            write_atomic(trace_path, rendered.as_bytes())
                .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
            if want_stats {
                stats_json = Some(stats_envelope::<D>(
                    args,
                    points.len(),
                    &clustering,
                    &ts.stats.report(),
                    Some(&ts.tracer),
                    budgeted.then(|| ctl.report()).as_ref(),
                ));
            }
            Ok(clustering)
        })
    } else if want_stats {
        let stats = Stats::new();
        cluster(args, &points, params, &stats, &ctl).inspect(|clustering| {
            stats_json = Some(stats_envelope::<D>(
                args,
                points.len(),
                clustering,
                &stats.report(),
                None,
                budgeted.then(|| ctl.report()).as_ref(),
            ));
        })
    } else {
        cluster(args, &points, params, &NoStats, &ctl)
    };
    // The compute phase is over (either way); signals past this point take
    // the default disposition path, and the writes below are atomic anyway.
    signals::clear_ctl();
    let clustering = outcome?;
    let elapsed = start.elapsed();

    let stats_on_stdout = stats_json.is_some() && args.stats_out.is_none();
    if let Some(json) = stats_json {
        match &args.stats_out {
            Some(path) => {
                write_atomic(path, (json + "\n").as_bytes())
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            }
            None => println!("{json}"),
        }
    }

    if !args.quiet {
        let summary = format!(
            "{} points ({}D), algorithm {}: {} clusters, {} core / {} border / {} noise in {:.3}s",
            points.len(),
            D,
            args.algorithm,
            clustering.num_clusters,
            clustering.core_count(),
            clustering.border_count(),
            clustering.noise_count(),
            elapsed.as_secs_f64()
        );
        let mut sizes = clustering.cluster_sizes();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let preview: Vec<usize> = sizes.iter().copied().take(10).collect();
        let sizes_line = format!("largest cluster sizes: {preview:?}");
        if stats_on_stdout {
            // --stats reserves stdout for the JSON line so it pipes cleanly;
            // with --stats-out the JSON went to a file and stdout is free.
            eprintln!("{summary}");
            eprintln!("{sizes_line}");
        } else {
            println!("{summary}");
            println!("{sizes_line}");
        }
    }

    if let Some(path) = &args.output {
        let labels: Vec<i64> = clustering
            .flat_labels()
            .into_iter()
            .map(|l| l.map_or(-1, |v| v as i64))
            .collect();
        let tmp = tmp_sibling(path);
        dbscan_datagen::io::write_labeled_csv(&tmp, &points, &labels)
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    if let Some(path) = &args.svg {
        if D == 2 {
            // Safe: D == 2 checked above, re-read the flat data as 2D.
            let pts2: Vec<Point<2>> = points_from_flat(flat);
            let tmp = tmp_sibling(path);
            dbscan_viz::svg::write_clusters(&tmp, &pts2, &clustering, 800, 800, 2.0)
                .and_then(|()| std::fs::rename(&tmp, path))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        } else {
            eprintln!("--svg ignored: input is {D}D, plotting requires 2D");
        }
    }
    Ok(())
}

const SERVE_USAGE: &str = "usage: dbscan serve (--socket PATH | --listen ADDR) \
     [--max-queue N] [--workers N] [--job-threads N] \
     [--pressure-threshold DUR] [--overload-rho FLOAT] [--drain-deadline DUR] \
     [--max-index-bytes N] [--cache-bytes N] [--metrics-listen ADDR] \
     [--log-level error|warn|info|debug] [--log-file PATH] [--log-max-bytes N] \
     [--sample-interval DUR] [--timeseries-cap N] [--trace-max-bytes N] \
     [--journal DIR] [--journal-sync always|interval|interval=DUR] \
     [--journal-compact-bytes N] [--conn-timeout DUR] [--max-frame-bytes N] \
     [--max-conns N]";

/// `dbscan serve`: runs the clustering daemon until SIGTERM/SIGINT or a
/// `shutdown` verb drains it. Exits 0 on a clean drain with the final
/// `dbscan-server-stats/v1` envelope on stdout.
fn serve_main(argv: Vec<String>) -> ExitCode {
    let mut cfg = dbscan_server::ServerConfig::default();
    let mut bound = None;
    let mut args = argv.into_iter();
    let parse_dur = |raw: String, flag: &str| -> Duration {
        parse_duration(&raw).unwrap_or_else(|e| {
            eprintln!("{flag}: {e}");
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                eprintln!("{SERVE_USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--socket" => {
                let path = PathBuf::from(value("--socket"));
                bound = Some(format!("unix {}", path.display()));
                cfg.bind = dbscan_server::Bind::Unix(path);
            }
            "--listen" => {
                let addr = value("--listen");
                bound = Some(format!("tcp {addr}"));
                cfg.bind = dbscan_server::Bind::Tcp(addr);
            }
            "--max-queue" => cfg.max_queue = parse_num(&value("--max-queue"), "--max-queue"),
            "--workers" => cfg.workers = parse_num(&value("--workers"), "--workers"),
            "--job-threads" => {
                cfg.job_threads = parse_num(&value("--job-threads"), "--job-threads")
            }
            "--pressure-threshold" => {
                cfg.pressure_threshold = Some(parse_dur(
                    value("--pressure-threshold"),
                    "--pressure-threshold",
                ))
            }
            "--overload-rho" => {
                cfg.overload_rho = parse_num(&value("--overload-rho"), "--overload-rho")
            }
            "--drain-deadline" => {
                cfg.drain_deadline = parse_dur(value("--drain-deadline"), "--drain-deadline")
            }
            "--max-index-bytes" => {
                cfg.max_index_bytes =
                    Some(parse_num(&value("--max-index-bytes"), "--max-index-bytes"))
            }
            "--cache-bytes" => {
                cfg.cache_bytes = parse_num(&value("--cache-bytes"), "--cache-bytes")
            }
            "--metrics-listen" => cfg.metrics_listen = Some(value("--metrics-listen")),
            "--log-level" => {
                let raw = value("--log-level");
                cfg.log_level = dbscan_server::Level::parse(&raw).unwrap_or_else(|| {
                    eprintln!("--log-level: unknown level {raw:?} (error|warn|info|debug)");
                    std::process::exit(2);
                });
            }
            "--log-file" => cfg.log_file = Some(PathBuf::from(value("--log-file"))),
            "--log-max-bytes" => {
                cfg.log_max_bytes = parse_num(&value("--log-max-bytes"), "--log-max-bytes")
            }
            "--sample-interval" => {
                cfg.sample_interval = parse_dur(value("--sample-interval"), "--sample-interval")
            }
            "--timeseries-cap" => {
                cfg.timeseries_cap = parse_num(&value("--timeseries-cap"), "--timeseries-cap")
            }
            "--trace-max-bytes" => {
                cfg.trace_max_bytes = parse_num(&value("--trace-max-bytes"), "--trace-max-bytes")
            }
            "--journal" => {
                let dir = PathBuf::from(value("--journal"));
                match &mut cfg.journal {
                    Some(jc) => jc.dir = dir,
                    None => cfg.journal = Some(dbscan_server::JournalConfig::new(dir)),
                }
            }
            "--journal-sync" => {
                let raw = value("--journal-sync");
                let sync = dbscan_server::JournalSync::parse_flag(&raw).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
                match &mut cfg.journal {
                    Some(jc) => jc.sync = sync,
                    None => {
                        eprintln!("--journal-sync requires --journal DIR (pass --journal first)");
                        std::process::exit(2);
                    }
                }
            }
            "--journal-compact-bytes" => {
                let bytes = parse_num(&value("--journal-compact-bytes"), "--journal-compact-bytes");
                match &mut cfg.journal {
                    Some(jc) => jc.compact_bytes = bytes,
                    None => {
                        eprintln!(
                            "--journal-compact-bytes requires --journal DIR (pass --journal first)"
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--conn-timeout" => {
                cfg.conn_timeout = Some(parse_dur(value("--conn-timeout"), "--conn-timeout"))
            }
            "--max-frame-bytes" => {
                cfg.max_frame_bytes = parse_num(&value("--max-frame-bytes"), "--max-frame-bytes")
            }
            "--max-conns" => cfg.max_conns = parse_num(&value("--max-conns"), "--max-conns"),
            "--help" | "-h" => {
                eprintln!("{SERVE_USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("{SERVE_USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(bound) = bound else {
        eprintln!("serve needs --socket PATH or --listen ADDR");
        eprintln!("{SERVE_USAGE}");
        return ExitCode::from(2);
    };
    signals::install();
    let handle = match dbscan_server::start(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot start server ({bound}): {e}");
            return ExitCode::from(1);
        }
    };
    // For `--listen host:0` the kernel picked the port; report the real one.
    match handle.tcp_addr {
        Some(addr) => eprintln!("dbscan-server listening on tcp {addr}"),
        None => eprintln!("dbscan-server listening on {bound}"),
    }
    if let Some(addr) = handle.metrics_addr {
        eprintln!("dbscan-server metrics on http://{addr}/metrics");
    }
    let stats = handle.wait();
    println!("{}", stats.to_line());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1).peekable();
    if raw.peek().map(String::as_str) == Some("serve") {
        return serve_main(raw.skip(1).collect());
    }
    drop(raw);
    // Batch path: the first SIGINT/SIGTERM cancels the run cooperatively
    // (exit 130), the second falls back to the default disposition.
    signals::install();
    let args = parse_args();
    let (dim, flat) = match read_csv_dynamic(&args.input) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.input.display());
            return ExitCode::from(1);
        }
    };
    let result = with_dim!(dim, D => run::<D>(&args, &flat)).unwrap_or_else(|| {
        Err(format!(
            "unsupported dimensionality {dim} (1-{MAX_DIM} supported)"
        ))
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if signals::shutdown_requested() {
                // 128 + SIGINT, the conventional "killed by Ctrl-C" status:
                // the run was interrupted, not wrong.
                ExitCode::from(130)
            } else {
                ExitCode::from(1)
            }
        }
    }
}
