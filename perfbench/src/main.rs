//! The repository's benchmark: one steady measurement from the library to
//! the daemon's socket.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-ss5d|serve-journal --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Human-readable tables go to standard
//! output first; the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). The exit code is
//! non-zero when any output check failed. Traces and run summaries are
//! written under `perfbench/out/`.

mod batch;
mod check;
mod data;
mod host;
mod library;
mod report;
mod serve;
mod summary;
mod trace;

use dbscan_server::json::{obj, parse, Value};
use report::{Outcome, END_TO_END, PER_LAYER, WALL_CLOCK};
use std::process::ExitCode;
use trace::Tracer;

pub const WORKLOADS: [&str; 2] = ["batch-ss5d", "serve-journal"];
/// Where runs leave sockets, journals, traces and summaries.
pub const OUT_DIR: &str = "perfbench/out";
/// Set-up is timed this many times per run: once before the timed phase
/// (that set-up serves it) and the rest spread evenly over it. The median
/// is reported.
pub const SETUP_REPEATS: usize = 11;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn provenance(args: &RunArgs) -> Value {
    let (n, d) = match args.workload.as_str() {
        "batch-ss5d" => (batch::N, batch::D),
        _ => (serve::N, serve::D),
    };
    obj(vec![
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds as f64)),
        ("trace", Value::Bool(args.trace)),
        ("n", Value::Num(n as f64)),
        ("d", Value::Num(d as f64)),
        ("eps", Value::Num(library::EPS)),
        ("min_pts", Value::Num(library::MIN_PTS as f64)),
        ("rho", Value::Num(library::RHO)),
        ("commit", Value::Str(host::commit())),
        ("nproc", Value::Num(host::nproc() as f64)),
        ("cpu_model", Value::Str(host::cpu_model())),
    ])
}

/// The untraced summary of the same workload and seed, if an earlier run
/// left one.
fn summary_path(args: &RunArgs) -> std::path::PathBuf {
    std::path::Path::new(OUT_DIR).join(format!("untraced-{}-seed{}.json", args.workload, args.seed))
}

/// Traced-minus-untraced difference of each end-to-end metric: what the
/// tracing itself costs.
fn tracing_overhead(args: &RunArgs, out: &Outcome) -> Value {
    let Some(prev) = std::fs::read_to_string(summary_path(args))
        .ok()
        .and_then(|t| parse(&t).ok())
    else {
        return Value::Str("no untraced run of this workload and seed to compare with".to_string());
    };
    obj(WALL_CLOCK
        .iter()
        .chain(END_TO_END)
        .filter_map(|m| {
            let untraced = prev.get(m.name)?.as_f64()?;
            let traced = *out.values.get(m.name)?;
            Some((m.name, Value::Num(traced - untraced)))
        })
        .collect())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let tracer = Tracer::new(args.trace);
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "batch-ss5d" => batch::run(&args, &tracer, &mut out),
        _ => serve::run(&args, &tracer, &mut out),
    }
    out.set("peak_rss_mb", host::peak_rss_mb());
    report::normalize(&mut out);
    out.set_error_rate();
    if let Some(&probe) = out.values.get("host.probe_ms") {
        out.note("host_probe_ms", Value::Num(probe));
    }

    println!(
        "== perfbench {} seed {} ({} s, trace {}) ==",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("end-to-end, wall clock:");
    print!("{}", report::table(&out, WALL_CLOCK));
    print!("{}", report::table(&out, &[report::ERROR_RATE]));
    println!("end-to-end, bounded:");
    print!("{}", report::table(&out, END_TO_END));
    if args.trace {
        let idle: Vec<Value> = PER_LAYER
            .iter()
            .filter(|m| !out.values.contains_key(m.name))
            .map(|m| Value::Str(m.name.to_string()))
            .collect();
        for m in PER_LAYER {
            out.values.entry(m.name).or_insert(0.0);
        }
        out.note("layers_not_exercised", Value::Arr(idle));
        out.note("tracing_overhead", tracing_overhead(&args, &out));
        println!("per-layer:");
        print!("{}", report::table(&out, PER_LAYER));
        let spans = tracer.spans();
        println!("span self time (total ms / self ms / count):");
        for (name, (total, own, count)) in trace::self_times(&spans) {
            println!(
                "  {name:<24} {:>12.3} {:>12.3} {count:>8}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let path = std::path::Path::new(OUT_DIR)
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match std::fs::write(&path, trace::chrome_json(&spans)) {
            Ok(()) => println!("trace: {} ({} spans)", path.display(), spans.len()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    } else {
        let summary = obj(WALL_CLOCK
            .iter()
            .chain(END_TO_END)
            .filter_map(|m| Some((m.name, Value::Num(*out.values.get(m.name)?))))
            .collect());
        let _ = std::fs::write(summary_path(&args), summary.to_line());
    }
    for e in &out.wrong {
        println!("WRONG: {e}");
    }
    let notes = Value::Obj(out.notes.clone());
    println!(
        "{}",
        obj(vec![("provenance", provenance(&args)), ("notes", notes)]).to_line()
    );
    let metrics = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", report::result_line(&out, metrics));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
