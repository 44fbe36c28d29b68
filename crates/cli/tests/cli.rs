//! End-to-end tests of the `dbscan` binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dbscan"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dbscan-cli-test-{}-{name}", std::process::id()))
}

fn write_two_blob_csv(path: &PathBuf) {
    let mut s = String::new();
    for i in 0..10 {
        s.push_str(&format!("{},0.0\n", i as f64 * 0.1));
        s.push_str(&format!("{},50.0\n", i as f64 * 0.1));
    }
    s.push_str("500.0,500.0\n"); // noise
    std::fs::write(path, s).unwrap();
}

#[test]
fn clusters_csv_and_writes_labels() {
    let input = tmp("in.csv");
    let output = tmp("out.csv");
    write_two_blob_csv(&input);
    let status = bin()
        .args(["--input"])
        .arg(&input)
        .args(["--eps", "0.5", "--min-pts", "3", "--algorithm", "exact"])
        .arg("--output")
        .arg(&output)
        .arg("--quiet")
        .status()
        .expect("run dbscan");
    assert!(status.success());
    let labeled = std::fs::read_to_string(&output).unwrap();
    let labels: Vec<i64> = labeled
        .lines()
        .map(|l| l.rsplit(',').next().unwrap().parse().unwrap())
        .collect();
    assert_eq!(labels.len(), 21);
    assert_eq!(labels[20], -1, "outlier must be noise");
    // Two distinct non-noise labels.
    let mut distinct: Vec<i64> = labels.iter().copied().filter(|&l| l >= 0).collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), 2);
    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&output).ok();
}

#[test]
fn all_algorithms_accepted() {
    let input = tmp("algos.csv");
    write_two_blob_csv(&input);
    for algo in ["exact", "approx", "kdd96", "cit08", "gunawan2d"] {
        let out = bin()
            .arg("--input")
            .arg(&input)
            .args(["--eps", "0.5", "--min-pts", "3", "--algorithm", algo])
            .output()
            .expect("run dbscan");
        assert!(out.status.success(), "{algo} failed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("2 clusters"), "{algo}: {stdout}");
    }
    std::fs::remove_file(&input).ok();
}

#[test]
fn stats_flag_emits_schema_json_for_every_algorithm() {
    let input = tmp("stats.csv");
    write_two_blob_csv(&input);
    for algo in ["exact", "approx", "kdd96", "cit08", "gunawan2d"] {
        let out = bin()
            .arg("--input")
            .arg(&input)
            .args([
                "--eps",
                "0.5",
                "--min-pts",
                "3",
                "--algorithm",
                algo,
                "--stats",
            ])
            .output()
            .expect("run dbscan");
        assert!(out.status.success(), "{algo} failed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        // --stats reserves stdout for the JSON line (summary goes to stderr).
        assert_eq!(stdout.lines().count(), 1, "{algo}: stdout not pure JSON");
        let line = stdout.lines().next().unwrap_or_default();
        assert!(
            line.starts_with("{\"schema\":\"dbscan-stats/v7\","),
            "{algo}: {line}"
        );
        // The v3 resilience counters are part of every report.
        for key in ["\"worker_panics\":", "\"sequential_fallbacks\":"] {
            assert!(line.contains(key), "{algo} missing {key}: {line}");
        }
        assert!(
            line.contains(&format!("\"algorithm\":\"{algo}\"")),
            "{algo}"
        );
        assert!(line.contains("\"num_clusters\":2"), "{algo}: {line}");
        // Phase and counter objects are present with their stable keys —
        // including the v4 integer-nanosecond phases.
        for key in [
            "\"total_s\":",
            "\"grid_build_s\":",
            "\"phases_ns\":{\"grid_build\":",
            "\"edge_tests\":",
        ] {
            assert!(line.contains(key), "{algo} missing {key}: {line}");
        }
        // Untraced runs must not claim histogram data.
        assert!(!line.contains("\"histograms\""), "{algo}: {line}");
        assert!(line.ends_with("}}"), "{algo}: {line}");
    }
    std::fs::remove_file(&input).ok();
}

#[test]
fn stats_with_threads_runs_parallel_variants() {
    let input = tmp("stats-par.csv");
    write_two_blob_csv(&input);
    for algo in ["exact", "approx"] {
        let out = bin()
            .arg("--input")
            .arg(&input)
            .args([
                "--eps",
                "0.5",
                "--min-pts",
                "3",
                "--algorithm",
                algo,
                "--threads",
                "2",
                "--stats",
                "--quiet",
            ])
            .output()
            .expect("run dbscan");
        assert!(out.status.success(), "{algo} failed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("\"threads\":2"), "{algo}: {stdout}");
        assert!(stdout.contains("\"num_clusters\":2"), "{algo}: {stdout}");
    }
    // Algorithms without a parallel variant reject --threads cleanly.
    let out = bin()
        .arg("--input")
        .arg(&input)
        .args([
            "--eps",
            "0.5",
            "--min-pts",
            "3",
            "--algorithm",
            "kdd96",
            "--threads",
            "2",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_file(&input).ok();
}

/// `--threads 0` resolves to "all cores" in the core layer; the v6 envelope
/// records both sides — the raw request (`threads_requested: 0`) and the
/// resolved worker count the run actually used (`threads`, ≥ 1, equal to the
/// host's `cores` for a 0 request).
#[test]
fn threads_zero_means_all_cores() {
    let input = tmp("threads0.csv");
    write_two_blob_csv(&input);
    let out = bin()
        .arg("--input")
        .arg(&input)
        .args([
            "--eps",
            "0.5",
            "--min-pts",
            "3",
            "--algorithm",
            "exact",
            "--threads",
            "0",
            "--stats",
            "--quiet",
        ])
        .output()
        .expect("run dbscan");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"threads_requested\":0"), "{stdout}");
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    assert!(stdout.contains(&format!("\"cores\":{cores}")), "{stdout}");
    assert!(
        stdout.contains(&format!("\"threads\":{cores}")),
        "a 0 request must resolve to all {cores} cores: {stdout}"
    );
    assert!(stdout.contains("\"num_clusters\":2"), "{stdout}");
    std::fs::remove_file(&input).ok();
}

/// DBSCAN_THREADS is the default thread count for the parallel-capable
/// algorithms; an explicit `--threads` overrides it, an unparsable value is
/// a usage error, and algorithms without a parallel variant ignore it.
/// (Tested through the binary — a separate process — because mutating the
/// environment inside the test harness races with other test threads.)
#[test]
fn dbscan_threads_env_is_default_and_validated() {
    let input = tmp("threads-env.csv");
    write_two_blob_csv(&input);
    let stats_args = ["--eps", "0.5", "--min-pts", "3", "--stats", "--quiet"];

    // Env var alone routes to the parallel path.
    let out = bin()
        .arg("--input")
        .arg(&input)
        .args(stats_args)
        .args(["--algorithm", "exact"])
        .env("DBSCAN_THREADS", "2")
        .output()
        .expect("run dbscan");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"threads\":2"), "{stdout}");
    assert!(stdout.contains("\"num_clusters\":2"), "{stdout}");

    // Explicit --threads wins over the env var.
    let out = bin()
        .arg("--input")
        .arg(&input)
        .args(stats_args)
        .args(["--algorithm", "approx", "--threads", "3"])
        .env("DBSCAN_THREADS", "2")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"threads\":3"), "{stdout}");

    // Unparsable values are a usage error, not a silent sequential run.
    let out = bin()
        .arg("--input")
        .arg(&input)
        .args(stats_args)
        .args(["--algorithm", "exact"])
        .env("DBSCAN_THREADS", "lots")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("DBSCAN_THREADS"), "stderr: {err}");

    // Algorithms without a parallel variant ignore the env var entirely.
    let out = bin()
        .arg("--input")
        .arg(&input)
        .args(stats_args)
        .args(["--algorithm", "kdd96"])
        .env("DBSCAN_THREADS", "lots")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_file(&input).ok();
}

#[test]
fn gunawan2d_rejects_non_2d_input() {
    let input = tmp("g3d.csv");
    std::fs::write(&input, "0,0,0\n0.1,0,0\n0.2,0,0\n").unwrap();
    let out = bin()
        .arg("--input")
        .arg(&input)
        .args(["--eps", "1", "--min-pts", "2", "--algorithm", "gunawan2d"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("requires 2D"), "stderr: {err}");
    std::fs::remove_file(&input).ok();
}

/// Dimensionality above the supported 1-8 is a data error naming the bound.
#[test]
fn nine_column_csv_is_refused() {
    let input = tmp("nine.csv");
    std::fs::write(&input, "1,2,3,4,5,6,7,8,9\n2,3,4,5,6,7,8,9,10\n").unwrap();
    let out = bin()
        .arg("--input")
        .arg(&input)
        .args(["--eps", "1", "--min-pts", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        err.trim_end(),
        "error: unsupported dimensionality 9 (1-8 supported)"
    );
    std::fs::remove_file(&input).ok();
}

#[test]
fn bad_usage_exits_2() {
    let status = bin().arg("--eps").arg("1.0").status().unwrap();
    assert_eq!(status.code(), Some(2));
}

#[test]
fn missing_file_exits_1() {
    let status = bin()
        .args([
            "--input",
            "/nonexistent/nope.csv",
            "--eps",
            "1",
            "--min-pts",
            "2",
        ])
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(1));
}

#[test]
fn unknown_algorithm_exits_1() {
    let input = tmp("badalgo.csv");
    write_two_blob_csv(&input);
    let status = bin()
        .arg("--input")
        .arg(&input)
        .args(["--eps", "0.5", "--min-pts", "3", "--algorithm", "kmeans"])
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(1));
    std::fs::remove_file(&input).ok();
}

/// Parallel runs record their recovery policy in the stats envelope; the
/// default is "fail" and `--recovery fallback-sequential` is accepted.
#[test]
fn recovery_flag_is_parsed_and_reported() {
    let input = tmp("recovery.csv");
    write_two_blob_csv(&input);
    let base = [
        "--eps",
        "0.5",
        "--min-pts",
        "3",
        "--algorithm",
        "exact",
        "--threads",
        "2",
        "--stats",
        "--quiet",
    ];
    let out = bin()
        .arg("--input")
        .arg(&input)
        .args(base)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"recovery\":\"fail\""), "{stdout}");

    let out = bin()
        .arg("--input")
        .arg(&input)
        .args(base)
        .args(["--recovery", "fallback-sequential"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"recovery\":\"fallback-sequential\""),
        "{stdout}"
    );

    // Unknown policies are a usage error naming the flag.
    let out = bin()
        .arg("--input")
        .arg(&input)
        .args(base)
        .args(["--recovery", "shrug"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--recovery"), "stderr: {err}");
    std::fs::remove_file(&input).ok();
}

/// `--rho` values the approximate algorithm cannot use are usage errors
/// (exit 2) that name the flag, caught before any data is read.
#[test]
fn bad_rho_is_a_usage_error_naming_the_flag() {
    let input = tmp("badrho.csv");
    write_two_blob_csv(&input);
    for bad in ["0", "-0.5", "NaN", "inf", "1e-15"] {
        let out = bin()
            .arg("--input")
            .arg(&input)
            .args([
                "--eps",
                "0.5",
                "--min-pts",
                "3",
                "--algorithm",
                "approx",
                "--rho",
                bad,
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "rho={bad}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--rho"), "rho={bad} stderr: {err}");
    }
    // eps * (1 + rho) overflowing is also rejected up front.
    let out = bin()
        .arg("--input")
        .arg(&input)
        .args([
            "--eps",
            "1e300",
            "--min-pts",
            "3",
            "--algorithm",
            "approx",
            "--rho",
            "1e10",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--rho"), "stderr: {err}");
    std::fs::remove_file(&input).ok();
}

/// Malformed CSV rows exit 1 and print the library's Parse diagnostic
/// verbatim: the 1-based line number and the offending token.
#[test]
fn ragged_csv_reports_line_and_token() {
    let input = tmp("raggedcli.csv");
    std::fs::write(&input, "1,2\n3,4\n5,6,7\n").unwrap();
    let out = bin()
        .arg("--input")
        .arg(&input)
        .args(["--eps", "1", "--min-pts", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 3"), "stderr: {err}");
    assert!(err.contains("\"5,6,7\""), "stderr: {err}");
    std::fs::remove_file(&input).ok();
}

/// Bad tokens name themselves in the diagnostic.
#[test]
fn bad_float_reports_the_token() {
    let input = tmp("badtok.csv");
    std::fs::write(&input, "1,2\n3,wat\n").unwrap();
    let out = bin()
        .arg("--input")
        .arg(&input)
        .args(["--eps", "1", "--min-pts", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "stderr: {err}");
    assert!(err.contains("\"wat\""), "stderr: {err}");
    std::fs::remove_file(&input).ok();
}

/// Without the fault-injection feature compiled in, `--faults` is a usage
/// error pointing at the rebuild; with it, the plan parses and runs (covered
/// by scripts/verify.sh's chaos smoke stage).
#[test]
fn faults_flag_requires_the_feature() {
    let input = tmp("faults.csv");
    write_two_blob_csv(&input);
    let out = bin()
        .arg("--input")
        .arg(&input)
        .args([
            "--eps",
            "0.5",
            "--min-pts",
            "3",
            "--algorithm",
            "exact",
            "--threads",
            "2",
            "--faults",
            "seed=42,edge=1",
        ])
        .output()
        .unwrap();
    if cfg!(feature = "fault-injection") {
        // Plan parses; with default --recovery fail the injected panic is a
        // data-level error (exit 1), not a crash.
        assert_eq!(
            out.status.code(),
            Some(1),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("worker panicked"), "stderr: {err}");
    } else {
        assert_eq!(out.status.code(), Some(2));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("fault-injection"), "stderr: {err}");
    }
    std::fs::remove_file(&input).ok();
}

/// A byte budget too small for the grid is a typed resource error (exit 1).
#[test]
fn max_index_bytes_budget_is_enforced() {
    let input = tmp("budget.csv");
    write_two_blob_csv(&input);
    let out = bin()
        .arg("--input")
        .arg(&input)
        .args([
            "--eps",
            "0.5",
            "--min-pts",
            "3",
            "--algorithm",
            "exact",
            "--max-index-bytes",
            "16",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("memory budget"), "stderr: {err}");
    std::fs::remove_file(&input).ok();
}

#[test]
fn nan_input_is_a_clean_error() {
    let input = tmp("nan.csv");
    std::fs::write(&input, "1,2\nNaN,4\n").unwrap();
    let out = bin()
        .arg("--input")
        .arg(&input)
        .args(["--eps", "1", "--min-pts", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("non-finite"), "stderr: {err}");
    std::fs::remove_file(&input).ok();
}

/// `--stats-out` writes the v4 JSON to a file and leaves stdout for the
/// human-readable summary (no interleaving).
#[test]
fn stats_out_writes_file_and_keeps_stdout_clean() {
    let input = tmp("statsout.csv");
    let stats_path = tmp("statsout.json");
    write_two_blob_csv(&input);
    let out = bin()
        .arg("--input")
        .arg(&input)
        .args(["--eps", "0.5", "--min-pts", "3", "--algorithm", "exact"])
        .arg("--stats-out")
        .arg(&stats_path)
        .output()
        .expect("run dbscan");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Summary on stdout, no JSON there.
    assert!(stdout.contains("2 clusters"), "{stdout}");
    assert!(!stdout.contains("\"schema\""), "{stdout}");
    let json = std::fs::read_to_string(&stats_path).unwrap();
    assert!(
        json.starts_with("{\"schema\":\"dbscan-stats/v7\","),
        "{json}"
    );
    assert!(json.contains("\"phases_ns\""), "{json}");
    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&stats_path).ok();
}

/// `--trace` with the default chrome format writes a trace-event JSON array
/// with per-lane thread names; a 4-thread run names one track per worker.
#[test]
fn trace_chrome_export_has_worker_tracks() {
    let input = tmp("trace.csv");
    let trace_path = tmp("trace.json");
    write_two_blob_csv(&input);
    let out = bin()
        .arg("--input")
        .arg(&input)
        .args([
            "--eps",
            "0.5",
            "--min-pts",
            "3",
            "--algorithm",
            "exact",
            "--threads",
            "4",
            "--quiet",
        ])
        .arg("--trace")
        .arg(&trace_path)
        .output()
        .expect("run dbscan");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    assert!(trace.starts_with('['), "{}", &trace[..trace.len().min(120)]);
    assert!(trace.ends_with(']'));
    assert!(trace.contains("\"ph\":\"X\""), "no complete spans in trace");
    assert!(trace.contains("\"pid\":1"));
    assert!(trace.contains("\"args\":{\"name\":\"coordinator\"}"));
    for w in 0..4 {
        assert!(
            trace.contains(&format!("\"args\":{{\"name\":\"worker-{w}\"}}")),
            "missing worker-{w} track"
        );
    }
    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&trace_path).ok();
}

/// `--trace-format folded` emits flamegraph stacks, and `--trace` with
/// `--stats` adds the histograms section to the v4 envelope.
#[test]
fn trace_folded_export_and_histograms_in_stats() {
    let input = tmp("folded.csv");
    let trace_path = tmp("folded.txt");
    write_two_blob_csv(&input);
    let out = bin()
        .arg("--input")
        .arg(&input)
        .args([
            "--eps",
            "0.5",
            "--min-pts",
            "3",
            "--algorithm",
            "exact",
            "--stats",
            "--quiet",
            "--trace-format",
            "folded",
        ])
        .arg("--trace")
        .arg(&trace_path)
        .output()
        .expect("run dbscan");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let folded = std::fs::read_to_string(&trace_path).unwrap();
    // Sequential run: everything on the coordinator timeline, nested under
    // the total span, one "path value" pair per line.
    assert!(folded.lines().count() >= 2, "{folded}");
    assert!(
        folded.lines().any(|l| l.starts_with("coordinator;total")),
        "{folded}"
    );
    for line in folded.lines() {
        let (path, value) = line.rsplit_once(' ').expect("folded line shape");
        assert!(path.starts_with("coordinator"), "{line}");
        value.parse::<u64>().expect("folded value is nanoseconds");
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"histograms\":{\"task_nanos\":"),
        "{stdout}"
    );
    assert!(
        stdout.contains("\"edge_test_nanos\":{\"count\":"),
        "{stdout}"
    );
    assert!(stdout.contains("\"events_dropped\":0"), "{stdout}");
    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&trace_path).ok();
}

/// An unknown trace format is a usage error naming the flag.
#[test]
fn bad_trace_format_is_a_usage_error() {
    let out = bin()
        .args([
            "--input",
            "x.csv",
            "--eps",
            "1",
            "--min-pts",
            "2",
            "--trace-format",
            "svg",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--trace-format"), "stderr: {err}");
}

#[test]
fn svg_written_for_2d() {
    let input = tmp("svg-in.csv");
    let svg = tmp("plot.svg");
    write_two_blob_csv(&input);
    let status = bin()
        .arg("--input")
        .arg(&input)
        .args(["--eps", "0.5", "--min-pts", "3", "--quiet"])
        .arg("--svg")
        .arg(&svg)
        .status()
        .unwrap();
    assert!(status.success());
    let text = std::fs::read_to_string(&svg).unwrap();
    assert!(text.starts_with("<svg"));
    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&svg).ok();
}

/// Duration flags reject tokens without a unit suffix, non-numeric values,
/// and negatives — all usage errors (exit 2) that name the flag and echo the
/// offending token, caught before any data is read.
#[test]
fn bad_duration_is_a_usage_error_naming_flag_and_token() {
    for (flag, bad) in [
        ("--deadline", "10"),
        ("--deadline", "abc"),
        ("--deadline", "-5s"),
        ("--stall-timeout", "2.5"),
        ("--stall-timeout", "nans"),
    ] {
        let out = bin()
            .args([
                "--input",
                "nonexistent.csv",
                "--eps",
                "1",
                "--min-pts",
                "2",
                flag,
                bad,
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag} {bad}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "{flag} {bad} stderr: {err}");
        assert!(err.contains(bad), "{flag} {bad} stderr: {err}");
    }
}

/// An unknown `--deadline-policy` is a usage error naming the flag.
#[test]
fn bad_deadline_policy_is_a_usage_error() {
    let out = bin()
        .args([
            "--input",
            "x.csv",
            "--eps",
            "1",
            "--min-pts",
            "2",
            "--deadline",
            "1s",
            "--deadline-policy",
            "panic",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--deadline-policy"), "stderr: {err}");
}

/// A `--degrade-rho` the approximate edge test cannot use is rejected up
/// front when the degrade policy can actually fire.
#[test]
fn bad_degrade_rho_is_a_usage_error() {
    let out = bin()
        .args([
            "--input",
            "x.csv",
            "--eps",
            "1",
            "--min-pts",
            "2",
            "--deadline",
            "1s",
            "--deadline-policy",
            "degrade",
            "--degrade-rho",
            "-0.5",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--degrade-rho"), "stderr: {err}");
}

/// A zero budget under the degrade policy still exits 0: every edge routes
/// through the Lemma-5 approximate counter and the stats envelope carries
/// the `deadline` object recording the degraded outcome.
#[test]
fn zero_budget_degrade_exits_zero_with_deadline_object() {
    let input = tmp("dl-degrade.csv");
    write_two_blob_csv(&input);
    for threads in [None, Some("2")] {
        let mut cmd = bin();
        cmd.arg("--input").arg(&input).args([
            "--eps",
            "0.5",
            "--min-pts",
            "3",
            "--algorithm",
            "exact",
            "--deadline",
            "0s",
            "--deadline-policy",
            "degrade",
            "--degrade-rho",
            "0.01",
            "--stats",
            "--quiet",
        ]);
        if let Some(t) = threads {
            cmd.args(["--threads", t]);
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "threads={threads:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().next().unwrap_or_default();
        assert!(
            line.starts_with("{\"schema\":\"dbscan-stats/v7\","),
            "{line}"
        );
        assert!(line.contains("\"deadline\":{"), "{line}");
        assert!(line.contains("\"outcome\":\"degraded\""), "{line}");
        assert!(line.contains("\"policy\":\"degrade\""), "{line}");
        assert!(!line.contains("\"degraded_edges\":0,"), "{line}");
        // Degradation widens, never truncates: the run is still complete
        // and the two well-separated blobs are still found.
        assert!(line.contains("\"complete\":true"), "{line}");
        assert!(line.contains("\"num_clusters\":2"), "{line}");
    }
    // Without --deadline the envelope must not claim a deadline object.
    let out = bin()
        .arg("--input")
        .arg(&input)
        .args(["--eps", "0.5", "--min-pts", "3", "--stats", "--quiet"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("\"deadline\":"), "{stdout}");
    std::fs::remove_file(&input).ok();
}

/// A zero budget under the abort policy exits 1 and prints the library's
/// typed diagnostic (phase, elapsed, remaining tasks) verbatim.
#[test]
fn zero_budget_abort_exits_one_with_diagnostic() {
    let input = tmp("dl-abort.csv");
    write_two_blob_csv(&input);
    for algo in ["exact", "approx", "kdd96", "cit08", "gunawan2d"] {
        let out = bin()
            .arg("--input")
            .arg(&input)
            .args([
                "--eps",
                "0.5",
                "--min-pts",
                "3",
                "--algorithm",
                algo,
                "--deadline",
                "0s",
                "--deadline-policy",
                "abort",
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{algo}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("deadline exceeded"), "{algo} stderr: {err}");
    }
    std::fs::remove_file(&input).ok();
}

/// The partial policy finalizes whatever the run discovered and marks the
/// envelope incomplete instead of failing.
#[test]
fn zero_budget_partial_exits_zero_and_marks_incomplete() {
    let input = tmp("dl-partial.csv");
    write_two_blob_csv(&input);
    let out = bin()
        .arg("--input")
        .arg(&input)
        .args([
            "--eps",
            "0.5",
            "--min-pts",
            "3",
            "--deadline",
            "0s",
            "--deadline-policy",
            "partial",
            "--stats",
            "--quiet",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"outcome\":\"partial\""), "{stdout}");
    assert!(stdout.contains("\"complete\":false"), "{stdout}");
    std::fs::remove_file(&input).ok();
}

/// `--stall-timeout` watches parallel worker heartbeats; on a sequential run
/// there is nothing to watch and the flag is rejected with a clear message.
#[test]
fn stall_timeout_without_threads_is_rejected() {
    let input = tmp("dl-stall.csv");
    write_two_blob_csv(&input);
    let out = bin()
        .arg("--input")
        .arg(&input)
        .args(["--eps", "0.5", "--min-pts", "3", "--stall-timeout", "5s"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--stall-timeout"), "stderr: {err}");
    assert!(err.contains("--threads"), "stderr: {err}");
    std::fs::remove_file(&input).ok();
}

/// `--recovery` decides what happens when a parallel worker panics; a
/// sequential run has no workers, so the flag is rejected there like
/// `--stall-timeout`.
#[test]
fn recovery_without_threads_is_rejected() {
    let input = tmp("recovery-seq.csv");
    write_two_blob_csv(&input);
    let out = bin()
        .arg("--input")
        .arg(&input)
        .args(["--eps", "0.5", "--min-pts", "3", "--algorithm", "exact"])
        .args(["--recovery", "fallback-sequential"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--recovery requires a parallel run (--threads)"),
        "stderr: {err}"
    );
    std::fs::remove_file(&input).ok();
}

/// `--faults` without `--threads` never runs silently: with fault injection
/// compiled in it is rejected like `--stall-timeout`, and without it the
/// flag is the feature's usage error.
#[test]
fn faults_without_threads_is_rejected() {
    let input = tmp("faults-seq.csv");
    write_two_blob_csv(&input);
    let out = bin()
        .arg("--input")
        .arg(&input)
        .args(["--eps", "0.5", "--min-pts", "3", "--algorithm", "exact"])
        .args(["--faults", "seed=42,edge=1"])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    if cfg!(feature = "fault-injection") {
        assert_eq!(out.status.code(), Some(1), "stderr: {err}");
        assert!(
            err.contains("--faults requires a parallel run (--threads)"),
            "stderr: {err}"
        );
    } else {
        assert_eq!(out.status.code(), Some(2), "stderr: {err}");
        assert!(err.contains("fault-injection"), "stderr: {err}");
    }
    std::fs::remove_file(&input).ok();
}
