//! The metric registry and the result line.
//!
//! `BENCHMARK.json` lists the same names and units; a test keeps the two in
//! step.

use dbscan_server::json::{obj, Value};
use std::collections::BTreeMap;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Printed by every workload's untraced run, and bounded. Timings are in
/// probes: wall time divided by the run's median [`crate::host::Probe`],
/// a fixed sort timed interleaved with the workload. The reference host's
/// speed moves by a third within minutes; the probe moves with it, so the
/// ratio tracks the program rather than the host. Set-up time stays in seconds, scaled
/// the same way to the reference host's probe
/// ([`crate::host::REFERENCE_PROBE_MS`]); memory stays in MiB.
pub const END_TO_END: &[Metric] = &[
    m("exact_seq_norm", "probes", "lower"),
    m("approx_seq_norm", "probes", "lower"),
    m("exact_par_norm", "probes", "lower"),
    m("job_p50_norm", "probes", "lower"),
    m("job_p90_norm", "probes", "lower"),
    m("jobs_per_probe", "1/probe", "higher"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// The same timings in wall-clock units, as measured: printed in the table
/// and the notes, not bounded. On `serve-journal` the three library
/// timings come from the standalone runs that check the served labels; in
/// `batch-ss5d` a job is one library clustering call.
pub const WALL_CLOCK: &[Metric] = &[
    m("exact_seq_s", "s", "lower"),
    m("approx_seq_s", "s", "lower"),
    m("exact_par_s", "s", "lower"),
    m("job_p50_ms", "ms", "lower"),
    m("job_p90_ms", "ms", "lower"),
    m("jobs_per_s", "1/s", "higher"),
    m("setup_wall_s", "s", "lower"),
];

/// Fills in the bounded timings from the wall-clock ones and the probe.
pub fn normalize(out: &mut Outcome) {
    let Some(probe_s) = out.values.get("host.probe_ms").map(|ms| ms / 1e3) else {
        return;
    };
    for (norm, wall, to_s) in [
        ("exact_seq_norm", "exact_seq_s", 1.0),
        ("approx_seq_norm", "approx_seq_s", 1.0),
        ("exact_par_norm", "exact_par_s", 1.0),
        ("job_p50_norm", "job_p50_ms", 1e-3),
        ("job_p90_norm", "job_p90_ms", 1e-3),
    ] {
        if let Some(v) = out.values.get(wall) {
            out.set(norm, v * to_s / probe_s);
        }
    }
    if let Some(v) = out.values.get("jobs_per_s") {
        out.set("jobs_per_probe", v * probe_s);
    }
    if let Some(v) = out.values.get("setup_wall_s") {
        out.set(
            "setup_s",
            v * crate::host::REFERENCE_PROBE_MS / 1e3 / probe_s,
        );
    }
}

/// Failed, refused and wrong-output operations over attempted. It reads 0 on
/// a healthy run, so it is printed in the table but carries no bound; the
/// result line's `failed` and `attempted` hold the same numbers.
pub const ERROR_RATE: Metric = m("error_rate", "ratio", "lower");

/// Printed by every workload's traced run. A layer that a workload does not
/// exercise reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("exact.geom.grid_build_s", "s", "lower"),
    m("exact.core.labeling_s", "s", "lower"),
    m("exact.index.kdtree_build_s", "s", "lower"),
    m("exact.core.edge_tests_s", "s", "lower"),
    m("exact.core.union_find_s", "s", "lower"),
    m("exact.core.border_assign_s", "s", "lower"),
    m("exact.core.edge_tests", "count", "lower"),
    m("exact.core.edges_found", "count", "lower"),
    m("exact.index.kd_tree_builds", "count", "lower"),
    m("exact.index.nodes_visited", "count", "lower"),
    m("exact.geom.points_examined", "count", "lower"),
    m("exact.geom.block_kernel_calls", "count", "lower"),
    m("approx.index.counter_build_s", "s", "lower"),
    m("approx.core.edge_tests_s", "s", "lower"),
    m("approx.index.counter_builds", "count", "lower"),
    m("approx.index.counter_queries", "count", "lower"),
    m("approx.index.nodes_visited", "count", "lower"),
    m("core.cells.build_s", "s", "lower"),
    m("core.cells.bytes", "bytes", "lower"),
    m("core.parallel.speedup", "ratio", "higher"),
    m("core.scheduler.tasks_stolen", "count", "lower"),
    m("client.encode_ms", "ms", "lower"),
    m("json.decode_ms", "ms", "lower"),
    m("json.result_decode_ms", "ms", "lower"),
    m("wire.request_bytes", "bytes", "lower"),
    m("wire.response_bytes", "bytes", "lower"),
    m("server.submit_ms", "ms", "lower"),
    m("server.result_ms", "ms", "lower"),
    m("server.submit_residual_ms", "ms", "lower"),
    m("server.queue_wait_ms", "ms", "lower"),
    m("server.service_ms", "ms", "lower"),
    m("server.shed", "count", "lower"),
    m("server.failed", "count", "lower"),
    m("cache.hit_ratio", "ratio", "higher"),
    m("cache.evictions", "count", "lower"),
    m("journal.bytes_per_job", "bytes", "lower"),
    m("journal.compactions", "count", "lower"),
    m("recon.exact_phase_gap_s", "s", "lower"),
    m("recon.approx_phase_gap_s", "s", "lower"),
    m("recon.job_gap_ms", "ms", "lower"),
    m("host.probe_ms", "ms", "lower"),
];

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Wrong outputs, one line each; any entry makes the run incorrect.
    pub wrong: Vec<String>,
    /// Diagnostics that are not metrics: sample counts, host probe,
    /// reconciliation flags.
    pub notes: Vec<(String, Value)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, key: &str, value: Value) {
        self.notes.push((key.to_string(), value));
    }

    /// Records a failed check.
    pub fn wrong(&mut self, msg: String) {
        self.failed += 1;
        self.wrong.push(msg);
    }

    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Records the error rate, which the table prints with the timings.
    pub fn set_error_rate(&mut self) {
        self.set(ERROR_RATE.name, self.error_rate());
    }
}

/// Human-readable table of the given metrics, one per line.
pub fn table(out: &Outcome, metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| {
            let v = out.values.get(m.name).copied().unwrap_or(f64::NAN);
            format!(
                "  {:<32} {v:>16.6} {:<7} ({} is better)\n",
                m.name, m.unit, m.better
            )
        })
        .collect()
}

/// The last line of standard output. A metric the run did not produce is
/// printed as `null`, which the reader rejects.
pub fn result_line(out: &Outcome, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let v = out.values.get(m.name).copied().filter(|v| v.is_finite());
            (
                m.name,
                obj(vec![
                    ("value", v.map_or(Value::Null, Value::Num)),
                    ("unit", Value::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Value::Bool(out.correct())),
        ("attempted", Value::Num(out.attempted as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("metrics", obj(metrics)),
    ])
    .to_line()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbscan_server::json::parse;

    fn filled(metrics: &[Metric]) -> Outcome {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (i, m) in metrics.iter().enumerate() {
            o.set(m.name, 0.5 + i as f64);
        }
        o
    }

    #[test]
    fn printer_emits_every_metric_with_its_unit() {
        for metrics in [END_TO_END, PER_LAYER] {
            let line = parse(&result_line(&filled(metrics), metrics)).unwrap();
            assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(line.get("attempted").and_then(Value::as_u64), Some(3));
            assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));
            let printed = line.get("metrics").unwrap();
            let Value::Obj(members) = printed else {
                panic!("metrics is not an object")
            };
            assert_eq!(members.len(), metrics.len());
            for m in metrics {
                let got = printed
                    .get(m.name)
                    .unwrap_or_else(|| panic!("{} missing", m.name));
                assert!(
                    got.get("value").and_then(Value::as_f64).is_some(),
                    "{}",
                    m.name
                );
                assert_eq!(
                    got.get("unit").and_then(Value::as_str),
                    Some(m.unit),
                    "{}",
                    m.name
                );
            }
        }
        let mut o = filled(WALL_CLOCK);
        o.set_error_rate();
        let table = table(&o, WALL_CLOCK) + &table(&o, &[ERROR_RATE]);
        for m in WALL_CLOCK.iter().chain([&ERROR_RATE]) {
            assert!(
                table.contains(m.name) && table.contains(m.unit),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn normalized_timings_divide_by_the_probe() {
        let mut o = filled(WALL_CLOCK);
        o.set("host.probe_ms", 20.0);
        normalize(&mut o);
        let v = |n: &str| o.values[n];
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
        assert!(close(v("exact_seq_norm"), v("exact_seq_s") / 0.02));
        assert!(close(v("job_p90_norm"), v("job_p90_ms") / 20.0));
        assert!(close(v("jobs_per_probe"), v("jobs_per_s") * 0.02));
        let reference = crate::host::REFERENCE_PROBE_MS;
        assert!(close(v("setup_s"), v("setup_wall_s") * reference / 20.0));
        for m in END_TO_END.iter().filter(|m| m.unit != "MiB") {
            assert!(o.values.contains_key(m.name), "{}", m.name);
        }
    }

    #[test]
    fn a_wrong_output_makes_the_run_incorrect() {
        let mut o = filled(END_TO_END);
        o.wrong("labels differ".to_string());
        let line = parse(&result_line(&o, END_TO_END)).unwrap();
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(line.get("failed").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn a_missing_metric_prints_null() {
        let line = parse(&result_line(&Outcome::default(), END_TO_END)).unwrap();
        let v = line.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(v.get("value"), Some(&Value::Null));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let spec = parse(&text).unwrap();
        for (key, metrics) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = spec.get(key).and_then(Value::as_arr).unwrap();
            assert_eq!(listed.len(), metrics.len(), "{key}");
            for (l, m) in listed.iter().zip(metrics) {
                assert_eq!(l.get("name").and_then(Value::as_str), Some(m.name));
                assert_eq!(l.get("unit").and_then(Value::as_str), Some(m.unit));
                assert_eq!(l.get("better").and_then(Value::as_str), Some(m.better));
            }
        }
        let listed: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(listed, crate::WORKLOADS);
    }
}
