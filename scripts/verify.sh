#!/usr/bin/env bash
# Tier-1 gate: every change must pass this before merging (see README).
# Runs the format check, the release build, the full test suite, a
# warning-free clippy sweep over all targets and warning-free docs, then
# the fault-injection, chaos, trace, daemon/loadgen/telemetry, deadline,
# crash-durability, label and benchmark checks. CI runs this script.
# Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format: cargo fmt --all --check =="
cargo fmt --all --check

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test --workspace -q =="
cargo test --workspace -q

echo "== tier-1: cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== fault-injection: clippy over the cfg(feature) code =="
# The fault-injection paths (e.g. the daemon's `boom` job) only compile with
# the feature on, so the plain clippy step above never lints them.
cargo clippy -p dbscan-core -p dbscan-server -p dbscan-cli --features fault-injection \
    --all-targets -- -D warnings

echo "== docs: cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== fault-injection: cargo test -p dbscan-core --features fault-injection -q =="
cargo test -p dbscan-core --features fault-injection -q

echo "== fault-injection: seeded chaos CLI smoke =="
# A seeded FaultPlan kills every edge-phase task; fallback-sequential must
# absorb the panic (exit 0) and report the recovery in the v4 stats line.
chaos_csv=$(mktemp /tmp/dbscan-verify-chaos-XXXXXX.csv)
trace_json=$(mktemp /tmp/dbscan-verify-trace-XXXXXX.json)
trap 'rm -f "$chaos_csv" "$trace_json"; [[ -n "${srv_pid:-}" ]] && kill "$srv_pid" 2>/dev/null || true' EXIT
for i in $(seq 0 199); do
    echo "$(( i % 20 )).$(( i / 20 )),$(( i % 7 )).5"
done > "$chaos_csv"
stats_line=$(cargo run -q --release -p dbscan-cli --features fault-injection --bin dbscan -- \
    --input "$chaos_csv" --eps 1.5 --min-pts 4 --algorithm exact \
    --threads 4 --recovery fallback-sequential --faults seed=42,edge=1 \
    --stats --quiet)
echo "$stats_line"
echo "$stats_line" | grep -q '"schema":"dbscan-stats/v7"'
echo "$stats_line" | grep -q '"recovery":"fallback-sequential"'
echo "$stats_line" | grep -Eq '"sequential_fallbacks":[1-9]'

echo "== trace: chaos run exports a valid Chrome trace =="
# The same seeded chaos run with --trace must exit 0, produce parseable
# trace-event JSON, and record both the injected worker panics and at least
# one steal (4 workers over an uneven task list always steal).
cargo run -q --release -p dbscan-cli --features fault-injection --bin dbscan -- \
    --input "$chaos_csv" --eps 1.5 --min-pts 4 --algorithm exact \
    --threads 4 --recovery fallback-sequential --faults seed=42,edge=1 \
    --trace "$trace_json" --trace-format chrome --quiet
python3 -m json.tool "$trace_json" > /dev/null
grep -q '"name":"worker_panic"' "$trace_json"
grep -q '"name":"steal"' "$trace_json"

echo "== fault-injection: cargo test -p dbscan-server --features fault-injection -q =="
cargo test -p dbscan-server --features fault-injection -q

echo "== fault-injection: cargo test -p dbscan-cli --features fault-injection -q =="
cargo test -p dbscan-cli --features fault-injection -q

echo "== server: daemon + loadgen + telemetry smoke =="
# A fault-injection daemon serves a 16-job concurrent burst that includes one
# fault-seeded job (worker panic -> typed error, tenant isolation) and one
# with an unmeetable deadline. The loadgen exits non-zero unless every job
# resolved as expected AND the daemon's stats accounting is consistent
# (submitted == completed + failed + cancelled; shed counted separately) AND
# the `metrics` exposition agrees with that envelope at quiescence. The
# daemon runs with the whole telemetry plane on: a scrapeable HTTP metrics
# endpoint, a structured JSON log file, and the health time-series sampler.
# Afterwards: zero thread growth in the daemon, clean SIGTERM drain, exit 0.
cargo build -q --release -p dbscan-cli --features fault-injection
cargo build -q --release -p dbscan-bench --bin repro
srv_sock=$(mktemp -u /tmp/dbscan-verify-srv-XXXXXX.sock)
srv_log=$(mktemp /tmp/dbscan-verify-srv-XXXXXX.log)
srv_jsonlog=$(mktemp /tmp/dbscan-verify-srvlog-XXXXXX.jsonl)
lg_dir=$(mktemp -d /tmp/dbscan-verify-loadgen-XXXXXX)
./target/release/dbscan serve --socket "$srv_sock" --workers 2 --max-queue 8 \
    --drain-deadline 10s --metrics-listen 127.0.0.1:0 \
    --log-file "$srv_jsonlog" --log-level debug 2> "$srv_log" &
srv_pid=$!
for _ in $(seq 50); do [[ -S "$srv_sock" ]] && break; sleep 0.1; done
[[ -S "$srv_sock" ]]
# Warm-up burst so the executor pool and accept loop are fully spawned before
# the thread baseline is taken (they come up lazily around the first jobs).
./target/release/repro loadgen --socket "$srv_sock" --jobs 2 --out "$lg_dir" \
    > /dev/null 2>&1
sleep 1
threads_before=$(ls "/proc/$srv_pid/task" | wc -l)
lg_out=$(./target/release/repro loadgen --socket "$srv_sock" --jobs 16 \
    --faulted 1 --past-deadline 1 --traced 1 \
    --metrics-out "$lg_dir/loadgen_metrics.json" --out "$lg_dir" 2>/dev/null)
echo "$lg_out"
echo "$lg_out" | grep -q 'accounting ok'
echo "$lg_out" | grep -q 'metrics cross-check ok'
python3 -m json.tool "$lg_dir/loadgen_hist.json" > /dev/null

echo "== server: mid-run metrics time-series (dbscan-loadgen-metrics/v1) =="
# The loadgen's poller scraped the exposition every 100ms during the burst;
# the resulting time-series must parse, carry the schema tag, and hold
# monotonically non-decreasing counters.
python3 - "$lg_dir/loadgen_metrics.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "dbscan-loadgen-metrics/v1", doc["schema"]
assert doc["num_samples"] == len(doc["samples"]) >= 1
for key in ("jobs_submitted_total", "jobs_completed_total", "jobs_failed_total"):
    vals = [s[key] for s in doc["samples"]]
    assert vals == sorted(vals), f"{key} not monotonic: {vals}"
print(f"  loadgen metrics time-series ok ({doc['num_samples']} samples)")
PY

echo "== server: HTTP metrics endpoint scrape =="
# The serve banner on stderr names the ephemeral metrics port; a plain HTTP
# GET must return a parseable Prometheus exposition whose job counters
# satisfy the accounting invariant at quiescence and record the seeded
# worker panic of the faulted tenant.
metrics_url=$(grep -o 'http://[0-9.:]*/metrics' "$srv_log" | head -1)
[[ -n "$metrics_url" ]]
python3 - "$metrics_url" <<'PY'
import sys, urllib.request
text = urllib.request.urlopen(sys.argv[1], timeout=5).read().decode()
vals = {}
for line in text.splitlines():
    if not line or line.startswith("#"):
        continue
    name, _, val = line.rpartition(" ")
    float(val)  # every sample line must end in a number
    vals[name] = float(val)
sub = vals["dbscan_server_jobs_submitted_total"]
done = vals["dbscan_server_jobs_completed_total"]
fail = vals["dbscan_server_jobs_failed_total"]
canc = vals["dbscan_server_jobs_cancelled_total"]
assert sub == done + fail + canc, f"accounting broken: {sub} != {done}+{fail}+{canc}"
assert fail >= 1, "the faulted job should be in jobs_failed_total"
assert vals["dbscan_server_worker_panics_total"] >= 1, "seeded panic not recorded"
assert vals["dbscan_server_service_time_us_count"] == sub, "histogram count != jobs"
print(f"  scrape ok: submitted={sub:.0f} completed={done:.0f} failed={fail:.0f} "
      f"cancelled={canc:.0f} worker_panics={vals['dbscan_server_worker_panics_total']:.0f}")
PY

echo "== server: inline per-request chrome trace =="
# The traced submit must come back as valid Chrome trace-event JSON carrying
# per-phase spans (the cells may come from the structure cache, so the
# labeling-side phases are the stable ones to probe).
python3 -m json.tool "$lg_dir/loadgen_trace.json" > /dev/null
grep -q '"cat":"phase"' "$lg_dir/loadgen_trace.json"
grep -q '"name":"edge_tests"' "$lg_dir/loadgen_trace.json"
grep -q '"name":"union_find"' "$lg_dir/loadgen_trace.json"

sleep 1   # per-connection threads park on a 50ms read timeout; let them reap
threads_after=$(ls "/proc/$srv_pid/task" | wc -l)
if (( threads_after > threads_before )); then
    echo "daemon leaked threads: $threads_before before burst, $threads_after after" >&2
    exit 1
fi
kill -TERM "$srv_pid"
wait "$srv_pid"   # drain must exit 0; set -e fails the gate otherwise
srv_pid=""
[[ ! -S "$srv_sock" ]]   # drain unlinks the socket

echo "== server: structured log lifecycle events =="
# Every line of the JSON log must parse, and the daemon's lifecycle —
# start (with its config echo), drain, exit (with the final counters) —
# must appear in order around the per-job records.
python3 - "$srv_jsonlog" <<'PY'
import json, sys
events = [json.loads(l)["event"] for l in open(sys.argv[1]) if l.strip()]
for needed in ("server_start", "job_submitted", "job_done", "server_drain", "server_exit"):
    assert needed in events, f"missing {needed} in {events}"
assert events.index("server_start") < events.index("server_drain") < events.index("server_exit")
print(f"  structured log ok ({len(events)} records)")
PY
rm -rf "$lg_dir" "$srv_log" "$srv_jsonlog"

echo "== deadline: zero-budget degrade smoke =="
# A zero budget under the degrade policy must still exit 0: every edge test
# routes through the Lemma-5 approximate counter (Sandwich-Theorem valid) and
# the stats envelope records the degraded outcome with a non-zero edge count.
dl_line=$(cargo run -q --release -p dbscan-cli --bin dbscan -- \
    --input "$chaos_csv" --eps 1.5 --min-pts 4 --algorithm exact \
    --deadline 0s --deadline-policy degrade --degrade-rho 0.01 \
    --stats --quiet)
echo "$dl_line"
echo "$dl_line" | grep -q '"schema":"dbscan-stats/v7"'
echo "$dl_line" | grep -q '"outcome":"degraded"'
echo "$dl_line" | grep -Eq '"degraded_edges":[1-9]'

echo "== deadline: zero-budget abort smoke =="
# The abort policy must surface the typed error: non-zero exit and the
# diagnostic on stderr.
if cargo run -q --release -p dbscan-cli --bin dbscan -- \
    --input "$chaos_csv" --eps 1.5 --min-pts 4 --algorithm exact \
    --deadline 0s --deadline-policy abort --quiet 2> /tmp/dbscan-verify-abort.err; then
    echo "abort run unexpectedly succeeded" >&2
    exit 1
fi
grep -q 'deadline exceeded' /tmp/dbscan-verify-abort.err
rm -f /tmp/dbscan-verify-abort.err

echo "== server: crash-durability drill (kill -9 + journal replay) =="
# `repro crashchaos` spawns its own journaled daemon (--journal-sync always),
# SIGKILLs it at a seeded point mid-burst, restarts it on the same journal,
# and exits non-zero unless the recovery invariant held: no acked job lost,
# no delivered (tombstoned) job re-run, every replayed result bit-identical
# to the standalone clustering, `recovered_jobs` accounting exact — and the
# journal compacted back below its trigger by quiescence.
cc_out=$(./target/release/repro crashchaos --seed 42)
echo "$cc_out"
echo "$cc_out" | grep -q 'recovery invariant ok'
echo "$cc_out" | grep -Eq 'journal compacted to [0-9]+ bytes'

echo "== labels: bit-identity against BENCH_labels.txt =="
# The FNV fingerprints of every dataset x algorithm x mode cell must match the
# committed ones: the seed-spreader bench matrix, and the blob-and-shell rows
# that pin both rho-approximate oracles. Any drift here is a correctness bug,
# not noise — there is no tolerance. The run takes well under a second.
./target/release/repro labels | grep '^labels ' | diff BENCH_labels.txt -

echo "== perfbench: cargo test --release --offline (its own workspace) =="
# perfbench is not a workspace member, so the tier-1 test run above never
# builds or tests it.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

if [[ "${VERIFY_BENCH:-0}" == "1" ]]; then
    echo "== bench: repro bench baseline (VERIFY_BENCH=1) =="
    # Snapshot the committed baseline before the bench overwrites it; the
    # kernel guard below compares fresh-vs-committed.
    kernel_baseline=$(mktemp /tmp/dbscan-verify-kernel-XXXXXX.json)
    git show HEAD:BENCH_core.json > "$kernel_baseline" 2>/dev/null \
        || cp BENCH_core.json "$kernel_baseline"
    cargo run -q --release -p dbscan-bench --bin repro -- bench --scale tiny
    python3 -m json.tool BENCH_core.json > /dev/null

    echo "== bench: kernel hot-path regression guard =="
    # structure_build + edge_tests on the exact sequential path is exactly
    # the work the blocked SoA kernels (and the raised brute-force
    # crossover) own; a fresh measurement must not regress past the
    # committed baseline by more than VERIFY_BENCH_KERNEL_TOLERANCE. Set
    # VERIFY_BENCH_ALLOW_KERNEL_REGRESSION=1 to record a baseline on a host
    # whose timings are incomparable with the committed one (same escape
    # hatch pattern as the parallel guard below).
    tolerance="${VERIFY_BENCH_KERNEL_TOLERANCE:-1.05}" \
    baseline="$kernel_baseline" \
    python3 - <<'GUARD' || [[ "${VERIFY_BENCH_ALLOW_KERNEL_REGRESSION:-0}" == "1" ]]
import json, os, sys
tol = float(os.environ["tolerance"])
def kernel_time(path):
    rows = {}
    for e in json.load(open(path))["entries"]:
        if e["n"] == 20000 and e["algorithm"] == "exact" and e["threads_requested"] is None:
            ph = e["phases"]
            rows[e["dataset"]] = ph["structure_build_s"] + ph["edge_tests_s"]
    return rows
base, fresh = kernel_time(os.environ["baseline"]), kernel_time("BENCH_core.json")
ok = True
for ds in ("ss3d", "ss5d"):
    if ds not in base:
        print(f"  {ds}: no committed baseline row, skipping")
        continue
    verdict = "ok" if fresh[ds] <= base[ds] * tol else "REGRESSION"
    print(f"  {ds} exact seq n=20k kernel path: baseline {base[ds]*1e3:.3f}ms "
          f"fresh {fresh[ds]*1e3:.3f}ms ratio {fresh[ds]/base[ds]:.3f} "
          f"(tolerance {tol}) {verdict}")
    ok &= fresh[ds] <= base[ds] * tol
sys.exit(0 if ok else 1)
GUARD
    rm -f "$kernel_baseline"

    echo "== bench: parallel-vs-sequential regression guard =="
    # With the persistent worker pool, an all-cores parallel exact run at
    # n=20k must not be slower than the sequential run on the same input
    # (the regression this guard exists for was parallel = 6x sequential).
    # The bench interleaves seq/par repetitions (see bench_pair in
    # crates/bench), so the comparison is drift-free; the tolerance below
    # absorbs the remaining rep noise. It widened from 1.05 when the
    # blocked kernels roughly halved the exact totals: the parallel
    # dispatch overhead is fixed (~tens of microseconds), so on a ~0.8ms
    # cell it is now a larger *fraction* and measured ratios fluctuate
    # 0.98-1.06 run to run on a single-core host — 1.10 still catches the
    # regression class this guard exists for by an order of magnitude.
    # Set VERIFY_BENCH_ALLOW_PAR_REGRESSION=1 to record a baseline on a
    # machine where the guard is known to flap (e.g. a loaded CI box)
    # without failing the gate.
    tolerance="${VERIFY_BENCH_PAR_TOLERANCE:-1.10}" \
    python3 - <<'GUARD' || [[ "${VERIFY_BENCH_ALLOW_PAR_REGRESSION:-0}" == "1" ]]
import json, os, sys
doc = json.load(open("BENCH_core.json"))
tol = float(os.environ["tolerance"])
rows = {}
for e in doc["entries"]:
    if e["n"] != 20000 or e["algorithm"] != "exact":
        continue
    mode = "seq" if e["threads_requested"] is None else "par"
    rows[(e["dataset"], mode)] = e["total_s"]
ok = True
for ds in ("ss3d", "ss5d"):
    seq, par = rows[(ds, "seq")], rows[(ds, "par")]
    verdict = "ok" if par <= seq * tol else "REGRESSION"
    print(f"  {ds} exact n=20k: seq {seq*1e3:.3f}ms par {par*1e3:.3f}ms "
          f"ratio {par/seq:.3f} (tolerance {tol}) {verdict}")
    ok &= par <= seq * tol
sys.exit(0 if ok else 1)
GUARD
fi

echo "== tier-1: OK =="
