//! `serve-journal`: an in-process daemon on a unix socket with a
//! `sync=always` journal and 2 workers, driven closed-loop by two public
//! `Client`s (each client sends its next job only after the previous result
//! arrived). The clients cycle 4 SS5D n = 5 000 datasets, alternating
//! `exact` and `approx`; after set-up every job is a cache hit.

use crate::check;
use crate::data::{mix, ss_dataset, Stream};
use crate::library::{params, Hashes, Library, RHO, THREADS};
use crate::report::Outcome;
use crate::summary::{median, quantile};
use crate::trace::Tracer;
use crate::{host, RunArgs, SETUP_REPEATS};
use dbscan_core::WorkerPool;
use dbscan_geom::Point;
use dbscan_server::json::{obj, parse, Value};
use dbscan_server::{
    parse_exposition, start, Bind, Client, JournalConfig, Level, ServerConfig, ServerHandle,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

pub const N: usize = 5_000;
pub const D: usize = 5;
/// Daemon workers, and client connections driving them.
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Datasets the clients cycle through.
const DATASETS: usize = 4;
/// Datasets of the standalone library runs: the served ones first, then
/// more drawn the same way, so that the library timings depend less on
/// which four the seed picked.
const REFERENCE_DATASETS: usize = 80;
/// Segments of the timed phase. After each one both clients pause while
/// one set-up is timed and one pass of standalone library runs covers half
/// of the reference datasets; with the set-up before the timed phase, that
/// makes `SETUP_REPEATS` set-ups.
const SEGMENTS: usize = SETUP_REPEATS - 1;
/// Jobs attempted per run at least, so that p90 has ten samples above it.
const MIN_JOBS: usize = 100;
/// Trace job ids of the standalone reference runs, apart from client jobs.
const REFERENCE_JOB_IDS: u64 = 1 << 40;

/// Reference dataset `i` of a run; a pure function of the seed, so it is
/// generated again wherever it is used rather than kept.
fn dataset(seed: u64, i: usize) -> Vec<Point<D>> {
    ss_dataset::<D>(N, mix(seed, Stream::Timed, i as u64))
}

fn submit_req(pts: &[Point<D>], approx: bool) -> Value {
    let p = params();
    let points = pts
        .iter()
        .map(|q| Value::Arr(q.0.iter().map(|&c| Value::Num(c)).collect()))
        .collect();
    let mut members = vec![
        ("verb", Value::Str("submit".to_string())),
        ("points", Value::Arr(points)),
        ("eps", Value::Num(p.eps())),
        ("min_pts", Value::Num(p.min_pts() as f64)),
        ("labels", Value::Bool(true)),
    ];
    if approx {
        members.push(("algorithm", Value::Str("approx".to_string())));
        members.push(("rho", Value::Num(RHO)));
    }
    obj(members)
}

fn verb(name: &str) -> Value {
    obj(vec![("verb", Value::Str(name.to_string()))])
}

/// Client-side timings of one job, in milliseconds (bytes for the sizes).
/// The encode and decode probes are taken in the traced run only.
#[derive(Clone, Copy, Default)]
struct JobSample {
    latency: f64,
    submit: f64,
    result: f64,
    encode: f64,
    decode: f64,
    result_decode: f64,
    request_bytes: f64,
    response_bytes: f64,
}

fn ms(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e3
}

/// Submits one job and waits for its result. The job's latency runs from
/// the start of `Client::call(submit)` until the `result` reply is decoded.
fn one_job(
    client: &mut Client,
    req: &Value,
    tracer: &Tracer,
    job: u64,
) -> Result<(JobSample, Value), String> {
    let mut s = JobSample::default();
    if tracer.enabled() {
        // The same work `Client::call` and the daemon's frame reader do,
        // timed on the side: `Value::to_line` and `json::parse`.
        let t = Instant::now();
        let line = std::hint::black_box(req.to_line());
        let t1 = Instant::now();
        std::hint::black_box(parse(&line).map_err(|e| format!("request does not parse: {e}"))?);
        let t2 = Instant::now();
        s.encode = ms(t, t1);
        s.decode = ms(t1, t2);
        s.request_bytes = line.len() as f64 + 1.0;
        tracer.record("probe.client_encode", t, t1, None, job);
        tracer.record("probe.json_decode", t1, t2, None, job);
    }
    let span = tracer.reserve();
    let t0 = Instant::now();
    let sub = client.call(req).map_err(|e| format!("submit: {e}"))?;
    let t1 = Instant::now();
    if sub.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("submit refused: {}", sub.to_line()));
    }
    let id = sub
        .get("job")
        .and_then(Value::as_u64)
        .ok_or("submit reply has no job id")?;
    let res = client
        .call(&obj(vec![
            ("verb", Value::Str("result".to_string())),
            ("job", Value::Num(id as f64)),
            ("timeout_ms", Value::Num(60_000.0)),
        ]))
        .map_err(|e| format!("result: {e}"))?;
    let t2 = Instant::now();
    s.latency = ms(t0, t2);
    s.submit = ms(t0, t1);
    s.result = ms(t1, t2);
    tracer.record("job.submit", t0, t1, Some(span), job);
    tracer.record("job.result", t1, t2, Some(span), job);
    tracer.record_as(span, "job", t0, t2, None, job);
    if tracer.enabled() {
        let line = res.to_line();
        let t = Instant::now();
        std::hint::black_box(parse(&line).map_err(|e| format!("result does not parse: {e}"))?);
        let t1 = Instant::now();
        s.result_decode = ms(t, t1);
        s.response_bytes = line.len() as f64 + 1.0;
        tracer.record("probe.result_decode", t, t1, None, job);
    }
    Ok((s, res))
}

/// The daemon under test plus where it keeps its files.
struct Daemon {
    handle: ServerHandle,
    socket: PathBuf,
    journal: PathBuf,
}

impl Daemon {
    fn start(dir: &Path, rep: usize) -> std::io::Result<Daemon> {
        let socket = dir.join(format!("serve-{}-{rep}.sock", std::process::id()));
        let journal = dir.join(format!("journal-{}-{rep}", std::process::id()));
        let _ = std::fs::remove_dir_all(&journal);
        let cfg = ServerConfig {
            bind: Bind::Unix(socket.clone()),
            workers: WORKERS,
            job_threads: 1,
            log_level: Level::Error,
            journal: Some(JournalConfig::new(journal.clone())),
            ..ServerConfig::default()
        };
        let handle = start(cfg)?;
        Ok(Daemon {
            handle,
            socket,
            journal,
        })
    }

    /// Drains the daemon, joins its threads and removes its files.
    fn stop(self) -> Value {
        self.handle.shutdown();
        let envelope = self.handle.wait();
        let _ = std::fs::remove_dir_all(&self.journal);
        let _ = std::fs::remove_file(&self.socket);
        envelope
    }
}

fn health(c: &mut Client) -> Result<Value, String> {
    let h = c
        .call(&verb("health"))
        .map_err(|e| format!("health: {e}"))?;
    if h.get("ok").and_then(Value::as_bool) == Some(false) {
        return Err(format!("health refused: {}", h.to_line()));
    }
    Ok(h)
}

/// A number in a `health` reply's stats envelope.
fn num(health: &Value, path: &[&str]) -> f64 {
    let mut cur = health.get("stats");
    for k in path {
        cur = cur.and_then(|c| c.get(k));
    }
    cur.and_then(Value::as_f64).unwrap_or(0.0)
}

/// Histogram sums and counts of the daemon's `metrics` exposition.
fn scrape(c: &mut Client) -> Result<Vec<(String, f64)>, String> {
    c.metrics_text()
        .map(|t| parse_exposition(&t))
        .map_err(|e| format!("metrics: {e}"))
}

fn series(m: &[(String, f64)], name: &str) -> f64 {
    m.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v)
}

/// Mean per observation of a histogram between two scrapes, in ms.
fn hist_mean_ms(before: &[(String, f64)], after: &[(String, f64)], hist: &str) -> f64 {
    let d = |suffix: &str| {
        let name = format!("dbscan_server_{hist}_{suffix}");
        series(after, &name) - series(before, &name)
    };
    d("sum") / d("count").max(1.0) / 1e3
}

/// The served datasets and the label hashes the standalone library gives
/// for every reference dataset.
struct Inputs {
    served: Vec<Vec<Point<D>>>,
    expect: Vec<Hashes>,
}

impl Inputs {
    /// Job `k` of the cycle: dataset `k / 2`, `exact` for even `k` and
    /// `approx` for odd. Returns whether it is approx and the expected hash.
    fn cycle(&self, k: usize) -> (&[Point<D>], bool, u64) {
        let (i, approx) = (k / 2 % DATASETS, k % 2 == 1);
        let h = &self.expect[i];
        (
            &self.served[i],
            approx,
            if approx { h.approx } else { h.exact },
        )
    }
}

pub fn run(args: &RunArgs, tracer: &Tracer, out: &mut Outcome) {
    if let Err(e) = run_inner(args, tracer, out) {
        out.wrong(e);
    }
}

fn run_inner(args: &RunArgs, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let mut lib = Library::new(Arc::new(WorkerPool::new(THREADS)), tracer.enabled());

    // Expected labels, before any set-up is timed. Only the served
    // datasets are kept; the others are generated again when used.
    let mut untimed = Library::new(lib.pool(), false);
    let mut served = Vec::with_capacity(DATASETS);
    let mut expect = Vec::with_capacity(REFERENCE_DATASETS);
    for i in 0..REFERENCE_DATASETS {
        let pts = dataset(args.seed, i);
        expect.push(untimed.round(&pts, 0, &Tracer::new(false), 0)?);
        if i < DATASETS {
            served.push(pts);
        }
    }
    drop(untimed);
    let inputs = Inputs { served, expect };

    let dir = Path::new(crate::OUT_DIR);
    let mut setup_s = Vec::new();
    let (daemon, mut clients) = set_up(dir, 0, &inputs, &mut setup_s)?;

    let h0 = health(&mut clients[0])?;
    let m0 = scrape(&mut clients[0])?;
    let budget = Duration::from_secs(args.seconds);
    let segment = budget / SEGMENTS as u32;
    let barrier = Barrier::new(CLIENTS + 1);
    let mut samples: Vec<JobSample> = Vec::new();
    let mut probe = host::Probe::default();
    let mut probes = Vec::new();
    let mut excluded = Duration::ZERO;
    let mut pause_errors = Vec::new();
    let start = Instant::now();
    let per_client: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .drain(..)
            .enumerate()
            .map(|(c, mut client)| {
                let (inputs, barrier) = (&inputs, &barrier);
                s.spawn(move || {
                    let mut mine = Vec::new();
                    let mut errors = Vec::new();
                    let mut i = 0usize;
                    for seg in 0..SEGMENTS {
                        let seg_start = Instant::now();
                        while seg_start.elapsed() < segment
                            || (seg + 1 == SEGMENTS && i < MIN_JOBS / CLIENTS)
                        {
                            // The two clients start half a cycle apart. The
                            // request is built here, outside the job's
                            // latency, and dropped after it.
                            let (pts, approx, want) = inputs.cycle(i + c * DATASETS);
                            let req = submit_req(pts, approx);
                            let job = (c * 1_000_000 + i) as u64;
                            match one_job(&mut client, &req, tracer, job) {
                                Ok((s, res)) => {
                                    mine.push(s);
                                    if let Err(e) = check::served(&res, want) {
                                        errors.push((true, format!("job {job}: {e}")));
                                    }
                                }
                                Err(e) => errors.push((false, format!("job {job}: {e}"))),
                            }
                            i += 1;
                        }
                        barrier.wait();
                        barrier.wait();
                    }
                    (client, mine, errors, i)
                })
            })
            .collect();
        for seg in 0..SEGMENTS {
            barrier.wait();
            let t = Instant::now();
            probes.extend((0..4).map(|_| probe.ms()));
            match set_up(dir, seg + 1, &inputs, &mut setup_s) {
                Ok(spare) => {
                    stop(spare);
                }
                Err(e) => pause_errors.push(format!("set-up {}: {e}", seg + 1)),
            }
            let half = REFERENCE_DATASETS / 2;
            for i in (seg % 2 * half)..(seg % 2 * half + half) {
                let pts = dataset(args.seed, i);
                let e = &inputs.expect[i];
                let job = REFERENCE_JOB_IDS + (seg * REFERENCE_DATASETS + i) as u64;
                if let Err(err) = lib.round(&pts, seg + i, tracer, job).and_then(|h| {
                    check::same_labels("standalone exact, repeated", e.exact, h.exact)?;
                    check::same_labels("standalone approx, repeated", e.approx, h.approx)
                }) {
                    pause_errors.push(err);
                }
            }
            excluded += t.elapsed();
            barrier.wait();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().saturating_sub(excluded).as_secs_f64();
    for e in pause_errors {
        out.wrong(e);
    }
    for (client, mine, errors, tried) in per_client {
        clients.push(client);
        samples.extend(mine);
        out.attempted += tried as u64;
        for (wrong, e) in errors {
            if wrong {
                out.wrong(e);
            } else {
                out.failed += 1;
                out.note("failure", Value::Str(e));
            }
        }
    }
    let h1 = health(&mut clients[0])?;
    let m1 = scrape(&mut clients[0])?;

    let lat: Vec<f64> = samples.iter().map(|s| s.latency).collect();
    let p50 = median(&lat);
    out.set("job_p50_ms", p50);
    out.set("job_p90_ms", quantile(&lat, 0.9));
    out.set("jobs_per_s", samples.len() as f64 / wall);
    out.set("setup_wall_s", median(&setup_s));
    out.set("host.probe_ms", median(&probes));
    out.note("jobs", Value::Num(samples.len() as f64));
    out.note("setups", Value::Num(setup_s.len() as f64));
    lib.report_end_to_end(out);

    if tracer.enabled() {
        lib.report_layers(out);
        let col = |f: fn(&JobSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
        let (enc, dec, sub, res) = (
            col(|s| s.encode),
            col(|s| s.decode),
            col(|s| s.submit),
            col(|s| s.result),
        );
        out.set("client.encode_ms", enc);
        out.set("json.decode_ms", dec);
        out.set("json.result_decode_ms", col(|s| s.result_decode));
        out.set("wire.request_bytes", col(|s| s.request_bytes));
        out.set("wire.response_bytes", col(|s| s.response_bytes));
        out.set("server.submit_ms", sub);
        out.set("server.result_ms", res);
        out.set("server.submit_residual_ms", sub - enc - dec);
        out.set(
            "server.queue_wait_ms",
            hist_mean_ms(&m0, &m1, "queue_wait_us"),
        );
        out.set(
            "server.service_ms",
            hist_mean_ms(&m0, &m1, "service_time_us"),
        );
        let delta = |path: &[&str]| num(&h1, path) - num(&h0, path);
        out.set("server.shed", delta(&["shed_jobs"]));
        out.set("server.failed", delta(&["failed"]));
        let (hits, misses) = (delta(&["cache", "hits"]), delta(&["cache", "misses"]));
        out.set("cache.hit_ratio", hits / (hits + misses).max(1.0));
        out.set("cache.evictions", delta(&["cache", "evictions"]));
        out.set("journal.compactions", delta(&["journal", "compactions"]));
        out.set("recon.job_gap_ms", p50 - (sub + res));
        out.note("share.submit_of_job_p50", Value::Num(sub / p50));
        out.note(
            "share.submit_residual_of_job_p50",
            Value::Num((sub - enc - dec) / p50),
        );
        out.note(
            "share.encode_decode_of_job_p50",
            Value::Num((enc + dec) / p50),
        );
        out.note("share.result_of_job_p50", Value::Num(res / p50));
        out.note(
            "recon.submit_breakdown",
            obj(vec![
                ("submit_ms", Value::Num(sub)),
                ("encode_plus_decode_ms", Value::Num(enc + dec)),
                ("unattributed_ms", Value::Num(sub - enc - dec)),
                ("adds_up", Value::Bool((sub - enc - dec) <= 0.1 * sub)),
            ]),
        );
        // Journal growth per job, from the stats envelope around single
        // jobs (skipping any that triggered a compaction).
        let mut per_job = Vec::new();
        for k in 0..DATASETS {
            let (pts, approx, want) = inputs.cycle(2 * k);
            let req = submit_req(pts, approx);
            let before = health(&mut clients[0])?;
            let (_, res) = one_job(&mut clients[0], &req, &Tracer::new(false), k as u64)?;
            check::served(&res, want)?;
            let after = health(&mut clients[0])?;
            if num(&after, &["journal", "compactions"]) == num(&before, &["journal", "compactions"])
            {
                per_job
                    .push(num(&after, &["journal", "bytes"]) - num(&before, &["journal", "bytes"]));
            }
        }
        out.set(
            "journal.bytes_per_job",
            if per_job.is_empty() {
                0.0
            } else {
                median(&per_job)
            },
        );
    }
    out.note("final_envelope", stop((daemon, clients)));
    Ok(())
}

/// One set-up: daemon start, connections, the first `health` reply and one
/// warm-up `exact` job per served dataset, which fills the structure cache.
/// Its time, less the building of the warm-up requests, goes to `times`.
fn set_up(
    dir: &Path,
    rep: usize,
    inputs: &Inputs,
    times: &mut Vec<f64>,
) -> Result<(Daemon, Vec<Client>), String> {
    let t = Instant::now();
    let d = Daemon::start(dir, rep).map_err(|e| format!("daemon start: {e}"))?;
    let mut clients = (0..CLIENTS)
        .map(|_| Client::connect_unix_retry(&d.socket, Duration::from_secs(10)))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    health(&mut clients[0])?;
    let mut building = Duration::ZERO;
    for k in 0..DATASETS {
        let b = Instant::now();
        let (pts, approx, want) = inputs.cycle(2 * k);
        let req = submit_req(pts, approx);
        building += b.elapsed();
        let (_, res) = one_job(&mut clients[0], &req, &Tracer::new(false), k as u64)?;
        check::served(&res, want).map_err(|e| format!("warm-up: {e}"))?;
    }
    times.push(t.elapsed().saturating_sub(building).as_secs_f64());
    Ok((d, clients))
}

/// Closes the connections, then drains the daemon; returns its final stats.
fn stop((daemon, clients): (Daemon, Vec<Client>)) -> Value {
    drop(clients);
    daemon.stop()
}
