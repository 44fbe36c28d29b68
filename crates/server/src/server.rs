//! The daemon: listener, admission control, executor pool, drain logic.
//!
//! Threading model (all threads joined on shutdown — the isolation tests
//! assert `/proc/self/task` returns to baseline):
//!
//! * one *orchestrator* thread runs the nonblocking accept loop and drives
//!   the drain state machine;
//! * one handler thread per connection, reading newline-delimited JSON
//!   requests with a short read timeout so it can notice shutdown;
//! * `workers` executor threads pull jobs off the bounded queue; each job
//!   runs under `catch_unwind` plus its own [`RunCtl`], so a panicking or
//!   fault-injected request becomes a typed error line while concurrent
//!   requests are untouched;
//! * one shared [`WorkerPool`] of `job_threads` for `threads` jobs (its
//!   `phase_lock` serializes phases across concurrent jobs — saturated,
//!   never oversubscribed); the other jobs run inline on the one-thread
//!   pool, and both kinds share the structure cache. The pool is owned by
//!   the server and dropped on shutdown, unlike the never-torn-down
//!   process-global pool;
//! * one *sampler* thread feeding the rolling health time-series, and (only
//!   with `--metrics-listen`) one scrape-only HTTP thread serving the
//!   Prometheus text exposition.

use crate::cache::{CacheKey, CellsCache};
use crate::journal::{Journal, JournalConfig};
use crate::json::{obj, parse, Value};
use crate::logging::{Level, Logger};
use crate::metrics::{render_prometheus, Gauges, MCounter, MHist};
use crate::signals;
use crate::telemetry::{HealthSample, Telemetry};
use dbscan_core::algorithms::{self, cluster, ApproxOracle, BcpStrategy, Spec};
use dbscan_core::cells::CoreCells;
use dbscan_core::dim::{points_from_flat, MAX_DIM};
use dbscan_core::error::validate_rho;
use dbscan_core::hash::{fnv1a_f64s, Fnv1a};
use dbscan_core::{
    parse_duration, with_dim, Clustering, Counter, DbscanError, DbscanParams, DeadlineConfig,
    DeadlineOutcome, DeadlinePolicy, FaultPlan, NoStats, ParConfig, RecoveryPolicy, ResourceLimits,
    RunCtl, StageId, Stats, StatsReport, StatsSink, TraceFormat, TracedStats, WorkerPool,
};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where the daemon listens.
#[derive(Clone, Debug)]
pub enum Bind {
    /// Unix-domain socket at this path (removed on clean shutdown).
    Unix(PathBuf),
    /// TCP address like `127.0.0.1:7474` (`:0` picks a free port).
    Tcp(String),
}

/// Daemon configuration; every field maps to a `dbscan serve` flag.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    pub bind: Bind,
    /// Queue depth past which submissions are shed with `retry_after_ms`.
    pub max_queue: usize,
    /// Executor threads (concurrent jobs).
    pub workers: usize,
    /// Threads in the shared parallel-pipeline pool.
    pub job_threads: usize,
    /// Queue age past which queued *exact* jobs are switched to
    /// ρ-approximate (`overload_rho`); `None` disables pressure degradation.
    pub pressure_threshold: Option<Duration>,
    /// The ρ used for pressure-degraded jobs (Sandwich-valid per Theorem 3).
    pub overload_rho: f64,
    /// How long a SIGTERM/`shutdown` drain may take before in-flight jobs
    /// are interrupted and queued jobs cancelled.
    pub drain_deadline: Duration,
    /// Per-request index-build byte budget ([`ResourceLimits`]).
    pub max_index_bytes: Option<u64>,
    /// Byte budget for the [`CellsCache`].
    pub cache_bytes: u64,
    /// Optional TCP address for the scrape-only Prometheus endpoint
    /// (`GET` anything → the text exposition); `None` disables the listener
    /// (the `metrics` verb works either way).
    pub metrics_listen: Option<String>,
    /// Structured-log severity threshold.
    pub log_level: Level,
    /// JSON-lines log destination; `None` logs to stderr.
    pub log_file: Option<PathBuf>,
    /// Rotation threshold for `log_file` (renamed to `<path>.1` when full).
    pub log_max_bytes: u64,
    /// Health time-series sampling period.
    pub sample_interval: Duration,
    /// Byte cap for an inline per-request trace (`submit {"trace":...}`).
    pub trace_max_bytes: usize,
    /// Health time-series ring capacity (samples retained).
    pub timeseries_cap: usize,
    /// Write-ahead job journal (`--journal DIR`); `None` keeps the daemon
    /// fully in-memory — the pre-journal zero-overhead path.
    pub journal: Option<JournalConfig>,
    /// Idle deadline per connection (`--conn-timeout`): a connection with no
    /// complete frame for this long is evicted (slow-loris defense). `None`
    /// disables eviction.
    pub conn_timeout: Option<Duration>,
    /// Hard cap on a single request frame; a partial frame growing past it
    /// gets a typed `frame_too_large` error and the connection is closed.
    pub max_frame_bytes: usize,
    /// Concurrent-connection cap; past it, new connections get a typed
    /// `too_many_conns` line and are dropped at accept.
    pub max_conns: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            max_queue: 64,
            workers: 2,
            job_threads: 1,
            pressure_threshold: None,
            overload_rho: 1e-2,
            drain_deadline: Duration::from_secs(5),
            max_index_bytes: None,
            cache_bytes: 64 << 20,
            metrics_listen: None,
            log_level: Level::Info,
            log_file: None,
            log_max_bytes: 10 << 20,
            sample_interval: Duration::from_secs(1),
            trace_max_bytes: 4 << 20,
            timeseries_cap: 600,
            journal: None,
            conn_timeout: None,
            max_frame_bytes: 16 << 20,
            max_conns: 1024,
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Algorithm {
    Exact,
    Approx { rho: f64 },
}

/// A rendered per-request trace, size-capped at `trace_max_bytes`.
struct TraceCapture {
    rendered: String,
    /// The render hit the byte cap (events/lines were omitted).
    truncated: bool,
    /// Events lost in the tracer's ring buffers before rendering.
    events_dropped: u64,
}

/// One parsed `submit` request (or its journal-decoded twin — the journal
/// module serializes and reconstructs these across restarts).
#[derive(Clone, Debug)]
pub(crate) struct JobSpec {
    pub(crate) points: Arc<Vec<f64>>, // flattened row-major, n × dim
    /// [`fnv1a_f64s`] of `points`, computed once per job: the dataset part
    /// of the structure-cache key and the journal record's `points_fnv`.
    pub(crate) points_fnv: u64,
    pub(crate) dim: usize,
    pub(crate) params: DbscanParams,
    pub(crate) algorithm: Algorithm,
    /// Run on the shared pool instead of the one-thread pool. Implied by a
    /// fault spec.
    pub(crate) parallel: bool,
    pub(crate) recovery: RecoveryPolicy,
    pub(crate) deadline: DeadlineConfig,
    pub(crate) faults: Option<FaultPlan>,
    /// Testing aid: hold the executor for this long (in cancellable slices)
    /// before clustering, so tests can fill the queue deterministically.
    pub(crate) pause_ms: u64,
    /// Testing aid (fault-injection builds only): panic at the job boundary,
    /// exercising the server's own `catch_unwind`.
    #[cfg_attr(not(feature = "fault-injection"), allow(dead_code))]
    pub(crate) boom: bool,
    pub(crate) return_labels: bool,
    pub(crate) tag: Option<String>,
    /// Capture a per-request trace through `TracedStats` and return it
    /// inline with the result.
    pub(crate) trace: Option<TraceFormat>,
    /// Re-enqueued from the journal after a restart (surfaced in `status`
    /// responses so clients can tell replayed work from fresh work).
    pub(crate) recovered: bool,
}

struct JobOutput {
    clustering: Clustering,
    outcome: &'static str,
    complete: bool,
    from_cache: bool,
    degraded_by_server: bool,
    rho_used: Option<f64>,
    elapsed: Duration,
    trace: Option<TraceCapture>,
}

enum JobState {
    Queued,
    Running,
    Done(Box<JobOutput>),
    Failed { code: &'static str, message: String },
    Cancelled,
}

impl JobState {
    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed { .. } => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done(_) | JobState::Failed { .. } | JobState::Cancelled
        )
    }
}

struct JobRecord {
    spec: JobSpec,
    state: JobState,
    ctl: Arc<RunCtl>,
    submitted: Instant,
}

/// Terminal records retained past this count are evicted oldest-first, so a
/// client that never fetches its result cannot pin job memory forever.
const MAX_TERMINAL_RECORDS: usize = 256;

/// The job map plus bounded retention of terminal records. Without the bound
/// (and the consume-once `result` eviction) every submission would retain its
/// input points and labels for the life of the daemon.
#[derive(Default)]
struct JobTable {
    map: HashMap<u64, JobRecord>,
    /// Terminal job ids, oldest first; drives the retention bound.
    retired: VecDeque<u64>,
}

impl JobTable {
    /// Moves a record into a terminal state. The input points are released
    /// immediately — `status`/`result` only need the spec's metadata — and
    /// the record joins the bounded retirement queue.
    fn finish(&mut self, id: u64, state: JobState) {
        debug_assert!(state.terminal());
        if let Some(rec) = self.map.get_mut(&id) {
            rec.state = state;
            rec.spec.points = Arc::new(Vec::new());
            self.retired.push_back(id);
            while self.retired.len() > MAX_TERMINAL_RECORDS {
                if let Some(old) = self.retired.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }

    /// Releases a terminal record whose result has been delivered
    /// (`result` is consume-once; see the README protocol section).
    fn remove_delivered(&mut self, id: u64) {
        self.map.remove(&id);
        self.retired.retain(|&x| x != id);
    }
}

struct Shared {
    cfg: ServerConfig,
    queue: Mutex<VecDeque<u64>>,
    work_cv: Condvar,
    jobs: Mutex<JobTable>,
    done_cv: Condvar,
    next_id: AtomicU64,
    running: AtomicUsize,
    /// The observability plane: metrics registry (the *single* source of
    /// truth for every counter — `health`, `metrics`, and the final stats
    /// envelope all project these atomics), logger, trace budget, and the
    /// health time-series ring.
    tel: Telemetry,
    cache: Mutex<CellsCache>,
    pool: Arc<WorkerPool>,
    started: Instant,
    /// Set by the `shutdown` verb or a signal: refuse admissions, drain.
    draining: AtomicBool,
    /// Set at the end of drain: connection handlers and executors exit.
    stopping: AtomicBool,
    /// The write-ahead journal (`--journal`); lock ordering: the journal
    /// lock is always innermost (taken while holding `queue` on submit or
    /// `jobs` on finish, never the other way around).
    journal: Option<Mutex<Journal>>,
    /// Live connection-handler count, for the `--max-conns` accept gate.
    conns: AtomicUsize,
}

impl Shared {
    fn queue_depth(&self) -> usize {
        self.queue.lock().unwrap().len()
    }

    /// Point-in-time gauges for the exposition (sampled at scrape time).
    fn gauges(&self) -> Gauges {
        Gauges {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            queue_depth: self.queue_depth() as u64,
            running: self.running.load(Ordering::SeqCst) as u64,
            draining: self.draining.load(Ordering::SeqCst),
            workers: self.cfg.workers as u64,
            job_threads: self.cfg.job_threads as u64,
            max_queue: self.cfg.max_queue as u64,
            cache: self.cache.lock().unwrap().stats(),
        }
    }

    /// Takes one health snapshot and folds it into the time-series ring.
    fn sample_health(&self) {
        let m = &self.tel.metrics;
        let cache = self.cache.lock().unwrap().stats();
        let sample = HealthSample {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            queue_depth: self.queue_depth() as u64,
            running: self.running.load(Ordering::SeqCst) as u64,
            avg_job_ms: m.avg_job_ms.load(Ordering::SeqCst),
            submitted: m.get(MCounter::Submitted),
            completed: m.get(MCounter::Completed),
            failed: m.get(MCounter::Failed),
            cancelled: m.get(MCounter::Cancelled),
            shed: m.get(MCounter::ShedJobs),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_bytes: cache.bytes,
            completed_in_window: 0,
            throughput_per_s: 0.0,
            cache_hit_rate: 0.0,
        };
        self.tel.ring.lock().unwrap().push(sample);
    }

    fn stats_value(&self) -> Value {
        let m = &self.tel.metrics;
        let cache = self.cache.lock().unwrap().stats();
        obj(vec![
            ("schema", Value::Str("dbscan-server-stats/v1".to_string())),
            (
                "uptime_ms",
                Value::Num(self.started.elapsed().as_millis() as f64),
            ),
            ("queue_depth", Value::Num(self.queue_depth() as f64)),
            (
                "running",
                Value::Num(self.running.load(Ordering::SeqCst) as f64),
            ),
            ("workers", Value::Num(self.cfg.workers as f64)),
            ("job_threads", Value::Num(self.cfg.job_threads as f64)),
            ("max_queue", Value::Num(self.cfg.max_queue as f64)),
            ("submitted", Value::Num(m.get(MCounter::Submitted) as f64)),
            ("completed", Value::Num(m.get(MCounter::Completed) as f64)),
            ("failed", Value::Num(m.get(MCounter::Failed) as f64)),
            ("cancelled", Value::Num(m.get(MCounter::Cancelled) as f64)),
            ("shed_jobs", Value::Num(m.get(MCounter::ShedJobs) as f64)),
            (
                "degraded_jobs",
                Value::Num(m.get(MCounter::DegradedJobs) as f64),
            ),
            (
                "worker_panics",
                Value::Num(m.get(MCounter::WorkerPanics) as f64),
            ),
            (
                "sequential_fallbacks",
                Value::Num(m.get(MCounter::SequentialFallbacks) as f64),
            ),
            (
                "recovered_jobs",
                Value::Num(m.get(MCounter::RecoveredJobs) as f64),
            ),
            (
                "evicted_conns",
                Value::Num(m.get(MCounter::EvictedConns) as f64),
            ),
            (
                "malformed_frames",
                Value::Num(m.get(MCounter::MalformedFrames) as f64),
            ),
            (
                "rejected_conns",
                Value::Num(m.get(MCounter::RejectedConns) as f64),
            ),
            (
                "draining",
                Value::Bool(self.draining.load(Ordering::SeqCst)),
            ),
            (
                "cache",
                obj(vec![
                    ("hits", Value::Num(cache.hits as f64)),
                    ("misses", Value::Num(cache.misses as f64)),
                    ("evictions", Value::Num(cache.evictions as f64)),
                    ("collisions", Value::Num(cache.collisions as f64)),
                    ("entries", Value::Num(cache.entries as f64)),
                    ("bytes", Value::Num(cache.bytes as f64)),
                    ("budget_bytes", Value::Num(cache.budget_bytes as f64)),
                ]),
            ),
            (
                "journal",
                match &self.journal {
                    Some(j) => {
                        let j = j.lock().unwrap();
                        obj(vec![
                            ("bytes", Value::Num(j.len_bytes() as f64)),
                            ("live_jobs", Value::Num(j.live_jobs() as f64)),
                            ("compactions", Value::Num(j.compactions() as f64)),
                        ])
                    }
                    None => Value::Null,
                },
            ),
        ])
    }
}

enum Listener {
    Unix(std::os::unix::net::UnixListener),
    Tcp(std::net::TcpListener),
}

enum Stream {
    Unix(std::os::unix::net::UnixStream),
    Tcp(std::net::TcpStream),
}

impl Stream {
    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(t),
            Stream::Tcp(s) => s.set_read_timeout(t),
        }
    }

    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }
}

impl std::io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A started daemon. Dropping the handle without calling [`ServerHandle::wait`]
/// leaks the threads; the CLI and tests always wait.
pub struct ServerHandle {
    shared: Arc<Shared>,
    orchestrator: JoinHandle<()>,
    /// The bound TCP address (for `Bind::Tcp(":0")` tests); `None` for unix.
    pub tcp_addr: Option<std::net::SocketAddr>,
    /// The bound Prometheus scrape address (`metrics_listen`); `None` when
    /// the HTTP endpoint is disabled.
    pub metrics_addr: Option<std::net::SocketAddr>,
}

impl ServerHandle {
    /// Asks the daemon to drain (same as the `shutdown` verb or SIGTERM).
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.work_cv.notify_all();
    }

    /// Blocks until the daemon has fully drained and every thread it spawned
    /// has been joined; returns the final stats envelope.
    pub fn wait(self) -> Value {
        let _ = self.orchestrator.join();
        let stats = self.shared.stats_value();
        drop(self.shared);
        stats
    }
}

/// Binds the listener and spawns the daemon threads.
pub fn start(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = match &cfg.bind {
        Bind::Unix(path) => {
            // A stale socket file from a crashed predecessor would make bind
            // fail; only remove it if nothing is listening there.
            if path.exists() && std::os::unix::net::UnixStream::connect(path).is_err() {
                let _ = std::fs::remove_file(path);
            }
            Listener::Unix(std::os::unix::net::UnixListener::bind(path)?)
        }
        Bind::Tcp(addr) => Listener::Tcp(std::net::TcpListener::bind(addr)?),
    };
    let tcp_addr = match &listener {
        Listener::Tcp(l) => Some(l.local_addr()?),
        Listener::Unix(_) => None,
    };
    match &listener {
        Listener::Unix(l) => l.set_nonblocking(true)?,
        Listener::Tcp(l) => l.set_nonblocking(true)?,
    }
    let metrics_listener = match &cfg.metrics_listen {
        Some(addr) => {
            let l = std::net::TcpListener::bind(addr)?;
            l.set_nonblocking(true)?;
            Some(l)
        }
        None => None,
    };
    let metrics_addr = match &metrics_listener {
        Some(l) => Some(l.local_addr()?),
        None => None,
    };

    let log = match &cfg.log_file {
        Some(path) => Logger::to_file(cfg.log_level, path.clone(), cfg.log_max_bytes)?,
        None => Logger::stderr(cfg.log_level),
    };
    let tel = Telemetry::new(
        log,
        cfg.timeseries_cap,
        cfg.sample_interval,
        cfg.trace_max_bytes,
    );

    // Open and replay the journal before any thread starts: recovered jobs
    // must be queued before the executors can race them.
    let (journal, replay) = match &cfg.journal {
        Some(jc) => {
            let (j, replay) = Journal::open(jc)?;
            (Some(Mutex::new(j)), Some(replay))
        }
        None => (None, None),
    };

    let shared = Arc::new(Shared {
        pool: Arc::new(WorkerPool::new(cfg.job_threads)),
        cache: Mutex::new(CellsCache::new(cfg.cache_bytes)),
        cfg,
        queue: Mutex::new(VecDeque::new()),
        work_cv: Condvar::new(),
        jobs: Mutex::new(JobTable::default()),
        done_cv: Condvar::new(),
        next_id: AtomicU64::new(1),
        running: AtomicUsize::new(0),
        tel,
        started: Instant::now(),
        draining: AtomicBool::new(false),
        stopping: AtomicBool::new(false),
        journal,
        conns: AtomicUsize::new(0),
    });

    if let Some(replay) = replay {
        if let Some(t) = &replay.truncation {
            shared.tel.log.warn(
                "journal_truncated",
                vec![
                    ("valid_bytes", Value::Num(t.valid_bytes as f64)),
                    ("dropped_bytes", Value::Num(t.dropped_bytes as f64)),
                    ("reason", Value::Str(t.reason.clone())),
                ],
            );
        }
        if replay.max_id > 0 {
            shared.next_id.store(replay.max_id + 1, Ordering::SeqCst);
        }
        if !replay.recovered.is_empty() {
            let n = replay.recovered.len();
            let mut queue = shared.queue.lock().unwrap();
            let mut jobs = shared.jobs.lock().unwrap();
            for (id, mut spec) in replay.recovered {
                spec.recovered = true;
                let ctl = Arc::new(RunCtl::cancellable(&spec.deadline));
                jobs.map.insert(
                    id,
                    JobRecord {
                        spec,
                        state: JobState::Queued,
                        ctl,
                        submitted: Instant::now(),
                    },
                );
                queue.push_back(id);
                // Recovered jobs count as submitted too, keeping the
                // accounting invariant submitted == completed+failed+cancelled
                // intact within one process lifetime.
                shared.tel.metrics.bump(MCounter::Submitted);
                shared.tel.metrics.bump(MCounter::RecoveredJobs);
            }
            drop(jobs);
            drop(queue);
            shared
                .tel
                .log
                .info("journal_recovered", vec![("jobs", Value::Num(n as f64))]);
        }
    }

    let bind_desc = match (&shared.cfg.bind, tcp_addr) {
        (Bind::Unix(path), _) => format!("unix:{}", path.display()),
        (Bind::Tcp(_), Some(addr)) => format!("tcp:{addr}"),
        (Bind::Tcp(a), None) => format!("tcp:{a}"),
    };
    shared.tel.log.info(
        "server_start",
        vec![
            ("bind", Value::Str(bind_desc)),
            ("workers", Value::Num(shared.cfg.workers as f64)),
            ("job_threads", Value::Num(shared.cfg.job_threads as f64)),
            ("max_queue", Value::Num(shared.cfg.max_queue as f64)),
            ("cache_bytes", Value::Num(shared.cfg.cache_bytes as f64)),
            (
                "drain_deadline_ms",
                Value::Num(shared.cfg.drain_deadline.as_millis() as f64),
            ),
            (
                "metrics_listen",
                match metrics_addr {
                    Some(a) => Value::Str(a.to_string()),
                    None => Value::Null,
                },
            ),
        ],
    );

    let executors: Vec<JoinHandle<()>> = (0..shared.cfg.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("dbscan-exec-{i}"))
                .spawn(move || executor_loop(&shared))
                .expect("spawn executor")
        })
        .collect();

    let mut aux: Vec<JoinHandle<()>> = Vec::new();
    {
        let shared = Arc::clone(&shared);
        aux.push(
            std::thread::Builder::new()
                .name("dbscan-sample".to_string())
                .spawn(move || sampler_loop(&shared))
                .expect("spawn sampler"),
        );
    }
    if let Some(l) = metrics_listener {
        let shared = Arc::clone(&shared);
        aux.push(
            std::thread::Builder::new()
                .name("dbscan-metrics".to_string())
                .spawn(move || metrics_http_loop(&shared, l))
                .expect("spawn metrics listener"),
        );
    }

    let orch_shared = Arc::clone(&shared);
    let orchestrator = std::thread::Builder::new()
        .name("dbscan-accept".to_string())
        .spawn(move || orchestrate(&orch_shared, listener, executors, aux))
        .expect("spawn orchestrator");

    Ok(ServerHandle {
        shared,
        orchestrator,
        tcp_addr,
        metrics_addr,
    })
}

/// Periodic health sampler: one [`HealthSample`] per `sample_interval` into
/// the bounded ring, sleeping in short slices so shutdown is prompt.
fn sampler_loop(shared: &Arc<Shared>) {
    let mut next = Instant::now() + shared.tel.sample_interval;
    loop {
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        if Instant::now() >= next {
            shared.sample_health();
            next = Instant::now() + shared.tel.sample_interval;
        }
        std::thread::sleep(Duration::from_millis(20).min(shared.tel.sample_interval));
    }
}

/// Scrape-only HTTP listener: any request gets the current Prometheus text
/// exposition back. Deliberately minimal — no routing, no keep-alive — so
/// it cannot become an unauthenticated control surface.
fn metrics_http_loop(shared: &Arc<Shared>, listener: std::net::TcpListener) {
    loop {
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
                let mut buf = [0u8; 1024];
                let _ = std::io::Read::read(&mut stream, &mut buf);
                let body = render_prometheus(&shared.tel.metrics, &shared.gauges());
                let resp = format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                );
                let _ = stream.write_all(resp.as_bytes());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// Accept loop + drain state machine; joins every thread before returning.
fn orchestrate(
    shared: &Arc<Shared>,
    listener: Listener,
    executors: Vec<JoinHandle<()>>,
    aux: Vec<JoinHandle<()>>,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    let mut drain_started: Option<Instant> = None;
    let mut interrupted = false;
    let mut sync_err_logged = false;
    loop {
        if signals::shutdown_requested() {
            shared.draining.store(true, Ordering::SeqCst);
        }
        if let Some(journal) = &shared.journal {
            // Interval-mode flush; with sync=always this is a no-op.
            match journal.lock().unwrap().sync_if_due() {
                Ok(()) => sync_err_logged = false,
                Err(e) => {
                    if !sync_err_logged {
                        sync_err_logged = true;
                        shared.tel.log.warn(
                            "journal_error",
                            vec![("message", Value::Str(format!("interval sync: {e}")))],
                        );
                    }
                }
            }
        }
        if shared.draining.load(Ordering::SeqCst) && drain_started.is_none() {
            drain_started = Some(Instant::now());
            shared.tel.log.info(
                "server_drain",
                vec![
                    ("queue_depth", Value::Num(shared.queue_depth() as f64)),
                    (
                        "running",
                        Value::Num(shared.running.load(Ordering::SeqCst) as f64),
                    ),
                ],
            );
            shared.work_cv.notify_all();
        }
        if let Some(t0) = drain_started {
            let idle = shared.queue_depth() == 0 && shared.running.load(Ordering::SeqCst) == 0;
            if idle {
                break;
            }
            if t0.elapsed() > shared.cfg.drain_deadline && !interrupted {
                interrupted = true;
                // Past the drain deadline: cancel everything still queued and
                // interrupt everything running; the cooperative checkpoints
                // bring jobs back within one slice.
                let drained: Vec<u64> = shared.queue.lock().unwrap().drain(..).collect();
                let mut jobs = shared.jobs.lock().unwrap();
                let mut drain_cancelled = 0u64;
                for id in drained {
                    if jobs.map.get(&id).is_some_and(|rec| !rec.state.terminal()) {
                        finish_job(shared, &mut jobs, id, JobState::Cancelled);
                        shared.tel.metrics.bump(MCounter::Cancelled);
                        drain_cancelled += 1;
                    }
                }
                if drain_cancelled > 0 {
                    shared.tel.log.warn(
                        "drain_deadline_exceeded",
                        vec![("cancelled_queued", Value::Num(drain_cancelled as f64))],
                    );
                }
                for rec in jobs.map.values() {
                    if matches!(rec.state, JobState::Running) {
                        rec.ctl.interrupt();
                    }
                }
                drop(jobs);
                shared.done_cv.notify_all();
                shared.work_cv.notify_all();
            }
        }

        let accepted = match &listener {
            Listener::Unix(l) => match l.accept() {
                Ok((s, _)) => Some(Stream::Unix(s)),
                Err(e) if e.kind() == ErrorKind::WouldBlock => None,
                Err(_) => None,
            },
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => Some(Stream::Tcp(s)),
                Err(e) if e.kind() == ErrorKind::WouldBlock => None,
                Err(_) => None,
            },
        };
        match accepted {
            Some(mut stream) => {
                if shared.conns.load(Ordering::SeqCst) >= shared.cfg.max_conns {
                    // At the cap: answer with a typed error and hang up
                    // rather than spawning an unbounded handler thread.
                    shared.tel.metrics.bump(MCounter::RejectedConns);
                    shared.tel.log.warn(
                        "conn_rejected",
                        vec![("max_conns", Value::Num(shared.cfg.max_conns as f64))],
                    );
                    let mut line =
                        err_value("too_many_conns", "connection limit reached; retry later")
                            .to_line();
                    line.push('\n');
                    let _ = stream.write_all(line.as_bytes());
                } else {
                    shared.conns.fetch_add(1, Ordering::SeqCst);
                    let conn_shared = Arc::clone(shared);
                    match std::thread::Builder::new()
                        .name("dbscan-conn".to_string())
                        .spawn(move || handle_connection(&conn_shared, stream))
                    {
                        Ok(h) => conns.push(h),
                        Err(_) => {
                            shared.conns.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                }
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
        conns.retain(|h| !h.is_finished());
    }

    // Drained: tell everyone to exit and join them all.
    shared.stopping.store(true, Ordering::SeqCst);
    shared.work_cv.notify_all();
    shared.done_cv.notify_all();
    for h in executors {
        let _ = h.join();
    }
    for h in aux {
        let _ = h.join();
    }
    for h in conns {
        let _ = h.join();
    }
    drop(listener);
    if let Bind::Unix(path) = &shared.cfg.bind {
        let _ = std::fs::remove_file(path);
    }
    let m = &shared.tel.metrics;
    shared.tel.log.info(
        "server_exit",
        vec![
            (
                "uptime_ms",
                Value::Num(shared.started.elapsed().as_millis() as f64),
            ),
            ("submitted", Value::Num(m.get(MCounter::Submitted) as f64)),
            ("completed", Value::Num(m.get(MCounter::Completed) as f64)),
            ("failed", Value::Num(m.get(MCounter::Failed) as f64)),
            ("cancelled", Value::Num(m.get(MCounter::Cancelled) as f64)),
            ("shed_jobs", Value::Num(m.get(MCounter::ShedJobs) as f64)),
            (
                "degraded_jobs",
                Value::Num(m.get(MCounter::DegradedJobs) as f64),
            ),
            (
                "worker_panics",
                Value::Num(m.get(MCounter::WorkerPanics) as f64),
            ),
        ],
    );
}

fn handle_connection(shared: &Arc<Shared>, stream: Stream) {
    struct ConnGuard<'a>(&'a Shared);
    impl Drop for ConnGuard<'_> {
        fn drop(&mut self) {
            self.0.conns.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let _guard = ConnGuard(shared);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = stream;
    // Byte-level framing with a hard cap, replacing the old unbounded
    // `read_line`: a client streaming newline-free bytes can pin at most
    // `max_frame_bytes` (+ one read chunk) of memory per connection.
    let mut buf: Vec<u8> = Vec::new();
    // Bytes at the front of `buf` already searched for a newline, so each
    // read chunk is scanned once: rescanning the whole partial frame after
    // every chunk made a large frame cost quadratic time to receive.
    let mut scanned = 0;
    let mut chunk = [0u8; 8192];
    let mut last_activity = Instant::now();
    loop {
        // Serve every complete frame already buffered.
        while let Some(off) = buf[scanned..].iter().position(|&b| b == b'\n') {
            let frame: Vec<u8> = buf.drain(..=scanned + off).collect();
            scanned = 0;
            if !serve_frame(shared, &frame[..frame.len() - 1], &mut writer) {
                return;
            }
            // A long blocking verb (`result` with wait) is activity too.
            last_activity = Instant::now();
        }
        scanned = buf.len();
        // A partial frame past the cap can never complete: answer with a
        // typed error and hang up — the buffer itself is the attack surface.
        if buf.len() > shared.cfg.max_frame_bytes {
            shared.tel.metrics.bump(MCounter::MalformedFrames);
            shared.tel.log.warn(
                "frame_too_large",
                vec![
                    ("bytes", Value::Num(buf.len() as f64)),
                    (
                        "max_frame_bytes",
                        Value::Num(shared.cfg.max_frame_bytes as f64),
                    ),
                ],
            );
            let _ = write_line(
                &mut writer,
                &err_value(
                    "frame_too_large",
                    &format!(
                        "frame exceeds --max-frame-bytes ({})",
                        shared.cfg.max_frame_bytes
                    ),
                ),
            );
            return;
        }
        match reader.read(&mut chunk) {
            Ok(0) => {
                // EOF with a dangling unterminated frame: serve it, matching
                // the pre-hardening `read_line` behavior for lazy clients.
                if !buf.is_empty() {
                    let frame = std::mem::take(&mut buf);
                    serve_frame(shared, &frame, &mut writer);
                }
                return;
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                last_activity = Instant::now();
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(limit) = shared.cfg.conn_timeout {
                    if last_activity.elapsed() > limit {
                        shared.tel.metrics.bump(MCounter::EvictedConns);
                        shared.tel.log.warn(
                            "conn_evicted",
                            vec![
                                (
                                    "idle_ms",
                                    Value::Num(last_activity.elapsed().as_millis() as f64),
                                ),
                                ("buffered_bytes", Value::Num(buf.len() as f64)),
                            ],
                        );
                        let _ = write_line(
                            &mut writer,
                            &err_value("conn_timeout", "connection idle past --conn-timeout"),
                        );
                        return;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn write_line(writer: &mut Stream, v: &Value) -> bool {
    let mut out = v.to_line();
    out.push('\n');
    writer.write_all(out.as_bytes()).is_ok() && writer.flush().is_ok()
}

/// Serves one frame (without its newline); returns `false` when the
/// connection should close (write failure).
fn serve_frame(shared: &Arc<Shared>, frame: &[u8], writer: &mut Stream) -> bool {
    let text = match std::str::from_utf8(frame) {
        Ok(t) => t.trim(),
        Err(_) => {
            shared.tel.metrics.bump(MCounter::MalformedFrames);
            return write_line(
                writer,
                &err_value("bad_request", "frame is not valid UTF-8"),
            );
        }
    };
    if text.is_empty() {
        return true;
    }
    write_line(writer, &dispatch(shared, text))
}

/// Moves a job to a terminal state, appending the journal tombstone *first*:
/// by the time any client can observe (or consume) the terminal state, the
/// tombstone is durable, so a crash-restart never re-executes the job.
/// A tombstone write failure is logged but not fatal — the worst case is
/// one redundant (at-least-once) re-execution after a crash.
fn finish_job(shared: &Shared, jobs: &mut JobTable, id: u64, state: JobState) {
    if let Some(journal) = &shared.journal {
        if let Err(e) = journal.lock().unwrap().record_terminal(id, state.name()) {
            shared.tel.log.warn(
                "journal_error",
                vec![
                    ("job", Value::Num(id as f64)),
                    ("message", Value::Str(format!("tombstone: {e}"))),
                ],
            );
        }
    }
    jobs.finish(id, state);
}

fn err_value(code: &str, message: &str) -> Value {
    obj(vec![
        ("ok", Value::Bool(false)),
        (
            "error",
            obj(vec![
                ("code", Value::Str(code.to_string())),
                ("message", Value::Str(message.to_string())),
            ]),
        ),
    ])
}

fn dispatch(shared: &Arc<Shared>, text: &str) -> Value {
    let req = match parse(text) {
        Ok(v) => v,
        Err(e) => {
            shared.tel.metrics.bump(MCounter::MalformedFrames);
            return err_value("bad_request", &format!("unparseable request: {e}"));
        }
    };
    let verb = match req.get("verb").and_then(Value::as_str) {
        Some(v) => v,
        None => return err_value("bad_request", "missing \"verb\""),
    };
    match verb {
        "submit" => submit(shared, &req),
        "status" => with_job(shared, &req, |rec, id| status_value(rec, id, false)),
        "result" => result_verb(shared, &req),
        "cancel" => cancel_verb(shared, &req),
        "health" => obj(vec![
            ("ok", Value::Bool(true)),
            ("stats", shared.stats_value()),
        ]),
        "metrics" => obj(vec![
            ("ok", Value::Bool(true)),
            ("schema", Value::Str("dbscan-server-metrics/v1".to_string())),
            (
                "exposition",
                Value::Str(render_prometheus(&shared.tel.metrics, &shared.gauges())),
            ),
        ]),
        "timeseries" => {
            let ring = shared.tel.ring.lock().unwrap();
            obj(vec![
                ("ok", Value::Bool(true)),
                (
                    "schema",
                    Value::Str("dbscan-server-timeseries/v1".to_string()),
                ),
                (
                    "interval_ms",
                    Value::Num(shared.tel.sample_interval.as_millis() as f64),
                ),
                ("capacity", Value::Num(ring.capacity() as f64)),
                ("total_samples", Value::Num(ring.total_pushed() as f64)),
                ("samples", ring.to_value()),
            ])
        }
        "shutdown" => {
            shared.draining.store(true, Ordering::SeqCst);
            shared.work_cv.notify_all();
            obj(vec![
                ("ok", Value::Bool(true)),
                ("draining", Value::Bool(true)),
            ])
        }
        other => err_value("bad_request", &format!("unknown verb {other:?}")),
    }
}

fn with_job(shared: &Arc<Shared>, req: &Value, f: impl FnOnce(&JobRecord, u64) -> Value) -> Value {
    let id = match req.get("job").and_then(Value::as_u64) {
        Some(id) => id,
        None => return err_value("bad_request", "missing numeric \"job\""),
    };
    let jobs = shared.jobs.lock().unwrap();
    match jobs.map.get(&id) {
        Some(rec) => f(rec, id),
        None => err_value("unknown_job", &format!("no job {id}")),
    }
}

fn status_value(rec: &JobRecord, id: u64, include_result: bool) -> Value {
    let mut members = vec![
        (
            "ok",
            Value::Bool(!matches!(rec.state, JobState::Failed { .. })),
        ),
        ("job", Value::Num(id as f64)),
        ("state", Value::Str(rec.state.name().to_string())),
    ];
    if let Some(tag) = &rec.spec.tag {
        members.push(("tag", Value::Str(tag.clone())));
    }
    if rec.spec.recovered {
        members.push(("recovered", Value::Bool(true)));
    }
    match &rec.state {
        JobState::Done(out) => {
            members.push(("outcome", Value::Str(out.outcome.to_string())));
            members.push(("complete", Value::Bool(out.complete)));
            members.push(("from_cache", Value::Bool(out.from_cache)));
            members.push(("degraded_by_server", Value::Bool(out.degraded_by_server)));
            members.push((
                "rho_used",
                match out.rho_used {
                    Some(r) => Value::Num(r),
                    None => Value::Null,
                },
            ));
            members.push(("elapsed_ms", Value::Num(out.elapsed.as_secs_f64() * 1e3)));
            if include_result {
                let labels = out.clustering.flat_labels();
                members.push((
                    "num_clusters",
                    Value::Num(out.clustering.num_clusters as f64),
                ));
                members.push((
                    "label_hash",
                    Value::Str(format!("{:016x}", label_hash(&labels))),
                ));
                if let (Some(trace), Some(format)) = (&out.trace, rec.spec.trace) {
                    members.push(("trace_format", Value::Str(format.name().to_string())));
                    members.push(("trace_truncated", Value::Bool(trace.truncated)));
                    members.push(("events_dropped", Value::Num(trace.events_dropped as f64)));
                    members.push(("trace", Value::Str(trace.rendered.clone())));
                }
                if rec.spec.return_labels {
                    members.push((
                        "labels",
                        Value::Arr(
                            labels
                                .iter()
                                .map(|l| match l {
                                    Some(c) => Value::Num(*c as f64),
                                    None => Value::Null,
                                })
                                .collect(),
                        ),
                    ));
                }
            }
        }
        JobState::Failed { code, message } => {
            members.push((
                "error",
                obj(vec![
                    ("code", Value::Str(code.to_string())),
                    ("message", Value::Str(message.clone())),
                ]),
            ));
        }
        _ => {}
    }
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The `label_hash` of a `result` envelope: FNV-1a-64 over the flat labels
/// as little-endian `u64` words, noise (`None`) as `u64::MAX`. Hashing a
/// standalone run's `flat_labels()` with it gives the value to compare a
/// served run against. It is not the `repro labels` fingerprint, which also
/// covers every cluster of a border point and the cluster count.
pub fn label_hash(labels: &[Option<u32>]) -> u64 {
    let mut h = Fnv1a::default();
    for l in labels {
        h.write(&l.map_or(u64::MAX, u64::from).to_le_bytes());
    }
    h.finish()
}

fn result_verb(shared: &Arc<Shared>, req: &Value) -> Value {
    let id = match req.get("job").and_then(Value::as_u64) {
        Some(id) => id,
        None => return err_value("bad_request", "missing numeric \"job\""),
    };
    let wait = req.get("wait").and_then(Value::as_bool).unwrap_or(true);
    let timeout = req
        .get("timeout_ms")
        .and_then(Value::as_u64)
        .map(Duration::from_millis)
        .unwrap_or(Duration::from_secs(600));
    let deadline = Instant::now() + timeout;
    let mut jobs = shared.jobs.lock().unwrap();
    loop {
        match jobs.map.get(&id) {
            None => return err_value("unknown_job", &format!("no job {id}")),
            Some(rec) if rec.state.terminal() => {
                // Consume-once delivery: the terminal record (its labels and
                // clustering) is released as soon as the result goes out.
                let resp = status_value(rec, id, true);
                jobs.remove_delivered(id);
                return resp;
            }
            Some(rec) if !wait => return status_value(rec, id, false),
            Some(_) => {
                let now = Instant::now();
                if now >= deadline {
                    return err_value("timeout", &format!("job {id} still running"));
                }
                let (guard, _) = shared
                    .done_cv
                    .wait_timeout(jobs, (deadline - now).min(Duration::from_millis(100)))
                    .unwrap();
                jobs = guard;
            }
        }
    }
}

fn cancel_verb(shared: &Arc<Shared>, req: &Value) -> Value {
    let id = match req.get("job").and_then(Value::as_u64) {
        Some(id) => id,
        None => return err_value("bad_request", "missing numeric \"job\""),
    };
    let mut jobs = shared.jobs.lock().unwrap();
    let Some(rec) = jobs.map.get(&id) else {
        return err_value("unknown_job", &format!("no job {id}"));
    };
    match rec.state {
        JobState::Queued => {
            finish_job(shared, &mut jobs, id, JobState::Cancelled);
            shared.tel.metrics.bump(MCounter::Cancelled);
            shared.tel.log.info(
                "job_cancelled",
                vec![
                    ("job", Value::Num(id as f64)),
                    ("verb", Value::Str("cancel".to_string())),
                    ("while", Value::Str("queued".to_string())),
                ],
            );
            shared.done_cv.notify_all();
        }
        JobState::Running => rec.ctl.cancel(),
        _ => {}
    }
    let state = jobs.map[&id].state.name().to_string();
    obj(vec![
        ("ok", Value::Bool(true)),
        ("job", Value::Num(id as f64)),
        ("state", Value::Str(state)),
    ])
}

fn submit(shared: &Arc<Shared>, req: &Value) -> Value {
    if shared.draining.load(Ordering::SeqCst) {
        return err_value("draining", "server is draining; submissions refused");
    }
    let spec = match JobSpec::from_request(req) {
        Ok(s) => s,
        Err((code, msg)) => return err_value(code, &msg),
    };
    // Admission control: depth check under the queue lock so concurrent
    // submitters cannot both squeeze past the bound.
    let mut queue = shared.queue.lock().unwrap();
    if queue.len() >= shared.cfg.max_queue {
        shared.tel.metrics.bump(MCounter::ShedJobs);
        let avg = shared.tel.metrics.avg_job_ms.load(Ordering::SeqCst).max(10);
        let retry_after = avg.saturating_mul(queue.len() as u64) / shared.cfg.workers.max(1) as u64;
        let depth = queue.len();
        drop(queue);
        shared.tel.log.warn(
            "job_shed",
            vec![
                ("verb", Value::Str("submit".to_string())),
                (
                    "tag",
                    match &spec.tag {
                        Some(t) => Value::Str(t.clone()),
                        None => Value::Null,
                    },
                ),
                ("queue_depth", Value::Num(depth as f64)),
                ("retry_after_ms", Value::Num(retry_after.max(10) as f64)),
            ],
        );
        let mut v = err_value("overloaded", "queue full; retry later");
        if let Value::Obj(members) = &mut v {
            members.push((
                "retry_after_ms".to_string(),
                Value::Num(retry_after.max(10) as f64),
            ));
        }
        return v;
    }
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    // Journal the admission before inserting or acking: with sync=always the
    // ack implies the record is on disk. The queue lock is held across the
    // fsync, serializing admissions — the durability point has to be ordered
    // with admission anyway, and journaled deployments opt into the cost.
    if let Some(journal) = &shared.journal {
        if let Err(e) = journal.lock().unwrap().record_submit(id, &spec) {
            drop(queue);
            shared.tel.log.error(
                "journal_error",
                vec![
                    ("job", Value::Num(id as f64)),
                    ("message", Value::Str(format!("submit: {e}"))),
                ],
            );
            return err_value(
                "journal_error",
                &format!("could not journal submission: {e}"),
            );
        }
    }
    let n = spec.points.len() / spec.dim.max(1);
    let tag = spec.tag.clone();
    let ctl = Arc::new(RunCtl::cancellable(&spec.deadline));
    shared.jobs.lock().unwrap().map.insert(
        id,
        JobRecord {
            spec,
            state: JobState::Queued,
            ctl,
            submitted: Instant::now(),
        },
    );
    queue.push_back(id);
    let depth = queue.len();
    drop(queue);
    shared.tel.metrics.bump(MCounter::Submitted);
    shared.tel.log.debug(
        "job_submitted",
        vec![
            ("job", Value::Num(id as f64)),
            ("verb", Value::Str("submit".to_string())),
            (
                "tag",
                match tag {
                    Some(t) => Value::Str(t),
                    None => Value::Null,
                },
            ),
            ("n", Value::Num(n as f64)),
            ("queue_depth", Value::Num(depth as f64)),
        ],
    );
    shared.work_cv.notify_one();
    obj(vec![
        ("ok", Value::Bool(true)),
        ("job", Value::Num(id as f64)),
        ("queue_depth", Value::Num(depth as f64)),
    ])
}

impl JobSpec {
    fn from_request(req: &Value) -> Result<JobSpec, (&'static str, String)> {
        let bad = |msg: String| ("bad_request", msg);
        let points_val = req
            .get("points")
            .and_then(Value::as_arr)
            .ok_or_else(|| bad("missing \"points\" array".to_string()))?;
        if points_val.is_empty() {
            return Err(bad("\"points\" must be non-empty".to_string()));
        }
        let dim = points_val[0].as_arr().map(<[Value]>::len).unwrap_or(0);
        if !(1..=MAX_DIM).contains(&dim) {
            return Err(bad(format!(
                "unsupported dimensionality {dim} (1-{MAX_DIM})"
            )));
        }
        let mut points = Vec::with_capacity(points_val.len() * dim);
        for (i, p) in points_val.iter().enumerate() {
            let coords = p
                .as_arr()
                .filter(|c| c.len() == dim)
                .ok_or_else(|| bad(format!("point {i} is not a length-{dim} array")))?;
            for c in coords {
                points.push(
                    c.as_f64()
                        .ok_or_else(|| bad(format!("point {i} has a non-numeric coordinate")))?,
                );
            }
        }
        let eps = req
            .get("eps")
            .and_then(Value::as_f64)
            .ok_or_else(|| bad("missing numeric \"eps\"".to_string()))?;
        let min_pts = req
            .get("min_pts")
            .and_then(Value::as_u64)
            .ok_or_else(|| bad("missing integer \"min_pts\"".to_string()))?;
        let params = DbscanParams::new(eps, min_pts as usize)
            .map_err(|e| ("invalid_params", e.to_string()))?;
        let algorithm = match req
            .get("algorithm")
            .and_then(Value::as_str)
            .unwrap_or("exact")
        {
            "exact" => Algorithm::Exact,
            "approx" => {
                let rho = req.get("rho").and_then(Value::as_f64).unwrap_or(1e-3);
                validate_rho(eps, rho).map_err(|e| ("invalid_rho", e.to_string()))?;
                Algorithm::Approx { rho }
            }
            other => return Err(bad(format!("unknown algorithm {other:?}"))),
        };
        let recovery = req
            .get("recovery")
            .and_then(Value::as_str)
            .unwrap_or("fail");
        let recovery: RecoveryPolicy = recovery
            .parse()
            .map_err(|_| bad(format!("unknown recovery policy {recovery:?}")))?;
        let mut deadline = DeadlineConfig::default();
        if let Some(d) = req.get("deadline").and_then(Value::as_str) {
            deadline.budget = Some(parse_duration(d).map_err(|e| bad(format!("deadline: {e}")))?);
        }
        if let Some(p) = req.get("deadline_policy").and_then(Value::as_str) {
            deadline.policy = p
                .parse::<DeadlinePolicy>()
                .map_err(|e| bad(format!("deadline_policy: {e}")))?;
        }
        if let Some(r) = req.get("degrade_rho").and_then(Value::as_f64) {
            deadline.degrade_rho = r;
        }
        let faults = match req.get("faults").and_then(Value::as_str) {
            Some(spec) if cfg!(feature = "fault-injection") => Some(
                spec.parse::<FaultPlan>()
                    .map_err(|e| bad(format!("faults: {e}")))?,
            ),
            Some(_) => {
                return Err((
                    "unsupported",
                    "fault injection not compiled in (feature \"fault-injection\")".to_string(),
                ))
            }
            None => None,
        };
        let boom = req.get("boom").and_then(Value::as_bool).unwrap_or(false);
        if boom && !cfg!(feature = "fault-injection") {
            return Err((
                "unsupported",
                "\"boom\" requires the fault-injection feature".to_string(),
            ));
        }
        let trace = match req.get("trace") {
            None => None,
            Some(v) => match v.as_str().and_then(|s| s.parse().ok()) {
                Some(fmt) => Some(fmt),
                None => return Err(bad("\"trace\" must be \"chrome\" or \"folded\"".to_string())),
            },
        };
        Ok(JobSpec {
            points_fnv: fnv1a_f64s(&points),
            points: Arc::new(points),
            dim,
            params,
            algorithm,
            parallel: req.get("threads").and_then(Value::as_u64).is_some() || faults.is_some(),
            recovery,
            deadline,
            faults,
            pause_ms: req.get("pause_ms").and_then(Value::as_u64).unwrap_or(0),
            boom,
            return_labels: req.get("labels").and_then(Value::as_bool).unwrap_or(true),
            tag: req.get("tag").and_then(Value::as_str).map(str::to_string),
            trace,
            recovered: false,
        })
    }
}

fn executor_loop(shared: &Arc<Shared>) {
    loop {
        let id = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(id) = queue.pop_front() {
                    break id;
                }
                if shared.draining.load(Ordering::SeqCst) || shared.stopping.load(Ordering::SeqCst)
                {
                    return;
                }
                queue = shared
                    .work_cv
                    .wait_timeout(queue, Duration::from_millis(100))
                    .unwrap()
                    .0;
            }
        };
        execute_job(shared, id);
    }
}

fn execute_job(shared: &Arc<Shared>, id: u64) {
    // Snapshot the spec and flip the record to Running; a job cancelled while
    // queued is skipped entirely.
    let (mut spec, ctl, waited) = {
        let mut jobs = shared.jobs.lock().unwrap();
        let rec = match jobs.map.get_mut(&id) {
            Some(rec) => rec,
            None => return,
        };
        if rec.state.terminal() {
            return;
        }
        rec.state = JobState::Running;
        (
            rec.spec.clone(),
            Arc::clone(&rec.ctl),
            rec.submitted.elapsed(),
        )
    };
    shared.running.fetch_add(1, Ordering::SeqCst);

    // Overload valve: a queued exact job that has aged past the pressure
    // threshold runs ρ-approximate instead. The Sandwich Theorem (Theorem 3)
    // bounds the result between the exact clusterings at ε and ε(1+ρ), so
    // shedding work this way never invents arbitrary answers.
    let mut degraded_by_server = false;
    if let Some(threshold) = shared.cfg.pressure_threshold {
        if waited > threshold && spec.algorithm == Algorithm::Exact {
            spec.algorithm = Algorithm::Approx {
                rho: shared.cfg.overload_rho,
            };
            degraded_by_server = true;
            shared.tel.metrics.bump(MCounter::DegradedJobs);
        }
    }

    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| run_job(shared, &spec, &ctl)));
    let elapsed = t0.elapsed();

    // Every terminal outcome lands in all three latency histograms; the
    // records are two relaxed fetch_adds each, off the clustering hot path.
    let m = &shared.tel.metrics;
    let waited_us = waited.as_micros() as u64;
    let service_us = elapsed.as_micros() as u64;
    m.record(MHist::QueueWaitUs, waited_us);
    m.record(MHist::ServiceUs, service_us);
    m.record(MHist::EndToEndUs, waited_us.saturating_add(service_us));
    let base_fields = |outcome: &str| {
        vec![
            ("job", Value::Num(id as f64)),
            ("verb", Value::Str("submit".to_string())),
            (
                "tag",
                match &spec.tag {
                    Some(t) => Value::Str(t.clone()),
                    None => Value::Null,
                },
            ),
            ("outcome", Value::Str(outcome.to_string())),
            ("duration_ms", Value::Num(elapsed.as_secs_f64() * 1e3)),
            ("queue_wait_ms", Value::Num(waited.as_secs_f64() * 1e3)),
        ]
    };

    let state = match outcome {
        Ok(Ok(success)) => {
            let report = ctl.report();
            let degraded = degraded_by_server || report.outcome == DeadlineOutcome::Degraded;
            m.observe_job_ms(elapsed.as_millis() as u64);
            m.bump(MCounter::Completed);
            let outcome_name = if degraded {
                "degraded"
            } else if report.outcome == DeadlineOutcome::Partial {
                "partial"
            } else {
                "exact"
            };
            let mut fields = base_fields(outcome_name);
            fields.push(("from_cache", Value::Bool(success.from_cache)));
            if success.trace.is_some() {
                fields.push(("traced", Value::Bool(true)));
            }
            shared.tel.log.info("job_done", fields);
            JobState::Done(Box::new(JobOutput {
                clustering: success.clustering,
                outcome: outcome_name,
                complete: report.outcome != DeadlineOutcome::Partial,
                from_cache: success.from_cache,
                degraded_by_server,
                rho_used: success.rho_used,
                elapsed,
                trace: success.trace,
            }))
        }
        Ok(Err(e)) => {
            if matches!(e, DbscanError::Cancelled { .. }) {
                m.bump(MCounter::Cancelled);
                shared
                    .tel
                    .log
                    .info("job_cancelled", base_fields("cancelled"));
                JobState::Cancelled
            } else {
                m.bump(MCounter::Failed);
                let code = error_code(&e);
                let mut fields = base_fields("failed");
                fields.push(("code", Value::Str(code.to_string())));
                fields.push(("message", Value::Str(e.to_string())));
                shared.tel.log.warn("job_failed", fields);
                JobState::Failed {
                    code,
                    message: e.to_string(),
                }
            }
        }
        Err(payload) => {
            m.bump(MCounter::Failed);
            // In-pipeline panics are harvested from the run's `Stats` report
            // (fault specs imply the parallel path, which always carries an
            // enabled sink); only the job-boundary `catch_unwind` trips seen
            // here would otherwise go uncounted.
            m.bump(MCounter::WorkerPanics);
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            let mut fields = base_fields("panic");
            fields.push(("message", Value::Str(message.clone())));
            shared.tel.log.error("job_panicked", fields);
            JobState::Failed {
                code: "panic",
                message,
            }
        }
    };

    {
        let mut jobs = shared.jobs.lock().unwrap();
        finish_job(shared, &mut jobs, id, state);
    }
    shared.running.fetch_sub(1, Ordering::SeqCst);
    shared.done_cv.notify_all();
}

fn error_code(e: &DbscanError) -> &'static str {
    match e {
        DbscanError::InvalidParams(_) => "invalid_params",
        DbscanError::NonFinitePoint { .. } => "invalid_points",
        DbscanError::InvalidRho { .. } => "invalid_rho",
        DbscanError::CoordinateOverflow { .. } => "coordinate_overflow",
        DbscanError::ResourceLimit { .. } => "resource_limit",
        DbscanError::WorkerPanicked { .. } => "worker_panicked",
        DbscanError::Cancelled { .. } => "cancelled",
        DbscanError::DeadlineExceeded { .. } => "deadline_exceeded",
        DbscanError::IndexSizeMismatch { .. } => "index_mismatch",
        _ => "internal",
    }
}

/// A finished run plus its observability byproducts.
struct RunSuccess {
    clustering: Clustering,
    from_cache: bool,
    rho_used: Option<f64>,
    trace: Option<TraceCapture>,
}

type RunResult = Result<RunSuccess, DbscanError>;

/// What the sink-generic core returns before the trace is rendered.
type CoreResult = Result<(Clustering, bool, Option<f64>), DbscanError>;

fn run_job(shared: &Arc<Shared>, spec: &JobSpec, ctl: &RunCtl) -> RunResult {
    // The documented load-testing aid: hold the executor in cancellable
    // slices so tests can saturate the queue deterministically.
    let mut remaining = spec.pause_ms;
    while remaining > 0 {
        if ctl.should_stop() {
            return Err(ctl.deadline_error(StageId::Labeling));
        }
        let slice = remaining.min(10);
        std::thread::sleep(Duration::from_millis(slice));
        remaining -= slice;
    }
    #[cfg(feature = "fault-injection")]
    if spec.boom {
        panic!("injected job-boundary panic");
    }
    with_dim!(spec.dim, D => run_typed::<D>(shared, spec, ctl))
        .expect("dim was bounded to 1..=MAX_DIM at parse time")
}

/// Folds the resilience counters a run's enabled sink observed into the
/// server-wide registry, so in-pipeline worker panics and sequential
/// fallbacks surface in the `metrics` exposition.
fn harvest_core_counters(shared: &Arc<Shared>, report: &StatsReport) {
    let m = &shared.tel.metrics;
    m.add(
        MCounter::WorkerPanics,
        report.counter(Counter::WorkerPanics),
    );
    m.add(
        MCounter::SequentialFallbacks,
        report.counter(Counter::SequentialFallbacks),
    );
}

/// Picks the cheapest sink that satisfies the request, then runs the
/// sink-generic body:
///
/// * untraced sequential → [`NoStats`] (`ENABLED = false`): the compiler
///   erases every stats call, keeping the cached hot path observability-free;
/// * untraced parallel → [`Stats`]: phase/counter recording so worker panics
///   and fallbacks can be harvested (the pipeline already pays for
///   synchronization; the atomics are noise);
/// * traced (either path) → [`TracedStats`]: full per-request capture,
///   rendered and size-capped before the job record is finished.
fn run_typed<const D: usize>(shared: &Arc<Shared>, spec: &JobSpec, ctl: &RunCtl) -> RunResult {
    let plain = |(clustering, from_cache, rho_used): (Clustering, bool, Option<f64>)| RunSuccess {
        clustering,
        from_cache,
        rho_used,
        trace: None,
    };
    match spec.trace {
        None if !spec.parallel => run_typed_sink::<D, _>(shared, spec, ctl, &NoStats).map(plain),
        None => {
            let stats = Stats::new();
            let res = run_typed_sink::<D, _>(shared, spec, ctl, &stats);
            harvest_core_counters(shared, &stats.report());
            res.map(plain)
        }
        Some(fmt) => {
            let lanes = if spec.parallel {
                shared.cfg.job_threads + 1
            } else {
                1
            };
            // Bounded per-lane rings (vs the batch default of 64K events):
            // a hostile traced submit can cost at most lanes × 16K events of
            // memory; overflow surfaces as `events_dropped`, not OOM.
            let stats = TracedStats::with_capacity(lanes, 1 << 14);
            let res = run_typed_sink::<D, _>(shared, spec, ctl, &stats);
            harvest_core_counters(shared, &stats.stats.report());
            let snap = stats.tracer.snapshot();
            let (rendered, omitted) = fmt.render(&snap, shared.tel.trace_max_bytes);
            let capture = TraceCapture {
                rendered,
                truncated: omitted > 0,
                events_dropped: snap.events_dropped,
            };
            res.map(|(clustering, from_cache, rho_used)| RunSuccess {
                clustering,
                from_cache,
                rho_used,
                trace: Some(capture),
            })
        }
    }
}

fn run_typed_sink<const D: usize, S: StatsSink>(
    shared: &Arc<Shared>,
    spec: &JobSpec,
    ctl: &RunCtl,
    stats: &S,
) -> CoreResult {
    let points = points_from_flat::<D>(&spec.points);
    let limits = match shared.cfg.max_index_bytes {
        Some(b) => ResourceLimits::with_max_index_bytes(b),
        None => ResourceLimits::UNLIMITED,
    };

    // One path for every job: get or build the CoreCells structure, then
    // run the edge and border phases from it. `threads` jobs (and fault
    // specs, which imply them) run on the shared pool, the rest on the
    // one-thread pool, inline on this job worker.
    let (algorithm, rho_used) = match spec.algorithm {
        Algorithm::Exact => (algorithms::Algorithm::Exact(BcpStrategy::default()), None),
        Algorithm::Approx { rho } => {
            let oracle = ApproxOracle::ProbeFirst;
            (algorithms::Algorithm::Approx { rho, oracle }, Some(rho))
        }
    };
    let run = Spec {
        algorithm,
        params: spec.params,
        exec: ParConfig {
            threads: None,
            recovery: spec.recovery,
            limits,
            faults: spec.faults.clone().unwrap_or_default(),
            pool: Some(if spec.parallel {
                Arc::clone(&shared.pool)
            } else {
                WorkerPool::global(1)
            }),
        },
    };
    let key = CacheKey {
        data_hash: spec.points_fnv,
        n: points.len(),
        dim: D,
        eps_bits: spec.params.eps().to_bits(),
        min_pts: spec.params.min_pts(),
    };
    let cached = shared.cache.lock().unwrap().get(&key, &spec.points);
    let (cells, from_cache): (Arc<CoreCells<D>>, bool) =
        match cached.and_then(|a| a.downcast::<CoreCells<D>>().ok()) {
            Some(cells) => (cells, true),
            None => {
                let built = Arc::new(CoreCells::try_build_ctl(
                    &points,
                    spec.params,
                    &run.exec,
                    stats,
                    ctl,
                )?);
                if ctl.aborted() {
                    return Err(ctl.deadline_error(StageId::Labeling));
                }
                // A build truncated under the `partial` deadline policy is an
                // incomplete structure (remaining cells marked non-core); caching
                // it would serve wrong answers — reported as exact — to
                // full-budget requests for the same (data, eps, min_pts).
                if !ctl.truncated() {
                    let bytes = built.approx_bytes();
                    shared.cache.lock().unwrap().insert(
                        key,
                        Arc::clone(&spec.points),
                        Arc::clone(&built) as Arc<dyn std::any::Any + Send + Sync>,
                        bytes,
                    );
                }
                (built, false)
            }
        };

    cluster(&points, Some(&cells), &run, stats, ctl).map(|c| (c, from_cache, rho_used))
}
