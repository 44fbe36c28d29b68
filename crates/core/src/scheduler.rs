//! Std-only work-stealing task scheduler for the parallel DBSCAN phases.
//!
//! The parallel layer used to split every phase into `threads` *static
//! contiguous chunks* of cells. On the skewed cell populations the paper's
//! seed-spreader data produces (a few cells holding most of the points), a
//! static split routinely hands one worker the dense core of the dataset and
//! leaves the rest idle — the phase then runs at the speed of its unluckiest
//! chunk. [`WorkQueue`] replaces that with *self-scheduling over a
//! priority-ordered task list*:
//!
//! * tasks (cells, or per-cell bundles of ε-neighbor pair tests) are sorted
//!   heaviest-first by a caller-supplied weight (point count, or the
//!   Σ|a|·|b| brute-force cost bound of a cell's candidate pairs). In the
//!   edge stage the order also decides which pairs the union-find lets it
//!   skip, so that queue runs heaviest-first even for a single claimant
//!   ([`WorkQueue::new`]); per-cell stages sort only to balance claimants
//!   ([`WorkQueue::balanced`]);
//! * workers claim tasks one at a time through a single shared atomic index —
//!   a worker that finishes early immediately claims the next-heaviest
//!   unclaimed task instead of idling at a chunk barrier.
//!
//! This is the classic guided/self-scheduling scheme (the degenerate but
//! effective end of work stealing: one global deque, steals are `fetch_add`s),
//! chosen over per-worker deques because it needs nothing beyond
//! `AtomicUsize` — no extra dependencies, consistent with the workspace's
//! offline `*-compat` policy — and because the heaviest-first order bounds
//! the finish-time spread by the weight of a single task.
//!
//! **Steal accounting.** For observability, each worker is assigned a *home
//! segment*: the contiguous slice of the priority order that static chunking
//! would have given it. A claim that lands outside the claimer's home segment
//! is counted as *stolen* ([`Counter::TasksStolen`] — see [`crate::stats`]):
//! it is exactly the work the old static split would have placed on a
//! different (possibly still busy) thread. A perfectly balanced workload
//! reports zero steals; skew shows up as a positive count.
//!
//! [`Counter::TasksStolen`]: crate::stats::Counter::TasksStolen

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Splits `0..n` into at most `k` contiguous, gap-free ranges.
pub(crate) fn chunk_ranges(n: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let k = k.min(n);
    let base = n / k;
    let extra = n % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// A priority-ordered task list consumed through a shared atomic claim index.
///
/// Task ids are `0..weights.len()` (`u32`); iteration order is heaviest
/// weight first (ties by ascending id, so the order — though not the
/// claim timing — is deterministic), or natural order for
/// [`WorkQueue::unweighted`].
pub struct WorkQueue {
    /// Task ids in claim order.
    order: Vec<u32>,
    /// Position in `order` of the next unclaimed task.
    next: AtomicUsize,
    /// Home-segment boundaries for steal accounting: worker `w` of the
    /// construction-time worker count owns positions `bounds[w]..bounds[w+1]`.
    bounds: Vec<usize>,
    /// Set by [`WorkQueue::close`]; once observed, `claim` returns `None`.
    closed: AtomicBool,
}

impl WorkQueue {
    /// Builds a queue over tasks `0..weights.len()` for `workers` claimants,
    /// heaviest first at every claimant count.
    ///
    /// The order is not only load balance. In the fused edge stage a pair
    /// whose cells the union-find already joins is skipped, so the order
    /// decides how many pairs are tested at all: heavy cells first join the
    /// graph through their many candidate pairs, and the light ones then
    /// skip theirs. A single claimant needs it as much as several.
    pub fn new(weights: impl IntoIterator<Item = u64>, workers: usize) -> Self {
        let weights: Vec<u64> = weights.into_iter().collect();
        let mut order: Vec<u32> = (0..weights.len() as u32).collect();
        order.sort_by_key(|&t| (std::cmp::Reverse(weights[t as usize]), t));
        Self::from_order(order, workers)
    }

    /// A queue for tasks whose order changes no result and no counter, only
    /// load balance and memory locality (per-cell labeling and border
    /// assignment): heaviest first for several claimants, natural order for
    /// one, which then reads the cells in storage order with no weight pass
    /// and no sort.
    pub fn balanced<I>(weights: I, workers: usize) -> Self
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: ExactSizeIterator,
    {
        if workers > 1 {
            Self::new(weights, workers)
        } else {
            Self::unweighted(weights.into_iter().len(), workers)
        }
    }

    /// Builds a queue over `num_tasks` tasks in natural order, with no
    /// weight pass: for tasks with no useful weight (the chunks of the grid
    /// passes) and for [`WorkQueue::balanced`] on one claimant.
    pub fn unweighted(num_tasks: usize, workers: usize) -> Self {
        Self::from_order((0..num_tasks as u32).collect(), workers)
    }

    fn from_order(order: Vec<u32>, workers: usize) -> Self {
        let workers = workers.max(1);
        let mut bounds = vec![0usize; workers + 1];
        for (w, range) in chunk_ranges(order.len(), workers).into_iter().enumerate() {
            bounds[w + 1] = range.end;
        }
        // `chunk_ranges` caps the chunk count at the task count; surplus
        // workers own an empty segment at the end.
        for w in 1..=workers {
            bounds[w] = bounds[w].max(bounds[w - 1]);
        }
        WorkQueue {
            order,
            next: AtomicUsize::new(0),
            bounds,
            closed: AtomicBool::new(false),
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the queue was built over zero tasks.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Closes the queue: every [`WorkQueue::claim`] that *begins* after
    /// `close` returns will yield `None`, for every worker.
    ///
    /// This is the drain mechanism for poison and cancellation: the first
    /// worker to observe a tripped poison latch or an expired budget closes
    /// the queue, and the remaining workers fall out of their claim loops at
    /// their next claim instead of racing through the rest of the task list.
    /// The store is `Release` and the load in `claim` is `Acquire`, so the
    /// happens-before edge guarantees promptness; a claim already *in flight*
    /// when `close` is called may still hand out one task per worker — the
    /// inherent race of cooperative cancellation — but never more.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Whether [`WorkQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Claims the next unclaimed task for `worker`, or `None` when the list
    /// is exhausted or the queue has been [closed](WorkQueue::close).
    pub fn claim(&self, worker: usize) -> Option<Claim> {
        if self.closed.load(Ordering::Acquire) {
            return None;
        }
        let pos = self.next.fetch_add(1, Ordering::Relaxed);
        if pos >= self.order.len() {
            return None;
        }
        let stolen = pos < self.bounds[worker] || pos >= self.bounds[worker + 1];
        // Last segment whose start is ≤ pos. Empty segments share their start
        // with the following non-empty one, so the owner found is the worker
        // whose (non-empty) home actually contains the position.
        let home = self.bounds.partition_point(|&b| b <= pos) - 1;
        Some(Claim {
            task: self.order[pos],
            stolen,
            home,
        })
    }
}

/// One claimed task: the id, whether the claim fell outside the claimer's
/// home segment (a "steal" — see the module docs), and which worker's home
/// segment held the claimed position (the task's would-be owner under static
/// chunking — trace events report it so steal patterns are attributable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Claim {
    pub task: u32,
    pub stolen: bool,
    pub home: usize,
}

/// First-panic latch shared by the workers of one parallel stage.
///
/// Every task body runs under `std::panic::catch_unwind`; a worker whose task
/// panics records the failure here and stops claiming, and the *other*
/// workers observe [`Poison::is_poisoned`] before each claim and drain
/// cooperatively — no `JoinHandle::join` ever propagates a panic, no thread is
/// torn down mid-update, and the driver converts the recorded first failure
/// into [`crate::DbscanError::WorkerPanicked`] (or falls back sequentially,
/// per [`crate::RecoveryPolicy`]).
#[derive(Default)]
pub struct Poison {
    poisoned: AtomicBool,
    panics: AtomicU64,
    state: Mutex<PoisonState>,
}

#[derive(Default)]
struct PoisonState {
    /// First recorded `(task, payload)` — the failure the error reports.
    first: Option<(u32, String)>,
    /// Every distinct phase name a failure was recorded under, in first-seen
    /// order. Multi-panic chaos runs can poison more than one phase (e.g. a
    /// labeling panic racing an edge-phase stall), and reporting only the
    /// first would under-describe the blast radius.
    phases: Vec<&'static str>,
}

impl Poison {
    /// A fresh, unpoisoned latch.
    pub fn new() -> Self {
        Poison::default()
    }

    /// Whether any worker has recorded a failure. Checked by workers before
    /// each claim; once true, the stage's result will be discarded, so
    /// remaining tasks are skipped rather than executed.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Records a panic of `task` in `phase` with the given unwind payload.
    /// The first recorded failure wins the latch; later ones bump the count
    /// and contribute their phase name to the aggregate.
    pub fn record(&self, phase: &'static str, task: u32, payload: Box<dyn Any + Send>) {
        self.record_message(phase, task, panic_message(payload.as_ref()));
    }

    /// Records a non-panic failure (e.g. a stall-watchdog trip) as if it
    /// were a panic with the given message.
    pub fn record_message(&self, phase: &'static str, task: u32, message: String) {
        self.panics.fetch_add(1, Ordering::Relaxed);
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.first.is_none() {
            state.first = Some((task, message));
        }
        if !state.phases.contains(&phase) {
            state.phases.push(phase);
        }
        drop(state);
        self.poisoned.store(true, Ordering::Release);
    }

    /// Total number of recorded failures (≥ 1 iff poisoned).
    pub fn panic_count(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Drains the latch into a summary: the first failure, all distinct
    /// phase names (joined with `+`, first-seen order), and the total count.
    /// Call after all workers have been joined; `None` if never poisoned.
    pub fn take_summary(&self) -> Option<PoisonSummary> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let (task, payload) = state.first.take()?;
        let phases = std::mem::take(&mut state.phases).join("+");
        Some(PoisonSummary {
            task,
            payload,
            phases,
            panic_count: self.panic_count(),
        })
    }
}

/// Aggregate view of a tripped [`Poison`] latch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoisonSummary {
    /// The task id of the first recorded failure.
    pub task: u32,
    /// The first failure's message.
    pub payload: String,
    /// All distinct phase names failures were recorded under, `+`-joined.
    pub phases: String,
    /// Total number of recorded failures.
    pub panic_count: u64,
}

/// A persistent worker pool: `threads` OS threads spawned once and parked on
/// a condvar between phases, replacing the spawn-per-phase-per-run
/// `std::thread::scope` driver that dominated small-n parallel runs (at
/// n=20k the three phases' six-fold thread spawning dwarfed the 16µs of
/// useful edge work — see BENCH_core.json v1 vs v2).
///
/// # Phase handoff protocol
///
/// Submission is an *epoch bump under the state mutex*: [`WorkerPool::run_phase`]
/// stores the job, increments `epoch`, and `notify_all`s the work condvar.
/// Workers wait with the classic predicate loop — re-checking
/// `epoch != seen_epoch` under the same mutex after every wakeup — so a phase
/// submitted *while* a worker is parking cannot be missed: either the worker
/// observes the new epoch before it waits, or the wait is entered before the
/// notify and the notify wakes it. There is no window where the flag is set
/// between the check and the sleep, because both happen under the mutex.
///
/// # Completion barrier and borrowed closures
///
/// `run_phase` blocks on a second condvar until every worker has decremented
/// `remaining` to zero. That barrier is what makes the lifetime-erased
/// `Job` pointer sound: the phase closure lives in `run_phase`'s frame, and
/// no worker can still hold the pointer once `remaining == 0` (each worker
/// decrements only after its call into the closure has returned).
///
/// # Panics
///
/// Phase bodies are expected to contain their own panics (the parallel layer
/// runs every task under `catch_unwind` and routes failures through
/// [`Poison`]). As a backstop, the worker loop catches anything that still
/// escapes, stores the first payload, and `run_phase` re-raises it on the
/// coordinator after the barrier — a panic can never tear down a pool thread
/// or wedge a later phase.
///
/// # One-thread pools
///
/// A pool built with `threads == 1` spawns no OS thread at all: `run_phase`
/// runs the body inline on the coordinator (worker index 0). Single-threaded
/// "parallel" runs therefore pay zero handoff cost — on a single-core host
/// the parallel entry points are within noise of the sequential ones.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
    /// Serializes concurrent `run_phase` callers sharing one pool (e.g. two
    /// clustering runs handed the same handle): phases run back-to-back, not
    /// interleaved over the same workers.
    phase_lock: Mutex<()>,
}

struct PoolInner {
    state: Mutex<PoolState>,
    /// Workers wait here for the next epoch (or shutdown).
    work_cv: Condvar,
    /// The coordinator waits here for `remaining == 0`.
    done_cv: Condvar,
}

#[derive(Default)]
struct PoolState {
    /// Bumped once per submitted phase; workers run a job exactly once per
    /// epoch they observe.
    epoch: u64,
    /// The current phase's erased closure; `None` between phases.
    job: Option<Job>,
    /// Workers that have not yet finished the current phase.
    remaining: usize,
    /// First payload of a panic that escaped a phase body, re-raised by
    /// `run_phase`.
    panic: Option<Box<dyn Any + Send>>,
    /// Set by `Drop`; parked workers exit instead of waiting.
    shutdown: bool,
}

/// A lifetime-erased phase closure: a monomorphized call shim plus a pointer
/// into the coordinator's frame. Sound because `run_phase` does not return
/// until every worker has finished calling through it (see [`WorkerPool`]).
#[derive(Clone, Copy)]
struct Job {
    call: unsafe fn(*const (), usize),
    data: *const (),
}

// The pointee is a `F: Fn(usize) + Sync` borrowed for the duration of the
// phase; sending the pointer to the workers is exactly the `&F: Send`
// guarantee `Sync` provides.
unsafe impl Send for Job {}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl WorkerPool {
    /// Spawns a pool of `threads` workers (clamped to ≥ 1). The threads park
    /// immediately and live until the pool is dropped. `threads == 1` spawns
    /// nothing — see the type-level docs.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let inner = Arc::new(PoolInner {
            state: Mutex::new(PoolState::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = if threads == 1 {
            Vec::new()
        } else {
            (0..threads)
                .map(|w| {
                    let inner = Arc::clone(&inner);
                    std::thread::Builder::new()
                        .name(format!("dbscan-worker-{w}"))
                        .spawn(move || worker_loop(&inner, w))
                        .expect("failed to spawn pool worker")
                })
                .collect()
        };
        WorkerPool {
            inner,
            handles,
            threads,
            phase_lock: Mutex::new(()),
        }
    }

    /// Worker count this pool was built with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs one phase: every worker calls `body(worker_index)` exactly once,
    /// and `run_phase` returns only after all calls have finished (the
    /// completion barrier). Re-raises the first panic that escaped a body.
    ///
    /// The body is shared by reference across workers, so per-worker state
    /// belongs *inside* the closure (locals) or in per-worker slots the
    /// closure indexes with its worker argument.
    pub fn run_phase<F: Fn(usize) + Sync>(&self, body: &F) {
        if self.threads == 1 {
            // Inline fast path: no handoff, panics propagate natively.
            body(0);
            return;
        }
        unsafe fn shim<F: Fn(usize) + Sync>(data: *const (), worker: usize) {
            // SAFETY: `data` was erased from `&F` by `run_phase`, which is
            // still blocked on the completion barrier, so the borrow is live.
            let body = unsafe { &*(data as *const F) };
            body(worker);
        }
        let _phase = lock(&self.phase_lock);
        let mut st = lock(&self.inner.state);
        st.job = Some(Job {
            call: shim::<F>,
            data: (body as *const F).cast(),
        });
        st.remaining = self.threads;
        st.epoch += 1;
        self.inner.work_cv.notify_all();
        while st.remaining > 0 {
            st = self
                .inner
                .done_cv
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
        st.job = None;
        if let Some(payload) = st.panic.take() {
            drop(st);
            std::panic::resume_unwind(payload);
        }
    }

    /// Process-wide pool cache, keyed by thread count: entry points that are
    /// not handed an explicit pool share one lazily-spawned pool per distinct
    /// worker count. Cached pools are never torn down (their parked threads
    /// cost nothing); explicit [`WorkerPool::new`] handles shut down on drop.
    pub fn global(threads: usize) -> Arc<WorkerPool> {
        static POOLS: OnceLock<Mutex<Vec<Arc<WorkerPool>>>> = OnceLock::new();
        let pools = POOLS.get_or_init(|| Mutex::new(Vec::new()));
        let mut pools = lock(pools);
        if let Some(p) = pools.iter().find(|p| p.threads() == threads.max(1)) {
            return Arc::clone(p);
        }
        let p = Arc::new(WorkerPool::new(threads));
        pools.push(Arc::clone(&p));
        p
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.inner.state);
            st.shutdown = true;
            self.inner.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &PoolInner, worker: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = lock(&inner.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    if let Some(job) = st.job {
                        seen_epoch = st.epoch;
                        break job;
                    }
                }
                st = inner.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        // SAFETY: the coordinator is blocked on the completion barrier until
        // this worker decrements `remaining` below, so the closure behind
        // `job.data` outlives this call.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data, worker) }));
        let mut st = lock(&inner.state);
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            inner.done_cv.notify_all();
        }
    }
}

/// Renders an unwind payload as text: `panic!` with a literal yields `&str`,
/// formatted panics yield `String`; anything else gets a placeholder.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for (n, k) in [(10, 3), (1, 5), (0, 4), (7, 7), (100, 1)] {
            let ranges = chunk_ranges(n, k);
            let total: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(total, n, "n={n} k={k}");
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "ranges must be contiguous");
            }
            assert!(ranges.iter().all(|r| !r.is_empty()));
        }
    }

    #[test]
    fn claims_every_task_heaviest_first() {
        let q = WorkQueue::new([5u64, 40, 10, 40, 0], 2);
        let mut seen = Vec::new();
        while let Some(c) = q.claim(0) {
            seen.push(c.task);
        }
        // Ties (the two weight-40 tasks) break by ascending id.
        assert_eq!(seen, vec![1, 3, 2, 0, 4]);
        assert!(q.claim(0).is_none(), "exhausted queue stays exhausted");
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn single_worker_never_steals() {
        let q = WorkQueue::new((0..20).map(|i| i as u64), 1);
        while let Some(c) = q.claim(0) {
            assert!(!c.stolen);
            assert_eq!(c.home, 0);
        }
    }

    #[test]
    fn claims_outside_home_segment_count_as_steals() {
        // 4 tasks, 2 workers: home segments are positions 0..2 and 2..4.
        let q = WorkQueue::new([0u64; 4], 2);
        let c = q.claim(0).unwrap();
        assert!(!c.stolen, "position 0 is worker 0's home");
        assert_eq!(c.home, 0);
        let c = q.claim(1).unwrap();
        assert!(
            c.stolen,
            "position 1 belongs to worker 0, claimed by worker 1"
        );
        assert_eq!(c.home, 0);
        let c = q.claim(1).unwrap();
        assert!(!c.stolen, "position 2 is worker 1's home");
        assert_eq!(c.home, 1);
        let c = q.claim(0).unwrap();
        assert!(
            c.stolen,
            "position 3 belongs to worker 1, claimed by worker 0"
        );
        assert_eq!(c.home, 1);
    }

    #[test]
    fn empty_and_surplus_workers() {
        let q = WorkQueue::new([], 4);
        assert!(q.is_empty());
        assert!(q.claim(3).is_none());
        // More workers than tasks: trailing workers own empty segments and
        // every claim they make is a steal from a worker that owns tasks.
        let q = WorkQueue::new([1u64, 1], 4);
        let c = q.claim(3).unwrap();
        assert!(c.stolen);
        assert_eq!(c.home, 0);
        let c = q.claim(2).unwrap();
        assert!(c.stolen);
        assert_eq!(c.home, 1);
        assert!(q.claim(0).is_none());
    }

    #[test]
    fn poison_latch_keeps_first_panic_and_counts_all() {
        let p = Poison::new();
        assert!(!p.is_poisoned());
        assert_eq!(p.panic_count(), 0);
        p.record("edge_tests", 7, Box::new("first boom"));
        p.record("edge_tests", 3, Box::new("second boom".to_string()));
        p.record("labeling", 1, Box::new("third boom"));
        assert!(p.is_poisoned());
        assert_eq!(p.panic_count(), 3);
        let s = p.take_summary().unwrap();
        assert_eq!(s.task, 7);
        assert_eq!(s.payload, "first boom");
        assert_eq!(s.phases, "edge_tests+labeling");
        assert_eq!(s.panic_count, 3);
        assert!(p.take_summary().is_none(), "summary drains the latch");
    }

    #[test]
    fn poison_latch_records_stall_messages() {
        let p = Poison::new();
        p.record_message("border_assign", 2, "stall watchdog: worker 2 wedged".into());
        assert!(p.is_poisoned());
        let s = p.take_summary().unwrap();
        assert_eq!(s.phases, "border_assign");
        assert_eq!(s.payload, "stall watchdog: worker 2 wedged");
        assert_eq!(s.panic_count, 1);
    }

    #[test]
    fn closed_queue_claims_nothing() {
        let q = WorkQueue::new([1u64, 2, 3], 2);
        assert!(!q.is_closed());
        assert!(q.claim(0).is_some());
        q.close();
        assert!(q.is_closed());
        assert!(q.claim(0).is_none());
        assert!(q.claim(1).is_none(), "close applies to every worker");
    }

    /// Loom-style interleaving check for the close/claim happens-before
    /// contract: a claim that *begins* after `close` has returned must yield
    /// `None`. Three claimer threads spin against a closer that publishes a
    /// marker flag (Release) immediately after closing; claimers read the
    /// marker (Acquire) *before* each claim, so any task handed out after
    /// the marker was visible is a genuine ordering violation.
    #[test]
    fn no_claim_succeeds_after_close_returns() {
        for _round in 0..200 {
            let q = WorkQueue::new((0..64).map(|_| 1u64), 4);
            let closed_seen = AtomicBool::new(false);
            std::thread::scope(|s| {
                for w in 0..3 {
                    let q = &q;
                    let closed_seen = &closed_seen;
                    s.spawn(move || loop {
                        let saw_close = closed_seen.load(Ordering::Acquire);
                        match q.claim(w) {
                            Some(_) if saw_close => {
                                panic!("claim begun after close() returned got a task")
                            }
                            Some(_) => std::hint::spin_loop(),
                            None => break,
                        }
                    });
                }
                s.spawn(|| {
                    std::hint::spin_loop();
                    q.close();
                    closed_seen.store(true, Ordering::Release);
                });
            });
        }
    }

    #[test]
    fn pool_runs_every_worker_exactly_once_per_phase() {
        let pool = WorkerPool::new(4);
        for _phase in 0..50 {
            let calls: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
            pool.run_phase(&|w| {
                calls[w].fetch_add(1, Ordering::Relaxed);
            });
            for (w, c) in calls.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "worker {w}");
            }
        }
    }

    #[test]
    fn pool_barrier_makes_borrowed_results_visible() {
        // The completion barrier is the soundness argument for the erased
        // closure pointer: after run_phase returns, every worker's writes to
        // coordinator-frame state must be visible.
        let pool = WorkerPool::new(3);
        let mut totals = [0u64; 3];
        let slots: Vec<Mutex<u64>> = (0..3).map(|_| Mutex::new(0)).collect();
        for round in 1..=10u64 {
            pool.run_phase(&|w| {
                *slots[w].lock().unwrap() = round * (w as u64 + 1);
            });
            for (w, slot) in slots.iter().enumerate() {
                totals[w] += *slot.lock().unwrap();
            }
        }
        assert_eq!(totals, [55, 110, 165]);
    }

    #[test]
    fn pool_single_thread_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let coordinator = std::thread::current().id();
        let mut ran_on = None;
        let ran = Mutex::new(&mut ran_on);
        pool.run_phase(&|w| {
            assert_eq!(w, 0);
            **ran.lock().unwrap() = Some(std::thread::current().id());
        });
        assert_eq!(ran_on, Some(coordinator), "threads=1 must not hand off");
    }

    #[test]
    fn pool_reraises_escaped_panic_and_survives() {
        let pool = WorkerPool::new(2);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_phase(&|w| {
                if w == 0 {
                    panic!("escaped phase panic");
                }
            });
        }))
        .unwrap_err();
        assert_eq!(panic_message(err.as_ref()), "escaped phase panic");
        // The pool must still be fully usable: no dead worker, no stuck epoch.
        let calls = AtomicU64::new(0);
        pool.run_phase(&|_| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn pool_global_caches_by_thread_count() {
        let a = WorkerPool::global(2);
        let b = WorkerPool::global(2);
        assert!(Arc::ptr_eq(&a, &b), "same count must share one pool");
        let c = WorkerPool::global(3);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(WorkerPool::global(0).threads(), 1, "count clamps to ≥ 1");
    }

    /// The pool's own workers are gone after the drop. The check looks only
    /// at the tids the workers reported, so threads that sibling tests
    /// spawn and join meanwhile cannot disturb it.
    #[test]
    fn pool_drop_joins_workers() {
        use std::time::{Duration, Instant};
        // The kernel task id of the calling thread (Linux only).
        fn tid() -> Option<String> {
            let link = std::fs::read_link("/proc/thread-self").ok()?;
            Some(link.file_name()?.to_str()?.to_string())
        }
        let tids = Mutex::new(Vec::new());
        {
            let pool = WorkerPool::new(4);
            pool.run_phase(&|_| lock(&tids).extend(tid()));
        }
        let tids = tids.into_inner().unwrap();
        if tids.is_empty() {
            return; // no /proc/thread-self: nothing to observe
        }
        assert_eq!(tids.len(), 4, "one tid per worker: {tids:?}");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let live: Vec<&String> = tids
                .iter()
                .filter(|t| std::path::Path::new("/proc/self/task").join(t).exists())
                .collect();
            if live.is_empty() {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "dropping the pool must join its threads; still listed: {live:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn panic_message_handles_payload_kinds() {
        assert_eq!(panic_message(&"boom"), "boom");
        assert_eq!(panic_message(&"boom".to_string()), "boom");
        assert_eq!(panic_message(&42u32), "<non-string panic payload>");
    }

    #[test]
    fn concurrent_claims_partition_the_tasks() {
        let q = WorkQueue::new((0..1000).map(|_| 1u64), 4);
        let chunks: Vec<Vec<u32>> = std::thread::scope(|s| {
            (0..4)
                .map(|w| {
                    let q = &q;
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some(c) = q.claim(w) {
                            mine.push(c.task);
                        }
                        mine
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let mut all: Vec<u32> = chunks.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<u32>>());
    }
}
