//! Time budgets, cooperative cancellation, and graceful degradation.
//!
//! A [`Budget`] pairs a monotonic-clock deadline with an atomic cancel flag
//! ([`CancelToken`]). The budget is threaded cooperatively through every
//! algorithm's main loops and the three parallel phases: workers poll
//! [`RunCtl::should_stop`] once per claimed task and once per bounded batch of
//! inner iterations, so cancellation latency is bounded by the cost of a
//! single task plus the polling stride, and is *measured* (the observed
//! overshoot past the budget edge is recorded in
//! [`DeadlineReport::cancel_latency_ns`]).
//!
//! What happens at the budget edge is decided by a [`DeadlinePolicy`]:
//!
//! - [`DeadlinePolicy::Abort`] — the run returns
//!   [`DbscanError::DeadlineExceeded`]
//!   naming the phase, the elapsed time, and how many tasks were left.
//! - [`DeadlinePolicy::Degrade`] — the remaining *edge-phase* work switches
//!   from exact BCP tests to the ρ-approximate edge oracle at a configured
//!   `degrade_rho`: the exact front end of [`crate::bcp::front_end`] first,
//!   Lemma 5 approximate counting for the pairs it leaves open. By the
//!   Sandwich Theorem (Theorem 3 of the paper) an
//!   approximate edge test at ρ′ only errs inside the `(ε, ε(1+ρ′)]` slack
//!   band, and an exact answer is always a legal answer for the approximate
//!   rule — so a run that mixes exact edges (before the budget tripped) with
//!   ρ′-approximate edges (after) is still a valid ρ′-approximate clustering,
//!   sandwiched between exact DBSCAN at ε and at ε(1+ρ′). The number of
//!   degraded edges is recorded per run.
//! - [`DeadlinePolicy::Partial`] — the run finalizes the union-find as-is and
//!   returns the clusters computed so far, marked `complete: false`, with
//!   per-stage progress fractions.
//!
//! The module also houses the stall watchdog plumbing ([`Heartbeats`]): each
//! parallel worker beats a per-worker monotonic heartbeat after every claim,
//! and a coordinator-side watchdog thread trips the poison latch (PR 3's
//! recovery path) when the *stalest* live worker exceeds a configurable age.

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

use crate::error::{validate_rho, DbscanError};
use crate::types::DbscanParams;
use dbscan_geom::grid::{base_side, hierarchy_levels};
use dbscan_geom::Point;

/// Parse a human-friendly duration: a non-negative number with a mandatory
/// unit suffix `us`, `ms`, `s`, or `m` (e.g. `500ms`, `2s`, `1.5m`).
///
/// Fractional values are accepted (`0.25s` == `250ms`). A bare number with
/// the unit elided (`1.5`) is rejected — durations are never implicitly
/// seconds — and the error message names the offending token plus the
/// accepted suffixes so CLI callers can surface it verbatim (every duration
/// flag in the workspace routes through this one parser: `--deadline`,
/// `--stall-timeout`, and the server's `--drain-deadline` /
/// `--pressure-threshold`).
pub fn parse_duration(s: &str) -> Result<Duration, String> {
    let t = s.trim();
    // "ms" before "s" and "m": the longest suffix must win.
    let (digits, nanos_per_unit) = if let Some(d) = t.strip_suffix("ms") {
        (d, 1_000_000.0)
    } else if let Some(d) = t.strip_suffix("us") {
        (d, 1_000.0)
    } else if let Some(d) = t.strip_suffix('s') {
        (d, 1_000_000_000.0)
    } else if let Some(d) = t.strip_suffix('m') {
        (d, 60_000_000_000.0)
    } else {
        return Err(format!(
            "duration {t:?} needs a unit suffix (us, ms, s, or m)"
        ));
    };
    let value: f64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("duration {t:?} has a non-numeric value"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("duration {t:?} must be non-negative and finite"));
    }
    let ns = value * nanos_per_unit;
    if ns > u64::MAX as f64 {
        return Err(format!("duration {t:?} overflows the nanosecond range"));
    }
    Ok(Duration::from_nanos(ns as u64))
}

/// Why a [`CancelToken`] tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// The monotonic-clock budget ran out.
    Deadline,
    /// The stall watchdog declared the run wedged.
    Stall,
    /// An external caller requested cancellation.
    External,
    /// The process was asked to stop (SIGINT/SIGTERM or a server-side drain).
    Interrupted,
}

impl CancelReason {
    /// Stable lowercase name (used in traces and JSON).
    pub fn name(self) -> &'static str {
        match self {
            CancelReason::Deadline => "deadline",
            CancelReason::Stall => "stall",
            CancelReason::External => "external",
            CancelReason::Interrupted => "interrupted",
        }
    }

    /// Whether this reason is a *hard* cancel: an explicit request to stop
    /// ([`External`](CancelReason::External) /
    /// [`Interrupted`](CancelReason::Interrupted)) always halts the run with
    /// [`DbscanError::Cancelled`], regardless
    /// of the configured [`DeadlinePolicy`] — degrade/partial only soften
    /// *budget* expiry, never an operator's cancel.
    pub fn is_hard(self) -> bool {
        matches!(self, CancelReason::External | CancelReason::Interrupted)
    }
}

const STATE_LIVE: u8 = 0;
const STATE_DEADLINE: u8 = 1;
const STATE_STALL: u8 = 2;
const STATE_EXTERNAL: u8 = 3;
const STATE_INTERRUPTED: u8 = 4;

/// One-shot atomic cancel flag with a reason and a trip timestamp.
///
/// The first trip wins; later trips (from any thread) are ignored. The trip
/// timestamp is expressed in nanoseconds since the owning [`Budget`]'s start
/// instant, so observers can compute how far past the budget edge they first
/// *noticed* the cancellation — the measurable cancellation latency.
#[derive(Debug)]
pub struct CancelToken {
    state: AtomicU8,
    tripped_at_ns: AtomicU64,
}

impl CancelToken {
    fn new() -> Self {
        CancelToken {
            state: AtomicU8::new(STATE_LIVE),
            tripped_at_ns: AtomicU64::new(0),
        }
    }

    fn trip(&self, reason: u8, at_ns: u64) {
        // Store the timestamp before publishing the state so any thread that
        // observes the trip also observes a timestamp at or before it.
        self.tripped_at_ns.store(at_ns, Ordering::Relaxed);
        let _ =
            self.state
                .compare_exchange(STATE_LIVE, reason, Ordering::Release, Ordering::Relaxed);
    }

    /// Like [`CancelToken::trip`], but a hard (explicit-cancel) reason also
    /// *escalates* over an earlier soft trip — e.g. an external cancel landing
    /// on a run already degraded by its deadline must still stop it. The first
    /// hard reason wins; only atomics, so safe from a signal handler.
    fn trip_hard(&self, reason: u8, at_ns: u64) {
        self.tripped_at_ns.store(at_ns, Ordering::Relaxed);
        let mut cur = self.state.load(Ordering::Relaxed);
        loop {
            if cur == STATE_EXTERNAL || cur == STATE_INTERRUPTED {
                return;
            }
            match self.state.compare_exchange_weak(
                cur,
                reason,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// The reason the token tripped, or `None` while still live.
    pub fn reason(&self) -> Option<CancelReason> {
        match self.state.load(Ordering::Acquire) {
            STATE_DEADLINE => Some(CancelReason::Deadline),
            STATE_STALL => Some(CancelReason::Stall),
            STATE_EXTERNAL => Some(CancelReason::External),
            STATE_INTERRUPTED => Some(CancelReason::Interrupted),
            _ => None,
        }
    }

    fn tripped_at_ns(&self) -> u64 {
        self.tripped_at_ns.load(Ordering::Relaxed)
    }
}

/// A monotonic-clock time budget with an embedded [`CancelToken`].
#[derive(Debug)]
pub struct Budget {
    start: Instant,
    limit: Option<Duration>,
    token: CancelToken,
}

impl Budget {
    /// A budget that never expires (the token can still be tripped manually).
    pub fn unlimited() -> Self {
        Budget {
            start: Instant::now(),
            limit: None,
            token: CancelToken::new(),
        }
    }

    /// A budget that expires `limit` after *now*.
    pub fn with_limit(limit: Duration) -> Self {
        Budget {
            start: Instant::now(),
            limit: Some(limit),
            token: CancelToken::new(),
        }
    }

    /// The configured limit, if any.
    pub fn limit(&self) -> Option<Duration> {
        self.limit
    }

    /// Time elapsed since the budget started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Time left before expiry (`None` for unlimited budgets; zero once
    /// expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.limit.map(|l| l.saturating_sub(self.start.elapsed()))
    }

    /// Trip the token for an external reason (e.g. a caller-side abort).
    pub fn cancel(&self) {
        self.token
            .trip_hard(STATE_EXTERNAL, self.start.elapsed().as_nanos() as u64);
    }

    /// Trip the token because the process is being asked to stop. Safe to
    /// call from a signal handler: the trip is two atomic stores and the
    /// trip timestamp is recorded as the budget start (cancel latency is not
    /// a meaningful quantity for interrupts), so no clock is read.
    pub fn interrupt(&self) {
        self.token.trip_hard(STATE_INTERRUPTED, 0);
    }

    /// The reason the budget's token tripped, if it has.
    pub fn reason(&self) -> Option<CancelReason> {
        self.token.reason()
    }

    /// Poll the budget: trips the token the first time the deadline passes,
    /// and returns the cancel reason if the token has tripped (now or
    /// earlier).
    pub fn check(&self) -> Option<CancelReason> {
        if let Some(r) = self.token.reason() {
            return Some(r);
        }
        if let Some(limit) = self.limit {
            if self.start.elapsed() >= limit {
                // Record the *budget edge* as the trip time, not the polling
                // instant: observed latency then measures overshoot past the
                // edge, which is the quantity the cancellation-latency bound
                // is about.
                self.token.trip(STATE_DEADLINE, limit.as_nanos() as u64);
                return self.token.reason();
            }
        }
        None
    }
}

/// What to do when the budget runs out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadlinePolicy {
    /// Return [`DbscanError::DeadlineExceeded`].
    #[default]
    Abort,
    /// Switch remaining edge tests to the ρ-approximate edge oracle.
    Degrade,
    /// Finalize the union-find as-is and return an incomplete clustering.
    Partial,
}

impl DeadlinePolicy {
    /// Stable lowercase name (matches the CLI spelling).
    pub fn name(self) -> &'static str {
        match self {
            DeadlinePolicy::Abort => "abort",
            DeadlinePolicy::Degrade => "degrade",
            DeadlinePolicy::Partial => "partial",
        }
    }
}

impl FromStr for DeadlinePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "abort" => Ok(DeadlinePolicy::Abort),
            "degrade" => Ok(DeadlinePolicy::Degrade),
            "partial" => Ok(DeadlinePolicy::Partial),
            other => Err(format!(
                "unknown deadline policy {other:?} (expected abort, degrade, or partial)"
            )),
        }
    }
}

/// Deadline configuration carried on `ParConfig` and built by the CLI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineConfig {
    /// Wall-clock budget for the whole run; `None` disables the deadline.
    pub budget: Option<Duration>,
    /// What to do when the budget expires.
    pub policy: DeadlinePolicy,
    /// The ρ′ used for degraded edge tests under [`DeadlinePolicy::Degrade`].
    pub degrade_rho: f64,
    /// Stall watchdog threshold; `None` disables the watchdog.
    pub stall_timeout: Option<Duration>,
}

impl Default for DeadlineConfig {
    fn default() -> Self {
        DeadlineConfig {
            budget: None,
            policy: DeadlinePolicy::Abort,
            degrade_rho: 1e-3,
            stall_timeout: None,
        }
    }
}

/// How a budgeted run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineOutcome {
    /// The run finished all work exactly within the budget.
    Exact,
    /// Some edge tests ran at `degrade_rho` instead of exactly.
    Degraded,
    /// The run was truncated; the clustering is an incomplete prefix.
    Partial,
}

impl DeadlineOutcome {
    /// Stable lowercase name (used in the stats envelope).
    pub fn name(self) -> &'static str {
        match self {
            DeadlineOutcome::Exact => "exact",
            DeadlineOutcome::Degraded => "degraded",
            DeadlineOutcome::Partial => "partial",
        }
    }
}

/// The three cancellable stages every algorithm reports progress for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageId {
    /// Core-point labeling (range counting per point or per cell).
    Labeling,
    /// Core-cell connectivity (edge tests + union-find).
    EdgeTests,
    /// Border-point assignment / final assembly.
    BorderAssign,
}

impl StageId {
    /// Number of stages (the size of per-stage progress arrays).
    pub const COUNT: usize = 3;

    /// Stable snake_case name (matches `Phase` naming in the stats layer).
    pub fn name(self) -> &'static str {
        match self {
            StageId::Labeling => "labeling",
            StageId::EdgeTests => "edge_tests",
            StageId::BorderAssign => "border_assign",
        }
    }
}

const STAGE_TOTAL_UNSET: u64 = u64::MAX;

/// Fresh per-stage progress slots, all marked "not begun".
fn fresh_progress() -> [[AtomicU64; 2]; StageId::COUNT] {
    std::array::from_fn(|_| [AtomicU64::new(0), AtomicU64::new(STAGE_TOTAL_UNSET)])
}

/// Shared per-run control block: budget, policy, degradation state, and
/// per-stage progress counters. One `RunCtl` is threaded (by reference)
/// through every loop of a budgeted run; an *unarmed* `RunCtl`
/// ([`RunCtl::unlimited`]) makes every check compile down to a single
/// boolean load so the unbudgeted hot path keeps its old shape.
#[derive(Debug)]
pub struct RunCtl {
    armed: bool,
    policy: DeadlinePolicy,
    degrade_rho: f64,
    stall_timeout: Option<Duration>,
    budget: Budget,
    /// Set the first time any checkpoint observes the tripped token.
    observed: AtomicBool,
    /// Set once the run has switched to degraded edge tests.
    degraded: AtomicBool,
    /// Set once the run has decided to truncate (partial policy).
    truncated: AtomicBool,
    degraded_edges: AtomicU64,
    cancel_latency_ns: AtomicU64,
    /// `[done, total]` per stage; `total == u64::MAX` means "not begun".
    progress: [[AtomicU64; 2]; StageId::COUNT],
}

impl RunCtl {
    /// A control block with no budget and no watchdog; every check is a
    /// cheap early-out.
    pub fn unlimited() -> Self {
        RunCtl {
            armed: false,
            policy: DeadlinePolicy::Abort,
            degrade_rho: 1e-3,
            stall_timeout: None,
            budget: Budget::unlimited(),
            observed: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            truncated: AtomicBool::new(false),
            degraded_edges: AtomicU64::new(0),
            cancel_latency_ns: AtomicU64::new(0),
            progress: fresh_progress(),
        }
    }

    /// Build a control block from a [`DeadlineConfig`]. The block is armed
    /// when the config carries a budget or a stall timeout.
    pub fn new(config: &DeadlineConfig) -> Self {
        let armed = config.budget.is_some() || config.stall_timeout.is_some();
        RunCtl {
            armed,
            policy: config.policy,
            degrade_rho: config.degrade_rho,
            stall_timeout: config.stall_timeout,
            budget: match config.budget {
                Some(limit) => Budget::with_limit(limit),
                None => Budget::unlimited(),
            },
            observed: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            truncated: AtomicBool::new(false),
            degraded_edges: AtomicU64::new(0),
            cancel_latency_ns: AtomicU64::new(0),
            progress: fresh_progress(),
        }
    }

    /// Like [`RunCtl::new`], but *always* armed, even without a budget or a
    /// stall timeout: every checkpoint pays one atomic load so an external
    /// [`RunCtl::cancel`] / [`RunCtl::interrupt`] is observed promptly. This
    /// is the job-boundary constructor for long-lived front ends (the
    /// `dbscan` CLI's SIGINT handling, the server's `cancel` verb and drain
    /// path), where a run with no deadline must still be stoppable.
    pub fn cancellable(config: &DeadlineConfig) -> Self {
        let mut ctl = Self::new(config);
        ctl.armed = true;
        ctl
    }

    /// Whether any deadline machinery is active for this run.
    #[inline]
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// The run's budget (live even when unarmed, for elapsed-time queries).
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The configured policy.
    pub fn policy(&self) -> DeadlinePolicy {
        self.policy
    }

    /// The ρ′ used for degraded edge tests.
    pub fn degrade_rho(&self) -> f64 {
        self.degrade_rho
    }

    /// The stall watchdog threshold, if configured.
    pub fn stall_timeout(&self) -> Option<Duration> {
        self.stall_timeout
    }

    /// Trip the budget's token for an external reason.
    pub fn cancel(&self) {
        self.budget.cancel();
    }

    /// Trip the budget's token because the process is shutting down
    /// (async-signal-safe; see [`Budget::interrupt`]).
    pub fn interrupt(&self) {
        self.budget.interrupt();
    }

    /// Whether the token tripped for a hard (explicit-cancel) reason; see
    /// [`CancelReason::is_hard`].
    fn hard_cancelled(&self) -> bool {
        self.budget.reason().is_some_and(CancelReason::is_hard)
    }

    fn check_cancelled(&self) -> Option<CancelReason> {
        let reason = self.budget.check()?;
        if !self.observed.swap(true, Ordering::AcqRel) {
            let latency = self
                .budget
                .elapsed()
                .as_nanos()
                .saturating_sub(self.budget.token.tripped_at_ns() as u128)
                as u64;
            self.cancel_latency_ns.fetch_max(latency, Ordering::Relaxed);
        }
        Some(reason)
    }

    /// The main cooperative checkpoint: returns `true` when the caller must
    /// stop claiming work. Under [`DeadlinePolicy::Degrade`] this returns
    /// `false` (work continues, but [`RunCtl::edge_degraded`] flips on);
    /// under `Partial` it latches truncation; under `Abort` it simply says
    /// stop (the driver converts to the typed error via
    /// [`RunCtl::deadline_error`]).
    #[inline]
    pub fn should_stop(&self) -> bool {
        if !self.armed {
            return false;
        }
        // Fast paths: once a sticky decision is made, skip the clock read so
        // repeated checkpoints stay cheap and don't inflate cancel latency.
        // A degraded run keeps watching the token (one atomic load) so a
        // hard cancel landing after degradation still stops it.
        if self.policy == DeadlinePolicy::Degrade && self.degraded.load(Ordering::Relaxed) {
            return self.hard_cancelled();
        }
        if self.truncated.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(reason) = self.check_cancelled() {
            if reason.is_hard() {
                // Explicit cancellation overrides the softening policies:
                // the driver surfaces DbscanError::Cancelled.
                return true;
            }
            match self.policy {
                DeadlinePolicy::Abort => true,
                DeadlinePolicy::Partial => {
                    self.truncated.store(true, Ordering::Relaxed);
                    true
                }
                DeadlinePolicy::Degrade => {
                    self.degraded.store(true, Ordering::Relaxed);
                    false
                }
            }
        } else {
            false
        }
    }

    /// Checkpoint for algorithms that have no approximate edge path (KDD'96
    /// flood fill, CIT'08 partitions): `Degrade` is treated as `Partial`
    /// there, so this stops — and latches truncation — on expiry regardless
    /// of policy (except `Abort`, which stops without latching).
    #[inline]
    pub fn should_stop_no_degrade(&self) -> bool {
        if !self.armed {
            return false;
        }
        if self.truncated.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(reason) = self.check_cancelled() {
            if !reason.is_hard() && self.policy != DeadlinePolicy::Abort {
                self.truncated.store(true, Ordering::Relaxed);
            }
            true
        } else {
            false
        }
    }

    /// Whether edge tests should run in degraded (ρ-approximate) mode. Cheap:
    /// only reads the sticky flag set by [`RunCtl::should_stop`].
    #[inline]
    pub fn edge_degraded(&self) -> bool {
        self.armed && self.degraded.load(Ordering::Relaxed)
    }

    /// Record one edge test answered by the degraded path.
    #[inline]
    pub fn note_degraded_edge(&self) {
        self.degraded_edges.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether this run can ever degrade (policy is `Degrade` and armed) —
    /// used to decide whether to pre-validate `degrade_rho` and allocate
    /// approximate counters up front.
    pub fn may_degrade(&self) -> bool {
        self.armed && self.policy == DeadlinePolicy::Degrade
    }

    /// Whether the run must abort: some checkpoint observed the tripped
    /// token and either the policy is `Abort` or the cancel was hard
    /// (explicit — see [`CancelReason::is_hard`]). (A run that slips past
    /// its deadline but finishes before any checkpoint notices is allowed
    /// to succeed.)
    pub fn aborted(&self) -> bool {
        self.armed
            && self.observed.load(Ordering::Acquire)
            && (self.policy == DeadlinePolicy::Abort || self.hard_cancelled())
    }

    /// Whether the run was truncated under the `partial` policy.
    pub fn truncated(&self) -> bool {
        self.truncated.load(Ordering::Relaxed)
    }

    /// Declare a stage's total task count (idempotent per stage; the last
    /// call wins, which the sequential fallback path relies on to re-declare
    /// stages it reruns).
    pub fn stage_begin(&self, stage: StageId, total: u64) {
        let slot = &self.progress[stage as usize];
        slot[0].store(0, Ordering::Relaxed);
        slot[1].store(total, Ordering::Relaxed);
    }

    /// Record `n` completed tasks for a stage.
    #[inline]
    pub fn stage_done(&self, stage: StageId, n: u64) {
        self.progress[stage as usize][0].fetch_add(n, Ordering::Relaxed);
    }

    fn stage_progress(&self, stage: StageId) -> Option<(u64, u64)> {
        let slot = &self.progress[stage as usize];
        let total = slot[1].load(Ordering::Relaxed);
        if total == STAGE_TOTAL_UNSET {
            return None;
        }
        Some((slot[0].load(Ordering::Relaxed).min(total), total))
    }

    /// Build the typed abort error for a stage, using recorded progress to
    /// count remaining tasks. Hard cancels (external / interrupt) surface as
    /// [`DbscanError::Cancelled`] instead of a deadline error.
    pub fn deadline_error(&self, stage: StageId) -> DbscanError {
        if let Some(reason) = self.budget.reason().filter(|r| r.is_hard()) {
            return DbscanError::Cancelled {
                phase: stage.name(),
                reason,
            };
        }
        let remaining = match self.stage_progress(stage) {
            Some((done, total)) => total.saturating_sub(done),
            None => 0,
        };
        DbscanError::DeadlineExceeded {
            phase: stage.name(),
            elapsed: self.budget.elapsed(),
            remaining_tasks: remaining,
        }
    }

    /// Summarize the run for the caller / stats envelope.
    pub fn report(&self) -> DeadlineReport {
        let truncated = self.truncated.load(Ordering::Relaxed);
        let degraded_edges = self.degraded_edges.load(Ordering::Relaxed);
        let outcome = if truncated {
            DeadlineOutcome::Partial
        } else if self.degraded.load(Ordering::Relaxed) && degraded_edges > 0 {
            DeadlineOutcome::Degraded
        } else {
            DeadlineOutcome::Exact
        };
        let mut progress = [None; StageId::COUNT];
        for (i, stage) in [StageId::Labeling, StageId::EdgeTests, StageId::BorderAssign]
            .into_iter()
            .enumerate()
        {
            progress[i] = self.stage_progress(stage);
        }
        DeadlineReport {
            budget: self.budget.limit(),
            elapsed: self.budget.elapsed(),
            policy: self.policy,
            outcome,
            degrade_rho: if outcome == DeadlineOutcome::Degraded {
                Some(self.degrade_rho)
            } else {
                None
            },
            degraded_edges,
            cancel_latency_ns: self.cancel_latency_ns.load(Ordering::Relaxed),
            complete: !truncated,
            progress,
        }
    }
}

/// Summary of a budgeted run: outcome, degradation counts, measured
/// cancellation latency, and per-stage progress.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlineReport {
    /// The configured budget, if any.
    pub budget: Option<Duration>,
    /// Wall-clock time the run actually took.
    pub elapsed: Duration,
    /// The configured policy.
    pub policy: DeadlinePolicy,
    /// How the run ended.
    pub outcome: DeadlineOutcome,
    /// The ρ′ used for degraded edges (present only when degraded).
    pub degrade_rho: Option<f64>,
    /// Number of edge tests answered by the approximate path.
    pub degraded_edges: u64,
    /// Observed overshoot past the budget edge at the first checkpoint that
    /// noticed the trip (0 when the budget never tripped).
    pub cancel_latency_ns: u64,
    /// `false` iff the clustering was truncated (partial policy).
    pub complete: bool,
    /// Per-stage `(done, total)` task counts, `None` for stages not begun.
    pub progress: [Option<(u64, u64)>; StageId::COUNT],
}

impl DeadlineReport {
    /// Render the `deadline` object of the `dbscan-stats/v7` envelope.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push('{');
        match self.budget {
            Some(b) => s.push_str(&format!("\"budget_ns\":{}", b.as_nanos())),
            None => s.push_str("\"budget_ns\":null"),
        }
        s.push_str(&format!(",\"elapsed_ns\":{}", self.elapsed.as_nanos()));
        s.push_str(&format!(",\"policy\":\"{}\"", self.policy.name()));
        s.push_str(&format!(",\"outcome\":\"{}\"", self.outcome.name()));
        match self.degrade_rho {
            Some(r) => s.push_str(&format!(",\"degrade_rho\":{r}")),
            None => s.push_str(",\"degrade_rho\":null"),
        }
        s.push_str(&format!(",\"degraded_edges\":{}", self.degraded_edges));
        s.push_str(&format!(
            ",\"cancel_latency_ns\":{}",
            self.cancel_latency_ns
        ));
        s.push_str(&format!(",\"complete\":{}", self.complete));
        s.push_str(",\"progress\":{");
        for (i, stage) in [StageId::Labeling, StageId::EdgeTests, StageId::BorderAssign]
            .into_iter()
            .enumerate()
        {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":", stage.name()));
            match self.progress[i] {
                Some((done, total)) => {
                    s.push_str(&format!("{{\"done\":{done},\"total\":{total}}}"))
                }
                None => s.push_str("null"),
            }
        }
        s.push_str("}}");
        s
    }
}

impl fmt::Display for DeadlineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "deadline outcome {} after {:?} ({} degraded edges, cancel latency {}ns)",
            self.outcome.name(),
            self.elapsed,
            self.degraded_edges,
            self.cancel_latency_ns
        )
    }
}

const HEARTBEAT_DONE: u64 = u64::MAX;

/// Per-worker monotonic heartbeats feeding the stall watchdog.
///
/// Workers call [`Heartbeats::beat`] after each claim; a worker that exits
/// its loop calls [`Heartbeats::mark_done`] so the watchdog stops tracking
/// it. Ages are measured against a shared origin instant so a single
/// relaxed `u64` store per beat suffices.
#[derive(Debug)]
pub struct Heartbeats {
    origin: Instant,
    beats: Box<[AtomicU64]>,
}

impl Heartbeats {
    /// Heartbeat table for `workers` workers, all "just beaten" at creation.
    pub fn new(workers: usize) -> Self {
        Heartbeats {
            origin: Instant::now(),
            beats: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Record that worker `w` made progress just now.
    #[inline]
    pub fn beat(&self, w: usize) {
        if let Some(slot) = self.beats.get(w) {
            slot.store(self.origin.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Mark worker `w` as finished (the watchdog ignores it from now on).
    #[inline]
    pub fn mark_done(&self, w: usize) {
        if let Some(slot) = self.beats.get(w) {
            slot.store(HEARTBEAT_DONE, Ordering::Relaxed);
        }
    }

    /// Whether every worker has marked itself done.
    pub fn all_done(&self) -> bool {
        self.beats
            .iter()
            .all(|b| b.load(Ordering::Relaxed) == HEARTBEAT_DONE)
    }

    /// The live worker with the oldest heartbeat, and that heartbeat's age.
    /// `None` when all workers are done.
    pub fn stalest_age(&self) -> Option<(usize, Duration)> {
        let now = self.origin.elapsed().as_nanos() as u64;
        let mut stalest: Option<(usize, u64)> = None;
        for (w, slot) in self.beats.iter().enumerate() {
            let beat = slot.load(Ordering::Relaxed);
            if beat == HEARTBEAT_DONE {
                continue;
            }
            let age = now.saturating_sub(beat);
            if stalest.map(|(_, a)| age > a).unwrap_or(true) {
                stalest = Some((w, age));
            }
        }
        stalest.map(|(w, age)| (w, Duration::from_nanos(age)))
    }
}

/// Validate degrade parameters up front so a mid-run switch to the
/// approximate path cannot fail: checks `degrade_rho` against the usual ρ
/// validation and verifies every point's cell index is representable at the
/// deepest level of the `degrade_rho` Lemma 5 hierarchy (where an unchecked
/// lazy build would silently saturate). No-op unless the run may degrade.
pub(crate) fn precheck_degrade<const D: usize>(
    points: &[Point<D>],
    params: DbscanParams,
    ctl: &RunCtl,
) -> Result<(), DbscanError> {
    if !ctl.may_degrade() {
        return Ok(());
    }
    let rho = ctl.degrade_rho();
    validate_rho(params.eps(), rho)?;
    let leaf_side = base_side::<D>(params.eps()) / (1u64 << (hierarchy_levels(rho) - 1)) as f64;
    crate::validate::check_cell_range(points, leaf_side)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_duration_accepts_all_suffixes() {
        assert_eq!(parse_duration("500ms").unwrap(), Duration::from_millis(500));
        assert_eq!(parse_duration("2s").unwrap(), Duration::from_secs(2));
        assert_eq!(parse_duration("1m").unwrap(), Duration::from_secs(60));
        assert_eq!(parse_duration("250us").unwrap(), Duration::from_micros(250));
        assert_eq!(parse_duration("0.25s").unwrap(), Duration::from_millis(250));
        assert_eq!(parse_duration(" 10ms ").unwrap(), Duration::from_millis(10));
    }

    #[test]
    fn parse_duration_rejects_bad_tokens_with_the_token_named() {
        for bad in ["10", "1.5", "abc", "-5s", "10h", ""] {
            let err = parse_duration(bad).unwrap_err();
            assert!(
                err.contains(&format!("{:?}", bad.trim())),
                "error {err:?} should name the offending token {bad:?}"
            );
        }
    }

    #[test]
    fn bare_numbers_are_rejected_with_the_suffix_list() {
        // `0.5s` and `250ms` parse; `1.5` with the unit elided must not be
        // guessed at — the message names the token and the accepted units.
        let err = parse_duration("1.5").unwrap_err();
        assert!(err.contains("\"1.5\""), "{err}");
        assert!(err.contains("unit suffix"), "{err}");
        assert!(err.contains("us, ms, s, or m"), "{err}");
    }

    #[test]
    fn interrupt_is_a_hard_cancel_under_every_policy() {
        for policy in [
            DeadlinePolicy::Abort,
            DeadlinePolicy::Degrade,
            DeadlinePolicy::Partial,
        ] {
            // No budget at all: only `cancellable` arms the checkpoints.
            let ctl = RunCtl::cancellable(&DeadlineConfig {
                policy,
                ..Default::default()
            });
            assert!(ctl.armed());
            assert!(!ctl.should_stop(), "policy {policy:?} stopped early");
            ctl.interrupt();
            assert!(ctl.should_stop(), "policy {policy:?} ignored interrupt");
            assert!(ctl.aborted(), "interrupt must abort under {policy:?}");
            match ctl.deadline_error(StageId::EdgeTests) {
                DbscanError::Cancelled { phase, reason } => {
                    assert_eq!(phase, "edge_tests");
                    assert_eq!(reason, CancelReason::Interrupted);
                }
                other => panic!("expected Cancelled, got {other:?}"),
            }
        }
    }

    #[test]
    fn hard_cancel_stops_an_already_degraded_run() {
        let ctl = RunCtl::new(&DeadlineConfig {
            budget: Some(Duration::ZERO),
            policy: DeadlinePolicy::Degrade,
            degrade_rho: 0.01,
            ..Default::default()
        });
        assert!(!ctl.should_stop(), "degrade keeps running");
        assert!(ctl.edge_degraded());
        ctl.cancel();
        assert!(
            ctl.should_stop(),
            "external cancel must stop a degraded run"
        );
        assert!(ctl.aborted());
        assert!(matches!(
            ctl.deadline_error(StageId::EdgeTests),
            DbscanError::Cancelled {
                reason: CancelReason::External,
                ..
            }
        ));
    }

    #[test]
    fn unarmed_ctl_never_stops() {
        let ctl = RunCtl::unlimited();
        assert!(!ctl.armed());
        assert!(!ctl.should_stop());
        assert!(!ctl.should_stop_no_degrade());
        assert!(!ctl.edge_degraded());
        assert!(!ctl.aborted());
        let report = ctl.report();
        assert_eq!(report.outcome, DeadlineOutcome::Exact);
        assert!(report.complete);
    }

    #[test]
    fn zero_budget_abort_stops_and_reports_latency() {
        let ctl = RunCtl::new(&DeadlineConfig {
            budget: Some(Duration::ZERO),
            policy: DeadlinePolicy::Abort,
            ..Default::default()
        });
        ctl.stage_begin(StageId::EdgeTests, 10);
        ctl.stage_done(StageId::EdgeTests, 3);
        assert!(ctl.should_stop());
        assert!(ctl.aborted());
        let err = ctl.deadline_error(StageId::EdgeTests);
        match err {
            DbscanError::DeadlineExceeded {
                phase,
                remaining_tasks,
                ..
            } => {
                assert_eq!(phase, "edge_tests");
                assert_eq!(remaining_tasks, 7);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn zero_budget_degrade_keeps_running_in_degraded_mode() {
        let ctl = RunCtl::new(&DeadlineConfig {
            budget: Some(Duration::ZERO),
            policy: DeadlinePolicy::Degrade,
            degrade_rho: 0.01,
            ..Default::default()
        });
        assert!(!ctl.should_stop(), "degrade policy must not stop the run");
        assert!(ctl.edge_degraded());
        ctl.note_degraded_edge();
        ctl.note_degraded_edge();
        let report = ctl.report();
        assert_eq!(report.outcome, DeadlineOutcome::Degraded);
        assert_eq!(report.degraded_edges, 2);
        assert_eq!(report.degrade_rho, Some(0.01));
        assert!(report.complete);
    }

    #[test]
    fn zero_budget_partial_truncates() {
        let ctl = RunCtl::new(&DeadlineConfig {
            budget: Some(Duration::ZERO),
            policy: DeadlinePolicy::Partial,
            ..Default::default()
        });
        ctl.stage_begin(StageId::Labeling, 5);
        ctl.stage_done(StageId::Labeling, 2);
        assert!(ctl.should_stop());
        assert!(ctl.truncated());
        let report = ctl.report();
        assert_eq!(report.outcome, DeadlineOutcome::Partial);
        assert!(!report.complete);
        assert_eq!(report.progress[StageId::Labeling as usize], Some((2, 5)));
        assert_eq!(report.progress[StageId::EdgeTests as usize], None);
    }

    #[test]
    fn no_degrade_checkpoint_truncates_under_degrade_policy() {
        let ctl = RunCtl::new(&DeadlineConfig {
            budget: Some(Duration::ZERO),
            policy: DeadlinePolicy::Degrade,
            ..Default::default()
        });
        assert!(ctl.should_stop_no_degrade());
        assert!(ctl.truncated());
        assert_eq!(ctl.report().outcome, DeadlineOutcome::Partial);
    }

    #[test]
    fn external_cancel_trips_with_reason() {
        let ctl = RunCtl::new(&DeadlineConfig {
            budget: Some(Duration::from_secs(3600)),
            policy: DeadlinePolicy::Abort,
            ..Default::default()
        });
        assert!(!ctl.should_stop());
        ctl.cancel();
        assert!(ctl.should_stop());
        assert_eq!(ctl.budget().reason(), Some(CancelReason::External));
    }

    #[test]
    fn heartbeats_track_stalest_and_done() {
        let hb = Heartbeats::new(3);
        assert!(!hb.all_done());
        hb.beat(0);
        hb.beat(1);
        hb.beat(2);
        hb.mark_done(0);
        hb.mark_done(1);
        let (w, _age) = hb.stalest_age().expect("worker 2 is still live");
        assert_eq!(w, 2);
        hb.mark_done(2);
        assert!(hb.all_done());
        assert!(hb.stalest_age().is_none());
    }

    #[test]
    fn report_json_shape() {
        let ctl = RunCtl::new(&DeadlineConfig {
            budget: Some(Duration::from_millis(5)),
            policy: DeadlinePolicy::Degrade,
            degrade_rho: 0.5,
            ..Default::default()
        });
        ctl.stage_begin(StageId::EdgeTests, 4);
        ctl.stage_done(StageId::EdgeTests, 4);
        let json = ctl.report().to_json();
        assert!(json.contains("\"budget_ns\":5000000"), "{json}");
        assert!(json.contains("\"policy\":\"degrade\""), "{json}");
        assert!(json.contains("\"outcome\":\"exact\""), "{json}");
        assert!(
            json.contains("\"edge_tests\":{\"done\":4,\"total\":4}"),
            "{json}"
        );
        assert!(json.contains("\"labeling\":null"), "{json}");
    }
}
