//! Event-level tracing: per-worker timelines behind the same
//! zero-overhead-when-disabled discipline as [`crate::stats`].
//!
//! The aggregate phase/counter layer answers *how much*; this module answers
//! *when and on which worker*. It records two event shapes into bounded
//! per-worker ring buffers ([`lane::TraceLane`]):
//!
//! * **spans** — phase spans on the coordinator timeline (lane 0, one per
//!   [`Phase`] measurement the stats layer takes) and per-task spans on the
//!   worker timelines (lane `w + 1` for worker `w`), carrying the task id,
//!   its payload size (cell population or pair-cost weight), the claiming
//!   worker's home segment, and whether the claim was a steal;
//! * **instants** — point events for steals, `uf_cas_retries` bursts,
//!   poison-latch trips, worker panics, and sequential fallbacks.
//!
//! The recording interface is [`TraceSink`], mirroring [`StatsSink`]: an
//! associated `const TRACE_ENABLED` decides every site at monomorphization
//! time. [`NoTrace`] is the canonical disabled sink; [`StatsSink`] has
//! [`TraceSink`] as a supertrait, with [`NoStats`] and [`Stats`] carrying
//! disabled impls — so every existing `S: StatsSink` entry point accepts a
//! tracing sink without a signature change, and uninstrumented runs compile
//! to the exact pre-trace code. [`TracedStats`] bundles a [`Stats`] with a
//! [`Tracer`] and enables both.
//!
//! Buffers are bounded and never block the hot path: a full lane drops the
//! event and bumps `events_dropped` (visible in the v4 stats envelope and
//! both exporters). Log2 duration/size histograms ([`hist::Histograms`])
//! ride along. Export to Chrome trace-event JSON or folded flamegraph stacks
//! via [`export`].

pub mod export;
pub mod hist;
pub mod lane;

use crate::stats::{NoStats, Phase, Stats, StatsSink};
use hist::{HistKind, Histograms};
use lane::{RawEvent, TraceLane};
use std::time::Instant;

/// Default per-lane capacity in events (32 bytes each → 2 MiB per lane).
pub const DEFAULT_LANE_CAPACITY: usize = 1 << 16;

/// The name of a recorded event. Span names first (the seven phases share
/// the [`Phase`] discriminants, then the three parallel task kinds), instant
/// names after.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventName {
    PhaseGridBuild,
    PhaseLabeling,
    PhaseStructureBuild,
    PhaseEdgeTests,
    PhaseUnionFind,
    PhaseBorderAssign,
    PhaseTotal,
    /// One claimed grid-build task (an id or cell range of one pass).
    TaskGrid,
    /// One claimed labeling task (a grid cell).
    TaskLabeling,
    /// One claimed edge task (a core cell's candidate-pair bundle).
    TaskEdge,
    /// One claimed border-assignment task (a grid cell).
    TaskBorder,
    /// A claim outside the claimer's home segment.
    Steal,
    /// A task whose unions lost ≥ 1 root-link CAS race (arg1 = retry count).
    UfCasRetries,
    /// A worker observed the poison latch and drained.
    PoisonTrip,
    /// A task panicked and was caught by the stage envelope.
    WorkerPanic,
    /// The driver re-ran the algorithm sequentially after a worker panic.
    SequentialFallback,
    /// The stall watchdog saw a worker make no progress past the threshold
    /// (arg0 = worker, arg1 = heartbeat age in milliseconds).
    Stall,
}

impl EventName {
    pub const COUNT: usize = 17;

    /// The span name recording a [`Phase`] measurement.
    pub fn of_phase(p: Phase) -> EventName {
        match p {
            Phase::GridBuild => EventName::PhaseGridBuild,
            Phase::Labeling => EventName::PhaseLabeling,
            Phase::StructureBuild => EventName::PhaseStructureBuild,
            Phase::EdgeTests => EventName::PhaseEdgeTests,
            Phase::UnionFind => EventName::PhaseUnionFind,
            Phase::BorderAssign => EventName::PhaseBorderAssign,
            Phase::Total => EventName::PhaseTotal,
        }
    }

    /// The phase a phase-span name records, if it is one.
    pub fn as_phase(self) -> Option<Phase> {
        Phase::ALL
            .into_iter()
            .find(|&p| EventName::of_phase(p) == self)
    }

    /// Stable snake_case label used by both exporters. Phase spans reuse the
    /// [`Phase::name`] keys so traces and stats JSON line up.
    pub fn label(self) -> &'static str {
        match self {
            EventName::PhaseGridBuild => "grid_build",
            EventName::PhaseLabeling => "labeling",
            EventName::PhaseStructureBuild => "structure_build",
            EventName::PhaseEdgeTests => "edge_tests",
            EventName::PhaseUnionFind => "union_find",
            EventName::PhaseBorderAssign => "border_assign",
            EventName::PhaseTotal => "total",
            EventName::TaskGrid => "task_grid",
            EventName::TaskLabeling => "task_labeling",
            EventName::TaskEdge => "task_edge",
            EventName::TaskBorder => "task_border",
            EventName::Steal => "steal",
            EventName::UfCasRetries => "uf_cas_retries",
            EventName::PoisonTrip => "poison_trip",
            EventName::WorkerPanic => "worker_panic",
            EventName::SequentialFallback => "sequential_fallback",
            EventName::Stall => "stall",
        }
    }

    /// Whether this name records a span (`ph: "X"`) rather than an instant.
    pub fn is_span(self) -> bool {
        (self as usize) <= EventName::TaskBorder as usize
    }

    /// JSON keys of the two packed `u32` args, for the Chrome exporter.
    pub(crate) fn arg_keys(self) -> [Option<&'static str>; 2] {
        match self {
            EventName::TaskGrid
            | EventName::TaskLabeling
            | EventName::TaskEdge
            | EventName::TaskBorder => [Some("task"), Some("payload")],
            EventName::Steal => [Some("task"), Some("home")],
            EventName::UfCasRetries => [Some("task"), Some("retries")],
            EventName::WorkerPanic => [Some("task"), None],
            EventName::Stall => [Some("worker"), Some("age_ms")],
            _ => [None, None],
        }
    }

    fn from_u8(v: u8) -> Option<EventName> {
        const ALL: [EventName; EventName::COUNT] = [
            EventName::PhaseGridBuild,
            EventName::PhaseLabeling,
            EventName::PhaseStructureBuild,
            EventName::PhaseEdgeTests,
            EventName::PhaseUnionFind,
            EventName::PhaseBorderAssign,
            EventName::PhaseTotal,
            EventName::TaskGrid,
            EventName::TaskLabeling,
            EventName::TaskEdge,
            EventName::TaskBorder,
            EventName::Steal,
            EventName::UfCasRetries,
            EventName::PoisonTrip,
            EventName::WorkerPanic,
            EventName::SequentialFallback,
            EventName::Stall,
        ];
        ALL.get(v as usize).copied()
    }
}

/// One decoded event of a [`TraceSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Timeline track: 0 = coordinator, `w + 1` = parallel worker `w`.
    pub lane: u32,
    /// Start (spans) or occurrence (instants) time, nanoseconds since the
    /// tracer's origin.
    pub ts_ns: u64,
    /// Span duration in nanoseconds; 0 for instants.
    pub dur_ns: u64,
    pub name: EventName,
    /// First packed argument (task id for task spans and most instants).
    pub arg0: u32,
    /// Second packed argument (payload size, home segment, or retry count).
    pub arg1: u32,
    /// Task spans: the claim fell outside the worker's home segment.
    pub stolen: bool,
    /// Task spans: the worker whose home segment held the claimed position
    /// (saturated at 255).
    pub home: u8,
}

impl TraceEvent {
    /// End of the span (`ts + dur`); equals `ts_ns` for instants.
    pub fn end_ns(&self) -> u64 {
        self.ts_ns + self.dur_ns
    }

    fn encode(&self) -> RawEvent {
        let meta = (self.name as u64) << 8
            | u64::from(self.stolen) << 16
            | (self.home as u64) << 24
            | (self.lane as u64) << 32;
        let args = self.arg0 as u64 | (self.arg1 as u64) << 32;
        [self.ts_ns, self.dur_ns, meta, args]
    }

    fn decode(lane: u32, raw: RawEvent) -> Option<TraceEvent> {
        let name = EventName::from_u8((raw[2] >> 8) as u8)?;
        Some(TraceEvent {
            lane,
            ts_ns: raw[0],
            dur_ns: raw[1],
            name,
            arg0: raw[3] as u32,
            arg1: (raw[3] >> 32) as u32,
            stolen: (raw[2] >> 16) & 1 == 1,
            home: (raw[2] >> 24) as u8,
        })
    }
}

/// Decoded, export-ready view of a finished [`Tracer`].
#[derive(Clone, Debug)]
pub struct TraceSnapshot {
    /// All events, sorted by `(lane, ts, descending dur)` so a lane's spans
    /// appear outermost-first.
    pub events: Vec<TraceEvent>,
    /// Number of lanes the tracer was built with (including empty ones).
    pub num_lanes: usize,
    /// Events dropped across all lanes because a buffer was full.
    pub events_dropped: u64,
}

/// The event recorder: an origin timestamp, one bounded [`TraceLane`] per
/// timeline, and the shared [`Histograms`]. Shareable across worker threads
/// (all state is atomic); each lane expects a single writer at a time (see
/// [`lane`]).
pub struct Tracer {
    origin: Instant,
    lanes: Box<[TraceLane]>,
    hists: Histograms,
}

impl Tracer {
    /// A tracer with `lanes` timelines (clamped to ≥ 1) of
    /// [`DEFAULT_LANE_CAPACITY`] events each. Use one lane for sequential
    /// runs, `threads + 1` for parallel ones.
    pub fn new(lanes: usize) -> Self {
        Tracer::with_capacity(lanes, DEFAULT_LANE_CAPACITY)
    }

    /// [`Tracer::new`] with an explicit per-lane event capacity.
    pub fn with_capacity(lanes: usize, events_per_lane: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            lanes: (0..lanes.max(1))
                .map(|_| TraceLane::new(events_per_lane))
                .collect(),
            hists: Histograms::default(),
        }
    }

    /// Number of timelines.
    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Nanoseconds from the tracer's origin to `t` (0 for instants that
    /// precede it).
    #[inline]
    pub fn ts_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Nanoseconds from the tracer's origin to now.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    #[inline]
    fn lane(&self, lane: usize) -> &TraceLane {
        // Out-of-range lanes (a caller sized the tracer below its worker
        // count) clamp to the last lane rather than panicking mid-stage.
        &self.lanes[lane.min(self.lanes.len() - 1)]
    }

    /// Records a span on `lane`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        lane: usize,
        name: EventName,
        ts_ns: u64,
        dur_ns: u64,
        args: [u32; 2],
        stolen: bool,
        home: u8,
    ) {
        self.lane(lane).push(
            TraceEvent {
                lane: lane as u32,
                ts_ns,
                dur_ns,
                name,
                arg0: args[0],
                arg1: args[1],
                stolen,
                home,
            }
            .encode(),
        );
    }

    /// Records an instant event on `lane`, timestamped now.
    #[inline]
    pub fn instant(&self, lane: usize, name: EventName, args: [u32; 2]) {
        self.span(lane, name, self.now_ns(), 0, args, false, 0);
    }

    /// The shared histograms.
    pub fn histograms(&self) -> &Histograms {
        &self.hists
    }

    /// Total events dropped across all lanes.
    pub fn events_dropped(&self) -> u64 {
        self.lanes.iter().map(TraceLane::dropped).sum()
    }

    /// Decodes every lane into an export-ready snapshot. Call after the
    /// traced run finished (worker threads joined).
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut events = Vec::new();
        for (li, lane) in self.lanes.iter().enumerate() {
            events.extend(
                lane.events()
                    .into_iter()
                    .filter_map(|raw| TraceEvent::decode(li as u32, raw)),
            );
        }
        events.sort_by_key(|e| (e.lane, e.ts_ns, std::cmp::Reverse(e.dur_ns)));
        TraceSnapshot {
            events,
            num_lanes: self.lanes.len(),
            events_dropped: self.events_dropped(),
        }
    }
}

/// Recording interface for trace events, threaded through the same generic
/// parameter as [`StatsSink`] (its supertrait bound). `TRACE_ENABLED` is an
/// associated const, so with a disabled sink ([`NoTrace`], [`NoStats`], or a
/// plain [`Stats`]) every helper below folds to nothing at monomorphization
/// time and the hot path is untouched.
pub trait TraceSink: Sync {
    const TRACE_ENABLED: bool;

    /// The recorder, when tracing is live.
    fn tracer(&self) -> Option<&Tracer>;

    /// `Instant::now()` only when tracing — the start of a prospective span.
    #[inline(always)]
    fn trace_start(&self) -> Option<Instant> {
        if Self::TRACE_ENABLED {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Records a span of `dur_ns` that began at `start` on `lane`.
    #[inline(always)]
    fn trace_span_from(&self, lane: usize, name: EventName, start: Instant, dur_ns: u64) {
        if Self::TRACE_ENABLED {
            if let Some(t) = self.tracer() {
                t.span(lane, name, t.ts_of(start), dur_ns, [0, 0], false, 0);
            }
        }
    }

    /// Records a parallel task span (and its wall time into the
    /// [`HistKind::TaskNanos`] histogram). `payload` saturates at `u32::MAX`,
    /// `home` at 255.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn trace_task_span(
        &self,
        lane: usize,
        name: EventName,
        start: Option<Instant>,
        task: u32,
        payload: u64,
        stolen: bool,
        home: usize,
    ) {
        if Self::TRACE_ENABLED {
            if let (Some(start), Some(t)) = (start, self.tracer()) {
                let dur = start.elapsed().as_nanos() as u64;
                t.span(
                    lane,
                    name,
                    t.ts_of(start),
                    dur,
                    [task, payload.min(u32::MAX as u64) as u32],
                    stolen,
                    home.min(255) as u8,
                );
                t.hists.record(HistKind::TaskNanos, dur);
            }
        }
    }

    /// Records an instant event, timestamped now.
    #[inline(always)]
    fn trace_instant(&self, lane: usize, name: EventName, args: [u32; 2]) {
        if Self::TRACE_ENABLED {
            if let Some(t) = self.tracer() {
                t.instant(lane, name, args);
            }
        }
    }

    /// Records one histogram observation.
    #[inline(always)]
    fn trace_hist(&self, kind: HistKind, value: u64) {
        if Self::TRACE_ENABLED {
            if let Some(t) = self.tracer() {
                t.hists.record(kind, value);
            }
        }
    }

    /// Renders the edge stage's three-way time attribution (see
    /// [`crate::parallel`]) as three consecutive coordinator sub-spans laid
    /// out from the stage's start — synthetic placement, exact durations, so
    /// per-phase span totals equal the stats phase nanos.
    #[inline(always)]
    fn trace_connect_spans(&self, start: Instant, edge_ns: u64, union_ns: u64, structure_ns: u64) {
        if Self::TRACE_ENABLED {
            if let Some(t) = self.tracer() {
                let base = t.ts_of(start);
                if edge_ns > 0 {
                    t.span(
                        0,
                        EventName::PhaseEdgeTests,
                        base,
                        edge_ns,
                        [0, 0],
                        false,
                        0,
                    );
                }
                if union_ns > 0 {
                    t.span(
                        0,
                        EventName::PhaseUnionFind,
                        base + edge_ns,
                        union_ns,
                        [0, 0],
                        false,
                        0,
                    );
                }
                if structure_ns > 0 {
                    t.span(
                        0,
                        EventName::PhaseStructureBuild,
                        base + edge_ns + union_ns,
                        structure_ns,
                        [0, 0],
                        false,
                        0,
                    );
                }
            }
        }
    }
}

/// The canonical disabled recorder: every [`TraceSink`] site compiles away.
/// ([`NoStats`] and [`Stats`] carry the same disabled impl, so existing
/// stats-only callers are unaffected by the trace layer.)
#[derive(Clone, Copy, Debug, Default)]
pub struct NoTrace;

impl TraceSink for NoTrace {
    const TRACE_ENABLED: bool = false;

    #[inline(always)]
    fn tracer(&self) -> Option<&Tracer> {
        None
    }
}

impl TraceSink for NoStats {
    const TRACE_ENABLED: bool = false;

    #[inline(always)]
    fn tracer(&self) -> Option<&Tracer> {
        None
    }
}

impl TraceSink for Stats {
    const TRACE_ENABLED: bool = false;

    #[inline(always)]
    fn tracer(&self) -> Option<&Tracer> {
        None
    }
}

/// A [`Stats`] collector paired with a live [`Tracer`]: the sink the CLI and
/// `repro trace` pass to [`cluster`](crate::algorithms::cluster) when
/// `--trace` is on. Implements [`StatsSink`] (delegating to `stats`) and a *recording*
/// [`TraceSink`].
#[derive(Default)]
pub struct TracedStats {
    pub stats: Stats,
    pub tracer: Tracer,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(1)
    }
}

impl TracedStats {
    /// A traced collector with `lanes` timelines (1 for sequential runs,
    /// `threads + 1` for parallel ones).
    pub fn new(lanes: usize) -> Self {
        TracedStats {
            stats: Stats::new(),
            tracer: Tracer::new(lanes),
        }
    }

    /// [`TracedStats::new`] with an explicit per-lane event capacity.
    pub fn with_capacity(lanes: usize, events_per_lane: usize) -> Self {
        TracedStats {
            stats: Stats::new(),
            tracer: Tracer::with_capacity(lanes, events_per_lane),
        }
    }
}

impl StatsSink for TracedStats {
    const ENABLED: bool = true;

    #[inline]
    fn add(&self, c: crate::stats::Counter, n: u64) {
        self.stats.add(c, n);
    }

    #[inline]
    fn add_phase_nanos(&self, p: Phase, nanos: u64) {
        self.stats.add_phase_nanos(p, nanos);
    }
}

impl TraceSink for TracedStats {
    const TRACE_ENABLED: bool = true;

    #[inline]
    fn tracer(&self) -> Option<&Tracer> {
        Some(&self.tracer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_roundtrip_through_lane_encoding() {
        let ev = TraceEvent {
            lane: 3,
            ts_ns: 123_456_789,
            dur_ns: 42,
            name: EventName::TaskEdge,
            arg0: 17,
            arg1: 9_001,
            stolen: true,
            home: 2,
        };
        let decoded = TraceEvent::decode(3, ev.encode()).unwrap();
        assert_eq!(decoded, ev);
    }

    #[test]
    fn name_table_is_consistent() {
        for i in 0..EventName::COUNT {
            let n = EventName::from_u8(i as u8).unwrap();
            assert_eq!(n as usize, i);
        }
        assert!(EventName::from_u8(EventName::COUNT as u8).is_none());
        for p in Phase::ALL {
            let n = EventName::of_phase(p);
            assert!(n.is_span());
            assert_eq!(n.as_phase(), Some(p));
            assert_eq!(n.label(), p.name());
        }
        assert!(!EventName::Steal.is_span());
        assert!(EventName::TaskBorder.is_span());
    }

    #[test]
    fn tracer_records_spans_and_instants() {
        let t = Tracer::with_capacity(2, 16);
        let start = Instant::now();
        t.span(
            0,
            EventName::PhaseTotal,
            t.ts_of(start),
            1_000,
            [0, 0],
            false,
            0,
        );
        t.instant(1, EventName::Steal, [7, 1]);
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.num_lanes, 2);
        assert_eq!(snap.events_dropped, 0);
        assert_eq!(snap.events[0].name, EventName::PhaseTotal);
        assert_eq!(snap.events[1].lane, 1);
        assert_eq!(snap.events[1].arg0, 7);
        assert_eq!(snap.events[1].dur_ns, 0);
    }

    #[test]
    fn lane_index_clamps_instead_of_panicking() {
        let t = Tracer::with_capacity(1, 4);
        t.instant(9, EventName::PoisonTrip, [0, 0]);
        assert_eq!(t.snapshot().events.len(), 1);
        assert_eq!(t.snapshot().events[0].lane, 0);
    }

    #[test]
    fn disabled_sinks_record_nothing() {
        assert!(NoTrace.tracer().is_none());
        assert!(TraceSink::tracer(&NoStats).is_none());
        assert!(TraceSink::tracer(&Stats::new()).is_none());
        assert!(NoTrace.trace_start().is_none());
        // A disabled helper call is a no-op, not a panic.
        NoTrace.trace_hist(HistKind::TaskNanos, 1);
        NoTrace.trace_instant(0, EventName::Steal, [0, 0]);
    }

    #[test]
    fn traced_stats_records_both_layers() {
        use crate::stats::Counter;
        let ts = TracedStats::new(1);
        ts.bump(Counter::EdgeTests);
        let span = ts.now().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(1));
        ts.finish(Phase::Total, Some(span));
        assert_eq!(ts.stats.report().counter(Counter::EdgeTests), 1);
        let snap = ts.tracer.snapshot();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].name, EventName::PhaseTotal);
        assert_eq!(
            snap.events[0].dur_ns,
            ts.stats.report().phase_nanos(Phase::Total)
        );
    }
}
