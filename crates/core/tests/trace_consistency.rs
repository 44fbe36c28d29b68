//! Consistency properties of the event-tracing layer (`dbscan_core::trace`):
//! phase spans agree exactly with the stats phase nanos, spans nest properly
//! on every timeline, ring-buffer overflow is lossy-but-sound, and the Chrome
//! exporter emits valid trace-event JSON.

use dbscan_core::algorithms::{grid_exact_instrumented, BcpStrategy};
use dbscan_core::parallel::try_grid_exact_par_instrumented;
use dbscan_core::trace::export::chrome_trace_json;
use dbscan_core::trace::{EventName, TraceSnapshot, Tracer};
use dbscan_core::ParConfig;
use dbscan_core::{DbscanParams, Phase, TracedStats};
use dbscan_geom::Point;

fn lcg_points<const D: usize>(n: usize, span: f64, seed: u64) -> Vec<Point<D>> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64 * span
    };
    (0..n)
        .map(|_| {
            let mut c = [0.0; D];
            for v in &mut c {
                *v = next();
            }
            Point(c)
        })
        .collect()
}

fn params(eps: f64, min_pts: usize) -> DbscanParams {
    DbscanParams::new(eps, min_pts).unwrap()
}

/// Sequential run: for every phase, the sum of that phase's span durations
/// equals the stats-layer phase nanos *exactly* — both sides are computed
/// from the same `elapsed()` reading.
#[test]
fn phase_span_totals_equal_stats_phase_nanos_sequentially() {
    let pts = lcg_points::<3>(600, 8.0, 7);
    let ts = TracedStats::new(1);
    grid_exact_instrumented(&pts, params(0.9, 4), BcpStrategy::TreeAssisted, &ts);
    let report = ts.stats.report();
    let snap = ts.tracer.snapshot();
    assert_eq!(snap.events_dropped, 0);
    for p in Phase::ALL {
        let span_total: u64 = snap
            .events
            .iter()
            .filter(|e| e.name == EventName::of_phase(p))
            .map(|e| e.dur_ns)
            .sum();
        assert_eq!(
            span_total,
            report.phase_nanos(p),
            "phase {} spans must sum to the stats nanos",
            p.name()
        );
    }
    // The run actually produced phase spans (Total is always measured).
    assert!(snap
        .events
        .iter()
        .any(|e| e.name == EventName::PhaseTotal && e.dur_ns > 0));
}

/// On every lane, spans must nest: sorted by (ts, longest-first), each span
/// is either disjoint from the previous open span or fully contained in it.
fn assert_spans_nest(snap: &TraceSnapshot) {
    let mut i = 0;
    while i < snap.events.len() {
        let lane = snap.events[i].lane;
        let mut stack: Vec<(u64, u64)> = Vec::new(); // (ts, end) of open spans
        while i < snap.events.len() && snap.events[i].lane == lane {
            let e = &snap.events[i];
            i += 1;
            if !e.name.is_span() {
                continue;
            }
            while let Some(&(_, end)) = stack.last() {
                if end <= e.ts_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(ts, end)) = stack.last() {
                assert!(
                    ts <= e.ts_ns && e.end_ns() <= end,
                    "lane {lane}: span {:?} [{}, {}) must nest in [{ts}, {end})",
                    e.name,
                    e.ts_ns,
                    e.end_ns()
                );
            }
            stack.push((e.ts_ns, e.end_ns()));
        }
    }
}

#[test]
fn spans_nest_on_sequential_and_parallel_runs() {
    let pts = lcg_points::<3>(900, 8.0, 11);
    let seq = TracedStats::new(1);
    grid_exact_instrumented(&pts, params(0.9, 4), BcpStrategy::TreeAssisted, &seq);
    assert_spans_nest(&seq.tracer.snapshot());

    let par = TracedStats::new(5);
    try_grid_exact_par_instrumented(
        &pts,
        params(0.9, 4),
        &ParConfig::with_threads(Some(4)),
        &par,
    )
    .unwrap();
    let snap = par.tracer.snapshot();
    assert_spans_nest(&snap);
    // The worker lanes actually carried task spans.
    assert!(snap
        .events
        .iter()
        .any(|e| e.lane > 0 && e.name.is_span() && e.name.as_phase().is_none()));
}

#[test]
fn ring_buffer_overflow_counts_drops_and_keeps_early_events() {
    let t = Tracer::with_capacity(1, 8);
    for i in 0..20u32 {
        t.instant(0, EventName::Steal, [i, 0]);
    }
    let snap = t.snapshot();
    assert_eq!(snap.events.len(), 8);
    assert_eq!(snap.events_dropped, 12);
    // The retained events are the first eight, uncorrupted and in order.
    for (i, e) in snap.events.iter().enumerate() {
        assert_eq!(e.name, EventName::Steal);
        assert_eq!(e.arg0, i as u32);
    }
}

// --- A minimal JSON parser, just enough to validate exporter output. -------

#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            s: s.as_bytes(),
            i: 0,
        }
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&b),
            "expected {:?} at byte {}",
            b as char,
            self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        *self.s.get(self.i).expect("unexpected end of JSON")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Json {
        assert!(
            self.s[self.i..].starts_with(word.as_bytes()),
            "bad literal at byte {}",
            self.i
        );
        self.i += word.len();
        v
    }

    fn number(&mut self) -> Json {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
        Json::Num(
            text.parse()
                .unwrap_or_else(|_| panic!("bad number {text:?}")),
        )
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let b = self.s[self.i];
            self.i += 1;
            match b {
                b'"' => return out,
                b'\\' => {
                    let esc = self.s[self.i];
                    self.i += 1;
                    out.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char, // \" \\ \/ — enough for our output
                    });
                }
                other => out.push(other as char),
            }
        }
    }

    fn array(&mut self) -> Json {
        self.eat(b'[');
        let mut items = Vec::new();
        if self.peek() == b']' {
            self.i += 1;
            return Json::Arr(items);
        }
        loop {
            items.push(self.value());
            match self.peek() {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Json::Arr(items);
                }
                other => panic!("expected , or ] got {:?}", other as char),
            }
        }
    }

    fn object(&mut self) -> Json {
        self.eat(b'{');
        let mut members = Vec::new();
        if self.peek() == b'}' {
            self.i += 1;
            return Json::Obj(members);
        }
        loop {
            self.ws();
            let key = self.string();
            self.eat(b':');
            members.push((key, self.value()));
            match self.peek() {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Json::Obj(members);
                }
                other => panic!("expected , or }} got {:?}", other as char),
            }
        }
    }

    fn parse(mut self) -> Json {
        let v = self.value();
        self.ws();
        assert_eq!(self.i, self.s.len(), "trailing bytes after JSON value");
        v
    }
}

#[test]
fn chrome_export_of_a_parallel_run_is_valid_trace_event_json() {
    let pts = lcg_points::<3>(900, 8.0, 23);
    let ts = TracedStats::new(5);
    try_grid_exact_par_instrumented(&pts, params(0.9, 4), &ParConfig::with_threads(Some(4)), &ts)
        .unwrap();
    let json_text = chrome_trace_json(&ts.tracer.snapshot());
    let root = Parser::new(&json_text).parse();

    let Json::Arr(events) = root else {
        panic!("chrome trace must be a JSON array");
    };
    assert!(!events.is_empty());

    let mut thread_names = Vec::new();
    let mut task_spans = 0;
    for ev in &events {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .expect("every event has ph");
        assert!(
            ev.get("pid").and_then(Json::as_num).is_some(),
            "every event has pid"
        );
        assert!(
            ev.get("tid").and_then(Json::as_num).is_some(),
            "every event has tid"
        );
        match ph {
            "X" => {
                assert!(ev.get("ts").and_then(Json::as_num).is_some());
                assert!(ev.get("dur").and_then(Json::as_num).is_some());
                if ev.get("cat").and_then(Json::as_str) == Some("task") {
                    task_spans += 1;
                    let args = ev.get("args").expect("task spans carry args");
                    assert!(args.get("task").is_some());
                    assert!(args.get("payload").is_some());
                    assert!(args.get("home").is_some());
                    assert!(args.get("stolen").is_some());
                }
            }
            "i" => {
                assert!(ev.get("ts").and_then(Json::as_num).is_some());
            }
            "M" => {
                if ev.get("name").and_then(Json::as_str) == Some("thread_name") {
                    let name = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_string();
                    thread_names.push((ev.get("tid").unwrap().as_num().unwrap() as u32, name));
                }
            }
            other => panic!("unexpected ph {other:?}"),
        }
    }
    // One named track per lane: coordinator + 4 workers.
    thread_names.sort();
    assert_eq!(
        thread_names,
        vec![
            (0, "coordinator".to_string()),
            (1, "worker-0".to_string()),
            (2, "worker-1".to_string()),
            (3, "worker-2".to_string()),
            (4, "worker-3".to_string()),
        ]
    );
    assert!(task_spans > 0, "a parallel run must record task spans");
}

#[cfg(feature = "fault-injection")]
#[test]
fn fault_injected_run_traces_panics_and_the_fallback() {
    use dbscan_core::{FaultPlan, FaultSite, RecoveryPolicy};

    let pts = lcg_points::<3>(900, 8.0, 42);
    let ts = TracedStats::new(5);
    let config = ParConfig {
        threads: Some(4),
        recovery: RecoveryPolicy::FallbackSequential,
        faults: FaultPlan::new(42).with_panic(FaultSite::EdgeTests, 1.0),
        ..ParConfig::default()
    };
    try_grid_exact_par_instrumented(&pts, params(0.9, 4), &config, &ts)
        .expect("fallback-sequential absorbs the injected panic");
    let snap = ts.tracer.snapshot();
    assert!(
        snap.events.iter().any(|e| e.name == EventName::WorkerPanic),
        "the injected panic must appear as a worker_panic instant"
    );
    assert!(
        snap.events
            .iter()
            .any(|e| e.name == EventName::SequentialFallback),
        "the recovery must appear as a sequential_fallback instant"
    );
}
