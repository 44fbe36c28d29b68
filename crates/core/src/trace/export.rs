//! Trace exporters: Chrome trace-event JSON (open in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev)) and folded-stack flamegraph text
//! (pipe into `flamegraph.pl` or inferno).
//!
//! Both operate on a decoded [`TraceSnapshot`], so they are pure functions
//! of recorded data — no clocks, no I/O. [`TraceFormat`] picks one by the
//! name the CLI and the daemon accept.

use super::{TraceEvent, TraceSnapshot};
use std::str::FromStr;

/// A trace rendering, by its front-end name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceFormat {
    /// Chrome trace-event JSON ([`chrome_trace_json_capped`]).
    #[default]
    Chrome,
    /// Folded flamegraph stacks ([`folded_stacks`]).
    Folded,
}

impl TraceFormat {
    /// `"chrome"` or `"folded"`.
    pub fn name(self) -> &'static str {
        match self {
            TraceFormat::Chrome => "chrome",
            TraceFormat::Folded => "folded",
        }
    }

    /// Renders `snap` within `max_bytes` (`usize::MAX`: uncapped); the second
    /// value counts the events or lines the cap cut.
    pub fn render(self, snap: &TraceSnapshot, max_bytes: usize) -> (String, u64) {
        match self {
            TraceFormat::Chrome => chrome_trace_json_capped(snap, max_bytes),
            TraceFormat::Folded => cap_folded(&folded_stacks(snap), max_bytes),
        }
    }
}

impl FromStr for TraceFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        [TraceFormat::Chrome, TraceFormat::Folded]
            .into_iter()
            .find(|f| f.name() == s)
            .ok_or_else(|| format!("expected 'chrome' or 'folded', got {s:?}"))
    }
}

/// Lane display name: `coordinator` for lane 0, `worker-N` for lane `N + 1`.
fn lane_name(lane: u32) -> String {
    if lane == 0 {
        "coordinator".to_string()
    } else {
        format!("worker-{}", lane - 1)
    }
}

fn push_args(out: &mut String, ev: &TraceEvent) {
    let keys = ev.name.arg_keys();
    let mut first = true;
    out.push_str(",\"args\":{");
    for (key, val) in keys.iter().zip([ev.arg0, ev.arg1]) {
        if let Some(key) = key {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{key}\":{val}"));
        }
    }
    if ev.name.is_span() && ev.name.as_phase().is_none() {
        // Task spans additionally carry the scheduler's placement facts.
        if !first {
            out.push(',');
        }
        out.push_str(&format!("\"home\":{},\"stolen\":{}", ev.home, ev.stolen));
    }
    out.push('}');
}

/// Renders the snapshot as a Chrome trace-event JSON array: one `pid` (1,
/// named `dbscan`), one `tid` per lane (named via `thread_name` metadata
/// events — `coordinator`, `worker-0`, …), complete spans (`ph: "X"`) for
/// phase/task spans and thread-scoped instants (`ph: "i"`) for point events.
/// Timestamps/durations are microseconds with nanosecond precision, per the
/// trace-event format.
pub fn chrome_trace_json(snap: &TraceSnapshot) -> String {
    chrome_trace_json_capped(snap, usize::MAX).0
}

/// Tail room reserved for the `events_dropped`/`events_omitted` markers and
/// the closing bracket, so a capped render is always complete JSON.
const CAP_TAIL_RESERVE: usize = 320;

/// [`chrome_trace_json`] with a byte budget, for in-memory consumers that
/// return the trace inline (the service tier's per-request trace capture).
/// Metadata records are always emitted; timeline events are appended in
/// order until the budget would be exceeded, and every event past that point
/// is counted instead. A non-zero second return means the render was
/// truncated — a global `events_omitted` instant marks it inside the trace
/// too. The output is valid JSON either way, and an uncapped call
/// (`max_bytes = usize::MAX`) is byte-identical to [`chrome_trace_json`].
pub fn chrome_trace_json_capped(snap: &TraceSnapshot, max_bytes: usize) -> (String, u64) {
    let budget = max_bytes.saturating_sub(CAP_TAIL_RESERVE);
    let mut out = String::from("[");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"dbscan\"}}",
    );
    for lane in 0..snap.num_lanes {
        out.push_str(&format!(
            ",{{\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            lane_name(lane as u32)
        ));
    }
    let mut omitted = 0u64;
    for ev in &snap.events {
        if omitted > 0 {
            // Keep a coherent timeline prefix: once one event is cut, count
            // the rest instead of cherry-picking whichever still fits.
            omitted += 1;
            continue;
        }
        let ts = ev.ts_ns as f64 / 1_000.0;
        let cat = if ev.name.as_phase().is_some() {
            "phase"
        } else if ev.name.is_span() {
            "task"
        } else {
            "event"
        };
        let mut piece = format!(
            ",{{\"name\":\"{}\",\"cat\":\"{cat}\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3}",
            ev.name.label(),
            ev.lane
        );
        if ev.name.is_span() {
            piece.push_str(&format!(
                ",\"ph\":\"X\",\"dur\":{:.3}",
                ev.dur_ns as f64 / 1_000.0
            ));
        } else {
            piece.push_str(",\"ph\":\"i\",\"s\":\"t\"");
        }
        push_args(&mut piece, ev);
        piece.push('}');
        if out.len() + piece.len() > budget {
            omitted += 1;
            continue;
        }
        out.push_str(&piece);
    }
    if snap.events_dropped > 0 {
        // Surface loss inside the trace itself, not only in the stats JSON.
        out.push_str(&format!(
            ",{{\"name\":\"events_dropped\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"g\",\
             \"pid\":1,\"tid\":0,\"ts\":0,\"args\":{{\"count\":{}}}}}",
            snap.events_dropped
        ));
    }
    if omitted > 0 {
        out.push_str(&format!(
            ",{{\"name\":\"events_omitted\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"g\",\
             \"pid\":1,\"tid\":0,\"ts\":0,\"args\":{{\"count\":{omitted}}}}}",
        ));
    }
    out.push(']');
    (out, omitted)
}

/// Caps folded-stack text at a byte budget, cutting only whole lines so
/// the remainder still feeds `flamegraph.pl`. Returns the capped text and
/// the number of lines omitted.
fn cap_folded(text: &str, max_bytes: usize) -> (String, u64) {
    if text.len() <= max_bytes {
        return (text.to_string(), 0);
    }
    let mut out = String::new();
    let mut omitted = 0u64;
    for line in text.lines() {
        if omitted == 0 && out.len() + line.len() < max_bytes {
            out.push_str(line);
            out.push('\n');
        } else {
            omitted += 1;
        }
    }
    (out, omitted)
}

/// Renders the snapshot as folded flamegraph stacks: one
/// `lane;outer;inner count` line per distinct span path, where the count is
/// the path's **self** time in nanoseconds (duration minus contained child
/// spans). Instants are skipped. Lines are sorted for stable output.
pub fn folded_stacks(snap: &TraceSnapshot) -> String {
    use std::collections::BTreeMap;
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    let mut i = 0;
    while i < snap.events.len() {
        let lane = snap.events[i].lane;
        let mut j = i;
        while j < snap.events.len() && snap.events[j].lane == lane {
            j += 1;
        }
        // Events are sorted (ts, Reverse(dur)) within the lane, so a simple
        // containment stack recovers the nesting.
        let mut stack: Vec<(&TraceEvent, u64)> = Vec::new(); // (span, child time)
        let close =
            |stack: &mut Vec<(&TraceEvent, u64)>, folded: &mut BTreeMap<String, u64>, upto: u64| {
                while let Some(&(top, child_ns)) = stack.last() {
                    if top.end_ns() > upto {
                        break;
                    }
                    stack.pop();
                    let mut path = lane_name(lane);
                    for (anc, _) in stack.iter() {
                        path.push(';');
                        path.push_str(anc.name.label());
                    }
                    path.push(';');
                    path.push_str(top.name.label());
                    *folded.entry(path).or_insert(0) += top.dur_ns.saturating_sub(child_ns);
                    if let Some(parent) = stack.last_mut() {
                        parent.1 += top.dur_ns;
                    }
                }
            };
        for ev in &snap.events[i..j] {
            if !ev.name.is_span() {
                continue;
            }
            close(&mut stack, &mut folded, ev.ts_ns);
            stack.push((ev, 0));
        }
        close(&mut stack, &mut folded, u64::MAX);
        i = j;
    }
    let mut out = String::new();
    for (path, ns) in folded {
        out.push_str(&format!("{path} {ns}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{EventName, Tracer};
    use std::time::Instant;

    fn sample_snapshot() -> TraceSnapshot {
        let t = Tracer::with_capacity(2, 32);
        let start = Instant::now();
        let base = t.ts_of(start);
        // Coordinator: total span containing a labeling span.
        t.span(0, EventName::PhaseTotal, base, 10_000, [0, 0], false, 0);
        t.span(
            0,
            EventName::PhaseLabeling,
            base + 1_000,
            4_000,
            [0, 0],
            false,
            0,
        );
        // Worker 0: two task spans, one stolen, plus a steal instant.
        t.span(1, EventName::TaskEdge, base, 2_000, [3, 40], false, 1);
        t.span(
            1,
            EventName::TaskEdge,
            base + 2_500,
            1_500,
            [7, 10],
            true,
            0,
        );
        t.instant(1, EventName::Steal, [7, 0]);
        t.snapshot()
    }

    #[test]
    fn chrome_export_has_metadata_spans_and_instants() {
        let j = chrome_trace_json(&sample_snapshot());
        assert!(j.starts_with('['));
        assert!(j.ends_with(']'));
        assert!(j.contains("\"name\":\"process_name\""));
        assert!(j.contains("\"args\":{\"name\":\"coordinator\"}"));
        assert!(j.contains("\"args\":{\"name\":\"worker-0\"}"));
        assert!(j.contains("\"ph\":\"X\""));
        assert!(j.contains("\"ph\":\"i\""));
        assert!(j.contains("\"name\":\"task_edge\""));
        assert!(j.contains("\"stolen\":true"));
        assert!(j.contains("\"name\":\"steal\""));
        // No dropped marker when nothing was dropped.
        assert!(!j.contains("events_dropped"));
    }

    #[test]
    fn chrome_export_marks_dropped_events() {
        let t = Tracer::with_capacity(1, 1);
        t.instant(0, EventName::Steal, [0, 0]);
        t.instant(0, EventName::Steal, [1, 0]);
        let j = chrome_trace_json(&t.snapshot());
        assert!(j.contains("\"name\":\"events_dropped\""));
        assert!(j.contains("\"count\":1"));
    }

    #[test]
    fn capped_chrome_export_truncates_to_valid_json() {
        let snap = sample_snapshot();
        let (full, omitted) = chrome_trace_json_capped(&snap, usize::MAX);
        assert_eq!(omitted, 0);
        assert_eq!(
            full,
            chrome_trace_json(&snap),
            "uncapped must be byte-identical"
        );

        // A budget with room for the metadata but not the events: every
        // timeline event is cut, the marker records how many, and the result
        // still parses (balanced brackets, no dangling comma).
        let (capped, omitted) = chrome_trace_json_capped(&snap, 400);
        assert_eq!(omitted, snap.events.len() as u64);
        assert!(capped.starts_with('[') && capped.ends_with(']'));
        assert!(capped.contains("\"name\":\"events_omitted\""));
        assert!(capped.contains(&format!("\"count\":{omitted}")));
        assert!(!capped.contains("\"cat\":\"task\""));
        assert!(capped.len() <= 400 + CAP_TAIL_RESERVE);

        // A budget that fits some events keeps a strict prefix.
        let (partial, omitted) = chrome_trace_json_capped(&snap, full.len() - 50);
        assert!(omitted > 0 && (omitted as usize) < snap.events.len());
        assert!(
            partial.contains("\"name\":\"total\""),
            "prefix keeps the first span"
        );
    }

    #[test]
    fn cap_folded_cuts_whole_lines() {
        let text = "a;b 100\nc;d 200\ne;f 300\n";
        let (full, omitted) = cap_folded(text, text.len());
        assert_eq!(full, text);
        assert_eq!(omitted, 0);
        let (capped, omitted) = cap_folded(text, 10);
        assert_eq!(capped, "a;b 100\n");
        assert_eq!(omitted, 2);
        // Once one line is cut, later shorter lines are not cherry-picked.
        let text2 = "long;line;here 123456\nx 1\n";
        let (capped2, omitted2) = cap_folded(text2, 5);
        assert_eq!(capped2, "");
        assert_eq!(omitted2, 2);
    }

    #[test]
    fn trace_format_names_parse_and_render_uncapped() {
        let snap = sample_snapshot();
        for fmt in [TraceFormat::Chrome, TraceFormat::Folded] {
            assert_eq!(fmt.name().parse::<TraceFormat>(), Ok(fmt));
        }
        assert!("svg".parse::<TraceFormat>().is_err());
        assert_eq!(
            TraceFormat::Chrome.render(&snap, usize::MAX),
            (chrome_trace_json(&snap), 0)
        );
        assert_eq!(
            TraceFormat::Folded.render(&snap, usize::MAX),
            (folded_stacks(&snap), 0)
        );
    }

    #[test]
    fn folded_stacks_nest_and_account_self_time() {
        let txt = folded_stacks(&sample_snapshot());
        let lines: Vec<&str> = txt.lines().collect();
        // total has 10_000 - 4_000 (labeling child) = 6_000 self ns.
        assert!(lines.contains(&"coordinator;total 6000"));
        assert!(lines.contains(&"coordinator;total;labeling 4000"));
        // Both worker task spans fold into one path; instants are skipped.
        assert!(lines.contains(&"worker-0;task_edge 3500"));
        assert_eq!(lines.len(), 3);
    }
}
