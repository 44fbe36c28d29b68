//! Span recorder for the traced run. The benchmark wraps its own calls into
//! each layer; nothing inside the program is instrumented. Spans are kept in
//! memory and written out once, at the end of the run.

use dbscan_server::json::{obj, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    /// The job (or round) the span belongs to.
    pub job: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; every method is a no-op otherwise, so the
/// untraced run pays one branch per layer call.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent's own span is closed.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span under a reserved id.
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        job: u64,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            job,
        });
    }

    /// Records a span under a fresh id.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        job: u64,
    ) {
        if self.enabled {
            let id = self.reserve();
            self.record_as(id, name, start, end, parent, job);
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Total and self time (the span minus the part of it that its children
/// cover) per span name, in nanoseconds, with span counts.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let e = out.entry(s.name).or_insert((0, 0, 0));
        e.0 += s.dur_ns();
        e.1 += s.dur_ns() - covered;
        e.2 += 1;
    }
    out
}

/// The spans as a Chrome trace-event document (open in Perfetto or
/// `chrome://tracing`); parent and job ids ride in `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            obj(vec![
                ("name", Value::Str(s.name.to_string())),
                ("ph", Value::Str("X".to_string())),
                ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                ("dur", Value::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Value::Num(1.0)),
                ("tid", Value::Num(s.job as f64)),
                (
                    "args",
                    obj(vec![
                        ("id", Value::Num(s.id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("job", Value::Num(s.job as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    obj(vec![("traceEvents", Value::Arr(events))]).to_line()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, a: u64, b: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name,
            start_ns: a,
            end_ns: b,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, "job", 0, 100, None),
            span(2, "submit", 10, 40, Some(1)),
            span(3, "inner", 30, 60, Some(1)),
            span(4, "result", 70, 90, Some(1)),
        ];
        let t = self_times(&spans);
        // Children cover [10, 60) and [70, 90): 70 of 100 ns.
        assert_eq!(t["job"], (100, 30, 1));
        assert_eq!(t["submit"], (30, 30, 1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        let now = Instant::now();
        tr.record("x", now, now, None, 0);
        assert!(tr.spans().is_empty());
        let tr = Tracer::new(true);
        tr.record("x", now, Instant::now(), None, 3);
        assert_eq!(tr.spans().len(), 1);
        assert!(chrome_json(&tr.spans()).contains("\"name\":\"x\""));
    }
}
