//! The benchmark's own spans: recorded in memory around the calls into
//! each layer, folded into self times, written out as Chrome-trace JSON
//! when the run ends. The library's in-program telemetry stays off.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request the span belongs to (0 = none); spans of one request
    /// share it.
    pub request: u64,
    /// Recording thread, for the trace viewer's rows.
    pub thread: u32,
}

/// An in-memory span recorder. One per recording thread; merge with
/// [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts at `origin`.
    pub fn new(origin: Instant, thread: u32) -> Tracer {
        Tracer {
            origin,
            thread,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread, on the same clock.
    pub fn sibling(&self, thread: u32) -> Tracer {
        Tracer::new(self.origin, thread)
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished interval; returns its index for children.
    pub fn record(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
            thread: self.thread,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span under `parent`.
    pub fn scope<R>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: Option<usize>,
        f: impl FnOnce(&mut Tracer, usize) -> R,
    ) -> R {
        let start = self.ns(Instant::now());
        let id = self.record(name, start, start, parent, 0);
        let out = f(self, id);
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Appends another recorder's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// All spans of one name, folded.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldRow {
    pub name: String,
    pub count: u64,
    /// Sum of the spans' durations.
    pub total_ns: u64,
    /// Sum of the spans' durations minus what their children cover.
    pub self_ns: u64,
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Folds spans by name. A span's self time is its duration minus the
/// part of its interval its children cover (overlapping children are
/// not counted twice), so over any subtree whose children lie inside
/// their parents, self times sum to the root's duration.
pub fn fold(spans: &[Span]) -> Vec<FoldRow> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut rows: BTreeMap<&str, FoldRow> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let dur = s.end_ns - s.start_ns;
        let row = rows.entry(&s.name).or_insert_with(|| FoldRow {
            name: s.name.to_string(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += dur;
        row.self_ns += dur - covered(kids, s.start_ns, s.end_ns);
    }
    rows.into_values().collect()
}

/// Most spans a trace file holds; a long run's request spans beyond it
/// are dropped from the file (never from the fold) and counted.
pub const MAX_FILE_SPANS: usize = 60_000;

/// Chrome-trace ("Trace Event Format") JSON of the spans, plus free-form
/// tables under `"tables"` that the viewer ignores.
pub fn chrome_json(spans: &[Span], tables: &crate::json::Json) -> String {
    use std::fmt::Write;
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().take(MAX_FILE_SPANS).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"request\": {}}}}}",
            crate::json::Json::Str(s.name.to_string()),
            s.thread,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            i,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.request,
        );
    }
    let _ = write!(
        out,
        "\n], \"displayTimeUnit\": \"ms\", \"spansDroppedFromFile\": {}, \"tables\": {}}}\n",
        spans.len().saturating_sub(MAX_FILE_SPANS),
        tables
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer() -> Tracer {
        Tracer::new(Instant::now(), 0)
    }

    #[test]
    fn self_time_is_duration_minus_children_and_rows_sum_to_the_parent() {
        let mut t = tracer();
        let root = t.record("request", 0, 1000, None, 7);
        let exec = t.record("exec", 100, 900, Some(root), 7);
        t.record("gemm", 200, 500, Some(exec), 7);
        t.record("gemm", 500, 700, Some(exec), 7);
        let rows = fold(t.spans());
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(get("request").self_ns, 200);
        assert_eq!(get("exec").self_ns, 300);
        assert_eq!(get("gemm").self_ns, 500);
        assert_eq!(get("gemm").count, 2);
        assert_eq!(get("exec").total_ns, 800);
        let sum: u64 = rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(sum, 1000, "self times must sum to the root's duration");
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_counted_twice() {
        let mut t = tracer();
        let root = t.record("root", 100, 200, None, 0);
        t.record("a", 110, 150, Some(root), 0);
        t.record("b", 140, 180, Some(root), 0); // overlaps a
        t.record("c", 190, 260, Some(root), 0); // overhangs the parent
        let rows = fold(t.spans());
        let root_row = rows.iter().find(|r| r.name == "root").unwrap();
        // Covered: [110,180] and [190,200] = 80 of 100.
        assert_eq!(root_row.self_ns, 20);
    }

    #[test]
    fn absorb_keeps_parent_links_and_scope_times_its_body() {
        let mut a = tracer();
        a.record("x", 0, 10, None, 0);
        let mut b = a.sibling(1);
        let p = b.record("p", 0, 10, None, 0);
        b.record("q", 2, 4, Some(p), 0);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[2].thread, 1);
        let v = a.scope("outer", None, |t, id| t.scope("inner", Some(id), |_, _| 42));
        assert_eq!(v, 42);
        let outer = &a.spans()[3];
        let inner = &a.spans()[4];
        assert_eq!(inner.parent, Some(3));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn chrome_json_is_json() {
        let mut t = tracer();
        let r = t.record("a \"quoted\" name", 0, 1500, None, 3);
        t.record("child", 10, 20, Some(r), 3);
        let text = chrome_json(
            t.spans(),
            &crate::json::obj([("k", crate::json::Json::Num(1.0))]),
        );
        let v = crate::json::Json::parse(&text).unwrap();
        assert_eq!(v.get("traceEvents").unwrap().as_arr().unwrap().len(), 2);
    }
}
