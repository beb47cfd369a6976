//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the library
//! (a layer span's name is `layer.call`, such as `csp.segment`) and around
//! its own units of work (`pass`, `site`, `request`, which have no dot).
//! They are kept in memory and written once, when the run ends.
//!
//! A span's self time is its duration minus the part of its interval
//! that its children cover. The unattributed share of a run is the self
//! time of the unit spans (benchmark glue between layer calls) over the
//! self time of all spans.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the trace origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call` for a layer span, a bare word for a unit of work.
    pub name: &'static str,
    /// Start, nanoseconds since the origin.
    pub start: u64,
    /// End, nanoseconds since the origin.
    pub end: u64,
    /// Index of the parent span in the same trace.
    pub parent: Option<usize>,
    /// The request or site this span belongs to.
    pub id: u64,
}

impl Span {
    /// `true` for a span around a library call.
    pub fn is_layer(&self) -> bool {
        self.name.contains('.')
    }
}

/// A span buffer for one unit of work (one site job, one request).
/// Parents are local indices until [`Trace::absorb`] rebases them.
#[derive(Debug)]
pub struct SpanBuf {
    origin: Instant,
    on: bool,
    id: u64,
    spans: Vec<Span>,
}

impl SpanBuf {
    /// A buffer recording against `origin`; records nothing when `on` is
    /// false.
    pub fn new(origin: Instant, on: bool, id: u64) -> SpanBuf {
        SpanBuf {
            origin,
            on,
            id,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// `true` when this buffer records.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span under `parent`, returning its local index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.open_at(name, parent, start)
    }

    /// Opens a span that started at `start` (such as a request's due
    /// time), returning its local index.
    pub fn open_at(&mut self, name: &'static str, parent: Option<usize>, start: u64) -> usize {
        if self.on {
            self.spans.push(Span {
                name,
                start,
                end: start,
                parent,
                id: self.id,
            });
        }
        self.spans.len().saturating_sub(1)
    }

    /// Closes the span `index` returned by [`SpanBuf::open`].
    pub fn close(&mut self, index: usize) {
        if self.on {
            self.spans[index].end = self.now();
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let index = self.open(name, parent);
        let out = f();
        self.close(index);
        out
    }
}

/// All spans of a run.
#[derive(Debug, Default)]
pub struct Trace {
    /// Spans in record order; parents always precede their children.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Appends a unit's spans, rebasing local parents and hanging its
    /// root spans under `parent`.
    pub fn absorb(&mut self, buf: SpanBuf, parent: Option<usize>) {
        let base = self.spans.len();
        for mut s in buf.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => parent,
            };
            self.spans.push(s);
        }
    }

    /// Appends another trace, rebasing its parents.
    pub fn append(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Records a span directly, returning its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Self time of every span, in nanoseconds, aligned with `spans`.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| (s.end - s.start).saturating_sub(covered(s.start, s.end, kids)))
            .collect()
    }

    /// Self time of unit spans over self time of all spans: the share of
    /// the traced work that no layer span accounts for.
    pub fn unattributed_frac(&self) -> f64 {
        let times = self.self_times();
        let total: u64 = times.iter().sum();
        let unattributed: u64 = self
            .spans
            .iter()
            .zip(&times)
            .filter(|(s, _)| !s.is_layer())
            .map(|(_, &t)| t)
            .sum();
        if total == 0 {
            0.0
        } else {
            unattributed as f64 / total as f64
        }
    }

    /// The trace as JSON: spans with their self times, plus the reported
    /// stage times and counters passed in as `(name, value)` pairs.
    pub fn to_json(&self, workload: &str, seed: u64, reported: &[(String, f64)]) -> String {
        let times = self.self_times();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"reported\":{{"
        );
        for (i, (name, value)) in reported.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{value}");
        }
        out.push_str("},\"spans\":[\n");
        for (i, (s, t)) in self.spans.iter().zip(&times).enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{t},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start, s.end, s.id
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Length of the union of `intervals` clipped to `[start, end)`.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::default();
        let root = t.push(span("pass", 0, 100, None));
        // Two overlapping children cover [10, 60): 50 ns.
        t.push(span("site", 10, 40, Some(root)));
        t.push(span("site", 30, 60, Some(root)));
        assert_eq!(t.self_times(), vec![50, 30, 30]);
    }

    #[test]
    fn unattributed_share_is_unit_self_time() {
        let mut t = Trace::default();
        let site = t.push(span("site", 0, 100, None));
        t.push(span("csp.segment", 0, 60, Some(site)));
        t.push(span("prob.segment", 60, 90, Some(site)));
        // 10 ns of glue out of 100.
        assert!((t.unattributed_frac() - 0.1).abs() < 1e-12);
        assert_eq!(t.self_times(), vec![10, 60, 30]);
    }

    #[test]
    fn buffers_rebase_onto_the_trace() {
        let origin = Instant::now();
        let mut t = Trace::default();
        let pass = t.push(span("pass", 0, 1_000_000_000, None));
        let mut buf = SpanBuf::new(origin, true, 7);
        let unit = buf.open("site", None);
        buf.time("csp.segment", Some(unit), || ());
        buf.close(unit);
        t.absorb(buf, Some(pass));
        assert_eq!(t.spans[1].name, "site");
        assert_eq!(t.spans[1].parent, Some(pass));
        assert_eq!(t.spans[2].parent, Some(1));
        assert_eq!(t.spans[2].id, 7);
    }

    #[test]
    fn disabled_buffers_record_nothing() {
        let mut buf = SpanBuf::new(Instant::now(), false, 0);
        assert_eq!(buf.time("csp.segment", None, || 5), 5);
        let unit = buf.open("site", None);
        buf.close(unit);
        let mut t = Trace::default();
        t.absorb(buf, None);
        assert!(t.spans.is_empty());
    }
}
