//! Spans recorded by the benchmark's own code around its calls into each
//! layer, and the self-time arithmetic over them.
//!
//! Every thread records into its own [`SpanBuf`] (no lock, no allocation
//! beyond the vector's growth) against one shared [`Clock`]; the buffers
//! are merged when the measured phase ends. Spans of one request share
//! `req`; `parent` names the span of the same request that caused this
//! one (names are unique within a request).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The process-wide time origin all spans are measured from.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One thread's span log.
pub struct SpanBuf {
    clock: Clock,
    pub spans: Vec<Span>,
}

impl SpanBuf {
    pub fn new(clock: Clock) -> Self {
        SpanBuf {
            clock,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Records a span whose ends were stamped elsewhere (e.g. inside a
    /// closure that ran on a scheduler worker).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.push(name, parent, req, start, end);
        out
    }
}

/// Per span name: the duration and the self time (duration minus the part
/// of the interval its child spans cover) of every occurrence, in ns.
#[derive(Default)]
pub struct SpanTimes {
    pub total: BTreeMap<&'static str, Vec<f64>>,
    pub own: BTreeMap<&'static str, Vec<f64>>,
}

impl SpanTimes {
    pub fn total_of(&self, name: &str) -> &[f64] {
        self.total.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn own_of(&self, name: &str) -> &[f64] {
        self.own.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn own_sum(&self, name: &str) -> f64 {
        self.own_of(name).iter().sum()
    }

    pub fn total_sum(&self, name: &str) -> f64 {
        self.total_of(name).iter().sum()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut sum, mut reach) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            sum += e - s;
            reach = e;
        }
    }
    sum
}

/// Groups `spans` by request and computes every span's self time.
pub fn span_times(spans: &mut [Span]) -> SpanTimes {
    spans.sort_by_key(|s| s.req);
    let mut out = SpanTimes::default();
    for group in spans.chunk_by(|a, b| a.req == b.req) {
        for span in group {
            let mut children: Vec<(u64, u64)> = group
                .iter()
                .filter(|c| c.parent == Some(span.name))
                .map(|c| (c.start_ns, c.end_ns))
                .collect();
            let own = span.duration_ns() - covered(&mut children, span.start_ns, span.end_ns);
            out.total
                .entry(span.name)
                .or_default()
                .push(span.duration_ns() as f64);
            out.own.entry(span.name).or_default().push(own as f64);
        }
    }
    out
}

/// Writes the spans as JSON lines (`--trace-out`).
pub fn write_jsonl(path: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".into(), |p| format!("\"{p}\""));
        writeln!(
            w,
            "{{\"req\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        parent: Option<&'static str>,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            name,
            parent,
            req,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_per_level() {
        let mut spans = vec![
            span("request", None, 1, 0, 100),
            span("encode", Some("request"), 1, 0, 10),
            span("frame_io", Some("request"), 1, 10, 90),
            span("handle", Some("frame_io"), 1, 20, 80),
            span("solve", Some("handle"), 1, 30, 70),
        ];
        let t = span_times(&mut spans);
        assert_eq!(t.own_of("request"), [10.0]); // 100 − (10 + 80)
        assert_eq!(t.own_of("frame_io"), [20.0]); // 80 − 60
        assert_eq!(t.own_of("handle"), [20.0]); // 60 − 40
        assert_eq!(t.own_of("solve"), [40.0]);
        assert_eq!(t.total_of("handle"), [60.0]);
        // Own times of a request's spans sum to its root span.
        let sum: f64 = ["request", "encode", "frame_io", "handle", "solve"]
            .iter()
            .map(|n| t.own_sum(n))
            .sum();
        assert_eq!(sum, 100.0);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let mut spans = vec![
            span("root", None, 7, 100, 200),
            span("a", Some("root"), 7, 90, 150), // starts before the parent
            span("b", Some("root"), 7, 140, 180), // overlaps a
            span("c", Some("root"), 7, 190, 250), // ends after the parent
        ];
        let t = span_times(&mut spans);
        assert_eq!(t.own_of("root"), [10.0]); // uncovered: 180..190
    }

    #[test]
    fn requests_do_not_share_children() {
        let mut spans = vec![
            span("root", None, 2, 0, 50),
            span("root", None, 1, 0, 40),
            span("child", Some("root"), 1, 0, 30),
        ];
        let t = span_times(&mut spans);
        assert_eq!(t.own_of("root"), [10.0, 50.0]); // sorted by request id
        assert!(t.own_of("missing").is_empty());
    }

    #[test]
    fn recorder_nests_and_orders_time() {
        let mut buf = SpanBuf::new(Clock::start());
        let v = buf.span("outer", None, 3, || 42);
        assert_eq!(v, 42);
        buf.push("stamped", Some("outer"), 3, 9, 5); // clamps a reversed pair
        assert_eq!(buf.spans[1].duration_ns(), 0);
        assert!(buf.spans[0].end_ns >= buf.spans[0].start_ns);
    }
}
