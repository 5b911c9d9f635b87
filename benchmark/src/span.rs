//! In-memory spans around the calls the benchmark makes into a layer.
//!
//! A span records name, start, end, the span that caused it and the
//! iteration or request it belongs to. Spans stay in memory during
//! the run and are written out once, at exit. A layer's *self time*
//! is its span's duration minus the part of that interval its child
//! spans cover.

use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `ckks.mult`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Iteration or request the span belongs to.
    pub id: u64,
    /// Recording thread (0 = main, clients count from 1).
    pub thread: u16,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans on one thread. Switched off, `span` and `leaf` run
/// the closure and record nothing, so the untraced run pays one
/// branch per call.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    thread: u16,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer measuring from `epoch` (share one epoch across the
    /// threads of a run so their spans line up).
    pub fn new(epoch: Instant, on: bool, thread: u16) -> Self {
        Self {
            epoch,
            on,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(Instant::now(), false, 0)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` may open child spans on the tracer
    /// it is handed.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
            thread: self.thread,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Runs `f` inside a span that has no children.
    pub fn leaf<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        self.span(name, id, |_| f())
    }

    /// Records a finished interval that did not nest on this thread's
    /// stack — a request in flight while others were being submitted.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            id,
            thread: self.thread,
        });
    }

    /// The recorded spans, in the order they were opened.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "span left open");
        self.spans
    }
}

/// Concatenates per-thread span lists, shifting parent indices so
/// they stay valid in the merged list.
pub fn merge(threads: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::with_capacity(threads.iter().map(Vec::len).sum());
    for spans in threads {
        let base = out.len();
        out.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span in nanoseconds: duration minus the part of
/// the interval that direct children cover (children are clipped to
/// the parent and overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Writes a trace as one JSON document: run identification plus the
/// span list (`parent` is an index into the list or `null`).
pub fn write_json(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"unit\": \"ns\", \"spans\": ["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
             \"id\": {}, \"thread\": {}}}{comma}",
            s.name, s.start_ns, s.end_ns, s.id, s.thread
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // iter [0,100) holds siblings a [10,30) and b [40,70); b holds
        // c [45,55). A grandchild is not subtracted from iter twice.
        let spans = vec![
            span("iter", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("c", 45, 55, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn self_time_clips_and_dedups_overlapping_children() {
        // Children that overlap each other or poke out of the parent
        // (clock granularity) are counted once, inside the parent.
        let spans = vec![
            span("p", 10, 50, None),
            span("x", 5, 25, Some(0)),
            span("y", 20, 40, Some(0)),
            span("z", 45, 60, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 40 - (15 + 15 + 5));
    }

    #[test]
    fn tracer_nests_and_switches_off() {
        let mut t = Tracer::new(Instant::now(), true, 3);
        let v = t.span("outer", 7, |t| {
            t.leaf("inner", 7, || 1) + t.leaf("inner", 7, || 2)
        });
        assert_eq!(v, 3);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.id == 7 && s.thread == 3));
        assert!(spans[0].end_ns >= spans[2].end_ns);

        let mut off = Tracer::off();
        assert_eq!(off.span("outer", 0, |t| t.leaf("inner", 0, || 5)), 5);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn merge_keeps_parents_valid() {
        let a = vec![span("a", 0, 10, None), span("a1", 1, 2, Some(0))];
        let b = vec![span("b", 0, 10, None), span("b1", 1, 2, Some(0))];
        let m = merge(vec![a, b]);
        assert_eq!(m[3].parent, Some(2));
        assert_eq!(m[1].parent, Some(0));
    }
}
