//! Spans recorded by the benchmark around its calls into the program's
//! layers. A span has a name, a start and an end, its parent span, and
//! the id of the request it belongs to. Spans stay in memory until the
//! run ends; a layer's self time is its spans' durations minus the part
//! of each that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Span names, declared once so that call sites and the figures read
/// from spans cannot drift apart.
pub mod names {
    pub const DETECT_SERIES: &str = "core.detect_series";
    pub const DELTA: &str = "collect.delta";
    pub const MATRIX: &str = "collect.matrix";
    pub const FEATURES: &str = "core.features";
    pub const SCALE: &str = "cluster.scale";
    pub const FOLD: &str = "cluster.fold";
    pub const ALGORITHM1: &str = "core.algorithm1";
    pub const CACHE_ANALYZE: &str = "core.cache_analyze";
    pub const REQUEST: &str = "bench.request";
    pub const PUSH: &str = "serve.push";
    pub const QUERY: &str = "serve.query";
    pub const PROFILED_RUN: &str = "runtime.profiled_run";
    pub const BARE_RUN: &str = "runtime.bare_run";
}

/// Nanoseconds since the first call in this process: the clock every
/// benchmark timing reads.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    // lint: allow(D01, the benchmark measures wall time; this is its one clock)
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Seconds since `start_ns`, a [`now_ns`] reading.
pub fn secs_since(start_ns: u64) -> f64 {
    (now_ns() - start_ns) as f64 / 1e9
}

/// One recorded span. Ids are unique within a [`Tracer`]; `parent` is
/// `None` for a request's root span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span recorder. When disabled every call is a no-op, so
/// untraced and traced runs execute the same code.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            ..Tracer::default()
        }
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            request,
            name,
            start_ns: now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("end without a matching begin");
        self.spans[id].end_ns = now_ns();
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, request);
        let out = f();
        self.end();
        out
    }

    /// Move another tracer's spans into this one, renumbering ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `[start, end)` intervals clipped to
/// `[lo, hi)`. Overlapping intervals are counted once.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let s = s.max(reach);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end_ns - s.start_ns) - covered(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += own;
    }
    out
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: if parent.is_none() { "root" } else { "child" },
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Children on two threads overlap in [20, 30) and one spills
        // past the parent's end; only [10, 40) of the parent is covered.
        let spans = vec![
            span(0, None, 0, 40),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 35),
            span(3, Some(0), 33, 50),
        ];
        assert_eq!(self_times(&spans)[0], 40 - 30);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["root"], 10);
        assert_eq!(by_name["child"], 20 + 15 + 17);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 0, 50),
            span(2, Some(1), 10, 40),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn tracer_nests_and_absorbs() {
        let mut a = Tracer::new(true);
        a.span("outer", 7, || ());
        let mut b = Tracer::new(true);
        b.begin("outer", 8);
        b.span("inner", 8, || ());
        b.end();
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[2].request, 8);
        let mut off = Tracer::new(false);
        off.span("ignored", 1, || ());
        assert!(off.spans().is_empty());
    }
}
