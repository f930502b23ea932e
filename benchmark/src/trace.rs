//! Spans recorded from the benchmark's own code around calls into each
//! layer's public functions. Kept in memory, written out when the run
//! ends. In-program tracing is a later issue; nothing here reaches into
//! the crates.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Shared by every span of one example or request.
    pub id: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over a finished trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_s: f64,
    /// Duration minus the part of the interval child spans cover.
    pub self_s: f64,
}

/// A single-threaded span recorder: `begin` pushes onto a stack, so the
/// span open at that moment is the parent.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, id: u64) {
        let start_ns = self.now_ns();
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("end without begin") as usize;
        self.spans[index].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, id);
        let out = f();
        self.end();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals(&self.spans)
    }

    /// Durations of every span called `name`, seconds, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Writes `{"workload":..,"spans":[{"name","id","parent","start_ns","end_ns"},..]}`.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"workload\":\"{workload}\",\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                "{}\n{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.id,
                s.start_ns,
                s.end_ns
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

/// Seconds one `begin`/`end` pair costs, measured on the spot through an
/// uncontended mutex, as the workloads record them. The cost of tracing a
/// pass is its span count times this; comparing a traced pass with an
/// untraced one instead measured the box's run-to-run noise (±10 %), not
/// the spans (under 1 %).
pub fn span_cost_s() -> f64 {
    const PAIRS: u64 = 50_000;
    let tracer = std::sync::Mutex::new(Tracer::default());
    let t0 = Instant::now();
    for id in 0..PAIRS {
        tracer.lock().expect("tracer lock").begin("probe", id);
        tracer.lock().expect("tracer lock").end();
    }
    t0.elapsed().as_secs_f64() / PAIRS as f64
}

/// Self time per span is its duration minus the union of its children's
/// intervals clipped to it (children may be adjacent, nested deeper, or —
/// for replayed stages — lie outside the parent and cover nothing).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut covered = vec![0u64; spans.len()];
    // Children are recorded after their parent and in start order, so one
    // forward pass with a per-parent high-water mark merges overlaps.
    let mut reach = vec![0u64; spans.len()];
    for s in spans {
        let Some(p) = s.parent else { continue };
        let parent = &spans[p as usize];
        let lo = s.start_ns.clamp(parent.start_ns, parent.end_ns);
        let hi = s.end_ns.clamp(parent.start_ns, parent.end_ns);
        let lo = lo.max(reach[p as usize]);
        if hi > lo {
            covered[p as usize] += hi - lo;
            reach[p as usize] = hi;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, &c) in spans.iter().zip(&covered) {
        let t = out.entry(s.name).or_default();
        let dur = s.end_ns - s.start_ns;
        t.count += 1;
        t.total_s += dur as f64 * 1e-9;
        t.self_s += (dur - c.min(dur)) as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span("example", None, 0, 100),
            span("forward", Some(0), 10, 60),
            span("select", Some(1), 20, 40),
            span("hash", Some(2), 20, 25),
            span("probe", Some(2), 25, 40),    // adjacent to hash
            span("backward", Some(0), 60, 95), // adjacent to forward
        ];
        let t = totals(&spans);
        let ns = |name: &str| (t[name].self_s * 1e9).round() as u64;
        assert_eq!(ns("example"), 100 - 50 - 35);
        assert_eq!(ns("forward"), 50 - 20);
        assert_eq!(ns("select"), 0);
        assert_eq!(ns("hash") + ns("probe"), 20);
        assert_eq!(ns("backward"), 35);
        let sum: u64 = t.keys().map(|k| ns(k)).sum();
        assert_eq!(sum, 100, "self times partition the root");
    }

    #[test]
    fn overlapping_and_outside_children_are_not_double_counted() {
        let spans = [
            span("request", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 40, 70),      // overlaps a by 10
            span("late", Some(0), 200, 300), // replayed after the parent ended
        ];
        let t = totals(&spans);
        assert_eq!((t["request"].self_s * 1e9).round() as u64, 100 - 60);
        assert_eq!(t["late"].count, 1);
    }

    #[test]
    fn tracer_parents_follow_the_open_stack() {
        let mut tr = Tracer::default();
        tr.begin("outer", 7);
        tr.span("inner", 7, || ());
        tr.span("inner", 7, || ());
        tr.end();
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[0].end_ns >= s[2].end_ns);
        assert_eq!(tr.totals()["inner"].count, 2);
        assert_eq!(tr.durations("inner").len(), 2);
        let cost = span_cost_s();
        assert!(cost > 0.0 && cost < 1e-4, "one span costs {cost}s");
    }
}
