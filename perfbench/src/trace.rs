//! In-memory spans recorded by the benchmark around its calls into the
//! engine's public functions.
//!
//! Every operation has one root span (`op.*`); each call into a layer is a
//! child span named `<layer>.<call>`, where the layer is one of the
//! repository's crates. A span's self time is its wall time minus the part
//! of it that its children cover, so a root's self time is the operation's
//! unattributed remainder: time spent between layer calls.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval.
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects the spans of one client thread.
pub struct Tracer {
    epoch: Instant,
    op_base: u64,
    next_op: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// `client` keeps operation ids unique when several tracers merge.
    pub fn new(epoch: Instant, client: u64) -> Tracer {
        Tracer {
            epoch,
            op_base: client << 40,
            next_op: 0,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record the root span of a new operation; returns its index.
    pub fn root(&mut self, name: &'static str, start: Instant, end: Instant) -> usize {
        self.next_op += 1;
        let op = self.op_base | self.next_op;
        self.push(name, op, None, self.ns(start), self.ns(end))
    }

    /// Record a child of span `parent`; returns its index.
    pub fn child(
        &mut self,
        parent: usize,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (s, e) = (self.ns(start), self.ns(end));
        self.child_ns(parent, name, s, e)
    }

    /// [`Tracer::child`] with explicit nanosecond offsets (for phases the
    /// engine reports as durations).
    pub fn child_ns(
        &mut self,
        parent: usize,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let op = self.spans[parent].op;
        self.push(name, op, Some(parent), start_ns, end_ns)
    }

    pub fn start_ns(&self, span: usize) -> u64 {
        self.spans[span].start_ns
    }

    fn push(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }
}

/// Totals for one span name.
#[derive(Default, Clone, Copy)]
pub struct NameTotals {
    pub count: u64,
    pub wall_ns: u64,
    pub self_ns: u64,
}

/// Self-time attribution over a set of spans.
pub struct Attribution {
    pub by_name: BTreeMap<&'static str, NameTotals>,
    /// Children that stick out of their parent, or whose self time exceeds
    /// the parent's wall time.
    pub violations: u64,
}

impl Attribution {
    /// Self time of every span whose name starts with `<layer>.`, in µs
    /// per root operation.
    pub fn layer_self_us_per_op(&self, layer: &str) -> f64 {
        let roots = self.roots();
        let prefix = format!("{layer}.");
        let ns: u64 = self
            .by_name
            .iter()
            .filter(|(n, _)| n.starts_with(&prefix))
            .map(|(_, t)| t.self_ns)
            .sum();
        crate::stats::ratio(ns as f64 / 1e3, roots as f64)
    }

    pub fn roots(&self) -> u64 {
        self.by_name
            .iter()
            .filter(|(n, _)| n.starts_with("op."))
            .map(|(_, t)| t.count)
            .sum()
    }

    /// Print one line per span name and one per layer.
    pub fn print(&self) {
        let roots = self.roots().max(1) as f64;
        println!("  span                          count    wall ms    self ms  self us/op");
        for (name, t) in &self.by_name {
            println!(
                "  {:<28} {:>6} {:>10.3} {:>10.3} {:>11.2}",
                name,
                t.count,
                t.wall_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                t.self_ns as f64 / 1e3 / roots
            );
        }
        let mut layers: Vec<&str> = self
            .by_name
            .keys()
            .map(|n| n.split('.').next().unwrap_or(n))
            .collect();
        layers.dedup();
        for layer in layers {
            let label = if layer == "op" {
                "unattributed (op self)"
            } else {
                layer
            };
            println!(
                "  layer self time {:<24} {:>10.2} us/op",
                label,
                self.layer_self_us_per_op(layer)
            );
        }
        println!("  trace sanity violations: {}", self.violations);
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur_end) = (0u64, lo);
    for (s, e) in intervals {
        let (s, e) = (s.clamp(lo, hi).max(cur_end), e.clamp(lo, hi));
        if e > s {
            total += e - s;
            cur_end = e;
        }
    }
    total
}

/// Compute self times and check that children nest inside their parents.
pub fn attribute(spans: &[Span]) -> Attribution {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let self_ns: Vec<u64> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let kids = children[i]
                .iter()
                .map(|&c| (spans[c].start_ns, spans[c].end_ns))
                .collect();
            s.wall_ns() - covered_ns(kids, s.start_ns, s.end_ns)
        })
        .collect();
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    let mut violations = 0;
    for (i, s) in spans.iter().enumerate() {
        let t = by_name.entry(s.name).or_default();
        t.count += 1;
        t.wall_ns += s.wall_ns();
        t.self_ns += self_ns[i];
        if let Some(p) = s.parent {
            let parent = &spans[p];
            if s.start_ns < parent.start_ns
                || s.end_ns > parent.end_ns
                || self_ns[i] > parent.wall_ns()
            {
                violations += 1;
            }
        }
    }
    Attribution {
        by_name,
        violations,
    }
}

/// Write every span as one JSON object per line.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.op, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Concatenate the spans of several tracers, rebasing parent indices.
pub fn merge(tracers: Vec<Tracer>) -> Vec<Span> {
    let mut all = Vec::new();
    for t in tracers {
        let base = all.len();
        all.extend(t.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}
