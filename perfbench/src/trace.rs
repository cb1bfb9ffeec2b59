//! Spans recorded from the benchmark's own code around each call into
//! the program, kept in memory and written out when the run ends.
//!
//! Every op is one root span (`op.*`); the calls it makes into the
//! program's layers are its children. A span's self time is its
//! duration minus the part its children cover, so a root's self time is
//! the benchmark's own glue between calls.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one op share `op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub op: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// True when the two intervals share any instant.
    pub fn overlaps(&self, other: &Span) -> bool {
        self.start_ns < other.end_ns && other.start_ns < self.end_ns
    }
}

/// Span id of every op's root.
pub const ROOT: u32 = 1;

/// A per-client span recorder. In a tracing run it traces every other op,
/// so the untraced half measures the same traffic on the same state at
/// the same time, for the tracing overhead; flushes are always traced.
/// Untraced ops cost one branch per call and record nothing.
#[derive(Debug)]
pub struct Recorder {
    tracing: bool,
    enabled: bool,
    epoch: Instant,
    client: u64,
    next_op: u64,
    next_id: u32,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(tracing: bool, epoch: Instant, client: u64) -> Self {
        Self { tracing, enabled: false, epoch, client, next_op: 0, next_id: 0, spans: Vec::new() }
    }

    /// True when the current op is traced.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the run's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new op, traced when `always` or on every other call;
    /// returns its id, unique across clients. The op's root span has id
    /// [`ROOT`]; children are numbered after it.
    pub fn begin_op(&mut self, always: bool) -> u64 {
        self.next_op += 1;
        self.next_id = ROOT;
        self.enabled = self.tracing && (always || self.next_op.is_multiple_of(2));
        (self.client << 40) | self.next_op
    }

    /// Records the op's root span once the op has finished.
    pub fn root(&mut self, op: u64, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span { op, id: ROOT, parent: None, name, start_ns, end_ns });
        }
    }

    /// Runs `f` inside a child span of the op's root when tracing is on.
    pub fn child<T>(&mut self, op: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.next_id += 1;
        self.spans.push(Span {
            op,
            id: self.next_id,
            parent: Some(ROOT),
            name,
            start_ns: start,
            end_ns: end,
        });
        out
    }
}

/// How well one op type's layer time adds up to its wall time.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Reconcile {
    /// Σ self time of the layer calls. Children have no children of
    /// their own, so a call's self time is its duration.
    pub layers_ns: u64,
    /// Σ op wall time (root span durations). The difference is the
    /// roots' self time: the benchmark's glue between calls.
    pub wall_ns: u64,
    pub ops: u64,
    /// Ops whose own layer time is within the tolerance of their wall time.
    pub ops_within: u64,
}

impl Reconcile {
    pub fn ratio(&self) -> f64 {
        self.layers_ns as f64 / self.wall_ns.max(1) as f64
    }
}

/// Per op type (root span name), the layer sum against op wall time.
pub fn reconcile(spans: &[Span], tolerance: f64) -> BTreeMap<&'static str, Reconcile> {
    let mut ops: BTreeMap<u64, (Option<Span>, u64)> = BTreeMap::new();
    for s in spans {
        let e = ops.entry(s.op).or_default();
        match s.parent {
            None => e.0 = Some(*s),
            Some(_) => e.1 += s.dur_ns(),
        }
    }
    let mut out: BTreeMap<&'static str, Reconcile> = BTreeMap::new();
    for (root, layers_ns) in ops.into_values() {
        let Some(root) = root else { continue };
        let r = out.entry(root.name).or_default();
        r.layers_ns += layers_ns;
        r.wall_ns += root.dur_ns();
        r.ops += 1;
        if (layers_ns as f64 / root.dur_ns().max(1) as f64 - 1.0).abs() <= tolerance {
            r.ops_within += 1;
        }
    }
    out
}

/// Writes spans as tab-separated `op id parent name start_ns end_ns`.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "op\tid\tparent\tname\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(out, "{}\t{}\t{}\t{}\t{}\t{}", s.op, s.id, parent, s.name, s.start_ns, s.end_ns)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u64, id: u32, parent: Option<u32>, name: &'static str, a: u64, b: u64) -> Span {
        Span { op, id, parent, name, start_ns: a, end_ns: b }
    }

    #[test]
    fn layer_time_is_the_children_and_glue_the_rest() {
        let spans = vec![
            span(1, 1, None, "op.stream", 0, 100),
            span(1, 2, Some(1), "engine.route", 2, 10),
            span(1, 3, Some(1), "engine.open", 10, 60),
            span(1, 4, Some(1), "cursor.try_next", 61, 95),
            span(2, 1, None, "op.query", 100, 150),
            span(2, 2, Some(1), "engine.try_query", 101, 149),
            span(3, 1, None, "op.query", 150, 250),
            span(3, 2, Some(1), "engine.try_query", 151, 171),
        ];
        let r = reconcile(&spans, 0.10);
        assert_eq!(
            r["op.stream"],
            Reconcile { layers_ns: 92, wall_ns: 100, ops: 1, ops_within: 1 }
        );
        // The second query spent 80% of its wall time in glue.
        assert_eq!(r["op.query"], Reconcile { layers_ns: 68, wall_ns: 150, ops: 2, ops_within: 1 });
        assert!((r["op.query"].ratio() - 68.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn tracing_runs_record_every_other_op() {
        let mut r = Recorder::new(false, Instant::now(), 0);
        let op = r.begin_op(true);
        assert_eq!(r.child(op, "engine.route", || 7), 7);
        r.root(op, "op.query", 0, 1);
        assert!(r.spans.is_empty());
        let mut on = Recorder::new(true, Instant::now(), 3);
        on.begin_op(false);
        assert!(!on.enabled(), "the first op of a tracing run is untraced");
        on.child(op, "engine.route", || ());
        assert!(on.spans.is_empty());
        let op = on.begin_op(false);
        assert!(on.enabled(), "the second is traced");
        assert_eq!(op >> 40, 3, "op ids carry the client");
        on.child(op, "engine.route", || ());
        on.child(op, "engine.open", || ());
        on.root(op, "op.stream", 0, on.now());
        assert_eq!(on.spans.len(), 3);
        assert_eq!((on.spans[0].id, on.spans[0].parent), (2, Some(ROOT)));
        assert_eq!((on.spans[1].id, on.spans[1].parent), (3, Some(ROOT)));
        assert_eq!((on.spans[2].id, on.spans[2].parent), (ROOT, None));
        on.begin_op(true);
        assert!(on.enabled(), "forced ops are traced");
    }

    #[test]
    fn overlap_is_symmetric_and_strict() {
        let a = span(1, 1, None, "x", 10, 20);
        assert!(a.overlaps(&span(2, 1, None, "y", 15, 30)));
        assert!(span(2, 1, None, "y", 15, 30).overlaps(&a));
        assert!(!a.overlaps(&span(2, 1, None, "y", 20, 30)));
    }
}
