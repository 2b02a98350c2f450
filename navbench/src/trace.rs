//! In-memory span recorder for the traced passes.
//!
//! Every call the traced pass makes into a layer is wrapped in a span:
//! name, start, end, parent span and item id. Per-name aggregates (count,
//! total and self time) cover every span; the span records themselves are
//! kept for one item in `keep_every` and written out only on request. A
//! span's self time is its duration minus the time its child spans cover.

use std::io::Write;
use std::time::Instant;

/// Span names; the index into [`NAMES`] is the span kind.
pub const ENGINE: usize = 0;
/// `QualityMonitor::observe`.
pub const QUALITY: usize = 1;
/// `ReorderBuffer::push`.
pub const REORDER_PUSH: usize = 2;
/// `ReorderBuffer::flush_into`.
pub const REORDER_FLUSH: usize = 3;
/// One released record through the pipeline's steps.
pub const PIPELINE_RECORD: usize = 4;
/// One released maintenance event (reference reset).
pub const PIPELINE_EVENT: usize = 5;
/// `FilterSpec::keep_row`.
pub const FILTER: usize = 6;
/// `Transform::push_into`.
pub const TRANSFORM: usize = 7;
/// `Detector::fit`.
pub const DETECTOR_FIT: usize = 8;
/// `Detector::score`.
pub const DETECTOR_SCORE: usize = 9;
/// `SelfTuningThreshold::observe`/`fit`/`violations`.
pub const THRESHOLD: usize = 10;
/// One evaluation cell (scoring fan-out plus its sweeps).
pub const EVAL_CELL: usize = 11;
/// One `par_map` fan-out.
pub const PAR_MAP: usize = 12;
/// One `run_vehicle` task on a worker thread.
pub const RUN_VEHICLE: usize = 13;
/// One `GridOutcome::evaluate` sweep.
pub const EVAL_SWEEP: usize = 14;

/// Printable span names, indexed by kind.
pub const NAMES: [&str; 15] = [
    "engine.item",
    "quality.observe",
    "reorder.push",
    "reorder.flush",
    "pipeline.record",
    "pipeline.event",
    "filter.keep_row",
    "transform.push_into",
    "detector.fit",
    "detector.score",
    "threshold",
    "eval.cell",
    "par_map",
    "runner.run_vehicle",
    "evaluation.sweep",
];

/// Aggregate of every span of one kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times (duration minus covered child time).
    pub self_ns: u64,
}

/// One retained span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Span kind (index into [`NAMES`]).
    pub kind: usize,
    /// Span id (unique within the tracer).
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// The stream item, vehicle or cell the span worked on.
    pub item: u64,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

#[derive(Debug)]
struct Open {
    kind: usize,
    id: u64,
    parent: u64,
    item: u64,
    start_ns: u64,
    child_ns: u64,
}

/// Single-threaded span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    stack: Vec<Open>,
    agg: [Agg; NAMES.len()],
    kept: Vec<SpanRecord>,
    keep_every: u64,
    next_id: u64,
}

impl Tracer {
    /// A tracer keeping the span records of items with
    /// `item % keep_every == 0`.
    pub fn new(keep_every: u64) -> Self {
        Tracer {
            base: Instant::now(),
            stack: Vec::with_capacity(8),
            agg: [Agg::default(); NAMES.len()],
            kept: Vec::new(),
            keep_every: keep_every.max(1),
            next_id: 1,
        }
    }

    /// Nanoseconds since the tracer was created.
    #[inline]
    pub fn now(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span of `kind` as a child of the innermost open span.
    #[inline]
    pub fn enter(&mut self, kind: usize, item: u64) {
        let parent = self.stack.last().map_or(0, |o| o.id);
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now();
        self.stack.push(Open { kind, id, parent, item, start_ns, child_ns: 0 });
    }

    /// Id of the innermost open span (0 when none is open).
    pub fn current(&self) -> u64 {
        self.stack.last().map_or(0, |o| o.id)
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        let end_ns = self.now();
        let Some(o) = self.stack.pop() else { return };
        let dur = end_ns.saturating_sub(o.start_ns);
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += dur;
        }
        let a = &mut self.agg[o.kind];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(o.child_ns);
        if o.item % self.keep_every == 0 {
            self.kept.push(SpanRecord {
                kind: o.kind,
                id: o.id,
                parent: o.parent,
                item: o.item,
                start_ns: o.start_ns,
                end_ns,
            });
        }
    }

    /// Records a span that ran on another thread under `parent`. It is
    /// concurrent with its siblings, so it is not subtracted from the
    /// parent's self time.
    pub fn record_concurrent(&mut self, kind: usize, parent: u64, item: u64, start: u64, end: u64) {
        let id = self.next_id;
        self.next_id += 1;
        let dur = end.saturating_sub(start);
        let a = &mut self.agg[kind];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur;
        self.kept.push(SpanRecord { kind, id, parent, item, start_ns: start, end_ns: end });
    }

    /// The aggregate of one span kind.
    pub fn agg(&self, kind: usize) -> Agg {
        self.agg[kind]
    }

    /// Retained span records.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.kept
    }

    /// Writes the retained spans as NDJSON, one span per line, tagged with
    /// the pass they came from.
    pub fn write_ndjson(&self, out: &mut dyn Write, pass: &str) -> std::io::Result<()> {
        for s in &self.kept {
            writeln!(
                out,
                "{{\"pass\":\"{pass}\",\"name\":\"{}\",\"id\":{},\"parent\":{},\"item\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                NAMES[s.kind], s.id, s.parent, s.item, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(1);
        t.enter(ENGINE, 0);
        t.enter(QUALITY, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit();
        t.exit();
        let (root, child) = (t.agg(ENGINE), t.agg(QUALITY));
        assert_eq!(root.total_ns, root.self_ns + child.total_ns);
        assert!(child.self_ns >= 2_000_000);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].parent, t.spans()[1].id);
    }
}
