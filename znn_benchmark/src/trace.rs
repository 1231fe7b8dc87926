//! The span recorder of the traced run.
//!
//! Spans are recorded from this crate's files around calls into each
//! layer's public functions, kept in memory, and written out when the
//! run ends. A layer's *self time* is its span minus the spans it
//! directly caused. Everything is recorded from one thread (the driver
//! or the replay), so parents are a simple stack.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one operation share this identifier.
    pub op: u32,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<u32>>,
    op: Cell<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    /// Starts a new operation: later spans carry the returned id.
    pub fn next_op(&self) -> u32 {
        self.op.set(self.op.get() + 1);
        self.op.get()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (just runs it when tracing
    /// is off, so traced and untraced ops share one code path).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.stack.borrow().last().copied(),
                op: self.op.get(),
            });
            (spans.len() - 1) as u32
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx as usize].end_ns = self.now_ns();
        out
    }

    /// Records a span whose ends were observed separately (a request
    /// between `submit` and its fulfilment overlaps other requests, so
    /// it cannot be a scope).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, op: u32) {
        if self.enabled {
            let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.borrow_mut().push(Span {
                name,
                start_ns: at(start),
                end_ns: at(end),
                parent: None,
                op,
            });
        }
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Self time in ms by span name, one vector entry per operation
    /// that has spans (in op order).
    pub fn self_ms_per_op(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut per_op: BTreeMap<(u32, &'static str), f64> = BTreeMap::new();
        for (s, &children) in spans.iter().zip(&child_ns) {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(children);
            *per_op.entry((s.op, s.name)).or_default() += self_ns as f64 / 1e6;
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((_, name), ms) in per_op {
            by_name.entry(name).or_default().push(ms);
        }
        by_name
    }

    /// The first operation that has a span named `name`.
    pub fn first_op_with(&self, name: &str) -> Option<u32> {
        self.spans
            .borrow()
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.op)
    }

    /// Number of spans named `name` in operation `op`.
    pub fn count_in_op(&self, name: &str, op: u32) -> usize {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.op == op && s.name == name)
            .count()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}
