//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call it
//! makes into a layer, kept in memory, and summarised (count, total and
//! self time per name) when the run ends. With recording off, `begin` and
//! `end` do nothing but return.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    /// The round or deployment the span belongs to (spans of one unit of
    /// work share it).
    unit: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Handle returned by [`Spans::begin`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    unit: u64,
}

/// Per-name aggregate of the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
}

impl Spans {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            unit: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off (for alternating traced and untraced
    /// iterations inside one traced run).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tags subsequent spans with the unit of work `unit`.
    pub fn set_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            unit: self.unit,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Spans::begin`].
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.now_ns();
            self.stack.retain(|&i| i != idx);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Distinct units of work the spans cover.
    pub fn units(&self) -> usize {
        let mut u: Vec<u64> = self.spans.iter().map(|s| s.unit).collect();
        u.dedup();
        u.len()
    }

    /// Count, total and self time per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let d = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += d;
            e.self_ns += d.saturating_sub(child_ns[i]);
        }
        out
    }
}
