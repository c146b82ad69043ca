//! In-memory span tracer for the traced runs.
//!
//! Each load thread owns one [`Tracer`]. A span records its name, the id of
//! the request it belongs to (a fleet session's pool tag, a churn worker
//! index, an explorer seed), its start and end, and its parent. Self time —
//! a span's duration minus the time its children cover — is accumulated per
//! span name as spans close, so the per-layer numbers are exact even after
//! the raw span buffer reaches its cap. Raw spans are written out once, when
//! the run ends ([`write_spans`]).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Raw spans kept per tracer; aggregates keep counting past the cap.
const SPAN_CAP: usize = 50_000;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span name (a layer boundary, e.g. `verifier.verify`).
    pub name: &'static str,
    /// Request id shared by the spans of one request.
    pub id: u64,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the parent span in the same tracer, if recorded.
    pub parent: Option<u32>,
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time (duration minus children).
    pub self_ns: u64,
}

impl Agg {
    /// Mean self time per span, in microseconds (0 when no span closed).
    pub fn self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    /// Slot reserved in `spans` when the span opened (so children can name
    /// their parent before it closes).
    slot: Option<u32>,
}

/// A single-thread span recorder (the default counts from its creation).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    aggs: BTreeMap<&'static str, Agg>,
    counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (share one epoch across
    /// the tracers of a run so their spans line up).
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            aggs: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        let start_ns = self.now_ns();
        let parent = self.stack.last().and_then(|open| open.slot);
        let slot = if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                name,
                id,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            Some((self.spans.len() - 1) as u32)
        } else {
            self.dropped += 1;
            None
        };
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            slot,
        });
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open (a bug in the rig's enter/exit pairing).
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit matches an enter");
        let duration = end_ns.saturating_sub(open.start_ns);
        if let Some(slot) = open.slot {
            self.spans[slot as usize].end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
        }
        let agg = self.aggs.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += duration;
        agg.self_ns += duration.saturating_sub(open.child_ns);
    }

    /// Runs `f` inside a leaf span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, id);
        let out = f();
        self.exit();
        out
    }

    /// Adds `by` to the named counter.
    pub fn count(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_default() += by;
    }

    /// Raises the named counter to `value` if it is higher.
    pub fn max(&mut self, name: &'static str, value: u64) {
        let slot = self.counters.entry(name).or_default();
        *slot = (*slot).max(value);
    }

    /// Totals for one span name.
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    /// Every span name's totals.
    pub fn aggs(&self) -> &BTreeMap<&'static str, Agg> {
        &self.aggs
    }

    /// A counter's value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Folds `other` into `self`: span totals and additive counters are
    /// summed, counters whose name ends in `_max` take the maximum. Raw
    /// spans stay with the tracer that recorded them.
    pub fn absorb_totals(&mut self, other: &Tracer) {
        for (name, agg) in &other.aggs {
            let mine = self.aggs.entry(name).or_default();
            mine.count += agg.count;
            mine.total_ns += agg.total_ns;
            mine.self_ns += agg.self_ns;
        }
        for (name, value) in &other.counters {
            let mine = self.counters.entry(name).or_default();
            if name.ends_with("_max") {
                *mine = (*mine).max(*value);
            } else {
                *mine += value;
            }
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new(Instant::now())
    }
}

/// Writes the raw spans of `tracers` (one per load thread, numbered in
/// order) as tab-separated lines to `path`, creating its directory.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_spans(path: &std::path::Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\tindex\tname\tid\tstart_ns\tend_ns\tparent")?;
    for (thread, tracer) in tracers.iter().enumerate() {
        for (index, span) in tracer.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{thread}\t{index}\t{}\t{}\t{}\t{}\t{parent}",
                span.name, span.id, span.start_ns, span.end_ns
            )?;
        }
        if tracer.dropped > 0 {
            writeln!(
                out,
                "# thread {thread}: {} spans past the cap not kept",
                tracer.dropped
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(Instant::now());
        tracer.enter("outer", 1);
        tracer.span("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.exit();
        let outer = tracer.agg("outer");
        let inner = tracer.agg("inner");
        assert_eq!(outer.count, 1);
        assert!(inner.self_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(tracer.spans[1].parent, Some(0));
    }
}
