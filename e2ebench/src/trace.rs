//! In-memory spans for the traced run.
//!
//! The benchmark records one span around every public call it makes into a
//! layer, keeps the spans in memory, and derives per-layer times from them
//! after the run. Spans inside the library are out of scope: every span here
//! wraps a call made from the benchmark's own files, except the per-stage
//! spans, which come from the benchmark's [`StageClock`] observer that the
//! stage executor calls around each stage.
//!
//! Two kinds of span exist. An *interval* is one call: its busy time is
//! `end - start`. An *aggregate* stands for many short calls made inside one
//! parent interval (per-line decoding inside one framer chunk): its busy time
//! is the sum of the calls, because recording millions of line-level spans
//! would cost more than the calls themselves.
//!
//! A span's *self time* is its busy time minus the part of it its children
//! cover. Interval children are merged as a union, so stages that run
//! concurrently in one wave are counted once; aggregate children are disjoint
//! calls on the parent's thread and are summed.

use coanalysis::{StageId, StageObserver};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Whether a span is one call or the sum of many.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One call from `start` to `end`.
    Interval,
    /// Many calls inside `[start, end]`, summed into `busy_ns`.
    Aggregate,
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `parse_ras` or `stage.fda`.
    pub name: String,
    /// Index of the enclosing span; `None` for a root (one operation).
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace began.
    pub end_ns: u64,
    /// Time inside the layer (see [`SpanKind`]).
    pub busy_ns: u64,
    /// Interval or aggregate.
    pub kind: SpanKind,
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&mut self, span: Span) -> usize {
        if let Some(p) = span.parent {
            assert!(
                p < self.spans.len(),
                "a parent is recorded before its children"
            );
        }
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a container span now; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.ns(Instant::now());
        self.push(Span {
            name: name.to_owned(),
            parent,
            start_ns: now,
            end_ns: now,
            busy_ns: 0,
            kind: SpanKind::Interval,
        })
    }

    /// Close a span opened with [`Trace::begin`].
    pub fn end(&mut self, id: usize) {
        let now = self.ns(Instant::now());
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = now;
            s.busy_ns = now.saturating_sub(s.start_ns);
        }
    }

    /// Record a finished call.
    pub fn interval(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(Span {
            name: name.to_owned(),
            parent,
            start_ns: s,
            end_ns: e,
            busy_ns: e.saturating_sub(s),
            kind: SpanKind::Interval,
        })
    }

    /// Record short calls made inside `parent` between `start` and `end`,
    /// which together took `busy`.
    pub fn aggregate(
        &mut self,
        name: &str,
        parent: usize,
        (start, end): (Instant, Instant),
        busy: Duration,
    ) -> usize {
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(Span {
            name: name.to_owned(),
            parent: Some(parent),
            start_ns: s,
            end_ns: e,
            busy_ns: u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX),
            kind: SpanKind::Aggregate,
        })
    }

    /// Run `f` inside an interval span.
    pub fn time<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.interval(name, parent, start, Instant::now());
        out
    }

    /// Every span, parents before children.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Trace::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut intervals: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        let mut aggregated = vec![0u64; self.spans.len()];
        for s in &self.spans {
            let Some(p) = s.parent else { continue };
            match s.kind {
                SpanKind::Interval => intervals[p].push((s.start_ns, s.end_ns)),
                SpanKind::Aggregate => aggregated[p] += s.busy_ns,
            }
        }
        self.spans
            .iter()
            .zip(intervals.iter_mut().zip(&aggregated))
            .map(|(s, (children, agg))| {
                let covered = union_within(children, s.start_ns, s.end_ns) + agg;
                s.busy_ns.saturating_sub(covered)
            })
            .collect()
    }

    /// The root (operation) each span belongs to, indexed like
    /// [`Trace::spans`].
    pub fn roots(&self) -> Vec<usize> {
        let mut roots = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            let root = s.parent.map_or(i, |p| roots[p]);
            roots.push(root);
        }
        roots
    }
}

/// Length of the union of `spans`, clipped to `[lo, hi]`.
fn union_within(spans: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    spans.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in spans.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// A [`StageObserver`] that notes when each stage started and finished.
///
/// Stages of one wave run on different threads, so the clock readings sit
/// behind a mutex; each stage runs at most once per executor call.
#[derive(Debug, Default)]
pub struct StageClock {
    slots: Mutex<[(Option<Instant>, Option<Instant>); StageId::ALL.len()]>,
}

fn slot(id: StageId) -> usize {
    StageId::ALL.iter().position(|&s| s == id).unwrap_or(0)
}

impl StageObserver for StageClock {
    fn stage_started(&self, id: StageId) {
        let now = Instant::now();
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)[slot(id)].0 = Some(now);
    }

    fn stage_finished(&self, id: StageId) {
        let now = Instant::now();
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)[slot(id)].1 = Some(now);
    }
}

impl StageClock {
    /// The stages that ran, with their start and end, in stage order.
    fn ran(&self) -> Vec<(StageId, Instant, Instant)> {
        let slots = *self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        StageId::ALL
            .iter()
            .zip(slots)
            .filter_map(|(&id, (s, e))| Some((id, s?, e?)))
            .collect()
    }

    /// Record one span per stage that ran, named `<prefix><stage-name>`,
    /// under `parent`. With `graph = Some(name)`, the stages are first
    /// wrapped in one span from the first start to the last finish — the
    /// stage-graph span of a call that runs more than the graph.
    pub fn record(&self, trace: &mut Trace, parent: usize, graph: Option<&str>, prefix: &str) {
        let ran = self.ran();
        let first = ran.iter().map(|r| r.1).min();
        let last = ran.iter().map(|r| r.2).max();
        let parent = match (graph, first, last) {
            (Some(name), Some(s), Some(e)) => trace.interval(name, Some(parent), s, e),
            _ => parent,
        };
        for (id, s, e) in ran {
            trace.interval(&format!("{prefix}{}", id.name()), Some(parent), s, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children_and_aggregates() {
        let mut t = Trace::new();
        let base = t.origin;
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.interval("op", None, at(0), at(100));
        let graph = t.interval("graph", Some(root), at(10), at(60));
        // Two concurrent children overlapping on [30, 40].
        t.interval("a", Some(graph), at(20), at(40));
        t.interval("b", Some(graph), at(30), at(50));
        let feed = t.interval("framer", Some(root), at(70), at(90));
        t.aggregate("decode", feed, (at(70), at(90)), Duration::from_millis(5));
        let own = t.self_ns();
        let ms = |ns: u64| ns / 1_000_000;
        assert_eq!(ms(own[root]), 100 - 50 - 20);
        assert_eq!(ms(own[graph]), 50 - 30);
        assert_eq!(ms(own[feed]), 20 - 5);
        assert_eq!(t.roots(), vec![0, 0, 0, 0, 0, 0]);
    }
}
