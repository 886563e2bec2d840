//! In-memory spans for the traced run.
//!
//! Spans are recorded by the harness around the calls into each layer's
//! public functions (spans inside the crates are a later change). They live
//! in a pre-sized buffer — recording never allocates — and are written to
//! `results/trace_<workload>.json` when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Parent id of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `core.rank`.
    pub name: &'static str,
    /// Index of the span that caused this one ([`NO_PARENT`] for none).
    pub parent: u32,
    /// The decision (or burst's first decision) the span belongs to.
    pub decision: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Run `f` and return its result with the instants just before and after.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Instant, Instant) {
    let start = Instant::now();
    let value = f();
    (value, start, Instant::now())
}

/// Nanoseconds between two instants of [`timed`].
pub fn nanos(start: Instant, end: Instant) -> u64 {
    end.duration_since(start).as_nanos() as u64
}

/// The span buffer of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
}

impl Tracer {
    /// A tracer whose buffer holds `capacity` spans; spans beyond that are
    /// counted as dropped instead of growing the buffer mid-measurement.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its id for use as a parent
    /// ([`NO_PARENT`] when the buffer is full).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        decision: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if self.spans.len() == self.capacity {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            parent,
            decision,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        });
        (self.spans.len() - 1) as u32
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, decision: u32) -> u32 {
        let now = Instant::now();
        self.push(name, parent, decision, now, now)
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: u32) {
        let end = self.offset(Instant::now());
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end;
        }
    }

    /// Every recorded span, in recording order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit the buffer.
    #[cfg(test)]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// For every parent that has children called `name`: the mean self time
    /// (µs) of those children — e.g. stage-one time per decision of each
    /// `schedule*` call, whether the call decided one request or thirty-two.
    pub fn mean_self_time_by_parent_us(&self, name: &str) -> Vec<f64> {
        let mut by_parent: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for (self_ns, span) in self_times_ns(&self.spans).into_iter().zip(&self.spans) {
            if span.name == name {
                let entry = by_parent.entry(span.parent).or_default();
                *entry = (entry.0 + self_ns, entry.1 + 1);
            }
        }
        by_parent
            .values()
            .map(|&(total_ns, count)| total_ns as f64 / count as f64 / 1e3)
            .collect()
    }

    /// Total duration (ns) of the direct children of spans called `parent_name`.
    pub fn children_total_ns(&self, parent_name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|span| {
                self.spans
                    .get(span.parent as usize)
                    .is_some_and(|parent| parent.name == parent_name)
            })
            .map(Span::duration_ns)
            .sum()
    }

    /// Render the first `limit` spans as JSON (`name`, `parent`, `decision`,
    /// `start_ns`, `end_ns`; `parent` is `null` for top-level spans).
    pub fn to_json(&self, limit: usize) -> String {
        let mut out = String::from("{\"dropped\":");
        let _ = write!(
            out,
            "{},\"recorded\":{},\"spans\":[",
            self.dropped,
            self.spans.len()
        );
        for (i, span) in self.spans.iter().take(limit).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if span.parent == NO_PARENT {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"decision\":{},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.decision, span.start_ns, span.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A span's self time: its duration minus its direct children's durations
/// (saturating at 0), index-aligned with `spans`.
///
/// Children here are *attributed*, not necessarily nested in time: where a
/// public call cannot be opened up from outside (`rank_feasible_batch_into`,
/// `with_scratch`), the harness re-runs the call's public building blocks on
/// the same inputs and records them as children of the call they explain.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut self_times: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = self_times.get_mut(span.parent as usize) {
            *parent = parent.saturating_sub(span.duration_ns());
        }
    }
    self_times
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            decision: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("root", NO_PARENT, 0, 1_000),
            span("rank", 0, 100, 700),
            span("features", 1, 100, 250),
            span("predict", 1, 250, 600),
            span("manifest", 0, 700, 900),
        ];
        // root: 1000 − (600 + 200); rank: 600 − (150 + 350); leaves keep theirs.
        assert_eq!(self_times_ns(&spans), vec![200, 100, 150, 350, 200]);
    }

    #[test]
    fn self_times_are_averaged_per_parent() {
        let mut tracer = Tracer::with_capacity(8);
        tracer.spans.extend([
            span("burst", NO_PARENT, 0, 10_000),
            span("rank", 0, 0, 6_000),
            span("predict", 1, 0, 1_000),
            span("rank", 0, 6_000, 8_000),
            span("burst", NO_PARENT, 10_000, 20_000),
            span("rank", 4, 10_000, 13_000),
        ]);
        // Burst 0: ranks with self times 5 µs and 2 µs; burst 1: one of 3 µs.
        assert_eq!(tracer.mean_self_time_by_parent_us("rank"), vec![3.5, 3.0]);
        assert!(tracer.mean_self_time_by_parent_us("absent").is_empty());
    }

    #[test]
    fn attributed_children_longer_than_the_parent_saturate_at_zero() {
        let spans = [
            span("rank", NO_PARENT, 0, 100),
            span("features", 0, 200, 290),
            span("predict", 0, 300, 330),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 90, 30]);
    }

    #[test]
    fn a_full_buffer_drops_instead_of_growing() {
        let mut tracer = Tracer::with_capacity(2);
        let (_, a, b) = timed(|| ());
        assert_eq!(tracer.push("x", NO_PARENT, 0, a, b), 0);
        let root = tracer.open("y", 0, 1);
        tracer.close(root);
        assert_eq!(tracer.push("z", NO_PARENT, 2, a, b), NO_PARENT);
        assert_eq!(tracer.spans().len(), 2);
        assert_eq!(tracer.dropped(), 1);
        assert_eq!(
            tracer.children_total_ns("x"),
            tracer.spans()[1].duration_ns()
        );
        assert!(tracer
            .to_json(10)
            .contains("\"name\":\"y\",\"parent\":0,\"decision\":1"));
    }
}
