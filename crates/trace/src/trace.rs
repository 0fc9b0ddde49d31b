//! The merged, post-run view of a tracer's events.

use std::collections::BTreeMap;

use crate::event::{is_schedule_dependent, EventKind, TraceEvent};

/// A merged trace: all lanes' events, sorted by `(t_ns, lane, seq)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// The events, in stable merged order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events in `cat`.
    pub fn count(&self, cat: &str) -> usize {
        self.events.iter().filter(|e| e.cat == cat).count()
    }

    /// Event count per category, excluding schedule-dependent categories.
    ///
    /// For a fixed seed and design this map is identical at any thread
    /// count — the determinism invariant the proptests pin down.
    pub fn deterministic_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for e in &self.events {
            if !is_schedule_dependent(e.cat) {
                *out.entry(e.cat).or_insert(0) += 1;
            }
        }
        out
    }

    /// `(spans, instants, counters)` tallies over the whole trace.
    pub fn kind_counts(&self) -> (usize, usize, usize) {
        let mut spans = 0;
        let mut instants = 0;
        let mut counters = 0;
        for e in &self.events {
            match e.kind {
                EventKind::Span { .. } => spans += 1,
                EventKind::Instant => instants += 1,
                EventKind::Counter { .. } => counters += 1,
            }
        }
        (spans, instants, counters)
    }

    /// Sum of span durations in `cat`, in nanoseconds.
    pub fn total_span_ns(&self, cat: &str) -> u64 {
        self.events
            .iter()
            .filter(|e| e.cat == cat)
            .filter_map(TraceEvent::dur_ns)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{category, ArgValue, EventName};

    fn ev(cat: &'static str, t_ns: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            cat,
            name: EventName::from("e"),
            t_ns,
            lane: 0,
            seq: t_ns,
            kind,
            args: vec![("k", ArgValue::U64(1))],
        }
    }

    #[test]
    fn counts_and_sums() {
        let trace = Trace {
            events: vec![
                ev(category::POOL, 0, EventKind::Span { dur_ns: 10 }),
                ev(category::POOL, 5, EventKind::Span { dur_ns: 20 }),
                ev(category::SCHED, 6, EventKind::Instant),
                ev(category::CAMPAIGN, 7, EventKind::Counter { value: 3.0 }),
            ],
        };
        assert_eq!(trace.len(), 4);
        assert!(!trace.is_empty());
        assert_eq!(trace.count(category::POOL), 2);
        assert_eq!(trace.total_span_ns(category::POOL), 30);
        assert_eq!(trace.kind_counts(), (2, 1, 1));
        let det = trace.deterministic_counts();
        assert!(!det.contains_key(category::SCHED));
        assert_eq!(det.len(), 2);
        assert_eq!(det[category::POOL], 2);
        assert_eq!(trace.events[0].arg("k"), Some(&ArgValue::U64(1)));
        assert_eq!(trace.events[0].arg("missing"), None);
    }
}
