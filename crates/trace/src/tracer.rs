//! The tracer: per-lane, lock-free append-only buffers merged post-run.
//!
//! # Design
//!
//! A [`Tracer`] is shared (by `&` reference) across workers; each worker
//! obtains a [`LocalTracer`] for its *lane* and records into a plain
//! `Vec` it owns exclusively — no atomics, no locks, no sharing on the
//! hot path. The only synchronisation is a single mutex push when a lane
//! flushes (on drop or explicitly), which happens once per worker per
//! run, not once per event.
//!
//! # Zero cost when disabled
//!
//! A disabled tracer hands out detached [`LocalTracer`]s whose every
//! method is a branch on an `Option` discriminant: no clock read, no
//! allocation, no buffer growth. [`Tracer::disabled`] is the default
//! wired through `run_indexed` and `run_campaign`, so untraced callers
//! pay one predictable branch per would-be event.
//!
//! # Determinism
//!
//! Recording never touches RNG state or sample values, so traced results
//! are bit-identical to untraced ones by construction. Event *counts* in
//! non-[`category::SCHED`](crate::event::category::SCHED) categories are
//! a pure function of seed and design; `SCHED` events (steals, worker
//! occupancy) depend on scheduling and are excluded from determinism
//! checks.

use parking_lot::Mutex;
use scibench_timer::{Clock, WallClock};

use crate::event::{ArgValue, EventKind, EventName, TraceEvent};
use crate::trace::Trace;

/// Shared trace collector. Cheap to share by reference across threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    clock: WallClock,
    sink: Mutex<Vec<Vec<TraceEvent>>>,
}

impl Tracer {
    /// An enabled tracer with its time origin at construction.
    pub fn new() -> Self {
        Self {
            enabled: true,
            clock: WallClock::new(),
            sink: Mutex::new(Vec::new()),
        }
    }

    /// A disabled tracer: every lane it hands out is a no-op.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            clock: WallClock::new(),
            sink: Mutex::new(Vec::new()),
        }
    }

    /// Whether this tracer records events.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since this tracer's origin (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        if self.enabled {
            self.clock.now_ns()
        } else {
            0
        }
    }

    /// A recording handle for `lane`. Detached (no-op) when disabled.
    pub fn lane(&self, lane: u32) -> LocalTracer<'_> {
        LocalTracer {
            parent: if self.enabled { Some(self) } else { None },
            lane,
            seq: 0,
            buf: Vec::new(),
        }
    }

    /// Merges all flushed lanes into one trace, sorted by
    /// `(t_ns, lane, seq)`. Lanes flushed after this call start a new
    /// trace; calling `drain` twice yields the remainder.
    pub fn drain(&self) -> Trace {
        let lanes = std::mem::take(&mut *self.sink.lock());
        let mut events: Vec<TraceEvent> = lanes.into_iter().flatten().collect();
        events.sort_by_key(|e| (e.t_ns, e.lane, e.seq));
        Trace { events }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// A lane handle for an optional tracer: `None` yields a detached no-op
/// lane, sparing callers an `if let` at every instrumentation site.
pub fn lane_of(tracer: Option<&Tracer>, lane: u32) -> LocalTracer<'_> {
    match tracer {
        Some(t) => t.lane(lane),
        None => LocalTracer {
            parent: None,
            lane,
            seq: 0,
            buf: Vec::new(),
        },
    }
}

/// Opaque span start token returned by [`LocalTracer::begin`].
///
/// Holding the start time in a token (rather than a guard with `Drop`)
/// keeps span recording explicit and panic-transparent: if the traced
/// section unwinds, the span is simply never recorded.
#[derive(Debug, Clone, Copy)]
pub struct SpanStart {
    t_ns: u64,
}

/// Per-worker event buffer. Not `Send`-shared: each worker owns its own.
///
/// All recording methods are no-ops (a single branch) when the lane is
/// detached. The buffer flushes to the parent tracer on drop.
#[derive(Debug)]
pub struct LocalTracer<'a> {
    parent: Option<&'a Tracer>,
    lane: u32,
    seq: u64,
    buf: Vec<TraceEvent>,
}

impl<'a> LocalTracer<'a> {
    /// A permanently detached lane (records nothing).
    pub fn noop() -> LocalTracer<'static> {
        LocalTracer {
            parent: None,
            lane: 0,
            seq: 0,
            buf: Vec::new(),
        }
    }

    /// Whether this lane records events. Callers with expensive dynamic
    /// names (`format!`) should gate on this to stay zero-cost when
    /// tracing is off.
    pub fn is_on(&self) -> bool {
        self.parent.is_some()
    }

    /// The lane index.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Nanoseconds since the parent tracer's origin (0 when detached).
    pub fn now_ns(&self) -> u64 {
        match self.parent {
            Some(t) => t.now_ns(),
            None => 0,
        }
    }

    /// Marks the start of a span. Costs one clock read (none detached).
    pub fn begin(&self) -> SpanStart {
        SpanStart {
            t_ns: self.now_ns(),
        }
    }

    /// Closes a span started with [`LocalTracer::begin`].
    pub fn end(
        &mut self,
        start: SpanStart,
        cat: &'static str,
        name: impl Into<EventName>,
        args: &[(&'static str, ArgValue)],
    ) {
        if self.parent.is_none() {
            return;
        }
        let now = self.now_ns();
        let dur_ns = now.saturating_sub(start.t_ns);
        self.push(
            cat,
            name.into(),
            start.t_ns,
            EventKind::Span { dur_ns },
            args,
        );
    }

    /// Records a point-in-time marker.
    pub fn instant(
        &mut self,
        cat: &'static str,
        name: impl Into<EventName>,
        args: &[(&'static str, ArgValue)],
    ) {
        if self.parent.is_none() {
            return;
        }
        let t_ns = self.now_ns();
        self.push(cat, name.into(), t_ns, EventKind::Instant, args);
    }

    /// Records a counter sample.
    pub fn counter(&mut self, cat: &'static str, name: impl Into<EventName>, value: f64) {
        if self.parent.is_none() {
            return;
        }
        let t_ns = self.now_ns();
        self.push(cat, name.into(), t_ns, EventKind::Counter { value }, &[]);
    }

    fn push(
        &mut self,
        cat: &'static str,
        name: EventName,
        t_ns: u64,
        kind: EventKind,
        args: &[(&'static str, ArgValue)],
    ) {
        let seq = self.seq;
        self.seq += 1;
        self.buf.push(TraceEvent {
            cat,
            name,
            t_ns,
            lane: self.lane,
            seq,
            kind,
            args: args.to_vec(),
        });
    }

    /// Pushes this lane's buffer to the parent tracer. Called on drop;
    /// explicit flushing is only needed to hand events over early.
    pub fn flush(&mut self) {
        if let Some(parent) = self.parent {
            if !self.buf.is_empty() {
                parent.sink.lock().push(std::mem::take(&mut self.buf));
            }
        }
    }
}

impl Drop for LocalTracer<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::category;

    #[test]
    fn records_and_merges_lanes() {
        let tracer = Tracer::new();
        {
            let mut a = tracer.lane(0);
            let start = a.begin();
            a.instant(category::POOL, "mark", &[("i", ArgValue::U64(3))]);
            a.end(start, category::POOL, "task", &[]);
            let mut b = tracer.lane(1);
            b.counter(category::CAMPAIGN, "samples", 12.0);
        }
        let trace = tracer.drain();
        assert_eq!(trace.events.len(), 3);
        // Sorted by (t_ns, lane, seq); the span starts at or before the
        // instant recorded after it.
        assert!(trace
            .events
            .windows(2)
            .all(|w| (w[0].t_ns, w[0].lane, w[0].seq) <= (w[1].t_ns, w[1].lane, w[1].seq)));
        let span = trace
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Span { .. }))
            .unwrap();
        assert_eq!(span.name, "task");
        assert!(span.dur_ns().is_some());
    }

    #[test]
    fn disabled_records_nothing() {
        let tracer = Tracer::disabled();
        {
            let mut lane = tracer.lane(0);
            assert!(!lane.is_on());
            let start = lane.begin();
            lane.instant(category::POOL, "mark", &[]);
            lane.counter(category::POOL, "c", 1.0);
            lane.end(start, category::POOL, "task", &[]);
        }
        assert!(tracer.drain().events.is_empty());
        assert_eq!(tracer.now_ns(), 0);
        assert!(!tracer.is_enabled());
    }

    #[test]
    fn flush_hands_events_over_before_the_lane_is_dropped() {
        let tracer = Tracer::new();
        let mut lane = tracer.lane(3);
        lane.instant(category::CAMPAIGN, "first", &[]);
        assert!(
            tracer.drain().is_empty(),
            "events stay in the lane until a flush"
        );
        lane.flush();
        let first = tracer.drain();
        assert_eq!(first.len(), 1);
        assert_eq!((first.events[0].lane, first.events[0].seq), (3, 0));
        lane.instant(category::CAMPAIGN, "second", &[]);
        drop(lane);
        let second = tracer.drain();
        assert_eq!(second.len(), 1);
        assert_eq!(
            (second.events[0].name.as_ref(), second.events[0].seq),
            ("second", 1)
        );
    }

    #[test]
    fn lane_of_none_is_detached() {
        let mut lane = lane_of(None, 7);
        assert!(!lane.is_on());
        lane.instant(category::POOL, "mark", &[]);
        let noop = LocalTracer::noop();
        assert!(!noop.is_on());
    }

    #[test]
    fn lane_of_a_tracer_records_on_that_lane() {
        let tracer = Tracer::new();
        {
            let mut lane = lane_of(Some(&tracer), 9);
            assert!(lane.is_on());
            assert_eq!(lane.lane(), 9);
            lane.counter(category::CAMPAIGN, "samples", 4.0);
        }
        let trace = tracer.drain();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.events[0].lane, 9);
        assert_eq!(trace.events[0].kind, EventKind::Counter { value: 4.0 });
    }

    #[test]
    fn drain_twice_yields_later_lanes() {
        let tracer = Tracer::new();
        {
            let mut a = tracer.lane(0);
            a.instant(category::POOL, "first", &[]);
        }
        assert_eq!(tracer.drain().events.len(), 1);
        {
            let mut b = tracer.lane(0);
            b.instant(category::POOL, "second", &[]);
        }
        let later = tracer.drain();
        assert_eq!(later.events.len(), 1);
        assert_eq!(later.events[0].name, "second");
    }
}
