//! Trace event model: spans, instants and counters on named lanes.
//!
//! Events are deliberately small and allocation-light: categories and
//! argument keys are `&'static str`, names are `Cow<'static, str>` so the
//! hot paths (task spans in the pool, per-sample counters) never allocate
//! for the name, while cold paths (per-point labels, error messages) can
//! still attach dynamic strings.

use std::borrow::Cow;

/// An event name: static for hot paths, owned for cold dynamic labels.
pub type EventName = Cow<'static, str>;

/// Well-known event categories.
///
/// Categories partition the trace into *deterministic* streams (a pure
/// function of seed and design, identical at any thread count) and
/// *schedule-dependent* streams (steal decisions, worker occupancy) that
/// legitimately vary run-to-run. Consumers that assert determinism must
/// filter with [`is_schedule_dependent`].
pub mod category {
    /// Per-task execution spans in the work-stealing pool (deterministic
    /// count: one span per task index).
    pub const POOL: &str = "pool";
    /// Schedule-dependent events: steals, per-worker occupancy spans and
    /// per-worker tallies. Excluded from determinism checks.
    pub const SCHED: &str = "sched";
    /// Campaign-level events: per-point measurement spans and sample
    /// counters.
    pub const CAMPAIGN: &str = "campaign";
    /// Resilience events: attempts, retries, timeouts, quarantines.
    pub const RESILIENCE: &str = "resilience";
    /// Failed measurement calls in the resilient campaign runner.
    pub const FAULT: &str = "fault";
    /// Figure-pipeline jobs in the bench bins.
    pub const FIGURE: &str = "figure";
    /// Harness self-accounting probes (timer cost, record cost).
    pub const HARNESS: &str = "harness";
}

/// Whether events in `cat` may differ between runs at different thread
/// counts. Only [`category::SCHED`] is schedule-dependent; every other
/// category has deterministic event counts for a fixed seed.
pub fn is_schedule_dependent(cat: &str) -> bool {
    cat == category::SCHED
}

/// A typed argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (indices, counts, nanoseconds).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point value.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form text (cold paths only; allocates).
    Str(String),
}

/// The shape of an event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A closed interval starting at `TraceEvent::t_ns` lasting `dur_ns`.
    Span {
        /// Duration in nanoseconds.
        dur_ns: u64,
    },
    /// A point-in-time marker.
    Instant,
    /// A sampled counter value at a point in time.
    Counter {
        /// The counter's value when sampled.
        value: f64,
    },
}

/// One recorded event. Ordering within a lane follows `seq`; the merged
/// trace sorts by `(t_ns, lane, seq)` so the output is stable even when
/// the wall clock ties.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Category (see [`category`]).
    pub cat: &'static str,
    /// Event name.
    pub name: EventName,
    /// Start time (spans) or occurrence time (instants, counters), in
    /// nanoseconds since the owning tracer's origin.
    pub t_ns: u64,
    /// Lane (exported as chrome://tracing `tid`): worker index for pool
    /// events, offset design index for campaign points.
    pub lane: u32,
    /// Per-lane sequence number, breaking timestamp ties.
    pub seq: u64,
    /// Span / instant / counter payload.
    pub kind: EventKind,
    /// Typed key-value arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl TraceEvent {
    /// The span duration, or `None` for instants and counters.
    pub fn dur_ns(&self) -> Option<u64> {
        match self.kind {
            EventKind::Span { dur_ns } => Some(dur_ns),
            _ => None,
        }
    }

    /// Looks up an argument by key.
    pub fn arg(&self, key: &str) -> Option<&ArgValue> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}
