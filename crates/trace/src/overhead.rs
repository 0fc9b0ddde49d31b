//! Harness self-accounting: what did measuring cost?
//!
//! Rules 4 and 5 of Hoefler & Belli require the measurement apparatus
//! itself to be characterized and disclosed. This module measures the
//! tracer's own primitive costs (one clock read, one event record) and
//! combines them with the event tallies of an actual trace to estimate
//! how many nanoseconds the harness spent observing, relative to the
//! payload it observed.

use std::fmt::Write as _;

use scibench_timer::{Clock, WallClock};

use crate::event::category;
use crate::trace::Trace;
use crate::tracer::Tracer;

/// Median per-call cost of `f`, measured over `reps` batches of `batch`
/// calls each.
fn median_cost_ns(reps: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let clock = WallClock::new();
    let mut costs: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = clock.now_ns();
            for _ in 0..batch {
                f();
            }
            (clock.now_ns() - t0) as f64 / batch as f64
        })
        .collect();
    costs.sort_by(f64::total_cmp);
    costs[costs.len() / 2]
}

/// Measured primitive costs of the tracing harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadProbe {
    /// Median cost of one clock read, in nanoseconds.
    pub timer_read_ns: f64,
    /// Median cost of recording one event into a lane buffer (clock read
    /// included), in nanoseconds.
    pub record_ns: f64,
}

impl OverheadProbe {
    /// Measures both primitive costs on the current machine.
    pub fn measure() -> Self {
        let clock = WallClock::new();
        let timer_read_ns = median_cost_ns(9, 1_000, || {
            std::hint::black_box(clock.now_ns());
        });
        let tracer = Tracer::new();
        let mut lane = tracer.lane(0);
        let record_ns = median_cost_ns(9, 1_000, || {
            lane.instant(category::HARNESS, "probe", &[]);
        });
        Self {
            timer_read_ns,
            record_ns,
        }
    }
}

/// The harness-overhead report: primitive costs × event tallies, set
/// against the payload the trace observed.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadReport {
    /// Total events in the trace.
    pub events: usize,
    /// Span events (each costs two clock reads and one record).
    pub spans: usize,
    /// Instant events (one clock read, one record).
    pub instants: usize,
    /// Counter events (one clock read, one record).
    pub counters: usize,
    /// Median cost of one clock read, in nanoseconds.
    pub timer_read_ns: f64,
    /// Median cost of one event record, in nanoseconds.
    pub record_ns: f64,
    /// Estimated total tracing cost, in nanoseconds.
    pub tracing_ns: f64,
    /// Total span time in the payload category, in nanoseconds.
    pub payload_span_ns: u64,
    /// The category whose span time is treated as payload.
    pub payload_cat: String,
}

impl OverheadReport {
    /// Accounts for `trace` using the primitive costs in `probe`, with
    /// `payload_cat` span time as the denominator.
    pub fn from_trace(trace: &Trace, probe: &OverheadProbe, payload_cat: &str) -> Self {
        let (spans, instants, counters) = trace.kind_counts();
        let events = trace.len();
        // A span performs one extra clock read (begin) beyond the read
        // already folded into `record_ns`.
        let tracing_ns = events as f64 * probe.record_ns + spans as f64 * probe.timer_read_ns;
        Self {
            events,
            spans,
            instants,
            counters,
            timer_read_ns: probe.timer_read_ns,
            record_ns: probe.record_ns,
            tracing_ns,
            payload_span_ns: trace.total_span_ns(payload_cat),
            payload_cat: payload_cat.to_string(),
        }
    }

    /// Estimated tracing cost as a fraction of payload span time, or
    /// `None` when the trace holds no payload spans.
    pub fn overhead_fraction(&self) -> Option<f64> {
        if self.payload_span_ns == 0 {
            None
        } else {
            Some(self.tracing_ns / self.payload_span_ns as f64)
        }
    }

    /// Renders the Rule 4/5 disclosure block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "harness self-accounting (Rules 4-5):");
        let _ = writeln!(
            out,
            "  timer read: {:.1} ns/call; event record: {:.1} ns/event",
            self.timer_read_ns, self.record_ns
        );
        let _ = writeln!(
            out,
            "  events recorded: {} ({} spans, {} instants, {} counters)",
            self.events, self.spans, self.instants, self.counters
        );
        let _ = writeln!(
            out,
            "  estimated tracing cost: {:.1} us over {:.1} us of '{}' payload",
            self.tracing_ns / 1e3,
            self.payload_span_ns as f64 / 1e3,
            self.payload_cat
        );
        match self.overhead_fraction() {
            Some(f) => {
                let _ = writeln!(
                    out,
                    "  overhead fraction: {:.3}% of payload span time{}",
                    f * 100.0,
                    if f > 0.05 {
                        " -- EXCEEDS the 5% budget; treat timings as perturbed"
                    } else {
                        " (within the 5% budget)"
                    }
                );
            }
            None => {
                let _ = writeln!(out, "  overhead fraction: n/a (no payload spans recorded)");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ArgValue, EventKind, EventName, TraceEvent};

    #[test]
    fn probe_yields_positive_costs() {
        let probe = OverheadProbe::measure();
        assert!(probe.timer_read_ns > 0.0);
        assert!(probe.record_ns > 0.0);
        assert!(probe.timer_read_ns.is_finite());
        assert!(probe.record_ns.is_finite());
    }

    #[test]
    fn report_accounts_for_event_mix() {
        let trace = Trace {
            events: vec![
                TraceEvent {
                    cat: category::CAMPAIGN,
                    name: EventName::from("point"),
                    t_ns: 0,
                    lane: 0,
                    seq: 0,
                    kind: EventKind::Span { dur_ns: 1_000_000 },
                    args: vec![("i", ArgValue::U64(0))],
                },
                TraceEvent {
                    cat: category::RESILIENCE,
                    name: EventName::from("retry"),
                    t_ns: 10,
                    lane: 0,
                    seq: 1,
                    kind: EventKind::Instant,
                    args: vec![],
                },
            ],
        };
        let probe = OverheadProbe {
            timer_read_ns: 20.0,
            record_ns: 50.0,
        };
        let report = OverheadReport::from_trace(&trace, &probe, category::CAMPAIGN);
        assert_eq!(report.events, 2);
        assert_eq!(report.spans, 1);
        assert_eq!(report.instants, 1);
        // 2 records (50 each) + 1 extra span clock read (20).
        assert_eq!(report.tracing_ns, 120.0);
        assert_eq!(report.payload_span_ns, 1_000_000);
        let f = report.overhead_fraction().unwrap();
        assert!((f - 0.00012).abs() < 1e-12);
        let text = report.render();
        assert!(text.contains("Rules 4-5"));
        assert!(text.contains("within the 5% budget"));
    }

    #[test]
    fn empty_payload_renders_na() {
        let report = OverheadReport::from_trace(
            &Trace::default(),
            &OverheadProbe {
                timer_read_ns: 1.0,
                record_ns: 1.0,
            },
            category::CAMPAIGN,
        );
        assert_eq!(report.overhead_fraction(), None);
        assert!(report.render().contains("n/a"));
    }

    #[test]
    fn over_budget_is_flagged() {
        let one_span = |dur_ns| Trace {
            events: vec![TraceEvent {
                cat: category::CAMPAIGN,
                name: EventName::from("point"),
                t_ns: 0,
                lane: 0,
                seq: 0,
                kind: EventKind::Span { dur_ns },
                args: vec![],
            }],
        };
        let probe = OverheadProbe {
            timer_read_ns: 10.0,
            record_ns: 40.0,
        };
        // One record plus the span's extra clock read: 50 ns.
        let within = OverheadReport::from_trace(&one_span(10_000), &probe, category::CAMPAIGN);
        assert_eq!(within.events, 1);
        assert_eq!(within.tracing_ns, 50.0);
        assert_eq!(within.overhead_fraction(), Some(0.005));
        assert!(!within.render().contains("EXCEEDS"));
        let over = OverheadReport::from_trace(&one_span(100), &probe, category::CAMPAIGN);
        assert_eq!(over.overhead_fraction(), Some(0.5));
        assert!(over.render().contains("EXCEEDS"));
    }
}
