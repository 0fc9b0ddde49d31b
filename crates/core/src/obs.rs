//! Observability glue: trace lane allocation and the harness-overhead
//! disclosure attached to measurement summaries.
//!
//! The tracing machinery itself lives in [`scibench_trace`]; this module
//! holds the conventions the rest of the crate wires through it:
//!
//! * **Lane allocation** — chrome://tracing `tid`s are carved into
//!   ranges so pool workers, campaign points and orchestration events
//!   never collide: workers occupy `0..threads`, the orchestrating
//!   thread uses [`MAIN_LANE`], and design point `i` records on
//!   [`CAMPAIGN_LANE_BASE`]` + i`.
//! * **[`HarnessOverhead`]** — the Rule 4/5 self-accounting summary
//!   derived from a [`scibench_trace::OverheadReport`], embeddable in
//!   [`crate::experiment::measurement::MeasurementSummary`] and rendered
//!   in its text report.

use scibench_trace::OverheadReport;

/// Lane (`tid`) of the orchestrating thread's events.
pub const MAIN_LANE: u32 = 0xFFFF;

/// First lane used for per-design-point campaign events: design point
/// `i` records on `CAMPAIGN_LANE_BASE + i`. Pool workers use lanes
/// `0..threads`, so the two ranges cannot collide for any realistic
/// thread count.
pub const CAMPAIGN_LANE_BASE: u32 = 1 << 16;

// Worker lanes (0..threads) must sit strictly below the orchestrator's
// lane, which must sit below the campaign block.
const _: () = assert!(MAIN_LANE > 1024 && CAMPAIGN_LANE_BASE > MAIN_LANE);

/// The lane carrying design point `design_idx`'s campaign events.
pub fn campaign_lane(design_idx: usize) -> u32 {
    CAMPAIGN_LANE_BASE + design_idx as u32
}

/// Rule 4/5 disclosure of what the measurement harness itself cost.
///
/// Derived from the tracer's self-accounting report and scaled to the
/// number of recorded samples, so a summary can state "observing this
/// experiment cost ~X ns per sample, Y% of the payload time".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarnessOverhead {
    /// Median cost of one clock read, nanoseconds.
    pub timer_read_ns: f64,
    /// Median cost of recording one trace event, nanoseconds.
    pub record_ns: f64,
    /// Estimated total tracing cost, nanoseconds.
    pub tracing_ns: f64,
    /// Trace events recorded.
    pub events: usize,
    /// Estimated tracing cost per recorded sample, nanoseconds.
    pub tracing_ns_per_sample: f64,
    /// Tracing cost as a fraction of traced payload span time; `None`
    /// when no payload spans were recorded.
    pub overhead_fraction: Option<f64>,
}

impl HarnessOverhead {
    /// Builds the disclosure from a self-accounting report, amortized
    /// over `samples` recorded measurements.
    pub fn from_report(report: &OverheadReport, samples: usize) -> Self {
        Self {
            timer_read_ns: report.timer_read_ns,
            record_ns: report.record_ns,
            tracing_ns: report.tracing_ns,
            events: report.events,
            tracing_ns_per_sample: if samples > 0 {
                report.tracing_ns / samples as f64
            } else {
                0.0
            },
            overhead_fraction: report.overhead_fraction(),
        }
    }

    /// Renders the disclosure as indented report lines.
    pub fn render(&self) -> String {
        let mut out = format!(
            "  harness overhead (Rules 4-5): {} events, ~{:.1} ns tracing per sample \
             (timer {:.1} ns/read, record {:.1} ns/event)\n",
            self.events, self.tracing_ns_per_sample, self.timer_read_ns, self.record_ns,
        );
        if let Some(f) = self.overhead_fraction {
            out.push_str(&format!(
                "  harness overhead fraction: {:.3}% of payload{}\n",
                f * 100.0,
                if f > 0.05 {
                    " -- EXCEEDS the 5% budget"
                } else {
                    ""
                }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scibench_trace::{
        category, ArgValue, EventKind, EventName, OverheadProbe, Trace, TraceEvent,
    };

    #[test]
    fn lanes_do_not_collide() {
        assert!(campaign_lane(0) > MAIN_LANE);
        assert_ne!(campaign_lane(7), campaign_lane(8));
    }

    #[test]
    fn from_report_amortizes_over_samples() {
        let trace = Trace {
            events: vec![TraceEvent {
                cat: category::CAMPAIGN,
                name: EventName::from("point"),
                t_ns: 0,
                lane: 0,
                seq: 0,
                kind: EventKind::Span { dur_ns: 10_000 },
                args: vec![("index", ArgValue::U64(0))],
            }],
        };
        let probe = OverheadProbe {
            timer_read_ns: 10.0,
            record_ns: 40.0,
        };
        let report = OverheadReport::from_trace(&trace, &probe, category::CAMPAIGN);
        let o = HarnessOverhead::from_report(&report, 100);
        assert_eq!(o.events, 1);
        assert_eq!(o.tracing_ns, 50.0);
        assert_eq!(o.tracing_ns_per_sample, 0.5);
        assert_eq!(o.overhead_fraction, Some(0.005));
        let text = o.render();
        assert!(text.contains("Rules 4-5"));
        assert!(!text.contains("EXCEEDS"));
        // Zero samples must not divide by zero.
        let z = HarnessOverhead::from_report(&report, 0);
        assert_eq!(z.tracing_ns_per_sample, 0.0);
    }
}
