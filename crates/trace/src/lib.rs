//! Low-overhead event tracing and harness self-accounting.
//!
//! The third pillar of LibSciBench (Hoefler & Belli, SC '15) is data
//! collection that does not perturb the experiment it measures. This
//! crate provides it for the workspace:
//!
//! - [`tracer::Tracer`] / [`tracer::LocalTracer`]: per-worker, lock-free
//!   append-only event buffers (spans, instants, counters), merged
//!   post-run into a [`trace::Trace`]. Zero-cost when disabled — every
//!   recording call is one branch.
//! - [`export`]: the chrome://tracing JSON exporter (hand-rolled, no
//!   JSON dependency, workspace convention).
//! - [`json`]: a minimal JSON pull reader, the parser built on it and
//!   the trace schema validator, so CI can check emitted traces without
//!   external tooling and the campaign journal can decode its frames
//!   without a tree.
//! - [`overhead`]: self-accounting — measures the tracer's own timer and
//!   record costs and reports them against the traced payload, the
//!   Rule 4/5 disclosure the paper asks for.
//!
//! Tracing never touches RNG state or sample values, so a traced run is
//! bit-identical to an untraced one; see [`tracer`] for the determinism
//! argument and [`event::category`] for which event streams are
//! schedule-dependent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod export;
pub mod json;
pub mod overhead;
pub mod trace;
pub mod tracer;

pub use event::{category, is_schedule_dependent, ArgValue, EventKind, EventName, TraceEvent};
pub use export::to_chrome_json;
pub use json::{parse as parse_json, validate_chrome_trace, JsonValue};
pub use overhead::{OverheadProbe, OverheadReport};
pub use trace::Trace;
pub use tracer::{lane_of, LocalTracer, SpanStart, Tracer};
