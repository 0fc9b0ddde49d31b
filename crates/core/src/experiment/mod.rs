//! Experimental design (§4 of the paper).
//!
//! - [`design`]: factors, levels, full factorial designs and randomized
//!   run orders (§4 "We recommend factorial design", §4.1.1
//!   randomization);
//! - [`environment`]: machine/software/configuration documentation — the
//!   nine Table 1 experimental-design classes as a checklist (Rule 9);
//! - [`measurement`]: the measurement loop with warmup exclusion, fixed
//!   or adaptive (CI-driven) stopping (§4.2.2), and Rule 5/6-compliant
//!   summaries;
//! - [`adaptive`]: SKaMPI-style adaptive level refinement (§4.2);
//! - [`campaign`]: deterministic (optionally thread-parallel) execution
//!   of a whole design through a measurement plan;
//! - [`resilience`]: the same execution with retry, timeout and
//!   graceful degradation instead of first-error abort — for faulty
//!   machines and fault-injected simulations;
//! - [`journal`]: a crash-consistent, CRC-framed write-ahead log of
//!   per-point results with content-addressed keys, so interrupted
//!   campaigns resume bit-identically instead of restarting;
//! - [`stream`]: bounded-memory campaign execution — samples fold into
//!   streaming sketches (`scibench_stats::sketch`) instead of O(n)
//!   vectors, bit-identical at any thread count;
//! - [`scaling`]: strong/weak scaling declarations with explicit scaling
//!   functions (§4.2).

pub mod adaptive;
pub mod campaign;
pub mod design;
pub mod environment;
pub mod journal;
pub mod measurement;
pub mod resilience;
pub mod scaling;
pub mod stream;

pub use adaptive::{refine_levels, Refinement, RefinementConfig};
pub use campaign::{run_campaign, CampaignConfig, CampaignResult, CampaignRun};
pub use design::{Design, Factor, RunPoint};
pub use environment::{DocumentationClass, EnvironmentDoc};
pub use journal::{
    result_digest, Journal, JournalError, JournalKey, JournalMeta, JournalSnapshot, JournalSpec,
    PointRecord,
};
pub use measurement::{MeasurementOutcome, MeasurementPlan, MeasurementSummary, StoppingRule};
pub use resilience::{
    run_campaign_resilient, run_campaign_resilient_journaled,
    run_campaign_resilient_journaled_subset, CampaignError, CampaignHealth, JournaledCampaign,
    MeasureFailure, PointFate, ResilientCampaignResult, ResilientRun, ResumeStats, RetryPolicy,
};
pub use stream::{run_campaign_stream, run_stream, StreamCampaign, StreamOutcome, StreamRun};
