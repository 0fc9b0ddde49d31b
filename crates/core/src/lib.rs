//! # scibench — interpretable benchmarking for parallel systems
//!
//! A Rust implementation of the methodology of Hoefler & Belli,
//! *Scientific Benchmarking of Parallel Computing Systems: Twelve ways to
//! tell the masses when reporting performance results* (SC '15), and of
//! the LibSciBench library that accompanies it.
//!
//! The twelve rules are codified as executable machinery:
//!
//! | Rule | Where |
//! |------|-------|
//! | 1 — speedup with explicit base case          | [`speedup`] |
//! | 2 — unambiguous units                        | [`units`] |
//! | 3 — arithmetic mean for costs, harmonic for rates | [`metric`] |
//! | 4 — never average ratios (geometric mean as last resort) | [`metric`] |
//! | 5 — report CIs for nondeterministic data     | [`experiment::measurement`] |
//! | 6 — diagnostic checking before assuming normality | [`experiment::measurement`] |
//! | 7 — statistically sound comparison           | [`compare`] |
//! | 8 — choose the right percentile              | [`compare`] (quantile regression) |
//! | 9 — document the full setup                  | [`experiment::environment`] |
//! | 10 — parallel time measurement + synchronization | [`sync`], [`parallel`] |
//! | 11 — upper performance bounds                | [`bounds`] |
//! | 12 — informative plots                       | [`plot`] |
//!
//! [`rules`] enumerates the rules themselves and audits experiment
//! reports for compliance; [`report`] renders interpretable text reports
//! and CSV exports.
//!
//! # Quickstart
//!
//! ```
//! use scibench::experiment::measurement::{MeasurementPlan, StoppingRule};
//!
//! // Measure a (simulated) operation until the 95% CI of the median is
//! // within 5% — the paper's §4.2.2 stopping criterion.
//! let plan = MeasurementPlan::new("demo-op")
//!     .warmup(3)
//!     .stopping(StoppingRule::AdaptiveMedianCi {
//!         confidence: 0.95,
//!         rel_error: 0.05,
//!         batch: 10,
//!         max_samples: 10_000,
//!     });
//! let mut x = 0u64;
//! let outcome = plan.run(|| {
//!     // The "operation": anything returning an f64 cost.
//!     x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
//!     1.0 + (x % 100) as f64 / 1000.0
//! }).unwrap();
//! assert!(outcome.samples.len() >= 10);
//! let summary = outcome.summarize(0.95).unwrap();
//! assert!(summary.median_ci.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bounds;
pub mod compare;
pub mod data;
pub mod experiment;
pub mod metric;
pub mod obs;
pub mod parallel;
pub mod plot;
pub mod report;
pub mod rules;
pub mod speedup;
pub mod sync;
#[cfg(test)]
mod test_samples;
pub mod units;

pub use metric::{Cost, Rate, Ratio};
pub use rules::{Rule, RuleAudit};
