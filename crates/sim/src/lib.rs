//! Simulated HPC substrate for the SC '15 scientific-benchmarking
//! reproduction.
//!
//! The paper's measurements were taken on three Cray/InfiniBand systems
//! (Piz Daint, Piz Dora, Pilatus — §4.1.2). Those machines are not
//! available, so this crate implements parameterized models that produce
//! measurement distributions with the same qualitative structure from the
//! same causes:
//!
//! - [`machine`]: node/network/noise specifications with presets for the
//!   three systems of the paper,
//! - [`topology`]: Dragonfly and fat-tree hop-distance models,
//! - [`network`]: a LogGP-style point-to-point cost model with eager /
//!   rendezvous protocol switching,
//! - [`noise`]: multiplicative log-normal jitter, periodic OS daemons and
//!   heavy-tailed congestion events — the "system" noise sources the paper
//!   lists in §1,
//! - [`drift`]: per-process clock offset and drift (§4.2.1 "Parallel
//!   time"),
//! - [`alloc`]: batch-system node-allocation policies (packed, scattered,
//!   random) whose effect §4.1.2 calls out,
//! - [`collectives`]: binomial-tree reduce/broadcast, allreduce and
//!   dissemination barrier with per-rank completion times (Figures 5
//!   and 6),
//! - [`compile`]: reduce and barrier lowered once per campaign point into
//!   flat message programs replayed with zero per-sample allocations,
//!   bit-identical to the interpreter,
//! - [`pingpong`]: two-node latency benchmark (Figures 2, 3, 4 and 7(c)),
//! - [`fault`]: deterministic fault injection (node crashes, stragglers,
//!   flaky links, clock jumps) into point-to-point transfers and the
//!   ping-pong loop, for resilience experiments,
//! - [`hpl`]: an HPL-like compute-bound workload (Figure 1),
//! - [`pi`]: the π-digits workload with a serial fraction and a final
//!   reduction (Figure 7(a,b)),
//! - [`bsp`]: a bulk-synchronous application model demonstrating noise
//!   propagation across ranks (§4.2.1),
//! - [`rng`]: deterministic, fork-able random streams so every experiment
//!   is reproducible bit-for-bit from a single seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod bsp;
pub mod collectives;
pub mod compile;
pub mod drift;
pub mod fault;
pub mod hpl;
pub mod machine;
pub mod network;
pub mod noise;
pub mod pi;
pub mod pingpong;
pub mod rng;
pub mod topology;

pub use compile::{CollectiveOp, CompiledSchedule, ReplayCtx};
pub use fault::{FaultContext, FaultPlan, FaultSchedule, SimFault};
pub use machine::{MachineSpec, NetworkSpec, NodeSpec};
pub use rng::SimRng;
