//! The benchmark's workloads, one module each; see README.md for why each
//! exists and which layers it stresses.

pub mod campaign;
pub mod figures;
pub mod replay;
pub mod shard;

use crate::harness::{self, RunOptions, RunResult};

/// Every workload name, in `BENCHMARK.json` order.
pub const NAMES: [&str; 5] = [
    "figures",
    "stream_1m",
    "vector_1m",
    "replay_sweep",
    "shard_journal",
];

/// Sets up and runs workload `name` on inputs made from `seed`.
pub fn run(name: &str, seed: u64, quick: bool, opts: RunOptions) -> Result<RunResult, String> {
    match name {
        "figures" => harness::run(|| figures::Figures::setup(seed, quick), opts),
        "stream_1m" => harness::run(|| campaign::Stream::setup(seed, quick), opts),
        "vector_1m" => harness::run(|| campaign::Vector::setup(seed, quick), opts),
        "replay_sweep" => harness::run(|| replay::Replay::setup(seed, quick), opts),
        "shard_journal" => harness::run(|| shard::ShardJournal::setup(seed, quick), opts),
        other => Err(format!("unknown workload {other:?} (one of {NAMES:?})")),
    }
}
