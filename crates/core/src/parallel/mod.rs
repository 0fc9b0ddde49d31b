//! Parallel execution and cross-process summarization.
//!
//! Three parts live here:
//!
//! * [`process`] — the paper's Rule 10 machinery for summarizing
//!   measurements *across processes* (ANOVA-gated pooling, max/median
//!   collapse). Re-exported at this level for backwards compatibility.
//! * [`pool`] — the deterministic work-stealing thread pool that executes
//!   campaigns, resilient campaigns and figure generation. Determinism is
//!   a hard contract: results are a pure function of the task inputs,
//!   never of thread scheduling (see [`pool::run_indexed`]).
//! * [`shard`] — supervised shared-nothing execution of resilient
//!   campaigns across child OS processes: heartbeat watchdog,
//!   kill-and-respawn, and persistent quarantine of points that
//!   repeatedly crash their worker, all backed by per-shard
//!   crash-consistent journals. Streaming campaigns do not shard: they
//!   run in one process.

pub mod pool;
pub mod process;
pub mod shard;

pub use process::*;
