//! # sim
//!
//! The full-system simulation harness: trace-driven cores, a shared LLC,
//! and a channel-sharded memory subsystem — one FR-FCFS memory controller,
//! DDR4 device model and RowHammer-defense instance per channel — plus the
//! energy model, wired together and driven cycle by cycle (the Rust
//! counterpart of the paper's Ramulator + DRAMPower infrastructure). See
//! [`subsystem`] for the sharding design: shards step sequentially on the
//! calling thread, and the only threads that run simulation work are the
//! [`pool`]'s, which fan out whole runs.
//!
//! [`RunScale`] says how large a run is and hands out a configured
//! [`SystemBuilder`]. On top of the [`System`] runner, the [`experiments`]
//! module provides the single-core drivers that need more than a campaign
//! matrix (Figure 4, the false-positive study of Section 8.4, and the
//! Table 8 workload characterization) plus the row types of Figures 5/6
//! and Section 3.2.1, which run as `campaign` sweeps; [`report`] renders
//! them all, and [`metrics`] computes the performance metrics the paper
//! reports (weighted speedup, harmonic speedup, maximum slowdown, DRAM
//! energy).
//!
//! ## Example
//!
//! ```
//! use sim::{DefenseKind, SystemBuilder};
//! use workloads::SyntheticSpec;
//!
//! // A single benign core protected by BlockHammer, scaled for a fast run.
//! let result = SystemBuilder::new()
//!     .time_scale(512)
//!     .defense(DefenseKind::BlockHammer)
//!     .add_workload(SyntheticSpec::high_intensity("demo", 0), 5_000)
//!     .run();
//! assert_eq!(result.threads.len(), 1);
//! assert!(result.threads[0].ipc > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod metrics;
pub mod pool;
pub mod report;
pub mod subsystem;

mod defense_factory;
mod system;

pub use defense_factory::DefenseKind;
pub use metrics::{ChannelStats, MultiProgramMetrics, RunResult, SteppingStats, ThreadResult};
pub use subsystem::MemorySubsystem;
pub use system::{
    scaled_n_rh, AdvanceMode, BoxedTrace, RunScale, System, SystemBuilder, SystemConfig,
};
