//! # memctrl
//!
//! A cycle-level DDR4 memory controller model with RowHammer-defense hook
//! points.
//!
//! The controller implements the system described in the BlockHammer
//! paper's methodology (Table 5): FR-FCFS scheduling with write draining,
//! 64-entry read and write queues, MOP address mapping, open-page row
//! buffer policy, and periodic all-bank refresh. One controller drives one
//! memory channel; a system with more channels runs one controller (and
//! one defense) per channel. A [`RowHammerDefense`] (the trait from the
//! `mitigations` crate) is consulted:
//!
//! * before every row activation (`is_activation_safe`) — proactive
//!   throttling defenses such as BlockHammer answer `false` to delay an
//!   unsafe activation;
//! * after every demand activation (`on_activation`) — reactive-refresh
//!   defenses return victim rows, which join a queue of row addresses that
//!   the controller serves as ACTs, ahead of demand traffic;
//! * on request admission (`inflight_quota`) — AttackThrottler-style
//!   defenses bound a thread's in-flight requests per bank.
//!
//! The FR-FCFS scheduling passes run over per-bank indexed queues by
//! default ([`SchedulerPolicy::BankedIndex`]); the flat
//! [`SchedulerPolicy::LinearScan`] reference implementation is retained
//! and makes bit-identical decisions (see the `scheduler` module docs).
//!
//! ## Example
//!
//! ```
//! use bh_types::{AccessType, ThreadId};
//! use memctrl::{MemCtrlConfig, MemoryController};
//! use mitigations::NoMitigation;
//!
//! let mut ctrl = MemoryController::new(MemCtrlConfig::default());
//! let mut defense = NoMitigation::new();
//! ctrl.enqueue(ThreadId::new(0), 0x4000, AccessType::Read, 0, &defense)
//!     .expect("queue has space");
//! let mut completed = Vec::new();
//! for cycle in 0..2_000 {
//!     completed.extend(ctrl.tick(cycle, &mut defense));
//! }
//! assert_eq!(completed.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod controller;
mod queues;
mod scheduler;
mod stats;

pub use config::MemCtrlConfig;
pub use controller::{BatchAdmission, CompletedRequest, EnqueueError, MemoryController};
pub use mitigations::RowHammerDefense;
pub use scheduler::SchedulerPolicy;
pub use stats::CtrlStats;
