//! # workloads
//!
//! Synthetic workload and RowHammer-attack trace generators.
//!
//! The BlockHammer paper evaluates 280 workloads built from SPEC CPU2006,
//! YCSB, network-accelerator traces, non-temporal copy microbenchmarks and
//! a synthetic double-sided RowHammer attack (Section 7, Table 8). Those
//! traces are not redistributable, so this crate provides *synthetic
//! generators calibrated to the same memory-behaviour axes the paper uses
//! to categorize its workloads*: misses per kilo-instruction (MPKI) and row
//! buffer conflicts per kilo-instruction (RBCPKI), grouped into the L / M /
//! H categories of Table 8. The README section "Substitutions and scaled
//! time" gives the substitution rationale.
//!
//! All generators implement `Iterator<Item = TraceRecord>` and are
//! deterministic for a given seed.
//!
//! ## Example
//!
//! ```
//! use workloads::{SyntheticSpec, WorkloadCategory};
//!
//! // A memory-intensive benign application (H category).
//! let spec = SyntheticSpec::high_intensity("h_example", 7);
//! assert_eq!(spec.category, WorkloadCategory::High);
//! let trace: Vec<_> = spec.build(0xfeed).take(1000).collect();
//! assert_eq!(trace.len(), 1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attack;
mod catalog;
mod mix;
mod synthetic;

pub use attack::{AttackGenerator, AttackKind, AttackSpec};
pub use catalog::{benign_catalog, WorkloadCategory, WorkloadSpec};
pub use mix::WorkloadMix;
pub use synthetic::{AccessPattern, SyntheticSpec, SyntheticWorkload};
