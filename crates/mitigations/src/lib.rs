//! # mitigations
//!
//! The [`RowHammerDefense`] trait — the hook surface the memory controller
//! offers to RowHammer mitigation mechanisms — and implementations of the
//! six state-of-the-art baselines the BlockHammer paper compares against
//! (Section 7):
//!
//! | Mechanism | Approach | Type |
//! |---|---|---|
//! | PARA      | probabilistic reactive refresh | [`Para`] |
//! | PRoHIT    | probabilistic reactive refresh with a hot/cold history table | [`ProHit`] |
//! | MRLoc     | probabilistic reactive refresh with a locality queue | [`MrLoc`] |
//! | CBT       | deterministic reactive refresh, counter tree over row regions | [`Cbt`] |
//! | TWiCe     | deterministic reactive refresh, pruned per-row counter table | [`TwiCe`] |
//! | Graphene  | deterministic reactive refresh, Misra–Gries frequent-element counters | [`Graphene`] |
//!
//! plus [`NoMitigation`], the unprotected baseline. BlockHammer itself lives
//! in the `blockhammer` crate and implements the same trait.
//!
//! ## Example
//!
//! ```
//! use bh_types::{DramAddress, ThreadId};
//! use mitigations::{DefenseGeometry, Para, RowHammerDefense, RowHammerThreshold};
//!
//! let geometry = DefenseGeometry::default();
//! let mut para = Para::new(RowHammerThreshold::new(32_000), 1e-15, geometry, 12345);
//! let addr = DramAddress::new(0, 0, 0, 0, 100, 0);
//! // Every activation may (with low probability) trigger a neighbour refresh.
//! let victims = para.on_activation(0, ThreadId::new(0), &addr);
//! assert!(victims.len() <= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cbt;
mod defense;
mod geometry;
mod graphene;
mod mrloc;
mod none;
mod para;
mod prohit;
mod twice;

pub use cbt::Cbt;
pub use defense::{AsAny, DefenseStats, MetadataFootprint, RowHammerDefense, RowHammerThreshold};
pub use geometry::{BlastModel, DefenseGeometry};
pub use graphene::Graphene;
pub use mrloc::MrLoc;
pub use none::NoMitigation;
pub use para::Para;
pub use prohit::ProHit;
pub use twice::TwiCe;
