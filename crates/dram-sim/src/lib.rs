//! # dram-sim
//!
//! A cycle-level DDR4 DRAM device model in the spirit of Ramulator.
//!
//! The model captures everything a RowHammer mitigation study needs from a
//! DRAM device:
//!
//! * the bank / bank-group / rank organization of one channel,
//! * the row-buffer state machine of every bank,
//! * the DDR4 timing constraints that bound how fast rows can be activated
//!   (`tRC`, `tRCD`, `tRP`, `tRAS`, `tRRD_S/L`, `tFAW`, `tCCD_S/L`, `tWTR`,
//!   `tRTP`, `tWR`, `tCL`, `tCWL`, burst length),
//! * periodic all-bank refresh (`tREFI`, `tRFC`, `tREFW`), and
//! * command / state-residency statistics that feed the energy model.
//!
//! The device does not move data; it only enforces *when* commands may be
//! issued and reports when their results would be available, which is all
//! the memory controller and the defenses observe.
//!
//! ## Example
//!
//! ```
//! use bh_types::{DramAddress, MemCommand, TimeConverter};
//! use dram_sim::{DramDevice, DramOrganization, DramTimings};
//!
//! let timings = DramTimings::ddr4_2400().into_cycles(&TimeConverter::default());
//! let org = DramOrganization::default();
//! let mut dram = DramDevice::new(org, timings);
//! let addr = DramAddress::new(0, 0, 0, 0, 42, 0);
//!
//! // A freshly powered-up bank must be activated before it can be read.
//! assert!(!dram.can_issue(MemCommand::Read, &addr, 0));
//! assert!(dram.can_issue(MemCommand::Activate, &addr, 0));
//! dram.issue(MemCommand::Activate, &addr, 0);
//! assert_eq!(dram.open_row(&addr), Some(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
mod device;
mod organization;
mod rank;
mod stats;
mod timings;

pub use bank::{Bank, BankState};
pub use device::{DramDevice, IssueOutcome};
pub use organization::DramOrganization;
pub use rank::Rank;
pub use stats::{CommandCounts, DramStats};
pub use timings::{DramTimings, TimingsInCycles};
