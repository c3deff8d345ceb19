//! # bh-types
//!
//! Shared vocabulary types for the BlockHammer reproduction.
//!
//! Every other crate in the workspace (the DRAM device model, the memory
//! controller, the RowHammer defenses, the full-system harness) speaks in
//! terms of the types defined here: the thread identifier; the DRAM
//! organization, which decodes physical addresses with the MOP address
//! mapping and numbers the banks; decoded DRAM addresses; DRAM bus
//! commands; memory requests; clock/time conversion helpers; and the fixed
//! integer hasher behind the simulator's per-request maps.
//!
//! The crate is deliberately dependency-light so that it can sit at the
//! bottom of the dependency graph.
//!
//! ## Example
//!
//! ```
//! use bh_types::{DramAddress, DramOrganization, MemCommand, ThreadId};
//!
//! let org = DramOrganization::default(); // Table 5
//! let addr = DramAddress::new(0, 0, 1, 2, 0x1234, 40);
//! assert_eq!(addr.row(), 0x1234);
//! assert_eq!(org.bank_of(&addr), 6);
//! assert_eq!(org.decode(org.encode(&addr)), addr);
//! assert_eq!(MemCommand::Activate.to_string(), "ACT");
//! let t = ThreadId::new(3);
//! assert_eq!(t.index(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod command;
mod error;
mod hash;
mod ids;
mod organization;
mod request;
mod time;
mod trace;

pub use address::DramAddress;
pub use command::MemCommand;
pub use error::ConfigError;
pub use hash::{FastHasher, FastMap, FastSet};
pub use ids::ThreadId;
pub use organization::DramOrganization;
pub use request::{AccessType, MemRequest, ReqId};
pub use time::{Cycle, CyclesPerSecond, Nanoseconds, TimeConverter};
pub use trace::TraceRecord;
