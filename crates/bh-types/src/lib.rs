//! # bh-types
//!
//! Shared vocabulary types for the BlockHammer reproduction.
//!
//! Every other crate in the workspace (the DRAM device model, the memory
//! controller, the RowHammer defenses, the full-system harness) speaks in
//! terms of the types defined here: the thread identifier; decoded DRAM
//! addresses and the address mappings; DRAM bus commands; memory requests;
//! and clock/time conversion helpers.
//!
//! The crate is deliberately dependency-light so that it can sit at the
//! bottom of the dependency graph.
//!
//! ## Example
//!
//! ```
//! use bh_types::{DramAddress, MemCommand, ThreadId};
//!
//! let addr = DramAddress::new(0, 0, 1, 2, 0x1234, 40);
//! assert_eq!(addr.row(), 0x1234);
//! assert_eq!(addr.global_bank_index(1, 4, 4), 6);
//! let act = MemCommand::Activate;
//! assert!(act.is_row_command());
//! let t = ThreadId::new(3);
//! assert_eq!(t.index(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod command;
mod error;
mod ids;
mod request;
mod time;
mod trace;

pub use address::{AddressMapping, AddressMappingGeometry, DramAddress};
pub use command::{CommandClass, MemCommand};
pub use error::ConfigError;
pub use ids::ThreadId;
pub use request::{AccessType, MemRequest, ReqId};
pub use time::{Cycle, CyclesPerSecond, Nanoseconds, TimeConverter};
pub use trace::TraceRecord;
