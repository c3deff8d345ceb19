//! Memory requests as seen by the memory controller.

use crate::address::DramAddress;
use crate::ids::ThreadId;
use crate::time::Cycle;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Unique identifier of a memory request within a simulation run.
pub type ReqId = u64;

/// Direction of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessType {
    /// A demand read (load miss, instruction fetch miss, ...).
    Read,
    /// A writeback / store.
    Write,
}

impl AccessType {
    /// Whether the access is a read.
    pub fn is_read(&self) -> bool {
        matches!(self, AccessType::Read)
    }

    /// Whether the access is a write.
    pub fn is_write(&self) -> bool {
        matches!(self, AccessType::Write)
    }
}

impl fmt::Display for AccessType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessType::Read => f.write_str("read"),
            AccessType::Write => f.write_str("write"),
        }
    }
}

/// A demand request travelling from the LLC to DRAM: a core's load or
/// store miss, or a writeback. (A defense's victim refreshes never become
/// requests; the controller queues their addresses directly.)
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemRequest {
    /// Unique request identifier.
    pub id: ReqId,
    /// Issuing hardware thread.
    pub thread: ThreadId,
    /// Decoded DRAM coordinates.
    pub dram_addr: DramAddress,
    /// Read or write.
    pub access: AccessType,
    /// Cycle at which the request entered the memory controller queue.
    pub arrival: Cycle,
    /// Whether the RowHammer defense has vetoed this request's activation
    /// at least once while it was queued.
    pub delayed_by_defense: bool,
}

impl MemRequest {
    /// Creates a demand request of `thread`.
    pub fn demand(
        id: ReqId,
        thread: ThreadId,
        dram_addr: DramAddress,
        access: AccessType,
        arrival: Cycle,
    ) -> Self {
        Self {
            id,
            thread,
            dram_addr,
            access,
            arrival,
            delayed_by_defense: false,
        }
    }
}

impl fmt::Display for MemRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "req#{} {} {} by {} @{}",
            self.id, self.access, self.dram_addr, self.thread, self.arrival
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr() -> DramAddress {
        DramAddress::new(0, 0, 1, 2, 100, 5)
    }

    #[test]
    fn demand_request_carries_thread_and_access() {
        let r = MemRequest::demand(1, ThreadId::new(3), addr(), AccessType::Write, 42);
        assert_eq!(r.thread.index(), 3);
        assert!(r.access.is_write());
        assert_eq!(r.arrival, 42);
    }

    #[test]
    fn access_type_predicates_are_exclusive() {
        assert!(AccessType::Read.is_read() && !AccessType::Read.is_write());
        assert!(AccessType::Write.is_write() && !AccessType::Write.is_read());
    }

    #[test]
    fn display_contains_key_fields() {
        let r = MemRequest::demand(9, ThreadId::new(1), addr(), AccessType::Read, 5);
        let s = r.to_string();
        assert!(s.contains("req#9"));
        assert!(s.contains("read"));
    }
}
