//! DRAM bus commands issued by the memory controller.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A DRAM bus command.
///
/// The set is what the memory controller's FR-FCFS scheduler issues: row
/// commands (activate, and precharge of one bank), column commands (read,
/// write) and all-bank refresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemCommand {
    /// Open (activate) a row: latches the row into the bank's row buffer.
    Activate,
    /// Close (precharge) the currently open row of a bank.
    Precharge,
    /// Read a column from the open row.
    Read,
    /// Write a column of the open row.
    Write,
    /// All-bank auto refresh.
    Refresh,
}

impl fmt::Display for MemCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemCommand::Activate => "ACT",
            MemCommand::Precharge => "PRE",
            MemCommand::Read => "RD",
            MemCommand::Write => "WR",
            MemCommand::Refresh => "REF",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_the_jedec_mnemonic() {
        assert_eq!(MemCommand::Activate.to_string(), "ACT");
        assert_eq!(MemCommand::Refresh.to_string(), "REF");
        assert_eq!(MemCommand::Write.to_string(), "WR");
    }
}
