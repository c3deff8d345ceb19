//! Per-bank row-buffer state machine and timing bookkeeping.

use crate::timings::TimingsInCycles;
use bh_types::{Cycle, MemCommand};

/// A single DRAM bank.
///
/// The bank tracks which row (if any) is open and the earliest cycle at
/// which each class of command may next be issued, according to the DDR4
/// timing constraints that involve only this bank (`tRC`, `tRCD`, `tRP`,
/// `tRAS`, `tRTP`, `tWR`, and `tRFC` after a refresh). The constraints its
/// rank's banks share (`tRRD`, `tFAW`, `tCCD`, the turnarounds, refresh)
/// belong to the rank. A fresh bank is precharged with no pending
/// constraint.
#[derive(Debug, Clone, Default)]
pub(crate) struct Bank {
    /// The row in the row buffer; `None` while the bank is precharged.
    open_row: Option<u64>,
    /// Earliest cycle an ACT may be issued.
    next_activate: Cycle,
    /// Earliest cycle a PRE may be issued.
    next_precharge: Cycle,
    /// Earliest cycle a column command (RD/WR) may be issued.
    next_column: Cycle,
    /// Cycle of the most recent ACT (for active-time accounting).
    last_activate: Cycle,
    /// Total cycles this bank has spent with a row open.
    active_cycles: Cycle,
}

impl Bank {
    /// The currently open row, if any.
    pub(crate) fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Total cycles this bank has spent with a row open, up to the last
    /// precharge. Call [`Bank::close_accounting`] at the end of simulation
    /// to include a still-open row.
    pub(crate) fn active_cycles(&self) -> Cycle {
        self.active_cycles
    }

    /// Finalizes active-time accounting at `now` (treats a still-open row
    /// as closing now). Idempotent only if the bank is precharged.
    pub(crate) fn close_accounting(&mut self, now: Cycle) {
        if self.open_row.is_some() {
            self.active_cycles += now.saturating_sub(self.last_activate);
            self.last_activate = now;
        }
    }

    /// Earliest cycle at which `cmd` targeting `row` could legally be
    /// issued, considering only this bank's constraints. Returns `None` if
    /// the command is illegal in the current state regardless of time
    /// (e.g. a READ while precharged, or an ACT while a different row is
    /// open).
    pub(crate) fn earliest_issue(&self, cmd: MemCommand, row: u64) -> Option<Cycle> {
        match (cmd, self.open_row) {
            (MemCommand::Activate, None) => Some(self.next_activate),
            (MemCommand::Activate, Some(_)) => None,
            (MemCommand::Precharge, _) => Some(self.next_precharge),
            (MemCommand::Read | MemCommand::Write, Some(open)) if open == row => {
                Some(self.next_column)
            }
            (MemCommand::Read | MemCommand::Write, _) => None,
            // A REF needs this bank precharged and past its ACT constraints;
            // the rank adds its own.
            (MemCommand::Refresh, None) => Some(self.next_activate),
            (MemCommand::Refresh, Some(_)) => None,
        }
    }

    /// Applies `cmd` at cycle `now`, updating state and future constraints.
    /// A REF is applied to every bank of its rank: it holds off their
    /// ACTs for `tRFC`.
    ///
    /// The command must be legal at `now`: `DramDevice::issue` checks this
    /// bank's [`Bank::earliest_issue`] (every bank of the rank for a REF)
    /// before it applies the command here.
    pub(crate) fn issue(&mut self, cmd: MemCommand, row: u64, now: Cycle, t: &TimingsInCycles) {
        match cmd {
            MemCommand::Activate => {
                self.open_row = Some(row);
                self.last_activate = now;
                self.next_activate = now + t.t_rc;
                self.next_precharge = now + t.t_ras;
                self.next_column = now + t.t_rcd;
            }
            MemCommand::Precharge => {
                if self.open_row.take().is_some() {
                    self.active_cycles += now - self.last_activate;
                }
                self.next_activate = self.next_activate.max(now + t.t_rp);
            }
            MemCommand::Read => {
                self.next_precharge = self.next_precharge.max(now + t.t_rtp);
            }
            MemCommand::Write => {
                self.next_precharge = self.next_precharge.max(now + t.t_cwl + t.t_bl + t.t_wr);
            }
            MemCommand::Refresh => {
                self.next_activate = self.next_activate.max(now + t.t_rfc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_types::TimeConverter;

    fn timings() -> TimingsInCycles {
        crate::DramTimings::ddr4_2400().into_cycles(&TimeConverter::default())
    }

    /// Whether `cmd` targeting `row` may be issued at `now` per the bank's
    /// own constraints.
    fn can_issue(b: &Bank, cmd: MemCommand, row: u64, now: Cycle) -> bool {
        b.earliest_issue(cmd, row).is_some_and(|t| t <= now)
    }

    #[test]
    fn fresh_bank_allows_only_activate_and_precharge() {
        let b = Bank::default();
        assert!(can_issue(&b, MemCommand::Activate, 5, 0));
        assert!(can_issue(&b, MemCommand::Precharge, 5, 0));
        assert!(!can_issue(&b, MemCommand::Read, 5, 0));
        assert!(!can_issue(&b, MemCommand::Write, 5, 0));
    }

    #[test]
    fn activate_opens_row_and_blocks_new_activate_for_trc() {
        let t = timings();
        let mut b = Bank::default();
        b.issue(MemCommand::Activate, 7, 0, &t);
        assert_eq!(b.open_row(), Some(7));
        assert!(
            !can_issue(&b, MemCommand::Activate, 8, 1),
            "row already open"
        );
        // Even after precharging, an ACT-to-ACT gap of at least tRC (and of
        // tRAS + tRP, which can exceed tRC by a cycle due to rounding) is
        // enforced.
        assert!(can_issue(&b, MemCommand::Precharge, 7, t.t_ras));
        b.issue(MemCommand::Precharge, 7, t.t_ras, &t);
        assert!(!can_issue(&b, MemCommand::Activate, 8, t.t_rc - 1));
        let next_act = b.earliest_issue(MemCommand::Activate, 8).unwrap();
        assert!(next_act >= t.t_rc && next_act <= (t.t_ras + t.t_rp).max(t.t_rc));
        assert!(can_issue(&b, MemCommand::Activate, 8, next_act));
    }

    #[test]
    fn read_requires_trcd_after_activate() {
        let t = timings();
        let mut b = Bank::default();
        b.issue(MemCommand::Activate, 7, 0, &t);
        assert!(!can_issue(&b, MemCommand::Read, 7, t.t_rcd - 1));
        assert!(can_issue(&b, MemCommand::Read, 7, t.t_rcd));
        assert!(!can_issue(&b, MemCommand::Read, 8, t.t_rcd), "wrong row");
    }

    #[test]
    fn precharge_must_wait_for_tras() {
        let t = timings();
        let mut b = Bank::default();
        b.issue(MemCommand::Activate, 1, 0, &t);
        assert!(!can_issue(&b, MemCommand::Precharge, 1, t.t_ras - 1));
        assert!(can_issue(&b, MemCommand::Precharge, 1, t.t_ras));
    }

    #[test]
    fn write_extends_precharge_constraint() {
        let t = timings();
        let mut b = Bank::default();
        b.issue(MemCommand::Activate, 1, 0, &t);
        let wr_at = t.t_rcd;
        b.issue(MemCommand::Write, 1, wr_at, &t);
        let pre_earliest = wr_at + t.t_cwl + t.t_bl + t.t_wr;
        assert!(!can_issue(&b, MemCommand::Precharge, 1, pre_earliest - 1));
        assert!(can_issue(&b, MemCommand::Precharge, 1, pre_earliest));
    }

    #[test]
    fn activation_rate_is_bounded_by_trc() {
        // Hammer a single row as fast as the bank allows and verify the
        // achievable rate equals tREFW / tRC (the physical upper bound the
        // paper's threat model assumes).
        let t = timings();
        let mut b = Bank::default();
        let mut now = 0;
        let mut acts = 0u64;
        let horizon = t.t_rc * 1000;
        while now < horizon {
            let open_at = b.earliest_issue(MemCommand::Activate, 9).unwrap();
            now = now.max(open_at);
            if now >= horizon {
                break;
            }
            b.issue(MemCommand::Activate, 9, now, &t);
            acts += 1;
            let pre_at = b.earliest_issue(MemCommand::Precharge, 9).unwrap();
            b.issue(MemCommand::Precharge, 9, pre_at, &t);
        }
        // The achievable rate is bounded below by tRAS + tRP (the rounded
        // act/pre loop period) and above by tRC.
        let period = (t.t_ras + t.t_rp).max(t.t_rc);
        assert!(acts <= horizon / t.t_rc + 1);
        assert!(acts >= horizon / period - 1);
    }

    #[test]
    fn active_cycles_accumulate_between_act_and_pre() {
        let t = timings();
        let mut b = Bank::default();
        b.issue(MemCommand::Activate, 1, 0, &t);
        b.issue(MemCommand::Precharge, 1, t.t_ras, &t);
        assert_eq!(b.active_cycles(), t.t_ras);
        let act2 = b.earliest_issue(MemCommand::Activate, 2).unwrap();
        b.issue(MemCommand::Activate, 2, act2, &t);
        b.close_accounting(act2 + 100);
        assert_eq!(b.active_cycles(), t.t_ras + 100);
    }
}
