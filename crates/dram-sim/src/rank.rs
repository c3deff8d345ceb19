//! Per-rank timing constraints: tRRD, tFAW, tCCD, tWTR, turnarounds and
//! refresh.

use crate::bank::Bank;
use crate::organization::DramOrganization;
use crate::timings::TimingsInCycles;
use bh_types::{Cycle, DramAddress, MemCommand};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A DRAM rank: a set of banks sharing command/data buses, activation-rate
/// constraints (tRRD / tFAW) and refresh.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Rank {
    banks: Vec<Bank>,
    banks_per_group: usize,
    /// Issue cycles of the most recent activations (bounded to 4, for tFAW).
    recent_activations: VecDeque<Cycle>,
    /// Cycle and bank group of the most recent ACT (for tRRD_S / tRRD_L).
    last_activate: Option<(Cycle, usize)>,
    /// Cycle and bank group of the most recent column command (for
    /// tCCD_S / tCCD_L).
    last_column: Option<(Cycle, usize)>,
    /// Earliest cycle a read column command may be issued (turnarounds).
    next_read: Cycle,
    /// Earliest cycle a write column command may be issued (turnarounds).
    next_write: Cycle,
    /// The rank is busy refreshing until this cycle.
    refresh_busy_until: Cycle,
}

impl Rank {
    /// Creates a rank with the bank layout described by `org`.
    pub fn new(org: &DramOrganization) -> Self {
        Self {
            banks: (0..org.banks_per_rank()).map(|_| Bank::new()).collect(),
            banks_per_group: org.banks_per_group,
            recent_activations: VecDeque::with_capacity(4),
            last_activate: None,
            last_column: None,
            next_read: 0,
            next_write: 0,
            refresh_busy_until: 0,
        }
    }

    /// Immutable view of a bank by its flat index within the rank.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn bank(&self, index: usize) -> &Bank {
        &self.banks[index]
    }

    /// Flat bank index for an address within this rank.
    fn bank_index(&self, addr: &DramAddress) -> usize {
        addr.bank_group() * self.banks_per_group + addr.bank()
    }

    /// Whether all banks are precharged (required before refresh).
    pub fn all_banks_precharged(&self) -> bool {
        self.banks.iter().all(|b| b.open_row().is_none())
    }

    /// Earliest cycle at which `cmd` to a bank of `bank_group` satisfies
    /// *rank-level* constraints. Returns `None` if the command is illegal
    /// in the current state (e.g. REF with an open row).
    pub(crate) fn earliest_rank_level(
        &self,
        cmd: MemCommand,
        bank_group: usize,
        t: &TimingsInCycles,
    ) -> Option<Cycle> {
        let after_refresh = self.refresh_busy_until;
        match cmd {
            MemCommand::Activate => {
                let mut earliest = after_refresh;
                if let Some((when, bg)) = self.last_activate {
                    let rrd = if bg == bank_group {
                        // Same bank group: long tRRD.
                        t.t_rrd_l
                    } else {
                        t.t_rrd_s
                    };
                    earliest = earliest.max(when + rrd);
                }
                if self.recent_activations.len() == 4 {
                    // lint: allow(panic-freedom) -- guarded by the length check on the previous line
                    let oldest = *self.recent_activations.front().expect("len checked");
                    earliest = earliest.max(oldest + t.t_faw);
                }
                Some(earliest)
            }
            MemCommand::Read => {
                let mut earliest = after_refresh.max(self.next_read);
                if let Some((when, bg)) = self.last_column {
                    let ccd = if bg == bank_group {
                        t.t_ccd_l
                    } else {
                        t.t_ccd_s
                    };
                    earliest = earliest.max(when + ccd);
                }
                Some(earliest)
            }
            MemCommand::Write => {
                let mut earliest = after_refresh.max(self.next_write);
                if let Some((when, bg)) = self.last_column {
                    let ccd = if bg == bank_group {
                        t.t_ccd_l
                    } else {
                        t.t_ccd_s
                    };
                    earliest = earliest.max(when + ccd);
                }
                Some(earliest)
            }
            MemCommand::Precharge => Some(after_refresh),
            MemCommand::Refresh => {
                if self.all_banks_precharged() {
                    Some(after_refresh)
                } else {
                    None
                }
            }
        }
    }

    /// Earliest cycle at which `cmd` to `addr` satisfies both bank-level and
    /// rank-level constraints, or `None` if it is illegal in the current
    /// state.
    pub fn earliest_issue(
        &self,
        cmd: MemCommand,
        addr: &DramAddress,
        timings: &TimingsInCycles,
    ) -> Option<Cycle> {
        let rank_level = self.earliest_rank_level(cmd, addr.bank_group(), timings)?;
        match cmd {
            MemCommand::Refresh => {
                // Must be legal on every bank; take the max over banks.
                let mut earliest = rank_level;
                for bank in &self.banks {
                    earliest = earliest.max(bank.earliest_issue(cmd, 0)?);
                }
                Some(earliest)
            }
            _ => {
                let bank = &self.banks[self.bank_index(addr)];
                let bank_level = bank.earliest_issue(cmd, addr.row())?;
                Some(rank_level.max(bank_level))
            }
        }
    }

    /// Whether `cmd` to `addr` may be issued at `now`.
    pub fn can_issue(
        &self,
        cmd: MemCommand,
        addr: &DramAddress,
        now: Cycle,
        timings: &TimingsInCycles,
    ) -> bool {
        self.earliest_issue(cmd, addr, timings)
            .is_some_and(|t| t <= now)
    }

    /// Issues `cmd` to `addr` at `now`.
    ///
    /// Returns the cycle at which the command's effect completes: for reads,
    /// when the last data beat arrives; for writes, the end of the write
    /// burst; for other commands, `now`.
    ///
    /// # Panics
    ///
    /// Panics if the command is not legal at `now`.
    pub fn issue(
        &mut self,
        cmd: MemCommand,
        addr: &DramAddress,
        now: Cycle,
        timings: &TimingsInCycles,
    ) -> Cycle {
        assert!(
            self.can_issue(cmd, addr, now, timings),
            "illegal {cmd} to {addr} at cycle {now}"
        );
        let bank_idx = self.bank_index(addr);
        match cmd {
            MemCommand::Activate => {
                self.banks[bank_idx].issue(cmd, addr.row(), now, timings);
                if self.recent_activations.len() == 4 {
                    self.recent_activations.pop_front();
                }
                self.recent_activations.push_back(now);
                self.last_activate = Some((now, addr.bank_group()));
                now
            }
            MemCommand::Read => {
                self.banks[bank_idx].issue(cmd, addr.row(), now, timings);
                self.last_column = Some((now, addr.bank_group()));
                // Read-to-write turnaround: the write burst must not collide
                // with the read burst on the shared data bus.
                self.next_write = self
                    .next_write
                    .max(now + timings.t_cl + timings.t_bl - timings.t_cwl.min(timings.t_cl) + 2);
                now + timings.read_latency()
            }
            MemCommand::Write => {
                self.banks[bank_idx].issue(cmd, addr.row(), now, timings);
                self.last_column = Some((now, addr.bank_group()));
                // Write-to-read turnaround (tWTR after the write burst).
                self.next_read = self
                    .next_read
                    .max(now + timings.t_cwl + timings.t_bl + timings.t_wtr_l);
                now + timings.write_latency()
            }
            MemCommand::Precharge => {
                self.banks[bank_idx].issue(cmd, addr.row(), now, timings);
                now
            }
            MemCommand::Refresh => {
                self.refresh_busy_until = now + timings.t_rfc;
                for bank in &mut self.banks {
                    bank.delay_activate_until(self.refresh_busy_until);
                }
                self.refresh_busy_until
            }
        }
    }

    /// Finalizes bank active-time accounting at `now`.
    pub fn close_accounting(&mut self, now: Cycle) {
        for bank in &mut self.banks {
            bank.close_accounting(now);
        }
    }

    /// Total cycles banks of this rank spent with a row open.
    pub fn total_active_cycles(&self) -> Cycle {
        self.banks.iter().map(Bank::active_cycles).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_types::TimeConverter;

    fn setup() -> (Rank, TimingsInCycles, DramOrganization) {
        let org = DramOrganization::default();
        let t = crate::DramTimings::ddr4_2400().into_cycles(&TimeConverter::default());
        (Rank::new(&org), t, org)
    }

    fn addr(bg: usize, bank: usize, row: u64) -> DramAddress {
        DramAddress::new(0, 0, bg, bank, row, 0)
    }

    #[test]
    fn trrd_separates_activations_to_different_banks() {
        let (mut rank, t, _) = setup();
        rank.issue(MemCommand::Activate, &addr(0, 0, 1), 0, &t);
        // Different bank group: tRRD_S applies.
        assert!(!rank.can_issue(MemCommand::Activate, &addr(1, 0, 1), t.t_rrd_s - 1, &t));
        assert!(rank.can_issue(MemCommand::Activate, &addr(1, 0, 1), t.t_rrd_s, &t));
        // Same bank group: the longer tRRD_L applies.
        assert!(!rank.can_issue(MemCommand::Activate, &addr(0, 1, 1), t.t_rrd_l - 1, &t));
        assert!(rank.can_issue(MemCommand::Activate, &addr(0, 1, 1), t.t_rrd_l, &t));
    }

    #[test]
    fn tfaw_limits_to_four_activations_per_window() {
        let (mut rank, t, _) = setup();
        let mut now = 0;
        for i in 0..4 {
            let a = addr(i % 4, i / 4, 10);
            let earliest = rank.earliest_issue(MemCommand::Activate, &a, &t).unwrap();
            now = now.max(earliest);
            rank.issue(MemCommand::Activate, &a, now, &t);
        }
        // The fifth activation must wait until tFAW after the first.
        let fifth = addr(2, 2, 10);
        let earliest = rank
            .earliest_issue(MemCommand::Activate, &fifth, &t)
            .unwrap();
        assert!(
            earliest >= t.t_faw,
            "5th ACT allowed at {earliest}, before tFAW={}",
            t.t_faw
        );
    }

    #[test]
    fn activation_throughput_is_bounded_by_tfaw() {
        // Issue activations to many banks as fast as legality allows for a
        // long window and check the count never exceeds 4 per tFAW.
        let (mut rank, t, _) = setup();
        let horizon = t.t_faw * 100;
        let mut now = 0;
        let mut acts: Vec<Cycle> = Vec::new();
        let mut bank_cursor = 0usize;
        while now < horizon {
            let bg = bank_cursor % 4;
            let ba = (bank_cursor / 4) % 4;
            bank_cursor += 1;
            let a = addr(bg, ba, (bank_cursor % 7) as u64);
            let Some(mut at) = rank.earliest_issue(MemCommand::Activate, &a, &t) else {
                // Row open in that bank: precharge first.
                let pre_at = rank.earliest_issue(MemCommand::Precharge, &a, &t).unwrap();
                rank.issue(MemCommand::Precharge, &a, pre_at.max(now), &t);
                continue;
            };
            at = at.max(now);
            if at >= horizon {
                break;
            }
            rank.issue(MemCommand::Activate, &a, at, &t);
            acts.push(at);
            now = at;
        }
        for window_start in &acts {
            let in_window = acts
                .iter()
                .filter(|&&c| c >= *window_start && c < *window_start + t.t_faw)
                .count();
            assert!(in_window <= 4, "{in_window} ACTs within one tFAW");
        }
    }

    #[test]
    fn refresh_requires_all_banks_precharged_and_blocks_rank() {
        let (mut rank, t, _) = setup();
        let a = addr(0, 0, 3);
        rank.issue(MemCommand::Activate, &a, 0, &t);
        assert!(rank.earliest_issue(MemCommand::Refresh, &a, &t).is_none());
        let pre_at = rank.earliest_issue(MemCommand::Precharge, &a, &t).unwrap();
        rank.issue(MemCommand::Precharge, &a, pre_at, &t);
        let ref_at = rank.earliest_issue(MemCommand::Refresh, &a, &t).unwrap();
        let done = rank.issue(MemCommand::Refresh, &a, ref_at, &t);
        assert_eq!(done, ref_at + t.t_rfc);
        // No activation can proceed during tRFC.
        assert!(!rank.can_issue(MemCommand::Activate, &a, ref_at + t.t_rfc - 1, &t));
        assert!(rank.can_issue(MemCommand::Activate, &a, ref_at + t.t_rfc, &t));
    }

    #[test]
    fn write_to_read_turnaround_is_enforced() {
        let (mut rank, t, _) = setup();
        let a = addr(0, 0, 3);
        let b = addr(1, 0, 4);
        rank.issue(MemCommand::Activate, &a, 0, &t);
        let act_b_at = rank.earliest_issue(MemCommand::Activate, &b, &t).unwrap();
        rank.issue(MemCommand::Activate, &b, act_b_at, &t);
        let wr_at = rank.earliest_issue(MemCommand::Write, &a, &t).unwrap();
        rank.issue(MemCommand::Write, &a, wr_at, &t);
        let rd_at = rank.earliest_issue(MemCommand::Read, &b, &t).unwrap();
        assert!(
            rd_at >= wr_at + t.t_cwl + t.t_bl + t.t_wtr_l,
            "read allowed at {rd_at}, before the write-to-read turnaround"
        );
    }

    #[test]
    fn read_returns_data_after_cl_plus_burst() {
        let (mut rank, t, _) = setup();
        let a = addr(0, 0, 3);
        rank.issue(MemCommand::Activate, &a, 0, &t);
        let rd_at = rank.earliest_issue(MemCommand::Read, &a, &t).unwrap();
        let done = rank.issue(MemCommand::Read, &a, rd_at, &t);
        assert_eq!(done, rd_at + t.read_latency());
    }
}
