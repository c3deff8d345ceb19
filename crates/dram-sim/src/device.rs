//! The top-level DRAM device: a set of ranks plus statistics.

use crate::organization::DramOrganization;
use crate::rank::Rank;
use crate::stats::DramStats;
use crate::timings::TimingsInCycles;
use bh_types::{Cycle, DramAddress, MemCommand};
use std::cell::Cell;

/// Result of issuing a command to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueOutcome {
    /// Cycle at which the command's effect completes (data available for
    /// reads, burst finished for writes, tRFC elapsed for refreshes).
    pub completes_at: Cycle,
}

/// The DRAM of one memory channel (its ranks) with cycle-accurate command
/// legality checks. An address's channel coordinate is not consulted: a
/// system with several channels has one device per channel, each behind its
/// own memory controller.
///
/// The device is passive: the memory controller decides *what* to issue and
/// asks the device *when* it may legally do so.
#[derive(Debug, Clone)]
pub struct DramDevice {
    organization: DramOrganization,
    timings: TimingsInCycles,
    ranks: Vec<Rank>,
    stats: DramStats,
    /// Earliest cycle at which a command [`DramDevice::can_issue`] refused
    /// on timing would pass, since the last [`DramDevice::take_retry_at`].
    retry_at: Cell<Cycle>,
}

impl DramDevice {
    /// Creates the device of one channel with the given organization and
    /// timing parameters.
    ///
    /// # Panics
    ///
    /// Panics if the organization fails validation (zero-sized dimension)
    /// or `organization.channels` is not 1.
    pub fn new(organization: DramOrganization, timings: TimingsInCycles) -> Self {
        // lint: allow(panic-freedom) -- documented constructor contract; DramOrganization::validate is the fallible path
        organization.validate().expect("invalid DRAM organization");
        assert_eq!(
            organization.channels, 1,
            "a DRAM device models exactly one channel"
        );
        Self {
            organization,
            timings,
            ranks: (0..organization.ranks)
                .map(|_| Rank::new(&organization))
                .collect(),
            stats: DramStats::new(organization.ranks),
            retry_at: Cell::new(Cycle::MAX),
        }
    }

    /// The device's organization.
    pub fn organization(&self) -> &DramOrganization {
        &self.organization
    }

    /// The device's timing parameters (in simulation cycles).
    pub fn timings(&self) -> &TimingsInCycles {
        &self.timings
    }

    /// Enables per-activation logging in the statistics (used by safety
    /// verification).
    pub fn enable_activation_log(&mut self) {
        self.stats.enable_activation_log();
    }

    /// Immutable access to a rank by index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn rank(&self, index: usize) -> &Rank {
        &self.ranks[index]
    }

    /// The currently open row in the bank addressed by `addr`, if any.
    pub fn open_row(&self, addr: &DramAddress) -> Option<u64> {
        let rank = &self.ranks[addr.rank()];
        rank.bank(addr.bank_in_rank(self.organization.banks_per_group))
            .open_row()
    }

    /// The currently open row of the bank identified by its rank index and
    /// its flat bank index within the rank, if any.
    ///
    /// This is the index-based counterpart of [`DramDevice::open_row`]: a
    /// scheduler that tracks banks by index (rather than by decoded
    /// address) can query row-buffer state without materialising a
    /// [`DramAddress`].
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn open_row_at(&self, rank_index: usize, bank_in_rank: usize) -> Option<u64> {
        self.ranks[rank_index].bank(bank_in_rank).open_row()
    }

    /// Earliest cycle at which `cmd` to `addr` could be legally issued, or
    /// `None` if it is illegal in the current state (wrong row open, bank
    /// not activated, ...).
    pub fn earliest_issue(&self, cmd: MemCommand, addr: &DramAddress) -> Option<Cycle> {
        self.ranks[addr.rank()].earliest_issue(cmd, addr, &self.timings)
    }

    /// Whether `cmd` to `addr` may be issued at `now`. A command that is
    /// legal in the current state but too early remembers when it becomes
    /// legal, for [`DramDevice::take_retry_at`].
    pub fn can_issue(&self, cmd: MemCommand, addr: &DramAddress, now: Cycle) -> bool {
        match self.earliest_issue(cmd, addr) {
            Some(at) if at > now => {
                self.retry_at.set(self.retry_at.get().min(at));
                false
            }
            legal => legal.is_some(),
        }
    }

    /// The earliest cycle at which any command [`DramDevice::can_issue`]
    /// refused on timing since the previous call would pass (`Cycle::MAX`
    /// if none was), and forgets it: without an intervening command, no
    /// refused check can pass before then.
    pub fn take_retry_at(&self) -> Cycle {
        self.retry_at.replace(Cycle::MAX)
    }

    /// Issues `cmd` to `addr` at `now` and returns when it completes.
    ///
    /// # Panics
    ///
    /// Panics if the command is illegal at `now`; callers must consult
    /// [`DramDevice::can_issue`] first.
    pub fn issue(&mut self, cmd: MemCommand, addr: &DramAddress, now: Cycle) -> IssueOutcome {
        let rank = addr.rank();
        let completes_at = self.ranks[rank].issue(cmd, addr, now, &self.timings);
        self.stats.per_rank[rank].record(cmd);
        if cmd == MemCommand::Activate {
            let global_bank = addr.global_bank_index(
                self.organization.ranks,
                self.organization.bank_groups,
                self.organization.banks_per_group,
            );
            self.stats.log_activation(now, global_bank, addr.row());
        }
        self.stats.elapsed_cycles = self.stats.elapsed_cycles.max(completes_at);
        IssueOutcome { completes_at }
    }

    /// Finalizes accounting at `now` and returns a snapshot of the
    /// statistics (command counts, active-bank cycles, activation log).
    pub fn finish(&mut self, now: Cycle) -> DramStats {
        for (idx, rank) in self.ranks.iter_mut().enumerate() {
            rank.close_accounting(now);
            self.stats.active_bank_cycles[idx] = rank.total_active_cycles();
        }
        self.stats.elapsed_cycles = self.stats.elapsed_cycles.max(now);
        self.stats.clone()
    }

    /// Read-only access to the running statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DramTimings;
    use bh_types::TimeConverter;

    fn device() -> DramDevice {
        DramDevice::new(
            DramOrganization::default(),
            DramTimings::ddr4_2400().into_cycles(&TimeConverter::default()),
        )
    }

    fn addr(bg: usize, bank: usize, row: u64, col: u64) -> DramAddress {
        DramAddress::new(0, 0, bg, bank, row, col)
    }

    #[test]
    #[should_panic(expected = "exactly one channel")]
    fn new_rejects_more_than_one_channel() {
        DramDevice::new(
            DramOrganization {
                channels: 2,
                ..DramOrganization::default()
            },
            DramTimings::ddr4_2400().into_cycles(&TimeConverter::default()),
        );
    }

    #[test]
    fn read_after_activate_completes_after_read_latency() {
        let mut d = device();
        let a = addr(0, 0, 42, 3);
        d.issue(MemCommand::Activate, &a, 0);
        let rd_at = d.earliest_issue(MemCommand::Read, &a).unwrap();
        let outcome = d.issue(MemCommand::Read, &a, rd_at);
        assert_eq!(outcome.completes_at, rd_at + d.timings().read_latency());
        assert_eq!(d.open_row(&a), Some(42));
    }

    #[test]
    fn stats_count_commands_and_log_activations() {
        let mut d = device();
        d.enable_activation_log();
        let a = addr(1, 2, 7, 0);
        d.issue(MemCommand::Activate, &a, 0);
        let rd_at = d.earliest_issue(MemCommand::Read, &a).unwrap();
        d.issue(MemCommand::Read, &a, rd_at);
        let stats = d.finish(rd_at + 100);
        assert_eq!(stats.totals().activates, 1);
        assert_eq!(stats.totals().reads, 1);
        assert_eq!(stats.activation_log.as_ref().unwrap().len(), 1);
        assert_eq!(stats.max_row_activations_in_window(1_000_000), Some(1));
        assert!(stats.active_bank_cycles[0] > 0);
    }

    #[test]
    fn conflicting_row_requires_precharge_first() {
        let mut d = device();
        let a = addr(0, 0, 1, 0);
        let b = addr(0, 0, 2, 0);
        d.issue(MemCommand::Activate, &a, 0);
        assert!(d.earliest_issue(MemCommand::Activate, &b).is_none());
        let pre_at = d.earliest_issue(MemCommand::Precharge, &a).unwrap();
        d.issue(MemCommand::Precharge, &a, pre_at);
        let act_at = d.earliest_issue(MemCommand::Activate, &b).unwrap();
        assert!(act_at >= d.timings().t_rc);
        d.issue(MemCommand::Activate, &b, act_at);
        assert_eq!(d.open_row(&b), Some(2));
    }

    #[test]
    fn banks_operate_independently() {
        let mut d = device();
        let a = addr(0, 0, 1, 0);
        let b = addr(2, 1, 9, 0);
        d.issue(MemCommand::Activate, &a, 0);
        let act_b = d.earliest_issue(MemCommand::Activate, &b).unwrap();
        assert!(
            act_b < d.timings().t_rc,
            "different banks need only tRRD, not tRC"
        );
        d.issue(MemCommand::Activate, &b, act_b);
        assert_eq!(d.open_row(&a), Some(1));
        assert_eq!(d.open_row(&b), Some(9));
    }

    #[test]
    fn refused_timing_checks_report_when_they_pass() {
        let d = device();
        let mut busy = device();
        let a = addr(0, 0, 1, 0);
        assert_eq!(d.take_retry_at(), Cycle::MAX);
        busy.issue(MemCommand::Activate, &a, 0);
        // Illegal in this state (no row open): nothing to wait for.
        assert!(!d.can_issue(MemCommand::Read, &a, 0));
        assert_eq!(d.take_retry_at(), Cycle::MAX);
        // Legal but early: the earliest refused cycle is kept, then reset.
        let t = *busy.timings();
        assert!(!busy.can_issue(MemCommand::Precharge, &a, 1));
        assert!(!busy.can_issue(MemCommand::Read, &a, 1));
        assert_eq!(busy.take_retry_at(), t.t_rcd.min(t.t_ras));
        assert_eq!(busy.take_retry_at(), Cycle::MAX);
    }

    #[test]
    #[should_panic(expected = "illegal")]
    fn illegal_issue_panics() {
        let mut d = device();
        let a = addr(0, 0, 1, 0);
        d.issue(MemCommand::Read, &a, 0);
    }
}
