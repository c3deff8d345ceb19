//! The top-level DRAM device: the channel's banks and ranks plus
//! statistics.

use crate::bank::Bank;
use crate::rank::Rank;
use crate::stats::DramStats;
use crate::timings::TimingsInCycles;
use bh_types::{Cycle, DramAddress, DramOrganization, MemCommand};
use std::cell::Cell;

/// Result of issuing a command to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueOutcome {
    /// Cycle at which the command's effect completes (data available for
    /// reads, burst finished for writes, tRFC elapsed for refreshes).
    pub completes_at: Cycle,
}

/// The DRAM of one memory channel with cycle-accurate command legality
/// checks. An address's channel coordinate is not consulted: a system
/// with several channels has one device per channel, each behind its own
/// memory controller.
///
/// The device is the one owner of the channel's bank state. It keeps every
/// bank once, by the bank index [`DramOrganization::bank_of`] gives, with
/// its open row and its own timing, and per rank only the timing the rank's
/// banks share. It answers each bank's open row
/// ([`DramDevice::open_row_of`]) and the set of open banks
/// ([`DramDevice::open_banks`]).
///
/// The device is passive: the memory controller decides *what* to issue and
/// asks the device *when* it may legally do so, either per command
/// ([`DramDevice::can_issue`], from the rank's and the bank's state) or for
/// a whole set of banks at once ([`DramDevice::legal_banks`]). The latter
/// reads each bank's own earliest cycle next to a ready-time table that
/// holds, per bank group, the rank-level earliest ACT, PRE, RD and WR.
/// [`DramDevice::issue`] is the only place device state changes: it
/// updates the issued bank (every bank of the rank for a REF), the open
/// set and its rank's bank-group entries.
#[derive(Debug, Clone)]
pub struct DramDevice {
    organization: DramOrganization,
    timings: TimingsInCycles,
    /// Per rank, the timing its banks share.
    ranks: Vec<Rank>,
    /// Every bank of the channel, by bank index.
    banks: Vec<Bank>,
    /// The bank set of the banks with an open row.
    open_banks: u64,
    stats: DramStats,
    /// Per bank group of the channel (`rank * bank_groups + bank_group`),
    /// the rank-level earliest cycle of each [`READY_COMMANDS`] entry.
    group_ready: Vec<[Cycle; 4]>,
    /// Earliest cycle at which a command [`DramDevice::can_issue`] or
    /// [`DramDevice::legal_banks`] refused on timing would pass, since the
    /// last [`DramDevice::take_retry_at`].
    retry_at: Cell<Cycle>,
}

/// The commands the ready-time table answers for, in table-column order.
const READY_COMMANDS: [MemCommand; 4] = [
    MemCommand::Activate,
    MemCommand::Precharge,
    MemCommand::Read,
    MemCommand::Write,
];

/// The ready-time table column of `cmd` (`None` for REF, which is
/// rank-wide and asked through [`DramDevice::can_issue`]).
fn ready_column(cmd: MemCommand) -> Option<usize> {
    READY_COMMANDS.iter().position(|&c| c == cmd)
}

/// The banks of a bank set (bit `i` set for the bank with index `i`
/// within the channel, as [`DramDevice::legal_banks`] takes and
/// returns them), in ascending order: lowest set bit first.
pub fn banks_in(mut set: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (set != 0).then(|| {
            let bank = set.trailing_zeros() as usize;
            set &= set - 1;
            bank
        })
    })
}

impl DramDevice {
    /// Creates the device of one channel with the given organization and
    /// timing parameters.
    ///
    /// # Panics
    ///
    /// Panics if the organization fails validation (zero-sized dimension),
    /// `organization.channels` is not 1, or the channel has more than 64
    /// banks (bank sets are `u64`s).
    pub fn new(organization: DramOrganization, timings: TimingsInCycles) -> Self {
        // lint: allow(panic-freedom) -- documented constructor contract; DramOrganization::validate is the fallible path
        organization.validate().expect("invalid DRAM organization");
        assert_eq!(
            organization.channels, 1,
            "a DRAM device models exactly one channel"
        );
        assert!(
            organization.banks_per_channel() <= 64,
            "a DRAM device models at most 64 banks"
        );
        let mut device = Self {
            organization,
            timings,
            ranks: vec![Rank::default(); organization.ranks],
            banks: vec![Bank::default(); organization.banks_per_channel()],
            open_banks: 0,
            stats: DramStats::new(organization.ranks),
            group_ready: vec![[0; 4]; organization.ranks * organization.bank_groups],
            retry_at: Cell::new(Cycle::MAX),
        };
        for rank in 0..organization.ranks {
            device.refresh_ready(rank);
        }
        device
    }

    /// Recomputes `rank`'s bank-group entries of the ready-time table.
    fn refresh_ready(&mut self, rank: usize) {
        let bank_groups = self.organization.bank_groups;
        let state = &self.ranks[rank];
        for bank_group in 0..bank_groups {
            let entry = &mut self.group_ready[rank * bank_groups + bank_group];
            for (at, cmd) in entry.iter_mut().zip(READY_COMMANDS) {
                *at = state.earliest_rank_level(cmd, bank_group, &self.timings);
            }
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

    /// The currently open row in the bank addressed by `addr`, if any.
    pub fn open_row(&self, addr: &DramAddress) -> Option<u64> {
        self.banks[self.organization.bank_of(addr)].open_row()
    }

    /// The currently open row of the bank with index `bank`, if any: the
    /// index-based counterpart of [`DramDevice::open_row`], for a scheduler
    /// that tracks banks by index.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn open_row_of(&self, bank: usize) -> Option<u64> {
        self.banks[bank].open_row()
    }

    /// The bank set of the banks with an open row (bit `i` for the bank
    /// with index `i`).
    pub fn open_banks(&self) -> u64 {
        self.open_banks
    }

    /// Earliest cycle at which `cmd` to `addr` could be legally issued, or
    /// `None` if it is illegal in the current state (wrong row open, bank
    /// not activated, an open bank in the rank of a REF, ...).
    pub fn earliest_issue(&self, cmd: MemCommand, addr: &DramAddress) -> Option<Cycle> {
        let rank_level =
            self.ranks[addr.rank()].earliest_rank_level(cmd, addr.bank_group(), &self.timings);
        if cmd == MemCommand::Refresh {
            // Every bank of the rank must be precharged and ready.
            return self.banks[self.organization.rank_banks(addr.rank())]
                .iter()
                .try_fold(rank_level, |at, bank| {
                    Some(at.max(bank.earliest_issue(cmd, 0)?))
                });
        }
        let bank_level =
            self.banks[self.organization.bank_of(addr)].earliest_issue(cmd, addr.row())?;
        Some(rank_level.max(bank_level))
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

    /// The banks of the bank set `banks` (bit `i` is the bank with index
    /// `i` within the channel) on which `cmd` may be issued at `now`, a
    /// column command addressing the bank's open row. It answers
    /// exactly as [`DramDevice::can_issue`] would per bank, in one pass: a
    /// bank passes when the larger of its bank-group entry in the
    /// ready-time table and its own earliest cycle is at most `now`. A bank
    /// that is legal in its state but too early is remembered for
    /// [`DramDevice::take_retry_at`], as `can_issue` remembers it.
    ///
    /// REF is rank-wide and not a per-bank question: it yields the empty
    /// set (ask [`DramDevice::can_issue`]).
    // lint: alloc-free
    pub fn legal_banks(&self, cmd: MemCommand, banks: u64, now: Cycle) -> u64 {
        let Some(column) = ready_column(cmd) else {
            debug_assert!(false, "REF legality is rank-wide: use can_issue");
            return 0;
        };
        let banks_per_group = self.organization.banks_per_group;
        let mut legal = 0;
        let mut retry = Cycle::MAX;
        for bank in banks_in(banks) {
            let state = &self.banks[bank];
            // A column command addresses the open row; without one it is
            // illegal (`earliest_issue` refuses any row then).
            let Some(at) = state.earliest_issue(cmd, state.open_row().unwrap_or(0)) else {
                continue;
            };
            let at = at.max(self.group_ready[bank / banks_per_group][column]);
            if at <= now {
                legal |= 1 << bank;
            } else {
                retry = retry.min(at);
            }
        }
        self.debug_check_legal_banks(cmd, banks, now, legal, retry);
        self.retry_at.set(self.retry_at.get().min(retry));
        legal
    }

    /// Debug builds: checks a [`DramDevice::legal_banks`] answer (the legal
    /// set and the earliest refused cycle) against per-bank
    /// [`DramDevice::earliest_issue`] (a no-op in release builds).
    fn debug_check_legal_banks(
        &self,
        cmd: MemCommand,
        banks: u64,
        now: Cycle,
        legal: u64,
        retry: Cycle,
    ) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut expected_legal = 0;
        let mut expected_retry = Cycle::MAX;
        for bank in banks_in(banks) {
            let addr = self
                .organization
                .bank_address(bank, self.open_row_of(bank).unwrap_or(0));
            match self.earliest_issue(cmd, &addr) {
                Some(at) if at <= now => expected_legal |= 1 << bank,
                Some(at) => expected_retry = expected_retry.min(at),
                None => {}
            }
        }
        debug_assert_eq!(
            (legal, retry),
            (expected_legal, expected_retry),
            "ready-time table diverged from the ranks on {cmd} at cycle {now}"
        );
    }

    /// The earliest cycle at which any command [`DramDevice::can_issue`]
    /// or [`DramDevice::legal_banks`] refused on timing since the previous
    /// call would pass (`Cycle::MAX` if none was), and forgets it: without
    /// an intervening command, no refused check can pass before then.
    pub fn take_retry_at(&self) -> Cycle {
        self.retry_at.replace(Cycle::MAX)
    }

    /// Issues `cmd` to `addr` at `now` and returns when it completes: for
    /// reads, when the last data beat arrives; for writes, the end of the
    /// write burst; for a REF, the end of tRFC; otherwise `now`.
    ///
    /// # Panics
    ///
    /// Panics if the command is illegal at `now`; callers must consult
    /// [`DramDevice::can_issue`] first.
    pub fn issue(&mut self, cmd: MemCommand, addr: &DramAddress, now: Cycle) -> IssueOutcome {
        assert!(
            self.earliest_issue(cmd, addr).is_some_and(|at| at <= now),
            "illegal {cmd} to {addr} at cycle {now}"
        );
        let rank = addr.rank();
        let bank = self.organization.bank_of(addr);
        let completes_at = self.ranks[rank].issue(cmd, addr.bank_group(), now, &self.timings);
        match cmd {
            // A REF holds off the ACT of every bank of its rank.
            MemCommand::Refresh => {
                for state in &mut self.banks[self.organization.rank_banks(rank)] {
                    state.issue(cmd, 0, now, &self.timings);
                }
            }
            _ => self.banks[bank].issue(cmd, addr.row(), now, &self.timings),
        }
        match cmd {
            MemCommand::Activate => {
                self.open_banks |= 1 << bank;
                self.stats.log_activation(now, bank, addr.row());
            }
            MemCommand::Precharge => self.open_banks &= !(1 << bank),
            MemCommand::Read | MemCommand::Write | MemCommand::Refresh => {}
        }
        self.refresh_ready(rank);
        self.stats.per_rank[rank].record(cmd);
        self.stats.elapsed_cycles = self.stats.elapsed_cycles.max(completes_at);
        IssueOutcome { completes_at }
    }

    /// Finalizes accounting at `now` and returns a snapshot of the
    /// statistics (command counts, active-bank cycles, activation log).
    pub fn finish(&mut self, now: Cycle) -> DramStats {
        for bank in &mut self.banks {
            bank.close_accounting(now);
        }
        for rank in 0..self.organization.ranks {
            self.stats.active_bank_cycles[rank] = self.banks[self.organization.rank_banks(rank)]
                .iter()
                .map(Bank::active_cycles)
                .sum();
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

    #[test]
    fn open_banks_track_activate_and_precharge() {
        let mut d = DramDevice::new(
            DramOrganization {
                ranks: 2,
                ..DramOrganization::default()
            },
            DramTimings::ddr4_2400().into_cycles(&TimeConverter::default()),
        );
        let t = *d.timings();
        // Bank 1 (rank 0, bank group 0) and bank 18 (rank 1, bank group 0).
        let (a, other) = (addr(0, 1, 42, 0), DramAddress::new(0, 1, 0, 2, 7, 0));
        let (bank, other_bank) = (1, 18);
        let state = |d: &DramDevice| {
            (
                d.open_banks(),
                d.open_row_of(bank),
                d.open_row_of(other_bank),
            )
        };
        assert_eq!(state(&d), (0, None, None));
        d.issue(MemCommand::Activate, &a, 0);
        assert_eq!(state(&d), (1 << bank, Some(42), None));
        d.issue(MemCommand::Activate, &other, t.t_rrd_s);
        let both = 1 << bank | 1 << other_bank;
        assert_eq!(
            state(&d),
            (both, Some(42), Some(7)),
            "other banks leave it alone"
        );
        let rd_at = d.earliest_issue(MemCommand::Read, &a).unwrap();
        d.issue(MemCommand::Read, &a, rd_at);
        assert_eq!(
            state(&d),
            (both, Some(42), Some(7)),
            "column commands keep the row"
        );
        let pre_at = d.earliest_issue(MemCommand::Precharge, &a).unwrap();
        d.issue(MemCommand::Precharge, &a, pre_at);
        assert_eq!(state(&d), (1 << other_bank, None, Some(7)));
        let ref_at = d.earliest_issue(MemCommand::Refresh, &a).unwrap();
        d.issue(MemCommand::Refresh, &a, ref_at);
        assert_eq!(
            state(&d),
            (1 << other_bank, None, Some(7)),
            "a REF changes no row"
        );
    }

    #[test]
    fn trrd_separates_activations_to_different_banks() {
        let mut d = device();
        let t = *d.timings();
        d.issue(MemCommand::Activate, &addr(0, 0, 1, 0), 0);
        // Different bank group: tRRD_S applies.
        assert!(!d.can_issue(MemCommand::Activate, &addr(1, 0, 1, 0), t.t_rrd_s - 1));
        assert!(d.can_issue(MemCommand::Activate, &addr(1, 0, 1, 0), t.t_rrd_s));
        // Same bank group: the longer tRRD_L applies.
        assert!(!d.can_issue(MemCommand::Activate, &addr(0, 1, 1, 0), t.t_rrd_l - 1));
        assert!(d.can_issue(MemCommand::Activate, &addr(0, 1, 1, 0), t.t_rrd_l));
    }

    #[test]
    fn tfaw_limits_to_four_activations_per_window() {
        let mut d = device();
        let t = *d.timings();
        let mut now = 0;
        for i in 0..4 {
            let a = addr(i % 4, i / 4, 10, 0);
            let earliest = d.earliest_issue(MemCommand::Activate, &a).unwrap();
            now = now.max(earliest);
            d.issue(MemCommand::Activate, &a, now);
        }
        // The fifth activation must wait until tFAW after the first.
        let fifth = addr(2, 2, 10, 0);
        let earliest = d.earliest_issue(MemCommand::Activate, &fifth).unwrap();
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
        let mut d = device();
        let t = *d.timings();
        let horizon = t.t_faw * 100;
        let mut now = 0;
        let mut acts: Vec<Cycle> = Vec::new();
        let mut bank_cursor = 0usize;
        while now < horizon {
            let bg = bank_cursor % 4;
            let ba = (bank_cursor / 4) % 4;
            bank_cursor += 1;
            let a = addr(bg, ba, (bank_cursor % 7) as u64, 0);
            let Some(mut at) = d.earliest_issue(MemCommand::Activate, &a) else {
                // Row open in that bank: precharge first.
                let pre_at = d.earliest_issue(MemCommand::Precharge, &a).unwrap();
                d.issue(MemCommand::Precharge, &a, pre_at.max(now));
                continue;
            };
            at = at.max(now);
            if at >= horizon {
                break;
            }
            d.issue(MemCommand::Activate, &a, at);
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
        let mut d = device();
        let t = *d.timings();
        let a = addr(0, 0, 3, 0);
        d.issue(MemCommand::Activate, &a, 0);
        assert!(d.earliest_issue(MemCommand::Refresh, &a).is_none());
        let pre_at = d.earliest_issue(MemCommand::Precharge, &a).unwrap();
        d.issue(MemCommand::Precharge, &a, pre_at);
        let ref_at = d.earliest_issue(MemCommand::Refresh, &a).unwrap();
        let done = d.issue(MemCommand::Refresh, &a, ref_at).completes_at;
        assert_eq!(done, ref_at + t.t_rfc);
        // No activation can proceed during tRFC.
        assert!(!d.can_issue(MemCommand::Activate, &a, ref_at + t.t_rfc - 1));
        assert!(d.can_issue(MemCommand::Activate, &a, ref_at + t.t_rfc));
    }

    #[test]
    fn write_to_read_turnaround_is_enforced() {
        let mut d = device();
        let t = *d.timings();
        let a = addr(0, 0, 3, 0);
        let b = addr(1, 0, 4, 0);
        d.issue(MemCommand::Activate, &a, 0);
        let act_b_at = d.earliest_issue(MemCommand::Activate, &b).unwrap();
        d.issue(MemCommand::Activate, &b, act_b_at);
        let wr_at = d.earliest_issue(MemCommand::Write, &a).unwrap();
        d.issue(MemCommand::Write, &a, wr_at);
        let rd_at = d.earliest_issue(MemCommand::Read, &b).unwrap();
        assert!(
            rd_at >= wr_at + t.t_cwl + t.t_bl + t.t_wtr_l,
            "read allowed at {rd_at}, before the write-to-read turnaround"
        );
    }

    #[test]
    fn read_returns_data_after_cl_plus_burst() {
        let mut d = device();
        let a = addr(0, 0, 3, 0);
        d.issue(MemCommand::Activate, &a, 0);
        let rd_at = d.earliest_issue(MemCommand::Read, &a).unwrap();
        let done = d.issue(MemCommand::Read, &a, rd_at).completes_at;
        assert_eq!(done, rd_at + d.timings().read_latency());
    }
}
