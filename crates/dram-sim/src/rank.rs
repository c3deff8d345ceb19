//! The timing a rank's banks share: tRRD, tFAW, tCCD, the read/write
//! turnarounds and refresh.

use crate::timings::TimingsInCycles;
use bh_types::{Cycle, MemCommand};
use std::collections::VecDeque;

/// The rank-level constraints of a DRAM rank: its banks share the command
/// and data buses, the activation-rate windows (tRRD / tFAW) and refresh.
/// The banks themselves, with their own constraints, belong to the
/// device.
#[derive(Debug, Clone, Default)]
pub(crate) struct Rank {
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
    /// Earliest cycle at which `cmd` to a bank of `bank_group` satisfies
    /// the rank-level constraints. A REF also needs every bank of the rank
    /// precharged and past its own constraints, which the caller checks on
    /// the banks.
    pub(crate) fn earliest_rank_level(
        &self,
        cmd: MemCommand,
        bank_group: usize,
        t: &TimingsInCycles,
    ) -> Cycle {
        let after_refresh = self.refresh_busy_until;
        // tCCD after the last column command: long within a bank group.
        let after_column = || {
            self.last_column.map_or(0, |(when, bg)| {
                when + if bg == bank_group {
                    t.t_ccd_l
                } else {
                    t.t_ccd_s
                }
            })
        };
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
                earliest
            }
            MemCommand::Read => after_refresh.max(self.next_read).max(after_column()),
            MemCommand::Write => after_refresh.max(self.next_write).max(after_column()),
            MemCommand::Precharge | MemCommand::Refresh => after_refresh,
        }
    }

    /// Records `cmd` to a bank of `bank_group`, issued at `now`, in the
    /// rank-level state. The caller has checked its legality and applies
    /// it to the bank (or, for a REF, to every bank of the rank).
    ///
    /// Returns the cycle at which the command's effect completes: for reads,
    /// when the last data beat arrives; for writes, the end of the write
    /// burst; for a REF, the end of tRFC; for other commands, `now`.
    pub(crate) fn issue(
        &mut self,
        cmd: MemCommand,
        bank_group: usize,
        now: Cycle,
        timings: &TimingsInCycles,
    ) -> Cycle {
        match cmd {
            MemCommand::Activate => {
                if self.recent_activations.len() == 4 {
                    self.recent_activations.pop_front();
                }
                self.recent_activations.push_back(now);
                self.last_activate = Some((now, bank_group));
                now
            }
            MemCommand::Read => {
                self.last_column = Some((now, bank_group));
                // Read-to-write turnaround: the write burst must not collide
                // with the read burst on the shared data bus.
                self.next_write = self
                    .next_write
                    .max(now + timings.t_cl + timings.t_bl - timings.t_cwl.min(timings.t_cl) + 2);
                now + timings.read_latency()
            }
            MemCommand::Write => {
                self.last_column = Some((now, bank_group));
                // Write-to-read turnaround (tWTR after the write burst).
                self.next_read = self
                    .next_read
                    .max(now + timings.t_cwl + timings.t_bl + timings.t_wtr_l);
                now + timings.write_latency()
            }
            MemCommand::Precharge => now,
            MemCommand::Refresh => {
                self.refresh_busy_until = now + timings.t_rfc;
                self.refresh_busy_until
            }
        }
    }
}
