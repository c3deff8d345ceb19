//! Command and state-residency statistics.
//!
//! These counters feed the `energy` crate (which converts them into Joules
//! with an IDD-based model) and the experiment reports (row-buffer hit
//! rates, activation counts).

use bh_types::{Cycle, MemCommand};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Per-rank counts of issued DRAM commands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommandCounts {
    /// Row activations.
    pub activates: u64,
    /// Precharges.
    pub precharges: u64,
    /// Column reads.
    pub reads: u64,
    /// Column writes.
    pub writes: u64,
    /// All-bank refreshes.
    pub refreshes: u64,
}

impl CommandCounts {
    /// Records one command of the given kind.
    pub fn record(&mut self, cmd: MemCommand) {
        match cmd {
            MemCommand::Activate => self.activates += 1,
            MemCommand::Precharge => self.precharges += 1,
            MemCommand::Read => self.reads += 1,
            MemCommand::Write => self.writes += 1,
            MemCommand::Refresh => self.refreshes += 1,
        }
    }

    /// Total column commands (reads + writes).
    pub fn column_commands(&self) -> u64 {
        self.reads + self.writes
    }

    /// Element-wise sum of two count sets.
    pub fn merged(&self, other: &CommandCounts) -> CommandCounts {
        CommandCounts {
            activates: self.activates + other.activates,
            precharges: self.precharges + other.precharges,
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            refreshes: self.refreshes + other.refreshes,
        }
    }
}

/// Aggregate statistics of a [`crate::DramDevice`] over a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DramStats {
    /// Per-rank command counts, indexed by flat rank index.
    pub per_rank: Vec<CommandCounts>,
    /// Per-rank cycles banks spent with a row open (summed over banks).
    pub active_bank_cycles: Vec<Cycle>,
    /// Total simulated cycles covered by these statistics.
    pub elapsed_cycles: Cycle,
    /// Optional log of every activation: (cycle, global bank index, row).
    /// Enabled by verification harnesses to check RowHammer safety; `None`
    /// during performance runs to avoid the memory cost.
    pub activation_log: Option<Vec<(Cycle, usize, u64)>>,
}

impl DramStats {
    /// Creates statistics storage for `ranks` ranks.
    pub fn new(ranks: usize) -> Self {
        Self {
            per_rank: vec![CommandCounts::default(); ranks],
            active_bank_cycles: vec![0; ranks],
            elapsed_cycles: 0,
            activation_log: None,
        }
    }

    /// Enables detailed activation logging (used by the safety-verification
    /// tests, which bound every row's activations per window).
    pub fn enable_activation_log(&mut self) {
        self.activation_log.get_or_insert_with(Vec::new);
    }

    /// Records an activation in the detailed log if enabled.
    pub fn log_activation(&mut self, cycle: Cycle, global_bank: usize, row: u64) {
        if let Some(log) = self.activation_log.as_mut() {
            log.push((cycle, global_bank, row));
        }
    }

    /// Appends the statistics of one channel shard to this (system-wide)
    /// accumulator.
    ///
    /// Shard-local rank and bank indices are channel-relative; callers
    /// absorb shards in channel order so that rank entries land at the
    /// flat `channel * ranks + rank` index, and pass the shard's global
    /// bank offset (`channel * banks_per_channel`) so activation-log
    /// entries keep system-wide unique bank indices.
    pub fn absorb_shard(&mut self, shard: DramStats, bank_offset: usize) {
        self.per_rank.extend(shard.per_rank);
        self.active_bank_cycles.extend(shard.active_bank_cycles);
        self.elapsed_cycles = self.elapsed_cycles.max(shard.elapsed_cycles);
        if let Some(log) = shard.activation_log {
            let merged = self.activation_log.get_or_insert_with(Vec::new);
            merged.extend(
                log.into_iter()
                    .map(|(cycle, bank, row)| (cycle, bank + bank_offset, row)),
            );
        }
    }

    /// System-wide command counts (sum over ranks).
    pub fn totals(&self) -> CommandCounts {
        self.per_rank
            .iter()
            .fold(CommandCounts::default(), |acc, c| acc.merged(c))
    }

    /// The maximum number of activations any single row received within any
    /// sliding window of `window` cycles, according to the activation log.
    ///
    /// Returns `None` if activation logging was not enabled. This is the
    /// quantity the RowHammer threshold bounds: a defense is sound iff this
    /// never exceeds `N_RH` for `window = tREFW`.
    pub fn max_row_activations_in_window(&self, window: Cycle) -> Option<u64> {
        let log = self.activation_log.as_ref()?;
        let mut per_row: HashMap<(usize, u64), Vec<Cycle>> = HashMap::new();
        for &(cycle, bank, row) in log {
            per_row.entry((bank, row)).or_default().push(cycle);
        }
        let mut worst = 0u64;
        // lint: allow(determinism) -- max over per-row window counts is order-independent
        for times in per_row.values() {
            // Activation logs are appended in issue order, so they are sorted.
            let mut lo = 0usize;
            for hi in 0..times.len() {
                while times[hi] - times[lo] >= window {
                    lo += 1;
                }
                worst = worst.max((hi - lo + 1) as u64);
            }
        }
        Some(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_classifies_commands() {
        let mut c = CommandCounts::default();
        for cmd in [
            MemCommand::Activate,
            MemCommand::Precharge,
            MemCommand::Read,
            MemCommand::Read,
            MemCommand::Write,
            MemCommand::Refresh,
        ] {
            c.record(cmd);
        }
        assert_eq!(c.activates, 1);
        assert_eq!(c.precharges, 1);
        assert_eq!(c.reads, 2);
        assert_eq!(c.writes, 1);
        assert_eq!(c.refreshes, 1);
        assert_eq!(c.column_commands(), 3);
    }

    #[test]
    fn totals_sum_over_ranks() {
        let mut s = DramStats::new(2);
        s.per_rank[0].record(MemCommand::Activate);
        s.per_rank[1].record(MemCommand::Activate);
        s.per_rank[1].record(MemCommand::Read);
        let t = s.totals();
        assert_eq!(t.activates, 2);
        assert_eq!(t.reads, 1);
    }

    #[test]
    fn sliding_window_activation_count_is_correct() {
        let mut s = DramStats::new(1);
        s.enable_activation_log();
        // Row 5: activations at cycles 0, 10, 20, 1000.
        for c in [0, 10, 20, 1000] {
            s.log_activation(c, 0, 5);
        }
        // Row 6: activations at 0..9 (10 of them).
        for c in 0..10 {
            s.log_activation(c, 0, 6);
        }
        assert_eq!(s.max_row_activations_in_window(100), Some(10));
        assert_eq!(s.max_row_activations_in_window(5), Some(5));
        assert_eq!(s.max_row_activations_in_window(10_000), Some(10));
    }

    #[test]
    fn absorb_shard_concatenates_ranks_and_offsets_banks() {
        let mut merged = DramStats::new(0);
        let mut shard0 = DramStats::new(1);
        shard0.enable_activation_log();
        shard0.per_rank[0].record(MemCommand::Activate);
        shard0.log_activation(10, 3, 7);
        shard0.elapsed_cycles = 100;
        let mut shard1 = DramStats::new(1);
        shard1.enable_activation_log();
        shard1.per_rank[0].record(MemCommand::Read);
        shard1.log_activation(20, 3, 7);
        shard1.elapsed_cycles = 90;
        merged.absorb_shard(shard0, 0);
        merged.absorb_shard(shard1, 16);
        assert_eq!(merged.per_rank.len(), 2);
        assert_eq!(merged.totals().activates, 1);
        assert_eq!(merged.totals().reads, 1);
        assert_eq!(merged.elapsed_cycles, 100);
        let log = merged.activation_log.as_ref().unwrap();
        assert_eq!(log, &vec![(10, 3, 7), (20, 19, 7)]);
    }

    #[test]
    fn window_count_none_without_log() {
        let s = DramStats::new(1);
        assert_eq!(s.max_row_activations_in_window(100), None);
    }
}
