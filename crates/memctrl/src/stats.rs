//! Memory controller statistics.

use bh_types::Cycle;
use serde::{Deserialize, Serialize};

/// Counters the controller accumulates during a run.
///
/// Row-buffer outcome classification follows the usual definitions: a *hit*
/// finds the target row already open, a *miss* finds the bank precharged
/// (only an ACT is needed), a *conflict* finds a different row open (PRE
/// then ACT are needed).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CtrlStats {
    /// Demand requests accepted into the queues.
    pub accepted_requests: u64,
    /// Requests rejected because the target queue was full.
    pub rejected_queue_full: u64,
    /// Requests rejected because the issuing thread exceeded its defense
    /// quota (AttackThrottler).
    pub rejected_quota: u64,
    /// Column commands that hit an open row.
    pub row_hits: u64,
    /// Activations issued to a precharged bank.
    pub row_misses: u64,
    /// Precharges issued to resolve a row conflict.
    pub row_conflicts: u64,
    /// Demand reads completed.
    pub reads_completed: u64,
    /// Demand writes completed.
    pub writes_completed: u64,
    /// Victim-refresh activations performed on behalf of the defense.
    pub victim_refreshes_performed: u64,
    /// Auto-refresh (REF) commands issued.
    pub auto_refreshes: u64,
    /// Activations whose issue was delayed at least once because the
    /// defense reported them unsafe.
    pub activations_delayed_by_defense: u64,
    /// Sum of read-request latencies (arrival to data return), in cycles.
    pub total_read_latency: Cycle,
}

impl CtrlStats {
    /// Records a completed demand read with the given latency.
    pub fn record_read_completion(&mut self, latency: Cycle) {
        self.reads_completed += 1;
        self.total_read_latency += latency;
    }

    /// Average read latency in cycles (0 if no reads completed).
    pub fn average_read_latency(&self) -> f64 {
        if self.reads_completed == 0 {
            0.0
        } else {
            self.total_read_latency as f64 / self.reads_completed as f64
        }
    }

    /// Element-wise sum of two counter sets (used to aggregate the
    /// per-channel controllers of a sharded memory subsystem).
    pub fn merged(&self, other: &CtrlStats) -> CtrlStats {
        let mut out = self.clone();
        out.accepted_requests += other.accepted_requests;
        out.rejected_queue_full += other.rejected_queue_full;
        out.rejected_quota += other.rejected_quota;
        out.row_hits += other.row_hits;
        out.row_misses += other.row_misses;
        out.row_conflicts += other.row_conflicts;
        out.reads_completed += other.reads_completed;
        out.writes_completed += other.writes_completed;
        out.victim_refreshes_performed += other.victim_refreshes_performed;
        out.auto_refreshes += other.auto_refreshes;
        out.activations_delayed_by_defense += other.activations_delayed_by_defense;
        out.total_read_latency += other.total_read_latency;
        out
    }

    /// Row-buffer hit rate over all column commands.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_completion_updates_the_read_totals() {
        let mut s = CtrlStats::default();
        s.record_read_completion(100);
        s.record_read_completion(300);
        s.record_read_completion(50);
        assert_eq!(s.reads_completed, 3);
        assert_eq!(s.total_read_latency, 450);
        assert!((s.average_read_latency() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn hit_rate_handles_empty_and_mixed_cases() {
        let mut s = CtrlStats::default();
        assert_eq!(s.row_hit_rate(), 0.0);
        s.row_hits = 3;
        s.row_misses = 1;
        s.row_conflicts = 0;
        assert!((s.row_hit_rate() - 0.75).abs() < 1e-9);
    }
}
