//! Graphene: strong yet lightweight row hammer protection
//! (Park et al., MICRO 2020).
//!
//! Graphene adapts the Misra–Gries frequent-element algorithm to detect the
//! most frequently activated rows of each bank with a small table of
//! (address, counter) pairs plus a spillover counter. Whenever a tracked
//! row's estimated count reaches a multiple of the refresh threshold, its
//! neighbours are refreshed. Misra–Gries guarantees no row can exceed the
//! threshold undetected, making Graphene deterministic.

use crate::defense::{DefenseStats, MetadataFootprint, RowHammerDefense, RowHammerThreshold};
use crate::geometry::DefenseGeometry;
use bh_types::{Cycle, DramAddress, ThreadId};
use std::collections::BTreeMap;

/// Per-bank Misra–Gries state.
#[derive(Debug, Clone, Default)]
struct BankTable {
    /// Tracked rows and their estimated activation counts.
    counters: BTreeMap<u64, u64>,
    /// The spillover counter (lower bound for every untracked row).
    spillover: u64,
    /// Last multiple of the threshold at which each tracked row triggered a
    /// neighbour refresh.
    refreshed_at: BTreeMap<u64, u64>,
}

/// The Graphene deterministic frequent-element mechanism.
#[derive(Debug, Clone)]
pub struct Graphene {
    banks: Vec<BankTable>,
    /// Refresh threshold: neighbours are refreshed every time a row's
    /// estimated count crosses another multiple of this value.
    threshold: u64,
    /// Table entries per bank (Misra–Gries width).
    table_entries: usize,
    /// Counter-reset interval in cycles (the estimation window).
    reset_interval: Cycle,
    next_reset: Cycle,
    geometry: DefenseGeometry,
    stats: DefenseStats,
}

impl Graphene {
    /// Creates Graphene for a RowHammer threshold, following the sizing
    /// rules of the original paper: the refresh threshold is a quarter of
    /// the double-sided RowHammer threshold, counters reset every quarter
    /// of the refresh window, and the table is wide enough that an
    /// untracked row can never reach the threshold within one window.
    pub fn new(n_rh: RowHammerThreshold, geometry: DefenseGeometry) -> Self {
        let n_star = n_rh.double_sided().get();
        let threshold = (n_star / 4).max(1);
        let reset_interval = (geometry.refresh_window_cycles / 4).max(1);
        // Maximum activations a bank can receive within one estimation
        // window, bounded by tRC.
        let max_acts = reset_interval / geometry.t_rc_cycles.max(1);
        // Misra–Gries width: with W counters, an element not in the table
        // has count <= N / (W + 1); require that bound to stay below the
        // threshold.
        let table_entries = (max_acts.div_ceil(threshold.max(1)) as usize).max(8);
        Self {
            banks: vec![BankTable::default(); geometry.organization.banks_per_channel()],
            threshold,
            table_entries,
            reset_interval,
            next_reset: reset_interval,
            geometry,
            stats: DefenseStats::default(),
        }
    }

    /// The refresh threshold.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Misra–Gries table entries per bank.
    pub fn table_entries(&self) -> usize {
        self.table_entries
    }

    fn reset_tables(&mut self) {
        for bank in &mut self.banks {
            bank.counters.clear();
            bank.refreshed_at.clear();
            bank.spillover = 0;
        }
    }
}

impl RowHammerDefense for Graphene {
    fn name(&self) -> &'static str {
        "Graphene"
    }

    fn on_activation(
        &mut self,
        now: Cycle,
        _thread: ThreadId,
        addr: &DramAddress,
    ) -> Vec<DramAddress> {
        self.stats.record_activation();
        if now >= self.next_reset {
            self.next_reset = now + self.reset_interval;
            self.reset_tables();
        }
        let bank_idx = self.geometry.organization.bank_of(addr);
        let table_entries = self.table_entries;
        let threshold = self.threshold;
        let bank = &mut self.banks[bank_idx];
        let row = addr.row();

        // Misra–Gries update.
        let count = if let Some(c) = bank.counters.get_mut(&row) {
            *c += 1;
            *c
        } else if bank.counters.len() < table_entries {
            let start = bank.spillover + 1;
            bank.counters.insert(row, start);
            start
        } else if let Some((&victim_row, &victim_count)) =
            bank.counters.iter().find(|(_, &c)| c <= bank.spillover)
        {
            // Replace an entry whose count has fallen to the spillover
            // level: the new row inherits spillover + 1 as a safe upper
            // bound on its true count. The table is a BTreeMap, so this
            // scan deterministically evicts the smallest such row id —
            // victim choice must not depend on hash-iteration order.
            let _ = victim_count;
            bank.counters.remove(&victim_row);
            bank.refreshed_at.remove(&victim_row);
            let start = bank.spillover + 1;
            bank.counters.insert(row, start);
            start
        } else {
            bank.spillover += 1;
            bank.spillover
        };

        // Refresh neighbours every time the estimated count crosses a new
        // multiple of the threshold.
        let crossed = count / threshold;
        if crossed == 0 {
            return Vec::new();
        }
        let already = bank.refreshed_at.get(&row).copied().unwrap_or(0);
        if crossed <= already {
            return Vec::new();
        }
        bank.refreshed_at.insert(row, crossed);
        let rows = self.geometry.organization.rows_per_bank;
        let mut victims = Vec::with_capacity(2);
        for offset in [-1i64, 1] {
            if let Some(v) = addr.neighbor_row(offset, rows) {
                victims.push(v);
            }
        }
        self.stats.victim_refreshes += victims.len() as u64;
        victims
    }

    fn metadata(&self) -> MetadataFootprint {
        // Graphene is fully CAM-based: every entry stores a row tag and a
        // counter that must be compared/updated associatively.
        let banks = self.geometry.organization.banks_per_rank() as u64;
        let count_bits = 64 - u64::leading_zeros(self.threshold.max(1) * 8) as u64;
        let entry_bits = 17 + count_bits;
        MetadataFootprint::cam(banks * self.table_entries as u64 * entry_bits)
    }

    fn stats(&self) -> DefenseStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn graphene(n_rh: u64) -> Graphene {
        Graphene::new(RowHammerThreshold::new(n_rh), DefenseGeometry::default())
    }

    #[test]
    fn threshold_and_width_follow_sizing_rules() {
        let g = graphene(32_000);
        assert_eq!(g.threshold(), 4_000);
        assert!(g.table_entries() >= 8);
        let g1k = graphene(1_000);
        assert!(g1k.table_entries() > g.table_entries());
    }

    #[test]
    fn hammered_row_is_refreshed_every_threshold_activations() {
        let mut g = graphene(8_000); // threshold 1_000
        let aggressor = DramAddress::new(0, 0, 0, 0, 500, 0);
        let mut refreshes = 0usize;
        for i in 0..10_000u64 {
            refreshes += g.on_activation(i * 148, ThreadId::new(0), &aggressor).len();
        }
        // 10_000 activations / threshold 1_000 = 10 crossings, two victims
        // each.
        assert_eq!(refreshes, 20);
    }

    #[test]
    fn benign_scanning_triggers_no_refreshes_at_32k() {
        let mut g = graphene(32_000);
        let mut refreshes = 0usize;
        for i in 0..200_000u64 {
            let addr = DramAddress::new(0, 0, 0, 0, (i * 17) % 65_000, 0);
            refreshes += g.on_activation(i * 148, ThreadId::new(0), &addr).len();
        }
        assert_eq!(refreshes, 0);
    }

    #[test]
    fn untracked_rows_cannot_exceed_threshold_undetected() {
        // Misra-Gries invariant: any row's true count is at most its table
        // counter (if present) or the spillover counter. Hammer many rows to
        // churn the table and verify the invariant for a sampled row.
        let mut g = graphene(4_000);
        let mut true_counts: HashMap<u64, u64> = HashMap::new();
        for i in 0..300_000u64 {
            let row = (i * 7919) % 64; // 64 rows hammered round-robin
            *true_counts.entry(row).or_insert(0) += 1;
            g.on_activation(
                i * 148,
                ThreadId::new(0),
                &DramAddress::new(0, 0, 0, 0, row, 0),
            );
        }
        let bank = &g.banks[0];
        for (row, true_count) in true_counts {
            let bound = bank.counters.get(&row).copied().unwrap_or(bank.spillover);
            // The estimate may exceed the true count (upper bound) but the
            // true count must never exceed estimate + what previous resets
            // erased; with no reset in this horizon the bound must hold.
            assert!(
                bound + 1 >= true_count.min(g.threshold()),
                "row {row}: bound {bound} < capped true count"
            );
        }
    }

    #[test]
    fn metadata_grows_as_threshold_shrinks() {
        let at_32k = graphene(32_000).metadata().total_kib();
        let at_1k = graphene(1_000).metadata().total_kib();
        assert!(at_1k > at_32k * 5.0, "{at_32k} KiB -> {at_1k} KiB");
    }

    #[test]
    fn counters_reset_every_estimation_window() {
        let mut g = graphene(32_000);
        let addr = DramAddress::new(0, 0, 0, 0, 10, 0);
        g.on_activation(0, ThreadId::new(0), &addr);
        assert!(!g.banks[0].counters.is_empty());
        // Jump past the reset interval.
        g.on_activation(g.reset_interval + 1, ThreadId::new(0), &addr);
        assert_eq!(g.banks[0].counters.len(), 1);
        assert_eq!(g.banks[0].counters[&10], 1);
    }
}
