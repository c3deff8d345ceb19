//! TWiCe: Time Window Counters (Lee et al., ISCA 2019).
//!
//! TWiCe keeps a table entry per candidate aggressor row containing an
//! activation counter and the entry's age (in pruning intervals). Entries
//! whose activation rate is too low to ever reach the RowHammer threshold
//! within the refresh window are periodically pruned, which keeps the table
//! small. When a row's count crosses the refresh threshold, its adjacent
//! rows are refreshed and the entry resets.

use crate::defense::{DefenseStats, MetadataFootprint, RowHammerDefense, RowHammerThreshold};
use crate::geometry::DefenseGeometry;
use bh_types::{Cycle, DramAddress, ThreadId};
use std::collections::HashMap;

/// The TWiCe per-row counter table with pruning.
#[derive(Debug, Clone)]
pub struct TwiCe {
    /// Per-bank table: row -> (activation count, age in pruning intervals).
    tables: Vec<HashMap<u64, (u64, u64)>>,
    /// Refresh threshold: when a row's count reaches this, neighbours are
    /// refreshed (N_RH* / 4 per the original design, so the victim sees at
    /// most half the double-sided threshold from each side).
    refresh_threshold: u64,
    /// Minimum activations per pruning interval a row must sustain to stay
    /// in the table.
    prune_rate: f64,
    /// Pruning interval in cycles (tREFI-scale in the original design).
    prune_interval: Cycle,
    next_prune: Cycle,
    /// Provisioned table capacity per bank (for the hardware cost model).
    provisioned_entries: usize,
    geometry: DefenseGeometry,
    stats: DefenseStats,
}

impl TwiCe {
    /// Creates TWiCe for a given RowHammer threshold.
    ///
    /// `prune_interval` is the pruning period in cycles; the original
    /// design prunes once per auto-refresh interval (tREFI).
    pub fn new(n_rh: RowHammerThreshold, prune_interval: Cycle, geometry: DefenseGeometry) -> Self {
        let n_star = n_rh.double_sided().get();
        let refresh_threshold = (n_star / 2).max(1);
        // Number of pruning intervals per refresh window.
        let intervals = (geometry.refresh_window_cycles / prune_interval.max(1)).max(1);
        // A row must average at least threshold/intervals activations per
        // interval to be dangerous; anything slower is pruned.
        let prune_rate = refresh_threshold as f64 / intervals as f64;
        // Provisioning: the table must hold every row that could reach the
        // refresh threshold within a refresh window, i.e. the maximum number
        // of activations a bank can absorb divided by the threshold, plus
        // head-room for one pruning interval's worth of fresh entries.
        let max_acts = geometry.max_acts_per_bank_per_refresh_window();
        let acts_per_interval = prune_interval.max(1) / geometry.t_rc_cycles.max(1);
        let provisioned_entries = (max_acts.div_ceil(refresh_threshold) as usize)
            .max(acts_per_interval as usize)
            .max(64);
        Self {
            tables: (0..geometry.organization.banks_per_channel())
                .map(|_| HashMap::new())
                .collect(),
            refresh_threshold,
            prune_rate,
            prune_interval: prune_interval.max(1),
            next_prune: prune_interval.max(1),
            provisioned_entries,
            geometry,
            stats: DefenseStats::default(),
        }
    }

    /// The count at which a row's neighbours get refreshed.
    pub fn refresh_threshold(&self) -> u64 {
        self.refresh_threshold
    }

    /// Table entries provisioned per bank.
    pub fn provisioned_entries(&self) -> usize {
        self.provisioned_entries
    }

    fn prune(&mut self) {
        for table in &mut self.tables {
            table.retain(|_, (count, age)| {
                *age += 1;
                // Keep a row only if its average rate could still reach the
                // refresh threshold within the refresh window.
                *count as f64 >= self.prune_rate * *age as f64
            });
        }
    }
}

impl RowHammerDefense for TwiCe {
    fn name(&self) -> &'static str {
        "TWiCe"
    }

    fn on_activation(
        &mut self,
        now: Cycle,
        _thread: ThreadId,
        addr: &DramAddress,
    ) -> Vec<DramAddress> {
        self.stats.record_activation();
        // Run one prune pass per elapsed pruning interval so that entry ages
        // advance with wall-clock time even across idle periods.
        while now >= self.next_prune {
            self.next_prune += self.prune_interval;
            self.prune();
        }
        let bank = self.geometry.organization.bank_of(addr);
        let entry = self.tables[bank].entry(addr.row()).or_insert((0, 0));
        entry.0 += 1;
        if entry.0 >= self.refresh_threshold {
            entry.0 = 0;
            entry.1 = 0;
            let rows = self.geometry.organization.rows_per_bank;
            let mut victims = Vec::with_capacity(2);
            for offset in [-1i64, 1] {
                if let Some(v) = addr.neighbor_row(offset, rows) {
                    victims.push(v);
                }
            }
            self.stats.victim_refreshes += victims.len() as u64;
            victims
        } else {
            Vec::new()
        }
    }

    fn metadata(&self) -> MetadataFootprint {
        // Each entry: row tag (CAM, ~17 bits) + activation counter + age
        // counter (SRAM). The per-rank numbers in Table 4 (37.12 KiB SRAM,
        // 14.02 KiB CAM at N_RH = 32K) correspond to this organization.
        let banks = self.geometry.organization.banks_per_rank() as u64;
        let entries = self.provisioned_entries as u64 * banks;
        let count_bits = 64 - u64::leading_zeros(self.refresh_threshold.max(1)) as u64 + 1;
        let age_bits = 16;
        MetadataFootprint {
            sram_bits: entries * (count_bits + age_bits),
            cam_bits: entries * 17,
        }
    }

    fn stats(&self) -> DefenseStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn twice(n_rh: u64) -> TwiCe {
        // Pruning once per 24k cycles (~ tREFI at 3.2 GHz).
        TwiCe::new(
            RowHammerThreshold::new(n_rh),
            24_960,
            DefenseGeometry::default(),
        )
    }

    #[test]
    fn refresh_threshold_is_a_quarter_of_n_rh() {
        let d = twice(32_000);
        assert_eq!(d.refresh_threshold(), 8_000);
    }

    #[test]
    fn hammered_row_neighbours_are_refreshed_before_the_threshold() {
        let mut d = twice(8_000);
        let aggressor = DramAddress::new(0, 0, 0, 0, 1_000, 0);
        let mut acts = 0u64;
        loop {
            acts += 1;
            // Hammer as fast as tRC allows.
            let victims = d.on_activation(acts * 148, ThreadId::new(0), &aggressor);
            if !victims.is_empty() {
                let rows: Vec<u64> = victims.iter().map(|v| v.row()).collect();
                assert!(rows.contains(&999) && rows.contains(&1001));
                break;
            }
            assert!(acts < 8_000, "no refresh before reaching N_RH");
        }
        assert!(acts <= d.refresh_threshold());
    }

    #[test]
    fn slow_rows_are_pruned() {
        let mut d = twice(32_000);
        let slow = DramAddress::new(0, 0, 0, 0, 5, 0);
        // One activation, then silence long enough for several prunes.
        d.on_activation(0, ThreadId::new(0), &slow);
        d.on_activation(
            10_000_000,
            ThreadId::new(0),
            &DramAddress::new(0, 0, 0, 1, 9, 0),
        );
        let bank = d.geometry.organization.bank_of(&slow);
        assert!(
            !d.tables[bank].contains_key(&5),
            "a slow row must be pruned from the table"
        );
    }

    #[test]
    fn table_stays_bounded_under_benign_scanning() {
        let mut d = twice(32_000);
        for i in 0..500_000u64 {
            let addr = DramAddress::new(0, 0, 0, 0, (i * 61) % 65_000, 0);
            d.on_activation(i * 148, ThreadId::new(0), &addr);
        }
        let bank = 0;
        assert!(
            d.tables[bank].len() < 4 * d.provisioned_entries(),
            "pruning failed to bound the table: {} live entries",
            d.tables[bank].len()
        );
    }

    #[test]
    fn metadata_blows_up_as_the_threshold_shrinks() {
        let at_32k = twice(32_000).metadata().total_kib();
        let at_1k = twice(1_000).metadata().total_kib();
        assert!(at_1k > at_32k * 5.0, "{at_32k} KiB -> {at_1k} KiB");
    }
}
