//! CBT: Counter-Based Tree (Seyedzadeh et al., ISCA 2018 / CAL 2017).
//!
//! CBT tracks activations with a tree of counters over progressively
//! smaller, disjoint row regions of each bank. A bank starts as a single
//! region with one counter. When a region's counter crosses the threshold
//! of its tree level, the region is split in half and tracking continues at
//! finer granularity (children inherit the parent count, which keeps the
//! mechanism conservative). When a region at the deepest level crosses the
//! final threshold, every row of that region is refreshed and its counter
//! resets.
//!
//! The configuration follows the BlockHammer paper's description
//! (Section 7): a six-level tree with 125 counters per bank and thresholds
//! growing exponentially from 1K up to the RowHammer threshold.

use crate::defense::{DefenseStats, MetadataFootprint, RowHammerDefense, RowHammerThreshold};
use crate::geometry::DefenseGeometry;
use bh_types::{Cycle, DramAddress, ThreadId};

/// Number of tree levels (level 0 = whole bank). The paper describes a
/// six-level counter budget; we allow the regions to keep halving further
/// so that leaf regions are small enough (tens of rows) for their refresh
/// cost to match the original design's intent.
const LEVELS: usize = 12;
/// Minimum counters per bank (the paper's configuration at N_RH = 32K).
const MIN_COUNTERS_PER_BANK: usize = 125;

#[derive(Debug, Clone)]
struct Region {
    /// First row covered by this region.
    start: u64,
    /// Number of rows covered.
    len: u64,
    /// Tree level (0 = coarsest).
    level: usize,
    /// Activation count since the last split / refresh.
    count: u64,
}

#[derive(Debug, Clone)]
struct BankTree {
    regions: Vec<Region>,
}

/// The CBT counter-tree reactive-refresh mechanism.
#[derive(Debug, Clone)]
pub struct Cbt {
    banks: Vec<BankTree>,
    thresholds: [u64; LEVELS],
    counters_per_bank: usize,
    geometry: DefenseGeometry,
    stats: DefenseStats,
}

impl Cbt {
    /// Creates CBT configured for the given RowHammer threshold. Thresholds
    /// grow exponentially from 1K (or `N_RH*`/32 for small thresholds) at
    /// the root to the double-sided RowHammer threshold at the leaves.
    pub fn new(n_rh: RowHammerThreshold, geometry: DefenseGeometry) -> Self {
        let leaf = n_rh.double_sided().get().max(2);
        let root = (leaf / 32).clamp(1, 1024);
        let ratio = (leaf as f64 / root as f64).powf(1.0 / (LEVELS as f64 - 1.0));
        let mut thresholds = [0u64; LEVELS];
        for (level, slot) in thresholds.iter_mut().enumerate() {
            *slot = ((root as f64) * ratio.powi(level as i32)).round() as u64;
        }
        thresholds[LEVELS - 1] = leaf;
        // As the chip becomes more vulnerable the tree needs enough leaf
        // counters to track all regions that could independently reach the
        // leaf threshold within one refresh window (the scaling methodology
        // of Kim et al. that the paper follows for Table 4).
        let max_acts = geometry.max_acts_per_bank_per_refresh_window();
        let counters_per_bank =
            (max_acts.div_ceil(thresholds[0].max(1)) as usize).max(MIN_COUNTERS_PER_BANK);
        Self {
            banks: (0..geometry.organization.banks_per_channel())
                .map(|_| BankTree {
                    regions: vec![Region {
                        start: 0,
                        len: geometry.organization.rows_per_bank,
                        level: 0,
                        count: 0,
                    }],
                })
                .collect(),
            thresholds,
            counters_per_bank,
            geometry,
            stats: DefenseStats::default(),
        }
    }

    /// Counters provisioned per bank for this configuration.
    pub fn counters_per_bank(&self) -> usize {
        self.counters_per_bank
    }

    /// The per-level split/refresh thresholds.
    pub fn thresholds(&self) -> &[u64] {
        &self.thresholds
    }
}

impl RowHammerDefense for Cbt {
    fn name(&self) -> &'static str {
        "CBT"
    }

    fn on_activation(
        &mut self,
        _now: Cycle,
        _thread: ThreadId,
        addr: &DramAddress,
    ) -> Vec<DramAddress> {
        self.stats.record_activation();
        let bank = self.geometry.organization.bank_of(addr);
        let tree = &mut self.banks[bank];
        let row = addr.row();
        let idx = tree
            .regions
            .iter()
            .position(|r| row >= r.start && row < r.start + r.len)
            // lint: allow(panic-freedom) -- CBT invariant: the region list always partitions the bank's rows
            .expect("regions always cover the whole bank");
        tree.regions[idx].count += 1;
        let region = &tree.regions[idx];
        let threshold = self.thresholds[region.level];
        if region.count < threshold {
            return Vec::new();
        }
        let can_split = region.level + 1 < LEVELS
            && region.len >= 2
            && tree.regions.len() < self.counters_per_bank;
        if can_split {
            // Split the region in half; both halves conservatively inherit
            // the parent's count so no activations are forgotten.
            let parent = tree.regions.remove(idx);
            let half = parent.len / 2;
            tree.regions.push(Region {
                start: parent.start,
                len: half,
                level: parent.level + 1,
                count: parent.count,
            });
            tree.regions.push(Region {
                start: parent.start + half,
                len: parent.len - half,
                level: parent.level + 1,
                count: parent.count,
            });
            Vec::new()
        } else {
            // Leaf region (or out of counters): refresh every row it covers
            // and reset the counter.
            let region = &mut tree.regions[idx];
            region.count = 0;
            let victims: Vec<DramAddress> = (region.start..region.start + region.len)
                .map(|r| addr.with_row(r))
                .collect();
            self.stats.victim_refreshes += victims.len() as u64;
            victims
        }
    }

    fn metadata(&self) -> MetadataFootprint {
        // Per bank: 125 counters with a region tag (row bits + level) in CAM
        // and the count value in SRAM, matching the paper's 16.00 KiB SRAM +
        // 8.50 KiB CAM split per rank (for N_RH = 32K) in order of magnitude.
        let banks = self.geometry.organization.banks_per_rank() as u64;
        let count_bits = 64 - u64::leading_zeros(self.thresholds[LEVELS - 1].max(1)) as u64 + 1;
        let tag_bits = 17 + 3;
        MetadataFootprint {
            sram_bits: banks * self.counters_per_bank as u64 * count_bits,
            cam_bits: banks * self.counters_per_bank as u64 * tag_bits,
        }
    }

    fn stats(&self) -> DefenseStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cbt(n_rh: u64) -> Cbt {
        Cbt::new(RowHammerThreshold::new(n_rh), DefenseGeometry::default())
    }

    #[test]
    fn thresholds_grow_monotonically_to_the_leaf_threshold() {
        let d = cbt(32_000);
        let t = d.thresholds();
        for w in t.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(t[LEVELS - 1], 16_000);
    }

    #[test]
    fn hammering_splits_regions_then_refreshes_before_the_threshold() {
        let mut d = cbt(8_000); // leaf threshold 4_000
        let aggressor = DramAddress::new(0, 0, 0, 0, 1_234, 0);
        let mut refreshed = false;
        let mut acts_until_refresh = 0u64;
        for i in 0..200_000u64 {
            acts_until_refresh += 1;
            if !d.on_activation(i, ThreadId::new(0), &aggressor).is_empty() {
                refreshed = true;
                break;
            }
        }
        assert!(refreshed, "CBT must eventually refresh a hammered region");
        // The refresh must happen before the aggressor reaches the
        // double-sided RowHammer threshold plus the tree-walk slack.
        assert!(acts_until_refresh < 8_000 * 2);
    }

    #[test]
    fn refreshed_region_contains_the_aggressors_neighbours() {
        let mut d = cbt(4_000);
        let aggressor = DramAddress::new(0, 0, 1, 1, 40_000, 0);
        for i in 0..200_000u64 {
            let victims = d.on_activation(i, ThreadId::new(0), &aggressor);
            if !victims.is_empty() {
                let rows: Vec<u64> = victims.iter().map(|v| v.row()).collect();
                assert!(rows.contains(&40_000));
                assert!(rows.contains(&39_999) || rows.contains(&40_001));
                return;
            }
        }
        panic!("no refresh triggered");
    }

    #[test]
    fn benign_scanning_never_triggers_refreshes_at_32k() {
        let mut d = cbt(32_000);
        let mut refreshes = 0usize;
        for i in 0..100_000u64 {
            let addr = DramAddress::new(0, 0, 0, 0, (i * 131) % 65_000, 0);
            refreshes += d.on_activation(i, ThreadId::new(0), &addr).len();
        }
        assert_eq!(refreshes, 0);
    }

    #[test]
    fn counters_are_bounded_per_bank() {
        let mut d = cbt(2_000);
        for i in 0..500_000u64 {
            let addr = DramAddress::new(0, 0, 0, 0, i % 65_536, 0);
            d.on_activation(i, ThreadId::new(0), &addr);
        }
        let cap = d.counters_per_bank();
        for bank in &d.banks {
            assert!(bank.regions.len() <= cap);
        }
    }

    #[test]
    fn metadata_blows_up_as_the_threshold_shrinks() {
        let at_32k = cbt(32_000).metadata().total_kib();
        let at_1k = cbt(1_000).metadata().total_kib();
        assert!(at_32k > 0.0);
        // Table 4: CBT's storage grows by more than an order of magnitude
        // when N_RH drops from 32K to 1K.
        assert!(
            at_1k > at_32k * 5.0,
            "expected large growth, got {at_32k} KiB -> {at_1k} KiB"
        );
    }
}
