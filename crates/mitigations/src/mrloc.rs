//! MRLoc: Mitigating Row-hammering based on memory Locality
//! (You & Yang, DAC 2019).
//!
//! MRLoc extends PARA by remembering the victim rows it recently decided to
//! refresh in a small queue. When a new activation's victim is already in
//! the queue (i.e. the aggressor is being hammered with temporal locality),
//! the refresh probability is boosted proportionally to how recently the
//! victim was enqueued; otherwise a low base probability is used. This
//! concentrates the (fixed) refresh budget on rows that actually look like
//! victims of an ongoing attack.

use crate::defense::{DefenseStats, MetadataFootprint, RowHammerDefense, RowHammerThreshold};
use crate::geometry::DefenseGeometry;
use bh_types::{Cycle, DramAddress, ThreadId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Queue capacity used by the original proposal (sized to ~0.47 KiB per
/// rank in Table 4).
const QUEUE_ENTRIES: usize = 14;

/// The MRLoc locality-aware probabilistic mechanism.
#[derive(Debug, Clone)]
pub struct MrLoc {
    /// Per-bank queue of recently refresh-considered victim rows.
    queues: Vec<VecDeque<u64>>,
    base_probability: f64,
    max_probability: f64,
    geometry: DefenseGeometry,
    rng: StdRng,
    stats: DefenseStats,
}

impl MrLoc {
    /// Creates MRLoc. The base probability is derived from the same failure
    /// target as PARA, and boosted up to `max_probability` for victims with
    /// high temporal locality (the original work determines the boost curve
    /// empirically; a linear ramp over the queue position is used here).
    pub fn new(
        n_rh: RowHammerThreshold,
        target_failure: f64,
        geometry: DefenseGeometry,
        seed: u64,
    ) -> Self {
        assert!(
            target_failure > 0.0 && target_failure < 1.0,
            "target failure probability must be in (0, 1)"
        );
        let n = n_rh.get() as f64;
        let base = (1.0 - target_failure.powf(1.0 / n)).min(1.0);
        Self {
            queues: (0..geometry.organization.banks_per_channel())
                .map(|_| VecDeque::new())
                .collect(),
            base_probability: base,
            max_probability: (base * 32.0).min(1.0),
            geometry,
            rng: StdRng::seed_from_u64(seed),
            stats: DefenseStats::default(),
        }
    }

    /// The base per-victim refresh probability.
    pub fn base_probability(&self) -> f64 {
        self.base_probability
    }

    fn probability_for(&self, bank: usize, victim_row: u64) -> f64 {
        let queue = &self.queues[bank];
        match queue.iter().position(|&r| r == victim_row) {
            // Most recently enqueued entries (position 0) get the largest
            // boost; the boost decays linearly towards the queue tail.
            Some(pos) => {
                let weight = 1.0 - pos as f64 / QUEUE_ENTRIES as f64;
                self.base_probability + (self.max_probability - self.base_probability) * weight
            }
            None => self.base_probability,
        }
    }

    fn remember(&mut self, bank: usize, victim_row: u64) {
        let queue = &mut self.queues[bank];
        if let Some(pos) = queue.iter().position(|&r| r == victim_row) {
            queue.remove(pos);
        }
        if queue.len() == QUEUE_ENTRIES {
            queue.pop_back();
        }
        queue.push_front(victim_row);
    }
}

impl RowHammerDefense for MrLoc {
    fn name(&self) -> &'static str {
        "MRLoc"
    }

    fn on_activation(
        &mut self,
        _now: Cycle,
        _thread: ThreadId,
        addr: &DramAddress,
    ) -> Vec<DramAddress> {
        self.stats.record_activation();
        let bank = self.geometry.organization.bank_of(addr);
        let rows = self.geometry.organization.rows_per_bank;
        let mut refreshed = Vec::new();
        for offset in [-1i64, 1] {
            let Some(victim) = addr.neighbor_row(offset, rows) else {
                continue;
            };
            let p = self.probability_for(bank, victim.row());
            self.remember(bank, victim.row());
            if self.rng.gen_bool(p) {
                self.stats.victim_refreshes += 1;
                refreshed.push(victim);
            }
        }
        refreshed
    }

    fn metadata(&self) -> MetadataFootprint {
        // A queue of row addresses per bank, tag-matched (CAM).
        let entry_bits = 17;
        let banks = self.geometry.organization.banks_per_rank() as u64;
        MetadataFootprint::cam(banks * QUEUE_ENTRIES as u64 * entry_bits)
    }

    fn stats(&self) -> DefenseStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mrloc(n_rh: u64) -> MrLoc {
        MrLoc::new(
            RowHammerThreshold::new(n_rh),
            1e-15,
            DefenseGeometry::default(),
            11,
        )
    }

    #[test]
    fn locality_boosts_probability() {
        let mut d = mrloc(32_000);
        let bank = 0;
        let cold = d.probability_for(bank, 77);
        d.remember(bank, 77);
        let hot = d.probability_for(bank, 77);
        assert!(hot > cold);
        assert!(hot <= 1.0);
    }

    #[test]
    fn hammering_triggers_more_refreshes_than_scanning() {
        let mut hammer = mrloc(4_000);
        let mut scan = mrloc(4_000);
        let aggressor = DramAddress::new(0, 0, 0, 0, 1000, 0);
        let mut hammer_refreshes = 0usize;
        let mut scan_refreshes = 0usize;
        for i in 0..50_000u64 {
            hammer_refreshes += hammer.on_activation(i, ThreadId::new(0), &aggressor).len();
            let scanned = DramAddress::new(0, 0, 0, 0, (i * 97) % 60_000, 0);
            scan_refreshes += scan.on_activation(i, ThreadId::new(0), &scanned).len();
        }
        assert!(
            hammer_refreshes > scan_refreshes,
            "hammering ({hammer_refreshes}) should trigger more refreshes than scanning ({scan_refreshes})"
        );
    }

    #[test]
    fn queue_is_bounded() {
        let mut d = mrloc(32_000);
        for row in 0..1000u64 {
            d.remember(3, row);
        }
        assert!(d.queues[3].len() <= QUEUE_ENTRIES);
    }

    #[test]
    fn metadata_is_about_half_a_kilobyte() {
        let d = mrloc(32_000);
        let kib = d.metadata().total_kib();
        assert!(kib > 0.2 && kib < 1.0, "unexpected footprint {kib} KiB");
    }

    #[test]
    fn probability_scales_with_threshold() {
        assert!(mrloc(1_000).base_probability() > mrloc(32_000).base_probability());
    }
}
