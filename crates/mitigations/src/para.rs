//! PARA: Probabilistic Adjacent Row Activation (Kim et al., ISCA 2014).
//!
//! Every time the memory controller activates a row, PARA refreshes one of
//! the two adjacent rows with a small probability `p`. Setting `p` high
//! enough makes the probability that an aggressor row is hammered `N_RH`
//! times without any of its victims being refreshed negligible.

use crate::defense::{DefenseStats, MetadataFootprint, RowHammerDefense, RowHammerThreshold};
use crate::geometry::DefenseGeometry;
use bh_types::{Cycle, DramAddress, ThreadId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The PARA probabilistic reactive-refresh mechanism.
#[derive(Debug, Clone)]
pub struct Para {
    probability: f64,
    geometry: DefenseGeometry,
    rng: StdRng,
    stats: DefenseStats,
}

impl Para {
    /// Creates PARA tuned so that the probability of an attacker inducing a
    /// bit-flip within one refresh window is below `target_failure`
    /// (the paper uses `1e-15`, a typical consumer reliability target).
    ///
    /// The failure probability of a single aggressor hammered `N_RH` times
    /// is `(1 - p/2)^(N_RH)` per victim side, so we solve for `p`:
    /// `p = 2 * (1 - target^(1/N_RH))`.
    ///
    /// # Panics
    ///
    /// Panics if `target_failure` is not in `(0, 1)`.
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
        let probability = (2.0 * (1.0 - target_failure.powf(1.0 / n))).min(1.0);
        Self {
            probability,
            geometry,
            rng: StdRng::seed_from_u64(seed),
            stats: DefenseStats::default(),
        }
    }

    /// The per-activation refresh probability `p`.
    pub fn probability(&self) -> f64 {
        self.probability
    }
}

impl RowHammerDefense for Para {
    fn name(&self) -> &'static str {
        "PARA"
    }

    fn on_activation(
        &mut self,
        _now: Cycle,
        _thread: ThreadId,
        addr: &DramAddress,
    ) -> Vec<DramAddress> {
        self.stats.record_activation();
        if self.rng.gen_bool(self.probability) {
            // Refresh one of the two adjacent rows, chosen uniformly.
            let offset = if self.rng.gen_bool(0.5) { 1 } else { -1 };
            if let Some(victim) =
                addr.neighbor_row(offset, self.geometry.organization.rows_per_bank)
            {
                self.stats.victim_refreshes += 1;
                return vec![victim];
            }
        }
        Vec::new()
    }

    fn metadata(&self) -> MetadataFootprint {
        // PARA is stateless apart from a pseudo-random number generator.
        MetadataFootprint::sram(64)
    }

    fn stats(&self) -> DefenseStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn para(n_rh: u64) -> Para {
        Para::new(
            RowHammerThreshold::new(n_rh),
            1e-15,
            DefenseGeometry::default(),
            42,
        )
    }

    #[test]
    fn probability_increases_as_threshold_decreases() {
        let p32k = para(32_000).probability();
        let p1k = para(1_000).probability();
        assert!(p1k > p32k, "more vulnerable chips need more refreshes");
        assert!(p32k > 0.0 && p32k < 1.0);
        assert!(p1k <= 1.0);
    }

    #[test]
    fn refresh_rate_matches_probability() {
        let mut d = para(2_000);
        let addr = DramAddress::new(0, 0, 0, 0, 100, 0);
        let trials = 200_000u64;
        let mut refreshes = 0u64;
        for i in 0..trials {
            refreshes += d.on_activation(i, ThreadId::new(0), &addr).len() as u64;
        }
        let expected = d.probability() * trials as f64;
        let observed = refreshes as f64;
        assert!(
            (observed - expected).abs() < expected * 0.1 + 50.0,
            "observed {observed} refreshes, expected about {expected}"
        );
        assert_eq!(d.stats().victim_refreshes, refreshes);
    }

    #[test]
    fn victims_are_adjacent_rows() {
        let mut d = para(16);
        let addr = DramAddress::new(0, 0, 1, 2, 500, 0);
        for i in 0..10_000 {
            for v in d.on_activation(i, ThreadId::new(0), &addr) {
                assert!(v.row() == 499 || v.row() == 501);
                assert_eq!(v.bank_group(), 1);
                assert_eq!(v.bank(), 2);
            }
        }
    }

    #[test]
    fn never_blocks_activations() {
        let mut d = para(1_000);
        let addr = DramAddress::new(0, 0, 0, 0, 1, 0);
        assert!(d.is_activation_safe(0, ThreadId::new(0), &addr));
        assert!(d.inflight_quota(ThreadId::new(0), 0).is_none());
    }

    #[test]
    #[should_panic(expected = "target failure")]
    fn invalid_target_failure_panics() {
        let _ = Para::new(
            RowHammerThreshold::new(1000),
            1.5,
            DefenseGeometry::default(),
            0,
        );
    }
}
