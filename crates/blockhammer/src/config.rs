//! BlockHammer configuration derivation (Table 1, Table 7, Eq. 1, Eq. 3).

use bh_types::{ConfigError, Cycle};
use mitigations::{BlastModel, DefenseGeometry, RowHammerThreshold};
use serde::{Deserialize, Serialize};

/// A complete BlockHammer parameterization.
///
/// Obtained from [`BlockHammerConfig::for_rowhammer_threshold`] (which
/// reproduces the paper's configuration methodology, Section 3.1.3 and
/// Table 7) or built manually for ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockHammerConfig {
    /// The RowHammer threshold of the protected DRAM chips, `N_RH`.
    pub n_rh: u64,
    /// The effective threshold after accounting for the attack model
    /// (`N_RH*`, Eq. 3). For the double-sided model this is `N_RH / 2`.
    pub n_rh_star: u64,
    /// The blacklisting threshold `N_BL`.
    pub n_bl: u64,
    /// Counters per counting Bloom filter (per bank).
    pub cbf_size: usize,
    /// H3 hash functions per filter.
    pub cbf_hashes: usize,
    /// CBF lifetime `tCBF` in cycles (the paper sets it to `tREFW`).
    pub t_cbf_cycles: Cycle,
    /// The refresh window `tREFW` in cycles.
    pub t_refw_cycles: Cycle,
    /// The row cycle time `tRC` in cycles.
    pub t_rc_cycles: Cycle,
    /// The four-activation window `tFAW` in cycles.
    pub t_faw_cycles: Cycle,
    /// The enforced delay `tDelay` between consecutive activations of a
    /// blacklisted row, in cycles (Eq. 1).
    pub t_delay_cycles: Cycle,
    /// History buffer entries per rank (`⌈4 · tDelay / tFAW⌉`).
    pub history_entries: usize,
    /// Maximum in-flight requests per `<thread, bank>` pair that
    /// AttackThrottler scales down as RHLI grows.
    pub base_inflight_quota: u32,
}

impl BlockHammerConfig {
    /// Derives the configuration for a given RowHammer threshold following
    /// the paper's methodology:
    ///
    /// * `N_RH*` = `N_RH / 2` (double-sided attack model, Section 7);
    /// * `N_BL` = `N_RH* / 2` (Table 7: 8K for `N_RH`=32K down to 256 for
    ///   `N_RH`=1K);
    /// * the CBF size grows as the threshold shrinks to keep the
    ///   false-positive rate low (Table 7: 1K counters down to 8K counters);
    /// * `tCBF` = `tREFW`;
    /// * `tDelay` from Eq. 1;
    /// * history buffer sized to `⌈4 · tDelay / tFAW⌉`.
    pub fn for_rowhammer_threshold(n_rh: RowHammerThreshold, geometry: &DefenseGeometry) -> Self {
        Self::for_threshold_with_blast(n_rh, BlastModel::adjacent_only(), geometry)
    }

    /// Same as [`Self::for_rowhammer_threshold`] but for an arbitrary blast
    /// model (Eq. 3), e.g. the worst-case many-sided model with blast
    /// radius 6.
    pub fn for_threshold_with_blast(
        n_rh: RowHammerThreshold,
        blast: BlastModel,
        geometry: &DefenseGeometry,
    ) -> Self {
        let n_rh_star = effective_threshold(n_rh.get(), &blast);
        let n_bl = (n_rh_star / 2).max(1);
        // Table 7: the CBF size doubles every time N_BL halves below 1K
        // counters' worth of margin; expressed directly from the paper's
        // table: {32K,16K,8K} -> 1K, 4K -> 2K, 2K -> 4K, 1K -> 8K. Smaller
        // (e.g. time-scaled) thresholds keep Table 7's largest filter: a
        // counting Bloom filter never under-counts, so its size only
        // trades false positives for memory, never security.
        let cbf_size = ((1u64 << 23) / n_rh.get().max(1)).clamp(1024, 8192) as usize;
        let cbf_size = cbf_size.next_power_of_two();
        let t_cbf = geometry.refresh_window_cycles;
        let t_delay = compute_t_delay(
            t_cbf,
            geometry.refresh_window_cycles,
            geometry.t_rc_cycles,
            n_rh_star,
            n_bl,
        );
        let history_entries = ((4 * t_delay).div_ceil(geometry.t_faw_cycles.max(1))) as usize;
        Self {
            n_rh: n_rh.get(),
            n_rh_star,
            n_bl,
            cbf_size,
            cbf_hashes: 4,
            t_cbf_cycles: t_cbf,
            t_refw_cycles: geometry.refresh_window_cycles,
            t_rc_cycles: geometry.t_rc_cycles,
            t_faw_cycles: geometry.t_faw_cycles,
            t_delay_cycles: t_delay,
            history_entries: history_entries.max(1),
            base_inflight_quota: 16,
        }
    }

    /// Validates internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when a parameter violates the constraints
    /// the security argument relies on (e.g. `N_BL >= N_RH*`).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_rh == 0 {
            return Err(ConfigError::new("n_rh", "must be non-zero"));
        }
        if self.n_rh_star == 0 || self.n_rh_star > self.n_rh {
            return Err(ConfigError::new(
                "n_rh_star",
                "must be in (0, n_rh] (Eq. 3 only reduces the threshold)",
            ));
        }
        if self.n_bl == 0 || self.n_bl >= self.n_rh_star {
            return Err(ConfigError::new(
                "n_bl",
                "must be positive and below the effective RowHammer threshold",
            ));
        }
        if !self.cbf_size.is_power_of_two() {
            return Err(ConfigError::new("cbf_size", "must be a power of two"));
        }
        if self.cbf_hashes == 0 {
            // A zero-hash filter would estimate 0 for every row and
            // silently never blacklist anything.
            return Err(ConfigError::new("cbf_hashes", "must be non-zero"));
        }
        if self.cbf_hashes > crate::hash::MAX_HASH_FUNCTIONS {
            return Err(ConfigError::new(
                "cbf_hashes",
                "exceeds the supported maximum number of hash functions",
            ));
        }
        if self.t_cbf_cycles == 0 || self.t_cbf_cycles > self.t_refw_cycles {
            return Err(ConfigError::new(
                "t_cbf_cycles",
                "must be positive and no longer than the refresh window",
            ));
        }
        if self.t_delay_cycles == 0 {
            return Err(ConfigError::new("t_delay_cycles", "must be non-zero"));
        }
        if self.history_entries == 0 {
            return Err(ConfigError::new("history_entries", "must be non-zero"));
        }
        Ok(())
    }

    /// The epoch length (half the CBF lifetime).
    pub fn epoch_cycles(&self) -> Cycle {
        (self.t_cbf_cycles / 2).max(1)
    }

    /// The maximum number of times a row may be activated within one CBF
    /// lifetime in a BlockHammer-protected system:
    /// `N_RH* × (tCBF / tREFW)` (the denominator of Eq. 2 before
    /// subtracting `N_BL`).
    pub fn max_activations_per_cbf_lifetime(&self) -> u64 {
        ((self.n_rh_star as f64) * (self.t_cbf_cycles as f64 / self.t_refw_cycles as f64)).floor()
            as u64
    }

    /// The denominator of the RHLI definition (Eq. 2):
    /// `N_RH* × (tCBF / tREFW) − N_BL`.
    pub fn rhli_denominator(&self) -> u64 {
        self.max_activations_per_cbf_lifetime()
            .saturating_sub(self.n_bl)
            .max(1)
    }

    /// `tDelay` expressed in microseconds of wall-clock time given the
    /// clock frequency used to produce the cycle counts.
    pub fn t_delay_us(&self, clock_hz: f64) -> f64 {
        self.t_delay_cycles as f64 / clock_hz * 1e6
    }

    /// The per-`N_RH` configurations of Table 7, derived for `geometry`.
    pub fn table7(geometry: &DefenseGeometry) -> Vec<Self> {
        [32_768u64, 16_384, 8_192, 4_096, 2_048, 1_024]
            .into_iter()
            .map(|n| Self::for_rowhammer_threshold(RowHammerThreshold::new(n), geometry))
            .collect()
    }
}

/// Eq. 3: the effective RowHammer threshold `N_RH*` such that hammering all
/// rows within the blast radius `N_RH*` times each causes no more
/// disturbance than hammering one adjacent row `N_RH` times.
pub fn effective_threshold(n_rh: u64, blast: &BlastModel) -> u64 {
    let sum: f64 = (1..=blast.radius).map(|k| blast.impact_factor(k)).sum();
    let denominator = 2.0 * sum;
    if denominator <= 0.0 {
        return n_rh;
    }
    ((n_rh as f64 / denominator).floor() as u64).max(1)
}

/// Eq. 1: the delay RowBlocker enforces between consecutive activations of
/// a blacklisted row.
///
/// `tDelay = (tCBF − N_BL·tRC) / ((tCBF/tREFW)·N_RH* − N_BL)`
pub fn compute_t_delay(
    t_cbf: Cycle,
    t_refw: Cycle,
    t_rc: Cycle,
    n_rh_star: u64,
    n_bl: u64,
) -> Cycle {
    let allowed = ((n_rh_star as f64) * (t_cbf as f64 / t_refw as f64)) - n_bl as f64;
    if allowed <= 0.0 {
        // Degenerate configuration: block for the whole CBF lifetime.
        return t_cbf;
    }
    let numerator = t_cbf as f64 - (n_bl as f64 * t_rc as f64);
    (numerator / allowed).ceil().max(1.0) as Cycle
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry() -> DefenseGeometry {
        DefenseGeometry::default()
    }

    #[test]
    fn table1_values_are_reproduced_for_32k() {
        let c = BlockHammerConfig::for_rowhammer_threshold(
            RowHammerThreshold::new(32_768),
            &geometry(),
        );
        assert!(c.validate().is_ok());
        assert_eq!(c.n_rh_star, 16_384);
        assert_eq!(c.n_bl, 8_192);
        assert_eq!(c.cbf_size, 1_024);
        assert_eq!(c.cbf_hashes, 4);
        assert_eq!(c.t_cbf_cycles, c.t_refw_cycles);
        // Table 1: tDelay ~ 7.7 us and a ~887-entry history buffer.
        let t_delay_us = c.t_delay_us(3.2e9);
        assert!(
            (7.0..8.5).contains(&t_delay_us),
            "tDelay = {t_delay_us} us, expected about 7.7 us"
        );
        assert!(
            (850..=930).contains(&c.history_entries),
            "history entries = {}, expected about 887",
            c.history_entries
        );
    }

    #[test]
    fn table7_blacklisting_thresholds_and_cbf_sizes() {
        let configs = BlockHammerConfig::table7(&geometry());
        let n_bl: Vec<u64> = configs.iter().map(|c| c.n_bl).collect();
        assert_eq!(n_bl, vec![8_192, 4_096, 2_048, 1_024, 512, 256]);
        let cbf: Vec<usize> = configs.iter().map(|c| c.cbf_size).collect();
        assert_eq!(cbf, vec![1_024, 1_024, 1_024, 2_048, 4_096, 8_192]);
        for c in &configs {
            assert!(c.validate().is_ok());
        }
    }

    #[test]
    fn cbf_size_stays_within_table7_for_every_threshold() {
        for n_rh in 1..=32_768 {
            let c = BlockHammerConfig::for_rowhammer_threshold(
                RowHammerThreshold::new(n_rh),
                &geometry(),
            );
            assert!(c.cbf_size.is_power_of_two(), "N_RH {n_rh}: {}", c.cbf_size);
            assert!(
                (1_024..=8_192).contains(&c.cbf_size),
                "N_RH {n_rh}: {} counters is outside Table 7's range",
                c.cbf_size
            );
        }
    }

    #[test]
    fn t_delay_grows_as_threshold_shrinks() {
        let configs = BlockHammerConfig::table7(&geometry());
        for pair in configs.windows(2) {
            assert!(
                pair[1].t_delay_cycles > pair[0].t_delay_cycles,
                "tDelay must grow as N_RH shrinks"
            );
        }
    }

    #[test]
    fn eq3_worst_case_blast_model_matches_paper_constant() {
        // The paper: with r_blast = 6 and c_k = 0.5^(k-1), N_RH* = 0.2539 N_RH.
        let n_rh = 32_000u64;
        let star = effective_threshold(n_rh, &BlastModel::worst_case_observed());
        let ratio = star as f64 / n_rh as f64;
        assert!(
            (ratio - 0.2539).abs() < 0.01,
            "N_RH*/N_RH = {ratio}, expected about 0.2539"
        );
        // Double-sided model: exactly half.
        assert_eq!(
            effective_threshold(n_rh, &BlastModel::adjacent_only()),
            n_rh / 2
        );
    }

    #[test]
    fn rhli_denominator_matches_eq2() {
        let c = BlockHammerConfig::for_rowhammer_threshold(
            RowHammerThreshold::new(32_768),
            &geometry(),
        );
        // tCBF = tREFW, so the denominator is N_RH* - N_BL = 8_192.
        assert_eq!(c.rhli_denominator(), 8_192);
    }

    #[test]
    fn validate_rejects_inconsistent_parameters() {
        let mut c = BlockHammerConfig::for_rowhammer_threshold(
            RowHammerThreshold::new(32_768),
            &geometry(),
        );
        c.n_bl = c.n_rh_star;
        assert_eq!(c.validate().unwrap_err().field(), "n_bl");
        let mut c2 = BlockHammerConfig::for_rowhammer_threshold(
            RowHammerThreshold::new(32_768),
            &geometry(),
        );
        c2.t_cbf_cycles = c2.t_refw_cycles * 2;
        assert_eq!(c2.validate().unwrap_err().field(), "t_cbf_cycles");
    }

    #[test]
    fn validate_rejects_hashless_and_oversized_filters() {
        // cbf_hashes = 0 would make the filter estimate 0 for every row
        // (it could never blacklist anything); the config must refuse it
        // before a filter is ever built.
        let mut c = BlockHammerConfig::for_rowhammer_threshold(
            RowHammerThreshold::new(32_768),
            &geometry(),
        );
        c.cbf_hashes = 0;
        assert_eq!(c.validate().unwrap_err().field(), "cbf_hashes");
        c.cbf_hashes = crate::hash::MAX_HASH_FUNCTIONS + 1;
        assert_eq!(c.validate().unwrap_err().field(), "cbf_hashes");
        c.cbf_hashes = crate::hash::MAX_HASH_FUNCTIONS;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn scaled_time_preserves_the_blacklisted_activation_rate() {
        // The scaled-time simulation mode divides tREFW and N_RH by the same
        // factor. The absolute rate cap a blacklisted row experiences
        // (one activation per tDelay) is what shapes performance, and it
        // must be nearly unchanged by the scaling.
        let full = BlockHammerConfig::for_rowhammer_threshold(
            RowHammerThreshold::new(32_768),
            &geometry(),
        );
        let scaled_geometry = geometry().with_time_scale(64);
        let scaled = BlockHammerConfig::for_rowhammer_threshold(
            RowHammerThreshold::new(32_768 / 64),
            &scaled_geometry,
        );
        let relative_change = (full.t_delay_cycles as f64 - scaled.t_delay_cycles as f64).abs()
            / full.t_delay_cycles as f64;
        assert!(
            relative_change < 0.1,
            "tDelay changed from {} to {} cycles under time scaling",
            full.t_delay_cycles,
            scaled.t_delay_cycles
        );
    }
}
