//! AttackThrottler: RHLI tracking and in-flight request quotas.
//!
//! AttackThrottler maintains, per `<thread, bank>` pair, two saturating
//! counters of blacklisted-row activations that are swapped and cleared in
//! lockstep with RowBlocker's dual counting Bloom filters (Section 3.2.1).
//! The active counter, normalized to the maximum number of times a
//! blacklisted row can be activated in a protected system (Eq. 2), is the
//! *RowHammer likelihood index* (RHLI). Threads with non-zero RHLI get an
//! in-flight request quota inversely proportional to it; a thread whose
//! RHLI reaches 1 is blocked entirely (Section 3.2.2).

use crate::config::BlockHammerConfig;
use bh_types::ThreadId;

/// Per-`<thread, bank>` dual counters plus quota computation.
///
/// The counters are stored as flat `threads × banks` arrays (row-major by
/// thread) so the per-activation update touches two adjacent cache lines
/// and the epoch swap clears one contiguous region.
#[derive(Debug, Clone)]
pub struct AttackThrottler {
    /// Active counters, indexed `thread * banks + bank`.
    active: Vec<u32>,
    /// Passive counters, indexed `thread * banks + bank`.
    passive: Vec<u32>,
    /// Saturation value: `N_RH* × (tCBF / tREFW)`.
    saturation: u32,
    /// RHLI denominator from Eq. 2.
    rhli_denominator: u32,
    /// Quota applied when RHLI = 0+ (scaled down as RHLI approaches 1).
    base_quota: u32,
    threads: usize,
    banks: usize,
}

impl AttackThrottler {
    /// Creates the throttler for `threads` hardware threads and `banks`
    /// DRAM banks, configured from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `threads` or `banks` is zero.
    pub fn new(config: &BlockHammerConfig, threads: usize, banks: usize) -> Self {
        assert!(threads > 0, "at least one thread is required");
        assert!(banks > 0, "at least one bank is required");
        Self {
            active: vec![0; threads * banks],
            passive: vec![0; threads * banks],
            saturation: config
                .max_activations_per_cbf_lifetime()
                .min(u32::MAX as u64) as u32,
            rhli_denominator: config.rhli_denominator().min(u32::MAX as u64) as u32,
            base_quota: config.base_inflight_quota,
            threads,
            banks,
        }
    }

    /// Records that `thread` activated a blacklisted row in `bank`.
    /// Both the active and the passive counter are incremented (saturating).
    // lint: alloc-free
    pub fn record_blacklisted_activation(&mut self, thread: ThreadId, bank: usize) {
        let t = thread.index();
        if t >= self.threads || bank >= self.banks {
            return;
        }
        let idx = t * self.banks + bank;
        let saturation = self.saturation;
        let a = &mut self.active[idx];
        *a = a.saturating_add(1).min(saturation);
        let p = &mut self.passive[idx];
        *p = p.saturating_add(1).min(saturation);
    }

    /// Swaps the active and passive counters and clears the new passive
    /// set. Called when RowBlocker's filters swap (every epoch).
    // lint: alloc-free
    pub fn swap_and_clear(&mut self) {
        std::mem::swap(&mut self.active, &mut self.passive);
        self.passive.fill(0);
    }

    /// The RowHammer likelihood index of `<thread, bank>` (Eq. 2).
    // lint: alloc-free
    pub fn rhli(&self, thread: ThreadId, bank: usize) -> f64 {
        let t = thread.index();
        if t >= self.threads || bank >= self.banks {
            return 0.0;
        }
        f64::from(self.active[t * self.banks + bank]) / f64::from(self.rhli_denominator.max(1))
    }

    /// The largest RHLI of `thread` across all banks (used for reporting
    /// and for OS exposure, Section 3.2.3).
    // lint: alloc-free
    pub fn max_rhli(&self, thread: ThreadId) -> f64 {
        let t = thread.index();
        if t >= self.threads {
            return 0.0;
        }
        // Division by the (positive) denominator is monotonic, so the max
        // RHLI is the max counter divided once.
        let max = self.active[t * self.banks..(t + 1) * self.banks]
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        f64::from(max) / f64::from(self.rhli_denominator.max(1))
    }

    /// The in-flight request quota for `<thread, bank>`: `None` (unlimited)
    /// while RHLI is zero, scaled down proportionally to `1 - RHLI`
    /// otherwise, reaching zero (a full block) when RHLI >= 1.
    // lint: alloc-free
    pub fn quota(&self, thread: ThreadId, bank: usize) -> Option<u32> {
        let rhli = self.rhli(thread, bank);
        if rhli <= 0.0 {
            None
        } else if rhli >= 1.0 {
            Some(0)
        } else {
            Some(
                ((f64::from(self.base_quota)) * (1.0 - rhli))
                    .floor()
                    .max(1.0) as u32,
            )
        }
    }

    /// Storage required by the counters, in bits (two counters per
    /// `<thread, bank>` pair), for the hardware cost model.
    pub fn metadata_bits(&self) -> u64 {
        let counter_bits = 32 - u32::leading_zeros(self.saturation.max(1)) as u64;
        2 * counter_bits * self.threads as u64 * self.banks as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitigations::{DefenseGeometry, RowHammerThreshold};

    fn throttler() -> AttackThrottler {
        let geometry = DefenseGeometry::default();
        let config =
            BlockHammerConfig::for_rowhammer_threshold(RowHammerThreshold::new(32_768), &geometry);
        AttackThrottler::new(&config, 8, 16)
    }

    #[test]
    fn benign_threads_have_zero_rhli_and_no_quota() {
        let t = throttler();
        for thread in 0..8 {
            for bank in 0..16 {
                assert_eq!(t.rhli(ThreadId::new(thread), bank), 0.0);
                assert_eq!(t.quota(ThreadId::new(thread), bank), None);
            }
        }
    }

    #[test]
    fn rhli_grows_with_blacklisted_activations_and_caps_the_quota() {
        let mut t = throttler();
        let attacker = ThreadId::new(0);
        // Denominator for the 32K configuration is 8_192.
        for _ in 0..4_096 {
            t.record_blacklisted_activation(attacker, 3);
        }
        let rhli = t.rhli(attacker, 3);
        assert!((rhli - 0.5).abs() < 1e-6);
        let quota = t.quota(attacker, 3).unwrap();
        assert!(
            (1..=8).contains(&quota),
            "quota {quota} not scaled by 1-RHLI"
        );
        // Other banks and threads are unaffected.
        assert_eq!(t.rhli(attacker, 4), 0.0);
        assert_eq!(t.rhli(ThreadId::new(1), 3), 0.0);
    }

    #[test]
    fn rhli_of_one_blocks_the_thread_entirely() {
        let mut t = throttler();
        let attacker = ThreadId::new(2);
        for _ in 0..10_000 {
            t.record_blacklisted_activation(attacker, 0);
        }
        assert!(t.rhli(attacker, 0) >= 1.0);
        assert_eq!(t.quota(attacker, 0), Some(0));
        assert!(t.max_rhli(attacker) >= 1.0);
    }

    #[test]
    fn swap_and_clear_forgets_after_two_epochs() {
        let mut t = throttler();
        let attacker = ThreadId::new(1);
        for _ in 0..1_000 {
            t.record_blacklisted_activation(attacker, 5);
        }
        let before = t.rhli(attacker, 5);
        assert!(before > 0.0);
        // After one swap the passive counter (which also saw the
        // activations) becomes active: RHLI persists.
        t.swap_and_clear();
        assert!((t.rhli(attacker, 5) - before).abs() < 1e-9);
        // After a second swap with no further activity the counters are
        // clean.
        t.swap_and_clear();
        assert_eq!(t.rhli(attacker, 5), 0.0);
        assert_eq!(t.quota(attacker, 5), None);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut t = throttler();
        let attacker = ThreadId::new(7);
        for _ in 0..100_000 {
            t.record_blacklisted_activation(attacker, 15);
        }
        assert!(t.rhli(attacker, 15) >= 1.0);
        assert!(t.rhli(attacker, 15) <= 2.01, "RHLI must be capped near 1");
    }

    #[test]
    fn metadata_matches_paper_ballpark() {
        // Paper: four bytes per <thread, bank> pair, 512 B total for an
        // 8-thread, 16-bank system.
        let t = throttler();
        let bytes = t.metadata_bits() as f64 / 8.0;
        assert!(
            (300.0..=600.0).contains(&bytes),
            "AttackThrottler metadata {bytes} B, expected ~512 B"
        );
    }

    #[test]
    fn out_of_range_indices_are_ignored() {
        let mut t = throttler();
        t.record_blacklisted_activation(ThreadId::new(100), 3);
        t.record_blacklisted_activation(ThreadId::new(0), 100);
        assert_eq!(t.rhli(ThreadId::new(100), 3), 0.0);
        assert_eq!(t.quota(ThreadId::new(100), 3), None);
    }
}
