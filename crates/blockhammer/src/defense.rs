//! The complete BlockHammer defense (RowBlocker + AttackThrottler) behind
//! the [`mitigations::RowHammerDefense`] trait.

use crate::config::BlockHammerConfig;
use crate::rowblocker::RowBlocker;
use crate::throttler::AttackThrottler;
use bh_types::{Cycle, DramAddress, ThreadId};
use mitigations::{DefenseGeometry, DefenseStats, MetadataFootprint, RowHammerDefense};
use std::collections::HashMap;

/// BlockHammer's operating mode (Section 3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperatingMode {
    /// Track activation rates and compute RHLI, but never delay an
    /// activation or apply a quota. Used to characterize workloads and to
    /// expose RHLI to the OS without interfering.
    ObserveOnly,
    /// Normal operation: delay unsafe activations and throttle threads with
    /// non-zero RHLI.
    FullFunctional,
}

/// Counters specific to BlockHammer (beyond the generic
/// [`DefenseStats`]).
#[derive(Debug, Clone, Default)]
pub struct BlockHammerStats {
    /// Activations that were delayed although the row's *exact* activation
    /// count was below `N_BL` (Bloom-filter aliasing), i.e. false positives.
    pub false_positive_delays: u64,
    /// Activations that were delayed and whose exact count had genuinely
    /// crossed `N_BL`.
    pub true_positive_delays: u64,
    /// Observed gaps (in cycles) between consecutive activations of
    /// blacklisted rows — the delay penalty distribution of Section 8.4.
    /// Sampled only with false-positive tracking on.
    pub delay_samples: Vec<Cycle>,
    /// Number of epoch (filter swap) events.
    pub epoch_swaps: u64,
}

/// The BlockHammer RowHammer defense.
#[derive(Debug)]
pub struct BlockHammer {
    config: BlockHammerConfig,
    geometry: DefenseGeometry,
    mode: OperatingMode,
    rowblocker: RowBlocker,
    throttler: AttackThrottler,
    /// Exact per-(bank, row) activation counts for the current and previous
    /// epoch, used only to classify delays as true/false positives
    /// (a model-level shadow; real hardware does not need it).
    shadow_current: HashMap<(usize, u64), u64>,
    shadow_previous: HashMap<(usize, u64), u64>,
    /// Last activation cycle per (bank, row) for blacklisted rows, used to
    /// sample the imposed delay (only with false-positive tracking on).
    last_blacklisted_act: HashMap<(usize, u64), Cycle>,
    track_false_positives: bool,
    /// The cycle of the latest veto, and the earliest cycle at which a row
    /// vetoed then leaves the history buffer.
    veto_lift: (Cycle, Cycle),
    stats: DefenseStats,
    bh_stats: BlockHammerStats,
}

impl BlockHammer {
    /// Creates BlockHammer with the given configuration, system geometry
    /// and operating mode.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// (see [`BlockHammerConfig::validate`]).
    pub fn new(config: BlockHammerConfig, geometry: DefenseGeometry, mode: OperatingMode) -> Self {
        let rowblocker = RowBlocker::new(config, geometry, 0xB10C_4A3E);
        let throttler = AttackThrottler::new(
            &config,
            geometry.threads,
            geometry.organization.banks_per_channel(),
        );
        Self {
            config,
            geometry,
            mode,
            rowblocker,
            throttler,
            shadow_current: HashMap::new(),
            shadow_previous: HashMap::new(),
            last_blacklisted_act: HashMap::new(),
            track_false_positives: false,
            veto_lift: (Cycle::MAX, Cycle::MAX),
            stats: DefenseStats::default(),
            bh_stats: BlockHammerStats::default(),
        }
    }

    /// Enables exact shadow tracking so delays can be classified as true or
    /// false positives, and the delay penalty sampled (Section 8.4). Off
    /// by default because it costs a hash-map update per activation.
    pub fn enable_false_positive_tracking(&mut self) {
        self.track_false_positives = true;
    }

    /// The configuration in use.
    pub fn config(&self) -> &BlockHammerConfig {
        &self.config
    }

    /// BlockHammer-specific statistics (false positives, delay penalty
    /// distribution, epoch swaps).
    pub fn blockhammer_stats(&self) -> &BlockHammerStats {
        &self.bh_stats
    }

    /// The AttackThrottler component.
    pub fn throttler(&self) -> &AttackThrottler {
        &self.throttler
    }

    fn exact_count(&self, bank: usize, row: u64) -> u64 {
        self.shadow_current.get(&(bank, row)).copied().unwrap_or(0)
            + self.shadow_previous.get(&(bank, row)).copied().unwrap_or(0)
    }

    /// Ends one epoch for the state that swaps in lockstep with
    /// RowBlocker's filters: AttackThrottler's counters (Section 3.2.1)
    /// and the Section 8.4 shadow counts.
    fn end_epoch(&mut self) {
        self.bh_stats.epoch_swaps += 1;
        self.throttler.swap_and_clear();
        if self.track_false_positives {
            self.shadow_previous = std::mem::take(&mut self.shadow_current);
            self.last_blacklisted_act.clear();
        }
    }
}

impl RowHammerDefense for BlockHammer {
    fn name(&self) -> &'static str {
        match self.mode {
            OperatingMode::ObserveOnly => "BlockHammer(observe)",
            OperatingMode::FullFunctional => "BlockHammer",
        }
    }

    /// The only place BlockHammer's time advances: ends every epoch whose
    /// boundary is at or before `now`, each one in RowBlocker's filters and
    /// in the state that swaps with them. The controller ticks the defense
    /// before any other hook of the cycle, so the hooks never see a stale
    /// epoch.
    fn tick(&mut self, now: Cycle) {
        for _ in 0..self.rowblocker.advance_epochs(now) {
            self.end_epoch();
        }
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // An epoch boundary is the only time a blacklisting or a quota
        // changes without an activation, so it needs a tick of its own:
        // a jump past it would answer from the ended epoch's blacklists
        // and quotas until the next tick. A veto also lifts when the row
        // leaves the history buffer, so the rows vetoed at `now` report
        // that expiry: neither the controller's pass memo nor a skip
        // passes the first cycle one of them becomes safe.
        let (vetoed_at, lift_at) = self.veto_lift;
        let mut at = self.rowblocker.next_epoch_at();
        if vetoed_at == now {
            at = at.min(lift_at);
        }
        Some(at.max(now + 1))
    }

    fn is_activation_safe(&mut self, now: Cycle, _thread: ThreadId, addr: &DramAddress) -> bool {
        let veto = self.rowblocker.veto(now, addr);
        if let Some(lifts_at) = veto {
            let (at, earliest) = self.veto_lift;
            let earliest = if at == now { earliest } else { Cycle::MAX };
            self.veto_lift = (now, earliest.min(lifts_at));
        }
        match self.mode {
            OperatingMode::ObserveOnly => true,
            OperatingMode::FullFunctional => veto.is_none(),
        }
    }

    fn on_activation(
        &mut self,
        now: Cycle,
        thread: ThreadId,
        addr: &DramAddress,
    ) -> Vec<DramAddress> {
        self.stats.record_activation();
        let bank = self.geometry.organization.bank_of(addr);
        let row = addr.row();
        let was_blacklisted = self.rowblocker.on_activation(now, addr);
        if self.track_false_positives {
            *self.shadow_current.entry((bank, row)).or_insert(0) += 1;
        }
        if was_blacklisted {
            self.stats.blacklist_insertions += 1;
            self.throttler.record_blacklisted_activation(thread, bank);
            if self.track_false_positives {
                // Sample the imposed inter-activation gap for Section 8.4.
                if let Some(&last) = self.last_blacklisted_act.get(&(bank, row)) {
                    if self.bh_stats.delay_samples.len() < 1_000_000 {
                        self.bh_stats.delay_samples.push(now.saturating_sub(last));
                    }
                }
                self.last_blacklisted_act.insert((bank, row), now);
                if self.exact_count(bank, row) >= self.config.n_bl {
                    self.bh_stats.true_positive_delays += 1;
                } else {
                    self.bh_stats.false_positive_delays += 1;
                }
            }
        }
        // BlockHammer never injects victim refreshes: prevention is done
        // purely by rate-limiting the aggressor.
        Vec::new()
    }

    fn inflight_quota(&self, thread: ThreadId, global_bank: usize) -> Option<u32> {
        match self.mode {
            OperatingMode::ObserveOnly => None,
            OperatingMode::FullFunctional => self.throttler.quota(thread, global_bank),
        }
    }

    fn rhli(&self, thread: ThreadId, global_bank: usize) -> f64 {
        self.throttler.rhli(thread, global_bank)
    }

    fn metadata(&self) -> MetadataFootprint {
        // Per rank: one D-CBF per bank (two filters of `cbf_size` counters,
        // each counter wide enough to count to N_BL), a history buffer whose
        // entries hold a row id, a timestamp and a valid bit (CAM-searchable
        // row field plus SRAM payload), and the AttackThrottler counters.
        let banks_per_rank = self.geometry.organization.banks_per_rank() as u64;
        let counter_bits = 64 - u64::leading_zeros(self.config.n_bl.max(1)) as u64 + 1;
        let cbf_bits = banks_per_rank * 2 * self.config.cbf_size as u64 * counter_bits;
        let hb_entry_bits = 32; // row id + timestamp + valid (paper: 32 bits)
        let hb_bits = self.config.history_entries as u64 * hb_entry_bits;
        let throttler_bits = self.throttler.metadata_bits();
        MetadataFootprint {
            sram_bits: cbf_bits + hb_bits + throttler_bits,
            cam_bits: hb_bits,
        }
    }

    fn stats(&self) -> DefenseStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitigations::RowHammerThreshold;

    fn small_setup(mode: OperatingMode) -> (BlockHammer, DefenseGeometry) {
        let geometry = DefenseGeometry {
            refresh_window_cycles: 100_000,
            ..DefenseGeometry::default()
        };
        let config =
            BlockHammerConfig::for_rowhammer_threshold(RowHammerThreshold::new(1_024), &geometry);
        (BlockHammer::new(config, geometry, mode), geometry)
    }

    fn addr(bg: usize, bank: usize, row: u64) -> DramAddress {
        DramAddress::new(0, 0, bg, bank, row, 0)
    }

    #[test]
    fn benign_thread_has_zero_rhli_and_is_never_blocked() {
        let (mut bh, _) = small_setup(OperatingMode::FullFunctional);
        let thread = ThreadId::new(1);
        let mut now = 0;
        for row in 0..500u64 {
            bh.tick(now);
            let a = addr((row % 4) as usize, ((row / 4) % 4) as usize, row);
            assert!(bh.is_activation_safe(now, thread, &a));
            bh.on_activation(now, thread, &a);
            now += 300;
        }
        assert_eq!(bh.throttler().max_rhli(thread), 0.0);
        assert_eq!(bh.inflight_quota(thread, 0), None);
    }

    #[test]
    fn attacker_thread_gets_non_zero_rhli_and_a_shrinking_quota() {
        let (mut bh, geometry) = small_setup(OperatingMode::FullFunctional);
        let attacker = ThreadId::new(0);
        let target = addr(0, 0, 42);
        let bank = geometry.organization.bank_of(&target);
        let mut now = 0;
        let mut vetoes = 0;
        // Hammer as fast as the defense allows for one refresh window.
        while now < 100_000 {
            bh.tick(now);
            if bh.is_activation_safe(now, attacker, &target) {
                bh.on_activation(now, attacker, &target);
                now += 148;
            } else {
                vetoes += 1;
                now += 64;
            }
        }
        assert!(bh.rhli(attacker, bank) > 0.0);
        let quota = bh.inflight_quota(attacker, bank);
        assert!(quota.is_some(), "an attacking thread must be quota-limited");
        assert!(vetoes > 0);
    }

    #[test]
    fn observe_only_mode_never_interferes_but_still_measures() {
        let (mut bh, geometry) = small_setup(OperatingMode::ObserveOnly);
        let attacker = ThreadId::new(0);
        let target = addr(1, 0, 7);
        let bank = geometry.organization.bank_of(&target);
        let mut now = 0;
        for _ in 0..2_000u64 {
            bh.tick(now);
            // Observe-only must always answer "safe"...
            assert!(bh.is_activation_safe(now, attacker, &target));
            bh.on_activation(now, attacker, &target);
            now += 148;
        }
        // ...and never apply a quota...
        assert_eq!(bh.inflight_quota(attacker, bank), None);
        // ...while still measuring a large RHLI for the attacker
        // (the paper reports RHLI values around 7-15 in observe-only mode).
        assert!(
            bh.rhli(attacker, bank) > 1.0,
            "observe-only RHLI = {}, expected > 1",
            bh.rhli(attacker, bank)
        );
    }

    #[test]
    fn full_functional_keeps_rhli_below_one() {
        let (mut bh, geometry) = small_setup(OperatingMode::FullFunctional);
        let attacker = ThreadId::new(0);
        let target = addr(1, 1, 9);
        let bank = geometry.organization.bank_of(&target);
        let mut now = 0;
        while now < 200_000 {
            bh.tick(now);
            // Emulate the memory controller: a quota of zero means the
            // thread's requests are not even accepted, so no activation can
            // happen on its behalf.
            let blocked = bh.inflight_quota(attacker, bank) == Some(0);
            if !blocked && bh.is_activation_safe(now, attacker, &target) {
                bh.on_activation(now, attacker, &target);
                now += 148;
            } else {
                now += 64;
            }
        }
        let rhli = bh.rhli(attacker, bank);
        assert!(
            rhli <= 1.0 + 1e-6,
            "RHLI must never exceed 1 in a protected system, got {rhli}"
        );
        assert!(
            rhli > 0.5,
            "the attacker should have been detected, RHLI = {rhli}"
        );
    }

    #[test]
    fn false_positive_tracking_classifies_delays() {
        let (mut bh, _) = small_setup(OperatingMode::FullFunctional);
        bh.enable_false_positive_tracking();
        let attacker = ThreadId::new(0);
        let target = addr(0, 0, 11);
        let mut now = 0;
        while now < 150_000 {
            bh.tick(now);
            if bh.is_activation_safe(now, attacker, &target) {
                bh.on_activation(now, attacker, &target);
                now += 148;
            } else {
                now += 64;
            }
        }
        let stats = bh.blockhammer_stats();
        // The aggressor genuinely crossed N_BL, so its delays are true
        // positives; aliasing-induced false positives are rare.
        assert!(stats.true_positive_delays > 0);
        let fp_rate = stats.false_positive_delays as f64 / bh.stats().observed_activations as f64;
        assert!(fp_rate < 0.01, "false positive rate {fp_rate} too high");
        // Delay samples were collected and the largest is close to tDelay.
        let largest = stats.delay_samples.iter().copied().max().unwrap_or(0);
        assert!(largest >= bh.config().t_delay_cycles / 2);
    }

    #[test]
    fn bloom_filter_aliases_are_classified_as_false_positives() {
        // 6,000 distinct rows, each activated once, fill a 1K-counter
        // filter far past N_BL = 8: later rows alias onto saturated
        // counters and are blacklisted without ever reaching N_BL.
        let geometry = DefenseGeometry {
            refresh_window_cycles: 100_000,
            ..DefenseGeometry::default()
        };
        let config = BlockHammerConfig {
            cbf_size: 1_024,
            ..BlockHammerConfig::for_rowhammer_threshold(RowHammerThreshold::new(32), &geometry)
        };
        assert_eq!(config.n_bl, 8);
        let mut bh = BlockHammer::new(config, geometry, OperatingMode::FullFunctional);
        bh.enable_false_positive_tracking();
        let thread = ThreadId::new(0);
        for row in 0..6_000u64 {
            bh.on_activation(row, thread, &addr(0, 0, row));
        }
        let stats = bh.blockhammer_stats();
        assert_eq!(stats.epoch_swaps, 0, "the rows span one epoch");
        assert_eq!(stats.true_positive_delays, 0, "no row reached N_BL");
        assert!(stats.false_positive_delays > 0, "no alias was classified");
    }

    #[test]
    fn untracked_blockhammer_blocks_without_sampling_delays() {
        let (mut bh, _) = small_setup(OperatingMode::FullFunctional);
        let attacker = ThreadId::new(0);
        let target = addr(0, 0, 11);
        let mut now = 0;
        let mut vetoes = 0;
        while now < 150_000 {
            bh.tick(now);
            if bh.is_activation_safe(now, attacker, &target) {
                bh.on_activation(now, attacker, &target);
                now += 148;
            } else {
                vetoes += 1;
                now += 64;
            }
        }
        assert!(vetoes > 0, "the aggressor was never delayed");
        assert!(bh.stats().blacklist_insertions > 1);
        // Section 8.4's bookkeeping stays off unless the study asks.
        let stats = bh.blockhammer_stats();
        assert!(stats.delay_samples.is_empty());
        assert_eq!(stats.true_positive_delays + stats.false_positive_delays, 0);
        assert!(bh.last_blacklisted_act.is_empty());
    }

    #[test]
    fn metadata_footprint_matches_paper_scale() {
        // Full-scale configuration: the paper reports ~51.5 KiB SRAM and
        // ~1.7 KiB CAM per rank for N_RH = 32K.
        let geometry = DefenseGeometry::default();
        let config =
            BlockHammerConfig::for_rowhammer_threshold(RowHammerThreshold::new(32_768), &geometry);
        let bh = BlockHammer::new(config, geometry, OperatingMode::FullFunctional);
        let m = bh.metadata();
        assert!(
            (40.0..70.0).contains(&m.sram_kib()),
            "SRAM {} KiB out of the expected range",
            m.sram_kib()
        );
        assert!(
            (1.0..6.0).contains(&m.cam_kib()),
            "CAM {} KiB out of the expected range",
            m.cam_kib()
        );
    }

    #[test]
    fn next_event_reports_where_a_veto_lifts() {
        // Between hook calls the answer may change only at `next_event`:
        // the row stays vetoed up to the reported cycle and is safe there.
        let (mut bh, _) = small_setup(OperatingMode::FullFunctional);
        let attacker = ThreadId::new(0);
        let target = addr(0, 0, 42);
        let mut now = 0;
        while bh.is_activation_safe(now, attacker, &target) {
            bh.on_activation(now, attacker, &target);
            now += 148;
        }
        let lift = bh.next_event(now).expect("a vetoed row lifts");
        assert!(lift > now + 1, "the veto lifts at once, at {lift}");
        for t in now + 1..lift {
            assert!(!bh.is_activation_safe(t, attacker, &target));
        }
        assert!(bh.is_activation_safe(lift, attacker, &target));
    }

    #[test]
    fn epoch_swaps_are_counted_via_tick() {
        let (mut bh, _) = small_setup(OperatingMode::FullFunctional);
        let epoch = bh.config().epoch_cycles();
        bh.tick(epoch + 1);
        bh.tick(2 * epoch + 1);
        assert_eq!(bh.blockhammer_stats().epoch_swaps, 2);
    }

    #[test]
    fn one_tick_across_three_boundaries_ends_three_epochs() {
        // One tick after three epoch boundaries must end three epochs, in
        // AttackThrottler as well as in the filters: after the third, the
        // attacker's epoch-0 activations are forgotten and its quota
        // lifted.
        let (mut bh, geometry) = small_setup(OperatingMode::FullFunctional);
        let epoch = bh.config().epoch_cycles();
        let attacker = ThreadId::new(0);
        let target = addr(0, 0, 42);
        let bank = geometry.organization.bank_of(&target);
        let mut now = 0;
        while now < epoch {
            bh.tick(now);
            if bh.is_activation_safe(now, attacker, &target) {
                bh.on_activation(now, attacker, &target);
                now += 148;
            } else {
                now += 64;
            }
        }
        assert!(bh.rhli(attacker, bank) > 0.0, "epoch 0 saw no attack");
        assert_eq!(bh.blockhammer_stats().epoch_swaps, 0);
        bh.tick(3 * epoch);
        assert_eq!(bh.blockhammer_stats().epoch_swaps, 3);
        assert_eq!(bh.rhli(attacker, bank), 0.0);
        assert_eq!(bh.inflight_quota(attacker, bank), None);
    }
}
