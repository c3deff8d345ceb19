//! RowBlocker: the component of BlockHammer that makes RowHammer-unsafe
//! activation rates impossible.
//!
//! RowBlocker combines a per-bank blacklisting filter (RowBlocker-BL, a
//! [`DualCountingBloomFilter`]) with a per-rank activation history buffer
//! (RowBlocker-HB, a [`HistoryBuffer`]). An activation is *unsafe* — and is
//! therefore delayed by the memory request scheduler — exactly when its
//! target row is blacklisted **and** appears in the history buffer, i.e.
//! it was activated less than `tDelay` ago (Figure 2).
//!
//! [`RowBlocker::veto`] answers that query as the cycle the delay lifts.
//! It tests the blacklist first and searches the history buffer only for
//! a blacklisted row, in one lookup that yields both the answer and the
//! lift cycle.
//!
//! RowBlocker owns BlockHammer's one epoch clock. Every bank's filter
//! swaps at the same boundaries (Figure 3), so [`RowBlocker::advance_epochs`]
//! ends each elapsed epoch on all of them at once and reports how many
//! ended; the queries and [`RowBlocker::on_activation`] never move time.

use crate::cbf::DualCountingBloomFilter;
use crate::config::BlockHammerConfig;
use crate::history::HistoryBuffer;
use bh_types::{Cycle, DramAddress, DramOrganization};
use mitigations::DefenseGeometry;

/// Base value the per-epoch filter reseeds are derived from.
const RESEED_BASE: u64 = 0xB10C_4A3E;

/// The RowBlocker mechanism (RowBlocker-BL + RowBlocker-HB).
#[derive(Debug, Clone)]
pub struct RowBlocker {
    /// The channel's organization, which numbers its banks.
    organization: DramOrganization,
    /// One dual counting Bloom filter per bank.
    filters: Vec<DualCountingBloomFilter>,
    /// One history buffer per rank.
    history: Vec<HistoryBuffer>,
    /// Epoch length in cycles (`tCBF / 2`).
    epoch_cycles: Cycle,
    /// Epochs ended so far; ending one reseeds the filters with
    /// `RESEED_BASE ^ epochs`.
    epochs: u64,
    /// Cycle of the next epoch boundary.
    next_epoch_at: Cycle,
}

impl RowBlocker {
    /// Creates RowBlocker for the given configuration and system geometry.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (see
    /// [`BlockHammerConfig::validate`]).
    pub fn new(config: BlockHammerConfig, geometry: DefenseGeometry, seed: u64) -> Self {
        config
            .validate()
            // lint: allow(panic-freedom) -- documented constructor contract; BlockHammerConfig::validate is the fallible path
            .expect("invalid BlockHammer configuration");
        let organization = geometry.organization;
        let filters = (0..organization.banks_per_channel())
            .map(|bank| {
                DualCountingBloomFilter::new(
                    config.cbf_size,
                    config.cbf_hashes,
                    config.n_bl as u32,
                    seed ^ (bank as u64).wrapping_mul(0x9E37_79B9),
                )
            })
            .collect();
        let history = (0..organization.ranks)
            .map(|_| HistoryBuffer::new(config.history_entries, config.t_delay_cycles))
            .collect();
        let epoch_cycles = config.epoch_cycles();
        Self {
            organization,
            filters,
            history,
            epoch_cycles,
            epochs: 0,
            next_epoch_at: epoch_cycles,
        }
    }

    /// The cycle of the next epoch boundary (filter swap).
    pub fn next_epoch_at(&self) -> Cycle {
        self.next_epoch_at
    }

    /// The key used to search the history buffer: unique within the
    /// channel, so within the rank too.
    fn row_key(&self, addr: &DramAddress) -> u64 {
        self.organization.bank_of(addr) as u64 * self.organization.rows_per_bank + addr.row()
    }

    /// Ends every epoch whose boundary is at or before `now`, one at a
    /// time: each swaps every bank's filter with that epoch's reseed.
    /// Returns how many epochs ended, so BlockHammer can end each of them
    /// in AttackThrottler too.
    // lint: alloc-free
    pub fn advance_epochs(&mut self, now: Cycle) -> u64 {
        let mut ended = 0;
        while now >= self.next_epoch_at {
            self.epochs += 1;
            self.next_epoch_at += self.epoch_cycles;
            let reseed = RESEED_BASE ^ self.epochs;
            for filter in &mut self.filters {
                filter.swap(reseed);
            }
            ended += 1;
        }
        ended
    }

    /// Whether `addr`'s row is currently blacklisted in its bank.
    // lint: alloc-free
    pub fn is_blacklisted(&self, addr: &DramAddress) -> bool {
        self.filters[self.organization.bank_of(addr)].is_blacklisted(addr.row())
    }

    /// The "Is this ACT RowHammer-safe?" query (step 1 in Figure 2).
    ///
    /// Returns `None` if the activation may be issued now. Otherwise the
    /// scheduler must delay it, and the result is the cycle the veto lifts
    /// with time alone: when the row's latest activation leaves the
    /// history buffer. An epoch boundary may clear its blacklisting
    /// earlier.
    ///
    /// Only a blacklisted row is looked up in the history buffer. The
    /// buffer expires its entries lazily, before every lookup and every
    /// record, so a skipped lookup changes no later answer.
    // lint: alloc-free
    pub fn veto(&mut self, now: Cycle, addr: &DramAddress) -> Option<Cycle> {
        if !self.is_blacklisted(addr) {
            return None;
        }
        let row_key = self.row_key(addr);
        self.history[addr.rank()].expires_at(now, row_key)
    }

    /// Records an issued activation (steps 8 and 9 in Figure 2). Returns
    /// whether the activated row was blacklisted, which is the event
    /// AttackThrottler counts towards RHLI.
    // lint: alloc-free
    pub fn on_activation(&mut self, now: Cycle, addr: &DramAddress) -> bool {
        let bank = self.organization.bank_of(addr);
        // `observe` computes each filter's H3 index set once and shares it
        // between the blacklist test and the insertion.
        let blacklisted = self.filters[bank].observe(addr.row());
        let row_key = self.row_key(addr);
        self.history[addr.rank()].record(now, row_key);
        blacklisted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitigations::RowHammerThreshold;

    /// A small, fast configuration with the same structure as the real one:
    /// N_RH* = 512, N_BL = 256, epoch = 50_000 cycles.
    fn small_config() -> (BlockHammerConfig, DefenseGeometry) {
        let geometry = DefenseGeometry {
            refresh_window_cycles: 100_000,
            ..DefenseGeometry::default()
        };
        let config =
            BlockHammerConfig::for_rowhammer_threshold(RowHammerThreshold::new(1_024), &geometry);
        (config, geometry)
    }

    fn addr(bank_group: usize, bank: usize, row: u64) -> DramAddress {
        DramAddress::new(0, 0, bank_group, bank, row, 0)
    }

    #[test]
    fn benign_rates_are_never_delayed() {
        let (config, geometry) = small_config();
        let mut rb = RowBlocker::new(config, geometry, 1);
        // Touch many rows a few times each, spread over time.
        let mut now = 0;
        for _ in 0..10 {
            for row in 0..200u64 {
                rb.advance_epochs(now);
                let a = addr((row % 4) as usize, (row % 16 / 4) as usize, row);
                assert_eq!(rb.veto(now, &a), None);
                rb.on_activation(now, &a);
                now += 200;
            }
        }
    }

    #[test]
    fn hammered_row_is_blacklisted_and_throttled() {
        let (config, geometry) = small_config();
        let n_bl = config.n_bl;
        let t_delay = config.t_delay_cycles;
        let mut rb = RowBlocker::new(config, geometry, 2);
        let aggressor = addr(0, 0, 42);
        let mut now = 0;
        // Hammer up to the blacklisting threshold: all safe.
        for _ in 0..n_bl {
            assert_eq!(rb.veto(now, &aggressor), None);
            rb.on_activation(now, &aggressor);
            now += 148; // tRC
        }
        assert!(rb.is_blacklisted(&aggressor));
        // The next activation attempt right away is unsafe, and the veto
        // lifts tDelay after the last ACT...
        let last_act = now - 148;
        assert_eq!(rb.veto(now, &aggressor), Some(last_act + t_delay));
        assert_eq!(
            rb.veto(last_act + t_delay - 1, &aggressor),
            Some(last_act + t_delay)
        );
        // ...when the activation becomes safe.
        assert_eq!(rb.veto(last_act + t_delay, &aggressor), None);
    }

    #[test]
    fn throttled_row_rate_is_bounded_by_t_delay() {
        // Simulate a scheduler that retries an aggressor as fast as allowed
        // and count how many activations land within one refresh window.
        let (config, geometry) = small_config();
        let mut rb = RowBlocker::new(config, geometry, 3);
        let aggressor = addr(1, 1, 7);
        let mut now = 0;
        let mut activations = 0u64;
        while now < config.t_refw_cycles {
            rb.advance_epochs(now);
            if rb.veto(now, &aggressor).is_none() {
                rb.on_activation(now, &aggressor);
                activations += 1;
                now += geometry.t_rc_cycles; // fastest physically possible
            } else {
                now += 64; // retry a bit later, like a scheduler would
            }
        }
        assert!(
            activations <= config.n_rh_star,
            "row received {activations} activations, above N_RH* = {}",
            config.n_rh_star
        );
        // The mechanism must not be overly conservative either: the attacker
        // should get a substantial fraction of the allowed budget.
        assert!(
            activations >= config.n_rh_star / 2,
            "row received only {activations} activations, misconfigured tDelay?"
        );
    }

    #[test]
    fn unrelated_rows_are_unaffected_by_an_aggressor() {
        let (config, geometry) = small_config();
        let n_bl = config.n_bl;
        let mut rb = RowBlocker::new(config, geometry, 4);
        let aggressor = addr(0, 0, 42);
        let benign = addr(0, 0, 43);
        let mut now = 0;
        for _ in 0..(n_bl * 2) {
            rb.advance_epochs(now);
            if rb.veto(now, &aggressor).is_none() {
                rb.on_activation(now, &aggressor);
            }
            now += 148;
        }
        rb.advance_epochs(now);
        // The benign neighbour row in the same bank is not blacklisted
        // (false positives across *rows* require hash aliasing, which the
        // re-seeded 4-hash filter makes unlikely for a single row).
        assert_eq!(rb.veto(now, &benign), None);
    }

    #[test]
    fn blacklist_expires_after_a_quiet_cbf_lifetime() {
        let (config, geometry) = small_config();
        let mut rb = RowBlocker::new(config, geometry, 5);
        let aggressor = addr(2, 3, 9);
        let mut now = 0;
        for _ in 0..config.n_bl {
            rb.on_activation(now, &aggressor);
            now += 148;
        }
        assert!(rb.is_blacklisted(&aggressor));
        // After a full CBF lifetime (two epochs) of silence both filters
        // have been cleared and the row is forgotten.
        let later = now + config.t_cbf_cycles + 2;
        rb.advance_epochs(later);
        assert!(!rb.is_blacklisted(&aggressor));
        assert_eq!(rb.veto(later, &aggressor), None);
    }

    #[test]
    fn per_bank_filters_are_independent() {
        let (config, geometry) = small_config();
        let mut rb = RowBlocker::new(config, geometry, 6);
        let aggressor_bank0 = addr(0, 0, 100);
        let same_row_bank5 = addr(1, 1, 100);
        let mut now = 0;
        for _ in 0..config.n_bl {
            rb.on_activation(now, &aggressor_bank0);
            now += 148;
        }
        assert!(rb.is_blacklisted(&aggressor_bank0));
        assert!(
            !rb.is_blacklisted(&same_row_bank5),
            "the same row index in another bank must not be blacklisted"
        );
    }

    #[test]
    fn advance_reports_swaps() {
        let (config, geometry) = small_config();
        let epoch = config.epoch_cycles();
        let mut rb = RowBlocker::new(config, geometry, 7);
        assert_eq!(rb.advance_epochs(epoch - 1), 0);
        assert_eq!(rb.advance_epochs(epoch), 1);
        assert_eq!(rb.advance_epochs(epoch + epoch / 2), 0);
        assert_eq!(rb.advance_epochs(3 * epoch + epoch / 2), 2);
        assert_eq!(rb.epochs, 3);
        assert_eq!(rb.next_epoch_at(), 4 * epoch);
    }

    #[test]
    fn a_multi_epoch_jump_matches_stepping_epoch_by_epoch() {
        // Jumping over many epoch boundaries in one call must land in exactly
        // the state that stepping over every boundary produces: same epoch
        // count and next boundary, same active filters and hash seeds
        // (therefore identical estimates after fresh insertions).
        let (config, geometry) = small_config();
        let epoch = config.epoch_cycles();
        let aggressor = addr(0, 0, 11);
        for missed in [2u64, 3, 5, 8, 1_000, 1_001] {
            let mut jumped = RowBlocker::new(config, geometry, 9);
            for i in 0..60u64 {
                jumped.on_activation(i * 148, &aggressor);
            }
            let mut stepped = jumped.clone();
            let target = missed * epoch + 1;
            assert_eq!(jumped.advance_epochs(target), missed);
            // Step the reference through every boundary individually.
            let mut at = epoch;
            while at <= target {
                assert_eq!(stepped.advance_epochs(at), 1);
                at += epoch;
            }
            assert_eq!(stepped.advance_epochs(target), 0);
            assert_eq!(jumped.epochs, stepped.epochs, "missed = {missed}");
            assert_eq!(jumped.next_epoch_at(), stepped.next_epoch_at());
            for row in 0..64u64 {
                let a = addr(0, 0, row);
                jumped.on_activation(target + row, &a);
                stepped.on_activation(target + row, &a);
                let bank = geometry.organization.bank_of(&a);
                assert_eq!(
                    jumped.filters[bank].estimate(row),
                    stepped.filters[bank].estimate(row),
                    "estimates diverged after a {missed}-epoch jump"
                );
            }
        }
    }
}
