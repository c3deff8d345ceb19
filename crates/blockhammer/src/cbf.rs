//! Counting Bloom filters and the dual (time-interleaved) variant.
//!
//! RowBlocker-BL estimates per-row activation counts with counting Bloom
//! filters (CBFs): inserting a row increments the `k` counters its hash
//! functions select; testing returns the minimum of those counters, which
//! is an upper bound on the row's true insertion count (false positives are
//! possible, false negatives are not). Two CBFs used in a time-interleaved
//! fashion (the "unified Bloom filter" idea) give a rolling-window estimate
//! that never forgets an aggressor (Section 3.1.1, Figure 3).
//!
//! This is the simulator's hottest data structure — every DRAM activation
//! consults and updates it — so the implementation is tuned accordingly:
//!
//! * insert/estimate are allocation-free: a row's counter indices are
//!   computed once into a stack [`IndexSet`] and shared by the blacklist
//!   test and both filters of a [`DualCountingBloomFilter`];
//! * epoch clears are O(1): counters carry a generation stamp instead of
//!   being eagerly zeroed, so [`CountingBloomFilter::clear`] just bumps the
//!   filter generation (a counter whose stamp is stale reads as zero);
//! * catching up after a long idle gap is O(1): when more than one epoch
//!   boundary passed since the last operation,
//!   [`DualCountingBloomFilter::advance_to`] computes the final state
//!   arithmetically instead of looping once per missed epoch.
//!
//! All of this is behaviour-preserving: the generation-stamped filter
//! answers every query exactly as the eager-clear implementation would
//! (`tests/tests/cbf_equivalence.rs` pins this against a reference
//! reimplementation across epoch rollovers and reseeds).

use crate::hash::{H3HashFamily, IndexSet};
use bh_types::Cycle;

/// Packed filter counter layout: the saturating value in the low 32 bits,
/// the generation stamp in the high 32 bits. A counter stamped with an
/// older generation than the filter's current one has been lazily cleared
/// and reads as zero.
///
/// Packing into a plain `u64` keeps the array a single 8-byte load per
/// counter on the estimate path *and* lets `vec![0u64; size]` allocate
/// it already zeroed. Table 7 sizes a filter at 1K–8K counters (8–64
/// KiB), two filters per bank.
/// [`CountingBloomFilter::clear`] eagerly flushes the array on the — in
/// practice unreachable — stamp wraparound to keep stale stamps from ever
/// aliasing the current generation.
#[inline]
fn unpack(counter: u64) -> (u32, u32) {
    (counter as u32, (counter >> 32) as u32)
}

#[inline]
fn pack(value: u32, stamp: u32) -> u64 {
    (u64::from(stamp) << 32) | u64::from(value)
}

/// A counting Bloom filter with saturating counters and O(1) clears.
#[derive(Debug, Clone)]
pub struct CountingBloomFilter {
    /// Packed `(stamp << 32) | value` counters; see [`pack`].
    counters: Vec<u64>,
    hashes: H3HashFamily,
    /// Saturation value of each counter (the paper uses 12-13-bit counters
    /// sized to count up to the blacklisting threshold).
    saturation: u32,
    /// Current generation; bumped by [`CountingBloomFilter::clear`].
    generation: u32,
}

impl CountingBloomFilter {
    /// Creates a filter with `size` counters (power of two), `hash_count`
    /// H3 hash functions and counters saturating at `saturation`.
    ///
    /// # Panics
    ///
    /// Panics if `hash_count` is zero or exceeds
    /// [`MAX_HASH_FUNCTIONS`](crate::hash::MAX_HASH_FUNCTIONS) (a zero-hash
    /// filter would silently answer zero to every estimate and never
    /// blacklist anything), or if `size` is not a power of two.
    pub fn new(size: usize, hash_count: usize, saturation: u32, seed: u64) -> Self {
        Self {
            counters: vec![0; size],
            hashes: H3HashFamily::new(hash_count, size, seed),
            saturation,
            generation: 0,
        }
    }

    /// Number of counters.
    pub fn size(&self) -> usize {
        self.counters.len()
    }

    /// The counter indices `row` maps to under the filter's current hash
    /// seeds, computed without heap allocation.
    // lint: alloc-free
    pub fn index_set(&self, row: u64) -> IndexSet {
        self.hashes.index_set(row)
    }

    /// Inserts `row`, incrementing all of its counters (saturating).
    // lint: alloc-free
    pub fn insert(&mut self, row: u64) {
        let set = self.hashes.index_set(row);
        self.insert_at(&set);
    }

    /// Inserts using a precomputed index set (must come from this filter's
    /// [`CountingBloomFilter::index_set`] under the current seeds).
    // lint: alloc-free
    pub fn insert_at(&mut self, set: &IndexSet) {
        let generation = self.generation;
        let saturation = self.saturation;
        for &idx in set.as_slice() {
            let (mut value, stamp) = unpack(self.counters[idx]);
            if stamp != generation {
                // Lazily apply the pending clear before counting.
                value = 0;
            }
            if value < saturation {
                value += 1;
            }
            self.counters[idx] = pack(value, generation);
        }
    }

    /// Returns an upper bound on the number of times `row` was inserted
    /// since the last clear (the minimum of its counters).
    // lint: alloc-free
    pub fn estimate(&self, row: u64) -> u32 {
        // Pure queries skip the IndexSet materialization and stream the
        // hash outputs straight into the min fold.
        let generation = self.generation;
        self.hashes
            .indices(row)
            .map(|idx| {
                let (value, stamp) = unpack(self.counters[idx]);
                if stamp == generation {
                    value
                } else {
                    0
                }
            })
            .min()
            // lint: allow(panic-freedom) -- validated filter geometry guarantees at least one hash function
            .expect("a filter has at least one hash function")
    }

    /// Estimates using a precomputed index set (must come from this
    /// filter's [`CountingBloomFilter::index_set`] under the current
    /// seeds).
    // lint: alloc-free
    pub fn estimate_at(&self, set: &IndexSet) -> u32 {
        debug_assert!(!set.is_empty(), "an index set holds at least one index");
        let mut min = u32::MAX;
        for &idx in set.as_slice() {
            let (value, stamp) = unpack(self.counters[idx]);
            min = min.min(if stamp == self.generation { value } else { 0 });
        }
        min
    }

    /// Clears every counter and re-seeds the hash functions so the filter's
    /// aliasing pattern changes (preventing a benign row from being
    /// repeatedly victimized by aliasing with an aggressor).
    ///
    /// O(1) in the number of counters: the clear is recorded as a
    /// generation bump and applied lazily on the next touch of each
    /// counter. (Exception: once every `u32::MAX` clears the stamp space
    /// wraps and the array is flushed eagerly so stale stamps can never
    /// alias the current generation.)
    // lint: alloc-free
    pub fn clear(&mut self, reseed_value: u64) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Stamp wraparound: every counter is reset to (value 0,
            // stamp 0), which reads as a current-generation zero.
            self.counters.fill(0);
        }
        self.hashes.reseed(reseed_value);
    }
}

/// Identifier of the two filters inside a [`DualCountingBloomFilter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ActiveFilter {
    A,
    B,
}

/// Base value the per-clear hash reseeds are derived from.
const RESEED_BASE: u64 = 0xB10C_4A3E;

/// Two counting Bloom filters used in a time-interleaved manner (D-CBF).
///
/// Every insertion goes into both filters; only the *active* filter answers
/// blacklist queries. At the end of every epoch (half the CBF lifetime
/// `tCBF`), the active filter is cleared and the roles swap, so the filter
/// answering queries always holds between one and two epochs of history —
/// a rolling window that can never miss an aggressor.
#[derive(Debug, Clone)]
pub struct DualCountingBloomFilter {
    filter_a: CountingBloomFilter,
    filter_b: CountingBloomFilter,
    active: ActiveFilter,
    /// Epoch length in cycles (tCBF / 2).
    epoch_cycles: Cycle,
    /// Cycle at which the next clear/swap happens.
    next_swap: Cycle,
    /// Blacklisting threshold `N_BL`.
    blacklist_threshold: u32,
    /// Number of clear operations performed (also used to derive reseed
    /// values).
    clears: u64,
}

impl DualCountingBloomFilter {
    /// Creates a D-CBF.
    ///
    /// * `size` — counters per filter (power of two).
    /// * `hash_count` — H3 hash functions per filter.
    /// * `blacklist_threshold` — `N_BL`.
    /// * `epoch_cycles` — epoch length (`tCBF / 2`).
    pub fn new(
        size: usize,
        hash_count: usize,
        blacklist_threshold: u32,
        epoch_cycles: Cycle,
        seed: u64,
    ) -> Self {
        // Counters only ever need to count up to N_BL; saturate just above.
        let saturation = blacklist_threshold.saturating_add(1);
        Self {
            filter_a: CountingBloomFilter::new(size, hash_count, saturation, seed),
            filter_b: CountingBloomFilter::new(size, hash_count, saturation, seed ^ 0x5555),
            active: ActiveFilter::A,
            epoch_cycles: epoch_cycles.max(1),
            next_swap: epoch_cycles.max(1),
            blacklist_threshold,
            clears: 0,
        }
    }

    /// The blacklisting threshold `N_BL`.
    pub fn blacklist_threshold(&self) -> u32 {
        self.blacklist_threshold
    }

    /// The epoch length in cycles.
    pub fn epoch_cycles(&self) -> Cycle {
        self.epoch_cycles
    }

    /// Cycle at which the next clear/swap will happen.
    pub fn next_swap_at(&self) -> Cycle {
        self.next_swap
    }

    /// Number of clear (epoch-rollover) operations performed so far.
    pub fn clears(&self) -> u64 {
        self.clears
    }

    fn active_filter(&self) -> &CountingBloomFilter {
        match self.active {
            ActiveFilter::A => &self.filter_a,
            ActiveFilter::B => &self.filter_b,
        }
    }

    /// Advances epoch bookkeeping to `now`, clearing and swapping filters
    /// for every epoch boundary that has passed. Returns `true` if at least
    /// one swap happened (callers use this to swap their own
    /// epoch-interleaved state, e.g. AttackThrottler counters).
    ///
    /// O(1) regardless of how many boundaries passed: a single missed epoch
    /// takes the ordinary clear-and-swap step; two or more missed epochs
    /// mean both filters end up cleared, so the final state (clear count,
    /// active filter, each filter's last reseed) is computed directly.
    // lint: alloc-free
    pub fn advance_to(&mut self, now: Cycle) -> bool {
        if now < self.next_swap {
            return false;
        }
        let missed = (now - self.next_swap) / self.epoch_cycles + 1;
        self.next_swap += missed * self.epoch_cycles;
        self.clears += missed;
        if missed == 1 {
            let reseed = RESEED_BASE ^ self.clears;
            match self.active {
                ActiveFilter::A => {
                    self.filter_a.clear(reseed);
                    self.active = ActiveFilter::B;
                }
                ActiveFilter::B => {
                    self.filter_b.clear(reseed);
                    self.active = ActiveFilter::A;
                }
            }
        } else {
            // Two or more boundaries passed with no intervening insertions:
            // both filters were cleared at least once. The filter cleared
            // *last* is the one that is passive now (its reseed used the
            // final clear count); the now-active filter's last clear was
            // the one before it. An odd number of swaps flips the roles.
            if missed % 2 == 1 {
                self.active = match self.active {
                    ActiveFilter::A => ActiveFilter::B,
                    ActiveFilter::B => ActiveFilter::A,
                };
            }
            let last_reseed = RESEED_BASE ^ self.clears;
            let previous_reseed = RESEED_BASE ^ (self.clears - 1);
            match self.active {
                ActiveFilter::A => {
                    self.filter_b.clear(last_reseed);
                    self.filter_a.clear(previous_reseed);
                }
                ActiveFilter::B => {
                    self.filter_a.clear(last_reseed);
                    self.filter_b.clear(previous_reseed);
                }
            }
        }
        true
    }

    /// Inserts an activation of `row` at cycle `now` into both filters.
    // lint: alloc-free
    pub fn insert(&mut self, now: Cycle, row: u64) {
        let _ = self.observe(now, row);
    }

    /// Inserts an activation of `row` at cycle `now` into both filters and
    /// reports whether the row was already blacklisted at insertion time.
    ///
    /// This is the one-stop hot-path entry point: each filter's H3 index
    /// set is computed exactly once and shared between the blacklist test
    /// and the insertion (the two filters hash independently, so there is
    /// one set per filter).
    // lint: alloc-free
    pub fn observe(&mut self, now: Cycle, row: u64) -> bool {
        self.advance_to(now);
        let set_a = self.filter_a.index_set(row);
        let set_b = self.filter_b.index_set(row);
        let estimate = match self.active {
            ActiveFilter::A => self.filter_a.estimate_at(&set_a),
            ActiveFilter::B => self.filter_b.estimate_at(&set_b),
        };
        let blacklisted = estimate >= self.blacklist_threshold;
        self.filter_a.insert_at(&set_a);
        self.filter_b.insert_at(&set_b);
        blacklisted
    }

    /// The active filter's estimate of `row`'s activation count in the
    /// current rolling window.
    // lint: alloc-free
    pub fn estimate(&self, row: u64) -> u32 {
        self.active_filter().estimate(row)
    }

    /// Whether `row` is currently blacklisted (its estimated activation
    /// count reached `N_BL`).
    // lint: alloc-free
    pub fn is_blacklisted(&self, row: u64) -> bool {
        self.estimate(row) >= self.blacklist_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_never_underestimates() {
        // The no-false-negative property: the estimate is always >= the true
        // insertion count.
        let mut cbf = CountingBloomFilter::new(256, 4, 1 << 20, 1);
        for i in 0..2_000u64 {
            cbf.insert(i % 37);
        }
        for row in 0..37u64 {
            let true_count = 2_000 / 37 + u64::from(row < 2_000 % 37);
            assert!(
                u64::from(cbf.estimate(row)) >= true_count,
                "row {row}: estimate {} < true {true_count}",
                cbf.estimate(row)
            );
        }
    }

    #[test]
    fn counters_saturate() {
        let mut cbf = CountingBloomFilter::new(64, 2, 10, 5);
        for _ in 0..100 {
            cbf.insert(3);
        }
        assert_eq!(cbf.estimate(3), 10);
    }

    #[test]
    fn clear_resets_counts_and_changes_aliasing() {
        let mut cbf = CountingBloomFilter::new(256, 4, 1000, 9);
        for _ in 0..500 {
            cbf.insert(7);
        }
        assert!(cbf.estimate(7) >= 500);
        cbf.clear(123);
        assert_eq!(cbf.estimate(7), 0);
    }

    #[test]
    fn lazily_cleared_counters_count_again_after_a_clear() {
        // A counter touched before the clear must restart from zero when
        // touched again afterwards (the lazy clear applies on first touch).
        let mut cbf = CountingBloomFilter::new(64, 1, 1000, 3);
        for _ in 0..10 {
            cbf.insert(5);
        }
        cbf.clear(77);
        // Find a row that maps onto the same counter as row 5 did before
        // the reseed; inserting any row must start its counters at 1.
        cbf.insert(5);
        assert_eq!(cbf.estimate(5), 1);
    }

    #[test]
    #[should_panic(expected = "at least one hash function")]
    fn zero_hash_filters_are_rejected() {
        // A zero-hash filter would silently estimate 0 for every row and
        // never blacklist anything; construction must fail instead.
        let _ = CountingBloomFilter::new(256, 0, 10, 1);
    }

    #[test]
    fn dcbf_blacklists_after_threshold_insertions() {
        let mut d = DualCountingBloomFilter::new(1024, 4, 100, 1_000_000, 42);
        for i in 0..99 {
            d.insert(i, 5);
            assert!(!d.is_blacklisted(5), "blacklisted too early at {i}");
        }
        d.insert(99, 5);
        assert!(d.is_blacklisted(5));
    }

    #[test]
    fn dcbf_keeps_blacklist_across_one_epoch_boundary() {
        // Figure 3: a row blacklisted in epoch N stays blacklisted at the
        // start of epoch N+1 because the newly-active filter still holds the
        // insertions of the previous epoch.
        let epoch = 10_000;
        let mut d = DualCountingBloomFilter::new(1024, 4, 100, epoch, 42);
        for i in 0..150u64 {
            d.insert(i, 7);
        }
        assert!(d.is_blacklisted(7));
        // Cross one epoch boundary without further insertions.
        d.advance_to(epoch + 1);
        assert!(
            d.is_blacklisted(7),
            "the passive filter must keep the row blacklisted right after a swap"
        );
        // After a full CBF lifetime with no insertions the row is forgotten.
        d.advance_to(3 * epoch + 1);
        assert!(!d.is_blacklisted(7));
    }

    #[test]
    fn dcbf_never_misses_an_aggressor_split_across_epochs() {
        // An aggressor that spreads N_BL activations across an epoch
        // boundary must still be blacklisted, because insertions go to both
        // filters and the active one saw all of them.
        let epoch = 1_000;
        let n_bl = 200;
        let mut d = DualCountingBloomFilter::new(1024, 4, n_bl, epoch, 3);
        // 150 activations at the end of epoch 0, 50 at the start of epoch 1.
        for i in 0..150u64 {
            d.insert(epoch - 300 + i, 9);
        }
        for i in 0..50u64 {
            d.insert(epoch + i, 9);
        }
        assert!(
            d.is_blacklisted(9),
            "an aggressor straddling a clear must not escape the blacklist"
        );
    }

    #[test]
    fn aliasing_false_positive_rate_is_low_for_benign_access() {
        // With a 1K-counter filter, 4 hashes and a benign access pattern
        // (every row activated a handful of times), no row should come close
        // to an 8K blacklisting threshold.
        let mut d = DualCountingBloomFilter::new(1024, 4, 8192, u64::MAX / 2, 77);
        for round in 0..10u64 {
            for row in 0..4_000u64 {
                d.insert(round * 4_000 + row, row);
            }
        }
        let blacklisted = (0..4_000u64).filter(|&r| d.is_blacklisted(r)).count();
        assert_eq!(blacklisted, 0);
    }

    #[test]
    fn advance_reports_swaps() {
        let mut d = DualCountingBloomFilter::new(64, 2, 10, 100, 1);
        assert!(!d.advance_to(99));
        assert!(d.advance_to(100));
        assert!(!d.advance_to(150));
        assert!(d.advance_to(350));
        assert_eq!(d.clears(), 3);
    }

    #[test]
    fn arithmetic_catchup_matches_stepping_epoch_by_epoch() {
        // Jumping over many epoch boundaries at once must land in exactly
        // the state that stepping over every boundary produces: same clear
        // count, same active filter, same hash seeds (therefore identical
        // estimates after fresh insertions).
        let epoch = 1_000u64;
        for missed in [2u64, 3, 5, 8, 1_000, 1_001] {
            let mut jumped = DualCountingBloomFilter::new(256, 4, 50, epoch, 9);
            let mut stepped = jumped.clone();
            for i in 0..60u64 {
                jumped.insert(i, 11);
                stepped.insert(i, 11);
            }
            let target = missed * epoch + 1;
            jumped.advance_to(target);
            // Step the reference through every boundary individually.
            let mut at = epoch;
            while at <= target {
                stepped.advance_to(at);
                at += epoch;
            }
            stepped.advance_to(target);
            assert_eq!(jumped.clears(), stepped.clears(), "missed = {missed}");
            assert_eq!(jumped.next_swap_at(), stepped.next_swap_at());
            for row in 0..64u64 {
                jumped.insert(target + row, row);
                stepped.insert(target + row, row);
                assert_eq!(
                    jumped.estimate(row),
                    stepped.estimate(row),
                    "estimates diverged after a {missed}-epoch jump"
                );
            }
        }
    }

    #[test]
    fn observe_reports_blacklisted_activations() {
        let mut d = DualCountingBloomFilter::new(1024, 4, 10, 1_000_000, 5);
        for i in 0..9 {
            assert!(!d.observe(i, 3));
        }
        assert!(!d.observe(9, 3), "tenth insertion reaches the threshold");
        assert!(d.observe(10, 3), "the row is blacklisted from then on");
    }
}
