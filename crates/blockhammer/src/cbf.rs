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
//! Every DRAM activation consults and updates a filter, so insert and
//! estimate are allocation-free: a row's counter indices are computed once
//! into a stack [`IndexSet`] and shared by the blacklist test and both
//! filters of a [`DualCountingBloomFilter`].
//!
//! The filters keep no time. [`RowBlocker`](crate::RowBlocker) owns the
//! one epoch clock and calls [`DualCountingBloomFilter::swap`] on every
//! bank's filter at each epoch boundary; a swap zeroes the active
//! filter's plain `u32` counters, which Table 7 sizes at 1K–8K (4–32 KiB).
//! `tests/tests/cbf_equivalence.rs` pins every answer against a reference
//! reimplementation across epoch rollovers and reseeds.

use crate::hash::{H3HashFamily, IndexSet};

/// A counting Bloom filter with saturating counters.
#[derive(Debug, Clone)]
pub struct CountingBloomFilter {
    counters: Vec<u32>,
    hashes: H3HashFamily,
    /// Saturation value of each counter (the paper uses 12-13-bit counters
    /// sized to count up to the blacklisting threshold).
    saturation: u32,
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
        for &idx in set.as_slice() {
            let counter = &mut self.counters[idx];
            if *counter < self.saturation {
                *counter += 1;
            }
        }
    }

    /// Returns an upper bound on the number of times `row` was inserted
    /// since the last clear (the minimum of its counters).
    // lint: alloc-free
    pub fn estimate(&self, row: u64) -> u32 {
        self.estimate_at(&self.index_set(row))
    }

    /// Estimates using a precomputed index set (must come from this
    /// filter's [`CountingBloomFilter::index_set`] under the current
    /// seeds).
    // lint: alloc-free
    pub fn estimate_at(&self, set: &IndexSet) -> u32 {
        debug_assert!(!set.is_empty(), "an index set holds at least one index");
        set.as_slice()
            .iter()
            .fold(u32::MAX, |min, &idx| min.min(self.counters[idx]))
    }

    /// Zeroes every counter and re-seeds the hash functions so the filter's
    /// aliasing pattern changes (preventing a benign row from being
    /// repeatedly victimized by aliasing with an aggressor).
    // lint: alloc-free
    pub fn clear(&mut self, reseed_value: u64) {
        self.counters.fill(0);
        self.hashes.reseed(reseed_value);
    }
}

/// Identifier of the two filters inside a [`DualCountingBloomFilter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ActiveFilter {
    A,
    B,
}

/// Two counting Bloom filters used in a time-interleaved manner (D-CBF).
///
/// Every insertion goes into both filters; only the *active* filter answers
/// blacklist queries. At the end of every epoch (half the CBF lifetime
/// `tCBF`), [`DualCountingBloomFilter::swap`] clears the active filter and
/// swaps the roles, so the filter answering queries always holds between
/// one and two epochs of history — a rolling window that can never miss an
/// aggressor.
#[derive(Debug, Clone)]
pub struct DualCountingBloomFilter {
    filter_a: CountingBloomFilter,
    filter_b: CountingBloomFilter,
    active: ActiveFilter,
    /// Blacklisting threshold `N_BL`.
    blacklist_threshold: u32,
}

impl DualCountingBloomFilter {
    /// Creates a D-CBF.
    ///
    /// * `size` — counters per filter (power of two).
    /// * `hash_count` — H3 hash functions per filter.
    /// * `blacklist_threshold` — `N_BL`.
    pub fn new(size: usize, hash_count: usize, blacklist_threshold: u32, seed: u64) -> Self {
        // Counters only ever need to count up to N_BL; saturate just above.
        let saturation = blacklist_threshold.saturating_add(1);
        Self {
            filter_a: CountingBloomFilter::new(size, hash_count, saturation, seed),
            filter_b: CountingBloomFilter::new(size, hash_count, saturation, seed ^ 0x5555),
            active: ActiveFilter::A,
            blacklist_threshold,
        }
    }

    fn active_filter(&self) -> &CountingBloomFilter {
        match self.active {
            ActiveFilter::A => &self.filter_a,
            ActiveFilter::B => &self.filter_b,
        }
    }

    /// Ends an epoch: clears the active filter, re-seeding its hash
    /// functions with `reseed`, and makes the other filter active.
    // lint: alloc-free
    pub fn swap(&mut self, reseed: u64) {
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
    }

    /// Inserts an activation of `row` into both filters and reports
    /// whether the row was already blacklisted at insertion time.
    ///
    /// This is the one-stop hot-path entry point: each filter's H3 index
    /// set is computed exactly once and shared between the blacklist test
    /// and the insertion (the two filters hash independently, so there is
    /// one set per filter).
    // lint: alloc-free
    pub fn observe(&mut self, row: u64) -> bool {
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
    fn cleared_counters_count_again_after_a_clear() {
        // A counter touched before the clear must restart from zero when
        // touched again afterwards.
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
        let mut d = DualCountingBloomFilter::new(1024, 4, 100, 42);
        for i in 0..99 {
            d.observe(5);
            assert!(!d.is_blacklisted(5), "blacklisted too early at {i}");
        }
        d.observe(5);
        assert!(d.is_blacklisted(5));
    }

    #[test]
    fn dcbf_keeps_blacklist_across_one_epoch_boundary() {
        // Figure 3: a row blacklisted in epoch N stays blacklisted at the
        // start of epoch N+1 because the newly-active filter still holds the
        // insertions of the previous epoch.
        let mut d = DualCountingBloomFilter::new(1024, 4, 100, 42);
        for _ in 0..150 {
            d.observe(7);
        }
        assert!(d.is_blacklisted(7));
        // End one epoch without further insertions.
        d.swap(1);
        assert!(
            d.is_blacklisted(7),
            "the passive filter must keep the row blacklisted right after a swap"
        );
        // After a full CBF lifetime with no insertions the row is forgotten.
        d.swap(2);
        d.swap(3);
        assert!(!d.is_blacklisted(7));
    }

    #[test]
    fn dcbf_never_misses_an_aggressor_split_across_epochs() {
        // An aggressor that spreads N_BL activations across an epoch
        // boundary must still be blacklisted, because insertions go to both
        // filters and the active one saw all of them.
        let n_bl = 200;
        let mut d = DualCountingBloomFilter::new(1024, 4, n_bl, 3);
        // 150 activations at the end of epoch 0, 50 at the start of epoch 1.
        for _ in 0..150 {
            d.observe(9);
        }
        d.swap(1);
        for _ in 0..50 {
            d.observe(9);
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
        let mut d = DualCountingBloomFilter::new(1024, 4, 8192, 77);
        for _ in 0..10 {
            for row in 0..4_000u64 {
                d.observe(row);
            }
        }
        let blacklisted = (0..4_000u64).filter(|&r| d.is_blacklisted(r)).count();
        assert_eq!(blacklisted, 0);
    }

    #[test]
    fn observe_reports_blacklisted_activations() {
        let mut d = DualCountingBloomFilter::new(1024, 4, 10, 5);
        for _ in 0..9 {
            assert!(!d.observe(3));
        }
        assert!(!d.observe(3), "tenth insertion reaches the threshold");
        assert!(d.observe(3), "the row is blacklisted from then on");
    }
}
