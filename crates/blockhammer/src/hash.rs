//! H3-class hash functions used to index the counting Bloom filters.
//!
//! The paper uses four area- and latency-efficient H3-class hash functions
//! consisting of static bit-shift and mask (XOR-with-seed) operations
//! (Section 3.1.1, citing Carter & Wegman). Each hash is re-seeded with a
//! fresh random value whenever its filter is cleared so that an aggressor
//! row aliases with a different set of rows after every clear.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Maximum number of hash functions per family.
///
/// The hot path computes each row's counter indices once into a
/// fixed-capacity [`IndexSet`] on the stack (no heap allocation), so the
/// family size is bounded. The paper uses four functions; eight leaves
/// headroom for ablation studies.
pub const MAX_HASH_FUNCTIONS: usize = 8;

/// The counter indices of one row, computed once per operation and shared
/// by every consumer (the blacklist test and both filters of a dual pair).
///
/// A fixed-capacity stack buffer, so producing one never allocates.
#[derive(Debug, Clone, Copy)]
pub struct IndexSet {
    indices: [usize; MAX_HASH_FUNCTIONS],
    len: usize,
}

impl IndexSet {
    /// The indices as a slice (one entry per hash function).
    pub fn as_slice(&self) -> &[usize] {
        &self.indices[..self.len]
    }

    /// Number of indices held (the family's function count).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no indices (never true for a set produced by
    /// [`H3HashFamily::index_set`], which requires at least one function).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A family of `k` H3-class hash functions mapping a row address to `k`
/// counter indices in `[0, size)`.
#[derive(Debug, Clone)]
pub struct H3HashFamily {
    /// Per-function seed (the XOR mask).
    seeds: Vec<u64>,
    /// Per-function static shift amount.
    shifts: Vec<u32>,
    /// Output range (number of counters); a power of two.
    size: usize,
}

impl H3HashFamily {
    /// Creates `functions` hash functions with output range `size`,
    /// initialised from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `functions` is zero or exceeds [`MAX_HASH_FUNCTIONS`], or
    /// if `size` is not a power of two (the hardware uses a simple bit mask
    /// to select the counter index).
    pub fn new(functions: usize, size: usize, seed: u64) -> Self {
        assert!(functions > 0, "at least one hash function is required");
        assert!(
            functions <= MAX_HASH_FUNCTIONS,
            "at most {MAX_HASH_FUNCTIONS} hash functions are supported, got {functions}"
        );
        assert!(
            size.is_power_of_two(),
            "the filter size must be a power of two, got {size}"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            seeds: (0..functions).map(|_| rng.gen()).collect(),
            // The shifts are hard-wired in the hardware; spreading them over
            // the word keeps the functions independent.
            shifts: (0..functions).map(|i| (7 * i as u32 + 3) % 29).collect(),
            size,
        }
    }

    /// Output range of every function.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Replaces every seed with fresh random values derived from
    /// `reseed_value` (called when the owning filter is cleared).
    pub fn reseed(&mut self, reseed_value: u64) {
        let mut rng = StdRng::seed_from_u64(reseed_value);
        for seed in &mut self.seeds {
            *seed = rng.gen();
        }
    }

    /// The `k` counter indices for `row`.
    // lint: alloc-free
    pub fn indices(&self, row: u64) -> impl Iterator<Item = usize> + '_ {
        self.seeds
            .iter()
            .zip(self.shifts.iter())
            .map(move |(&seed, &shift)| {
                // Static shift, XOR with the seed, then a cheap mixing fold
                // so that high bits of the row address influence the low
                // index bits even for small filters.
                let x = (row.rotate_left(shift) ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((x >> 32) as usize) & (self.size - 1)
            })
    }

    /// The `k` counter indices for `row` as a stack-allocated [`IndexSet`]
    /// — same values as [`H3HashFamily::indices`], computed without any
    /// heap allocation so the result can be shared across consumers.
    // lint: alloc-free
    pub fn index_set(&self, row: u64) -> IndexSet {
        let mut set = IndexSet {
            indices: [0; MAX_HASH_FUNCTIONS],
            len: self.seeds.len(),
        };
        for (slot, idx) in set.indices.iter_mut().zip(self.indices(row)) {
            *slot = idx;
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn produces_the_requested_number_of_indices_in_range() {
        let h = H3HashFamily::new(4, 1024, 7);
        let idx: Vec<usize> = h.indices(0xABCD).collect();
        assert_eq!(idx.len(), 4);
        assert!(idx.iter().all(|&i| i < 1024));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = H3HashFamily::new(4, 1024, 99);
        let b = H3HashFamily::new(4, 1024, 99);
        for row in [0u64, 1, 42, 0xFFFF, 0xDEAD_BEEF] {
            assert_eq!(
                a.indices(row).collect::<Vec<_>>(),
                b.indices(row).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn reseeding_changes_the_aliasing_pattern() {
        let mut h = H3HashFamily::new(4, 1024, 3);
        let before: Vec<usize> = h.indices(12345).collect();
        h.reseed(4);
        let after: Vec<usize> = h.indices(12345).collect();
        assert_ne!(before, after, "reseeding must re-map rows");
    }

    #[test]
    fn indices_are_spread_across_the_filter() {
        // Hash 10_000 distinct rows into a 1K filter and verify reasonable
        // dispersion (no counter absorbs a large fraction of rows).
        let h = H3HashFamily::new(4, 1024, 11);
        let mut histogram = vec![0u32; 1024];
        for row in 0..10_000u64 {
            for idx in h.indices(row) {
                histogram[idx] += 1;
            }
        }
        let max = *histogram.iter().max().unwrap();
        let mean = 10_000.0 * 4.0 / 1024.0;
        assert!(
            (max as f64) < mean * 3.0,
            "worst counter load {max} is more than 3x the mean {mean}"
        );
        let used: HashSet<usize> = (0..10_000u64)
            .flat_map(|row| h.indices(row).collect::<Vec<_>>())
            .collect();
        assert!(used.len() > 900, "only {} counters used", used.len());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_size_is_rejected() {
        let _ = H3HashFamily::new(4, 1000, 0);
    }

    #[test]
    #[should_panic(expected = "at least one hash function")]
    fn zero_functions_are_rejected() {
        let _ = H3HashFamily::new(0, 1024, 0);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn oversized_families_are_rejected() {
        let _ = H3HashFamily::new(MAX_HASH_FUNCTIONS + 1, 1024, 0);
    }

    #[test]
    fn index_set_matches_the_iterator() {
        let h = H3HashFamily::new(4, 1024, 7);
        for row in [0u64, 1, 42, 0xFFFF, 0xDEAD_BEEF] {
            let set = h.index_set(row);
            assert_eq!(set.len(), 4);
            assert!(!set.is_empty());
            assert_eq!(set.as_slice(), h.indices(row).collect::<Vec<_>>());
        }
    }
}
