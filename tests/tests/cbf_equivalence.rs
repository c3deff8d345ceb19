//! Equivalence of the production dual counting Bloom filter and a
//! reference implementation.
//!
//! The production `DualCountingBloomFilter` computes a row's H3 index set
//! once per operation and shares it between the blacklist test and both
//! filters, and answers `estimate` through that index set. None of that may
//! change a single answer. This suite drives the production filter and a
//! straightforward reference reimplementation (the original eager-clear
//! semantics with its own epoch clock, rebuilt here from the public
//! `H3HashFamily`, with a fresh index vector per operation) through
//! identical operation sequences — including epoch rollovers, multi-epoch
//! idle gaps and the reseeds they trigger — and asserts that every
//! `estimate` / `is_blacklisted` answer agrees exactly. The production
//! filter keeps no time: a test-side `EpochClock` swaps it at each
//! boundary with the reseed RowBlocker derives.

use bh_types::Cycle;
use blockhammer::{DualCountingBloomFilter, H3HashFamily};
use proptest::prelude::*;

/// Rows are drawn from a small universe so hash aliasing (the interesting
/// part of Bloom-filter behaviour) happens often.
const ROW_UNIVERSE: u64 = 64;

/// An eager-clear counting Bloom filter: the original implementation,
/// kept verbatim as the reference semantics.
struct ReferenceCbf {
    counters: Vec<u32>,
    hashes: H3HashFamily,
    saturation: u32,
}

impl ReferenceCbf {
    fn new(size: usize, hash_count: usize, saturation: u32, seed: u64) -> Self {
        Self {
            counters: vec![0; size],
            hashes: H3HashFamily::new(hash_count, size, seed),
            saturation,
        }
    }

    fn insert(&mut self, row: u64) {
        let saturation = self.saturation;
        let indices: Vec<usize> = self.hashes.indices(row).collect();
        for idx in indices {
            let c = &mut self.counters[idx];
            if *c < saturation {
                *c += 1;
            }
        }
    }

    fn estimate(&self, row: u64) -> u32 {
        self.hashes
            .indices(row)
            .map(|idx| self.counters[idx])
            .min()
            .expect("at least one hash function")
    }

    fn clear(&mut self, reseed_value: u64) {
        self.counters.fill(0);
        self.hashes.reseed(reseed_value);
    }
}

/// The reference dual filter: clears and swaps by stepping over every
/// epoch boundary individually.
struct ReferenceDualCbf {
    filter_a: ReferenceCbf,
    filter_b: ReferenceCbf,
    active_is_a: bool,
    epoch_cycles: Cycle,
    next_swap: Cycle,
    blacklist_threshold: u32,
    clears: u64,
}

impl ReferenceDualCbf {
    fn new(
        size: usize,
        hash_count: usize,
        blacklist_threshold: u32,
        epoch_cycles: Cycle,
        seed: u64,
    ) -> Self {
        let saturation = blacklist_threshold.saturating_add(1);
        Self {
            filter_a: ReferenceCbf::new(size, hash_count, saturation, seed),
            filter_b: ReferenceCbf::new(size, hash_count, saturation, seed ^ 0x5555),
            active_is_a: true,
            epoch_cycles: epoch_cycles.max(1),
            next_swap: epoch_cycles.max(1),
            blacklist_threshold,
            clears: 0,
        }
    }

    fn advance_to(&mut self, now: Cycle) {
        while now >= self.next_swap {
            self.next_swap += self.epoch_cycles;
            self.clears += 1;
            let reseed = 0xB10C_4A3E_u64 ^ self.clears;
            if self.active_is_a {
                self.filter_a.clear(reseed);
            } else {
                self.filter_b.clear(reseed);
            }
            self.active_is_a = !self.active_is_a;
        }
    }

    fn insert(&mut self, now: Cycle, row: u64) {
        self.advance_to(now);
        self.filter_a.insert(row);
        self.filter_b.insert(row);
    }

    fn estimate(&self, row: u64) -> u32 {
        if self.active_is_a {
            self.filter_a.estimate(row)
        } else {
            self.filter_b.estimate(row)
        }
    }

    fn is_blacklisted(&self, row: u64) -> bool {
        self.estimate(row) >= self.blacklist_threshold
    }
}

/// The test's epoch clock for the production filter: it ends every epoch
/// whose boundary has passed, one swap per boundary, with the reseed
/// RowBlocker derives for that epoch.
struct EpochClock {
    epoch_cycles: Cycle,
    next_boundary: Cycle,
    epochs: u64,
}

impl EpochClock {
    fn new(epoch_cycles: Cycle) -> Self {
        Self {
            epoch_cycles,
            next_boundary: epoch_cycles,
            epochs: 0,
        }
    }

    fn advance(&mut self, now: Cycle, filter: &mut DualCountingBloomFilter) {
        while now >= self.next_boundary {
            self.next_boundary += self.epoch_cycles;
            self.epochs += 1;
            filter.swap(0xB10C_4A3E_u64 ^ self.epochs);
        }
    }
}

/// One decoded operation of a generated sequence.
enum Op {
    /// Insert a row after a (possibly multi-epoch) time step.
    Insert { delta: Cycle, row: u64 },
    /// Advance time only (exercises clears without insertions).
    Advance { delta: Cycle },
}

/// Decodes raw words into an operation sequence. Time deltas mix dense
/// activity (a few hundred cycles) with idle gaps spanning many epochs so
/// that both single swaps and jumps over many boundaries run.
fn decode_ops(words: &[u64], epoch: Cycle) -> Vec<Op> {
    words
        .iter()
        .map(|&word| {
            let row = word % ROW_UNIVERSE;
            let delta = match (word >> 8) & 7 {
                // Dense traffic within an epoch.
                0..=4 => (word >> 16) % 500,
                // A gap of a few epochs.
                5 | 6 => ((word >> 16) % 5) * epoch + (word >> 32) % epoch,
                // A long idle gap (hundreds of epochs).
                _ => ((word >> 16) % 1_000) * epoch,
            };
            if (word >> 3) & 3 == 0 {
                Op::Advance { delta }
            } else {
                Op::Insert { delta, row }
            }
        })
        .collect()
}

/// Runs one operation sequence through both implementations and asserts
/// full agreement after every step.
fn assert_equivalent(words: &[u64], size: usize, threshold: u32, epoch: Cycle, seed: u64) {
    let mut production = DualCountingBloomFilter::new(size, 4, threshold, seed);
    let mut clock = EpochClock::new(epoch);
    let mut reference = ReferenceDualCbf::new(size, 4, threshold, epoch, seed);
    let mut now: Cycle = 0;
    for op in decode_ops(words, epoch) {
        match op {
            Op::Insert { delta, row } => {
                now += delta;
                clock.advance(now, &mut production);
                production.observe(row);
                reference.insert(now, row);
            }
            Op::Advance { delta } => {
                now += delta;
                clock.advance(now, &mut production);
                reference.advance_to(now);
            }
        }
        for row in 0..ROW_UNIVERSE {
            assert_eq!(
                production.estimate(row),
                reference.estimate(row),
                "estimates diverged for row {row} at cycle {now} \
                 (clears = {})",
                reference.clears
            );
            assert_eq!(
                production.is_blacklisted(row),
                reference.is_blacklisted(row)
            );
        }
    }
}

/// A fixed dense-then-idle sequence crossing hundreds of epoch boundaries,
/// with aggressors that are blacklisted, forgotten after idle gaps, and
/// re-blacklisted under reseeded hash functions.
#[test]
fn production_and_reference_filters_agree_on_a_dense_mixed_sequence() {
    let words: Vec<u64> = (1..600u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23))
        .collect();
    assert_equivalent(&words, 256, 40, 10_000, 0xFEED);
}

/// A tiny threshold makes blacklisting (and the saturation plateau) easy
/// to reach, so the agreement covers saturated counters too.
#[test]
fn production_and_reference_filters_agree_under_heavy_saturation() {
    let words: Vec<u64> = (1..400u64)
        .map(|i| i.wrapping_mul(0xD134_2543_DE82_EF95).rotate_left(11))
        .collect();
    assert_equivalent(&words, 64, 5, 2_000, 42);
}

proptest! {
    /// Random operation sequences (inserts, small steps, multi-epoch idle
    /// gaps) produce identical estimates and blacklist answers in the
    /// production and the reference filter.
    #[test]
    fn production_filter_answers_exactly_like_the_reference_filter(
        words in proptest::collection::vec(0u64..u64::MAX, 1..120),
        seed in 0u64..1_000,
    ) {
        assert_equivalent(&words, 128, 16, 5_000, seed);
    }
}
