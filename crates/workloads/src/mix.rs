//! Multiprogrammed workload mixes.
//!
//! The paper evaluates 250 eight-thread mixes: 125 made of eight
//! randomly-chosen benign applications and 125 in which one thread is
//! replaced by a double-sided RowHammer attack (Section 7). [`WorkloadMix`]
//! reproduces that construction deterministically from a seed.

use crate::catalog::{benign_catalog, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An eight-thread (by default) multiprogrammed workload mix.
#[derive(Debug, Clone)]
pub struct WorkloadMix {
    /// Mix name, e.g. `mix-007-attack`.
    pub name: String,
    /// The benign workloads of the mix, in thread order. In a mix built by
    /// [`WorkloadMix::with_attacker`] these occupy threads `1..`, thread 0
    /// being the attacker.
    pub benign: Vec<WorkloadSpec>,
}

impl WorkloadMix {
    /// Builds a benign-only mix of `threads` randomly-chosen catalog
    /// entries.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn benign(index: usize, threads: usize, seed: u64) -> Self {
        assert!(threads > 0, "a mix needs at least one thread");
        let mut rng = StdRng::seed_from_u64(seed ^ (index as u64).wrapping_mul(0x9E37_79B9));
        let catalog = benign_catalog();
        let benign = (0..threads)
            .map(|_| catalog[rng.gen_range(0..catalog.len())].clone())
            .collect();
        Self {
            name: format!("mix-{index:03}-benign"),
            benign,
        }
    }

    /// Builds a mix with one attacker thread (thread 0) and `threads - 1`
    /// benign threads. The attack's kind is the caller's: it never touches
    /// the benign-member selection.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is less than two (an attack-present mix needs at
    /// least one benign thread to measure).
    pub fn with_attacker(index: usize, threads: usize, seed: u64) -> Self {
        assert!(
            threads >= 2,
            "an attack mix needs at least one benign thread"
        );
        let mut mix = Self::benign(index, threads - 1, seed ^ 0xA77A);
        mix.name = format!("mix-{index:03}-attack");
        mix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benign members `with_attacker(3, 8, 42)` selected when the mix
    /// construction was frozen (PR 4). See
    /// [`default_construction_is_pinned`].
    const PINNED_MIX_003_ATTACK_SEED42: [&str; 7] = [
        "450.soplex.like",
        "433.milc.like",
        "ycsb.A.like",
        "437.leslie3d.like",
        "ycsb.F.like",
        "473.astar.like",
        "movnti.colmaj.like",
    ];

    #[test]
    fn benign_mix_has_requested_thread_count() {
        let mix = WorkloadMix::benign(0, 8, 42);
        assert_eq!(mix.benign.len(), 8);
        assert_eq!(mix.name, "mix-000-benign");
    }

    #[test]
    fn attack_mix_reserves_thread_zero_for_the_attacker() {
        let mix = WorkloadMix::with_attacker(3, 8, 42);
        assert_eq!(mix.benign.len(), 7);
        assert_eq!(mix.name, "mix-003-attack");
    }

    #[test]
    fn mixes_are_deterministic_and_distinct() {
        let a = WorkloadMix::benign(1, 8, 7);
        let b = WorkloadMix::benign(1, 8, 7);
        let c = WorkloadMix::benign(2, 8, 7);
        let names = |m: &WorkloadMix| -> Vec<String> {
            m.benign.iter().map(|w| w.name().to_owned()).collect()
        };
        assert_eq!(names(&a), names(&b));
        assert_ne!(names(&a), names(&c));
    }

    #[test]
    #[should_panic(expected = "at least one benign thread")]
    fn single_thread_attack_mix_is_rejected() {
        let _ = WorkloadMix::with_attacker(0, 1, 1);
    }

    /// Regression pin for the default mix construction: the exact benign
    /// members of a known (index, threads, seed) triple. If this test
    /// fails, previously-generated campaign run lists and recorded traces
    /// no longer correspond to their mixes.
    #[test]
    fn default_construction_is_pinned() {
        let mix = WorkloadMix::with_attacker(3, 8, 42);
        let names: Vec<&str> = mix.benign.iter().map(|w| w.name()).collect();
        assert_eq!(names, PINNED_MIX_003_ATTACK_SEED42);
    }
}
