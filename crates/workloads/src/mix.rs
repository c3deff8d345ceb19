//! Multiprogrammed workload mixes.
//!
//! The paper evaluates 250 eight-thread mixes: 125 made of eight
//! randomly-chosen benign applications and 125 in which one thread is
//! replaced by a double-sided RowHammer attack (Section 7). [`WorkloadMix`]
//! reproduces that construction deterministically from a seed.

use crate::attack::AttackKind;
use crate::catalog::{benign_catalog, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Whether a mix contains a RowHammer attacker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixKind {
    /// All threads are benign applications.
    BenignOnly,
    /// Thread 0 is a RowHammer attack (see [`WorkloadMix::attack`] for the
    /// pattern; the paper's default is double-sided); the rest are benign.
    WithAttacker,
}

/// An eight-thread (by default) multiprogrammed workload mix.
#[derive(Debug, Clone)]
pub struct WorkloadMix {
    /// Mix name, e.g. `mix-007-attack`.
    pub name: String,
    /// Kind of mix.
    pub kind: MixKind,
    /// The benign workloads of the mix, in thread order. For
    /// [`MixKind::WithAttacker`] these occupy threads `1..`, thread 0 being
    /// the attacker.
    pub benign: Vec<WorkloadSpec>,
    /// Seed that selected the members (kept for reproducibility reports).
    pub seed: u64,
    /// The attack pattern thread 0 runs when [`MixKind::WithAttacker`]
    /// (ignored for benign-only mixes). Defaults to the paper's
    /// double-sided attack; carrying the kind on the mix lets campaigns
    /// sweep over single-sided and many-sided attackers too.
    pub attack: AttackKind,
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
            kind: MixKind::BenignOnly,
            benign,
            seed,
            attack: AttackKind::DoubleSided,
        }
    }

    /// Builds a mix with one double-sided attacker thread (the paper's
    /// attack model) and `threads - 1` benign threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is less than two (an attack-present mix needs at
    /// least one benign thread to measure).
    pub fn with_attacker(index: usize, threads: usize, seed: u64) -> Self {
        Self::with_attacker_kind(index, threads, seed, AttackKind::DoubleSided)
    }

    /// Like [`WorkloadMix::with_attacker`], but with an explicit attack
    /// pattern for thread 0. The benign-member selection is identical for
    /// every kind (the kind does not touch the RNG), so
    /// `with_attacker_kind(i, t, s, AttackKind::DoubleSided)` is
    /// bit-identical to `with_attacker(i, t, s)`.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is less than two (an attack-present mix needs at
    /// least one benign thread to measure).
    pub fn with_attacker_kind(index: usize, threads: usize, seed: u64, attack: AttackKind) -> Self {
        assert!(
            threads >= 2,
            "an attack mix needs at least one benign thread"
        );
        let mut mix = Self::benign(index, threads - 1, seed ^ 0xA77A);
        mix.name = format!("mix-{index:03}-attack");
        mix.kind = MixKind::WithAttacker;
        mix.attack = attack;
        mix
    }

    /// Total number of threads in the mix (benign plus attacker).
    pub fn thread_count(&self) -> usize {
        match self.kind {
            MixKind::BenignOnly => self.benign.len(),
            MixKind::WithAttacker => self.benign.len() + 1,
        }
    }

    /// Whether the mix contains an attacker.
    pub fn has_attacker(&self) -> bool {
        self.kind == MixKind::WithAttacker
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
        assert_eq!(mix.thread_count(), 8);
        assert_eq!(mix.benign.len(), 8);
        assert!(!mix.has_attacker());
    }

    #[test]
    fn attack_mix_reserves_thread_zero_for_the_attacker() {
        let mix = WorkloadMix::with_attacker(3, 8, 42);
        assert_eq!(mix.thread_count(), 8);
        assert_eq!(mix.benign.len(), 7);
        assert!(mix.has_attacker());
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

    #[test]
    fn attack_kind_does_not_perturb_member_selection() {
        let default = WorkloadMix::with_attacker(5, 8, 42);
        for kind in [
            AttackKind::DoubleSided,
            AttackKind::SingleSided,
            AttackKind::ManySided { sides: 8 },
        ] {
            let explicit = WorkloadMix::with_attacker_kind(5, 8, 42, kind);
            assert_eq!(explicit.name, default.name);
            assert_eq!(explicit.kind, default.kind);
            assert_eq!(explicit.attack, kind);
            let names = |m: &WorkloadMix| -> Vec<String> {
                m.benign.iter().map(|w| w.name().to_owned()).collect()
            };
            assert_eq!(names(&explicit), names(&default));
        }
        assert_eq!(default.attack, AttackKind::DoubleSided);
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
