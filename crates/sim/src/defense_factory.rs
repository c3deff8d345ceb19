//! Construction of defenses by name, shared by every experiment driver.

use blockhammer::{BlockHammer, BlockHammerConfig, OperatingMode};
use mitigations::{
    Cbt, DefenseGeometry, Graphene, MrLoc, NoMitigation, Para, ProHit, RowHammerDefense,
    RowHammerThreshold, TwiCe,
};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Reliability target used to tune the probabilistic mechanisms (PARA,
/// MRLoc), as in the paper: a failure probability of 1e-15 per refresh
/// window.
const TARGET_FAILURE: f64 = 1e-15;

/// The RowHammer defenses evaluated by the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DefenseKind {
    /// No mitigation (the normalization baseline).
    Baseline,
    /// PARA (probabilistic adjacent row activation).
    Para,
    /// PRoHIT (probabilistic hot/cold history table).
    ProHit,
    /// MRLoc (locality-aware probabilistic refresh).
    MrLoc,
    /// CBT (counter-based tree).
    Cbt,
    /// TWiCe (pruned per-row counter table).
    TwiCe,
    /// Graphene (Misra–Gries frequent-element counters).
    Graphene,
    /// BlockHammer in full-functional mode (the paper's contribution).
    BlockHammer,
    /// BlockHammer in observe-only mode (tracks RHLI without interfering).
    BlockHammerObserve,
}

impl DefenseKind {
    /// Every defense compared in Figures 4 and 5, in the paper's order.
    pub fn figure_4_and_5_set() -> Vec<DefenseKind> {
        vec![
            DefenseKind::Para,
            DefenseKind::ProHit,
            DefenseKind::MrLoc,
            DefenseKind::Cbt,
            DefenseKind::TwiCe,
            DefenseKind::Graphene,
            DefenseKind::BlockHammer,
        ]
    }

    /// The subset the paper scales down to `N_RH` = 1K in Figure 6.
    pub fn figure_6_set() -> Vec<DefenseKind> {
        vec![
            DefenseKind::Para,
            DefenseKind::TwiCe,
            DefenseKind::Graphene,
            DefenseKind::BlockHammer,
        ]
    }

    /// Short display name used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            DefenseKind::Baseline => "Baseline",
            DefenseKind::Para => "PARA",
            DefenseKind::ProHit => "PRoHIT",
            DefenseKind::MrLoc => "MRLoc",
            DefenseKind::Cbt => "CBT",
            DefenseKind::TwiCe => "TWiCe",
            DefenseKind::Graphene => "Graphene",
            DefenseKind::BlockHammer => "BlockHammer",
            DefenseKind::BlockHammerObserve => "BlockHammer(observe)",
        }
    }

    /// Parses a [`DefenseKind::label`] back into its kind — the inverse
    /// used when campaign specs arrive over the wire. Returns `None` for
    /// unknown labels.
    pub fn from_label(label: &str) -> Option<DefenseKind> {
        match label {
            "Baseline" => Some(DefenseKind::Baseline),
            "PARA" => Some(DefenseKind::Para),
            "PRoHIT" => Some(DefenseKind::ProHit),
            "MRLoc" => Some(DefenseKind::MrLoc),
            "CBT" => Some(DefenseKind::Cbt),
            "TWiCe" => Some(DefenseKind::TwiCe),
            "Graphene" => Some(DefenseKind::Graphene),
            "BlockHammer" => Some(DefenseKind::BlockHammer),
            "BlockHammer(observe)" => Some(DefenseKind::BlockHammerObserve),
            _ => None,
        }
    }

    /// Whether [`DefenseKind::build`] reads its `n_rh` argument. Baseline
    /// and PRoHIT take no threshold, so two of their runs that differ only
    /// in the threshold are the same simulation.
    pub fn reads_threshold(&self) -> bool {
        !matches!(self, DefenseKind::Baseline | DefenseKind::ProHit)
    }

    /// Builds the defense for the given RowHammer threshold and geometry.
    ///
    /// `t_refi_cycles` paces the mechanisms that piggyback on refresh
    /// operations (PRoHIT's table service, TWiCe's pruning). `seed` is the
    /// *run* seed: the instance's random stream is decorrelated per channel
    /// via [`DefenseGeometry::channel`] (channel 0 keeps the run seed
    /// unchanged, preserving single-channel reproducibility).
    pub fn build(
        &self,
        n_rh: RowHammerThreshold,
        geometry: DefenseGeometry,
        t_refi_cycles: u64,
        seed: u64,
    ) -> Box<dyn RowHammerDefense> {
        let seed = Self::seed_for_channel(seed, geometry.channel);
        match self {
            DefenseKind::Baseline => Box::new(NoMitigation::new()),
            DefenseKind::Para => Box::new(Para::new(n_rh, TARGET_FAILURE, geometry, seed)),
            DefenseKind::ProHit => Box::new(ProHit::new(geometry, t_refi_cycles, seed)),
            DefenseKind::MrLoc => Box::new(MrLoc::new(n_rh, TARGET_FAILURE, geometry, seed)),
            DefenseKind::Cbt => Box::new(Cbt::new(n_rh, geometry)),
            DefenseKind::TwiCe => Box::new(TwiCe::new(n_rh, t_refi_cycles, geometry)),
            DefenseKind::Graphene => Box::new(Graphene::new(n_rh, geometry)),
            DefenseKind::BlockHammer => {
                let config = BlockHammerConfig::for_rowhammer_threshold(n_rh, &geometry);
                Box::new(BlockHammer::new(
                    config,
                    geometry,
                    OperatingMode::FullFunctional,
                ))
            }
            DefenseKind::BlockHammerObserve => {
                let config = BlockHammerConfig::for_rowhammer_threshold(n_rh, &geometry);
                Box::new(BlockHammer::new(
                    config,
                    geometry,
                    OperatingMode::ObserveOnly,
                ))
            }
        }
    }
}

impl DefenseKind {
    /// Derives the seed of channel `channel`'s defense instance from the
    /// run seed. Channel 0 keeps the run seed unchanged, so a one-channel
    /// sharded system reproduces the unsharded behaviour bit for bit;
    /// further channels get decorrelated streams.
    pub fn seed_for_channel(seed: u64, channel: usize) -> u64 {
        seed ^ (channel as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Builds one independent defense instance per memory channel, as the
    /// paper instantiates BlockHammer once per memory controller.
    ///
    /// `geometry` describes a single channel (see
    /// [`DefenseGeometry::channel`]); instance `i` receives
    /// `geometry.for_channel(i)`, which also decorrelates its random
    /// stream (see [`DefenseKind::build`]).
    pub fn build_per_channel(
        &self,
        channels: usize,
        n_rh: RowHammerThreshold,
        geometry: DefenseGeometry,
        t_refi_cycles: u64,
        seed: u64,
    ) -> Vec<Box<dyn RowHammerDefense>> {
        (0..channels)
            .map(|channel| self.build(n_rh, geometry.for_channel(channel), t_refi_cycles, seed))
            .collect()
    }
}

impl fmt::Display for DefenseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds_a_defense_with_its_label() {
        let geometry = DefenseGeometry::default();
        for kind in [
            DefenseKind::Baseline,
            DefenseKind::Para,
            DefenseKind::ProHit,
            DefenseKind::MrLoc,
            DefenseKind::Cbt,
            DefenseKind::TwiCe,
            DefenseKind::Graphene,
            DefenseKind::BlockHammer,
            DefenseKind::BlockHammerObserve,
        ] {
            let defense = kind.build(RowHammerThreshold::new(32_768), geometry, 24_960, 1);
            assert!(!defense.name().is_empty());
            assert_eq!(DefenseKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(DefenseKind::from_label("blockhammer"), None);
    }

    #[test]
    fn evaluation_sets_match_the_paper() {
        assert_eq!(DefenseKind::figure_4_and_5_set().len(), 7);
        assert_eq!(DefenseKind::figure_6_set().len(), 4);
        assert!(DefenseKind::figure_6_set().contains(&DefenseKind::BlockHammer));
    }
}
