//! Geometry and blast-radius information shared by all defenses.

use bh_types::{Cycle, DramOrganization};
use serde::{Deserialize, Serialize};

/// The subset of system geometry a defense needs to size its per-bank /
/// per-thread state: the channel's DRAM organization (which numbers its
/// banks), the threads and the timing a defense derives its parameters
/// from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DefenseGeometry {
    /// The memory channel this defense instance protects. Defenses are
    /// instantiated once per channel (the paper's BlockHammer lives in each
    /// per-channel memory controller); all addresses a defense observes are
    /// channel-local.
    pub channel: usize,
    /// The organization of one channel (`channels` = 1): a defense keeps
    /// per-bank state for its `banks_per_channel()` banks, indexed by
    /// [`DramOrganization::bank_of`].
    pub organization: DramOrganization,
    /// Hardware threads sharing the memory system.
    pub threads: usize,
    /// The refresh window in simulation cycles (tREFW).
    pub refresh_window_cycles: Cycle,
    /// The row cycle time in simulation cycles (tRC).
    pub t_rc_cycles: Cycle,
    /// The four-activation window in simulation cycles (tFAW).
    pub t_faw_cycles: Cycle,
}

impl Default for DefenseGeometry {
    /// The paper's system (Table 5): 16 banks, 64K rows per bank, 8
    /// threads, DDR4-2400 timings at a 3.2 GHz controller clock.
    fn default() -> Self {
        Self {
            channel: 0,
            organization: DramOrganization::default(),
            threads: 8,
            refresh_window_cycles: 204_800_000, // 64 ms at 3.2 GHz
            t_rc_cycles: 148,                   // 46.25 ns at 3.2 GHz
            t_faw_cycles: 112,                  // 35 ns at 3.2 GHz
        }
    }
}

impl DefenseGeometry {
    /// Maximum number of activations a single bank can receive within one
    /// refresh window (bounded by `tRC`).
    pub fn max_acts_per_bank_per_refresh_window(&self) -> u64 {
        self.refresh_window_cycles / self.t_rc_cycles.max(1)
    }

    /// Returns a copy of this geometry for the defense instance protecting
    /// `channel`. Only the channel index changes: every per-channel shard
    /// of a sharded memory subsystem has the same shape.
    pub fn for_channel(mut self, channel: usize) -> Self {
        self.channel = channel;
        self
    }

    /// Returns a copy with the refresh window divided by `factor` — the
    /// scaled-time simulation mode. Thresholds must be scaled by the caller
    /// in tandem so that every ratio of the defense configuration is
    /// preserved.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn with_time_scale(mut self, factor: u64) -> Self {
        assert!(factor > 0, "time scale factor must be non-zero");
        self.refresh_window_cycles /= factor;
        self
    }
}

/// The blast radius model of many-sided RowHammer (Section 4).
///
/// Hammering a row disturbs rows up to `radius` rows away; the disturbance
/// decays by `impact_decay` per additional row of distance (the paper's
/// worst case is a radius of 6 and a decay of 0.5, i.e. `c_k = 0.5^(k-1)`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlastModel {
    /// Maximum distance (in rows) at which bit-flips can be induced.
    pub radius: u32,
    /// Ratio between the disturbance of a row at distance `k+1` and one at
    /// distance `k`.
    pub impact_decay: f64,
}

impl BlastModel {
    /// The single-sided / double-sided model used by prior work: only
    /// immediately adjacent rows are affected.
    pub fn adjacent_only() -> Self {
        Self {
            radius: 1,
            impact_decay: 1.0,
        }
    }

    /// The worst case observed across >1500 chips in prior characterization
    /// studies: blast radius 6, impact halving per row of distance.
    pub fn worst_case_observed() -> Self {
        Self {
            radius: 6,
            impact_decay: 0.5,
        }
    }

    /// The blast impact factor `c_k` for a victim at distance `k` (Eq. 3).
    pub fn impact_factor(&self, k: u32) -> f64 {
        if k == 0 || k > self.radius {
            0.0
        } else {
            self.impact_decay.powi(k as i32 - 1)
        }
    }
}

impl Default for BlastModel {
    fn default() -> Self {
        Self::adjacent_only()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_matches_paper_system() {
        let g = DefenseGeometry::default();
        assert_eq!(g.organization.banks_per_channel(), 16);
        assert_eq!(g.organization.banks_per_rank(), 16);
        // 64 ms / 46.25 ns ~ 1.38M activations.
        let max_acts = g.max_acts_per_bank_per_refresh_window();
        assert!(max_acts > 1_300_000 && max_acts < 1_450_000);
    }

    #[test]
    fn blast_impact_factors_follow_eq3() {
        let b = BlastModel::worst_case_observed();
        assert_eq!(b.impact_factor(1), 1.0);
        assert_eq!(b.impact_factor(2), 0.5);
        assert_eq!(b.impact_factor(3), 0.25);
        assert_eq!(b.impact_factor(7), 0.0);
        assert_eq!(b.impact_factor(0), 0.0);
    }

    #[test]
    fn time_scaled_geometry_shrinks_refresh_window() {
        let g = DefenseGeometry::default().with_time_scale(64);
        assert_eq!(g.refresh_window_cycles, 204_800_000 / 64);
        assert_eq!(g.t_rc_cycles, 148);
    }
}
