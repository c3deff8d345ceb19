//! Experiment drivers for the paper artifacts a campaign matrix cannot
//! express, and the row types every figure renders through.
//!
//! Figure 4, the false-positive study of Section 8.4 and Table 8 need
//! single-core category representatives or BlockHammer internals, so they
//! build their systems here. Figures 5 and 6 and the RHLI study of
//! Section 3.2.1 run as `campaign` sweeps (the `bench` crate's `paper`
//! binary builds them) and land in [`MultiProgramRow`] and [`RhliStudy`].
//! Every driver takes an [`ExperimentScale`], so the same code runs as a
//! fast smoke test (`ExperimentScale::quick`) or at the default bench size
//! (`ExperimentScale::standard`). The scaled-time substitution is
//! described in the README, "Substitutions and scaled time".

use crate::defense_factory::DefenseKind;
use crate::metrics::MultiProgramMetrics;
use crate::system::{RunScale, SystemBuilder};
use blockhammer::{BlockHammer, BlockHammerConfig};
use mitigations::RowHammerThreshold;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use workloads::{benign_catalog, WorkloadCategory, WorkloadMix, WorkloadSpec};

/// Knobs controlling how large an experiment is: the size of each run
/// plus the shape of the mixes and category samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// Size of every run (time scale, instruction budget, LLC, cycle
    /// bounds, advance mode).
    pub run: RunScale,
    /// Number of workload mixes per scenario.
    pub mix_count: usize,
    /// Threads per multiprogrammed mix (the paper uses 8).
    pub threads_per_mix: usize,
    /// Benign workloads evaluated per category in single-core studies.
    pub workloads_per_category: usize,
    /// Base random seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// A smoke-test scale suitable for unit/integration tests (seconds).
    pub fn quick() -> Self {
        Self {
            run: RunScale {
                benign_instructions: 5_000,
                max_cycles: 200_000_000,
                ..RunScale::quick()
            },
            mix_count: 1,
            threads_per_mix: 4,
            workloads_per_category: 1,
            seed: 7,
        }
    }

    /// The default scale of the paper artifacts (minutes).
    pub fn standard() -> Self {
        Self {
            run: RunScale::standard(),
            mix_count: 3,
            threads_per_mix: 8,
            workloads_per_category: 2,
            seed: 7,
        }
    }

    fn builder(&self) -> SystemBuilder {
        self.run.builder().seed(self.seed)
    }
}

// ---------------------------------------------------------------------------
// Figure 4: single-core execution time and DRAM energy.
// ---------------------------------------------------------------------------

/// One bar of Figure 4: a defense's normalized execution time and DRAM
/// energy for one workload category.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure4Row {
    /// Defense name.
    pub defense: String,
    /// Workload category (L / M / H).
    pub category: String,
    /// Execution time normalized to the no-mitigation baseline.
    pub normalized_execution_time: f64,
    /// DRAM energy normalized to the no-mitigation baseline.
    pub normalized_dram_energy: f64,
}

fn category_representatives(scale: &ExperimentScale) -> Vec<WorkloadSpec> {
    let catalog = benign_catalog();
    let mut picked = Vec::new();
    for category in [
        WorkloadCategory::Low,
        WorkloadCategory::Medium,
        WorkloadCategory::High,
    ] {
        picked.extend(
            catalog
                .iter()
                .filter(|w| w.category() == category && !w.synthetic.bypass_cache)
                .take(scale.workloads_per_category)
                .cloned(),
        );
    }
    picked
}

/// Runs the Figure 4 experiment: single-core benign applications under
/// every mechanism, normalized to the no-mitigation baseline (simulated
/// once per workload).
pub fn figure4(scale: &ExperimentScale, paper_n_rh: u64) -> Vec<Figure4Row> {
    let representatives = category_representatives(scale);
    let single_core = |kind: DefenseKind, workload: &WorkloadSpec| {
        scale
            .builder()
            .defense(kind)
            .rowhammer_threshold(paper_n_rh)
            .add_workload(workload.synthetic.clone(), scale.run.benign_instructions)
            .run()
    };
    let baselines: Vec<_> = representatives
        .iter()
        .map(|workload| single_core(DefenseKind::Baseline, workload))
        .collect();
    let mut rows = Vec::new();
    for kind in DefenseKind::figure_4_and_5_set() {
        // BTreeMap: category aggregation order (and thus row output order)
        // must not depend on hash-iteration order.
        let mut per_category: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        for (workload, baseline) in representatives.iter().zip(&baselines) {
            let protected = single_core(kind, workload);
            let time_ratio = protected.threads[0].cycles as f64 / baseline.threads[0].cycles as f64;
            let energy_ratio =
                protected.dram_energy_joules() / baseline.dram_energy_joules().max(1e-18);
            per_category
                .entry(workload.category().to_string())
                .or_default()
                .push((time_ratio, energy_ratio));
        }
        for (category, samples) in per_category {
            let n = samples.len() as f64;
            rows.push(Figure4Row {
                defense: kind.label().to_owned(),
                category,
                normalized_execution_time: samples.iter().map(|s| s.0).sum::<f64>() / n,
                normalized_dram_energy: samples.iter().map(|s| s.1).sum::<f64>() / n,
            });
        }
    }
    rows.sort_by_key(|row| (row.category.clone(), row.defense.clone()));
    rows
}

// ---------------------------------------------------------------------------
// Figure 5: 8-core multiprogrammed workloads, with and without an attacker.
// Figure 6: the same study swept over the RowHammer threshold.
// Both run as campaigns; these are the rows they render as.
// ---------------------------------------------------------------------------

/// One point of Figures 5/6: a defense's normalized multiprogrammed metrics
/// for one scenario (and threshold).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiProgramRow {
    /// Defense name.
    pub defense: String,
    /// `"no-attack"` or `"attack"`.
    pub scenario: String,
    /// Full-scale RowHammer threshold this point was configured for.
    pub n_rh: u64,
    /// Metrics normalized to the no-mitigation baseline (weighted speedup,
    /// harmonic speedup, maximum slowdown, DRAM energy).
    pub normalized: MultiProgramMetrics,
}

// ---------------------------------------------------------------------------
// Section 3.2.1: RHLI of benign and attacker threads (run as a campaign).
// ---------------------------------------------------------------------------

/// Result of the RHLI study (Section 3.2.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RhliStudy {
    /// Attacker RHLI in observe-only mode (the paper reports ~6.9-15.5).
    pub observe_attacker_rhli: f64,
    /// Largest benign-thread RHLI in observe-only mode (the paper: 0).
    pub observe_benign_rhli: f64,
    /// Attacker RHLI in full-functional mode (the paper: below 1).
    pub full_attacker_rhli: f64,
    /// Ratio between the two attacker values (the paper reports ~54x).
    pub reduction_factor: f64,
}

// ---------------------------------------------------------------------------
// Section 8.4: false positive rate and delay penalty distribution.
// ---------------------------------------------------------------------------

/// Result of the false-positive study (Section 8.4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FalsePositiveStudy {
    /// Fraction of activations delayed although their row had not truly
    /// crossed the blacklisting threshold (the paper: ~0.010%-0.012%).
    pub false_positive_rate: f64,
    /// 50th percentile of the delay penalty, in microseconds.
    pub delay_p50_us: f64,
    /// 90th percentile of the delay penalty, in microseconds.
    pub delay_p90_us: f64,
    /// Maximum observed delay penalty, in microseconds.
    pub delay_p100_us: f64,
    /// The theoretical worst case `tDelay` for this configuration, in
    /// microseconds.
    pub t_delay_us: f64,
}

/// Runs the false-positive study: a multiprogrammed mix with an attacker
/// under BlockHammer with exact shadow tracking enabled.
pub fn false_positive_study(scale: &ExperimentScale, paper_n_rh: u64) -> FalsePositiveStudy {
    let mix = WorkloadMix::with_attacker(0, scale.threads_per_mix, scale.seed);
    let mut builder = scale
        .builder()
        .defense(DefenseKind::BlockHammer)
        .rowhammer_threshold(paper_n_rh)
        .add_attacker();
    for workload in &mix.benign {
        builder = builder.add_workload(workload.synthetic.clone(), scale.run.benign_instructions);
    }
    // Re-derive the per-channel BlockHammer configuration for the
    // theoretical tDelay bound (the defense instances inside the system use
    // the same derivation).
    let geometry = builder.geometry_preview();
    let n_rh_effective = builder.effective_n_rh();
    let config = BlockHammerConfig::for_rowhammer_threshold(
        RowHammerThreshold::new(n_rh_effective),
        &geometry,
    );
    let clock_hz = 3.2e9;
    let mut system = builder.build();
    for channel in 0..system.channels() {
        system
            .defense_mut(channel)
            .as_any_mut()
            .downcast_mut::<BlockHammer>()
            // lint: allow(panic-freedom) -- the false-positive study constructs its system with DefenseKind::BlockHammer
            .expect("the false-positive study runs under BlockHammer")
            .enable_false_positive_tracking();
    }
    let (result, defenses) = system.run_into_parts();
    // Aggregate exact-tracking statistics across the per-channel instances.
    // Downcast the trait object, not its `Box`.
    let per_channel: Vec<&BlockHammer> = defenses
        .iter()
        .map(|defense| {
            defense
                .as_ref()
                .as_any()
                .downcast_ref::<BlockHammer>()
                // lint: allow(panic-freedom) -- every channel of this system was built with DefenseKind::BlockHammer
                .expect("the false-positive study runs under BlockHammer")
        })
        .collect();
    let false_positives: u64 = per_channel
        .iter()
        .map(|bh| bh.blockhammer_stats().false_positive_delays)
        .sum();
    // Pool the delay samples of every channel so the percentiles are over
    // the whole system's delay distribution, not a max of per-channel
    // percentiles.
    let mut pooled_delays: Vec<u64> = per_channel
        .iter()
        .flat_map(|bh| bh.blockhammer_stats().delay_samples.iter().copied())
        .collect();
    pooled_delays.sort_unstable();
    let percentile = |p: f64| {
        if pooled_delays.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * (pooled_delays.len() - 1) as f64).round() as usize;
        pooled_delays[rank.min(pooled_delays.len() - 1)]
    };
    let to_us = |cycles: u64| cycles as f64 / clock_hz * 1e6;
    FalsePositiveStudy {
        false_positive_rate: false_positives as f64
            / result.defense_stats.observed_activations.max(1) as f64,
        delay_p50_us: to_us(percentile(50.0)),
        delay_p90_us: to_us(percentile(90.0)),
        delay_p100_us: to_us(percentile(100.0)),
        t_delay_us: config.t_delay_us(clock_hz),
    }
}

// ---------------------------------------------------------------------------
// Table 8: workload characterization (MPKI / RBCPKI).
// ---------------------------------------------------------------------------

/// One row of the Table 8 reproduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table8Row {
    /// Workload name.
    pub name: String,
    /// Category (L / M / H).
    pub category: String,
    /// MPKI the paper reports for the original application (if any).
    pub paper_mpki: Option<f64>,
    /// RBCPKI the paper reports for the original application.
    pub paper_rbcpki: f64,
    /// Measured main-memory accesses per kilo-instruction in our
    /// simulation (LLC misses for cacheable workloads, direct accesses for
    /// cache-bypassing ones).
    pub measured_mpki: f64,
    /// Measured row-buffer conflicts per kilo-instruction.
    pub measured_rbcpki: f64,
}

/// Characterizes every catalog workload on the unprotected single-core
/// system, reproducing the structure of Table 8.
pub fn table8(scale: &ExperimentScale) -> Vec<Table8Row> {
    benign_catalog()
        .into_iter()
        .map(|workload| {
            let run = scale
                .builder()
                .defense(DefenseKind::Baseline)
                .add_workload(workload.synthetic.clone(), scale.run.benign_instructions)
                .run();
            let kilo_insts = run.threads[0].instructions as f64 / 1_000.0;
            let memory_accesses = if workload.synthetic.bypass_cache {
                run.threads[0].memory_requests
            } else {
                run.llc_misses
            };
            Table8Row {
                name: workload.name().to_owned(),
                category: workload.category().to_string(),
                paper_mpki: workload.paper_mpki,
                paper_rbcpki: workload.paper_rbcpki,
                measured_mpki: memory_accesses as f64 / kilo_insts.max(1e-9),
                measured_rbcpki: run.ctrl.row_conflicts as f64 / kilo_insts.max(1e-9),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_smaller_than_standard() {
        let q = ExperimentScale::quick();
        let s = ExperimentScale::standard();
        assert!(q.run.benign_instructions < s.run.benign_instructions);
        assert!(q.mix_count <= s.mix_count);
    }

    #[test]
    fn the_quick_false_positive_study_samples_delays() {
        // The attacker's rows are blacklisted at quick scale, so the
        // study reads at least one delay sample from its BlockHammer
        // instances: a gap between two activations, never zero.
        let study = false_positive_study(&ExperimentScale::quick(), 32_768);
        assert!(study.delay_p50_us > 0.0, "no delay sample: {study:?}");
        assert!(study.delay_p50_us <= study.delay_p90_us);
        assert!(study.delay_p90_us <= study.delay_p100_us);
    }

    #[test]
    fn figure4_reports_every_defense_and_category() {
        let mut scale = ExperimentScale::quick();
        scale.run.benign_instructions = 1_000;
        let rows = figure4(&scale, 32_768);
        assert_eq!(rows.len(), 7 * 3);
        for row in &rows {
            assert!(row.normalized_execution_time > 0.5);
            assert!(row.normalized_dram_energy > 0.5);
        }
        // BlockHammer must not slow any benign category by more than a few
        // percent (paper: no overhead).
        for row in rows.iter().filter(|r| r.defense == "BlockHammer") {
            assert!(
                row.normalized_execution_time < 1.1,
                "BlockHammer {} slowdown {}",
                row.category,
                row.normalized_execution_time
            );
        }
    }
}
