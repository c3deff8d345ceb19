//! Run results and the multiprogrammed performance metrics the paper
//! reports: weighted speedup, harmonic speedup, maximum slowdown and DRAM
//! energy (Section 7, "Performance and DRAM Energy Metrics").

use bh_types::Cycle;
use dram_sim::DramStats;
use energy::EnergyBreakdown;
use memctrl::CtrlStats;
use mitigations::DefenseStats;
use serde::{Deserialize, Serialize};

/// Per-thread outcome of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadResult {
    /// Hardware-thread index.
    pub thread: usize,
    /// Workload name.
    pub name: String,
    /// Whether the thread is a RowHammer attacker (excluded from the
    /// benign-performance metrics, as in the paper).
    pub is_attacker: bool,
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles until the thread finished (or the run ended).
    pub cycles: Cycle,
    /// Instructions per cycle.
    pub ipc: f64,
    /// The thread's largest RowHammer likelihood index across banks, as
    /// reported by the defense (zero for defenses that do not compute it).
    pub max_rhli: f64,
    /// Memory requests the thread issued.
    pub memory_requests: u64,
}

/// Idle-skip accounting of a run's advance loop (how event-driven
/// stepping earned its speedup).
///
/// These counters depend on the advance mode — lockstep simulates every
/// cycle, event-driven skips cycles in which nothing can act — so
/// equivalence comparisons must ignore them, and the campaign's summary
/// CSV/JSON never include them (they are reported through a separate
/// stepping report instead).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SteppingStats {
    /// Cycles actually ticked (advance-loop iterations).
    pub cycles_simulated: u64,
    /// Cycles skipped by event jumps (`total_cycles` minus ticked ones).
    pub cycles_skipped: u64,
    /// Ticks that delivered at least one memory completion or ready LLC
    /// hit to a core.
    pub events_processed: u64,
    /// Largest single jump of the simulated clock, in cycles.
    pub largest_jump: u64,
}

impl SteppingStats {
    /// Fraction of the run's cycles that were skipped (0 under lockstep).
    pub fn skip_ratio(&self) -> f64 {
        let total = self.cycles_simulated + self.cycles_skipped;
        if total == 0 {
            0.0
        } else {
            self.cycles_skipped as f64 / total as f64
        }
    }
}

/// End-of-run statistics of one memory-channel shard (its controller,
/// DRAM device and defense instance).
///
/// `RunResult::dram` / `ctrl` / `defense_stats` are the merged,
/// system-wide views; the per-channel entries let experiments check shard
/// balance and per-channel defense behaviour. Activation logs are moved
/// into the merged [`RunResult::dram`] during aggregation, so the
/// per-channel `dram.activation_log` is always `None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelStats {
    /// Channel index.
    pub channel: usize,
    /// Name of the defense instance protecting this channel.
    pub defense: String,
    /// DRAM command and state statistics of this channel (ranks indexed
    /// channel-locally).
    pub dram: DramStats,
    /// Controller statistics of this channel.
    pub ctrl: CtrlStats,
    /// Defense counters of this channel's instance.
    pub defense_stats: DefenseStats,
}

/// Complete outcome of one simulation run.
///
/// Equality is field-for-field, which is what the advance-mode
/// equivalence tests pin bit-identity with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Defense name.
    pub defense: String,
    /// RowHammer threshold the defense was configured for (scaled).
    pub n_rh: u64,
    /// Time-scaling factor of the run.
    pub time_scale: u64,
    /// Total simulated cycles.
    pub total_cycles: Cycle,
    /// Per-thread results.
    pub threads: Vec<ThreadResult>,
    /// DRAM command and state statistics, merged across channels.
    pub dram: DramStats,
    /// Memory controller statistics, merged across channels.
    pub ctrl: CtrlStats,
    /// Per-channel shard statistics, in channel order.
    pub per_channel: Vec<ChannelStats>,
    /// LLC hits.
    pub llc_hits: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// DRAM energy breakdown.
    pub energy: EnergyBreakdown,
    /// Defense statistics.
    pub defense_stats: DefenseStats,
    /// Idle-skip accounting of the advance loop. The only field that
    /// differs between advance modes; every other field is bit-identical.
    pub stepping: SteppingStats,
}

impl RunResult {
    /// The benign (non-attacker) threads of the run.
    pub fn benign_threads(&self) -> impl Iterator<Item = &ThreadResult> {
        self.threads.iter().filter(|t| !t.is_attacker)
    }

    /// The attacker thread, if the run had one.
    pub fn attacker(&self) -> Option<&ThreadResult> {
        self.threads.iter().find(|t| t.is_attacker)
    }

    /// Total DRAM energy in joules.
    pub fn dram_energy_joules(&self) -> f64 {
        self.energy.total_joules()
    }
}

/// The multiprogrammed metrics of Section 7, computed for the benign
/// threads of a run against their stand-alone IPCs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiProgramMetrics {
    /// Weighted speedup: `Σ IPC_shared / IPC_alone` (system throughput).
    pub weighted_speedup: f64,
    /// Harmonic speedup: `N / Σ (IPC_alone / IPC_shared)` (job turnaround).
    pub harmonic_speedup: f64,
    /// Maximum slowdown: `max(IPC_alone / IPC_shared)` (fairness).
    pub max_slowdown: f64,
    /// Total DRAM energy of the run in joules.
    pub dram_energy_joules: f64,
}

impl MultiProgramMetrics {
    /// Computes the metrics for `shared`, given each benign thread's
    /// stand-alone IPC (`alone_ipc[i]` corresponds to the i-th *benign*
    /// thread of the run, in order).
    ///
    /// # Panics
    ///
    /// Panics if `alone_ipc` does not have one entry per benign thread or
    /// any stand-alone IPC is non-positive.
    pub fn compute(shared: &RunResult, alone_ipc: &[f64]) -> Self {
        let benign: Vec<&ThreadResult> = shared.benign_threads().collect();
        assert_eq!(
            benign.len(),
            alone_ipc.len(),
            "need one stand-alone IPC per benign thread"
        );
        assert!(
            alone_ipc.iter().all(|&ipc| ipc > 0.0),
            "stand-alone IPCs must be positive"
        );
        let mut weighted = 0.0;
        let mut inverse_sum = 0.0;
        let mut max_slowdown: f64 = 0.0;
        for (thread, &alone) in benign.iter().zip(alone_ipc) {
            let shared_ipc = thread.ipc.max(1e-12);
            weighted += shared_ipc / alone;
            inverse_sum += alone / shared_ipc;
            max_slowdown = max_slowdown.max(alone / shared_ipc);
        }
        Self {
            weighted_speedup: weighted,
            harmonic_speedup: benign.len() as f64 / inverse_sum,
            max_slowdown,
            dram_energy_joules: shared.dram_energy_joules(),
        }
    }

    /// This set of metrics normalized to a baseline run's metrics (the
    /// y-axes of Figures 5 and 6 are all normalized to the no-mitigation
    /// baseline).
    pub fn normalized_to(&self, baseline: &MultiProgramMetrics) -> MultiProgramMetrics {
        MultiProgramMetrics {
            weighted_speedup: self.weighted_speedup / baseline.weighted_speedup,
            harmonic_speedup: self.harmonic_speedup / baseline.harmonic_speedup,
            max_slowdown: self.max_slowdown / baseline.max_slowdown,
            dram_energy_joules: self.dram_energy_joules / baseline.dram_energy_joules,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread(name: &str, ipc: f64, attacker: bool) -> ThreadResult {
        ThreadResult {
            thread: 0,
            name: name.to_owned(),
            is_attacker: attacker,
            instructions: 1000,
            cycles: 1000,
            ipc,
            max_rhli: 0.0,
            memory_requests: 10,
        }
    }

    fn run_with(threads: Vec<ThreadResult>) -> RunResult {
        RunResult {
            defense: "test".into(),
            n_rh: 1024,
            time_scale: 1,
            total_cycles: 1000,
            threads,
            dram: DramStats::new(1),
            ctrl: CtrlStats::default(),
            per_channel: Vec::new(),
            llc_hits: 0,
            llc_misses: 0,
            energy: EnergyBreakdown {
                background: 2.0,
                ..EnergyBreakdown::default()
            },
            defense_stats: DefenseStats::default(),
            stepping: SteppingStats::default(),
        }
    }

    #[test]
    fn metrics_match_hand_computed_values() {
        let shared = run_with(vec![thread("a", 0.5, false), thread("b", 1.0, false)]);
        let metrics = MultiProgramMetrics::compute(&shared, &[1.0, 2.0]);
        // weighted = 0.5/1 + 1/2 = 1.0; harmonic = 2 / (1/0.5 + 2/1) = 0.5;
        // max slowdown = max(2, 2) = 2.
        assert!((metrics.weighted_speedup - 1.0).abs() < 1e-9);
        assert!((metrics.harmonic_speedup - 0.5).abs() < 1e-9);
        assert!((metrics.max_slowdown - 2.0).abs() < 1e-9);
        assert!((metrics.dram_energy_joules - 2.0).abs() < 1e-9);
    }

    #[test]
    fn attacker_threads_are_excluded() {
        let shared = run_with(vec![
            thread("attacker", 3.0, true),
            thread("benign", 0.5, false),
        ]);
        let metrics = MultiProgramMetrics::compute(&shared, &[1.0]);
        assert!((metrics.weighted_speedup - 0.5).abs() < 1e-9);
        assert_eq!(shared.benign_threads().count(), 1);
        assert!(shared.attacker().is_some());
    }

    #[test]
    fn normalization_divides_componentwise() {
        let a = MultiProgramMetrics {
            weighted_speedup: 2.0,
            harmonic_speedup: 1.0,
            max_slowdown: 4.0,
            dram_energy_joules: 10.0,
        };
        let b = MultiProgramMetrics {
            weighted_speedup: 4.0,
            harmonic_speedup: 2.0,
            max_slowdown: 2.0,
            dram_energy_joules: 5.0,
        };
        let n = a.normalized_to(&b);
        assert!((n.weighted_speedup - 0.5).abs() < 1e-9);
        assert!((n.harmonic_speedup - 0.5).abs() < 1e-9);
        assert!((n.max_slowdown - 2.0).abs() < 1e-9);
        assert!((n.dram_energy_joules - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one stand-alone IPC")]
    fn mismatched_alone_ipcs_panic() {
        let shared = run_with(vec![thread("a", 0.5, false)]);
        let _ = MultiProgramMetrics::compute(&shared, &[1.0, 1.0]);
    }
}
