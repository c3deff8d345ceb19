//! Campaign specifications: the deterministic run matrix.
//!
//! A [`CampaignSpec`] names a sweep — {workload mixes × defense kinds ×
//! RowHammer-threshold points × channel counts} — and
//! [`CampaignSpec::expand`] turns it into an ordered list of
//! [`RunSpec`]s. Expansion is pure: the same spec and seed always produce
//! the same list (pinned by `tests/tests/campaign_determinism.rs`), which
//! is what makes campaign results reproducible and resumable.
//!
//! The paper's full 280-workload evaluation (Section 7) is
//! [`CampaignSpec::paper`]: 30 benign applications characterized
//! stand-alone plus 125 benign-only and 125 attack-present eight-thread
//! mixes, swept over the evaluated defenses. Scaled-down variants
//! ([`CampaignSpec::quick`], [`CampaignSpec::smoke`]) keep the identical
//! structure at laptop/CI cost.

use crate::trace::TraceSource;
use sim::DefenseKind;
use workloads::{AttackKind, SyntheticSpec, WorkloadMix};

/// The simulation-size knobs every run of a campaign shares (defined in
/// `sim`, which sizes the paper's in-process drivers the same way).
pub use sim::RunScale;

/// Golden-ratio multiplier used to decorrelate per-run seeds.
const SEED_PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// One scenario axis of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// All threads benign (the paper's "no attack" suites).
    BenignOnly,
    /// Thread 0 runs the given RowHammer attack pattern.
    Attack(AttackKind),
}

impl Scenario {
    /// Stable label used in run names, CSV rows and reports: `no-attack`
    /// and `attack` for the paper's two scenarios, which the Figure 5/6
    /// tables print (non-default attack kinds are suffixed, e.g.
    /// `attack-many_sided_4`).
    pub fn label(&self) -> String {
        match self {
            Scenario::BenignOnly => "no-attack".to_owned(),
            Scenario::Attack(AttackKind::DoubleSided) => "attack".to_owned(),
            Scenario::Attack(kind) => format!("attack-{}", kind.label()),
        }
    }

    /// Parses a [`Scenario::label`] back into its scenario — the inverse
    /// used when campaign specs arrive over the wire. The explicit
    /// spelling `attack-double_sided` parses to the same scenario as the
    /// canonical `attack`; unknown labels return `None`.
    pub fn from_label(label: &str) -> Option<Scenario> {
        match label {
            "no-attack" => Some(Scenario::BenignOnly),
            "attack" => Some(Scenario::Attack(AttackKind::DoubleSided)),
            other => AttackKind::from_label(other.strip_prefix("attack-")?).map(Scenario::Attack),
        }
    }
}

/// What a thread runs when no trace file is attached — and, for benign
/// threads, the generator its stand-alone IPC reference is measured on.
#[derive(Debug, Clone, PartialEq)]
pub enum ThreadGenerator {
    /// A synthetic benign workload.
    Synthetic(SyntheticSpec),
    /// A RowHammer attack pattern.
    Attack(AttackKind),
}

/// One thread of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadSpec {
    /// Thread name (workload catalog name, or `attacker.<kind>`).
    pub name: String,
    /// Whether the thread is excluded from the run-completion criterion.
    pub is_attacker: bool,
    /// Instructions the thread executes (`u64::MAX` for attackers).
    pub instruction_limit: u64,
    /// The thread's generator (always present, even when a trace file is
    /// attached: it identifies the stand-alone IPC reference).
    pub generator: ThreadGenerator,
    /// When set, the thread replays this trace file instead of its
    /// generator.
    pub trace: Option<TraceSource>,
}

/// One fully-specified simulation run of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Position in the campaign's deterministic run order.
    pub index: usize,
    /// Human-readable identity, e.g.
    /// `mix-007-attack/BlockHammer/nrh32768/ch1`.
    pub name: String,
    /// The mix this run executes.
    pub mix_name: String,
    /// Scenario label (see [`Scenario::label`]).
    pub scenario: String,
    /// Defense under test.
    pub defense: DefenseKind,
    /// Full-scale (paper) RowHammer threshold of this sweep point.
    pub paper_n_rh: u64,
    /// Memory channels of this sweep point.
    pub channels: usize,
    /// Run seed (workload placement and probabilistic defenses).
    pub seed: u64,
    /// Simulation-size knobs.
    pub scale: RunScale,
    /// The threads, in thread order (attacker first when present).
    pub threads: Vec<ThreadSpec>,
    /// Stand-alone IPC reference per *benign* thread, in thread order.
    /// Empty until the executor's normalization prelude fills it; empty
    /// means multiprogrammed metrics are not computed for this run.
    pub alone_ipc: Vec<f64>,
}

impl RunSpec {
    /// The benign threads of the run, in thread order.
    pub fn benign_threads(&self) -> impl Iterator<Item = &ThreadSpec> {
        self.threads.iter().filter(|t| !t.is_attacker)
    }

    /// Stable file-name stem for this run's recorded traces. The stem
    /// encodes everything the recorded records depend on — mix, scenario
    /// (which carries the attack kind), channel count, thread count,
    /// instruction budget and run seed — but *not* the defense or
    /// threshold, so every sweep point over the same mix shares one set
    /// of trace files while campaigns with different shapes (or
    /// different attack patterns) never collide in a shared trace
    /// directory.
    pub fn trace_stem(&self) -> String {
        format!(
            "{}-{}-ch{}-t{}-i{}-s{:016x}",
            self.mix_name,
            self.scenario,
            self.channels,
            self.threads.len(),
            self.scale.benign_instructions,
            self.seed
        )
    }
}

/// A declarative sweep: the cartesian product of its axes.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (used in reports and file names).
    pub name: String,
    /// Mixes *per scenario* (the paper: 125).
    pub mix_count: usize,
    /// Threads per mix (the paper: 8).
    pub threads_per_mix: usize,
    /// Scenario axis (the paper: benign-only and double-sided attack).
    pub scenarios: Vec<Scenario>,
    /// Defense axis. Include [`DefenseKind::Baseline`] to get
    /// normalized metrics (every other defense at the same sweep point is
    /// normalized to it).
    pub defenses: Vec<DefenseKind>,
    /// Full-scale RowHammer-threshold axis.
    pub n_rh_points: Vec<u64>,
    /// Channel-count axis.
    pub channel_counts: Vec<usize>,
    /// Simulation-size knobs shared by every run.
    pub scale: RunScale,
    /// Campaign seed: the single source of all run seeds and mix
    /// selections.
    pub seed: u64,
    /// Whether the executor measures stand-alone IPCs first and computes
    /// the paper's multiprogrammed metrics (weighted/harmonic speedup,
    /// maximum slowdown) for every run.
    pub normalize: bool,
}

impl CampaignSpec {
    /// The paper's full evaluation campaign: 125 benign-only plus 125
    /// attack-present eight-thread mixes under the seven Figure 4/5
    /// defenses and the no-mitigation baseline (2000 runs at standard
    /// scale — hours of simulation).
    pub fn paper() -> Self {
        let mut defenses = vec![DefenseKind::Baseline];
        defenses.extend(DefenseKind::figure_4_and_5_set());
        Self {
            name: "paper-280".to_owned(),
            mix_count: 125,
            threads_per_mix: 8,
            scenarios: vec![
                Scenario::BenignOnly,
                Scenario::Attack(AttackKind::DoubleSided),
            ],
            defenses,
            n_rh_points: vec![32_768],
            channel_counts: vec![1],
            scale: RunScale::standard(),
            seed: 7,
            normalize: true,
        }
    }

    /// A scaled-down paper campaign that still exercises every moving
    /// part — `mixes` mixes per scenario, three defenses, two threshold
    /// points — at quick scale (seconds to a few minutes).
    pub fn quick(mixes: usize) -> Self {
        Self {
            name: format!("paper-mini-{mixes}x"),
            mix_count: mixes,
            threads_per_mix: 4,
            scenarios: vec![
                Scenario::BenignOnly,
                Scenario::Attack(AttackKind::DoubleSided),
            ],
            defenses: vec![
                DefenseKind::Baseline,
                DefenseKind::Para,
                DefenseKind::BlockHammer,
            ],
            // At quick time-scale (8192) the effective threshold is
            // `paper_n_rh / 8192`, floored at 16 — paper-range values
            // (32K..1K) all collapse to the floor, so the quick sweep
            // uses points that stay distinct after scaling (effective 64
            // and 16, preserving the Figure 6 harder-threshold
            // direction). Baseline takes no threshold, so the executor
            // simulates its runs at the first point only and delivers the
            // second point's as copies: 2 × `mixes` of the 12 × `mixes`
            // runs.
            n_rh_points: vec![524_288, 131_072],
            channel_counts: vec![1],
            scale: RunScale::quick(),
            seed: 7,
            normalize: true,
        }
    }

    /// The CI smoke campaign: 8 runs (2 mixes × 2 scenarios × 2
    /// defenses) at quick scale.
    pub fn smoke() -> Self {
        Self {
            name: "smoke".to_owned(),
            mix_count: 2,
            threads_per_mix: 4,
            scenarios: vec![
                Scenario::BenignOnly,
                Scenario::Attack(AttackKind::DoubleSided),
            ],
            defenses: vec![DefenseKind::Baseline, DefenseKind::BlockHammer],
            n_rh_points: vec![32_768],
            channel_counts: vec![1],
            scale: RunScale::quick(),
            seed: 7,
            normalize: true,
        }
    }

    /// Total number of runs [`CampaignSpec::expand`] will produce.
    pub fn run_count(&self) -> usize {
        self.channel_counts.len()
            * self.n_rh_points.len()
            * self.defenses.len()
            * self.scenarios.len()
            * self.mix_count
    }

    /// Expands the sweep into its ordered run list. Iteration order is
    /// channels (outermost) → threshold → defense → scenario → mix
    /// (innermost), so runs over the same mix and channel count — which
    /// share recorded trace files — cluster predictably.
    ///
    /// # Panics
    ///
    /// Panics if any axis is empty, `mix_count` is zero, or an
    /// attack-present scenario is requested with fewer than two threads
    /// per mix.
    pub fn expand(&self) -> Vec<RunSpec> {
        assert!(self.mix_count > 0, "a campaign needs at least one mix");
        assert!(
            !(self.scenarios.is_empty()
                || self.defenses.is_empty()
                || self.n_rh_points.is_empty()
                || self.channel_counts.is_empty()),
            "every campaign axis needs at least one point"
        );
        let mut runs = Vec::with_capacity(self.run_count());
        for &channels in &self.channel_counts {
            for &n_rh in &self.n_rh_points {
                for &defense in &self.defenses {
                    for scenario in &self.scenarios {
                        for mix_index in 0..self.mix_count {
                            runs.push(self.run_for(
                                runs.len(),
                                channels,
                                n_rh,
                                defense,
                                *scenario,
                                mix_index,
                            ));
                        }
                    }
                }
            }
        }
        runs
    }

    fn run_for(
        &self,
        index: usize,
        channels: usize,
        n_rh: u64,
        defense: DefenseKind,
        scenario: Scenario,
        mix_index: usize,
    ) -> RunSpec {
        let mix = match scenario {
            Scenario::BenignOnly => WorkloadMix::benign(mix_index, self.threads_per_mix, self.seed),
            Scenario::Attack(_) => {
                WorkloadMix::with_attacker(mix_index, self.threads_per_mix, self.seed)
            }
        };
        let mut threads = Vec::with_capacity(self.threads_per_mix);
        if let Scenario::Attack(kind) = scenario {
            threads.push(ThreadSpec {
                name: format!("attacker.{}", kind.label()),
                is_attacker: true,
                instruction_limit: u64::MAX,
                generator: ThreadGenerator::Attack(kind),
                trace: None,
            });
        }
        for workload in &mix.benign {
            threads.push(ThreadSpec {
                name: workload.name().to_owned(),
                is_attacker: false,
                instruction_limit: self.scale.benign_instructions,
                generator: ThreadGenerator::Synthetic(workload.synthetic.clone()),
                trace: None,
            });
        }
        // Decorrelate the defense's random stream per mix (the mix itself
        // is built from the campaign seed, identical for every mix).
        let seed = self.seed ^ (mix_index as u64).wrapping_mul(SEED_PHI);
        RunSpec {
            index,
            name: format!(
                "{}/{}/nrh{}/ch{}",
                mix.name,
                defense.label(),
                n_rh,
                channels
            ),
            mix_name: mix.name.clone(),
            scenario: scenario.label(),
            defense,
            paper_n_rh: n_rh,
            channels,
            seed,
            scale: self.scale,
            threads,
            alone_ipc: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_deterministic_and_ordered() {
        let spec = CampaignSpec::smoke();
        let a = spec.expand();
        let b = spec.expand();
        assert_eq!(a, b);
        assert_eq!(a.len(), spec.run_count());
        for (i, run) in a.iter().enumerate() {
            assert_eq!(run.index, i);
        }
    }

    #[test]
    fn paper_campaign_covers_the_250_mix_construction() {
        let spec = CampaignSpec::paper();
        assert_eq!(spec.mix_count, 125);
        assert_eq!(spec.threads_per_mix, 8);
        assert_eq!(spec.scenarios.len(), 2);
        // 125 benign + 125 attack mixes, 8 defenses.
        assert_eq!(spec.run_count(), 250 * 8);
    }

    #[test]
    fn attack_runs_lead_with_the_attacker_thread() {
        let spec = CampaignSpec::smoke();
        let runs = spec.expand();
        for run in runs.iter().filter(|r| r.scenario == "attack") {
            assert!(run.threads[0].is_attacker);
            assert_eq!(run.threads[0].name, "attacker.double_sided");
            assert_eq!(run.threads.len(), spec.threads_per_mix);
            assert_eq!(run.benign_threads().count(), spec.threads_per_mix - 1);
        }
        for run in runs.iter().filter(|r| r.scenario == "no-attack") {
            assert!(run.threads.iter().all(|t| !t.is_attacker));
            assert_eq!(run.threads.len(), spec.threads_per_mix);
        }
    }

    #[test]
    fn trace_stems_ignore_defense_and_threshold() {
        let spec = CampaignSpec::quick(2);
        let runs = spec.expand();
        let stems: std::collections::HashSet<String> =
            runs.iter().map(|r| r.trace_stem()).collect();
        // 2 scenarios x 2 mixes x 1 channel count = 4 distinct stems,
        // shared across 3 defenses and 2 thresholds.
        assert_eq!(stems.len(), 4);
        assert!(runs.len() > stems.len());
    }

    #[test]
    fn trace_stems_distinguish_attack_kinds() {
        // Two campaigns differing only in attack pattern must never
        // share attacker trace files.
        let mut many = CampaignSpec::smoke();
        many.scenarios = vec![Scenario::Attack(AttackKind::ManySided { sides: 4 })];
        let mut double = CampaignSpec::smoke();
        double.scenarios = vec![Scenario::Attack(AttackKind::DoubleSided)];
        let stem = |c: &CampaignSpec| c.expand()[0].trace_stem();
        assert_ne!(stem(&many), stem(&double));
    }

    #[test]
    fn scenario_labels_match_the_experiment_drivers() {
        assert_eq!(Scenario::BenignOnly.label(), "no-attack");
        assert_eq!(Scenario::Attack(AttackKind::DoubleSided).label(), "attack");
        assert_eq!(
            Scenario::Attack(AttackKind::ManySided { sides: 4 }).label(),
            "attack-many_sided_4"
        );
    }

    #[test]
    fn scenario_labels_round_trip_through_from_label() {
        for scenario in [
            Scenario::BenignOnly,
            Scenario::Attack(AttackKind::DoubleSided),
            Scenario::Attack(AttackKind::SingleSided),
            Scenario::Attack(AttackKind::ManySided { sides: 4 }),
        ] {
            assert_eq!(Scenario::from_label(&scenario.label()), Some(scenario));
        }
        // The explicit attack spelling normalizes to the canonical form.
        assert_eq!(
            Scenario::from_label("attack-double_sided"),
            Some(Scenario::Attack(AttackKind::DoubleSided))
        );
        assert_eq!(Scenario::from_label("benign"), None);
        assert_eq!(Scenario::from_label("attack-unknown"), None);
    }
}
