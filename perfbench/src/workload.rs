//! The benchmark's workloads: campaign specs and their runs, made from a
//! seed. The simulator only ever sees the resulting `RunSpec`s.

use campaign::{CampaignSpec, RunScale, RunSpec, Scenario, ThreadGenerator};
use sim::DefenseKind;
use workloads::{benign_catalog, AttackKind};

/// One benchmark workload. Both are closed-loop batch jobs: the next run
/// starts when a worker (or, sequentially, the previous run) frees up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `CampaignSpec::quick(12)` (144 short runs) on two work-stealing
    /// workers.
    Quick2w,
    /// Attack-only, saturated runs under Baseline, BlockHammer and
    /// Graphene, sequential.
    AttackLong,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Quick2w, Workload::AttackLong];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Quick2w => "quick-2w",
            Workload::AttackLong => "attack-long",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Campaign workers (0 = sequential on the calling thread).
    pub fn workers(self) -> usize {
        match self {
            Workload::Quick2w => 2,
            Workload::AttackLong => 0,
        }
    }

    /// The campaign for `seed` and its runs: the campaign's expansion with
    /// the benign threads re-drawn by [`balance`].
    pub fn runs(self, seed: u64) -> (CampaignSpec, Vec<RunSpec>) {
        let spec = self.campaign(seed);
        let mut runs = spec.expand();
        balance(&spec, &mut runs);
        (spec, runs)
    }

    /// The campaign for `seed`; the seed is the only thing that varies.
    pub fn campaign(self, seed: u64) -> CampaignSpec {
        let spec = match self {
            Workload::Quick2w => CampaignSpec::quick(12),
            // Four threads per mix, N_RH = 32K (the quick-scale floor of
            // 16 effective), and a benign budget five times quick's, so
            // the attacker keeps BlockHammer's veto path and Graphene's
            // counters busy for most of every run.
            Workload::AttackLong => CampaignSpec {
                name: "attack-long".to_owned(),
                mix_count: 10,
                threads_per_mix: 4,
                scenarios: vec![Scenario::Attack(AttackKind::DoubleSided)],
                defenses: vec![
                    DefenseKind::Baseline,
                    DefenseKind::BlockHammer,
                    DefenseKind::Graphene,
                ],
                n_rh_points: vec![32_768],
                channel_counts: vec![1],
                scale: RunScale {
                    benign_instructions: 10_000,
                    ..RunScale::quick()
                },
                seed: 7,
                normalize: true,
            },
        };
        CampaignSpec { seed, ..spec }
    }
}

/// The campaign seed of an invocation's `k`-th execution: `seed` itself
/// first, then seeds derived from it. Each campaign seed fixes its own
/// mixes, run seeds and prelude, and their cost differs from seed to
/// seed; measuring one invocation over several campaigns keeps that
/// difference out of the spread between invocations.
pub fn execution_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        seed
    } else {
        SplitMix(seed ^ (k as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)).next()
    }
}

/// SplitMix64: a tiny seeded generator for the benchmark's own draws.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Shuffles `items` uniformly (Fisher-Yates).
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

/// The applications thread slot `slot` of `slots` fills across `mixes`
/// mixes, in mix order: the catalog ranked by memory intensity (target
/// MPKI) is cut into `slots` strata, and slot `slot` repeats stratum
/// `slot` to `mixes` entries — whole copies first, then its least
/// intensive members — so the multiset is the same for every seed. The
/// seed shuffles the order, except that mix 0 always gets the stratum's
/// least intensive member: the first run belongs to `setup_s`, which
/// should measure set-up, not which application the seed put first.
fn slot_pool(
    ranked: &[usize],
    slots: usize,
    slot: usize,
    mixes: usize,
    rng: &mut SplitMix,
) -> Vec<usize> {
    let n = ranked.len();
    let stratum = &ranked[slot * n / slots..(slot + 1) * n / slots];
    let mut pool: Vec<usize> = stratum.iter().copied().cycle().take(mixes).collect();
    if let Some(rest) = pool.get_mut(1..) {
        rng.shuffle(rest);
    }
    pool
}

/// Re-draws every run's benign threads as a stratified design. The
/// campaign's own expansion draws each thread independently from the
/// catalog, whose memory intensity spans three orders of magnitude, so
/// how many intensive threads a campaign holds — and with it the
/// campaign's host cost — swings several-fold from seed to seed. Here
/// each mix takes one application from each intensity stratum
/// ([`slot_pool`]), so every seed runs the same applications the same
/// number of times; the seed decides which of them share a mix and,
/// through the campaign seed, the run seeds. A mix keeps its threads
/// across defenses and thresholds, as in the campaign's own expansion.
fn balance(spec: &CampaignSpec, runs: &mut [RunSpec]) {
    let catalog = benign_catalog();
    let mut ranked: Vec<usize> = (0..catalog.len()).collect();
    ranked.sort_by(|&a, &b| {
        catalog[a]
            .synthetic
            .target_mpki
            .total_cmp(&catalog[b].synthetic.target_mpki)
    });
    for (position, scenario) in spec.scenarios.iter().enumerate() {
        let label = scenario.label();
        let slots = match scenario {
            Scenario::BenignOnly => spec.threads_per_mix,
            Scenario::Attack(_) => spec.threads_per_mix - 1,
        };
        let mut rng =
            SplitMix(spec.seed ^ (position as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
        let pools: Vec<Vec<usize>> = (0..slots)
            .map(|slot| slot_pool(&ranked, slots, slot, spec.mix_count, &mut rng))
            .collect();
        for run in runs.iter_mut().filter(|r| r.scenario == label) {
            // Expansion order puts the mix index innermost.
            let mix = run.index % spec.mix_count;
            let benign = run.threads.iter_mut().filter(|t| !t.is_attacker);
            for (thread, pool) in benign.zip(&pools) {
                let app = &catalog[pool[mix]];
                thread.name = app.name().to_owned();
                thread.generator = ThreadGenerator::Synthetic(app.synthetic.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("quick"), None);
    }

    #[test]
    fn seed_only_sets_the_campaign_seed() {
        for workload in Workload::ALL {
            let mut a = workload.campaign(1);
            let b = workload.campaign(2);
            assert_ne!(a, b);
            a.seed = 2;
            assert_eq!(a, b);
        }
        assert_eq!(Workload::Quick2w.campaign(3).run_count(), 144);
    }

    #[test]
    fn execution_seeds_start_with_the_given_seed_and_differ() {
        assert_eq!(execution_seed(7, 0), 7);
        let seeds: Vec<u64> = (0..8).map(|k| execution_seed(7, k)).collect();
        let mut distinct = seeds.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), seeds.len());
        assert_eq!(
            seeds,
            (0..8).map(|k| execution_seed(7, k)).collect::<Vec<_>>()
        );
        assert_ne!(execution_seed(7, 1), execution_seed(8, 1));
    }

    /// Benign application names of one scenario, as a sorted multiset.
    fn application_multiset(runs: &[RunSpec], scenario: &str) -> Vec<String> {
        let mut names: Vec<String> = runs
            .iter()
            .filter(|r| r.scenario == scenario)
            .flat_map(|r| r.benign_threads().map(|t| t.name.clone()))
            .collect();
        names.sort();
        names
    }

    fn thread_names(run: &RunSpec) -> Vec<String> {
        run.threads.iter().map(|t| t.name.clone()).collect()
    }

    #[test]
    fn seeds_share_the_application_multiset_but_not_the_mixes() {
        for workload in Workload::ALL {
            let (spec, a) = workload.runs(1);
            let (_, b) = workload.runs(2);
            assert_eq!(a, workload.runs(1).1, "same seed, same runs");
            assert_ne!(a, b, "the seed changes the mixes");
            for scenario in &spec.scenarios {
                let label = scenario.label();
                assert_eq!(
                    application_multiset(&a, &label),
                    application_multiset(&b, &label)
                );
            }
            // The first run has the same applications for every seed.
            assert_eq!(thread_names(&a[0]), thread_names(&b[0]));
        }
    }

    #[test]
    fn a_mix_keeps_its_threads_across_defenses_and_thresholds() {
        let (spec, runs) = Workload::Quick2w.runs(5);
        for run in &runs {
            let first = runs
                .iter()
                .find(|r| r.mix_name == run.mix_name && r.scenario == run.scenario)
                .expect("the run itself matches");
            assert_eq!(thread_names(run), thread_names(first));
            assert_eq!(run.threads.len(), spec.threads_per_mix);
        }
    }
}
