//! Shared helpers for the cross-crate integration tests.
//!
//! The actual test suites live in `tests/` next to this crate: end-to-end
//! RowHammer safety verification, defense comparisons and property-based
//! tests spanning several crates.

#![forbid(unsafe_code)]

use sim::{DefenseKind, RunResult, SystemBuilder};
use workloads::SyntheticSpec;

/// The time-scaling factor used by all integration tests (refresh window of
/// about 25k cycles; see the README section "Substitutions and scaled
/// time").
pub const TEST_TIME_SCALE: u64 = 8192;

/// The scaled refresh window in cycles for [`TEST_TIME_SCALE`].
pub const TEST_REFRESH_WINDOW: u64 = 204_800_000 / TEST_TIME_SCALE;

/// Every defense kind the factory can build: Baseline, the Figure 4/5
/// set, and BlockHammer in observe-only mode.
pub fn all_defenses() -> Vec<DefenseKind> {
    let mut kinds = vec![DefenseKind::Baseline];
    kinds.extend(DefenseKind::figure_4_and_5_set());
    kinds.push(DefenseKind::BlockHammerObserve);
    kinds
}

/// Builds the standard attack-plus-victims system used by several
/// integration tests: one double-sided attacker and two benign threads.
pub fn attack_system(kind: DefenseKind) -> SystemBuilder {
    SystemBuilder::new()
        .time_scale(TEST_TIME_SCALE)
        .defense(kind)
        .rowhammer_threshold(32_768)
        .llc_capacity(1 << 20)
        .min_cycles(2 * TEST_REFRESH_WINDOW)
        .max_cycles(1_500_000)
        .add_attacker()
        .add_workload(SyntheticSpec::high_intensity("victim.high", 0), 6_000)
        .add_workload(SyntheticSpec::medium_intensity("victim.medium", 1), 6_000)
}

/// Runs the standard attack system under `kind` with activation logging
/// enabled.
pub fn run_attack_with_log(kind: DefenseKind) -> RunResult {
    attack_system(kind).activation_log().run()
}

/// Aggregate benign IPC of a run.
pub fn benign_ipc(result: &RunResult) -> f64 {
    result.benign_threads().map(|t| t.ipc).sum()
}

/// The 4-run campaign shared by the `resume_harness` binary and the
/// kill/resume integration test: both sides must expand the *same* spec,
/// since the test polls the harness's journal by fingerprint.
pub fn resume_campaign() -> campaign::CampaignSpec {
    let mut spec = campaign::CampaignSpec::smoke();
    spec.name = "kill-resume".to_owned();
    spec.mix_count = 1;
    spec.threads_per_mix = 2;
    spec.scale.benign_instructions = 400;
    spec.scale.min_cycles = 20_000;
    spec
}

/// [`resume_campaign`] at two thresholds that scale to different
/// effective thresholds (64 and 16 at quick scale): runs 4 and 5,
/// Baseline at the second point, are copies of runs 0 and 1, so a kill
/// can land between a primary and its copy. Its own name keeps its
/// journal apart from [`resume_campaign`]'s.
pub fn resume_sharing_campaign() -> campaign::CampaignSpec {
    let mut spec = resume_campaign();
    spec.name = "kill-resume-shared".to_owned();
    spec.n_rh_points = vec![524_288, 131_072];
    spec
}

/// The 4-run smoke campaign the campaign-server tests submit over HTTP.
/// Distinct name (and therefore fingerprint/campaign id) from
/// [`resume_campaign`], so the two kill/resume suites never share a
/// journal.
pub fn serve_campaign() -> campaign::CampaignSpec {
    let mut spec = resume_campaign();
    spec.name = "serve-smoke".to_owned();
    spec
}

/// A deliberately slow single-run campaign (lockstep stepping, a long
/// minimum-cycle floor) that keeps the server's executor busy while the
/// backpressure test fills the admission queue behind it.
pub fn serve_slow_campaign() -> campaign::CampaignSpec {
    let mut spec = serve_campaign();
    spec.name = "serve-slow".to_owned();
    spec.scenarios = vec![campaign::Scenario::BenignOnly];
    spec.defenses = vec![sim::DefenseKind::Baseline];
    spec.scale.advance = sim::AdvanceMode::Lockstep;
    spec.scale.min_cycles = 2_000_000;
    spec
}
