//! End-to-end tests of the channel-sharded memory subsystem: a
//! `channels = 1` system must behave exactly like the paper's single-channel
//! configuration, and multi-channel systems must run figure-5-style
//! multiprogrammed workloads with an independent defense instance per
//! channel.

use integration_tests::{attack_system, TEST_REFRESH_WINDOW, TEST_TIME_SCALE};
use sim::{DefenseKind, RunResult, SystemBuilder};
use workloads::SyntheticSpec;

/// A figure-5-style multiprogrammed mix (attacker + benign threads of each
/// intensity category) on a system with the given number of channels.
fn multiprogram_run(channels: usize, kind: DefenseKind) -> RunResult {
    SystemBuilder::new()
        .time_scale(TEST_TIME_SCALE)
        .channels(channels)
        .defense(kind)
        .rowhammer_threshold(32_768)
        .llc_capacity(1 << 20)
        .min_cycles(2 * TEST_REFRESH_WINDOW)
        .max_cycles(1_500_000)
        .add_attacker()
        .add_workload(SyntheticSpec::high_intensity("victim.high", 0), 5_000)
        .add_workload(SyntheticSpec::medium_intensity("victim.medium", 1), 5_000)
        .add_workload(SyntheticSpec::low_intensity("victim.low", 2), 5_000)
        .run()
}

/// `channels = 1` through the sharded subsystem is the same single-channel
/// path the whole pre-sharding test suite validates: an explicit
/// `.channels(1)` reproduces the default builder's results exactly.
#[test]
fn single_channel_regression_matches_default_path() {
    let default_run = attack_system(DefenseKind::BlockHammer).run();
    let explicit_run = attack_system(DefenseKind::BlockHammer).channels(1).run();
    assert_eq!(default_run.total_cycles, explicit_run.total_cycles);
    assert_eq!(default_run.dram.totals(), explicit_run.dram.totals());
    assert_eq!(
        default_run.ctrl.accepted_requests,
        explicit_run.ctrl.accepted_requests
    );
    assert_eq!(
        default_run.defense_stats.observed_activations,
        explicit_run.defense_stats.observed_activations
    );
    for (a, b) in default_run.threads.iter().zip(&explicit_run.threads) {
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.memory_requests, b.memory_requests);
        assert_eq!(a.max_rhli, b.max_rhli);
    }
}

/// A two-channel system runs the multiprogrammed mix end to end: every
/// benign thread finishes, both channels carry traffic, and each channel's
/// independent defense instance reports its own activity.
#[test]
fn two_channels_run_multiprogram_mix_end_to_end() {
    let result = multiprogram_run(2, DefenseKind::BlockHammer);
    assert_eq!(result.per_channel.len(), 2);
    for thread in result.benign_threads() {
        assert!(
            thread.instructions >= 5_000,
            "benign thread {} finished only {} instructions",
            thread.name,
            thread.instructions
        );
    }
    for shard in &result.per_channel {
        assert_eq!(shard.defense, "BlockHammer");
        assert!(
            shard.dram.totals().activates > 0,
            "channel {} carried no traffic",
            shard.channel
        );
        assert!(
            shard.defense_stats.observed_activations > 0,
            "channel {}'s defense observed nothing",
            shard.channel
        );
    }
    // The per-channel defenses observe disjoint traffic; the merged view
    // is their sum.
    let per_channel_observed: u64 = result
        .per_channel
        .iter()
        .map(|shard| shard.defense_stats.observed_activations)
        .sum();
    assert_eq!(
        result.defense_stats.observed_activations,
        per_channel_observed
    );
}

/// The attacker is identified (RHLI > 0) and throttled on a sharded
/// system too: each channel's BlockHammer sees the attack traffic that
/// lands on its shard.
#[test]
fn sharded_blockhammer_still_identifies_and_throttles_the_attacker() {
    let baseline = multiprogram_run(2, DefenseKind::Baseline);
    let protected = multiprogram_run(2, DefenseKind::BlockHammer);
    let attacker_rate = |r: &RunResult| r.threads[0].memory_requests as f64 / r.total_cycles as f64;
    assert!(
        attacker_rate(&protected) < attacker_rate(&baseline),
        "BlockHammer must reduce the attacker's throughput on a 2-channel system \
         (baseline {:.4}/cycle, protected {:.4}/cycle)",
        attacker_rate(&baseline),
        attacker_rate(&protected)
    );
    let attacker = protected.attacker().expect("mix has an attacker");
    assert!(attacker.max_rhli > 0.0, "attacker RHLI must be non-zero");
    for benign in protected.benign_threads() {
        assert_eq!(
            benign.max_rhli, 0.0,
            "benign thread {} was flagged with RHLI {}",
            benign.name, benign.max_rhli
        );
    }
}

/// The attacker hammers every channel: alone on a 2-channel system, it
/// activates rows on both, and both channels' BlockHammer instances delay
/// its activations.
#[test]
fn a_two_channel_attack_activates_rows_on_both_channels() {
    let result = SystemBuilder::new()
        .time_scale(TEST_TIME_SCALE)
        .channels(2)
        .defense(DefenseKind::BlockHammer)
        .rowhammer_threshold(32_768)
        .min_cycles(2 * TEST_REFRESH_WINDOW)
        .max_cycles(1_500_000)
        .add_attacker()
        .run();
    assert_eq!(result.per_channel.len(), 2);
    for shard in &result.per_channel {
        assert!(
            shard.dram.totals().activates > 0,
            "the attacker activated no row on channel {}",
            shard.channel
        );
        assert!(
            shard.ctrl.activations_delayed_by_defense > 0,
            "channel {}'s BlockHammer delayed no activation",
            shard.channel
        );
    }
}

/// RowHammer safety holds per channel: with the activation log enabled on
/// a 2-channel BlockHammer system, no row of either channel exceeds the
/// scaled threshold within a refresh window.
#[test]
fn sharded_blockhammer_keeps_every_channel_safe() {
    let result = SystemBuilder::new()
        .time_scale(TEST_TIME_SCALE)
        .channels(2)
        .defense(DefenseKind::BlockHammer)
        .rowhammer_threshold(32_768)
        .llc_capacity(1 << 20)
        .min_cycles(2 * TEST_REFRESH_WINDOW)
        .max_cycles(1_500_000)
        .activation_log()
        .add_attacker()
        .add_workload(SyntheticSpec::high_intensity("victim.high", 0), 5_000)
        .run();
    let worst = result
        .dram
        .max_row_activations_in_window(TEST_REFRESH_WINDOW)
        .expect("activation log enabled");
    assert!(
        worst <= result.n_rh,
        "a row received {worst} activations within one refresh window, above N_RH = {}",
        result.n_rh
    );
}

/// Four channels work too, and shard statistics stay consistent with the
/// merged system-wide view.
#[test]
fn four_channel_stats_are_consistent() {
    let result = multiprogram_run(4, DefenseKind::Graphene);
    assert_eq!(result.per_channel.len(), 4);
    assert_eq!(result.dram.per_rank.len(), 4);
    let summed: u64 = result
        .per_channel
        .iter()
        .map(|shard| shard.dram.totals().activates)
        .sum();
    assert_eq!(result.dram.totals().activates, summed);
    let summed_victims: u64 = result
        .per_channel
        .iter()
        .map(|shard| shard.ctrl.victim_refreshes_performed)
        .sum();
    assert_eq!(result.ctrl.victim_refreshes_performed, summed_victims);
}

/// `channels = 1` run statistics are pinned to exact values so that any
/// future change to the scheduling hot path, the completion stream or the
/// controller bookkeeping that alters single-channel behaviour — however
/// subtly — fails loudly instead of drifting silently.
///
/// The golden values were captured after the FR-FCFS bookkeeping fixes
/// (stable completion ordering, per-rank refresh scanning) and the
/// per-bank queue index landed, and are identical in debug and release
/// builds. They encode the post-fix single-channel behaviour that the
/// banked and linear scheduling policies both produce.
#[test]
fn single_channel_run_stats_are_pinned() {
    let result = SystemBuilder::new()
        .time_scale(TEST_TIME_SCALE)
        .defense(DefenseKind::BlockHammer)
        .rowhammer_threshold(32_768)
        .llc_capacity(1 << 20)
        .min_cycles(60_000)
        .max_cycles(1_500_000)
        .add_attacker()
        .add_workload(SyntheticSpec::high_intensity("victim.high", 0), 3_000)
        .run();
    assert_eq!(result.total_cycles, 60_000);
    assert_eq!(result.dram.totals().activates, 456);
    assert_eq!(result.ctrl.accepted_requests, 1_546);
    assert_eq!(result.ctrl.row_hits, 1_546);
    assert_eq!(result.ctrl.row_conflicts, 408);
    assert_eq!(result.ctrl.reads_completed, 1_546);
    assert_eq!(result.ctrl.writes_completed, 0);
    assert_eq!(result.ctrl.auto_refreshes, 2);
    assert_eq!(result.ctrl.activations_delayed_by_defense, 208);
    assert_eq!(result.threads[0].memory_requests, 1_488);
    assert_eq!(result.threads[1].instructions, 3_000);
    assert_eq!(result.threads[1].cycles, 7_617);
    assert_eq!(result.llc_hits, 14);
    assert_eq!(result.llc_misses, 58);
}
