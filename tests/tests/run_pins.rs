//! Whole-run output pins: the full `RunResult` of one quick attack mix,
//! for every defense kind on one and two channels, must keep the digest
//! recorded when these pins were written.
//!
//! `event_equivalence` compares the two advance modes with each other, so
//! it cannot see a change that both modes share (the controller's pass
//! memo, the scheduler's open-row index), and the flat-scan oracle in the
//! unit tests of `memctrl`'s `scheduler` module covers only the
//! scheduling passes. These pins catch any drift of the modelled system
//! itself. A change that means to alter
//! the model updates the table and says why.

use integration_tests::all_defenses;
use sim::{AdvanceMode, DefenseKind, RunResult, SteppingStats, SystemBuilder};
use workloads::SyntheticSpec;

/// The quick attack mix of `event_equivalence`, stepped event-driven.
fn run(defense: DefenseKind, channels: usize) -> RunResult {
    SystemBuilder::new()
        .time_scale(8192)
        .max_cycles(3_000_000)
        .min_cycles(20_000)
        .llc_capacity(1 << 20)
        .seed(7)
        .channels(channels)
        .defense(defense)
        .advance_mode(AdvanceMode::EventDriven)
        .add_attacker()
        .add_workload(SyntheticSpec::high_intensity("h0", 0), 1_500)
        .add_workload(SyntheticSpec::low_intensity("l1", 1), 1_500)
        .run()
}

/// FNV-1a over the canonical text of a run: its `Debug` form with the
/// stepping counters masked.
fn digest(mut result: RunResult) -> u64 {
    result.stepping = SteppingStats::default();
    format!("{result:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// `(defense label, channels, total cycles, digest)`, in `all_defenses`
/// order, one channel before two.
const PINS: [(&str, usize, u64, u64); 18] = [
    ("Baseline", 1, 20000, 10531487281798201375),
    ("Baseline", 2, 20000, 7868615933634541551),
    ("PARA", 1, 20000, 15534248134895178646),
    ("PARA", 2, 20000, 2793472703464353101),
    ("PRoHIT", 1, 20000, 8715168636391876699),
    ("PRoHIT", 2, 20000, 15518404812073115090),
    ("MRLoc", 1, 30959, 8568559763894088686),
    ("MRLoc", 2, 24904, 4275157553293997974),
    ("CBT", 1, 20000, 515527459071564836),
    ("CBT", 2, 20000, 2594551814581490940),
    ("TWiCe", 1, 20000, 10800903544495112111),
    ("TWiCe", 2, 20000, 10227141112160561146),
    ("Graphene", 1, 20000, 15412750998218480055),
    ("Graphene", 2, 20000, 17950191297350244856),
    ("BlockHammer", 1, 20000, 11879051069318266781),
    ("BlockHammer", 2, 20000, 7882795243984839309),
    ("BlockHammer(observe)", 1, 20000, 11837593530631069775),
    ("BlockHammer(observe)", 2, 20000, 15862973268356422830),
];

#[test]
fn every_defense_and_channel_count_keeps_its_pinned_run() {
    let mut actual = Vec::new();
    for defense in all_defenses() {
        for channels in [1usize, 2] {
            let result = run(defense, channels);
            actual.push((
                result.defense.clone(),
                channels,
                result.total_cycles,
                digest(result),
            ));
        }
    }
    let table: Vec<String> = actual
        .iter()
        .map(|(name, channels, cycles, digest)| {
            format!("(\"{name}\", {channels}, {cycles}, {digest}),")
        })
        .collect();
    let expected: Vec<(String, usize, u64, u64)> = PINS
        .iter()
        .map(|&(name, channels, cycles, digest)| (name.to_owned(), channels, cycles, digest))
        .collect();
    assert_eq!(
        actual,
        expected,
        "runs drifted; actual table:\n{}",
        table.join("\n")
    );
}
