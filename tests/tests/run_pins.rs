//! Whole-run output pins: the full `RunResult` of one quick attack mix,
//! for every defense kind on one and two channels, must keep the digest
//! recorded when these pins were written.
//!
//! `event_equivalence` compares the two advance modes with each other, so
//! it cannot see a change that both modes share (the controller's pass
//! memo, the scheduler's open-row index), and `scheduler_equivalence`'s
//! linear-scan oracle covers only the scheduling passes. These pins catch
//! any drift of the modelled system itself. A change that means to alter
//! the model updates the table and says why.

use integration_tests::all_defenses;
use memctrl::CtrlStats;
use sim::{AdvanceMode, DefenseKind, RunResult, SteppingStats, SystemBuilder};
use std::collections::BTreeMap;
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
/// stepping counters masked and the hash-map-backed controller
/// statistics moved out and printed in key order.
fn digest(mut result: RunResult) -> u64 {
    result.stepping = SteppingStats::default();
    let mut text = String::new();
    let mut sorted = |ctrl: &mut CtrlStats| {
        let reads: BTreeMap<_, _> = ctrl.reads_per_thread.drain().collect();
        let latency: BTreeMap<_, _> = ctrl.read_latency_per_thread.drain().collect();
        text.push_str(&format!("{reads:?}{latency:?}"));
    };
    sorted(&mut result.ctrl);
    for channel in &mut result.per_channel {
        sorted(&mut channel.ctrl);
    }
    text.push_str(&format!("{result:?}"));
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(defense label, channels, total cycles, digest)`, in `all_defenses`
/// order, one channel before two.
const PINS: [(&str, usize, u64, u64); 18] = [
    ("Baseline", 1, 20000, 2972279336729366183),
    ("Baseline", 2, 20000, 1491286638833493700),
    ("PARA", 1, 20000, 3922756428976621206),
    ("PARA", 2, 20000, 16850902245091174392),
    ("PRoHIT", 1, 20000, 8122676950655309295),
    ("PRoHIT", 2, 20000, 16858095676218428241),
    ("MRLoc", 1, 30959, 17688854575700906786),
    ("MRLoc", 2, 20000, 17371351147271475651),
    ("CBT", 1, 20000, 7925157199677394326),
    ("CBT", 2, 20000, 7922122986018014198),
    ("TWiCe", 1, 20000, 3429094488779616591),
    ("TWiCe", 2, 20000, 15248832579039189769),
    ("Graphene", 1, 20000, 7216611441507769339),
    ("Graphene", 2, 20000, 12765346882767112484),
    ("BlockHammer", 1, 20000, 4654731635611912987),
    ("BlockHammer", 2, 20000, 351444660691416773),
    ("BlockHammer(observe)", 1, 20000, 9202137997735904837),
    ("BlockHammer(observe)", 2, 20000, 11515570769225565813),
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
