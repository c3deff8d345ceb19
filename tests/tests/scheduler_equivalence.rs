//! Equivalence of the two FR-FCFS scheduling implementations.
//!
//! The memory controller can scan its demand queues either linearly
//! (`SchedulerPolicy::LinearScan`, the reference implementation) or via
//! per-bank indexed queues (`SchedulerPolicy::BankedIndex`, the fast
//! default). The two must make identical decisions cycle for cycle, so
//! these tests drive both through the same mixed read/write multi-bank
//! workloads — including stateful defenses whose behaviour depends on the
//! exact order they are consulted in — and assert identical completion
//! streams and controller statistics.

use bh_types::{AccessType, Cycle, DramAddress, ReqId, ThreadId};
use memctrl::{CtrlStats, MemCtrlConfig, MemoryController, SchedulerPolicy};
use mitigations::{
    DefenseGeometry, DefenseStats, MetadataFootprint, NoMitigation, Para, RowHammerDefense,
    RowHammerThreshold,
};
use proptest::prelude::*;

/// One demand access of a generated workload.
struct Access {
    thread: usize,
    phys: u64,
    access: AccessType,
    arrival: Cycle,
}

/// A defense whose veto decisions depend on *how many times* it has been
/// consulted: it vetoes every third `is_activation_safe` call. Any
/// difference in the order or number of defense consultations between two
/// controller implementations snowballs into divergent schedules, so
/// agreement under this defense pins the consultation sequence itself.
///
/// Answering by call count breaks the `next_event` contract on purpose: a
/// memoized failed pass is not re-asked until its retry cycle, so this
/// defense's schedule is not the one it would get if asked every cycle.
/// It still pins the consultation order, because both scheduling policies
/// share the controller's pass memo.
#[derive(Debug, Default)]
struct CountedVeto {
    calls: u64,
}

impl RowHammerDefense for CountedVeto {
    fn name(&self) -> &'static str {
        "CountedVeto"
    }
    fn is_activation_safe(&mut self, _now: Cycle, _thread: ThreadId, _addr: &DramAddress) -> bool {
        self.calls += 1;
        self.calls % 3 != 0
    }
    fn on_activation(
        &mut self,
        _now: Cycle,
        _thread: ThreadId,
        _addr: &DramAddress,
    ) -> Vec<DramAddress> {
        Vec::new()
    }
    fn metadata(&self) -> MetadataFootprint {
        MetadataFootprint::default()
    }
    fn stats(&self) -> DefenseStats {
        DefenseStats::default()
    }
}

/// Decodes one random word into an access; rows and columns are kept in a
/// small range so workloads mix row hits, misses and conflicts densely
/// across several banks.
fn decode_accesses(words: &[u64]) -> Vec<Access> {
    let config = MemCtrlConfig::default();
    let geometry = config.organization.geometry();
    let mapping = config.mapping;
    let mut arrival: Cycle = 0;
    words
        .iter()
        .map(|&word| {
            let thread = (word & 7) as usize;
            let bank_group = ((word >> 3) & 3) as usize;
            let bank = ((word >> 5) & 3) as usize;
            let row = (word >> 7) & 31;
            let column = (word >> 12) & 127;
            let is_write = (word >> 19) & 3 == 0;
            arrival += (word >> 21) & 7;
            let addr = DramAddress::new(0, 0, bank_group, bank, row, column);
            Access {
                thread,
                phys: mapping.encode(&geometry, &addr),
                access: if is_write {
                    AccessType::Write
                } else {
                    AccessType::Read
                },
                arrival,
            }
        })
        .collect()
}

/// Runs `accesses` through a controller with the given policy and defense,
/// retrying rejected enqueues each cycle, until the controller drains.
/// Returns the completion stream (request id, completion cycle) in report
/// order plus the final controller statistics.
fn run_workload(
    policy: SchedulerPolicy,
    accesses: &[Access],
    mut defense: Box<dyn RowHammerDefense>,
) -> (Vec<(ReqId, Cycle)>, CtrlStats) {
    let config = MemCtrlConfig {
        scheduler: policy,
        ..MemCtrlConfig::default()
    };
    let mut ctrl = MemoryController::new(config);
    let mut completions = Vec::new();
    let mut next = 0;
    let mut cycle: Cycle = 0;
    while next < accesses.len() || !ctrl.is_idle() {
        while next < accesses.len() && accesses[next].arrival <= cycle {
            let access = &accesses[next];
            let accepted = ctrl
                .enqueue(
                    ThreadId::new(access.thread),
                    access.phys,
                    access.access,
                    cycle,
                    defense.as_ref(),
                )
                .is_ok();
            if accepted {
                next += 1;
            } else {
                break;
            }
        }
        for done in ctrl.tick(cycle, defense.as_mut()) {
            completions.push((done.request.id, done.completed_at));
        }
        cycle += 1;
        assert!(cycle < 50_000_000, "workload did not drain");
    }
    (completions, ctrl.stats().clone())
}

fn assert_policies_agree(
    accesses: &[Access],
    make_defense: impl Fn() -> Box<dyn RowHammerDefense>,
) {
    let (linear_done, linear_stats) =
        run_workload(SchedulerPolicy::LinearScan, accesses, make_defense());
    let (banked_done, banked_stats) =
        run_workload(SchedulerPolicy::BankedIndex, accesses, make_defense());
    assert_eq!(
        linear_done, banked_done,
        "completion streams diverged between scheduling policies"
    );
    assert_eq!(
        linear_stats, banked_stats,
        "controller statistics diverged between scheduling policies"
    );
}

/// A long deterministic mixed workload under a reactive defense (PARA
/// injects victim-refresh traffic, exercising the victim queue alongside
/// the demand queues).
#[test]
fn policies_agree_on_a_dense_mix_with_victim_refreshes() {
    // A fixed multiplicative generator; the constants are arbitrary.
    let words: Vec<u64> = (1..400u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
        .collect();
    let accesses = decode_accesses(&words);
    assert!(accesses.iter().any(|a| a.access == AccessType::Write));
    assert_policies_agree(&accesses, || {
        Box::new(Para::new(
            RowHammerThreshold::new(64),
            5e-2,
            DefenseGeometry::default(),
            7,
        ))
    });
}

/// The same dense mix under no defense at all (pure FR-FCFS ordering).
#[test]
fn policies_agree_on_a_dense_mix_without_defense() {
    let words: Vec<u64> = (1..400u64)
        .map(|i| i.wrapping_mul(0xD134_2543_DE82_EF95).rotate_left(29))
        .collect();
    let accesses = decode_accesses(&words);
    assert_policies_agree(&accesses, || Box::new(NoMitigation::new()));
}

proptest! {
    /// Random mixed read/write multi-bank workloads complete identically
    /// under both scheduling policies, with a consultation-order-sensitive
    /// throttling defense in the loop.
    #[test]
    fn policies_agree_on_random_workloads(words in proptest::collection::vec(0u64..u64::MAX, 1..100)) {
        let accesses = decode_accesses(&words);
        let (linear_done, linear_stats) = run_workload(
            SchedulerPolicy::LinearScan,
            &accesses,
            Box::new(CountedVeto::default()),
        );
        let (banked_done, banked_stats) = run_workload(
            SchedulerPolicy::BankedIndex,
            &accesses,
            Box::new(CountedVeto::default()),
        );
        prop_assert_eq!(linear_done, banked_done);
        prop_assert_eq!(linear_stats, banked_stats);
    }
}
