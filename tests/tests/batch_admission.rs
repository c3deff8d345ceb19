//! Equivalence of batched and per-request controller admission.
//!
//! `MemoryController::enqueue_batch` amortizes the enqueue-side work
//! (defense quota lookups, queue-space accounting) across a per-channel
//! batch, as the simulator's per-cycle fetch/writeback drains use it. It
//! must admit exactly the requests that retrying `enqueue` one request at
//! a time (stopping at the first rejection, like the pre-batch drain loop
//! did) would admit, assign the same ids, and count the same statistics —
//! under queue-full pressure and defense quotas alike. These tests drive
//! both admission styles through identical workloads and assert identical
//! completion streams and controller statistics.

use bh_types::{AccessType, Cycle, DramAddress, ReqId, ThreadId};
use memctrl::{CtrlStats, MemCtrlConfig, MemoryController};
use mitigations::{DefenseStats, MetadataFootprint, NoMitigation, RowHammerDefense};
use proptest::prelude::*;
use std::collections::VecDeque;

/// A defense that imposes a small fixed in-flight quota on every thread,
/// so `QuotaExceeded` rejections happen constantly.
#[derive(Debug)]
struct FixedQuota(u32);

impl RowHammerDefense for FixedQuota {
    fn name(&self) -> &'static str {
        "FixedQuota"
    }
    fn on_activation(
        &mut self,
        _now: Cycle,
        _thread: ThreadId,
        _addr: &DramAddress,
    ) -> Vec<DramAddress> {
        Vec::new()
    }
    fn inflight_quota(&self, _thread: ThreadId, _bank: usize) -> Option<u32> {
        Some(self.0)
    }
    fn metadata(&self) -> MetadataFootprint {
        MetadataFootprint::default()
    }
    fn stats(&self) -> DefenseStats {
        DefenseStats::default()
    }
}

/// One demand access of a generated workload.
struct Access {
    thread: usize,
    phys: u64,
    access: AccessType,
    arrival: Cycle,
}

/// Decodes random words into a dense multi-bank access stream (same
/// approach as the scheduler equivalence suite).
fn decode_accesses(words: &[u64]) -> Vec<Access> {
    let organization = MemCtrlConfig::default().organization;
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
                phys: organization.encode(&addr),
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

/// How pending requests are handed to the controller each cycle.
#[derive(Clone, Copy)]
enum AdmissionStyle {
    /// Retry the head of each queue with `enqueue` until the first error
    /// (the pre-batch drain loop).
    Singles,
    /// One `enqueue_batch` call per queue per cycle.
    Batched,
}

/// Runs `accesses` through a controller, queueing arrivals into per-kind
/// pending queues (like the simulator's per-channel fetch and writeback
/// queues) and draining them each cycle in the given style. Returns the
/// completion stream and final statistics.
fn run_workload(
    style: AdmissionStyle,
    accesses: &[Access],
    mut defense: Box<dyn RowHammerDefense>,
) -> (Vec<(ReqId, Cycle)>, CtrlStats) {
    let config = MemCtrlConfig {
        // Small queues make QueueFull rejections frequent.
        read_queue_capacity: 12,
        write_queue_capacity: 12,
        write_drain_high: 8,
        write_drain_low: 3,
        ..MemCtrlConfig::default()
    };
    let mut ctrl = MemoryController::new(config);
    let mut reads: VecDeque<(ThreadId, u64)> = VecDeque::new();
    let mut writes: VecDeque<(ThreadId, u64)> = VecDeque::new();
    let mut completions = Vec::new();
    let mut next = 0;
    let mut cycle: Cycle = 0;
    loop {
        while next < accesses.len() && accesses[next].arrival <= cycle {
            let access = &accesses[next];
            let entry = (ThreadId::new(access.thread), access.phys);
            match access.access {
                AccessType::Read => reads.push_back(entry),
                AccessType::Write => writes.push_back(entry),
            }
            next += 1;
        }
        for (queue, kind) in [
            (&mut reads, AccessType::Read),
            (&mut writes, AccessType::Write),
        ] {
            match style {
                AdmissionStyle::Singles => {
                    while let Some(&(thread, phys)) = queue.front() {
                        if ctrl
                            .enqueue(thread, phys, kind, cycle, defense.as_ref())
                            .is_ok()
                        {
                            queue.pop_front();
                        } else {
                            break;
                        }
                    }
                }
                AdmissionStyle::Batched => {
                    let outcome = ctrl.enqueue_batch(
                        queue.iter().map(|&(thread, phys)| (thread, phys, ())),
                        kind,
                        cycle,
                        defense.as_ref(),
                        |_, ()| {},
                    );
                    queue.drain(..outcome.accepted);
                }
            }
        }
        for done in ctrl.tick(cycle, defense.as_mut()) {
            completions.push((done.request.id, done.completed_at));
        }
        if next >= accesses.len() && reads.is_empty() && writes.is_empty() && ctrl.is_idle() {
            break;
        }
        cycle += 1;
        assert!(cycle < 50_000_000, "workload did not drain");
    }
    (completions, ctrl.stats().clone())
}

fn assert_styles_agree(accesses: &[Access], make_defense: impl Fn() -> Box<dyn RowHammerDefense>) {
    let (singles_done, singles_stats) =
        run_workload(AdmissionStyle::Singles, accesses, make_defense());
    let (batched_done, batched_stats) =
        run_workload(AdmissionStyle::Batched, accesses, make_defense());
    assert_eq!(
        singles_done, batched_done,
        "completion streams diverged between admission styles"
    );
    assert_eq!(
        singles_stats, batched_stats,
        "controller statistics diverged between admission styles"
    );
}

/// A dense mixed read/write stream with no defense: exercises the
/// queue-full path of both admission styles.
#[test]
fn admission_styles_agree_without_a_defense() {
    let words: Vec<u64> = (1..500u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31))
        .collect();
    let accesses = decode_accesses(&words);
    assert!(accesses.iter().any(|a| a.access == AccessType::Write));
    assert_styles_agree(&accesses, || Box::new(NoMitigation::new()));
}

/// The same stream under a tight in-flight quota: exercises the
/// quota-rejection path (and its statistics) of both styles.
#[test]
fn admission_styles_agree_under_a_tight_quota() {
    let words: Vec<u64> = (1..500u64)
        .map(|i| i.wrapping_mul(0xD134_2543_DE82_EF95).rotate_left(7))
        .collect();
    let accesses = decode_accesses(&words);
    let (_, stats) = run_workload(AdmissionStyle::Singles, &accesses, Box::new(FixedQuota(2)));
    assert!(
        stats.rejected_quota > 0,
        "the scenario must actually exercise quota rejections"
    );
    assert_styles_agree(&accesses, || Box::new(FixedQuota(2)));
}

proptest! {
    /// Random workloads drain identically whether requests are admitted
    /// one at a time or per-cycle batches, with quota pressure in the
    /// loop.
    #[test]
    fn admission_styles_agree_on_random_workloads(
        words in proptest::collection::vec(0u64..u64::MAX, 1..80),
        quota in 1u32..6,
    ) {
        let accesses = decode_accesses(&words);
        let (singles_done, singles_stats) = run_workload(
            AdmissionStyle::Singles,
            &accesses,
            Box::new(FixedQuota(quota)),
        );
        let (batched_done, batched_stats) = run_workload(
            AdmissionStyle::Batched,
            &accesses,
            Box::new(FixedQuota(quota)),
        );
        prop_assert_eq!(singles_done, batched_done);
        prop_assert_eq!(singles_stats, batched_stats);
    }
}
