//! Event-driven vs lockstep advance-loop throughput.
//!
//! Two workload points bracket the optimization:
//!
//! * **low-utilization** — one short low-intensity benign thread with a
//!   long `min_cycles` tail, the idle-heavy shape where skipping pays most
//!   (expected >=5x: once the thread finishes the run jumps from refresh
//!   to refresh);
//! * **saturated** — a double-sided attacker hammering alongside a
//!   high-intensity thread. BlockHammer vetoes the attacker's ACTs and the
//!   queues refuse its requests on cycle after cycle; event-driven
//!   stepping skips those repeated ticks and replays their counters, so
//!   this point is no longer a wash (`tests/tests/event_equivalence.rs`
//!   pins that it ticks at most half its cycles).
//!
//! Both modes are bit-identical in results (pinned by
//! `tests/tests/event_equivalence.rs`); only wall-clock differs. The
//! idle-skip counters of each point are printed once so the measured
//! speedup can be read against the fraction of cycles skipped.

use criterion::{criterion_group, criterion_main, Criterion};
use sim::{AdvanceMode, DefenseKind, RunResult, SystemBuilder};
use std::hint::black_box;
use workloads::SyntheticSpec;

fn low_utilization(advance: AdvanceMode) -> RunResult {
    SystemBuilder::new()
        .time_scale(8192)
        .max_cycles(3_000_000)
        .min_cycles(2_500_000)
        .llc_capacity(1 << 20)
        .seed(7)
        .defense(DefenseKind::BlockHammer)
        .advance_mode(advance)
        .add_workload(SyntheticSpec::low_intensity("l0", 0), 1_000)
        .run()
}

fn saturated(advance: AdvanceMode) -> RunResult {
    SystemBuilder::new()
        .time_scale(8192)
        .max_cycles(3_000_000)
        .min_cycles(20_000)
        .llc_capacity(1 << 20)
        .seed(7)
        .defense(DefenseKind::BlockHammer)
        .advance_mode(advance)
        .add_attacker()
        .add_workload(SyntheticSpec::high_intensity("h0", 0), 2_000)
        .run()
}

fn report_skips(label: &str, result: &RunResult) {
    let s = &result.stepping;
    println!(
        "{label}: {} cycles, {} ticked, {} skipped ({:.1}%), \
         {} event ticks, largest jump {}",
        result.total_cycles,
        s.cycles_simulated,
        s.cycles_skipped,
        100.0 * s.skip_ratio(),
        s.events_processed,
        s.largest_jump,
    );
}

fn bench_event_stepping(c: &mut Criterion) {
    report_skips(
        "low-utilization/event",
        &low_utilization(AdvanceMode::EventDriven),
    );
    report_skips("saturated/event", &saturated(AdvanceMode::EventDriven));
    let mut group = c.benchmark_group("event_stepping");
    group.sample_size(10);
    group.bench_function("low_utilization_lockstep", |b| {
        b.iter(|| black_box(low_utilization(AdvanceMode::Lockstep)))
    });
    group.bench_function("low_utilization_event_driven", |b| {
        b.iter(|| black_box(low_utilization(AdvanceMode::EventDriven)))
    });
    group.bench_function("saturated_lockstep", |b| {
        b.iter(|| black_box(saturated(AdvanceMode::Lockstep)))
    });
    group.bench_function("saturated_event_driven", |b| {
        b.iter(|| black_box(saturated(AdvanceMode::EventDriven)))
    });
    group.finish();
}

criterion_group!(benches, bench_event_stepping);
criterion_main!(benches);
