//! End-to-end simulation throughput: one quick single-core run and one
//! quick attack run (to track the cost of regenerating the paper's
//! figures), plus multiprogrammed runs across 1/2/4 memory channels, so
//! simulator throughput versus channel count is measured directly.

use criterion::{criterion_group, criterion_main, Criterion};
use sim::{DefenseKind, SystemBuilder};
use std::hint::black_box;
use workloads::SyntheticSpec;

fn single_core_run() -> f64 {
    SystemBuilder::new()
        .time_scale(8192)
        .defense(DefenseKind::BlockHammer)
        .llc_capacity(1 << 20)
        .add_workload(SyntheticSpec::high_intensity("bench.h", 0), 3_000)
        .run()
        .threads[0]
        .ipc
}

fn attack_run() -> f64 {
    SystemBuilder::new()
        .time_scale(8192)
        .defense(DefenseKind::BlockHammer)
        .llc_capacity(1 << 20)
        .min_cycles(50_000)
        .add_attacker()
        .add_workload(SyntheticSpec::high_intensity("bench.victim", 0), 3_000)
        .run()
        .threads[1]
        .ipc
}

/// A two-thread multiprogrammed run on `channels` channels.
fn multi_channel_run(channels: usize) -> u64 {
    SystemBuilder::new()
        .time_scale(8192)
        .channels(channels)
        .defense(DefenseKind::BlockHammer)
        .llc_capacity(1 << 20)
        .add_workload(SyntheticSpec::high_intensity("bench.h", 0), 2_000)
        .add_workload(SyntheticSpec::medium_intensity("bench.m", 1), 2_000)
        .run()
        .total_cycles
}

fn bench_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_simulation");
    group.sample_size(10);
    group.bench_function("single_core_blockhammer_3k_insts", |b| {
        b.iter(|| black_box(single_core_run()))
    });
    group.bench_function("attack_vs_victim_blockhammer", |b| {
        b.iter(|| black_box(attack_run()))
    });
    group.finish();

    let mut group = c.benchmark_group("throughput_vs_channels");
    group.sample_size(10);
    for channels in [1usize, 2, 4] {
        group.bench_function(format!("sequential_{channels}ch"), |b| {
            b.iter(|| black_box(multi_channel_run(channels)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
