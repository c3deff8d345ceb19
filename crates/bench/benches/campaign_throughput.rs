//! Campaign-engine throughput: how many whole simulation runs per second
//! the sweep executor sustains, sequentially and fanned out over the
//! work-stealing pool (1 run/iteration here is a full expand →
//! execute → aggregate cycle, so the numbers track everything a real
//! campaign pays: the normalization prelude, run execution and
//! incremental aggregation). Divide 1e9 by the reported ns/iter and
//! multiply by the run count for runs/sec. The `longtail_*` pair runs a
//! skewed campaign sequentially and on two stealing workers, and prints
//! each worker's utilization.

use campaign::{
    execute, execute_resumable, CampaignReport, CampaignSpec, ExecutionOptions, RunSpec,
};
use criterion::{criterion_group, criterion_main, Criterion};
use sim::AdvanceMode;
use std::hint::black_box;
use std::path::PathBuf;

/// A small 8-run campaign (2 mixes x 2 scenarios x 2 defenses) with a
/// reduced instruction budget, shared by every variant so the comparison
/// isolates the execution strategy.
fn bench_campaign() -> CampaignSpec {
    let mut spec = CampaignSpec::smoke();
    spec.name = "bench".to_owned();
    spec.scale.benign_instructions = 500;
    spec.scale.min_cycles = 15_000;
    spec
}

fn run_campaign(workers: usize) -> usize {
    let spec = bench_campaign();
    let report = execute(&spec, spec.expand(), workers).expect("bench campaign runs");
    assert_eq!(report.outcomes.len(), spec.run_count());
    report.outcomes.len()
}

/// The same campaign with checkpoint journaling on — measures the cost
/// of the append-and-flush per delivered run on top of `sequential`.
fn run_journaled_campaign(journal: &PathBuf) -> usize {
    // Each iteration starts from a fresh journal: resuming would skip
    // the runs and measure nothing.
    let _ = std::fs::remove_file(journal);
    let spec = bench_campaign();
    let options = ExecutionOptions {
        journal: Some(journal.clone()),
        ..Default::default()
    };
    let report = execute_resumable(&spec, spec.expand(), 0, &options).expect("bench campaign runs");
    assert_eq!(report.outcomes.len(), spec.run_count());
    report.outcomes.len()
}

/// A long-tail campaign: run 0 is a saturated lockstep attack run (the
/// tail), every other run is idle-heavy and finishes quickly under
/// event-driven stepping. Work-stealing lets the other workers drain the
/// idle runs while one worker carries the tail. Normalization is off so
/// the measurement isolates dispatch, not the prelude.
fn skewed_campaign() -> (CampaignSpec, Vec<RunSpec>) {
    let mut spec = CampaignSpec::smoke();
    spec.name = "bench-longtail".to_owned();
    spec.normalize = false;
    let mut runs = spec.expand();
    for (i, run) in runs.iter_mut().enumerate() {
        if i == 0 {
            run.scale.advance = AdvanceMode::Lockstep;
            run.scale.benign_instructions = 2_000;
            run.scale.min_cycles = 60_000;
        } else {
            run.scale.benign_instructions = 100;
            run.scale.min_cycles = 20_000;
        }
    }
    (spec, runs)
}

fn run_skewed(workers: usize) -> CampaignReport {
    let (spec, runs) = skewed_campaign();
    let total = runs.len();
    let report = execute(&spec, runs, workers).expect("skewed campaign runs");
    assert_eq!(report.outcomes.len(), total);
    report
}

/// The long-tail cases: sequential and two stealing workers.
const LONGTAIL_MODES: [(&str, usize); 2] = [
    ("longtail_sequential_8_runs", 0),
    ("longtail_stealing_2w_8_runs", 2),
];

fn bench_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_throughput");
    group.sample_size(10);
    group.bench_function("sequential_8_runs", |b| {
        b.iter(|| black_box(run_campaign(0)))
    });
    for workers in [2usize, 4] {
        group.bench_function(format!("pooled_{workers}w_8_runs"), |b| {
            b.iter(|| black_box(run_campaign(workers)))
        });
    }
    let journal = std::env::temp_dir().join("bh-bench-campaign.journal");
    group.bench_function("journaled_sequential_8_runs", |b| {
        b.iter(|| black_box(run_journaled_campaign(&journal)))
    });
    let _ = std::fs::remove_file(&journal);
    for (label, workers) in LONGTAIL_MODES {
        group.bench_function(label, |b| {
            b.iter(|| black_box(run_skewed(workers).outcomes.len()))
        });
    }
    group.finish();
    // One decorated pass per long-tail case, outside the timed loops:
    // runs/sec plus per-worker utilization (busy time / campaign wall).
    for (label, workers) in LONGTAIL_MODES {
        let report = run_skewed(workers);
        let wall = report.wall.as_secs_f64().max(f64::MIN_POSITIVE);
        let utilization: Vec<String> = report
            .scheduling
            .workers
            .iter()
            .map(|w| format!("{:.0}%", 100.0 * (w.busy.as_secs_f64() / wall).min(1.0)))
            .collect();
        println!(
            "{label}: {:.2} runs/sec ({} scheduler, reorder high-water {}, utilization [{}])",
            report.runs_per_sec().unwrap_or(0.0),
            report.scheduling.scheduler,
            report.scheduling.reorder_high_water,
            utilization.join(", ")
        );
    }
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
