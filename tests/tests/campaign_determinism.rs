//! Campaign determinism pins: the same `CampaignSpec` + seed produces
//! identical run lists and identical aggregated output under sequential
//! and pooled execution, across worker counts, and whether runs execute
//! from generators or from recorded trace files.
//!
//! The heart of the suite is byte-identity: sequential and work-stealing
//! execution must emit the same `campaign.csv`,
//! `campaign.json`, checkpoint-journal bytes and NDJSON record lines —
//! including under random failure policies and injected panics
//! (`schedulers_agree_under_random_specs_policies_and_panics`).

use campaign::checkpoint::{parse_journal, resume_or_create};
use campaign::faults::{arm, disarm, FaultPlan};
use campaign::{
    execute, execute_observed, fingerprint, record_run_traces, wire, CampaignSpec,
    ExecutionOptions, FailurePolicy, TraceFormat,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Fault plans are armed process-wide, so every test in this binary that
/// executes campaigns serializes on this lock — otherwise a concurrent
/// test could absorb another test's injected panic.
static FAULTS: Mutex<()> = Mutex::new(());

fn fault_serial() -> MutexGuard<'static, ()> {
    FAULTS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A campaign small enough for the test suite but still covering both
/// scenarios, two defenses and every aggregation path.
fn tiny_campaign() -> CampaignSpec {
    // The CI smoke shape: 2 mixes x 2 scenarios x 2 defenses, four
    // threads per mix, 2000 instructions. Small enough for the test
    // suite, large enough that benign threads overlap the phase where
    // BlockHammer's blacklisting is active (shorter budgets finish
    // before the defense engages and the comparison is vacuous).
    let mut campaign = CampaignSpec::smoke();
    campaign.name = "determinism".to_owned();
    campaign
}

/// A much smaller campaign for the property test, which executes two
/// whole campaigns per sampled case. With two thresholds (effective 64
/// and 16 at quick scale) the second point's Baseline runs are copies of
/// the first's.
fn micro_campaign(scenarios: usize, defenses: usize, thresholds: usize) -> CampaignSpec {
    let mut campaign = CampaignSpec::smoke();
    campaign.name = "determinism-micro".to_owned();
    campaign.mix_count = 1;
    campaign.threads_per_mix = 2;
    campaign.scenarios.truncate(scenarios.max(1));
    campaign.defenses.truncate(defenses.max(1));
    campaign.n_rh_points = vec![524_288, 131_072];
    campaign.n_rh_points.truncate(thresholds.max(1));
    campaign.scale.benign_instructions = 300;
    campaign.scale.min_cycles = 10_000;
    campaign
}

fn scratch_dir(label: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(label)
}

/// Everything one journaled execution leaves behind, for byte-comparison
/// across worker counts.
#[derive(Debug, PartialEq)]
struct ModeArtifacts {
    csv: String,
    json: String,
    journal: Vec<u8>,
    ndjson: Vec<String>,
    error: Option<String>,
}

/// Runs `spec` with a journal under `label`'s scratch dir and captures
/// every comparable artifact. Campaign-level errors (e.g. a
/// `FailurePolicy::Abort` hitting an injected panic) are captured as
/// data: the journaled prefix and streamed lines must still match.
fn run_mode(
    spec: &CampaignSpec,
    workers: usize,
    policy: FailurePolicy,
    label: &str,
) -> ModeArtifacts {
    let dir = scratch_dir(label);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let journal = dir.join("campaign.journal");
    let options = ExecutionOptions {
        policy,
        journal: Some(journal.clone()),
    };
    let mut ndjson = Vec::new();
    let result = execute_observed(spec, spec.expand(), workers, &options, &mut |entry, _| {
        ndjson.push(wire::entry_to_ndjson(entry))
    });
    let journal_bytes = std::fs::read(&journal).expect("journal exists");
    match result {
        Ok(report) => ModeArtifacts {
            csv: report.summary.to_csv(),
            json: report.summary.to_json(),
            journal: journal_bytes,
            ndjson,
            error: None,
        },
        Err(error) => ModeArtifacts {
            csv: String::new(),
            json: String::new(),
            journal: journal_bytes,
            ndjson,
            error: Some(error.to_string()),
        },
    }
}

#[test]
fn expansion_is_reproducible() {
    let campaign = tiny_campaign();
    assert_eq!(campaign.expand(), campaign.expand());
    assert_eq!(campaign.expand().len(), campaign.run_count());
}

#[test]
fn worker_counts_emit_byte_identical_output() {
    let _serial = fault_serial();
    // One- and two-channel sweep points: a worker steps a multi-channel
    // run's shards exactly as the calling thread does.
    let mut campaign = tiny_campaign();
    campaign.channel_counts = vec![1, 2];
    let sequential = execute(&campaign, campaign.expand(), 0).expect("sequential runs");
    let csv = sequential.summary.to_csv();
    let json = sequential.summary.to_json();
    assert_eq!(sequential.scheduling.scheduler, "sequential");
    for workers in [1, 2, 4] {
        let pooled = execute(&campaign, campaign.expand(), workers).expect("pooled runs");
        // Outcomes stream back in run order regardless of completion
        // order...
        assert_eq!(
            pooled.outcomes, sequential.outcomes,
            "{workers}-worker outcomes diverged"
        );
        // ...so the aggregate — and its serialized forms — are
        // byte-identical.
        assert_eq!(pooled.summary, sequential.summary);
        assert_eq!(
            pooled.summary.to_csv(),
            csv,
            "{workers}-worker CSV diverged"
        );
        assert_eq!(
            pooled.summary.to_json(),
            json,
            "{workers}-worker JSON diverged"
        );
    }
}

#[test]
fn scheduler_modes_emit_byte_identical_artifacts_and_journals() {
    let _serial = fault_serial();
    let campaign = tiny_campaign();
    let reference = run_mode(&campaign, 0, FailurePolicy::Quarantine, "sched-sequential");
    assert!(reference.error.is_none());
    for (workers, label) in [(2, "sched-stealing-2"), (4, "sched-stealing-4")] {
        let mode = run_mode(&campaign, workers, FailurePolicy::Quarantine, label);
        assert_eq!(mode, reference, "{label} diverged from sequential");
    }
}

#[test]
fn stealing_stats_account_for_every_run() {
    let _serial = fault_serial();
    let campaign = tiny_campaign();
    let options = ExecutionOptions::default();
    let report = execute_observed(&campaign, campaign.expand(), 2, &options, &mut |_, _| {})
        .expect("stealing runs");
    let stats = &report.scheduling;
    assert_eq!(stats.scheduler, "stealing");
    assert_eq!(stats.workers.len(), 2);
    let jobs: u64 = stats.workers.iter().map(|w| w.jobs).sum();
    assert_eq!(stats.shared_runs, 0, "the smoke shape repeats no run");
    assert_eq!(jobs as usize, campaign.run_count(), "every run is tallied");
    // The reorder buffer admits each completion before releasing it, so
    // even perfectly in-order completion peaks at 1.
    assert!(stats.reorder_high_water >= 1);
    assert!(stats.reorder_high_water <= campaign.run_count());
    // No journal was configured, so no prelude cache: every reference
    // was computed by this invocation.
    assert!(stats.prelude.references > 0);
    assert_eq!(stats.prelude.computed, stats.prelude.references);
    assert_eq!(stats.prelude.from_cache, 0);
}

#[test]
fn prelude_cache_is_reused_exactly_when_present() {
    let _serial = fault_serial();
    let campaign = tiny_campaign();
    let dir = scratch_dir("prelude-cache");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let journal = dir.join("campaign.journal");
    let options = ExecutionOptions {
        journal: Some(journal.clone()),
        ..ExecutionOptions::default()
    };
    let run = || execute_observed(&campaign, campaign.expand(), 2, &options, &mut |_, _| {});
    let scan = |bytes: &[u8]| {
        parse_journal(bytes, fingerprint(&campaign), campaign.run_count() as u64)
            .expect("the journal parses")
    };

    // Cold: every reference simulated, and the table journaled as the
    // first record of the campaign's one durable file.
    let cold = run().expect("campaign runs");
    let references = cold.scheduling.prelude.references;
    assert!(references > 0);
    assert_eq!(cold.scheduling.prelude.computed, references);
    assert_eq!(cold.scheduling.prelude.from_cache, 0);
    let cold_bytes = std::fs::read(&journal).expect("read journal");
    let table = scan(&cold_bytes).prelude.expect("the table is journaled");
    assert_eq!(table.len(), references);
    let files: Vec<_> = std::fs::read_dir(&dir).expect("list dir").collect();
    assert_eq!(files.len(), 1, "the journal is the only file written");

    // A campaign aborted at its first run leaves the header and the
    // table alone in the journal.
    std::fs::remove_file(&journal).expect("delete journal");
    arm(FaultPlan {
        panic_on_run: Some((0, u32::MAX)),
        ..FaultPlan::default()
    });
    let aborted = run();
    disarm();
    assert!(aborted.is_err(), "the injected panic aborts the campaign");
    let prelude_only = std::fs::read(&journal).expect("read journal");
    let prelude_scan = scan(&prelude_only);
    assert!(prelude_scan.entries.is_empty());
    assert_eq!(prelude_scan.prelude.as_ref(), Some(&table));

    // Warm: every run re-executes, the whole prelude is read back.
    let warm = run().expect("campaign resumes");
    assert_eq!(warm.replayed, 0);
    assert_eq!(warm.scheduling.prelude.from_cache, references);
    assert_eq!(warm.scheduling.prelude.computed, 0);
    assert_eq!(std::fs::read(&journal).expect("read journal"), cold_bytes);

    // A torn table is dropped: the prelude is recomputed and journaled
    // again.
    std::fs::write(&journal, &prelude_only[..prelude_only.len() - 1]).expect("tear the table");
    let recomputed = run().expect("campaign resumes");
    assert_eq!(recomputed.scheduling.prelude.computed, references);
    assert_eq!(recomputed.scheduling.prelude.from_cache, 0);
    assert_eq!(std::fs::read(&journal).expect("read journal"), cold_bytes);

    // A journal written without a table (the header, then two run
    // records) recomputes the prelude and stays without one.
    std::fs::remove_file(&journal).expect("delete journal");
    let mut tableless = resume_or_create(
        &journal,
        fingerprint(&campaign),
        campaign.run_count() as u64,
    )
    .expect("create a tableless journal");
    for entry in &scan(&cold_bytes).entries[..2] {
        tableless.writer.append(entry).expect("append a run record");
    }
    drop(tableless);
    let older = run().expect("campaign resumes");
    assert_eq!(older.replayed, 2);
    assert_eq!(older.scheduling.prelude.computed, references);
    assert_eq!(older.scheduling.prelude.from_cache, 0);
    assert_eq!(
        scan(&std::fs::read(&journal).expect("read journal")).prelude,
        None
    );

    // Journal state must never change results.
    for report in [&warm, &recomputed, &older] {
        assert_eq!(report.summary.to_csv(), cold.summary.to_csv());
        assert_eq!(report.summary.to_json(), cold.summary.to_json());
    }
}

#[test]
fn trace_replay_matches_generator_execution() {
    let _serial = fault_serial();
    let campaign = tiny_campaign();
    let generated = execute(&campaign, campaign.expand(), 0).expect("generator runs");
    for format in [TraceFormat::Binary, TraceFormat::Text] {
        let dir = scratch_dir(&format!("campaign-traces-{format}"));
        // Start from a clean slate: stale files from older test versions
        // must not be mistaken for this campaign's traces.
        let _ = std::fs::remove_dir_all(&dir);
        let replayable: Vec<_> = campaign
            .expand()
            .iter()
            .map(|run| record_run_traces(run, &dir, format).expect("recording succeeds"))
            .collect();
        assert!(
            replayable
                .iter()
                .flat_map(|r| r.threads.iter())
                .all(|t| t.trace.is_some()),
            "every thread replays from a file"
        );
        let replayed = execute(&campaign, replayable, 2).expect("replayed runs");
        // Same runs, same outcomes, same bytes — from disk, pooled.
        assert_eq!(replayed.outcomes, generated.outcomes, "{format} diverged");
        assert_eq!(replayed.summary.to_csv(), generated.summary.to_csv());
    }
}

#[test]
fn attack_sweep_points_reflect_the_defense() {
    let _serial = fault_serial();
    // Sanity on the aggregate itself: in the attack scenario BlockHammer
    // must beat the baseline's benign throughput and report attacker
    // RHLI, with benign RHLI at zero.
    let campaign = tiny_campaign();
    let report = execute(&campaign, campaign.expand(), 2).expect("campaign runs");
    let point = |defense: &str, scenario: &str| {
        report
            .summary
            .points
            .iter()
            .find(|p| p.key.defense == defense && p.key.scenario == scenario)
            .unwrap_or_else(|| panic!("missing sweep point {defense}/{scenario}"))
    };
    let baseline = point("Baseline", "attack");
    let blockhammer = point("BlockHammer", "attack");
    assert!(
        blockhammer.mean_benign_ipc > baseline.mean_benign_ipc,
        "BlockHammer must speed up attacked benign threads \
         (baseline {:.4}, BlockHammer {:.4})",
        baseline.mean_benign_ipc,
        blockhammer.mean_benign_ipc
    );
    assert!(blockhammer.max_attacker_rhli > 0.0);
    assert_eq!(blockhammer.max_benign_rhli, 0.0);
    let normalized = blockhammer.normalized.expect("normalized metrics");
    assert!(normalized.weighted_speedup > 1.0);
}

proptest! {
    /// Work-stealing execution is byte-identical to sequential under
    /// random campaign shapes, failure policies, worker counts and
    /// injected panics — including `Abort`'s error and journaled prefix,
    /// which depend on the reorder buffer applying the policy at
    /// release time, and panics at a copy or its primary.
    #[test]
    fn schedulers_agree_under_random_specs_policies_and_panics(
        scenarios in 1u64..3,
        defenses in 1u64..3,
        thresholds in 1u64..3,
        policy_pick in 0u64..3,
        panic_pick in 0u64..3,
        panic_at in 0u64..8,
        workers_pick in 0u64..2,
    ) {
        let _serial = fault_serial();
        let campaign =
            micro_campaign(scenarios as usize, defenses as usize, thresholds as usize);
        let total = campaign.run_count();
        let policy = match policy_pick {
            0 => FailurePolicy::Quarantine,
            1 => FailurePolicy::Retry { max_attempts: 2 },
            _ => FailurePolicy::Abort,
        };
        // Pick 0 injects nothing; 1 panics run `panic_at` transiently
        // (one attempt — a retry succeeds) and 2 permanently. Indices
        // reach every run of the largest shape, copies included.
        let plan = match panic_pick {
            0 => FaultPlan::default(),
            pick => FaultPlan {
                panic_on_run: Some((
                    panic_at as usize % total,
                    if pick == 1 { 1 } else { u32::MAX },
                )),
                ..FaultPlan::default()
            },
        };
        let workers = [2usize, 4][workers_pick as usize];

        arm(plan.clone());
        let sequential = run_mode(&campaign, 0, policy, "prop-sequential");
        // Re-arm to reset the injection counters for the second pass.
        arm(plan);
        let stealing = run_mode(&campaign, workers, policy, "prop-stealing");
        disarm();
        prop_assert_eq!(stealing, sequential);
    }
}
