//! Fault-tolerance pins: deterministic injected faults (panicking runs,
//! trace I/O errors) exercise every `FailurePolicy`, and the checkpoint
//! journal resumes an aborted campaign to byte-identical output.
//!
//! The fault injector is process-global (`campaign::faults`), so every
//! test here serializes on [`FAULTS`] and disarms before returning.

use campaign::faults::{arm, disarm, FaultPlan};
use campaign::{
    execute_resumable, fingerprint, record_run_traces, CampaignError, CampaignReport, CampaignSpec,
    ExecutionOptions, FailurePolicy, JournalError, TraceFormat,
};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that arm the process-global fault plan.
static FAULTS: Mutex<()> = Mutex::new(());

fn faults_lock() -> MutexGuard<'static, ()> {
    // A panicking test must not wedge the rest of the suite.
    FAULTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A 4-run campaign (1 mix x 2 scenarios x 2 defenses) small enough to
/// execute many times per test.
fn tiny_campaign() -> CampaignSpec {
    let mut campaign = CampaignSpec::smoke();
    campaign.name = "fault-tolerance".to_owned();
    campaign.mix_count = 1;
    campaign.threads_per_mix = 2;
    campaign.scale.benign_instructions = 400;
    campaign.scale.min_cycles = 20_000;
    campaign
}

/// [`tiny_campaign`] at two thresholds that scale to different effective
/// thresholds (64 and 16 at quick scale): Baseline takes none, so runs 4
/// and 5 (Baseline at the second point) are copies of runs 0 and 1, while
/// BlockHammer is simulated at both points.
fn sharing_campaign() -> CampaignSpec {
    let mut campaign = tiny_campaign();
    campaign.name = "fault-tolerance-shared".to_owned();
    campaign.n_rh_points = vec![524_288, 131_072];
    campaign
}

fn scratch(label: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(label);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn options(policy: FailurePolicy) -> ExecutionOptions {
    ExecutionOptions {
        policy,
        journal: None,
    }
}

/// Runs the campaign with no faults armed — the reference output.
fn clean_reference(campaign: &CampaignSpec) -> CampaignReport {
    disarm();
    execute_resumable(
        campaign,
        campaign.expand(),
        0,
        &options(FailurePolicy::Abort),
    )
    .expect("clean campaign runs")
}

#[test]
fn an_injected_panic_aborts_by_default_with_the_run_identity() {
    let _guard = faults_lock();
    let campaign = tiny_campaign();
    arm(FaultPlan {
        panic_on_run: Some((2, u32::MAX)),
        ..Default::default()
    });
    let result = execute_resumable(
        &campaign,
        campaign.expand(),
        0,
        &options(FailurePolicy::Abort),
    );
    disarm();
    match result {
        Err(CampaignError::RunFailed { index, cause, .. }) => {
            assert_eq!(index, 2);
            assert!(cause.contains("injected fault"), "got: {cause}");
        }
        other => panic!("expected RunFailed, got {other:?}"),
    }
}

#[test]
fn quarantine_completes_and_marks_the_point_degraded() {
    let _guard = faults_lock();
    let campaign = tiny_campaign();
    let reference = clean_reference(&campaign);
    arm(FaultPlan {
        panic_on_run: Some((1, u32::MAX)),
        ..Default::default()
    });
    let report = execute_resumable(
        &campaign,
        campaign.expand(),
        0,
        &options(FailurePolicy::Quarantine),
    )
    .expect("quarantine completes the campaign");
    disarm();
    assert_eq!(report.outcomes.len(), reference.outcomes.len() - 1);
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].index, 1);
    assert_eq!(report.failures[0].attempts, 1);
    assert!(report.failures[0].cause.contains("injected fault"));
    assert!(report.summary.is_degraded());
    assert_eq!(
        report
            .summary
            .points
            .iter()
            .map(|p| p.failed_runs)
            .sum::<usize>(),
        1
    );
    // The manifest names the quarantined run; the summary CSV still
    // parses (the degraded point serializes like any other).
    assert!(report.failures_csv().contains(&report.failures[0].name));
    assert!(campaign::parse_summary_csv(&report.summary.to_csv()).is_ok());
}

#[test]
fn retry_recovers_a_transient_fault_to_byte_identical_output() {
    let _guard = faults_lock();
    let campaign = tiny_campaign();
    let reference = clean_reference(&campaign);
    // The fault fires only on the first attempt of run 2: the retry
    // succeeds, and the campaign output is as if nothing happened.
    arm(FaultPlan {
        panic_on_run: Some((2, 1)),
        ..Default::default()
    });
    let report = execute_resumable(
        &campaign,
        campaign.expand(),
        0,
        &options(FailurePolicy::Retry { max_attempts: 3 }),
    )
    .expect("retry completes the campaign");
    disarm();
    assert!(report.failures.is_empty(), "the retry must succeed");
    assert_eq!(report.outcomes, reference.outcomes);
    assert_eq!(report.summary.to_csv(), reference.summary.to_csv());
    assert_eq!(report.summary.to_json(), reference.summary.to_json());
}

#[test]
fn retry_exhaustion_quarantines_with_the_attempt_count() {
    let _guard = faults_lock();
    let campaign = tiny_campaign();
    arm(FaultPlan {
        panic_on_run: Some((0, u32::MAX)),
        ..Default::default()
    });
    let report = execute_resumable(
        &campaign,
        campaign.expand(),
        0,
        &options(FailurePolicy::Retry { max_attempts: 2 }),
    )
    .expect("exhausted retries quarantine, not abort");
    disarm();
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].index, 0);
    assert_eq!(report.failures[0].attempts, 2);
}

#[test]
fn injected_trace_io_errors_follow_the_policy() {
    let _guard = faults_lock();
    let campaign = tiny_campaign();
    let dir = scratch("fault-trace-io");
    let replayable: Vec<_> = campaign
        .expand()
        .iter()
        .map(|run| record_run_traces(run, &dir, TraceFormat::Binary).expect("recording succeeds"))
        .collect();
    disarm();
    let reference = execute_resumable(
        &campaign,
        replayable.clone(),
        0,
        &options(FailurePolicy::Abort),
    )
    .expect("clean trace campaign runs");
    // One injected open failure: the first run to open a trace fails
    // once; under Retry the second attempt re-opens successfully.
    arm(FaultPlan {
        trace_open_failures: 1,
        ..Default::default()
    });
    let report = execute_resumable(
        &campaign,
        replayable,
        0,
        &options(FailurePolicy::Retry { max_attempts: 2 }),
    )
    .expect("retry heals the transient I/O fault");
    disarm();
    assert!(report.failures.is_empty());
    assert_eq!(report.outcomes, reference.outcomes);
    assert_eq!(report.summary.to_csv(), reference.summary.to_csv());
}

#[test]
fn an_aborted_campaign_resumes_to_byte_identical_output() {
    let _guard = faults_lock();
    let campaign = tiny_campaign();
    let reference = clean_reference(&campaign);
    for workers in [0usize, 2] {
        let dir = scratch(&format!("fault-resume-{workers}"));
        let journal = dir.join("campaign.journal");
        let journaled = ExecutionOptions {
            policy: FailurePolicy::Abort,
            journal: Some(journal.clone()),
        };
        // First invocation dies on run 2; runs 0 and 1 are journaled.
        arm(FaultPlan {
            panic_on_run: Some((2, u32::MAX)),
            ..Default::default()
        });
        let result = execute_resumable(&campaign, campaign.expand(), workers, &journaled);
        disarm();
        assert!(result.is_err(), "the armed campaign must abort");
        // Second invocation resumes: replays 0..2, runs only the tail.
        let resumed = execute_resumable(&campaign, campaign.expand(), workers, &journaled)
            .expect("resume completes");
        assert_eq!(resumed.replayed, 2, "{workers} workers");
        assert_eq!(resumed.outcomes, reference.outcomes);
        assert_eq!(resumed.summary.to_csv(), reference.summary.to_csv());
        assert_eq!(resumed.summary.to_json(), reference.summary.to_json());
        // A third invocation finds everything journaled: nothing
        // executes, output still byte-identical.
        let replayed = execute_resumable(&campaign, campaign.expand(), workers, &journaled)
            .expect("full replay completes");
        assert_eq!(replayed.replayed, reference.outcomes.len());
        assert_eq!(replayed.runs_per_sec(), None, "nothing executed");
        assert_eq!(replayed.summary.to_csv(), reference.summary.to_csv());
    }
}

#[test]
fn pooled_quarantine_matches_sequential_byte_for_byte() {
    let _guard = faults_lock();
    let campaign = tiny_campaign();
    let mut reports = Vec::new();
    for workers in [0usize, 2] {
        arm(FaultPlan {
            panic_on_run: Some((1, u32::MAX)),
            ..Default::default()
        });
        let report = execute_resumable(
            &campaign,
            campaign.expand(),
            workers,
            &options(FailurePolicy::Quarantine),
        )
        .expect("quarantine completes");
        disarm();
        reports.push(report);
    }
    let (sequential, pooled) = (&reports[0], &reports[1]);
    assert_eq!(pooled.outcomes, sequential.outcomes);
    assert_eq!(pooled.failures, sequential.failures);
    assert_eq!(pooled.summary.to_csv(), sequential.summary.to_csv());
    assert_eq!(pooled.summary.to_json(), sequential.summary.to_json());
    assert_eq!(pooled.failures_csv(), sequential.failures_csv());
    assert_eq!(pooled.failures_json(), sequential.failures_json());
}

#[test]
fn a_structured_run_error_aborts_identically_at_any_worker_count() {
    let _guard = faults_lock();
    disarm();
    let campaign = tiny_campaign();
    for workers in [0usize, 2] {
        let mut runs = campaign.expand();
        // A benign thread pointing at a missing trace file fails its run
        // with a structured trace error, not a panic.
        runs[1].threads[0].trace = Some(campaign::TraceSource {
            path: PathBuf::from("does/not/exist.trace"),
            repeat: false,
        });
        let victim = runs[1].name.clone();
        match execute_resumable(&campaign, runs, workers, &options(FailurePolicy::Abort)) {
            Err(CampaignError::Trace { run, .. }) => assert_eq!(run, victim, "{workers} workers"),
            other => panic!("{workers} workers: expected the trace error, got {other:?}"),
        }
    }
}

#[test]
fn a_journal_refuses_a_different_campaign() {
    let _guard = faults_lock();
    disarm();
    let campaign = tiny_campaign();
    let dir = scratch("fault-mismatch");
    let journal = dir.join("campaign.journal");
    let journaled = ExecutionOptions {
        policy: FailurePolicy::Abort,
        journal: Some(journal),
    };
    execute_resumable(&campaign, campaign.expand(), 0, &journaled).expect("first campaign runs");
    let mut other = campaign.clone();
    other.seed ^= 0xdead_beef;
    assert_ne!(fingerprint(&campaign), fingerprint(&other));
    match execute_resumable(&other, other.expand(), 0, &journaled) {
        Err(CampaignError::Checkpoint {
            error: JournalError::SpecMismatch { message },
        }) => assert!(message.contains("fingerprint"), "got: {message}"),
        other => panic!("expected a spec mismatch, got {other:?}"),
    }
}

/// Executes [`sharing_campaign`] under quarantine with a permanent panic
/// injected at run `index`.
fn quarantine_with_panic_at(index: usize, workers: usize) -> CampaignReport {
    let campaign = sharing_campaign();
    arm(FaultPlan {
        panic_on_run: Some((index, u32::MAX)),
        ..Default::default()
    });
    let report = execute_resumable(
        &campaign,
        campaign.expand(),
        workers,
        &options(FailurePolicy::Quarantine),
    );
    disarm();
    report.expect("quarantine completes the campaign")
}

#[test]
fn an_injected_panic_at_a_copy_quarantines_the_copy() {
    let _guard = faults_lock();
    let reference = clean_reference(&sharing_campaign());
    assert_eq!(reference.scheduling.shared_runs, 2);
    for workers in [0usize, 2] {
        // Run 4 copies run 0's outcome, but it passes the same fault hook
        // a simulated run does.
        let report = quarantine_with_panic_at(4, workers);
        assert_eq!(report.failures.len(), 1, "{workers} workers");
        assert_eq!(report.failures[0].index, 4);
        assert!(report.failures[0].cause.contains("injected fault"));
        assert_eq!(report.scheduling.shared_runs, 1, "{workers} workers");
        let expected: Vec<_> = reference
            .outcomes
            .iter()
            .filter(|outcome| outcome.index != 4)
            .cloned()
            .collect();
        assert_eq!(report.outcomes, expected, "{workers} workers");
    }
}

#[test]
fn a_quarantined_primary_makes_its_copy_simulate_itself() {
    let _guard = faults_lock();
    let reference = clean_reference(&sharing_campaign());
    for workers in [0usize, 2] {
        // Run 0 delivers no outcome, so its copy, run 4, is simulated and
        // still matches the clean campaign's run 4.
        let report = quarantine_with_panic_at(0, workers);
        assert_eq!(report.failures.len(), 1, "{workers} workers");
        assert_eq!(report.failures[0].index, 0);
        assert_eq!(report.scheduling.shared_runs, 1, "{workers} workers");
        assert_eq!(
            report.outcomes,
            reference.outcomes[1..],
            "{workers} workers"
        );
    }
}
