//! A minimal journaled-campaign process for the kill/resume integration
//! test (`tests/tests/kill_resume.rs`).
//!
//! Runs the shared [`resume_campaign`] (with `shared`,
//! [`resume_sharing_campaign`]) with a checkpoint journal at
//! `DIR/campaign.journal` and writes `campaign.csv` / `campaign.json` /
//! `stepping.csv` atomically on completion. The test spawns this binary,
//! kills it mid-campaign (via the armed fault injector, or with a real
//! signal while the injector stalls it), re-spawns it to resume, and
//! byte-compares the artifacts against an uninterrupted run. On success
//! it prints `completed N runs (R replayed, S shared)`.
//!
//! ```text
//! resume_harness out DIR [workers N] [abort-after N] [stall-after N] [shared]
//! ```

use campaign::faults::{arm, FaultPlan};
use campaign::{execute_resumable, write_atomic, ExecutionOptions};
use integration_tests::{resume_campaign, resume_sharing_campaign};
use std::path::PathBuf;
use std::process::ExitCode;

fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("resume_harness: {message}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir: Option<PathBuf> = None;
    let mut workers = 0usize;
    let mut plan = FaultPlan::default();
    let mut spec = resume_campaign();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "out" => match iter.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => return fail("out needs a directory argument"),
            },
            name @ ("workers" | "abort-after" | "stall-after") => {
                let Some(n) = iter.next().and_then(|v| v.parse::<u64>().ok()) else {
                    return fail(format!("{name} needs an integer argument"));
                };
                match name {
                    "workers" => workers = n as usize,
                    "abort-after" => plan.abort_after_journal_records = Some(n),
                    _ => plan.stall_after_journal_records = Some(n),
                }
            }
            "shared" => spec = resume_sharing_campaign(),
            other => return fail(format!("unknown argument `{other}`")),
        }
    }
    let Some(out_dir) = out_dir else {
        return fail("out DIR is required");
    };
    if plan.abort_after_journal_records.is_some() || plan.stall_after_journal_records.is_some() {
        arm(plan);
    }
    let options = ExecutionOptions {
        journal: Some(out_dir.join("campaign.journal")),
        ..Default::default()
    };
    let report = match execute_resumable(&spec, spec.expand(), workers, &options) {
        Ok(report) => report,
        Err(e) => return fail(e),
    };
    if let Err(e) = write_atomic(&out_dir.join("campaign.csv"), report.summary.to_csv()) {
        return fail(e);
    }
    if let Err(e) = write_atomic(&out_dir.join("campaign.json"), report.summary.to_json()) {
        return fail(e);
    }
    if let Err(e) = write_atomic(&out_dir.join("stepping.csv"), report.stepping_csv()) {
        return fail(e);
    }
    println!(
        "completed {} runs ({} replayed, {} shared)",
        report.outcomes.len(),
        report.replayed,
        report.scheduling.shared_runs
    );
    ExitCode::SUCCESS
}
