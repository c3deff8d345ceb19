//! A scaled-down paper campaign, end to end and from trace files.
//!
//! The pipeline mirrors how the paper's 280-workload evaluation would be
//! driven at full scale:
//!
//! 1. expand a [`CampaignSpec`] into its deterministic run matrix,
//! 2. record every mix's threads to binary trace files (once per
//!    mix × channel count — sweep points share traces),
//! 3. execute the whole matrix from those files, sequentially and on the
//!    work-stealing pool, and verify the two emit **byte-identical**
//!    `campaign.csv`, `campaign.json` and `stepping.csv`,
//! 4. write `campaign.csv` / `campaign.json`, re-parse the CSV as a
//!    self-check, and render the normalized sweep as the same table
//!    `paper fig5` prints.
//!
//! ```text
//! cargo run --release -p examples-bin --bin campaign -- \
//!     [smoke|quick|standard] [workers N] [out DIR] [journal] [abort-after N]
//! ```
//!
//! `smoke` is the 8-run CI configuration; `quick` (default) is a
//! 24-mix × 3-defense × 2-threshold campaign (144 runs); `standard` runs
//! the same matrix at full experiment scale (much slower).
//!
//! `journal` switches to checkpointed execution: one pooled pass with
//! every result appended to `DIR/campaign.journal`, resuming past
//! already-journaled runs on re-invocation — artifacts stay
//! byte-identical to an uninterrupted (or sequential) run. `abort-after
//! N` arms the deterministic fault injector to kill the process after
//! the N-th journal append (requires building with `--features
//! fault-injection`); CI uses the pair to prove the kill/resume
//! round-trip.

use campaign::{
    execute, execute_resumable, parse_summary_csv, record_run_traces, write_atomic, CampaignReport,
    CampaignSpec, ExecutionOptions, TraceFormat,
};
use std::path::PathBuf;
use std::process::ExitCode;

fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("campaign: {message}");
    ExitCode::FAILURE
}

/// Human-readable throughput: `runs_per_sec` is `None` when the
/// invocation executed nothing (e.g. a resume that found every run
/// journaled).
fn rate(report: &CampaignReport) -> String {
    match report.runs_per_sec() {
        Some(rate) => format!("{rate:.2} runs/sec"),
        None => "nothing executed".to_owned(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut spec = CampaignSpec::quick(12);
    // At least 2 so the pooled phase actually exercises the worker pool;
    // capped at 4 since the demo's runs are small.
    let mut workers = campaign::default_workers().clamp(2, 4);
    let mut out_dir = PathBuf::from("target/campaign");
    let mut journal = false;
    let mut abort_after: Option<u64> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "smoke" => {
                spec = CampaignSpec::smoke();
                out_dir = PathBuf::from("target/campaign-smoke");
            }
            "quick" => spec = CampaignSpec::quick(12),
            "standard" => {
                spec = CampaignSpec::quick(12);
                spec.name = "paper-mini-standard".to_owned();
                spec.scale = campaign::RunScale::standard();
            }
            "workers" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 2 => workers = n,
                _ => return fail("workers needs an integer argument >= 2"),
            },
            "out" => match iter.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => return fail("out needs a directory argument"),
            },
            "journal" => journal = true,
            "abort-after" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => abort_after = Some(n),
                None => return fail("abort-after needs an integer argument"),
            },
            other => {
                return fail(format!(
                    "unknown argument `{other}` (expected smoke|quick|standard, workers N, \
                     out DIR, journal, abort-after N)"
                ))
            }
        }
    }
    if abort_after.is_some() && !cfg!(feature = "fault-injection") {
        return fail(
            "abort-after needs the fault injector; rebuild with \
             `--features fault-injection`",
        );
    }
    if abort_after.is_some() && !journal {
        return fail("abort-after only makes sense with journal");
    }

    let runs = spec.expand();
    println!(
        "campaign `{}`: {} runs ({} mixes x {} scenarios x {} defenses x {} N_RH x {} channel counts)",
        spec.name,
        runs.len(),
        spec.mix_count,
        spec.scenarios.len(),
        spec.defenses.len(),
        spec.n_rh_points.len(),
        spec.channel_counts.len(),
    );

    // Phase 1: record every run's threads to trace files (deduplicated by
    // mix and channel count).
    let trace_dir = out_dir.join("traces");
    let record_started = std::time::Instant::now();
    let mut replayable = Vec::with_capacity(runs.len());
    for run in &runs {
        match record_run_traces(run, &trace_dir, TraceFormat::Binary) {
            Ok(traced) => replayable.push(traced),
            Err(e) => return fail(e),
        }
    }
    let trace_files = std::fs::read_dir(&trace_dir)
        .map(|entries| entries.count())
        .unwrap_or(0);
    println!(
        "recorded {} trace files under {} in {:.2?}",
        trace_files,
        trace_dir.display(),
        record_started.elapsed()
    );

    // Phase 2: execute from trace files. Journaled mode makes one
    // checkpointed pooled pass (resuming past journaled runs); plain mode
    // runs sequentially AND pooled to demonstrate byte-identity.
    let report = if journal {
        #[cfg(feature = "fault-injection")]
        if let Some(records) = abort_after {
            campaign::faults::arm(campaign::faults::FaultPlan {
                abort_after_journal_records: Some(records),
                ..Default::default()
            });
            println!("fault injector armed: abort after {records} journal records");
        }
        let options = ExecutionOptions {
            journal: Some(out_dir.join("campaign.journal")),
            ..Default::default()
        };
        let resumed = match execute_resumable(&spec, replayable, workers, &options) {
            Ok(report) => report,
            Err(e) => return fail(e),
        };
        println!(
            "journaled ({workers} workers, {} scheduler): {} runs ({} replayed from journal, \
             {} prelude references from journal) in {:.2?} ({})",
            resumed.scheduling.scheduler,
            resumed.outcomes.len(),
            resumed.replayed,
            resumed.scheduling.prelude.from_cache,
            resumed.wall,
            rate(&resumed)
        );
        resumed
    } else {
        let sequential = match execute(&spec, replayable.clone(), 0) {
            Ok(report) => report,
            Err(e) => return fail(e),
        };
        println!(
            "sequential: {} runs in {:.2?} ({})",
            sequential.outcomes.len(),
            sequential.wall,
            rate(&sequential)
        );
        let pooled = match execute(&spec, replayable, workers) {
            Ok(report) => report,
            Err(e) => return fail(e),
        };
        println!(
            "pooled ({workers} workers, {} scheduler): {} runs in {:.2?} ({})",
            pooled.scheduling.scheduler,
            pooled.outcomes.len(),
            pooled.wall,
            rate(&pooled)
        );

        // Phase 3: pooled output must be byte-identical to sequential.
        for (artifact, pooled, sequential) in [
            (
                "campaign.csv",
                pooled.summary.to_csv(),
                sequential.summary.to_csv(),
            ),
            (
                "campaign.json",
                pooled.summary.to_json(),
                sequential.summary.to_json(),
            ),
            (
                "stepping.csv",
                pooled.stepping_csv(),
                sequential.stepping_csv(),
            ),
        ] {
            if pooled != sequential {
                return fail(format!(
                    "pooled execution emitted a different {artifact} than sequential"
                ));
            }
        }
        println!("pooled CSV, JSON and stepping.csv are byte-identical to sequential");
        sequential
    };

    // Phase 4: persist (atomically — a killed campaign must never leave a
    // torn artifact), self-validate, render.
    let csv = report.summary.to_csv();
    let csv_path = out_dir.join("campaign.csv");
    let json_path = out_dir.join("campaign.json");
    if let Err(e) = write_atomic(&csv_path, &csv) {
        return fail(e);
    }
    if let Err(e) = write_atomic(&json_path, report.summary.to_json()) {
        return fail(e);
    }
    // Idle-skip accounting goes to its own file: the summary CSV/JSON are
    // pinned byte-identical across advance modes, these counters are not.
    let stepping_path = out_dir.join("stepping.csv");
    if let Err(e) = write_atomic(&stepping_path, report.stepping_csv()) {
        return fail(e);
    }
    // Scheduler accounting likewise: worker tallies and the reorder-buffer
    // high-water mark depend on wall-clock interleaving, not results.
    if let Err(e) = write_atomic(&out_dir.join("scheduling.csv"), report.scheduling_csv()) {
        return fail(e);
    }
    if !report.failures.is_empty() {
        if let Err(e) = write_atomic(&out_dir.join("failures.csv"), report.failures_csv()) {
            return fail(e);
        }
        if let Err(e) = write_atomic(&out_dir.join("failures.json"), report.failures_json()) {
            return fail(e);
        }
        println!(
            "{} quarantined runs -> {}",
            report.failures.len(),
            out_dir.join("failures.csv").display()
        );
    }
    let rows = match parse_summary_csv(&csv) {
        Ok(rows) => rows,
        Err(e) => return fail(format!("emitted CSV does not parse: {e}")),
    };
    if rows.len() != report.summary.points.len() {
        return fail(format!(
            "CSV row count {} != {} sweep points",
            rows.len(),
            report.summary.points.len()
        ));
    }
    println!(
        "CSV OK ({} sweep-point rows) -> {}\nJSON -> {}\n",
        rows.len(),
        csv_path.display(),
        json_path.display()
    );
    println!(
        "normalized sweep (same table as `paper fig5`):\n\n{}",
        sim::report::render_multiprogram(&report.summary.multiprogram_rows())
    );
    ExitCode::SUCCESS
}
