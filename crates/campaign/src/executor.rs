//! The campaign executor: fans whole runs out across the work-stealing
//! pool and streams results back in deterministic order.
//!
//! Execution has two phases:
//!
//! 1. **Normalization prelude** (when `CampaignSpec::normalize`): every
//!    distinct (benign workload, channel count) pair is run stand-alone
//!    under the no-mitigation baseline, producing the alone-IPC reference
//!    table the paper's multiprogrammed metrics divide by. The prelude
//!    jobs are independent of each other, so they fan out over the same
//!    worker pool as the run matrix; the finished table is keyed and
//!    stored *sorted*, so its contents are identical for every worker
//!    count. With a journal configured, the table is also cached on disk
//!    next to it (`<journal stem>.prelude`, keyed by a fingerprint over
//!    the workload names, channel counts, scale and seed), so resumed
//!    and re-submitted campaigns skip re-simulating the references
//!    entirely — observable as [`PreludeStats::from_cache`].
//! 2. **The run matrix**: every [`RunSpec`], either on the calling
//!    thread (`workers <= 1`) or fanned out over `workers` persistent
//!    threads. Runs go into the shared injector queue of a
//!    [`StealingPool`] — idle workers pull the next run the moment they
//!    finish, so no worker ever waits behind a long run — and
//!    completions, which arrive in *finish* order, pass through a
//!    reorder buffer that releases them strictly in run order. Outcomes
//!    therefore stream back — and fold into the [`CampaignAggregator`] —
//!    in exactly the sequential order no matter which worker finishes
//!    first, so sequential and work-stealing execution of the same
//!    campaign emit byte-identical CSV/JSON/journal/NDJSON (pinned by
//!    `tests/tests/campaign_determinism.rs`).
//!
//! # Fault tolerance
//!
//! Every run executes behind an isolation boundary
//! (`catch_unwind`): a panicking run becomes a structured failure
//! instead of unwinding the campaign, and the configured
//! [`FailurePolicy`] decides what happens next — abort the campaign
//! with [`CampaignError::RunFailed`] (the default, today's behavior),
//! quarantine the run into the report's failure manifest (the
//! aggregator marks its sweep point degraded), or retry it up to a
//! bounded number of attempts before quarantining. The policy is
//! applied when a run is *released* from the reorder buffer, with
//! retries on the collecting thread, so even `Abort`'s journaled prefix
//! and `Retry`'s attempt ordering match sequential execution.
//!
//! With [`ExecutionOptions::journal`] set, [`execute_resumable`] appends
//! each delivered result to an on-disk checkpoint journal
//! ([`crate::checkpoint`]) before moving on, and — when the journal
//! already holds finished runs for the *same* campaign — replays them
//! and re-runs only the tail. Because replayed outcomes feed the
//! aggregator in the same run order the original execution did, a
//! killed-and-resumed campaign emits byte-identical CSV/JSON to an
//! uninterrupted one (pinned by `tests/tests/kill_resume.rs`).

use crate::aggregate::{escape_json, CampaignAggregator, CampaignSummary};
use crate::checkpoint::{self, JournalEntry, JournalError, JournalWriter};
use crate::runner::{run_spec, CampaignError, FailedRun, RunOutcome};
use crate::spec::{CampaignSpec, RunSpec, ThreadGenerator};
use sim::pool::{panic_message, Outcome, StealingPool};
use sim::DefenseKind;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::SyntheticSpec;

pub use sim::pool::WorkerSnapshot;

/// What the executor does with a run that fails (panics inside the
/// simulator or returns an error).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Stop the campaign at the first failing run, surfacing it as
    /// [`CampaignError::RunFailed`]. Results delivered before the
    /// failure stay journaled (when a journal is configured), so an
    /// aborted campaign resumes past them.
    #[default]
    Abort,
    /// Skip the failing run: record it in the failure manifest
    /// ([`CampaignReport::failures`]), mark its sweep point degraded,
    /// and continue with the rest of the campaign.
    Quarantine,
    /// Re-run a failing run up to `max_attempts` total attempts
    /// (retries execute on the collecting thread, preserving delivery
    /// order); a run still failing after the last attempt is
    /// quarantined.
    Retry {
        /// Total attempts per run, counting the first (values 0 and 1
        /// mean no retries — equivalent to `Quarantine`).
        max_attempts: u32,
    },
}

/// Knobs of [`execute_resumable`] beyond the worker count.
#[derive(Debug, Clone, Default)]
pub struct ExecutionOptions {
    /// What to do with failing runs.
    pub policy: FailurePolicy,
    /// When set, every delivered result is appended to the checkpoint
    /// journal at this path (created on first use), and execution
    /// resumes after any runs the journal already holds. Also enables
    /// the on-disk prelude cache at `<path stem>.prelude`.
    pub journal: Option<PathBuf>,
}

/// Normalization-prelude accounting for one invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreludeStats {
    /// Distinct (benign workload, channel count) reference pairs the
    /// campaign needed.
    pub references: usize,
    /// References simulated by this invocation.
    pub computed: usize,
    /// References loaded from the on-disk prelude cache instead of
    /// simulated.
    pub from_cache: usize,
}

/// Scheduling telemetry for one invocation: who did the work and how
/// out-of-order it came back. Serialized as `scheduling.csv`
/// ([`CampaignReport::scheduling_csv`]) and into the server's status
/// document ([`crate::wire::scheduling_json`]). Deliberately *not* part
/// of the byte-identity contract — its contents are wall-clock- and
/// worker-dependent by construction, like `stepping.csv`'s are
/// advance-mode-dependent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionStats {
    /// `"sequential"` or `"stealing"`.
    pub scheduler: &'static str,
    /// Per-worker tallies, in worker-index order (empty when
    /// sequential).
    pub workers: Vec<WorkerSnapshot>,
    /// Most completions the reorder buffer ever held at once. 0 when
    /// nothing was buffered (sequential execution); 1 means completions
    /// arrived perfectly in run order; larger values measure how far
    /// ahead fast workers ran.
    pub reorder_high_water: usize,
    /// Normalization-prelude accounting.
    pub prelude: PreludeStats,
}

/// Everything a finished campaign hands back.
#[derive(Debug)]
pub struct CampaignReport {
    /// Per-run outcomes of completed runs, in run order (quarantined
    /// runs are absent here and present in `failures`).
    pub outcomes: Vec<RunOutcome>,
    /// Quarantined runs, in run order — the failure manifest
    /// (serializable via [`CampaignReport::failures_csv`] /
    /// [`CampaignReport::failures_json`]).
    pub failures: Vec<FailedRun>,
    /// How many of the delivered results were replayed from the
    /// checkpoint journal instead of executed in this invocation.
    pub replayed: usize,
    /// The aggregated summary (CSV/JSON-serializable).
    pub summary: CampaignSummary,
    /// Wall-clock duration of the whole execution (prelude + runs).
    pub wall: Duration,
    /// Worker threads used (0 = sequential on the calling thread).
    pub workers: usize,
    /// Scheduling telemetry (worker tallies, reorder-buffer high-water
    /// mark, prelude cache accounting).
    pub scheduling: ExecutionStats,
}

impl CampaignReport {
    /// Freshly executed runs (completed or quarantined) per wall-clock
    /// second, or `None` when this invocation executed nothing — an
    /// empty campaign, or a resume that found every run already
    /// journaled. (Replayed results are excluded: reading a journal
    /// record is not executing a run, and counting it would report a
    /// fantasy rate.)
    pub fn runs_per_sec(&self) -> Option<f64> {
        let executed = (self.outcomes.len() + self.failures.len()).saturating_sub(self.replayed);
        if executed == 0 {
            return None;
        }
        Some(executed as f64 / self.wall.as_secs_f64().max(1e-9))
    }

    /// The failure manifest as CSV (one row per quarantined run, in run
    /// order; the cause field is quoted since panic messages contain
    /// commas).
    pub fn failures_csv(&self) -> String {
        let mut csv = String::from("index,name,scenario,defense,n_rh,channels,attempts,cause\n");
        for f in &self.failures {
            csv.push_str(&format!(
                "{},{},{},{},{},{},{},\"{}\"\n",
                f.index,
                f.name,
                f.scenario,
                f.defense,
                f.n_rh,
                f.channels,
                f.attempts,
                f.cause.replace('"', "\"\"").replace('\n', " "),
            ));
        }
        csv
    }

    /// The failure manifest as a JSON array document.
    pub fn failures_json(&self) -> String {
        let mut out = String::from("{\n  \"failures\": [\n");
        for (i, f) in self.failures.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"index\": {}, \"name\": \"{}\", \"scenario\": \"{}\", \
                 \"defense\": \"{}\", \"n_rh\": {}, \"channels\": {}, \
                 \"attempts\": {}, \"cause\": \"{}\"}}{}\n",
                f.index,
                escape_json(&f.name),
                escape_json(&f.scenario),
                escape_json(&f.defense),
                f.n_rh,
                f.channels,
                f.attempts,
                escape_json(&f.cause),
                if i + 1 < self.failures.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Per-run idle-skip accounting as CSV (one row per run, in run
    /// order): how much of each run's simulated time the event-driven
    /// advance loop skipped. Kept separate from [`CampaignSummary`]'s
    /// CSV/JSON on purpose — those artifacts are pinned byte-identical
    /// across advance modes, while these counters are mode-dependent by
    /// construction.
    pub fn stepping_csv(&self) -> String {
        let mut csv = String::from(
            "index,name,defense,channels,total_cycles,cycles_simulated,\
             cycles_skipped,events_processed,largest_jump,skip_ratio\n",
        );
        for outcome in &self.outcomes {
            let s = &outcome.stepping;
            csv.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{:.4}\n",
                outcome.index,
                outcome.name,
                outcome.defense,
                outcome.channels,
                outcome.total_cycles,
                s.cycles_simulated,
                s.cycles_skipped,
                s.events_processed,
                s.largest_jump,
                s.skip_ratio(),
            ));
        }
        csv
    }

    /// Scheduling telemetry as a `metric,value` CSV — `stepping.csv`'s
    /// sibling `scheduling.csv`. Like the stepping counters, this
    /// artifact is *not* byte-stable across worker counts (busy times
    /// are wall-clock; steal counts depend on finish order); the stable
    /// artifacts are `campaign.csv`/`campaign.json`.
    pub fn scheduling_csv(&self) -> String {
        let s = &self.scheduling;
        let mut csv = String::from("metric,value\n");
        csv.push_str(&format!("scheduler,{}\n", s.scheduler));
        csv.push_str(&format!("workers,{}\n", self.workers));
        csv.push_str(&format!("reorder_high_water,{}\n", s.reorder_high_water));
        csv.push_str(&format!("prelude_references,{}\n", s.prelude.references));
        csv.push_str(&format!("prelude_computed,{}\n", s.prelude.computed));
        csv.push_str(&format!("prelude_from_cache,{}\n", s.prelude.from_cache));
        let wall = self.wall.as_secs_f64().max(1e-9);
        for (i, worker) in s.workers.iter().enumerate() {
            csv.push_str(&format!("worker_{i}_jobs,{}\n", worker.jobs));
            csv.push_str(&format!("worker_{i}_steals,{}\n", worker.steals));
            csv.push_str(&format!("worker_{i}_busy_us,{}\n", worker.busy.as_micros()));
            csv.push_str(&format!(
                "worker_{i}_utilization,{:.4}\n",
                (worker.busy.as_secs_f64() / wall).min(1.0)
            ));
        }
        csv
    }
}

/// A sensible default worker count for [`execute`] on this machine: all
/// available hardware threads minus one (keeping the calling/collecting
/// thread responsive), i.e. 0 — sequential — on a single-core machine.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get().saturating_sub(1))
}

/// The stand-alone IPC reference table: one entry per distinct (benign
/// workload, channel count) pair, sorted by that pair so lookups run on
/// *borrowed* keys (a binary search over `(&str, usize)`) — attaching
/// references to the paper-scale 250-mix matrix allocates nothing per
/// run.
struct AloneIpcTable {
    /// `(workload name, channels, alone IPC)`, sorted by the key pair.
    entries: Vec<(String, usize, f64)>,
}

impl AloneIpcTable {
    fn get(&self, name: &str, channels: usize) -> Option<f64> {
        self.entries
            .binary_search_by(|(n, c, _)| (n.as_str(), *c).cmp(&(name, channels)))
            .ok()
            .map(|at| self.entries[at].2)
    }
}

/// One queued prelude measurement: a workload run stand-alone on the
/// unprotected baseline.
struct PreludeJob {
    name: String,
    channels: usize,
    spec: SyntheticSpec,
    /// Filled by the measurement.
    ipc: f64,
}

/// Runs one prelude job at the campaign's scale.
fn measure_alone_ipc(campaign: &CampaignSpec, job: &PreludeJob) -> f64 {
    let result = campaign
        .scale
        .builder()
        .seed(campaign.seed)
        .channels(job.channels)
        .defense(DefenseKind::Baseline)
        .add_workload(job.spec.clone(), campaign.scale.benign_instructions)
        .run();
    result.threads[0].ipc
}

/// Builds the stand-alone IPC reference table for `runs`, preferring the
/// on-disk prelude cache (when `cache` names one and its fingerprint
/// matches) and otherwise measuring every pair — fanned out over
/// `workers` pool threads when pooling is on, since the jobs are
/// mutually independent and the table is sorted regardless of
/// completion order. A freshly measured table is written back to the
/// cache (best-effort: a failed write costs only the next invocation's
/// prelude time).
fn alone_ipc_table(
    campaign: &CampaignSpec,
    runs: &[RunSpec],
    workers: usize,
    cache: Option<&Path>,
    stats: &mut PreludeStats,
) -> AloneIpcTable {
    // Deduplicate straight into sorted order: one owned key per
    // *distinct* pair, never one per run.
    let mut jobs: Vec<PreludeJob> = Vec::new();
    for run in runs {
        for thread in run.benign_threads() {
            let ThreadGenerator::Synthetic(spec) = &thread.generator else {
                continue;
            };
            let key = (thread.name.as_str(), run.channels);
            match jobs.binary_search_by(|job| (job.name.as_str(), job.channels).cmp(&key)) {
                Ok(_) => {}
                Err(at) => jobs.insert(
                    at,
                    PreludeJob {
                        name: thread.name.clone(),
                        channels: run.channels,
                        spec: spec.clone(),
                        ipc: 0.0,
                    },
                ),
            }
        }
    }
    stats.references = jobs.len();
    // One owned key pair per distinct reference (not per run) — these
    // outlive the jobs, which move into the pool below.
    let keys: Vec<(String, usize)> = jobs.iter().map(|j| (j.name.clone(), j.channels)).collect();
    let fingerprint = checkpoint::prelude_fingerprint(campaign, &keys);
    if let Some(path) = cache {
        if let Some(entries) = checkpoint::load_prelude_cache(path, fingerprint) {
            // The fingerprint covers the key list, so a match should
            // imply identical keys; verify anyway before trusting it.
            let matches = entries.len() == keys.len()
                && entries
                    .iter()
                    .zip(keys.iter())
                    .all(|((n, c, _), (name, channels))| n == name && c == channels);
            if matches {
                stats.from_cache = entries.len();
                return AloneIpcTable { entries };
            }
        }
    }
    stats.computed = jobs.len();
    if workers >= 2 && jobs.len() >= 2 {
        // Fan the measurements over a pull-based pool. Each completion
        // carries its job's position, so the sorted order is restored by
        // construction no matter which worker finishes first.
        let reference = Arc::new(campaign.clone());
        let measure = {
            let reference = Arc::clone(&reference);
            move |job: &mut PreludeJob| {
                job.ipc = measure_alone_ipc(&reference, job);
            }
        };
        let mut pool: StealingPool<PreludeJob, ()> = StealingPool::new(workers, measure);
        let mut slots: Vec<Option<PreludeJob>> = Vec::new();
        for job in jobs.drain(..) {
            pool.submit(slots.len() as u64, job);
            slots.push(None);
        }
        while let Some(done) = pool.next_completion() {
            match done.outcome {
                Outcome::Done(job, ()) => slots[done.seq as usize] = Some(job),
                // A panicking prelude job falls back to an in-line
                // measurement below, where the panic (a simulator bug,
                // not a per-run fault) propagates to the caller.
                Outcome::Panicked(_) => {}
            }
        }
        jobs = slots
            .into_iter()
            .enumerate()
            .map(|(at, slot)| match slot {
                Some(job) => job,
                None => {
                    let mut job = rebuild_prelude_job(runs, &keys[at]);
                    job.ipc = measure_alone_ipc(campaign, &job);
                    job
                }
            })
            .collect();
    } else {
        for job in &mut jobs {
            job.ipc = measure_alone_ipc(campaign, job);
        }
    }
    let entries: Vec<(String, usize, f64)> = jobs
        .into_iter()
        .map(|job| (job.name, job.channels, job.ipc))
        .collect();
    if let Some(path) = cache {
        let _ = checkpoint::store_prelude_cache(path, fingerprint, &entries);
    }
    AloneIpcTable { entries }
}

/// Re-derives a prelude job from its key pair (the original was
/// consumed by a panicked pool attempt — the rare path).
fn rebuild_prelude_job(runs: &[RunSpec], key: &(String, usize)) -> PreludeJob {
    let (name, channels) = key;
    for run in runs {
        if run.channels != *channels {
            continue;
        }
        for thread in run.benign_threads() {
            if thread.name != *name {
                continue;
            }
            if let ThreadGenerator::Synthetic(spec) = &thread.generator {
                return PreludeJob {
                    name: name.clone(),
                    channels: *channels,
                    spec: spec.clone(),
                    ipc: 0.0,
                };
            }
        }
    }
    // The key list was built from exactly these runs; reaching here
    // would mean the run list changed under us mid-call.
    // lint: allow(panic-freedom) -- keys are derived from `runs` in this same call; the pair must exist
    unreachable!("prelude key ({name}, {channels}) not found in the run list")
}

/// Fills every run's `alone_ipc` from the reference table. Lookups use
/// borrowed keys — no per-run allocation.
fn attach_alone_ipc(runs: &mut [RunSpec], table: &AloneIpcTable) -> Result<(), CampaignError> {
    for run in runs.iter_mut() {
        let mut alone = Vec::with_capacity(run.threads.len());
        for thread in run.threads.iter().filter(|t| !t.is_attacker) {
            let Some(ipc) = table.get(&thread.name, run.channels) else {
                return Err(CampaignError::Spec {
                    run: run.name.clone(),
                    message: format!("no stand-alone IPC reference for `{}`", thread.name),
                });
            };
            alone.push(ipc);
        }
        run.alone_ipc = alone;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Run isolation
// ---------------------------------------------------------------------------

/// How a single run attempt failed behind the isolation boundary.
enum RunError {
    /// The run returned a structured error.
    Campaign(CampaignError),
    /// The run panicked; the payload was converted to its message.
    Panic(String),
}

impl RunError {
    /// The failure as a one-line cause for manifests and journals.
    fn cause(&self) -> String {
        match self {
            RunError::Campaign(error) => error.to_string(),
            RunError::Panic(message) => format!("panicked: {message}"),
        }
    }
}

/// Executes one run behind the isolation boundary: a panic anywhere in
/// the simulator comes back as a [`RunError::Panic`] instead of
/// unwinding the executor (or a pool worker).
fn run_isolated(spec: &RunSpec) -> Result<RunOutcome, RunError> {
    match catch_unwind(AssertUnwindSafe(|| run_spec(spec))) {
        Ok(Ok(outcome)) => Ok(outcome),
        Ok(Err(error)) => Err(RunError::Campaign(error)),
        Err(payload) => Err(RunError::Panic(panic_message(payload.as_ref()))),
    }
}

/// What one run ultimately delivered after the failure policy had its
/// say.
enum Delivery {
    /// The run completed (possibly after retries).
    Outcome(RunOutcome),
    /// The run was quarantined.
    Failure(FailedRun),
}

/// Applies the failure policy to a run's first-attempt result,
/// performing any retries synchronously on the calling thread (the
/// collector), so delivery order never depends on retry timing.
fn resolve(
    spec: &RunSpec,
    first: Result<RunOutcome, RunError>,
    policy: FailurePolicy,
) -> Result<Delivery, CampaignError> {
    let first_error = match first {
        Ok(outcome) => return Ok(Delivery::Outcome(outcome)),
        Err(error) => error,
    };
    match policy {
        FailurePolicy::Abort => Err(match first_error {
            RunError::Campaign(error) => error,
            RunError::Panic(message) => CampaignError::RunFailed {
                index: spec.index,
                run: spec.name.clone(),
                cause: format!("panicked: {message}"),
            },
        }),
        FailurePolicy::Quarantine => Ok(Delivery::Failure(FailedRun::new(
            spec,
            1,
            first_error.cause(),
        ))),
        FailurePolicy::Retry { max_attempts } => {
            let mut attempts = 1u32;
            let mut last_error = first_error;
            while attempts < max_attempts {
                attempts += 1;
                match run_isolated(spec) {
                    Ok(outcome) => return Ok(Delivery::Outcome(outcome)),
                    Err(error) => last_error = error,
                }
            }
            Ok(Delivery::Failure(FailedRun::new(
                spec,
                attempts,
                last_error.cause(),
            )))
        }
    }
}

// ---------------------------------------------------------------------------
// Delivery sink: aggregation + journaling in one place
// ---------------------------------------------------------------------------

/// Collects deliveries in run order, journaling each (fresh ones only)
/// before folding it into the aggregator — so anything the aggregator
/// saw is durable, and a crash between the two replays identically. The
/// observer fires on every absorbed entry (replayed and fresh alike),
/// *after* the journal append, so a subscriber never sees a result that
/// would vanish on a crash.
struct Sink<'a> {
    aggregator: CampaignAggregator,
    outcomes: Vec<RunOutcome>,
    failures: Vec<FailedRun>,
    writer: Option<JournalWriter>,
    observer: DeliveryObserver<'a>,
}

impl Sink<'_> {
    fn absorb(&mut self, entry: JournalEntry, replayed: bool) {
        (self.observer)(&entry, replayed);
        match entry {
            JournalEntry::Outcome(outcome) => {
                self.aggregator.absorb(&outcome);
                self.outcomes.push(outcome);
            }
            JournalEntry::Failure(failure) => {
                self.aggregator.absorb_failure(&failure);
                self.failures.push(failure);
            }
        }
    }

    fn deliver(&mut self, delivery: Delivery) -> Result<(), CampaignError> {
        let entry = match delivery {
            Delivery::Outcome(outcome) => JournalEntry::Outcome(outcome),
            Delivery::Failure(failure) => JournalEntry::Failure(failure),
        };
        if let Some(writer) = &mut self.writer {
            writer
                .append(&entry)
                .map_err(|e| CampaignError::Checkpoint {
                    error: JournalError::Io(e),
                })?;
        }
        self.absorb(entry, false);
        Ok(())
    }
}

/// Validates that journal entries actually describe the head of this
/// campaign's run list (belt to the fingerprint's braces: the journal
/// header already pinned the spec, this pins the expansion).
fn check_replay(entries: &[JournalEntry], runs: &[RunSpec]) -> Result<(), CampaignError> {
    let mismatch = |message: String| CampaignError::Checkpoint {
        error: JournalError::SpecMismatch { message },
    };
    if entries.len() > runs.len() {
        return Err(mismatch(format!(
            "journal holds {} finished runs for a {}-run campaign",
            entries.len(),
            runs.len()
        )));
    }
    for (position, entry) in entries.iter().enumerate() {
        let run = &runs[position];
        if entry.name() != run.name {
            return Err(mismatch(format!(
                "journaled run {position} is `{}`, campaign expects `{}`",
                entry.name(),
                run.name
            )));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Executes a prepared run list (see [`CampaignSpec::expand`] and
/// `record_run_traces`) and reduces it to a [`CampaignReport`], with
/// default options: [`FailurePolicy::Abort`] and no checkpoint journal.
///
/// `workers <= 1` executes sequentially on the calling thread; larger
/// values fan runs out over that many persistent worker threads. The
/// report — outcomes, aggregation and serialized summaries — is
/// byte-identical for every worker count.
///
/// # Errors
///
/// Fails on the first run that cannot execute (unreadable trace file,
/// inconsistent spec, panic inside the simulator); queued work on other
/// workers is discarded.
pub fn execute(
    campaign: &CampaignSpec,
    runs: Vec<RunSpec>,
    workers: usize,
) -> Result<CampaignReport, CampaignError> {
    execute_resumable(campaign, runs, workers, &ExecutionOptions::default())
}

/// [`execute`] with explicit failure handling and checkpoint/resume.
///
/// When `options.journal` is set, each delivered result is appended to
/// the journal before the campaign moves on; re-invoking with the same
/// spec and journal path replays the finished prefix (skipping even the
/// normalization prelude when nothing is left to run) and executes only
/// the tail. Replayed results flow through the aggregator in their
/// original run order, so an interrupted-and-resumed campaign reports
/// byte-identical CSV/JSON to an uninterrupted one.
///
/// # Errors
///
/// * [`CampaignError::Checkpoint`] if the journal cannot be opened,
///   belongs to a different campaign, or cannot be appended to;
/// * under [`FailurePolicy::Abort`], the first failing run as
///   [`CampaignError::RunFailed`] (or its structured error);
/// * run-independent setup failures (e.g. a missing stand-alone IPC
///   reference) regardless of policy.
pub fn execute_resumable(
    campaign: &CampaignSpec,
    runs: Vec<RunSpec>,
    workers: usize,
    options: &ExecutionOptions,
) -> Result<CampaignReport, CampaignError> {
    execute_observed(campaign, runs, workers, options, &mut |_, _| {})
}

/// A result-delivery subscriber for [`execute_observed`]: called with
/// every delivered entry in campaign run order; the `bool` marks entries
/// replayed from the checkpoint journal (as opposed to executed by this
/// invocation).
pub type DeliveryObserver<'a> = &'a mut dyn FnMut(&JournalEntry, bool);

/// [`execute_resumable`] with a result-delivery subscriber: `observer`
/// fires once per delivered run result, in run order, for replayed and
/// freshly-executed results alike — which is how the campaign server
/// streams per-run NDJSON records to clients without buffering whole
/// reports. When a journal is configured the observer fires only *after*
/// the entry is durably appended, so a subscriber never observes a
/// result a crash could take back; on resume, the journal's replayed
/// prefix is observed first (flagged `replayed = true`), giving a
/// late-attaching subscriber the complete result history.
///
/// # Errors
///
/// Exactly [`execute_resumable`]'s.
pub fn execute_observed(
    campaign: &CampaignSpec,
    mut runs: Vec<RunSpec>,
    workers: usize,
    options: &ExecutionOptions,
    observer: DeliveryObserver<'_>,
) -> Result<CampaignReport, CampaignError> {
    // lint: allow(determinism) -- wall-clock duration is report metadata, never simulated state
    let started = Instant::now();
    let total = runs.len();
    let (replay, writer) = match &options.journal {
        Some(path) => {
            let resumed = checkpoint::resume_or_create(
                path,
                checkpoint::fingerprint(campaign),
                total as u64,
            )?;
            check_replay(&resumed.entries, &runs)?;
            (resumed.entries, Some(resumed.writer))
        }
        None => (Vec::new(), None),
    };
    let replayed = replay.len();
    let mut stats = ExecutionStats {
        scheduler: if workers <= 1 {
            "sequential"
        } else {
            "stealing"
        },
        ..ExecutionStats::default()
    };
    // The prelude feeds only runs that will actually execute; a resume
    // with nothing left to do (or an unnormalized campaign) skips it.
    if campaign.normalize && replayed < total {
        let cache = options.journal.as_deref().map(prelude_cache_path);
        let table = alone_ipc_table(
            campaign,
            &runs,
            workers,
            cache.as_deref(),
            &mut stats.prelude,
        );
        attach_alone_ipc(&mut runs, &table)?;
    }
    let mut sink = Sink {
        aggregator: CampaignAggregator::new(campaign.name.clone()),
        outcomes: Vec::with_capacity(total),
        failures: Vec::new(),
        writer,
        observer,
    };
    for entry in replay {
        sink.absorb(entry, true);
    }
    let tail: Vec<RunSpec> = runs.split_off(replayed);
    drop(runs);
    if workers <= 1 {
        for run in &tail {
            let delivery = resolve(run, run_isolated(run), options.policy)?;
            sink.deliver(delivery)?;
        }
    } else {
        execute_stealing(tail, workers, options.policy, &mut sink, &mut stats)?;
    }
    Ok(CampaignReport {
        outcomes: sink.outcomes,
        failures: sink.failures,
        replayed,
        summary: sink.aggregator.finish(),
        wall: started.elapsed(),
        workers: if workers <= 1 { 0 } else { workers },
        scheduling: stats,
    })
}

/// Where the prelude cache lives for a given journal path: the journal's
/// sibling with the `prelude` extension (`campaign.journal` →
/// `campaign.prelude`).
pub fn prelude_cache_path(journal: &Path) -> PathBuf {
    journal.with_extension("prelude")
}

/// The work-stealing run loop: every run goes into the shared injector
/// queue tagged with its position, completions come back in *finish*
/// order, and a reorder buffer releases them to the sink strictly in
/// run order — so the journal, the aggregator and the delivery observer
/// see exactly the sequential sequence while no worker ever idles
/// behind a long run. The failure policy is applied at *release* time
/// (not completion time), which keeps even `Abort`'s journaled prefix
/// and `Retry`'s attempt ordering byte-identical to sequential
/// execution.
fn execute_stealing(
    tail: Vec<RunSpec>,
    workers: usize,
    policy: FailurePolicy,
    sink: &mut Sink<'_>,
    stats: &mut ExecutionStats,
) -> Result<(), CampaignError> {
    let total = tail.len();
    let mut pool: StealingPool<RunSpec, Result<RunOutcome, RunError>> =
        StealingPool::new(workers, |run: &mut RunSpec| {
            // The isolation boundary lives inside the worker: a
            // panicking run reports back as data, and a structured error
            // crosses the pool intact. (The pool's own catch_unwind
            // behind this is the backstop for panics that escape it —
            // e.g. a poisoned payload drop.)
            run_isolated(run)
        });
    // The executor's own copy of every submitted run: panicked attempts
    // drop the item they carried, and `resolve` needs the spec for
    // retries and failure identity.
    let mut pending: Vec<Option<RunSpec>> = tail.iter().map(|run| Some(run.clone())).collect();
    for (seq, run) in tail.into_iter().enumerate() {
        pool.submit(seq as u64, run);
    }
    let mut buffer: BTreeMap<usize, Result<RunOutcome, RunError>> = BTreeMap::new();
    let mut next = 0usize;
    let mut high_water = 0usize;
    let mut completed = 0usize;
    while completed < total {
        let Some(done) = pool.next_completion() else {
            return Err(CampaignError::Spec {
                run: "work-stealing pool".to_owned(),
                message: format!(
                    "worker pool shut down with {} of {total} runs outstanding",
                    total - completed
                ),
            });
        };
        completed += 1;
        let seq = done.seq as usize;
        let first = match done.outcome {
            Outcome::Done(_, result) => result,
            Outcome::Panicked(message) => Err(RunError::Panic(message)),
        };
        // Admit the completion out of order; release the contiguous
        // prefix in strict run order. The buffer bookkeeping itself
        // never allocates — delivery costs (retries, journaling,
        // aggregation) live behind `resolve` and `Sink::deliver`.
        // lint: alloc-free
        {
            buffer.insert(seq, first);
            if buffer.len() > high_water {
                high_water = buffer.len();
            }
            while let Some(first) = buffer.remove(&next) {
                let spec = take_pending(&mut pending, next)?;
                let delivery = resolve(&spec, first, policy)?;
                sink.deliver(delivery)?;
                next += 1;
            }
        }
    }
    stats.workers = pool.tallies();
    stats.reorder_high_water = high_water;
    Ok(())
}

/// Claims the executor-side copy of run `at` exactly once; a second
/// claim means the pool delivered a duplicate completion (impossible by
/// construction, surfaced as a structured error rather than trusted).
fn take_pending(pending: &mut [Option<RunSpec>], at: usize) -> Result<RunSpec, CampaignError> {
    pending[at].take().ok_or_else(|| CampaignError::Spec {
        run: "work-stealing pool".to_owned(),
        message: format!("run {at} completed twice"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::SteppingStats;

    fn tiny_campaign() -> CampaignSpec {
        let mut campaign = CampaignSpec::smoke();
        campaign.mix_count = 1;
        campaign.threads_per_mix = 2;
        campaign.scale.benign_instructions = 400;
        campaign.scale.min_cycles = 20_000;
        campaign
    }

    #[test]
    fn sequential_execution_produces_metrics_and_order() {
        let campaign = tiny_campaign();
        let report = execute(&campaign, campaign.expand(), 0).expect("campaign runs");
        assert_eq!(report.outcomes.len(), campaign.run_count());
        for (i, outcome) in report.outcomes.iter().enumerate() {
            assert_eq!(outcome.index, i);
            assert!(outcome.metrics.is_some(), "normalized campaign has metrics");
        }
        assert_eq!(report.summary.runs, campaign.run_count());
        assert!(report.failures.is_empty());
        assert_eq!(report.replayed, 0);
        assert!(report.runs_per_sec().is_some_and(|rate| rate > 0.0));
        // Every sweep point must have normalized metrics (Baseline is in
        // the defense axis).
        assert!(report.summary.points.iter().all(|p| p.normalized.is_some()));
    }

    #[test]
    fn zero_executed_runs_report_no_rate() {
        let report = CampaignReport {
            outcomes: Vec::new(),
            failures: Vec::new(),
            replayed: 0,
            summary: CampaignAggregator::new("empty").finish(),
            wall: Duration::ZERO,
            workers: 0,
            scheduling: ExecutionStats::default(),
        };
        assert_eq!(report.runs_per_sec(), None);
        // A fully-replayed resume also executed nothing.
        let replayed = CampaignReport {
            replayed: 1,
            outcomes: vec![RunOutcome {
                index: 0,
                name: "r".into(),
                scenario: "attack".into(),
                defense: "Baseline".into(),
                n_rh: 1,
                channels: 1,
                total_cycles: 1,
                activations: 0,
                dram_energy_j: 0.0,
                threads: Vec::new(),
                metrics: None,
                stepping: SteppingStats::default(),
            }],
            failures: Vec::new(),
            summary: CampaignAggregator::new("replayed").finish(),
            wall: Duration::from_millis(5),
            workers: 0,
            scheduling: ExecutionStats::default(),
        };
        assert_eq!(replayed.runs_per_sec(), None);
    }

    #[test]
    fn failure_manifest_serializations_quote_causes() {
        let report = CampaignReport {
            outcomes: Vec::new(),
            failures: vec![FailedRun {
                index: 3,
                name: "mix-003/Para/nrh32768/ch1".into(),
                scenario: "attack".into(),
                defense: "Para".into(),
                n_rh: 32_768,
                channels: 1,
                attempts: 2,
                cause: "panicked: index 4, len 4, with \"quotes\"".into(),
            }],
            replayed: 0,
            summary: CampaignAggregator::new("t").finish(),
            wall: Duration::ZERO,
            workers: 0,
            scheduling: ExecutionStats::default(),
        };
        let csv = report.failures_csv();
        assert!(csv.starts_with("index,name,scenario,defense,"));
        assert!(csv.contains("\"panicked: index 4, len 4, with \"\"quotes\"\"\""));
        let json = report.failures_json();
        assert!(json.contains("\\\"quotes\\\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn normalization_can_be_disabled() {
        let mut campaign = tiny_campaign();
        campaign.normalize = false;
        let report = execute(&campaign, campaign.expand(), 0).expect("campaign runs");
        assert!(report.outcomes.iter().all(|o| o.metrics.is_none()));
        assert!(report.summary.points.iter().all(|p| p.metrics.is_none()));
    }

    #[test]
    fn missing_alone_reference_is_reported() {
        let campaign = tiny_campaign();
        let mut runs = campaign.expand();
        // Give a benign thread a non-synthetic generator: the prelude
        // cannot measure a stand-alone IPC for it, which must surface as
        // an error, not a panic.
        let victim = runs
            .iter_mut()
            .flat_map(|r| r.threads.iter_mut())
            .find(|t| !t.is_attacker)
            .expect("a benign thread exists");
        victim.name = "not-a-workload".to_owned();
        victim.generator = ThreadGenerator::Attack(workloads::AttackKind::DoubleSided);
        match execute(&campaign, runs, 0) {
            Err(CampaignError::Spec { message, .. }) => {
                assert!(message.contains("not-a-workload"))
            }
            other => panic!("expected a spec error, got {other:?}"),
        }
    }

    #[test]
    fn a_failing_run_aborts_by_default_with_its_identity() {
        let campaign = tiny_campaign();
        let mut runs = campaign.expand();
        // A benign thread pointing at a missing trace file fails its run.
        runs[1].threads[0].trace = Some(crate::trace::TraceSource {
            path: PathBuf::from("does/not/exist.trace"),
            repeat: false,
        });
        match execute(&campaign, runs, 0) {
            Err(CampaignError::Trace { run, .. }) => assert!(run.contains('/')),
            other => panic!("expected the structured trace error, got {other:?}"),
        }
    }

    #[test]
    fn quarantine_completes_the_campaign_and_flags_the_point() {
        let campaign = tiny_campaign();
        let mut runs = campaign.expand();
        let total = runs.len();
        runs[1].threads[0].trace = Some(crate::trace::TraceSource {
            path: PathBuf::from("does/not/exist.trace"),
            repeat: false,
        });
        let victim_name = runs[1].name.clone();
        let options = ExecutionOptions {
            policy: FailurePolicy::Quarantine,
            journal: None,
        };
        let report = execute_resumable(&campaign, runs, 0, &options).expect("campaign completes");
        assert_eq!(report.outcomes.len(), total - 1);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].name, victim_name);
        assert_eq!(report.failures[0].attempts, 1);
        assert_eq!(report.summary.failed, 1);
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
        assert!(report.failures_csv().contains(&victim_name));
    }

    #[test]
    fn retry_exhaustion_quarantines_with_the_attempt_count() {
        let campaign = tiny_campaign();
        let mut runs = campaign.expand();
        runs[0].threads[0].trace = Some(crate::trace::TraceSource {
            path: PathBuf::from("does/not/exist.trace"),
            repeat: false,
        });
        let options = ExecutionOptions {
            policy: FailurePolicy::Retry { max_attempts: 3 },
            journal: None,
        };
        let report = execute_resumable(&campaign, runs, 0, &options).expect("campaign completes");
        assert_eq!(
            report.failures.len(),
            1,
            "a permanent fault exhausts retries"
        );
        assert_eq!(report.failures[0].attempts, 3);
    }

    #[test]
    fn observer_sees_every_delivery_in_run_order_with_replay_flags() {
        let campaign = tiny_campaign();
        let dir = std::env::temp_dir().join(format!("bh-observer-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let journal = dir.join("observer.journal");
        let _ = std::fs::remove_file(&journal);
        let options = ExecutionOptions {
            policy: FailurePolicy::Abort,
            journal: Some(journal.clone()),
        };
        let total = campaign.run_count();
        // Fresh execution: every delivery observed in run order, none
        // flagged as replayed.
        let mut seen: Vec<(usize, bool)> = Vec::new();
        let report = execute_observed(&campaign, campaign.expand(), 0, &options, &mut |e, r| {
            seen.push((e.index(), r));
        })
        .expect("campaign runs");
        assert_eq!(
            seen,
            (0..total).map(|i| (i, false)).collect::<Vec<_>>(),
            "fresh deliveries arrive in run order, unflagged"
        );
        // Resume over the complete journal: the same history replays to a
        // late-attaching observer, now flagged.
        let mut replayed: Vec<(usize, bool)> = Vec::new();
        let resumed = execute_observed(&campaign, campaign.expand(), 0, &options, &mut |e, r| {
            replayed.push((e.index(), r));
        })
        .expect("resume runs");
        assert_eq!(
            replayed,
            (0..total).map(|i| (i, true)).collect::<Vec<_>>(),
            "replayed deliveries arrive in run order, flagged"
        );
        assert_eq!(resumed.replayed, total);
        assert_eq!(resumed.summary.to_csv(), report.summary.to_csv());
        let _ = std::fs::remove_file(&journal);
    }
}
