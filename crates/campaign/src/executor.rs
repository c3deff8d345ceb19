//! The campaign executor: fans whole runs out across the work-stealing
//! pool and streams results back in deterministic order.
//!
//! Execution has three steps:
//!
//! 1. **Normalization prelude** (when `CampaignSpec::normalize`): every
//!    distinct (benign workload, channel count) pair is run stand-alone
//!    under the no-mitigation baseline, producing the alone-IPC reference
//!    table the paper's multiprogrammed metrics divide by. The prelude
//!    jobs are independent of each other, so they fan out over the same
//!    worker pool as the run matrix; the finished table is keyed and
//!    stored *sorted*, so its contents are identical for every worker
//!    count. With a journal configured, a fresh journal records the
//!    table as its first record, so a resumed campaign reads its
//!    references back instead of re-simulating them — observable as
//!    [`PreludeStats::from_cache`].
//! 2. **Run sharing**: every generator-driven run gets a *simulation
//!    identity*, the fields of its [`RunSpec`] that its simulation reads
//!    (everything but the labels `index`, `name`, `mix_name` and
//!    `scenario`), with the full-scale threshold replaced by the one the
//!    defense is built with, or none for a defense that takes none. The
//!    first run of each identity (its *primary*) is simulated. A later
//!    run with the same identity (a *copy*) is delivered in run order as
//!    its primary's outcome under its own labels, through the same fault
//!    hook, journal, observer and aggregator as a simulated run; it is
//!    simulated itself when its primary delivered no outcome, and a run
//!    with a trace file is always simulated. So a threshold sweep
//!    simulates Baseline once per mix, and thresholds that scale to the
//!    same effective N_RH once per defense. [`ExecutionStats::shared_runs`]
//!    counts the copies.
//! 3. **The run matrix**: every simulated [`RunSpec`], either on the calling
//!    thread (`workers <= 1`) or fanned out over `workers` threads. The
//!    executor keeps the one copy of the run list and hands a
//!    [`StealingPool`] only its length: idle workers claim the next run
//!    index from a shared cursor the moment they finish, so no worker
//!    ever waits behind a long run, and completions, which arrive in
//!    *finish* order, pass through a reorder buffer that releases them
//!    strictly in run order. Outcomes
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
use crate::checkpoint::{self, JournalEntry, JournalError, JournalWriter, PreludeTable};
use crate::runner::{run_spec, CampaignError, FailedRun, RunOutcome};
use crate::spec::{CampaignSpec, RunScale, RunSpec, ThreadGenerator, ThreadSpec};
use sim::pool::{panic_message, Outcome, StealingPool};
use sim::DefenseKind;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
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
    /// resumes after any runs the journal already holds. A fresh
    /// journal also records the normalization prelude's reference table
    /// as its first record, which a resumed campaign reads back.
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
    /// References read back from the checkpoint journal instead of
    /// simulated.
    pub from_cache: usize,
}

/// Scheduling telemetry for one invocation: who did the work and how
/// out-of-order it came back. Serialized as `scheduling.csv`
/// ([`CampaignReport::scheduling_csv`]) and into the server's status
/// document ([`crate::wire::scheduling_json`]). Deliberately *not* part
/// of the byte-identity contract — most of its contents are wall-clock-
/// and worker-dependent by construction, like `stepping.csv`'s are
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
    /// Runs this invocation delivered as an earlier run's outcome instead
    /// of simulating them: copies whose primary (the first run with the
    /// same simulation identity) had delivered an outcome. Deterministic:
    /// it depends only on the run list, the failures and, on resume, what
    /// the journal holds.
    pub shared_runs: usize,
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
    /// mark, prelude accounting).
    pub scheduling: ExecutionStats,
}

impl CampaignReport {
    /// Runs this invocation delivered (completed or quarantined, copies
    /// of an earlier run's simulation included) per wall-clock second, or
    /// `None` when this invocation delivered nothing — an empty campaign,
    /// or a resume that found every run already journaled. (Replayed
    /// results are excluded: reading a journal record is not executing a
    /// run, and counting it would report a fantasy rate.)
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
        csv.push_str(&format!("shared_runs,{}\n", s.shared_runs));
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

/// A sensible default worker count for [`execute`] on this machine: one
/// worker per available hardware thread. The calling thread only collects
/// results and runs no simulation, so it needs no thread of its own. One
/// hardware thread (or an unknown count) gives 1 worker, which runs the
/// campaign sequentially.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The stand-alone IPC reference table: one entry per distinct (benign
/// workload, channel count) pair, sorted by that pair so lookups run on
/// *borrowed* keys (a binary search over `(&str, usize)`) — attaching
/// references to the paper-scale 250-mix matrix allocates nothing per
/// run.
struct AloneIpcTable {
    /// `(workload name, channels, alone IPC)`, sorted by the key pair.
    entries: PreludeTable,
}

impl AloneIpcTable {
    fn get(&self, name: &str, channels: usize) -> Option<f64> {
        self.entries
            .binary_search_by(|(n, c, _)| (n.as_str(), *c).cmp(&(name, channels)))
            .ok()
            .map(|at| self.entries[at].2)
    }
}

/// One prelude measurement: a workload run stand-alone on the
/// unprotected baseline.
struct PreludeJob {
    name: String,
    channels: usize,
    spec: SyntheticSpec,
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

/// Builds the stand-alone IPC reference table for `runs`: the
/// `journaled` table when its keys are exactly this run list's, and
/// otherwise a measurement of every pair — fanned out over `workers`
/// pool threads when pooling is on, since the jobs are mutually
/// independent and the table is sorted regardless of completion order.
fn alone_ipc_table(
    campaign: &CampaignSpec,
    runs: &[RunSpec],
    workers: usize,
    journaled: Option<PreludeTable>,
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
                    },
                ),
            }
        }
    }
    stats.references = jobs.len();
    if let Some(entries) = journaled {
        let matches = entries.len() == jobs.len()
            && entries
                .iter()
                .zip(&jobs)
                .all(|((name, channels, _), job)| *name == job.name && *channels == job.channels);
        if matches {
            stats.from_cache = entries.len();
            return AloneIpcTable { entries };
        }
    }
    stats.computed = jobs.len();
    let jobs = Arc::new(jobs);
    let mut measured: Vec<Option<f64>> = vec![None; jobs.len()];
    if workers >= 2 && jobs.len() >= 2 {
        // Each completion carries its job's index, so the sorted order
        // is restored by construction no matter which worker finishes
        // first.
        let reference = Arc::new(campaign.clone());
        let shared = Arc::clone(&jobs);
        let mut pool = StealingPool::new(workers, jobs.len(), move |at| {
            measure_alone_ipc(&reference, &shared[at])
        });
        while let Some((at, outcome)) = pool.next_completion() {
            if let Outcome::Done(ipc) = outcome {
                measured[at] = Some(ipc);
            }
        }
    }
    // Whatever the pool did not measure (everything when sequential, a
    // panicked job otherwise) is measured in-line from the owner's copy,
    // where a panic — a simulator bug, not a per-run fault — propagates
    // to the caller.
    let entries = jobs
        .iter()
        .zip(measured)
        .map(|(job, ipc)| {
            let ipc = ipc.unwrap_or_else(|| measure_alone_ipc(campaign, job));
            (job.name.clone(), job.channels, ipc)
        })
        .collect();
    AloneIpcTable { entries }
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
// Run sharing
// ---------------------------------------------------------------------------

/// What a generator-driven run's simulation reads: every field of its
/// [`RunSpec`] that reaches `run_spec`'s `SystemBuilder` or its metrics,
/// with the full-scale threshold replaced by the one the defense is built
/// with. Two runs with equal identities have equal outcomes apart from
/// their labels.
#[derive(PartialEq)]
struct SimulationIdentity<'a> {
    defense: DefenseKind,
    /// The effective threshold [`DefenseKind::build`] reads, or `None`
    /// for a defense that takes none.
    n_rh: Option<u64>,
    channels: usize,
    seed: u64,
    scale: RunScale,
    threads: &'a [ThreadSpec],
    alone_ipc: &'a [f64],
}

impl<'a> SimulationIdentity<'a> {
    /// The identity of `run`, or `None` when one of its threads replays
    /// a trace file: such a run is always simulated.
    fn of(run: &'a RunSpec) -> Option<Self> {
        // Destructured in full, so that a new field has to be placed on
        // one side: a label, or something the simulation reads.
        let RunSpec {
            index: _,
            name: _,
            mix_name: _,
            scenario: _,
            defense,
            paper_n_rh,
            channels,
            seed,
            scale,
            threads,
            alone_ipc,
        } = run;
        if threads.iter().any(|thread| thread.trace.is_some()) {
            return None;
        }
        Some(Self {
            defense: *defense,
            n_rh: defense
                .reads_threshold()
                .then(|| sim::scaled_n_rh(*paper_n_rh, scale.time_scale)),
            channels: *channels,
            seed: *seed,
            scale: *scale,
            threads,
            alone_ipc,
        })
    }

    /// A hash of the scalar fields and the thread names under `keys`:
    /// equal identities hash alike.
    fn digest(&self, keys: &RandomState) -> u64 {
        let mut hasher = keys.build_hasher();
        (self.defense, self.n_rh, self.channels, self.seed).hash(&mut hasher);
        for thread in self.threads {
            thread.name.hash(&mut hasher);
        }
        hasher.finish()
    }
}

/// For every run, the position of its primary — the first earlier run
/// with the same simulation identity — or `None` when the run is the
/// first of its identity or has none. One pass over borrowed fields: a
/// run is compared only with the first run of its digest, and one whose
/// digest matches a different identity (only the scalar fields and the
/// thread names are hashed) is simulated itself. Run lists can arrive
/// from outside the program (the campaign server), so the digests are
/// keyed by the standard library's randomly seeded hasher.
fn primaries(runs: &[RunSpec]) -> Vec<Option<usize>> {
    let identities: Vec<Option<SimulationIdentity<'_>>> =
        runs.iter().map(SimulationIdentity::of).collect();
    let keys = RandomState::new();
    let mut firsts: HashMap<u64, usize> = HashMap::with_capacity(runs.len());
    identities
        .iter()
        .enumerate()
        .map(|(at, identity)| {
            let identity = identity.as_ref()?;
            let first = *firsts.entry(identity.digest(&keys)).or_insert(at);
            (first != at && identities[first].as_ref() == Some(identity)).then_some(first)
        })
        .collect()
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

/// One attempt at a run behind the isolation boundary: a panic anywhere
/// in the simulator comes back as a [`RunError::Panic`] instead of
/// unwinding the executor (or a pool worker). Given `primary`, the
/// outcome of an earlier run with the same simulation identity, the run
/// is not simulated: it takes that outcome under its own labels, after
/// the same fault hook a simulation passes first.
fn attempt(spec: &RunSpec, primary: Option<&RunOutcome>) -> Result<RunOutcome, RunError> {
    let run = || match primary {
        Some(outcome) => {
            crate::faults::before_run(spec.index);
            Ok(outcome.relabeled(spec))
        }
        None => run_spec(spec),
    };
    match catch_unwind(AssertUnwindSafe(run)) {
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
/// performing any retries — each an [`attempt`] with the same `primary`
/// — synchronously on the calling thread (the collector), so delivery
/// order never depends on retry timing.
fn resolve(
    spec: &RunSpec,
    primary: Option<&RunOutcome>,
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
                match attempt(spec, primary) {
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
    /// For every absorbed run, in run order, its position in `outcomes`
    /// (`None` when it was quarantined).
    delivered: Vec<Option<usize>>,
    /// Copies delivered as their primary's outcome.
    shared_runs: usize,
    writer: Option<JournalWriter>,
    observer: DeliveryObserver<'a>,
}

impl Sink<'_> {
    fn absorb(&mut self, entry: JournalEntry, replayed: bool) {
        (self.observer)(&entry, replayed);
        match entry {
            JournalEntry::Outcome(outcome) => {
                self.aggregator.absorb(&outcome);
                self.delivered.push(Some(self.outcomes.len()));
                self.outcomes.push(outcome);
            }
            JournalEntry::Failure(failure) => {
                self.aggregator.absorb_failure(&failure);
                self.delivered.push(None);
                self.failures.push(failure);
            }
        }
    }

    /// The outcome the run at position `run` delivered, replayed or
    /// fresh; `None` if it was quarantined or is not delivered yet.
    fn outcome_at(&self, run: usize) -> Option<&RunOutcome> {
        let at = (*self.delivered.get(run)?)?;
        self.outcomes.get(at)
    }

    /// Runs `spec` and delivers it. A copy (`primary` is the position of
    /// the first run with its simulation identity) takes that run's
    /// delivered outcome; any other run, and a copy whose primary
    /// delivered none, is simulated here.
    fn run_and_deliver(
        &mut self,
        spec: &RunSpec,
        primary: Option<usize>,
        policy: FailurePolicy,
    ) -> Result<(), CampaignError> {
        let shared = primary.and_then(|at| self.outcome_at(at));
        let copied = shared.is_some();
        let delivery = resolve(spec, shared, attempt(spec, shared), policy)?;
        if copied && matches!(delivery, Delivery::Outcome(_)) {
            self.shared_runs += 1;
        }
        self.deliver(delivery)
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
/// values fan runs out over that many worker threads. The
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
/// spec and journal path replays the finished prefix and executes only
/// the tail. The normalization prelude is skipped when nothing is left
/// to run, and otherwise read back from the journal's prelude record
/// when that matches this run list's references. Replayed results flow
/// through the aggregator in their original run order, so an
/// interrupted-and-resumed campaign reports byte-identical CSV/JSON to
/// an uninterrupted one.
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
    let (journaled, replay, mut writer) = match &options.journal {
        Some(path) => {
            let resumed = checkpoint::resume_or_create(
                path,
                checkpoint::fingerprint(campaign),
                total as u64,
            )?;
            check_replay(&resumed.entries, &runs)?;
            (resumed.prelude, resumed.entries, Some(resumed.writer))
        }
        None => (None, Vec::new(), None),
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
        // Only a journal that holds no record yet can take the table as
        // its first; any other is left as it is (an older journal, or a
        // table whose keys this run list does not share).
        let fresh = journaled.is_none() && replayed == 0;
        let table = alone_ipc_table(campaign, &runs, workers, journaled, &mut stats.prelude);
        if let Some(writer) = writer.as_mut().filter(|_| fresh) {
            writer
                .append_prelude(&table.entries)
                .map_err(|e| CampaignError::Checkpoint {
                    error: JournalError::Io(e),
                })?;
        }
        attach_alone_ipc(&mut runs, &table)?;
    }
    // After the prelude: the alone IPCs are part of a run's identity.
    let primaries = primaries(&runs);
    let mut sink = Sink {
        aggregator: CampaignAggregator::new(campaign.name.clone()),
        outcomes: Vec::with_capacity(total),
        failures: Vec::new(),
        delivered: Vec::with_capacity(total),
        shared_runs: 0,
        writer,
        observer,
    };
    for entry in replay {
        sink.absorb(entry, true);
    }
    let tail: Vec<RunSpec> = runs.split_off(replayed);
    drop(runs);
    let tail_primaries = &primaries[replayed..];
    if workers <= 1 {
        for (run, primary) in tail.iter().zip(tail_primaries) {
            sink.run_and_deliver(run, *primary, options.policy)?;
        }
    } else {
        execute_stealing(
            tail,
            tail_primaries,
            workers,
            options.policy,
            &mut sink,
            &mut stats,
        )?;
    }
    stats.shared_runs = sink.shared_runs;
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

/// The work-stealing run loop: workers claim the runs to simulate from
/// the pool's shared cursor and read them from the executor's one copy,
/// completions come back in *finish* order, and a reorder buffer
/// releases them to the sink strictly in run order — so the journal, the
/// aggregator and the delivery observer see exactly the sequential
/// sequence while no worker ever idles behind a long run. Copies
/// (`primaries[at]` is set) are no pool jobs: each is delivered when its
/// turn comes, after its primary. The failure policy is applied at
/// *release* time (not completion time), which keeps even `Abort`'s
/// journaled prefix and `Retry`'s attempt ordering byte-identical to
/// sequential execution.
fn execute_stealing(
    tail: Vec<RunSpec>,
    primaries: &[Option<usize>],
    workers: usize,
    policy: FailurePolicy,
    sink: &mut Sink<'_>,
    stats: &mut ExecutionStats,
) -> Result<(), CampaignError> {
    let total = tail.len();
    // Job `j` simulates the `j`-th run that copies no earlier one.
    let simulated: Vec<usize> = (0..total).filter(|&at| primaries[at].is_none()).collect();
    let jobs = simulated.len();
    let tail = Arc::new(tail);
    let runs = Arc::clone(&tail);
    // The isolation boundary lives inside the worker: a panicking run
    // reports back as data, and a structured error crosses the pool
    // intact. (The pool's own catch_unwind behind this is the backstop
    // for panics that escape it — e.g. a poisoned payload drop.)
    let mut pool = StealingPool::new(workers, jobs, move |job| {
        attempt(&runs[simulated[job]], None)
    });
    let mut buffer: BTreeMap<usize, Result<RunOutcome, RunError>> = BTreeMap::new();
    let mut next = 0usize;
    let mut next_job = 0usize;
    let mut high_water = 0usize;
    loop {
        // Release the contiguous prefix in strict run order: a simulated
        // run once its completion is in, a copy at once (its primary came
        // earlier). The buffer bookkeeping itself never allocates —
        // delivery costs (retries, copies, journaling, aggregation) live
        // behind `resolve` and the sink.
        // lint: alloc-free
        {
            while next < total {
                let run = &tail[next];
                match primaries[next] {
                    Some(primary) => sink.run_and_deliver(run, Some(primary), policy)?,
                    None => {
                        let Some(first) = buffer.remove(&next_job) else {
                            break;
                        };
                        sink.deliver(resolve(run, None, first, policy)?)?;
                        next_job += 1;
                    }
                }
                next += 1;
            }
        }
        if next == total {
            break;
        }
        let Some((job, outcome)) = pool.next_completion() else {
            return Err(CampaignError::Spec {
                run: "work-stealing pool".to_owned(),
                message: format!(
                    "worker pool shut down with {} of {total} runs outstanding",
                    total - next
                ),
            });
        };
        let first = match outcome {
            Outcome::Done(result) => result,
            Outcome::Panicked(message) => Err(RunError::Panic(message)),
        };
        buffer.insert(job, first);
        high_water = high_water.max(buffer.len());
    }
    stats.workers = pool.tallies();
    stats.reorder_high_water = high_water;
    Ok(())
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

    /// `campaign`'s runs as the executor simulates them: with the alone
    /// IPCs of a sequential prelude attached.
    fn prepared(campaign: &CampaignSpec) -> Vec<RunSpec> {
        let mut runs = campaign.expand();
        let table = alone_ipc_table(campaign, &runs, 0, None, &mut PreludeStats::default());
        attach_alone_ipc(&mut runs, &table).expect("every reference is measured");
        runs
    }

    /// Figure 6's defenses and thresholds at quick scale, where all four
    /// thresholds scale to the floor of 16.
    fn figure_6_at_quick(mixes: usize) -> CampaignSpec {
        let mut defenses = vec![DefenseKind::Baseline];
        defenses.extend(DefenseKind::figure_6_set());
        CampaignSpec {
            name: "fig6-quick".to_owned(),
            defenses,
            n_rh_points: vec![32_768, 8_192, 2_048, 1_024],
            ..CampaignSpec::quick(mixes)
        }
    }

    /// How many runs of `runs` are copies of an earlier one.
    fn copies(runs: &[RunSpec]) -> usize {
        primaries(runs).iter().flatten().count()
    }

    #[test]
    fn every_copy_equals_a_simulation_of_its_own_spec() {
        // Sharing has no off switch, so the oracle is `run_spec` on the
        // copy's own spec, alone IPCs included.
        for campaign in [CampaignSpec::quick(2), figure_6_at_quick(1)] {
            let runs = prepared(&campaign);
            let primaries = primaries(&runs);
            let report = execute(&campaign, campaign.expand(), 0).expect("campaign runs");
            let copied: Vec<usize> = (0..runs.len())
                .filter(|&at| primaries[at].is_some())
                .collect();
            assert!(!copied.is_empty(), "{} shares no run", campaign.name);
            assert_eq!(report.scheduling.shared_runs, copied.len());
            for at in copied {
                let alone = run_spec(&runs[at]).expect("the copy simulates");
                assert_eq!(report.outcomes[at], alone, "{}", runs[at].name);
            }
        }
    }

    #[test]
    fn baseline_and_prohit_simulate_alike_at_every_threshold() {
        // Neither takes a threshold: at quick scale 524,288 and 131,072
        // scale to 64 and 16, and the runs still agree apart from labels.
        let mut campaign = tiny_campaign();
        campaign.defenses = vec![DefenseKind::Baseline, DefenseKind::ProHit];
        campaign.n_rh_points = vec![524_288, 131_072];
        let runs = campaign.expand();
        let per_point = runs.len() / 2;
        for (first, second) in runs[..per_point].iter().zip(&runs[per_point..]) {
            let first_outcome = run_spec(first).expect("the first point runs");
            let second_outcome = run_spec(second).expect("the second point runs");
            assert_eq!(
                second_outcome,
                first_outcome.relabeled(second),
                "{}",
                second.name
            );
        }
        let expected: Vec<Option<usize>> = (0..runs.len())
            .map(|at| at.checked_sub(per_point))
            .collect();
        assert_eq!(primaries(&runs), expected);
    }

    #[test]
    fn a_threshold_reading_defense_is_shared_only_at_an_equal_effective_threshold() {
        let mut campaign = tiny_campaign();
        campaign.defenses = DefenseKind::figure_4_and_5_set();
        campaign
            .defenses
            .retain(|kind| *kind != DefenseKind::ProHit);
        campaign.defenses.push(DefenseKind::BlockHammerObserve);
        assert!(campaign.defenses.iter().all(DefenseKind::reads_threshold));
        // At quick scale the points scale to 64, 16 and 16.
        campaign.n_rh_points = vec![524_288, 131_072, 32_768];
        let runs = campaign.expand();
        let per_point = runs.len() / 3;
        let expected: Vec<Option<usize>> = (0..runs.len())
            .map(|at| (at >= 2 * per_point).then(|| at - per_point))
            .collect();
        assert_eq!(primaries(&runs), expected);
    }

    #[test]
    fn a_run_with_a_trace_file_is_always_simulated() {
        let mut runs = CampaignSpec::quick(2).expand();
        assert!(copies(&runs) > 0);
        for run in &mut runs {
            run.threads[0].trace = Some(crate::trace::TraceSource {
                path: PathBuf::from("recorded.trace"),
                repeat: run.threads[0].is_attacker,
            });
        }
        assert_eq!(copies(&runs), 0);
    }

    #[test]
    fn sweeps_share_the_runs_whose_simulation_repeats() {
        // The second threshold's Baseline runs: 12 mixes x 2 scenarios.
        assert_eq!(copies(&CampaignSpec::quick(12).expand()), 24);
        assert_eq!(copies(&CampaignSpec::smoke().expand()), 0);
        // The attack-only, one-threshold shape of the benchmark's
        // `attack-long` workload repeats no run.
        let attack_long = CampaignSpec {
            name: "attack-long".to_owned(),
            mix_count: 10,
            scenarios: vec![crate::spec::Scenario::Attack(
                workloads::AttackKind::DoubleSided,
            )],
            defenses: vec![
                DefenseKind::Baseline,
                DefenseKind::BlockHammer,
                DefenseKind::Graphene,
            ],
            n_rh_points: vec![32_768],
            scale: RunScale {
                benign_instructions: 10_000,
                ..RunScale::quick()
            },
            ..CampaignSpec::quick(10)
        };
        assert_eq!(copies(&attack_long.expand()), 0);
        // Figure 6 at quick: of each mix and scenario's 20 runs (five
        // defenses at four thresholds), only the first threshold's five
        // are simulated.
        let figure_6 = figure_6_at_quick(3);
        let runs = figure_6.expand();
        assert_eq!(runs.len(), 20 * 3 * 2);
        assert_eq!(copies(&runs), 15 * 3 * 2);
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
    fn an_empty_looped_attacker_trace_is_a_trace_error() {
        // An empty file cannot be replayed in a loop: the run must fail
        // with the trace error naming the file, not with a panic that the
        // isolation boundary reports as `RunFailed`.
        let campaign = tiny_campaign();
        let mut runs = campaign.expand();
        let dir = std::env::temp_dir().join(format!("bh-empty-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let empty = dir.join("attacker.trace");
        std::fs::write(&empty, b"").expect("empty trace file");
        let attacker = runs
            .iter_mut()
            .flat_map(|r| r.threads.iter_mut())
            .find(|t| t.is_attacker)
            .expect("the smoke campaign runs an attacker");
        attacker.trace = Some(crate::trace::TraceSource {
            path: empty.clone(),
            repeat: true,
        });
        let result = execute(&campaign, runs, 0);
        let _ = std::fs::remove_dir_all(&dir);
        match result {
            Err(CampaignError::Trace {
                error: crate::trace::TraceError::EmptyLoop { path },
                ..
            }) => assert_eq!(path, empty),
            other => panic!("expected the empty-loop trace error, got {other:?}"),
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
