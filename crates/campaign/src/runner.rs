//! Materializing and executing one [`RunSpec`].
//!
//! A run can execute straight from its generators (synthetic workloads
//! and attack patterns) or from recorded trace files
//! ([`record_run_traces`] + [`TraceSource`]); both paths produce
//! bit-identical results because the recorder consumes the *exact*
//! thread iterators the generator path feeds the simulator
//! (`SystemBuilder::into_thread_traces`).

use crate::spec::{RunSpec, ThreadGenerator};
use crate::trace::{record_trace_file, TraceError, TraceFormat, TraceSource};
use bh_types::TraceRecord;
use memctrl::MemCtrlConfig;
use sim::{BoxedTrace, MultiProgramMetrics, SteppingStats, SystemBuilder};
use std::fmt;
use std::path::Path;
use workloads::AttackSpec;

/// Why a campaign could not complete.
#[derive(Debug)]
pub enum CampaignError {
    /// A trace file could not be read or written for a run.
    Trace {
        /// The run's name.
        run: String,
        /// The underlying trace failure.
        error: TraceError,
    },
    /// A run's specification was internally inconsistent.
    Spec {
        /// The run's name.
        run: String,
        /// What was wrong.
        message: String,
    },
    /// A run failed (panicked or errored) under
    /// `FailurePolicy::Abort` — the isolation boundary turned the
    /// failure into this structured error instead of unwinding the
    /// whole process.
    RunFailed {
        /// Position of the failed run in the campaign's run order.
        index: usize,
        /// The run's name.
        run: String,
        /// The panic message or underlying error.
        cause: String,
    },
    /// The checkpoint journal could not be opened, resumed from, or
    /// appended to.
    Checkpoint {
        /// The underlying journal failure.
        error: crate::checkpoint::JournalError,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Trace { run, error } => write!(f, "run `{run}`: {error}"),
            CampaignError::Spec { run, message } => write!(f, "run `{run}`: {message}"),
            CampaignError::RunFailed { index, run, cause } => {
                write!(f, "run {index} `{run}` failed: {cause}")
            }
            CampaignError::Checkpoint { error } => write!(f, "campaign checkpoint: {error}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<crate::checkpoint::JournalError> for CampaignError {
    fn from(error: crate::checkpoint::JournalError) -> Self {
        CampaignError::Checkpoint { error }
    }
}

/// A run quarantined by the executor's failure policy: identity,
/// attempt count and cause, as it lands in the failure manifest and the
/// checkpoint journal.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedRun {
    /// Position of the run in the campaign's run order.
    pub index: usize,
    /// Run name (`<mix>/<defense>/nrh<n>/ch<c>`).
    pub name: String,
    /// Scenario label.
    pub scenario: String,
    /// Defense label.
    pub defense: String,
    /// Full-scale RowHammer threshold of the sweep point.
    pub n_rh: u64,
    /// Channel count of the sweep point.
    pub channels: usize,
    /// How many times the run was attempted before being quarantined.
    pub attempts: u32,
    /// The final attempt's panic message or error.
    pub cause: String,
}

impl FailedRun {
    /// Builds the manifest entry for `spec` after `attempts` failed
    /// attempts, the last with `cause`.
    pub fn new(spec: &RunSpec, attempts: u32, cause: String) -> Self {
        Self {
            index: spec.index,
            name: spec.name.clone(),
            scenario: spec.scenario.clone(),
            defense: spec.defense.label().to_owned(),
            n_rh: spec.paper_n_rh,
            channels: spec.channels,
            attempts,
            cause,
        }
    }
}

/// Per-thread outcome of one campaign run (a compact projection of
/// `sim::ThreadResult`).
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadOutcome {
    /// Workload name.
    pub name: String,
    /// Whether the thread was the attacker.
    pub is_attacker: bool,
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles until the thread finished (or the run ended).
    pub cycles: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Largest RowHammer likelihood index the defense reported for the
    /// thread.
    pub max_rhli: f64,
    /// Memory requests issued.
    pub memory_requests: u64,
}

/// Outcome of one campaign run: everything the aggregator and reports
/// need, without the bulky per-channel statistics of a full `RunResult`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Position in the campaign's run order.
    pub index: usize,
    /// Run name (`<mix>/<defense>/nrh<n>/ch<c>`).
    pub name: String,
    /// Scenario label.
    pub scenario: String,
    /// Defense label.
    pub defense: String,
    /// Full-scale RowHammer threshold of the sweep point.
    pub n_rh: u64,
    /// Channel count of the sweep point.
    pub channels: usize,
    /// Total simulated cycles.
    pub total_cycles: u64,
    /// Total DRAM activations.
    pub activations: u64,
    /// Total DRAM energy in joules.
    pub dram_energy_j: f64,
    /// Per-thread outcomes, in thread order.
    pub threads: Vec<ThreadOutcome>,
    /// The paper's multiprogrammed metrics, when the run had stand-alone
    /// IPC references (`RunSpec::alone_ipc`).
    pub metrics: Option<MultiProgramMetrics>,
    /// Idle-skip accounting of the run's advance loop (how much of the
    /// run event-driven stepping skipped). Deliberately excluded from the
    /// summary CSV/JSON so those artifacts stay bit-identical across
    /// advance modes; reported via `CampaignReport::stepping_csv`.
    pub stepping: SteppingStats,
}

impl RunOutcome {
    /// This outcome delivered as `spec`'s: the same simulation under
    /// `spec`'s labels (index, name, scenario and full-scale threshold).
    /// The executor delivers a run whose simulation repeats an earlier
    /// run's this way; the defense and channel count are the earlier
    /// run's too, since they are part of what made the two simulations
    /// the same.
    pub(crate) fn relabeled(&self, spec: &RunSpec) -> RunOutcome {
        RunOutcome {
            index: spec.index,
            name: spec.name.clone(),
            scenario: spec.scenario.clone(),
            n_rh: spec.paper_n_rh,
            ..self.clone()
        }
    }

    /// Mean IPC of the benign threads.
    pub fn mean_benign_ipc(&self) -> f64 {
        let benign: Vec<f64> = self
            .threads
            .iter()
            .filter(|t| !t.is_attacker)
            .map(|t| t.ipc)
            .collect();
        if benign.is_empty() {
            0.0
        } else {
            benign.iter().sum::<f64>() / benign.len() as f64
        }
    }

    /// Largest attacker RHLI of the run (0 for benign-only runs).
    pub fn max_attacker_rhli(&self) -> f64 {
        self.threads
            .iter()
            .filter(|t| t.is_attacker)
            .map(|t| t.max_rhli)
            .fold(0.0, f64::max)
    }

    /// Largest benign-thread RHLI of the run.
    pub fn max_benign_rhli(&self) -> f64 {
        self.threads
            .iter()
            .filter(|t| !t.is_attacker)
            .map(|t| t.max_rhli)
            .fold(0.0, f64::max)
    }
}

/// The system configuration shared by both materialization paths.
fn base_builder(spec: &RunSpec) -> SystemBuilder {
    spec.scale
        .builder()
        .seed(spec.seed)
        .channels(spec.channels)
        .defense(spec.defense)
        .rowhammer_threshold(spec.paper_n_rh)
}

/// The generator-driven builder: attacker and synthetic workloads in
/// thread order. This is the single definition of how a `RunSpec` maps
/// onto threads — the recorder consumes its materialized iterators, so
/// recorded traces replay bit-identically.
fn generator_builder(spec: &RunSpec) -> SystemBuilder {
    let mut builder = base_builder(spec);
    for thread in &spec.threads {
        builder = match &thread.generator {
            ThreadGenerator::Attack(kind) => builder.add_attacker_kind(*kind),
            ThreadGenerator::Synthetic(synthetic) => {
                builder.add_workload(synthetic.clone(), thread.instruction_limit)
            }
        };
    }
    builder
}

/// Materializes the spec's generator threads and validates that they
/// line up slot-for-slot with `spec.threads` — `SystemBuilder` forces
/// the attacker to thread 0, so a hand-built `RunSpec` that lists its
/// attacker elsewhere would otherwise silently pair threads with the
/// wrong generators (and the wrong trace files).
fn materialize_threads(
    spec: &RunSpec,
) -> Result<Vec<(String, BoxedTrace, bool, u64)>, CampaignError> {
    let threads = generator_builder(spec).into_thread_traces();
    if threads.len() != spec.threads.len() {
        return Err(CampaignError::Spec {
            run: spec.name.clone(),
            message: format!(
                "materialized {} threads for {} thread specs",
                threads.len(),
                spec.threads.len()
            ),
        });
    }
    for (slot, ((name, _, is_attacker, _), thread)) in threads.iter().zip(&spec.threads).enumerate()
    {
        if *name != thread.name || *is_attacker != thread.is_attacker {
            return Err(CampaignError::Spec {
                run: spec.name.clone(),
                message: format!(
                    "thread slot {slot} is `{}` (attacker: {}) in the spec but materializes \
                     as `{name}` (attacker: {is_attacker}); list the attacker first — the \
                     system builder forces it to thread 0",
                    thread.name, thread.is_attacker
                ),
            });
        }
    }
    Ok(threads)
}

/// Executes one run and reduces it to its [`RunOutcome`].
///
/// # Errors
///
/// Fails if a thread's trace file cannot be loaded, the stand-alone
/// IPC references do not match the benign thread count, or the spec's
/// thread order diverges from the builder's (attacker first).
pub fn run_spec(spec: &RunSpec) -> Result<RunOutcome, CampaignError> {
    crate::faults::before_run(spec.index);
    if !spec.alone_ipc.is_empty() && spec.alone_ipc.len() != spec.benign_threads().count() {
        return Err(CampaignError::Spec {
            run: spec.name.clone(),
            message: format!(
                "{} stand-alone IPC references for {} benign threads",
                spec.alone_ipc.len(),
                spec.benign_threads().count()
            ),
        });
    }
    let any_traces = spec.threads.iter().any(|t| t.trace.is_some());
    let system = if any_traces {
        // Every thread goes through `add_trace` so thread order matches
        // the generator path exactly; threads without a trace file get
        // their generator materialized (with the generator path's address
        // slicing and seeding) via `into_thread_traces`.
        let mut materialized: Vec<Option<BoxedTrace>> = materialize_threads(spec)?
            .into_iter()
            .map(|(_, trace, _, _)| Some(trace))
            .collect();
        let mut builder = base_builder(spec);
        for (slot, thread) in spec.threads.iter().enumerate() {
            let trace: BoxedTrace = match &thread.trace {
                Some(source) => source.build().map_err(|error| CampaignError::Trace {
                    run: spec.name.clone(),
                    error,
                })?,
                None => materialized[slot]
                    .take()
                    .ok_or_else(|| CampaignError::Spec {
                        run: spec.name.clone(),
                        message: format!("thread slot {slot} has no materialized generator"),
                    })?,
            };
            builder = builder.add_trace(
                thread.name.clone(),
                trace,
                thread.is_attacker,
                thread.instruction_limit,
            );
        }
        builder.build()
    } else {
        generator_builder(spec).build()
    };
    let result = system.run();
    let metrics = if spec.alone_ipc.is_empty() {
        None
    } else {
        Some(MultiProgramMetrics::compute(&result, &spec.alone_ipc))
    };
    Ok(RunOutcome {
        index: spec.index,
        name: spec.name.clone(),
        scenario: spec.scenario.clone(),
        defense: spec.defense.label().to_owned(),
        n_rh: spec.paper_n_rh,
        channels: spec.channels,
        total_cycles: result.total_cycles,
        activations: result.dram.totals().activates,
        dram_energy_j: result.dram_energy_joules(),
        threads: result
            .threads
            .iter()
            .map(|t| ThreadOutcome {
                name: t.name.clone(),
                is_attacker: t.is_attacker,
                instructions: t.instructions,
                cycles: t.cycles,
                ipc: t.ipc,
                max_rhli: t.max_rhli,
                memory_requests: t.memory_requests,
            })
            .collect(),
        metrics,
        stepping: result.stepping,
    })
}

/// Yields records until their cumulative instruction count reaches
/// `bound`, then stops — how benign generators are cut to trace files
/// that cover a thread's instruction budget.
struct InstructionBounded<I> {
    inner: I,
    remaining: u64,
}

impl<I: Iterator<Item = TraceRecord>> Iterator for InstructionBounded<I> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        if self.remaining == 0 {
            return None;
        }
        let record = self.inner.next()?;
        self.remaining = self.remaining.saturating_sub(record.instructions());
        Some(record)
    }
}

/// Extra instructions recorded beyond a benign thread's budget, so the
/// replayed trace never runs dry at the finish line.
const RECORD_SLACK_INSTRUCTIONS: u64 = 256;

/// Records every thread of `spec` to trace files under `dir` and returns
/// a copy of the spec whose threads replay those files.
///
/// Benign threads are recorded until they cover their instruction budget
/// (plus slack); attacker threads are recorded for exactly one period of
/// their cyclic pattern and replayed in a loop. Files are named
/// `<trace_stem>-t<slot>.<ext>` (see [`RunSpec::trace_stem`]: the stem
/// encodes mix, scenario, channels, thread count, instruction budget
/// and seed); an existing file is reused without rewriting, so every
/// sweep point over the same mix shares its traces.
///
/// # Errors
///
/// Propagates file-system errors as [`CampaignError::Trace`] and
/// spec/builder thread-order divergence as [`CampaignError::Spec`].
pub fn record_run_traces(
    spec: &RunSpec,
    dir: &Path,
    format: TraceFormat,
) -> Result<RunSpec, CampaignError> {
    let traced = |error: TraceError| CampaignError::Trace {
        run: spec.name.clone(),
        error,
    };
    let threads = materialize_threads(spec)?;
    let mut replayable = spec.clone();
    for (slot, ((_, trace, is_attacker, limit), thread)) in
        threads.into_iter().zip(&mut replayable.threads).enumerate()
    {
        let path = dir.join(format!(
            "{}-t{slot}.{}",
            spec.trace_stem(),
            format.extension()
        ));
        if !path.exists() {
            if is_attacker {
                let period = attack_period(spec, slot).ok_or_else(|| CampaignError::Spec {
                    run: spec.name.clone(),
                    message: format!(
                        "thread slot {slot} is traced as an attacker but has no attack generator"
                    ),
                })?;
                record_trace_file(&path, format, trace, period as u64)
                    .map_err(|e| traced(TraceError::Io(e)))?;
            } else {
                let bounded = InstructionBounded {
                    inner: trace,
                    remaining: limit.saturating_add(RECORD_SLACK_INSTRUCTIONS),
                };
                record_trace_file(&path, format, bounded, u64::MAX)
                    .map_err(|e| traced(TraceError::Io(e)))?;
            }
        }
        thread.trace = Some(TraceSource {
            path,
            repeat: is_attacker,
        });
    }
    Ok(replayable)
}

/// The cyclic period of the attacker in thread slot `slot` of `spec`,
/// derived from the same organization the generator path uses; `None` if the
/// slot's generator is not an attack.
fn attack_period(spec: &RunSpec, slot: usize) -> Option<usize> {
    let ThreadGenerator::Attack(kind) = &spec.threads[slot].generator else {
        return None;
    };
    let mut organization = MemCtrlConfig::default().organization;
    organization.channels = spec.channels;
    Some(kind.build(AttackSpec::default_for(organization)).period())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;

    fn tiny_spec() -> RunSpec {
        let mut campaign = CampaignSpec::smoke();
        campaign.mix_count = 1;
        campaign.threads_per_mix = 2;
        campaign.scale.benign_instructions = 500;
        campaign.scale.min_cycles = 20_000;
        campaign.expand().remove(campaign.run_count() - 1)
    }

    #[test]
    fn attack_period_is_none_for_benign_slots() {
        let spec = tiny_spec();
        let benign = spec
            .threads
            .iter()
            .position(|t| !t.is_attacker)
            .expect("smoke specs mix attackers with benign threads");
        assert_eq!(attack_period(&spec, benign), None);
        if let Some(attacker) = spec.threads.iter().position(|t| t.is_attacker) {
            assert!(attack_period(&spec, attacker).is_some());
        }
    }

    #[test]
    fn runs_produce_thread_outcomes_in_order() {
        let spec = tiny_spec();
        let outcome = run_spec(&spec).expect("run succeeds");
        assert_eq!(outcome.threads.len(), spec.threads.len());
        for (thread, spec_thread) in outcome.threads.iter().zip(&spec.threads) {
            assert_eq!(thread.name, spec_thread.name);
            assert_eq!(thread.is_attacker, spec_thread.is_attacker);
        }
        assert!(outcome.total_cycles > 0);
        assert!(outcome.activations > 0);
        assert!(outcome.metrics.is_none(), "no alone-IPC references given");
    }

    #[test]
    fn mismatched_alone_references_error_instead_of_panicking() {
        let mut spec = tiny_spec();
        spec.alone_ipc = vec![1.0, 1.0, 1.0];
        assert!(matches!(run_spec(&spec), Err(CampaignError::Spec { .. })));
    }

    #[test]
    fn misordered_attacker_thread_is_rejected() {
        // The builder forces the attacker to thread 0; a hand-built spec
        // listing it elsewhere must error instead of silently pairing
        // threads with the wrong generators.
        let mut spec = tiny_spec();
        assert!(
            spec.threads[0].is_attacker,
            "attack run leads with attacker"
        );
        spec.threads.swap(0, 1);
        spec.threads[0].trace = Some(TraceSource {
            path: std::path::PathBuf::from("unused.trace"),
            repeat: false,
        });
        match run_spec(&spec) {
            Err(CampaignError::Spec { message, .. }) => {
                assert!(message.contains("attacker"), "got: {message}")
            }
            other => panic!("expected a spec error, got {other:?}"),
        }
        spec.threads[0].trace = None;
        match record_run_traces(&spec, std::path::Path::new("unused"), TraceFormat::Binary) {
            Err(CampaignError::Spec { .. }) => {}
            other => panic!("expected a spec error, got {other:?}"),
        }
    }

    #[test]
    fn missing_trace_file_is_a_positioned_error() {
        let mut spec = tiny_spec();
        spec.threads[0].trace = Some(TraceSource {
            path: std::path::PathBuf::from("does/not/exist.trace"),
            repeat: false,
        });
        match run_spec(&spec) {
            Err(CampaignError::Trace { run, .. }) => assert_eq!(run, spec.name),
            other => panic!("expected a trace error, got {other:?}"),
        }
    }
}
