//! # campaign
//!
//! The evaluation-sweep engine: trace ingestion plus parallel execution
//! of whole run matrices, turning the one-`System`-at-a-time simulator
//! into the machinery behind the paper's 280-workload evaluation
//! (Section 7: 30 stand-alone benign applications, 125 benign-only and
//! 125 attack-present eight-thread mixes, swept across defenses and
//! RowHammer thresholds).
//!
//! Six pieces:
//!
//! * [`trace`] — streaming readers/writers for Ramulator-style text
//!   traces and a compact length-prefixed binary format, plus the
//!   recorder that dumps any `workloads` generator to disk so campaigns
//!   replay from trace files (bit-identically: recorded threads consume
//!   the exact iterators the generator path feeds the simulator).
//! * [`spec`] — the deterministic, seedable run matrix:
//!   [`CampaignSpec`] expands {mixes × defenses × `N_RH` points ×
//!   channel counts} into an ordered [`RunSpec`] list.
//! * [`executor`] — sequential or pooled execution
//!   ([`sim::pool::StealingPool`] workers claim run indices from a
//!   shared cursor over the executor's one copy of the run list, feeding
//!   a reorder buffer); results are *delivered* in strict run order, so
//!   every worker count emits byte-identical output. Every run executes
//!   behind an isolation boundary with a configurable [`FailurePolicy`]
//!   (abort / quarantine / retry), [`execute_resumable`] checkpoints
//!   each result so a killed campaign resumes where it stopped, and the
//!   normalization prelude fans out over the same pool, its table kept
//!   as the journal's first record ([`ExecutionStats`] reports all of
//!   it).
//! * [`checkpoint`] — the append-only, checksummed journal behind
//!   resume, the campaign's one durable file: the prelude's reference
//!   table, then completed runs in run order, keyed by a
//!   [`CampaignSpec`] fingerprint, dropping (never trusting) a torn
//!   trailing record.
//! * [`aggregate`] — incremental reduction into per-sweep-point
//!   [`MultiProgramMetrics`](sim::MultiProgramMetrics)/RHLI summaries
//!   with CSV/JSON emission (and a validating CSV parser), bridged to
//!   `sim::report` for table rendering. Quarantined runs mark their
//!   sweep points degraded instead of poisoning the campaign.
//! * [`faults`] — deterministic fault injection (panics, trace I/O
//!   errors, mid-journal aborts) behind the `fault-injection` cargo
//!   feature; release builds compile the hooks to nothing.
//! * [`wire`] — the campaign server's textual formats: strict JSON
//!   campaign specs whose round-trip preserves the resume fingerprint,
//!   and the NDJSON result records [`execute_observed`] streams to
//!   subscribers.
//!
//! ## Example
//!
//! ```
//! use campaign::{execute, CampaignSpec};
//!
//! // A tiny two-run campaign, executed sequentially.
//! let mut spec = CampaignSpec::smoke();
//! spec.mix_count = 1;
//! spec.threads_per_mix = 2;
//! spec.defenses.truncate(1);
//! spec.scenarios.truncate(1);
//! spec.scale.benign_instructions = 300;
//! spec.scale.min_cycles = 10_000;
//! let report = execute(&spec, spec.expand(), 0).unwrap();
//! assert_eq!(report.outcomes.len(), 1);
//! let csv = report.summary.to_csv();
//! assert!(campaign::parse_summary_csv(&csv).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod artifacts;
pub mod checkpoint;
pub mod executor;
pub mod faults;
pub mod runner;
pub mod spec;
pub mod trace;
pub mod wire;

pub use aggregate::{parse_summary_csv, CampaignAggregator, CampaignSummary, SweepKey};
pub use artifacts::write_atomic;
pub use checkpoint::{fingerprint, JournalEntry, JournalError};
pub use executor::{
    default_workers, execute, execute_observed, execute_resumable, CampaignReport,
    DeliveryObserver, ExecutionOptions, ExecutionStats, FailurePolicy, PreludeStats,
    WorkerSnapshot,
};
pub use runner::{
    record_run_traces, run_spec, CampaignError, FailedRun, RunOutcome, ThreadOutcome,
};
pub use spec::{CampaignSpec, RunScale, RunSpec, Scenario, ThreadGenerator, ThreadSpec};
pub use trace::{
    load_trace_file, open_trace_file, record_trace_file, LoopedTrace, TraceError, TraceFormat,
    TraceReader, TraceSource, TraceWriter,
};
