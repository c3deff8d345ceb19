//! In-memory campaign state: what every connection handler reads.
//!
//! Each submitted campaign gets one [`CampaignState`]: its spec, its
//! lifecycle [`Phase`], and the prerendered NDJSON record lines in run
//! order. The executor appends lines as runs finish (via the
//! [`campaign::execute_observed`] observer); any number of streaming
//! connections follow the same growing list with
//! [`CampaignState::wait_progress`], so a client attaching mid-campaign
//! (or after completion, or after a crash-and-resume) always receives
//! the complete, byte-identical record sequence.
//!
//! The [`Registry`] maps campaign ids — the spec fingerprint in hex,
//! which is what makes resubmission of the same spec idempotent — to
//! their states. It is a `BTreeMap`, so listings are deterministically
//! ordered.

use campaign::{wire, CampaignSpec, JournalEntry};
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Campaign lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Admitted, waiting for the executor.
    Queued,
    /// Executing (or resuming) on the executor thread.
    Running,
    /// Every run completed.
    Done,
    /// Completed, but quarantined run failures degrade some sweep
    /// points (see `campaign::FailurePolicy::Quarantine`).
    Degraded,
    /// Execution aborted with an error (journal unwritable, spec
    /// refused by the engine, …).
    Failed,
}

impl Phase {
    /// Stable lowercase label used in status documents.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Degraded => "degraded",
            Phase::Failed => "failed",
        }
    }

    /// Whether the campaign will make no further progress.
    pub fn is_terminal(self) -> bool {
        matches!(self, Phase::Done | Phase::Degraded | Phase::Failed)
    }
}

/// Mutable progress of one campaign, behind its lock.
struct Progress {
    phase: Phase,
    /// Prerendered NDJSON record lines (no trailing newline), run order.
    lines: Vec<String>,
    completed: usize,
    failed: usize,
    replayed: usize,
    error: Option<String>,
    /// Prerendered scheduling JSON object ([`wire::scheduling_json`]),
    /// recorded once execution finishes.
    scheduling: Option<String>,
}

/// One campaign the server knows about.
pub struct CampaignState {
    /// Campaign id: the spec fingerprint, `{:016x}`.
    pub id: String,
    /// The admitted spec.
    pub spec: CampaignSpec,
    /// Runs the spec expands to.
    pub total_runs: usize,
    progress: Mutex<Progress>,
    wake: Condvar,
}

impl CampaignState {
    /// A fresh state in `phase` (no recorded results yet).
    pub fn new(id: String, spec: CampaignSpec, phase: Phase) -> Arc<Self> {
        let total_runs = spec.run_count();
        Arc::new(Self {
            id,
            spec,
            total_runs,
            progress: Mutex::new(Progress {
                phase,
                lines: Vec::new(),
                completed: 0,
                failed: 0,
                replayed: 0,
                error: None,
                scheduling: None,
            }),
            wake: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Progress> {
        // Progress is counters and append-only lines; no panic can tear
        // it, so a poisoned lock is safe to keep using.
        self.progress.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one delivered run result (rendered to its NDJSON line)
    /// and wakes every waiting stream.
    pub fn record_entry(&self, entry: &JournalEntry, replayed: bool) {
        let line = wire::entry_to_ndjson(entry);
        let mut progress = self.lock();
        match entry {
            JournalEntry::Outcome(_) => progress.completed += 1,
            JournalEntry::Failure(_) => progress.failed += 1,
        }
        if replayed {
            progress.replayed += 1;
        }
        progress.lines.push(line);
        drop(progress);
        self.wake.notify_all();
    }

    /// Moves the campaign to `phase` (recording `error` when it failed)
    /// and wakes every waiting stream.
    pub fn set_phase(&self, phase: Phase, error: Option<String>) {
        let mut progress = self.lock();
        progress.phase = phase;
        if error.is_some() {
            progress.error = error;
        }
        drop(progress);
        self.wake.notify_all();
    }

    /// Records the campaign's scheduling document (the
    /// [`wire::scheduling_json`] rendering of its `ExecutionStats`),
    /// surfaced verbatim inside [`CampaignState::status_json`].
    pub fn set_scheduling(&self, document: String) {
        self.lock().scheduling = Some(document);
    }

    /// The current phase.
    pub fn phase(&self) -> Phase {
        self.lock().phase
    }

    /// Waits (up to `timeout`) until there are record lines beyond
    /// `seen` or the campaign is terminal, then returns the new lines
    /// and the phase at that moment. A timeout returns an empty vector
    /// and the current phase, so streaming loops can poll their own
    /// shutdown conditions between waits.
    pub fn wait_progress(&self, seen: usize, timeout: Duration) -> (Vec<String>, Phase) {
        let mut progress = self.lock();
        loop {
            if progress.lines.len() > seen || progress.phase.is_terminal() {
                return (
                    progress.lines.get(seen..).unwrap_or(&[]).to_vec(),
                    progress.phase,
                );
            }
            let (next, wait) = self
                .wake
                .wait_timeout(progress, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            progress = next;
            if wait.timed_out() {
                return (Vec::new(), progress.phase);
            }
        }
    }

    /// The campaign's status document (one line of JSON).
    pub fn status_json(&self) -> String {
        let progress = self.lock();
        let error = match &progress.error {
            None => "null".to_owned(),
            Some(message) => format!("\"{}\"", wire::escape(message)),
        };
        // The scheduling document is already JSON, so it embeds as-is.
        let scheduling = progress.scheduling.as_deref().unwrap_or("null");
        format!(
            concat!(
                "{{\"id\":\"{}\",\"name\":\"{}\",\"phase\":\"{}\",",
                "\"total_runs\":{},\"completed\":{},\"failed\":{},",
                "\"replayed\":{},\"error\":{},\"scheduling\":{}}}"
            ),
            self.id,
            wire::escape(&self.spec.name),
            progress.phase.label(),
            self.total_runs,
            progress.completed,
            progress.failed,
            progress.replayed,
            error,
            scheduling,
        )
    }
}

/// All campaigns the server knows about, by id.
#[derive(Default)]
pub struct Registry {
    campaigns: Mutex<BTreeMap<String, Arc<CampaignState>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Arc<CampaignState>>> {
        self.campaigns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers `state` under its id. Returns the already-registered
    /// state instead if the id exists (submission idempotence).
    pub fn insert(&self, state: Arc<CampaignState>) -> Arc<CampaignState> {
        let mut campaigns = self.lock();
        Arc::clone(
            campaigns
                .entry(state.id.clone())
                .or_insert_with(|| Arc::clone(&state)),
        )
    }

    /// The campaign with this id, if any.
    pub fn get(&self, id: &str) -> Option<Arc<CampaignState>> {
        self.lock().get(id).map(Arc::clone)
    }

    /// Every campaign, ordered by id.
    pub fn list(&self) -> Vec<Arc<CampaignState>> {
        self.lock().values().map(Arc::clone).collect()
    }

    /// Campaigns registered.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no campaign is registered.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campaign::{FailedRun, RunOutcome, ThreadOutcome};
    use sim::SteppingStats;

    fn outcome(index: usize) -> JournalEntry {
        JournalEntry::Outcome(RunOutcome {
            index,
            name: format!("run-{index}"),
            scenario: "no-attack".to_owned(),
            defense: "Baseline".to_owned(),
            n_rh: 32_768,
            channels: 1,
            total_cycles: 10,
            activations: 1,
            dram_energy_j: 0.0,
            threads: vec![ThreadOutcome {
                name: "t".to_owned(),
                is_attacker: false,
                instructions: 1,
                cycles: 2,
                ipc: 0.5,
                max_rhli: 0.0,
                memory_requests: 1,
            }],
            metrics: None,
            stepping: SteppingStats::default(),
        })
    }

    #[test]
    fn recorded_entries_stream_in_order_with_counts() {
        let state = CampaignState::new("00ff".to_owned(), CampaignSpec::smoke(), Phase::Running);
        state.record_entry(&outcome(0), true);
        state.record_entry(&outcome(1), false);
        state.record_entry(
            &JournalEntry::Failure(FailedRun {
                index: 2,
                name: "run-2".to_owned(),
                scenario: "attack".to_owned(),
                defense: "Para".to_owned(),
                n_rh: 32_768,
                channels: 1,
                attempts: 1,
                cause: "boom".to_owned(),
            }),
            false,
        );
        let (lines, phase) = state.wait_progress(0, Duration::from_millis(1));
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"index\":0"));
        assert!(lines[2].contains("\"type\":\"failure\""));
        assert_eq!(phase, Phase::Running);
        let status = state.status_json();
        assert!(status.contains("\"completed\":2"));
        assert!(status.contains("\"failed\":1"));
        assert!(status.contains("\"replayed\":1"));
        assert!(status.contains("\"error\":null"));
        // No scheduling document until execution reports one.
        assert!(status.contains("\"scheduling\":null"));
        state.set_scheduling("{\"scheduler\":\"stealing\"}".to_owned());
        assert!(state
            .status_json()
            .contains("\"scheduling\":{\"scheduler\":\"stealing\"}"));
        // A caught-up reader times out without new lines.
        let (lines, _) = state.wait_progress(3, Duration::from_millis(1));
        assert!(lines.is_empty());
        // Terminal phase releases caught-up readers immediately.
        state.set_phase(Phase::Degraded, None);
        let (lines, phase) = state.wait_progress(3, Duration::from_secs(60));
        assert!(lines.is_empty());
        assert_eq!(phase, Phase::Degraded);
        assert!(phase.is_terminal());
    }

    #[test]
    fn failed_campaigns_surface_their_error() {
        let state = CampaignState::new("01".to_owned(), CampaignSpec::smoke(), Phase::Queued);
        assert_eq!(state.phase(), Phase::Queued);
        state.set_phase(Phase::Failed, Some("journal: \"disk\" gone".to_owned()));
        assert!(state
            .status_json()
            .contains("\"error\":\"journal: \\\"disk\\\" gone\""));
    }

    #[test]
    fn registry_is_idempotent_and_ordered() {
        let registry = Registry::new();
        assert!(registry.is_empty());
        let b = CampaignState::new("bb".to_owned(), CampaignSpec::smoke(), Phase::Queued);
        let a = CampaignState::new("aa".to_owned(), CampaignSpec::smoke(), Phase::Queued);
        registry.insert(Arc::clone(&b));
        registry.insert(Arc::clone(&a));
        // Re-inserting an id returns the original state.
        let duplicate = CampaignState::new("aa".to_owned(), CampaignSpec::smoke(), Phase::Queued);
        let resolved = registry.insert(duplicate);
        assert!(Arc::ptr_eq(&resolved, &a));
        assert_eq!(registry.len(), 2);
        let ids: Vec<String> = registry.list().iter().map(|s| s.id.clone()).collect();
        assert_eq!(ids, ["aa", "bb"]);
        assert!(registry.get("bb").is_some());
        assert!(registry.get("cc").is_none());
    }
}
