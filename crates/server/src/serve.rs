//! The server runtime: listener, executor thread, and crash recovery.
//!
//! `bh-serve` is three long-lived threads plus one short-lived thread
//! per connection, all spawned *in this file only* (enforced by
//! `bh-lint`'s thread-discipline rule):
//!
//! * the **executor** pops admitted campaigns off the bounded queue and
//!   runs them — one at a time, in admission order — through
//!   [`campaign::execute_observed`] with a per-campaign checkpoint
//!   journal, so simulation parallelism lives where it already is
//!   deterministic (the campaign engine's work-stealing pool), never in
//!   the server;
//! * the **acceptor** polls a nonblocking listener, handing each
//!   connection to a short-lived handler thread
//!   (`router::handle_connection`);
//! * handler threads read one request, write one response, and exit.
//!
//! # Crash safety
//!
//! Every admitted campaign is persisted as `<data_dir>/<id>/spec.json`
//! before its submission is acknowledged, and executes with a journal
//! at `<data_dir>/<id>/campaign.journal`; `campaign.json` is written
//! *last* of the artifacts, so its existence marks completion. On
//! start, [`Server::start`] rescans the data directory: completed
//! campaigns are rebuilt from their journals (streaming clients replay
//! the identical record lines), interrupted or still-queued ones are
//! re-admitted — the journal then skips every already-finished run, so
//! a `SIGKILL` mid-campaign costs at most the run that was in flight,
//! and the final artifacts are byte-identical to an uninterrupted
//! execution (pinned by `tests/tests/server_kill_resume.rs`).

use crate::queue::JobQueue;
use crate::registry::{CampaignState, Phase, Registry};
use crate::router;
use campaign::checkpoint::{fingerprint, read_journal};
use campaign::{wire, ExecutionOptions, FailurePolicy};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Poll interval of the accept loop and the shutdown drains.
const POLL: Duration = Duration::from_millis(10);
/// Bounded patience for connection handlers at shutdown (in [`POLL`]
/// ticks): ~5 s, then the process exits and the OS reaps them.
const DRAIN_TICKS: usize = 500;

/// Process-wide shutdown flag, set by signal handlers (the binary) or
/// [`request_shutdown`]; the serve loop in `main` polls it.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Requests a clean shutdown of the serving process (idempotent,
/// async-signal-safe: one atomic store).
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Whether [`request_shutdown`] has been called.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port `0` picks a free one).
    pub addr: String,
    /// Campaign state root: one subdirectory per campaign id, holding
    /// `spec.json`, `campaign.journal`, and the result artifacts.
    pub data_dir: PathBuf,
    /// Bounded submission-queue capacity (full → `503`).
    pub queue_capacity: usize,
    /// Simulation worker threads per campaign (`0` or `1` = in-line
    /// sequential execution; results are worker-count-invariant).
    pub workers: usize,
    /// Largest admissible campaign, in expanded runs.
    pub max_runs: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_owned(),
            data_dir: PathBuf::from("target/bh-serve"),
            queue_capacity: 8,
            // Keep two hardware threads for the server's own loops
            // (acceptor + executor); the rest simulate.
            workers: campaign::default_workers().saturating_sub(1),
            max_runs: 100_000,
        }
    }
}

/// Everything the server's threads share.
pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) registry: Registry,
    pub(crate) queue: JobQueue<Arc<CampaignState>>,
    pub(crate) executor_alive: AtomicBool,
    pub(crate) stop: AtomicBool,
    /// Serializes admission (idempotence check + spec persistence +
    /// enqueue) across connection handlers.
    pub(crate) submit_lock: Mutex<()>,
}

impl Shared {
    /// The state directory of campaign `id`.
    pub(crate) fn campaign_dir(&self, id: &str) -> PathBuf {
        self.config.data_dir.join(id)
    }

    /// Whether shutdown has begun (streaming loops poll this).
    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// A running campaign server; dropping it without [`Server::stop`]
/// detaches the threads (the process is exiting anyway).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    notes: Vec<String>,
    executor: Option<thread::JoinHandle<()>>,
    acceptor: Option<thread::JoinHandle<()>>,
    connections: Arc<AtomicUsize>,
}

impl Server {
    /// Creates the data directory, recovers every campaign it already
    /// holds (see the module docs), binds the listener, and starts the
    /// executor and acceptor threads.
    ///
    /// # Errors
    ///
    /// Propagates data-directory and socket failures. Recovery problems
    /// with *individual* campaign directories are not fatal: they are
    /// reported via [`Server::notes`] and the directory is skipped.
    pub fn start(config: ServerConfig) -> io::Result<Self> {
        std::fs::create_dir_all(&config.data_dir)?;
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_capacity),
            config,
            registry: Registry::new(),
            executor_alive: AtomicBool::new(true),
            stop: AtomicBool::new(false),
            submit_lock: Mutex::new(()),
        });
        let notes = recover_campaigns(&shared);
        let executor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || executor_loop(&shared))
        };
        let connections = Arc::new(AtomicUsize::new(0));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let connections = Arc::clone(&connections);
            thread::spawn(move || accept_loop(&shared, &listener, &connections))
        };
        Ok(Self {
            shared,
            addr,
            notes,
            executor: Some(executor),
            acceptor: Some(acceptor),
            connections,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The configuration the server is running with.
    pub fn config(&self) -> &ServerConfig {
        &self.shared.config
    }

    /// Human-readable recovery notes from startup (skipped directories,
    /// re-admitted campaigns).
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Clean shutdown: stops admitting, lets the in-flight campaign
    /// finish (its journal makes dying here recoverable, but finishing
    /// is politer), closes the listener, and drains connection handlers
    /// for a bounded time.
    pub fn stop(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.executor.take() {
            let _ = handle.join();
        }
        for _ in 0..DRAIN_TICKS {
            if self.connections.load(Ordering::SeqCst) == 0 {
                break;
            }
            thread::sleep(POLL);
        }
    }
}

/// Rescans the data directory at startup; returns human-readable notes.
fn recover_campaigns(shared: &Shared) -> Vec<String> {
    let mut notes = Vec::new();
    let Ok(entries) = std::fs::read_dir(&shared.config.data_dir) else {
        return notes;
    };
    // Sort for a deterministic recovery (and thus re-admission) order.
    let mut dirs: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        match recover_one(shared, &dir, &name) {
            Ok(Some(note)) => notes.push(note),
            Ok(None) => {}
            Err(message) => notes.push(format!("skipping {name}: {message}")),
        }
    }
    notes
}

/// Recovers one campaign directory; `Ok(Some(note))` describes what was
/// done, `Ok(None)` means not a campaign directory, `Err` means skip.
fn recover_one(
    shared: &Shared,
    dir: &std::path::Path,
    name: &str,
) -> Result<Option<String>, String> {
    let spec_path = dir.join("spec.json");
    if !spec_path.is_file() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&spec_path).map_err(|e| format!("reading spec: {e}"))?;
    let spec = wire::spec_from_json(&text).map_err(|e| format!("parsing spec: {e}"))?;
    let id = format!("{:016x}", fingerprint(&spec));
    if id != name {
        return Err(format!(
            "directory name does not match spec fingerprint {id}"
        ));
    }
    if dir.join("campaign.json").is_file() {
        // Finished in a previous life: rebuild the streamable record
        // lines from the journal so late clients replay identically.
        let state = CampaignState::new(id.clone(), spec, Phase::Running);
        let scan = read_journal(
            &dir.join("campaign.journal"),
            fingerprint(&state.spec),
            state.total_runs as u64,
        )
        .map_err(|e| format!("reading journal of finished campaign: {e}"))?;
        let mut failed = 0usize;
        for entry in &scan.entries {
            if matches!(entry, campaign::JournalEntry::Failure(_)) {
                failed += 1;
            }
            state.record_entry(entry, true);
        }
        let phase = if failed > 0 {
            Phase::Degraded
        } else {
            Phase::Done
        };
        state.set_phase(phase, None);
        shared.registry.insert(state);
        return Ok(Some(format!(
            "recovered finished campaign {id} ({} records)",
            scan.entries.len()
        )));
    }
    // Interrupted mid-execution or never started: re-admit. The
    // checkpoint journal (if any) makes the re-execution resume.
    let state = CampaignState::new(id.clone(), spec, Phase::Queued);
    let state = shared.registry.insert(state);
    shared
        .queue
        .enqueue_unbounded(state)
        .map_err(|_| "queue closed during recovery".to_owned())?;
    Ok(Some(format!("re-admitted interrupted campaign {id}")))
}

/// Clears `executor_alive` when the executor exits — including by
/// panic, which is what `/healthz` surfaces as `executor_alive:false`.
struct AliveGuard<'a>(&'a Shared);

impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        self.0.executor_alive.store(false, Ordering::SeqCst);
    }
}

/// The executor thread: campaigns in admission order until the queue
/// closes.
fn executor_loop(shared: &Shared) {
    let _guard = AliveGuard(shared);
    while let Some(state) = shared.queue.pop() {
        run_campaign(shared, &state);
    }
}

/// Executes (or resumes) one campaign and writes its artifacts —
/// `campaign.json` last, as the completion marker.
fn run_campaign(shared: &Shared, state: &Arc<CampaignState>) {
    state.set_phase(Phase::Running, None);
    let dir = shared.campaign_dir(&state.id);
    let options = ExecutionOptions {
        policy: FailurePolicy::Quarantine,
        journal: Some(dir.join("campaign.journal")),
    };
    let runs = state.spec.expand();
    let result = campaign::execute_observed(
        &state.spec,
        runs,
        shared.config.workers,
        &options,
        &mut |entry, replayed| state.record_entry(entry, replayed),
    );
    let report = match result {
        Ok(report) => report,
        Err(error) => {
            state.set_phase(Phase::Failed, Some(error.to_string()));
            return;
        }
    };
    state.set_scheduling(wire::scheduling_json(&report.scheduling));
    let artifacts = [
        ("stepping.csv", report.stepping_csv()),
        ("scheduling.csv", report.scheduling_csv()),
        ("campaign.csv", report.summary.to_csv()),
        ("campaign.json", report.summary.to_json()),
    ];
    for (file, contents) in artifacts {
        if let Err(error) = campaign::write_atomic(&dir.join(file), &contents) {
            state.set_phase(Phase::Failed, Some(format!("writing {file}: {error}")));
            return;
        }
    }
    let phase = if report.failures.is_empty() {
        Phase::Done
    } else {
        Phase::Degraded
    };
    state.set_phase(phase, None);
}

/// The acceptor thread: nonblocking accept polling the stop flag, one
/// short-lived handler thread per connection.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener, connections: &Arc<AtomicUsize>) {
    loop {
        if shared.stopping() {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                connections.fetch_add(1, Ordering::SeqCst);
                let shared = Arc::clone(shared);
                let connections = Arc::clone(connections);
                thread::spawn(move || {
                    router::handle_connection(&shared, stream);
                    connections.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL),
            // Transient accept errors (per-connection resets): back off
            // a tick and keep serving.
            Err(_) => thread::sleep(POLL),
        }
    }
}
