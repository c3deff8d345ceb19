//! The work-stealing pool: the one place simulation work runs on
//! threads.
//!
//! A simulation never spawns threads of its own — channel shards share
//! no state but step sequentially on the calling thread, because a
//! per-cycle thread handoff costs far more than a shard's cycle of work.
//! What parallelizes well is whole runs, and this pool fans them out:
//! the owner hands over a whole batch of `jobs` up front, keeping the
//! jobs themselves, and the work function reads job `i` by index. Idle
//! workers *pull* the lowest unstarted index from one shared atomic
//! cursor the moment they finish their previous job, and every
//! completion travels back over a single channel as `(index, outcome)`.
//! No worker ever idles while an index is unstarted, and the owner
//! reorders completions however it likes (the campaign executor runs
//! them through a reorder buffer to restore run order bit-exactly).
//!
//! # Fault tolerance
//!
//! Workers never die: each job runs under `catch_unwind`, and a panic
//! comes back as [`Outcome::Panicked`] carrying the rendered payload.
//! The job itself stays with the owner, who can retry it from there.
//! The thread that caught the panic simply pulls the next index.
//!
//! # Accounting
//!
//! Each worker keeps a tally: jobs completed, jobs *stolen* (a job
//! whose index round-robin assignment would have given to a different
//! worker — the direct measure of how much work the shared cursor moved
//! off a busy worker), and busy wall-clock. The tallies are shared
//! atomics, so the owner can snapshot them any time without stopping
//! the pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How one pulled job ended.
pub enum Outcome<R> {
    /// The work function returned this result.
    Done(R),
    /// The work function panicked; the rendered panic payload is all
    /// that comes back.
    Panicked(String),
}

/// Shared per-worker counters (atomics: written by the worker, read by
/// the owner at any time).
struct WorkerTally {
    jobs: AtomicU64,
    steals: AtomicU64,
    busy_nanos: AtomicU64,
}

/// A point-in-time copy of one worker's tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// Jobs this worker completed (including panicked attempts).
    pub jobs: u64,
    /// Completed jobs whose index round-robin assignment would have
    /// given to a *different* worker — work the shared cursor moved off
    /// a busy worker.
    pub steals: u64,
    /// Wall-clock spent inside the work function.
    pub busy: Duration,
}

impl WorkerTally {
    /// A zeroed tally.
    fn new() -> Self {
        Self {
            jobs: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
        }
    }

    /// Records one completed job. `stolen` marks a job that round-robin
    /// assignment would have placed on another worker.
    fn record(&self, stolen: bool, busy: Duration) {
        self.jobs.fetch_add(1, Ordering::Relaxed);
        if stolen {
            self.steals.fetch_add(1, Ordering::Relaxed);
        }
        let nanos = u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX);
        self.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot (each counter individually exact).
    fn snapshot(&self) -> WorkerSnapshot {
        WorkerSnapshot {
            jobs: self.jobs.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            busy: Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed)),
        }
    }
}

/// A pool of workers pulling the indices `0..jobs` of one batch from a
/// shared cursor.
///
/// `R` is the result of one job. See the module docs for the contract.
pub struct StealingPool<R: Send + 'static> {
    /// The lowest index no worker has claimed yet.
    cursor: Arc<AtomicUsize>,
    jobs: usize,
    result_rx: Receiver<(usize, Outcome<R>)>,
    tallies: Vec<Arc<WorkerTally>>,
    handles: Vec<JoinHandle<()>>,
    /// Jobs whose completions have not been taken yet.
    outstanding: usize,
}

impl<R: Send + 'static> StealingPool<R> {
    /// Spawns `workers` (≥ 1) threads that run `work(i)` for every index
    /// `i` in `0..jobs`, lowest unstarted index first, each exiting once
    /// the batch is claimed.
    pub fn new<F>(workers: usize, jobs: usize, work: F) -> Self
    where
        F: Fn(usize) -> R + Send + Sync + 'static,
    {
        debug_assert!(workers >= 1, "a pool needs at least one worker");
        let work = Arc::new(work);
        let cursor = Arc::new(AtomicUsize::new(0));
        let (result_tx, result_rx) = channel();
        let tallies: Vec<Arc<WorkerTally>> =
            (0..workers).map(|_| Arc::new(WorkerTally::new())).collect();
        let handles = (0..workers)
            .map(|id| {
                let puller = Puller {
                    id,
                    workers,
                    jobs,
                    cursor: Arc::clone(&cursor),
                    work: Arc::clone(&work),
                    result_tx: result_tx.clone(),
                    tally: Arc::clone(&tallies[id]),
                };
                std::thread::Builder::new()
                    .name(format!("steal-worker-{id}"))
                    .spawn(move || puller.run())
                    // lint: allow(panic-freedom) -- thread-spawn failure at pool construction is unrecoverable infrastructure loss
                    .expect("failed to spawn stealing pool worker thread")
            })
            .collect();
        Self {
            cursor,
            jobs,
            result_rx,
            tallies,
            handles,
            outstanding: jobs,
        }
    }

    /// Blocks for the next `(index, outcome)` completion, in whatever
    /// order jobs finish. Returns `None` once every job of the batch has
    /// been taken — or, as a defensive backstop, if every worker vanished
    /// (they cannot: each job runs under `catch_unwind`).
    pub fn next_completion(&mut self) -> Option<(usize, Outcome<R>)> {
        if self.outstanding == 0 {
            return None;
        }
        let done = self.result_rx.recv().ok()?;
        self.outstanding -= 1;
        Some(done)
    }

    /// Snapshots every worker's tally, in worker-index order.
    pub fn tallies(&self) -> Vec<WorkerSnapshot> {
        self.tallies.iter().map(|tally| tally.snapshot()).collect()
    }
}

impl<R: Send + 'static> Drop for StealingPool<R> {
    fn drop(&mut self) {
        // Discard jobs nobody started (an aborting owner must not wait
        // for the whole backlog): every later claim lands past the batch.
        self.cursor.fetch_max(self.jobs, Ordering::Relaxed);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker's view of the pool.
struct Puller<F, R> {
    id: usize,
    workers: usize,
    jobs: usize,
    cursor: Arc<AtomicUsize>,
    work: Arc<F>,
    result_tx: Sender<(usize, Outcome<R>)>,
    tally: Arc<WorkerTally>,
}

impl<F: Fn(usize) -> R, R> Puller<F, R> {
    /// Claims and runs indices until the batch is exhausted or the owner
    /// hung up.
    fn run(self) {
        loop {
            // Relaxed suffices: the cursor publishes no data (the jobs
            // were in place before the workers spawned, and results
            // travel over the channel), and `fetch_add` alone makes
            // every claim unique.
            let index = self.cursor.fetch_add(1, Ordering::Relaxed);
            if index >= self.jobs {
                return;
            }
            // lint: allow(determinism) -- worker busy-time accounting; never read by simulated state
            let started = Instant::now();
            // The unwind boundary keeps this thread alive across
            // panicking jobs; AssertUnwindSafe is sound because the job
            // is only read through a shared `Fn`, and its result (if
            // any) is dropped in the unwind, never observed.
            let outcome = match catch_unwind(AssertUnwindSafe(|| (self.work)(index))) {
                Ok(result) => Outcome::Done(result),
                Err(payload) => Outcome::Panicked(panic_message(payload.as_ref())),
            };
            self.tally
                .record(index % self.workers != self.id, started.elapsed());
            if self.result_tx.send((index, outcome)).is_err() {
                return;
            }
        }
    }
}

/// Best-effort rendering of a panic payload (panics carry `&str` or
/// `String` in practice). Shared with the campaign executor's run
/// isolation boundary.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains a pool, returning its completions in arrival order.
    fn drain<R: Send + 'static>(pool: &mut StealingPool<R>) -> Vec<(usize, Outcome<R>)> {
        std::iter::from_fn(|| pool.next_completion()).collect()
    }

    #[test]
    fn completions_cover_every_submitted_sequence() {
        let items: Arc<Vec<u64>> = Arc::new((0..16u64).map(|i| i + 100).collect());
        let jobs = Arc::clone(&items);
        let mut pool = StealingPool::new(3, items.len(), move |i| jobs[i] * 2);
        let mut seen = [false; 16];
        for (index, outcome) in drain(&mut pool) {
            match outcome {
                Outcome::Done(result) => {
                    assert_eq!(result, items[index] * 2);
                    assert!(!seen[index], "duplicate completion");
                    seen[index] = true;
                }
                Outcome::Panicked(message) => panic!("unexpected panic: {message}"),
            }
        }
        assert!(seen.iter().all(|&s| s), "every job completes exactly once");
    }

    #[test]
    fn next_completion_without_outstanding_jobs_returns_none() {
        let mut empty = StealingPool::new(2, 0, |i| i);
        assert!(empty.next_completion().is_none());
        let mut pool = StealingPool::new(2, 1, |i| i + 9);
        assert!(pool.next_completion().is_some());
        assert!(pool.next_completion().is_none());
    }

    #[test]
    fn a_panicking_job_reports_and_the_worker_survives() {
        let items = [13u32, 20];
        let mut pool = StealingPool::new(1, items.len(), move |i| {
            assert!(items[i] != 13, "unlucky item");
            items[i] + 1
        });
        let mut panicked = 0;
        let mut done = 0;
        for (index, outcome) in drain(&mut pool) {
            match outcome {
                Outcome::Panicked(message) => {
                    assert!(message.contains("unlucky item"), "got: {message}");
                    assert_eq!(index, 0);
                    panicked += 1;
                }
                Outcome::Done(result) => {
                    assert_eq!(result, 21);
                    assert_eq!(index, 1);
                    done += 1;
                }
            }
        }
        // The single worker caught the panic and still ran job 1.
        assert_eq!((panicked, done), (1, 1));
    }

    #[test]
    fn a_single_worker_completes_the_batch_in_ascending_index_order() {
        // The steal tally and the reorder buffer's high-water mark both
        // read against this order: one worker claims 0, 1, 2, … in turn.
        let mut pool = StealingPool::new(1, 32, |i| i);
        let order: Vec<usize> = drain(&mut pool).into_iter().map(|(i, _)| i).collect();
        assert_eq!(order, (0..32).collect::<Vec<_>>());
        assert_eq!(
            pool.tallies()[0].steals,
            0,
            "worker 0 of 1 owns every index"
        );
    }

    #[test]
    fn tallies_account_for_every_completed_job() {
        let mut pool = StealingPool::new(2, 10, |i| i);
        drain(&mut pool);
        let tallies = pool.tallies();
        assert_eq!(tallies.len(), 2);
        assert_eq!(tallies.iter().map(|t| t.jobs).sum::<u64>(), 10);
        assert!(tallies.iter().all(|t| t.steals <= t.jobs));
    }

    #[test]
    fn dropping_the_pool_discards_unstarted_jobs_without_hanging() {
        let mut pool = StealingPool::new(1, 64, |i| {
            std::thread::sleep(Duration::from_millis(1));
            i
        });
        // Take one completion, then drop: the backlog must be discarded,
        // not drained (a multi-second hang would trip the test timeout).
        assert!(pool.next_completion().is_some());
        drop(pool);
    }
}
