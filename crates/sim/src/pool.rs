//! The work-stealing pool: the one place simulation work runs on
//! threads.
//!
//! A simulation never spawns threads of its own — channel shards share
//! no state but step sequentially on the calling thread, because a
//! per-cycle thread handoff costs far more than a shard's cycle of work.
//! What parallelizes well is whole runs, and this pool fans them out:
//! the owner pushes `(sequence, item)` jobs into one shared injector
//! queue, idle workers *pull* the next job the moment they finish their
//! previous one, and every completion travels back over a single channel
//! tagged with its sequence number. No worker ever idles while the queue
//! is non-empty, and the owner reorders completions however it likes
//! (the campaign executor runs them through a reorder buffer to restore
//! run order bit-exactly).
//!
//! # Fault tolerance
//!
//! Workers never die: each job runs under `catch_unwind`, and a panic
//! comes back as [`Outcome::Panicked`] carrying the rendered payload
//! (the item moved into the attempt is dropped during the unwind, so
//! the owner must keep its own copy if it wants to retry — the campaign
//! executor does). The thread that caught the panic simply pulls the
//! next job.
//!
//! # Accounting
//!
//! Each worker keeps a tally: jobs completed, jobs *stolen* (a job
//! whose sequence number round-robin assignment would have given to a
//! different worker — the direct measure of how much work the shared
//! queue moved off a busy worker), and busy wall-clock. The tallies are
//! shared atomics, so the owner can snapshot them any time without
//! stopping the pool.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The shared work function: pulled jobs carry everything in the item.
type Work<T, R> = Arc<dyn Fn(&mut T) -> R + Send + Sync + 'static>;

/// How one pulled job ended.
pub enum Outcome<T, R> {
    /// The work function returned; the item comes back with the result.
    Done(T, R),
    /// The work function panicked. The item died in the unwind; the
    /// rendered panic payload is all that comes back.
    Panicked(String),
}

/// One finished job, tagged with the sequence number it was submitted
/// under.
pub struct Completion<T, R> {
    /// The caller-chosen sequence number from [`StealingPool::submit`].
    pub seq: u64,
    /// How the job ended.
    pub outcome: Outcome<T, R>,
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
    /// Completed jobs whose sequence number round-robin assignment
    /// would have given to a *different* worker — work the shared queue
    /// moved off a busy worker.
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

/// The shared injector: a FIFO of `(seq, item)` jobs plus the closed
/// flag, under one mutex with a condvar for idle workers.
struct Injector<T> {
    state: Mutex<InjectorState<T>>,
    ready: Condvar,
}

struct InjectorState<T> {
    jobs: VecDeque<(u64, T)>,
    closed: bool,
}

impl<T> Injector<T> {
    /// Blocks until a job is available (returning it) or the queue is
    /// closed and empty (returning `None`).
    fn pull(&self) -> Option<(u64, T)> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A pool of persistent workers pulling jobs from one shared queue.
///
/// `T` is the work item (moved to whichever worker pulls it, and back
/// on success), `R` the result. See the module docs for the contract.
pub struct StealingPool<T: Send + 'static, R: Send + 'static> {
    injector: Arc<Injector<T>>,
    result_rx: Receiver<Completion<T, R>>,
    tallies: Vec<Arc<WorkerTally>>,
    handles: Vec<JoinHandle<()>>,
    /// Jobs submitted whose completions have not been taken yet.
    outstanding: usize,
}

impl<T: Send + 'static, R: Send + 'static> StealingPool<T, R> {
    /// Spawns `workers` (≥ 1) threads, each pulling jobs and running
    /// `work` until the pool is dropped.
    pub fn new<F>(workers: usize, work: F) -> Self
    where
        F: Fn(&mut T) -> R + Send + Sync + 'static,
    {
        debug_assert!(workers >= 1, "a pool needs at least one worker");
        let work: Work<T, R> = Arc::new(work);
        let injector = Arc::new(Injector {
            state: Mutex::new(InjectorState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        });
        let (result_tx, result_rx) = channel::<Completion<T, R>>();
        let tallies: Vec<Arc<WorkerTally>> =
            (0..workers).map(|_| Arc::new(WorkerTally::new())).collect();
        let handles = (0..workers)
            .map(|id| {
                spawn_puller(
                    id,
                    workers,
                    Arc::clone(&injector),
                    Arc::clone(&work),
                    result_tx.clone(),
                    Arc::clone(&tallies[id]),
                )
            })
            .collect();
        Self {
            injector,
            result_rx,
            tallies,
            handles,
            outstanding: 0,
        }
    }

    /// Pushes a job onto the shared queue. `seq` is an arbitrary caller
    /// tag echoed back in the job's [`Completion`]; the campaign
    /// executor uses the run index.
    pub fn submit(&mut self, seq: u64, item: T) {
        self.outstanding += 1;
        let mut state = self
            .injector
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.jobs.push_back((seq, item));
        drop(state);
        self.injector.ready.notify_one();
    }

    /// Blocks for the next completion, in whatever order jobs finish.
    /// Returns `None` when no submitted job is outstanding — or, as a
    /// defensive backstop, if every worker vanished (they cannot: each
    /// job runs under `catch_unwind`).
    pub fn next_completion(&mut self) -> Option<Completion<T, R>> {
        if self.outstanding == 0 {
            return None;
        }
        match self.result_rx.recv() {
            Ok(done) => {
                self.outstanding -= 1;
                Some(done)
            }
            Err(_) => None,
        }
    }

    /// Snapshots every worker's tally, in worker-index order.
    pub fn tallies(&self) -> Vec<WorkerSnapshot> {
        self.tallies.iter().map(|tally| tally.snapshot()).collect()
    }
}

impl<T: Send + 'static, R: Send + 'static> Drop for StealingPool<T, R> {
    fn drop(&mut self) {
        // Discard jobs nobody started (an aborting owner must not wait
        // for the whole backlog), close, wake every idle worker, join.
        {
            let mut state = self
                .injector
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            state.jobs.clear();
            state.closed = true;
        }
        self.injector.ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Spawns one pulling worker thread.
fn spawn_puller<T: Send + 'static, R: Send + 'static>(
    id: usize,
    workers: usize,
    injector: Arc<Injector<T>>,
    work: Work<T, R>,
    result_tx: Sender<Completion<T, R>>,
    tally: Arc<WorkerTally>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("steal-worker-{id}"))
        .spawn(move || {
            while let Some((seq, item)) = injector.pull() {
                // lint: allow(determinism) -- worker busy-time accounting; never read by simulated state
                let started = Instant::now();
                // The unwind boundary keeps this thread alive across
                // panicking jobs; AssertUnwindSafe is sound because the
                // item is owned by the attempt (it is dropped on panic,
                // never observed again) and `work` is a shared Fn.
                let attempt = catch_unwind(AssertUnwindSafe(|| {
                    let mut item = item;
                    let result = work(&mut item);
                    (item, result)
                }));
                let outcome = match attempt {
                    Ok((item, result)) => Outcome::Done(item, result),
                    Err(payload) => Outcome::Panicked(panic_message(payload.as_ref())),
                };
                tally.record(seq as usize % workers != id, started.elapsed());
                if result_tx.send(Completion { seq, outcome }).is_err() {
                    return;
                }
            }
        })
        // lint: allow(panic-freedom) -- thread-spawn failure at pool construction is unrecoverable infrastructure loss
        .expect("failed to spawn stealing pool worker thread")
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

    #[test]
    fn completions_cover_every_submitted_sequence() {
        let mut pool: StealingPool<u64, u64> = StealingPool::new(3, |item| *item * 2);
        for seq in 0..16u64 {
            pool.submit(seq, seq + 100);
        }
        let mut seen = [false; 16];
        while let Some(done) = pool.next_completion() {
            match done.outcome {
                Outcome::Done(item, result) => {
                    assert_eq!(item, done.seq + 100);
                    assert_eq!(result, (done.seq + 100) * 2);
                    assert!(!seen[done.seq as usize], "duplicate completion");
                    seen[done.seq as usize] = true;
                }
                Outcome::Panicked(message) => panic!("unexpected panic: {message}"),
            }
        }
        assert!(seen.iter().all(|&s| s), "every job completes exactly once");
    }

    #[test]
    fn next_completion_without_outstanding_jobs_returns_none() {
        let mut pool: StealingPool<u64, u64> = StealingPool::new(2, |item| *item);
        assert!(pool.next_completion().is_none());
        pool.submit(0, 9);
        assert!(pool.next_completion().is_some());
        assert!(pool.next_completion().is_none());
    }

    #[test]
    fn a_panicking_job_reports_and_the_worker_survives() {
        let mut pool: StealingPool<u32, u32> = StealingPool::new(1, |item| {
            assert!(*item != 13, "unlucky item");
            *item + 1
        });
        pool.submit(0, 13);
        pool.submit(1, 20);
        let mut panicked = 0;
        let mut done = 0;
        while let Some(completion) = pool.next_completion() {
            match completion.outcome {
                Outcome::Panicked(message) => {
                    assert!(message.contains("unlucky item"), "got: {message}");
                    assert_eq!(completion.seq, 0);
                    panicked += 1;
                }
                Outcome::Done(item, result) => {
                    assert_eq!((item, result), (20, 21));
                    assert_eq!(completion.seq, 1);
                    done += 1;
                }
            }
        }
        // The single worker caught the panic and still ran job 1.
        assert_eq!((panicked, done), (1, 1));
    }

    #[test]
    fn tallies_account_for_every_completed_job() {
        let mut pool: StealingPool<u64, u64> = StealingPool::new(2, |item| *item);
        for seq in 0..10u64 {
            pool.submit(seq, seq);
        }
        while pool.next_completion().is_some() {}
        let tallies = pool.tallies();
        assert_eq!(tallies.len(), 2);
        assert_eq!(tallies.iter().map(|t| t.jobs).sum::<u64>(), 10);
        assert!(tallies.iter().all(|t| t.steals <= t.jobs));
    }

    #[test]
    fn dropping_the_pool_discards_unstarted_jobs_without_hanging() {
        let mut pool: StealingPool<u64, u64> = StealingPool::new(1, |item| {
            std::thread::sleep(Duration::from_millis(1));
            *item
        });
        for seq in 0..64u64 {
            pool.submit(seq, seq);
        }
        // Take one completion, then drop: the backlog must be discarded,
        // not drained (a multi-second hang would trip the test timeout).
        assert!(pool.next_completion().is_some());
        drop(pool);
    }
}
