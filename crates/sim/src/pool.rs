//! A persistent worker pool for deterministic fan-out of simulation work.
//!
//! Originally built to step channel shards: the scoped-thread stepping mode
//! spawns (and joins) one OS thread per shard on *every* simulated cycle,
//! which dominates its cost at low channel counts. This pool spawns each
//! worker thread once and keeps it alive for the lifetime of its owner;
//! per step, the owner *moves* each work item to its worker over a channel,
//! the worker processes it, and the item travels back together with the
//! result. Moving an item is a shallow struct copy (its queues and filters
//! live behind pointers), so the per-step cost is two channel handoffs per
//! worker instead of a thread spawn + join.
//!
//! The pool is generic over three types so the same mechanism serves both
//! of its users:
//!
//! * **shard stepping** (`sim::subsystem`): the context is the current
//!   [`Cycle`](bh_types::Cycle), the item a channel shard, the result its
//!   completion list;
//! * **campaign execution** (the `campaign` crate): the context is `()`,
//!   the item a whole run specification, the result the finished run's
//!   outcome — entire simulations fan out across the same persistent
//!   workers.
//!
//! Determinism is the caller's contract: `dispatch`/`collect` address
//! worker slots explicitly, so a caller that collects results in its own
//! fixed order observes output identical to sequential execution no matter
//! how long each worker actually takes.
//!
//! Two dispatch disciplines share this module. The slot-pinned
//! [`WorkerPool`] here pushes jobs round-robin to fixed slots — ideal
//! when items are uniform (shard stepping). The pull-based
//! [`queue::StealingPool`] hands jobs out through a shared injector
//! queue and returns completions out of order, tagged with their
//! sequence numbers — ideal when job durations are wildly skewed
//! (campaign runs) and a pinned slot would head-of-line-block.
//!
//! # Fault tolerance
//!
//! A worker thread dies when its work function panics. Callers choose how
//! that surfaces:
//!
//! * [`WorkerPool::collect`] re-raises the worker's original panic payload
//!   on the calling thread — the right behaviour for shard stepping, where
//!   the shard moved into the dead worker is unrecoverable state;
//! * [`WorkerPool::collect_recovered`] *survives* the death: it joins the
//!   dead thread, respawns a replacement worker in the same slot, and
//!   returns [`Collected::Lost`] describing the panic, how many moved-in
//!   jobs died with the thread, and any jobs that never reached it
//!   ([`WorkerPool::dispatch`] parks sends to a dead worker instead of
//!   panicking). A caller that keeps its own copies of dispatched work —
//!   the campaign executor clones each `RunSpec` it hands out — can
//!   resubmit and carry on instead of unwinding the whole campaign.

pub mod queue;

use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Bounded busy-wait before parking on the result channel: if the worker
/// finishes while the owner is still distributing work or doing its own
/// share, the result is usually ready by the time it is asked for, and
/// spinning briefly avoids a futex round trip. Kept small so a
/// single-hardware-thread host degrades gracefully.
const RESULT_SPIN: u32 = 256;

/// The shared work function workers run on every item (kept by the pool
/// so a replacement worker can be spawned after a panic).
type Work<C, T, R> = Arc<dyn Fn(C, &mut T) -> R + Send + Sync + 'static>;

/// One persistent worker owning a job and a result channel.
struct Worker<C, T, R> {
    job_tx: Option<Sender<(C, T)>>,
    result_rx: Receiver<(T, R)>,
    handle: Option<JoinHandle<()>>,
    /// Jobs dispatched (including parked ones) whose results have not
    /// been collected yet.
    outstanding: usize,
    /// Jobs whose send failed because the worker thread had already
    /// died; handed back to the caller by the recovery path so nothing
    /// is silently dropped.
    parked: Vec<(C, T)>,
}

/// What a fallible collect observed (see
/// [`WorkerPool::collect_recovered`]).
pub enum Collected<C, T, R> {
    /// The worker finished the job; the item comes back with the result.
    Done(T, R),
    /// The worker thread died (its work function panicked). The slot has
    /// already been respawned and is ready for new dispatches.
    Lost {
        /// The panic message recovered from the dead thread.
        message: String,
        /// Jobs that had been moved into the worker and died with it
        /// (the oldest of them is the one that was running). The caller
        /// must re-create them from its own records if it wants to
        /// resubmit.
        lost_jobs: usize,
        /// Jobs that never reached the dead worker (their channel send
        /// failed); they are returned intact, in dispatch order, for the
        /// caller to resubmit after any re-created lost jobs.
        parked: Vec<(C, T)>,
    },
}

/// A pool of persistent worker threads, one per work slot.
///
/// `C` is a per-dispatch context value passed through to the work function
/// (the simulation cycle for shard stepping, `()` for whole-run jobs),
/// `T` the work item (moved to the worker and back), and `R` the result.
pub struct WorkerPool<C: Send + 'static, T: Send + 'static, R: Send + 'static> {
    workers: Vec<Worker<C, T, R>>,
    work: Work<C, T, R>,
}

impl<C: Send + 'static, T: Send + 'static, R: Send + 'static> WorkerPool<C, T, R> {
    /// Spawns `slots` worker threads, each running `work` on every item it
    /// receives until the pool is dropped.
    pub fn new<F>(slots: usize, work: F) -> Self
    where
        F: Fn(C, &mut T) -> R + Send + Sync + 'static,
    {
        let work: Work<C, T, R> = Arc::new(work);
        let workers = (0..slots)
            .map(|slot| spawn_worker(slot, Arc::clone(&work)))
            .collect();
        Self { workers, work }
    }

    /// Number of worker slots.
    pub fn slots(&self) -> usize {
        self.workers.len()
    }

    /// Hands `item` to worker `slot` for one step with context `ctx`.
    ///
    /// A slot processes one item at a time: dispatching twice to the same
    /// slot without an intervening [`WorkerPool::collect`] queues the
    /// second item behind the first.
    ///
    /// If the slot's worker has died and its death has not yet been
    /// observed by a collect, the job is parked instead of sent; the next
    /// [`WorkerPool::collect_recovered`] on the slot returns parked jobs
    /// intact so the caller can resubmit them.
    pub fn dispatch(&mut self, slot: usize, ctx: C, item: T) {
        let worker = &mut self.workers[slot];
        worker.outstanding += 1;
        let Some(job_tx) = worker.job_tx.as_ref() else {
            // The slot's sender is only absent mid-recovery; treat like a
            // dead worker so the job is never dropped.
            worker.parked.push((ctx, item));
            return;
        };
        if let Err(failed) = job_tx.send((ctx, item)) {
            // The worker thread exited (panicked) before receiving this
            // job: park it for the recovery path instead of losing it.
            worker.parked.push(failed.0);
        }
    }

    /// Waits for worker `slot` to finish its oldest outstanding step and
    /// returns the item together with the step result.
    ///
    /// # Panics
    ///
    /// If the worker thread died (a panic inside the work function), the
    /// worker is joined and its original panic payload is re-raised on
    /// the calling thread. Use [`WorkerPool::collect_recovered`] to
    /// survive the death instead.
    pub fn collect(&mut self, slot: usize) -> (T, R) {
        match self.try_collect(slot) {
            Some(done) => done,
            None => propagate_worker_panic(&mut self.workers[slot]),
        }
    }

    /// Like [`WorkerPool::collect`], but a dead worker is recovered
    /// instead of re-panicking: the thread is joined for its panic
    /// message, a replacement worker is spawned into the slot, and the
    /// jobs that died with the thread are reported (with any parked jobs
    /// returned intact) so the caller can resubmit and continue.
    pub fn collect_recovered(&mut self, slot: usize) -> Collected<C, T, R> {
        match self.try_collect(slot) {
            Some((item, result)) => Collected::Done(item, result),
            None => self.recover(slot),
        }
    }

    /// Spins briefly, then blocks, for the slot's next result. `None`
    /// means the worker died without delivering it.
    fn try_collect(&mut self, slot: usize) -> Option<(T, R)> {
        let worker = &mut self.workers[slot];
        for _ in 0..RESULT_SPIN {
            match worker.result_rx.try_recv() {
                Ok(done) => {
                    worker.outstanding -= 1;
                    return Some(done);
                }
                Err(TryRecvError::Empty) => std::hint::spin_loop(),
                Err(TryRecvError::Disconnected) => return None,
            }
        }
        match worker.result_rx.recv() {
            Ok(done) => {
                worker.outstanding -= 1;
                Some(done)
            }
            Err(_) => None,
        }
    }

    /// Joins a dead worker, respawns its slot, and reports what was lost.
    fn recover(&mut self, slot: usize) -> Collected<C, T, R> {
        let replacement = spawn_worker(slot, Arc::clone(&self.work));
        let worker = &mut self.workers[slot];
        worker.job_tx.take();
        let message = match worker.handle.take().map(JoinHandle::join) {
            Some(Err(payload)) => panic_message(payload.as_ref()),
            Some(Ok(())) => "worker exited without a panic".to_owned(),
            None => "worker was already joined".to_owned(),
        };
        let parked = std::mem::take(&mut worker.parked);
        // Everything dispatched but not collected is either parked (still
        // in hand) or died inside the worker.
        let lost_jobs = worker.outstanding - parked.len();
        *worker = replacement;
        Collected::Lost {
            message,
            lost_jobs,
            parked,
        }
    }
}

/// Spawns the thread + channel pair behind one worker slot.
fn spawn_worker<C: Send + 'static, T: Send + 'static, R: Send + 'static>(
    slot: usize,
    work: Work<C, T, R>,
) -> Worker<C, T, R> {
    let (job_tx, job_rx) = channel::<(C, T)>();
    let (result_tx, result_rx) = channel::<(T, R)>();
    let handle = std::thread::Builder::new()
        .name(format!("pool-worker-{slot}"))
        .spawn(move || {
            while let Ok((ctx, mut item)) = job_rx.recv() {
                let result = work(ctx, &mut item);
                if result_tx.send((item, result)).is_err() {
                    break;
                }
            }
        })
        // lint: allow(panic-freedom) -- thread-spawn failure at pool construction is unrecoverable infrastructure loss
        .expect("failed to spawn pool worker thread");
    Worker {
        job_tx: Some(job_tx),
        result_rx,
        handle: Some(handle),
        outstanding: 0,
        parked: Vec::new(),
    }
}

/// Best-effort rendering of a panic payload (panics carry `&str` or
/// `String` in practice). Shared with the pull-based [`queue`] pool.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// A worker's result channel disconnected mid-step: the work function
/// panicked. Join the thread to recover the original panic payload and
/// re-raise it here, so the caller sees the real failure instead of a
/// generic "worker died" message.
fn propagate_worker_panic<C, T, R>(worker: &mut Worker<C, T, R>) -> ! {
    worker.job_tx.take();
    if let Some(handle) = worker.handle.take() {
        if let Err(payload) = handle.join() {
            std::panic::resume_unwind(payload);
        }
    }
    // lint: allow(panic-freedom) -- unreachable fallback: a worker that died without a result resumed its unwind above
    panic!("pool worker exited without delivering a result");
}

impl<C: Send + 'static, T: Send + 'static, R: Send + 'static> Drop for WorkerPool<C, T, R> {
    fn drop(&mut self) {
        // Closing the job channels lets every worker fall out of its loop;
        // join afterwards so worker panics surface during tests.
        for worker in &mut self.workers {
            worker.job_tx.take();
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                // A worker that panicked already reported through collect();
                // suppress the secondary panic during unwinding.
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_step_items_and_hand_them_back() {
        let mut pool: WorkerPool<u64, u64, u64> = WorkerPool::new(3, |now, item| {
            *item += now;
            *item
        });
        assert_eq!(pool.slots(), 3);
        for round in 1..=5u64 {
            for slot in 0..3 {
                pool.dispatch(slot, round, slot as u64);
            }
            for slot in 0..3 {
                let (item, result) = pool.collect(slot);
                assert_eq!(item, slot as u64 + round);
                assert_eq!(result, item);
            }
        }
    }

    #[test]
    fn unit_context_jobs_run() {
        let mut pool: WorkerPool<(), String, usize> =
            WorkerPool::new(2, |(), item: &mut String| item.len());
        pool.dispatch(0, (), "four".to_owned());
        pool.dispatch(1, (), "seven!!".to_owned());
        let (item, len) = pool.collect(0);
        assert_eq!((item.as_str(), len), ("four", 4));
        let (item, len) = pool.collect(1);
        assert_eq!((item.as_str(), len), ("seven!!", 7));
    }

    #[test]
    fn a_slot_queues_back_to_back_dispatches_in_order() {
        let mut pool: WorkerPool<u64, u64, u64> = WorkerPool::new(1, |ctx, item| *item * 10 + ctx);
        pool.dispatch(0, 1, 1);
        pool.dispatch(0, 2, 2);
        assert_eq!(pool.collect(0).1, 11);
        assert_eq!(pool.collect(0).1, 22);
    }

    #[test]
    fn dropping_the_pool_joins_the_workers() {
        let mut pool: WorkerPool<u64, u32, u32> = WorkerPool::new(2, |_, item| *item);
        pool.dispatch(0, 0, 7);
        let (item, _) = pool.collect(0);
        assert_eq!(item, 7);
        drop(pool); // must not hang
    }

    #[test]
    fn collect_propagates_the_original_panic_payload() {
        let mut pool: WorkerPool<(), u32, u32> = WorkerPool::new(1, |(), item: &mut u32| {
            assert!(*item != 13, "unlucky item");
            *item
        });
        pool.dispatch(0, (), 13);
        let unwind = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.collect(0)));
        let payload = unwind.expect_err("worker panic must propagate");
        let message = super::panic_message(payload.as_ref());
        assert!(message.contains("unlucky item"), "got: {message}");
    }

    #[test]
    fn a_dead_worker_is_recovered_and_the_slot_respawned() {
        let mut pool: WorkerPool<(), u32, u32> = WorkerPool::new(1, |(), item: &mut u32| {
            assert!(*item != 13, "unlucky item");
            *item * 2
        });
        pool.dispatch(0, (), 13);
        match pool.collect_recovered(0) {
            Collected::Lost {
                message,
                lost_jobs,
                parked,
            } => {
                assert!(message.contains("unlucky item"), "got: {message}");
                assert_eq!(lost_jobs, 1);
                assert!(parked.is_empty());
            }
            Collected::Done(..) => panic!("the job must be lost"),
        }
        // The slot was respawned in place: it accepts and runs new work.
        pool.dispatch(0, (), 4);
        match pool.collect_recovered(0) {
            Collected::Done(item, result) => assert_eq!((item, result), (4, 8)),
            Collected::Lost { message, .. } => panic!("respawned slot died: {message}"),
        }
    }

    #[test]
    fn jobs_behind_a_panicking_job_are_accounted_lost_or_parked() {
        let mut pool: WorkerPool<(), u32, u32> = WorkerPool::new(1, |(), item: &mut u32| {
            assert!(*item != 13, "unlucky item");
            *item
        });
        // The panicking job plus three more behind it. Depending on timing
        // the trailing jobs either reach the worker's queue before it dies
        // (lost with the thread) or fail to send (returned parked); the
        // recovery report must account for every single one either way.
        pool.dispatch(0, (), 13);
        for extra in [1u32, 2, 3] {
            pool.dispatch(0, (), extra);
        }
        match pool.collect_recovered(0) {
            Collected::Lost {
                lost_jobs, parked, ..
            } => {
                assert_eq!(lost_jobs + parked.len(), 4, "every job accounted for");
                assert!(lost_jobs >= 1, "the running job always dies");
                // Parked jobs come back intact and in dispatch order.
                let restored: Vec<u32> = parked.into_iter().map(|((), item)| item).collect();
                assert!(
                    restored
                        .iter()
                        .zip([1, 2, 3].iter().skip(3 - restored.len()))
                        .all(|(a, b)| a == b)
                        || restored.is_empty()
                        || restored == [1, 2, 3]
                        || restored == [2, 3]
                        || restored == [3]
                );
            }
            Collected::Done(..) => panic!("the poisoned batch cannot complete"),
        }
        // The respawned slot keeps working.
        pool.dispatch(0, (), 21);
        let (item, result) = pool.collect(0);
        assert_eq!((item, result), (21, 21));
    }

    #[test]
    fn results_buffered_before_a_death_are_still_collected() {
        let mut pool: WorkerPool<(), u32, u32> = WorkerPool::new(1, |(), item: &mut u32| {
            assert!(*item != 13, "unlucky item");
            *item + 100
        });
        pool.dispatch(0, (), 1);
        pool.dispatch(0, (), 2);
        pool.dispatch(0, (), 13);
        // The two healthy results arrive even though the worker later died.
        assert_eq!(pool.collect(0).1, 101);
        assert_eq!(pool.collect(0).1, 102);
        match pool.collect_recovered(0) {
            Collected::Lost { lost_jobs, .. } => assert_eq!(lost_jobs, 1),
            Collected::Done(..) => panic!("the poisoned job cannot complete"),
        }
    }
}
