//! Deterministic fault injection for exercising campaign recovery paths.
//!
//! Real campaign failures — a panicking run, a trace file that stops
//! being readable, a process killed between journal appends — are rare
//! and timing-dependent, so the recovery machinery they exercise would
//! otherwise go untested. This module plants explicit, deterministic
//! hooks at the three fault boundaries:
//!
//! * `before_run`: panic on a chosen run index (optionally only for
//!   its first N attempts, so `FailurePolicy::Retry` paths can observe a
//!   *transient* fault);
//! * `before_trace_open`: fail the next N trace-file opens with an
//!   injected I/O error;
//! * `after_journal_append`: abort the process (or stall it, so a test
//!   can deliver a real kill signal) once the checkpoint journal holds a
//!   chosen number of records.
//!
//! Everything here is compiled only under the `fault-injection` cargo
//! feature; without it the hooks are empty inline functions, so release
//! hot paths carry no cost and no injectable state. With the feature on,
//! faults are armed per-process through a global plan ([`arm`] /
//! [`disarm`]) — tests that arm faults must serialize on a lock of
//! their own, since the plan is process-wide.

#[cfg(feature = "fault-injection")]
use std::sync::Mutex;

/// Which faults to inject, armed process-wide via [`arm`]. The default
/// plan injects nothing.
#[cfg(feature = "fault-injection")]
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Panic inside the run with this campaign index, but only for its
    /// first `attempts` executions — `(index, u32::MAX)` makes the fault
    /// permanent, `(index, 1)` makes it transient (the first retry
    /// succeeds).
    pub panic_on_run: Option<(usize, u32)>,
    /// Fail this many trace-file opens (across all runs, in open order)
    /// with an injected I/O error before letting opens through again.
    pub trace_open_failures: u32,
    /// Abort the process (no unwinding, no destructors — as close to a
    /// kill as an in-process fault gets) once the journal has this many
    /// records.
    pub abort_after_journal_records: Option<u64>,
    /// Stall the campaign indefinitely once the journal has this many
    /// records, so an external test can deliver a *real* process kill at
    /// a deterministic journal state.
    pub stall_after_journal_records: Option<u64>,
}

#[cfg(feature = "fault-injection")]
#[derive(Debug, Default)]
struct FaultState {
    plan: FaultPlan,
    run_panics_injected: u32,
    trace_failures_injected: u32,
}

#[cfg(feature = "fault-injection")]
static STATE: Mutex<Option<FaultState>> = Mutex::new(None);

#[cfg(feature = "fault-injection")]
fn with_state<T>(f: impl FnOnce(&mut Option<FaultState>) -> T) -> T {
    // A panic while holding the lock (before_run injects one) poisons
    // it; later faults must keep working, so take the inner value.
    let mut guard = STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    f(&mut guard)
}

/// Arms `plan` for the whole process, replacing any previous plan and
/// resetting injection counters.
#[cfg(feature = "fault-injection")]
pub fn arm(plan: FaultPlan) {
    with_state(|state| {
        *state = Some(FaultState {
            plan,
            run_panics_injected: 0,
            trace_failures_injected: 0,
        });
    });
}

/// Disarms all faults.
#[cfg(feature = "fault-injection")]
pub fn disarm() {
    with_state(|state| *state = None);
}

/// Hook: called at the top of every run execution (every attempt).
#[cfg(feature = "fault-injection")]
pub(crate) fn before_run(index: usize) {
    let fire = with_state(|state| {
        let Some(state) = state.as_mut() else {
            return false;
        };
        let Some((target, attempts)) = state.plan.panic_on_run else {
            return false;
        };
        if target == index && state.run_panics_injected < attempts {
            state.run_panics_injected += 1;
            return true;
        }
        false
    });
    if fire {
        // lint: allow(panic-freedom) -- the whole point: a deliberate injected fault for recovery tests
        panic!("injected fault: run {index} panicked on purpose");
    }
}

/// Hook: called before every trace-file open; `Some` is the injected
/// failure the open must return instead of touching the file.
#[cfg(feature = "fault-injection")]
pub(crate) fn before_trace_open(path: &std::path::Path) -> Option<std::io::Error> {
    with_state(|state| {
        let state = state.as_mut()?;
        if state.trace_failures_injected < state.plan.trace_open_failures {
            state.trace_failures_injected += 1;
            return Some(std::io::Error::other(format!(
                "injected trace I/O fault opening {}",
                path.display()
            )));
        }
        None
    })
}

/// Hook: called after every checkpoint journal append with the record
/// count now durable. May abort or stall the process per the plan.
#[cfg(feature = "fault-injection")]
pub(crate) fn after_journal_append(records: u64) {
    let (abort, stall) = with_state(|state| {
        let Some(state) = state.as_ref() else {
            return (false, false);
        };
        (
            state.plan.abort_after_journal_records == Some(records),
            state.plan.stall_after_journal_records == Some(records),
        )
    });
    if abort {
        // No unwinding, no Drop, no flushes beyond what already happened:
        // the closest in-process stand-in for `kill -9`.
        std::process::abort();
    }
    if stall {
        // Park forever so an external test can kill this process at a
        // deterministic journal state.
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
}

#[cfg(not(feature = "fault-injection"))]
pub(crate) fn before_run(_index: usize) {}

#[cfg(not(feature = "fault-injection"))]
pub(crate) fn before_trace_open(_path: &std::path::Path) -> Option<std::io::Error> {
    None
}

#[cfg(not(feature = "fault-injection"))]
pub(crate) fn after_journal_append(_records: u64) {}
