//! # cpu
//!
//! A trace-driven out-of-order core model in the spirit of Ramulator's
//! simple CPU model (Table 5 of the paper: 3.2 GHz, 4-wide issue,
//! 128-entry instruction window).
//!
//! Each core consumes a stream of [`TraceRecord`]s. Non-memory instructions
//! retire immediately once issued; loads occupy an instruction-window slot
//! until the memory system signals completion; stores retire without
//! waiting (write-back memory system). When the window is full or the
//! memory system refuses a request, the core stalls.
//!
//! ## Example
//!
//! ```
//! use bh_types::{Cycle, ThreadId, TraceRecord};
//! use cpu::{Core, CoreConfig, MemorySink};
//!
//! /// A memory that answers every request instantly.
//! struct InstantMemory { next_token: u64, done: Vec<u64> }
//! impl MemorySink for InstantMemory {
//!     fn try_send(&mut self, _t: ThreadId, _addr: u64, _w: bool, _b: bool, _now: Cycle)
//!         -> Option<u64>
//!     {
//!         self.next_token += 1;
//!         self.done.push(self.next_token);
//!         Some(self.next_token)
//!     }
//! }
//!
//! let trace = vec![TraceRecord::load(3, 0x40), TraceRecord::load(0, 0x80)];
//! let mut core = Core::new(ThreadId::new(0), CoreConfig::default(), trace.into_iter());
//! let mut memory = InstantMemory { next_token: 0, done: Vec::new() };
//! for cycle in 0..100 {
//!     core.tick(cycle, &mut memory);
//!     for token in memory.done.drain(..) {
//!         core.on_memory_complete(token);
//!     }
//! }
//! assert_eq!(core.retired_instructions(), 5);
//! assert!(core.is_finished());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bh_types::{Cycle, ThreadId, TraceRecord};
use std::collections::VecDeque;

/// Destination of a core's memory requests (the LLC or, for bypassing
/// accesses, the memory controller). Implemented by the simulation harness.
pub trait MemorySink {
    /// Attempts to send a memory request on behalf of `thread`.
    ///
    /// Returns a token that will later be passed to
    /// [`Core::on_memory_complete`], or `None` if the request cannot be
    /// accepted this cycle (queue full / quota exceeded); the core will
    /// retry on a later cycle.
    fn try_send(
        &mut self,
        thread: ThreadId,
        address: u64,
        is_write: bool,
        bypass_cache: bool,
        now: Cycle,
    ) -> Option<u64>;
}

/// Static parameters of a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Maximum instructions issued and retired per cycle.
    pub issue_width: usize,
    /// Instruction window (ROB) capacity.
    pub window_size: usize,
    /// Stop fetching once this many instructions have retired
    /// (`u64::MAX` = run the whole trace).
    pub instruction_limit: u64,
}

impl Default for CoreConfig {
    /// The paper's core: 4-wide issue, 128-entry window, no limit.
    fn default() -> Self {
        Self {
            issue_width: 4,
            window_size: 128,
            instruction_limit: u64::MAX,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct WindowEntry {
    done: bool,
    token: Option<u64>,
}

/// Per-core performance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired_instructions: u64,
    /// Memory requests sent.
    pub memory_requests: u64,
}

/// A single trace-driven core.
#[derive(Debug)]
pub struct Core<T: Iterator<Item = TraceRecord>> {
    id: ThreadId,
    config: CoreConfig,
    trace: T,
    window: VecDeque<WindowEntry>,
    /// Non-memory instructions of the current record still to issue.
    pending_non_memory: u32,
    /// The memory access of the current record, not yet accepted.
    pending_access: Option<TraceRecord>,
    trace_exhausted: bool,
    stats: CoreStats,
}

impl<T: Iterator<Item = TraceRecord>> Core<T> {
    /// Creates a core that executes `trace`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has a zero issue width or window size.
    pub fn new(id: ThreadId, config: CoreConfig, trace: T) -> Self {
        assert!(config.issue_width > 0, "issue width must be non-zero");
        assert!(config.window_size > 0, "window size must be non-zero");
        Self {
            id,
            config,
            trace,
            window: VecDeque::with_capacity(config.window_size),
            pending_non_memory: 0,
            pending_access: None,
            trace_exhausted: false,
            stats: CoreStats::default(),
        }
    }

    /// The hardware-thread identifier of this core.
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// Instructions retired so far.
    pub fn retired_instructions(&self) -> u64 {
        self.stats.retired_instructions
    }

    /// Performance counters.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Whether the core has reached its instruction limit, or exhausted its
    /// trace and drained its window.
    pub fn is_finished(&self) -> bool {
        self.stats.retired_instructions >= self.config.instruction_limit
            || (self.trace_exhausted
                && self.pending_access.is_none()
                && self.pending_non_memory == 0
                && self.window.is_empty())
    }

    /// Marks the load identified by `token` as complete, unblocking its
    /// window slot for retirement.
    pub fn on_memory_complete(&mut self, token: u64) {
        if let Some(entry) = self
            .window
            .iter_mut()
            .find(|e| e.token == Some(token) && !e.done)
        {
            entry.done = true;
        }
    }

    fn refill_pending(&mut self) {
        if self.pending_access.is_none() && self.pending_non_memory == 0 && !self.trace_exhausted {
            match self.trace.next() {
                Some(record) => {
                    self.pending_non_memory = record.non_memory_instructions;
                    self.pending_access = Some(record);
                }
                None => self.trace_exhausted = true,
            }
        }
    }

    /// Advances the core by one cycle: retires completed instructions from
    /// the window head and issues new ones, sending memory accesses to
    /// `memory`.
    ///
    /// Returns whether the core can retire or issue in the next cycle
    /// without an outside event (a completion delivered through
    /// [`Core::on_memory_complete`], or memory accepting a send it
    /// refused). The rule, in order: a finished core cannot; a done window
    /// head can retire; a full window or a reached instruction limit
    /// cannot issue; pending non-memory instructions can issue; a pending
    /// access can be sent unless memory just refused it; with nothing
    /// pending, the next trace record can be fetched unless the trace is
    /// exhausted. When it returns `false`, the next tick retires and
    /// issues nothing until such an event, which lets event-driven
    /// stepping skip the cycles in between.
    pub fn tick(&mut self, now: Cycle, memory: &mut dyn MemorySink) -> bool {
        if self.is_finished() {
            return false;
        }
        // Retire in order from the head of the window.
        let mut retired = 0;
        while retired < self.config.issue_width {
            match self.window.front() {
                Some(entry) if entry.done => {
                    self.window.pop_front();
                    self.stats.retired_instructions += 1;
                    retired += 1;
                }
                _ => break,
            }
        }
        // Issue.
        let mut issued = 0;
        let mut refused = false;
        while issued < self.config.issue_width {
            if self.stats.retired_instructions + self.window.len() as u64
                >= self.config.instruction_limit
            {
                break;
            }
            self.refill_pending();
            if self.window.len() >= self.config.window_size {
                break;
            }
            if self.pending_non_memory > 0 {
                self.pending_non_memory -= 1;
                self.window.push_back(WindowEntry {
                    done: true,
                    token: None,
                });
                issued += 1;
                continue;
            }
            let Some(record) = self.pending_access else {
                // Trace exhausted.
                break;
            };
            match memory.try_send(
                self.id,
                record.address,
                record.is_write,
                record.bypass_cache,
                now,
            ) {
                Some(token) => {
                    self.stats.memory_requests += 1;
                    self.window.push_back(WindowEntry {
                        // Stores retire without waiting for memory.
                        done: record.is_write,
                        token: Some(token),
                    });
                    self.pending_access = None;
                    issued += 1;
                }
                None => {
                    refused = true;
                    break;
                }
            }
        }
        self.can_act(refused)
    }

    /// Whether the next tick can retire or issue without an outside event,
    /// after a tick whose last send was `refused` (see [`Core::tick`]).
    fn can_act(&self, refused: bool) -> bool {
        if self.is_finished() {
            return false;
        }
        if self.window.front().is_some_and(|entry| entry.done) {
            return true;
        }
        if self.window.len() >= self.config.window_size
            || self.stats.retired_instructions + self.window.len() as u64
                >= self.config.instruction_limit
        {
            return false;
        }
        if self.pending_non_memory > 0 {
            return true;
        }
        match self.pending_access {
            Some(_) => !refused,
            None => !self.trace_exhausted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A memory model with a fixed latency and bounded concurrency.
    struct TestMemory {
        latency: Cycle,
        capacity: usize,
        inflight: Vec<(Cycle, u64)>,
        next_token: u64,
        completed: Vec<u64>,
        requests_seen: Vec<(u64, bool, bool)>,
        /// Sends refused because `capacity` requests were in flight, or
        /// because the memory was `busy`.
        refused: u64,
        /// Refuses every send while set (a stand-in for a full queue that
        /// drains without completing anything).
        busy: bool,
    }

    impl TestMemory {
        fn new(latency: Cycle, capacity: usize) -> Self {
            Self {
                latency,
                capacity,
                inflight: Vec::new(),
                next_token: 0,
                completed: Vec::new(),
                requests_seen: Vec::new(),
                refused: 0,
                busy: false,
            }
        }

        fn tick(&mut self, now: Cycle) {
            let mut i = 0;
            while i < self.inflight.len() {
                if self.inflight[i].0 <= now {
                    let (_, token) = self.inflight.swap_remove(i);
                    self.completed.push(token);
                } else {
                    i += 1;
                }
            }
        }
    }

    impl MemorySink for TestMemory {
        fn try_send(
            &mut self,
            _thread: ThreadId,
            address: u64,
            is_write: bool,
            bypass: bool,
            now: Cycle,
        ) -> Option<u64> {
            if self.busy || self.inflight.len() >= self.capacity {
                self.refused += 1;
                return None;
            }
            self.next_token += 1;
            self.inflight.push((now + self.latency, self.next_token));
            self.requests_seen.push((address, is_write, bypass));
            Some(self.next_token)
        }
    }

    /// Ticks `core` until it finishes or `cycles` elapse, and returns its
    /// IPC over the ticks it ran.
    fn run<T: Iterator<Item = TraceRecord>>(
        core: &mut Core<T>,
        memory: &mut TestMemory,
        cycles: Cycle,
    ) -> f64 {
        let mut ticks = 0;
        for now in 0..cycles {
            memory.tick(now);
            for token in memory.completed.drain(..) {
                core.on_memory_complete(token);
            }
            core.tick(now, memory);
            ticks += 1;
            if core.is_finished() {
                break;
            }
        }
        core.retired_instructions() as f64 / ticks as f64
    }

    #[test]
    fn pure_compute_trace_achieves_full_issue_width() {
        // One memory access after a long run of non-memory instructions.
        let trace = vec![TraceRecord::load(100_000, 0x40)];
        let mut core = Core::new(ThreadId::new(0), CoreConfig::default(), trace.into_iter());
        let mut memory = TestMemory::new(1, 16);
        let ipc = run(&mut core, &mut memory, 1_000_000);
        assert!(core.is_finished());
        assert!(ipc > 3.5, "compute-bound IPC should approach 4, got {ipc}");
    }

    #[test]
    fn long_latency_memory_bounds_ipc() {
        // Every instruction is a dependent-ish load with 200-cycle latency
        // and a single outstanding request allowed.
        let trace: Vec<TraceRecord> = (0..200).map(|i| TraceRecord::load(0, i * 4096)).collect();
        let mut core = Core::new(ThreadId::new(0), CoreConfig::default(), trace.into_iter());
        let mut memory = TestMemory::new(200, 1);
        let ipc = run(&mut core, &mut memory, 1_000_000);
        assert!(core.is_finished());
        assert!(ipc < 0.05, "memory-bound IPC should be tiny, got {ipc}");
        assert!(memory.refused > 0);
    }

    #[test]
    fn window_limits_outstanding_loads() {
        let trace: Vec<TraceRecord> = (0..1_000).map(|i| TraceRecord::load(0, i * 64)).collect();
        let config = CoreConfig {
            window_size: 8,
            ..CoreConfig::default()
        };
        let mut core = Core::new(ThreadId::new(0), config, trace.into_iter());
        // Memory never answers: the window must cap outstanding requests.
        let mut memory = TestMemory::new(u64::MAX / 2, 1024);
        for now in 0..100 {
            core.tick(now, &mut memory);
        }
        assert_eq!(memory.requests_seen.len(), 8);
    }

    #[test]
    fn stores_retire_without_waiting() {
        let trace = vec![TraceRecord::store(0, 0x40), TraceRecord::store(0, 0x80)];
        let mut core = Core::new(ThreadId::new(0), CoreConfig::default(), trace.into_iter());
        // Memory with effectively infinite latency: stores must still retire.
        let mut memory = TestMemory::new(u64::MAX / 2, 16);
        for now in 0..10 {
            core.tick(now, &mut memory);
        }
        assert_eq!(core.retired_instructions(), 2);
        assert!(core.is_finished());
    }

    #[test]
    fn instruction_limit_stops_the_core() {
        let trace = (0..).map(|i| TraceRecord::load(9, (i as u64) * 64));
        let config = CoreConfig {
            instruction_limit: 500,
            ..CoreConfig::default()
        };
        let mut core = Core::new(ThreadId::new(0), config, trace);
        let mut memory = TestMemory::new(5, 64);
        run(&mut core, &mut memory, 100_000);
        assert!(core.is_finished());
        assert_eq!(core.retired_instructions(), 500);
    }

    #[test]
    fn a_just_refused_send_cannot_act() {
        let trace = vec![TraceRecord::load(0, 0x40), TraceRecord::load(8, 0x80)];
        let mut core = Core::new(ThreadId::new(0), CoreConfig::default(), trace.into_iter());
        let mut memory = TestMemory::new(10, 0);
        assert!(!core.tick(0, &mut memory), "the load was refused");
        assert!(!core.tick(1, &mut memory), "and is refused again");
        assert_eq!(memory.refused, 2);
        memory.capacity = 1;
        assert!(core.tick(2, &mut memory), "non-memory instructions follow");
        assert!(core.tick(3, &mut memory));
        assert!(
            !core.tick(4, &mut memory),
            "the second load is refused while the first is in flight"
        );
        assert_eq!(memory.refused, 3);
    }

    #[test]
    fn a_full_window_with_a_done_head_can_act() {
        let config = CoreConfig {
            issue_width: 1,
            window_size: 1,
            ..CoreConfig::default()
        };
        let trace = vec![TraceRecord::store(0, 0x40), TraceRecord::store(0, 0x80)];
        let mut core = Core::new(ThreadId::new(0), config, trace.into_iter());
        let mut memory = TestMemory::new(u64::MAX / 2, 16);
        assert!(
            core.tick(0, &mut memory),
            "the done store at the head can retire next cycle"
        );
        assert_eq!(core.window.len(), config.window_size);
        let mut loads = Core::new(
            ThreadId::new(0),
            config,
            vec![TraceRecord::load(0, 0x40)].into_iter(),
        );
        assert!(
            !loads.tick(0, &mut memory),
            "a waiting load fills the window"
        );
    }

    #[test]
    fn a_finished_core_cannot_act() {
        let trace = vec![TraceRecord::load(0, 0x40)];
        let mut core = Core::new(ThreadId::new(0), CoreConfig::default(), trace.into_iter());
        let mut memory = TestMemory::new(1, 4);
        assert!(!core.tick(0, &mut memory), "the load waits on memory");
        memory.tick(1);
        core.on_memory_complete(memory.completed[0]);
        assert!(!core.tick(1, &mut memory), "the last load retires");
        assert!(core.is_finished());
        assert!(!core.tick(2, &mut memory));
    }

    /// A small deterministic generator (splitmix64) for random traces.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    proptest! {
        /// Whenever a tick says the core cannot act, the next tick neither
        /// retires nor issues, unless a completion was delivered or a
        /// memory that refused may accept again in between.
        #[test]
        fn a_core_that_cannot_act_stays_still(
            seed in 0u64..u64::MAX,
            issue_width in 1usize..5,
            window_size in 1usize..12,
            capacity in 1usize..6,
            latency in 1u64..40,
            limit in 0u64..2,
        ) {
            let mut rng = Rng(seed);
            let trace: Vec<TraceRecord> = (0..300)
                .map(|_| {
                    let non_memory = rng.below(6) as u32;
                    let address = rng.below(64) * 64;
                    match rng.below(4) {
                        0 => TraceRecord::store(non_memory, address),
                        1 => TraceRecord::uncached_load(non_memory, address),
                        _ => TraceRecord::load(non_memory, address),
                    }
                })
                .collect();
            let config = CoreConfig {
                issue_width,
                window_size,
                instruction_limit: if limit == 0 { u64::MAX } else { 200 },
            };
            let mut core = Core::new(ThreadId::new(0), config, trace.into_iter());
            let mut memory = TestMemory::new(latency, capacity);
            let mut could_act = true;
            for now in 0..20_000 {
                let was_busy = memory.busy;
                memory.busy = rng.below(6) == 0;
                memory.tick(now);
                let delivered = !memory.completed.is_empty();
                for token in memory.completed.drain(..) {
                    core.on_memory_complete(token);
                }
                // A memory that stops being busy may accept a refused send.
                let memory_freed = was_busy && !memory.busy;
                let progress = |core: &Core<_>| {
                    (core.retired_instructions(), core.window.len(), core.stats.memory_requests)
                };
                let before = progress(&core);
                let can_act = core.tick(now, &mut memory);
                if !(could_act || delivered || memory_freed) {
                    prop_assert_eq!(
                        before,
                        progress(&core),
                        "cycle {} acted after a tick that said it could not",
                        now
                    );
                }
                could_act = can_act;
                if core.is_finished() {
                    prop_assert!(!can_act);
                    break;
                }
            }
            prop_assert!(core.is_finished());
        }
    }

    #[test]
    fn bypass_flag_is_propagated() {
        let trace = vec![TraceRecord::uncached_load(0, 0x1234)];
        let mut core = Core::new(ThreadId::new(0), CoreConfig::default(), trace.into_iter());
        let mut memory = TestMemory::new(1, 4);
        run(&mut core, &mut memory, 100);
        assert_eq!(memory.requests_seen.len(), 1);
        let (addr, is_write, bypass) = memory.requests_seen[0];
        assert_eq!(addr, 0x1234);
        assert!(!is_write);
        assert!(bypass);
    }
}
