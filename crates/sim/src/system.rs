//! The cycle-level full-system model: cores + LLC + the channel-sharded
//! memory subsystem (one controller + DRAM device + defense per channel).

use crate::defense_factory::DefenseKind;
use crate::metrics::{RunResult, SteppingStats, ThreadResult};
use crate::subsystem::{merge_channel_stats, MemorySubsystem, ShardReqId};
use bh_types::{AccessType, Cycle, FastMap, FastSet, ThreadId, TraceRecord};
use cpu::{Core, CoreConfig, MemorySink};
use energy::{Ddr4PowerSpec, DramEnergyModel};
use llc::{AccessResult, Llc, LlcConfig};
use memctrl::MemCtrlConfig;
use mitigations::{DefenseGeometry, RowHammerDefense, RowHammerThreshold};
use workloads::{AttackKind, AttackSpec, SyntheticSpec};

use std::collections::VecDeque;

/// A boxed trace iterator, the form in which workloads are fed to cores.
pub type BoxedTrace = Box<dyn Iterator<Item = TraceRecord>>;

/// How the simulated clock advances between ticks.
///
/// Both modes produce bit-identical results (pinned by
/// `tests/tests/event_equivalence.rs`): event-driven stepping, the
/// default, only skips cycles in which no component could act, and
/// replays the per-poll admission refusals those cycles would have
/// counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdvanceMode {
    /// Tick every cycle (`now + 1`): the reference that the equivalence
    /// tests compare event-driven stepping against.
    Lockstep,
    /// After a tick following which no core can retire or issue without an
    /// outside event (its window head waits on memory, or memory just
    /// refused its access) and no core queued a line fetch, jump to the
    /// earliest cycle at which a controller or the LLC hit queue can act:
    /// a command slot reopening, a completion, a failed pass's retry or
    /// refresh cycle, new work for an open slot, the LLC hit queue's
    /// front, or a defense event.
    #[default]
    EventDriven,
}

/// Simulation-size knobs shared by every run of an experiment or
/// campaign: one value says how large a run is, and
/// [`RunScale::builder`] turns it into a configured [`SystemBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunScale {
    /// Time-scaling factor applied to refresh window and thresholds.
    pub time_scale: u64,
    /// Instructions each benign thread executes.
    pub benign_instructions: u64,
    /// LLC capacity in bytes (shrunk together with the instruction budget
    /// so cacheable workloads stay memory-bound, as they are at full
    /// scale).
    pub llc_bytes: u64,
    /// Minimum simulated cycles (so slow defense dynamics are observed).
    pub min_cycles: u64,
    /// Safety bound on simulated cycles.
    pub max_cycles: u64,
    /// How the simulated clock advances. Event-driven skips cycles in
    /// which nothing can act and is bit-identical to lockstep, so it never
    /// changes results — only wall-clock.
    pub advance: AdvanceMode,
}

impl RunScale {
    /// Smoke-test scale: seconds per campaign, suitable for tests and CI.
    pub fn quick() -> Self {
        Self {
            time_scale: 8192,
            benign_instructions: 2_000,
            llc_bytes: 1 << 20,
            // Two scaled refresh windows.
            min_cycles: 2 * (204_800_000 / 8192),
            max_cycles: 3_000_000,
            advance: AdvanceMode::EventDriven,
        }
    }

    /// The default larger scale (minutes per campaign).
    pub fn standard() -> Self {
        Self {
            time_scale: 1024,
            benign_instructions: 100_000,
            llc_bytes: 4 << 20,
            min_cycles: 2 * (204_800_000 / 1024),
            max_cycles: 200_000_000,
            advance: AdvanceMode::EventDriven,
        }
    }

    /// A builder configured with this scale's time scale, LLC capacity,
    /// cycle bounds and advance mode; callers add the seed, defense,
    /// threshold, channels and threads.
    pub fn builder(&self) -> SystemBuilder {
        SystemBuilder::new()
            .time_scale(self.time_scale)
            .llc_capacity(self.llc_bytes)
            .min_cycles(self.min_cycles)
            .max_cycles(self.max_cycles)
            .advance_mode(self.advance)
    }
}

/// Static configuration of a simulated system.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Memory controller (and DRAM) configuration.
    pub memctrl: MemCtrlConfig,
    /// Last-level cache configuration.
    pub llc: LlcConfig,
    /// Per-core configuration.
    pub core: CoreConfig,
    /// RowHammer threshold the defense is configured for (already in the
    /// simulation's time scale).
    pub n_rh: u64,
    /// Time-scaling factor that was applied (1 = full scale); recorded for
    /// reporting.
    pub time_scale: u64,
    /// Safety bound on simulated cycles.
    pub max_cycles: Cycle,
    /// Minimum number of cycles to simulate even if every benign thread has
    /// finished (used so defenses are observed across at least a couple of
    /// refresh windows; the attacker keeps running in the meantime).
    pub min_cycles: Cycle,
    /// Whether to record every DRAM activation (needed by safety
    /// verification; costs memory).
    pub enable_activation_log: bool,
    /// How the simulated clock advances between ticks: event-driven
    /// skipping of cycles in which nothing can act (the default), or
    /// lockstep. Bit-identical either way.
    pub advance: AdvanceMode,
    /// Seed for workload generators and probabilistic defenses.
    pub seed: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            memctrl: MemCtrlConfig::default(),
            llc: LlcConfig::default(),
            core: CoreConfig::default(),
            n_rh: 32_768,
            time_scale: 1,
            max_cycles: 2_000_000_000,
            min_cycles: 0,
            enable_activation_log: false,
            advance: AdvanceMode::default(),
            seed: 1,
        }
    }
}

impl SystemConfig {
    /// The per-channel defense geometry implied by this configuration for
    /// `threads` hardware threads (for channel 0; defenses for other
    /// channels differ only by [`DefenseGeometry::channel`]).
    ///
    /// Defenses are instantiated once per channel, so the geometry holds
    /// one channel's organization — with one channel this is the whole
    /// system.
    pub fn defense_geometry(&self, threads: usize) -> DefenseGeometry {
        let timings = self.memctrl.timings.into_cycles(&self.memctrl.clock);
        DefenseGeometry {
            channel: 0,
            organization: self.memctrl.organization.per_channel(),
            threads: threads.max(1),
            refresh_window_cycles: timings.t_refw,
            t_rc_cycles: timings.t_rc,
            t_faw_cycles: timings.t_faw,
        }
    }

    /// tREFI in simulation cycles (used to pace some baselines).
    pub fn t_refi_cycles(&self) -> Cycle {
        self.memctrl.timings.into_cycles(&self.memctrl.clock).t_refi
    }
}

/// Everything except the cores (split out so a core and the rest of the
/// system can be borrowed mutably at the same time).
struct Uncore {
    llc: Llc,
    mem: MemorySubsystem,
    /// Waiters per outstanding LLC line fetch: line address -> (core, token).
    line_waiters: FastMap<u64, Vec<(usize, u64)>>,
    /// Waiters per cache-bypassing read: request id -> (core, token).
    direct_waiters: FastMap<ShardReqId, (usize, u64)>,
    /// LLC hits completing after the hit latency: (ready, core, token).
    hit_queue: VecDeque<(Cycle, usize, u64)>,
    /// Per-channel line fetches that could not yet be accepted by the
    /// channel's controller (sharded so a busy channel cannot head-of-line
    /// block another channel's fetches).
    fetch_queues: Vec<VecDeque<(ThreadId, u64)>>,
    /// Per-channel dirty writebacks that could not yet be accepted.
    writeback_queues: Vec<VecDeque<(ThreadId, u64)>>,
    /// Lines that must be marked dirty when their fill arrives
    /// (write-allocate stores).
    dirty_on_fill: FastSet<u64>,
    /// Outstanding line-fetch requests: request id -> line address.
    line_fetch_reqs: FastMap<ShardReqId, u64>,
    next_token: u64,
    hit_latency: Cycle,
}

/// Memory-side adapter handed to a core during its tick.
struct CoreSink<'a> {
    uncore: &'a mut Uncore,
    core_index: usize,
}

impl MemorySink for CoreSink<'_> {
    fn try_send(
        &mut self,
        thread: ThreadId,
        address: u64,
        is_write: bool,
        bypass_cache: bool,
        now: Cycle,
    ) -> Option<u64> {
        let uncore = &mut *self.uncore;
        let access = if is_write {
            AccessType::Write
        } else {
            AccessType::Read
        };
        if bypass_cache {
            match uncore.mem.enqueue(thread, address, access, now) {
                Ok(req_id) => {
                    uncore.next_token += 1;
                    let token = uncore.next_token;
                    if !is_write {
                        uncore
                            .direct_waiters
                            .insert(req_id, (self.core_index, token));
                    }
                    Some(token)
                }
                Err(_) => None,
            }
        } else {
            match uncore.llc.access(address, is_write) {
                AccessResult::Hit => {
                    uncore.next_token += 1;
                    let token = uncore.next_token;
                    uncore
                        .hit_queue
                        .push_back((now + uncore.hit_latency, self.core_index, token));
                    Some(token)
                }
                result @ (AccessResult::MissAllocated | AccessResult::MissMerged) => {
                    let line = uncore.llc.line_of(address);
                    uncore.next_token += 1;
                    let token = uncore.next_token;
                    if !is_write {
                        uncore
                            .line_waiters
                            .entry(line)
                            .or_default()
                            .push((self.core_index, token));
                    } else {
                        uncore.dirty_on_fill.insert(line);
                    }
                    // Only an allocating miss fetches the line. Its MSHR
                    // entry lives until that fetch fills it, so a merged
                    // miss's fetch is already queued or in flight.
                    if result == AccessResult::MissAllocated {
                        let channel = uncore.mem.channel_of(line);
                        uncore.fetch_queues[channel].push_back((thread, line));
                    }
                    Some(token)
                }
                AccessResult::MshrFull => None,
            }
        }
    }
}

/// A fully assembled simulated system.
pub struct System {
    config: SystemConfig,
    cores: Vec<Core<BoxedTrace>>,
    core_names: Vec<String>,
    core_is_attacker: Vec<bool>,
    uncore: Uncore,
}

impl System {
    /// Creates a system running the given per-thread traces. Thread `i`
    /// runs `traces[i]`; `is_attacker[i]` marks threads excluded from the
    /// run-completion criterion (they run until the benign threads finish).
    /// `defenses` holds one independent defense instance per memory
    /// channel, in channel order.
    ///
    /// # Panics
    ///
    /// Panics if no traces are supplied, the configuration is invalid, or
    /// `defenses` does not have one entry per channel.
    pub fn new(
        config: SystemConfig,
        traces: Vec<(String, BoxedTrace, bool, u64)>,
        defenses: Vec<Box<dyn RowHammerDefense>>,
    ) -> Self {
        assert!(!traces.is_empty(), "a system needs at least one thread");
        let mem = MemorySubsystem::new(&config.memctrl, defenses, config.enable_activation_log);
        let channels = mem.channels();
        let llc = Llc::new(config.llc);
        let hit_latency = config.llc.hit_latency;
        let mut cores = Vec::new();
        let mut core_names = Vec::new();
        let mut core_is_attacker = Vec::new();
        for (index, (name, trace, is_attacker, instruction_limit)) in traces.into_iter().enumerate()
        {
            let core_config = CoreConfig {
                instruction_limit,
                ..config.core
            };
            cores.push(Core::new(ThreadId::new(index), core_config, trace));
            core_names.push(name);
            core_is_attacker.push(is_attacker);
        }
        Self {
            config,
            cores,
            core_names,
            core_is_attacker,
            uncore: Uncore {
                llc,
                mem,
                line_waiters: FastMap::default(),
                direct_waiters: FastMap::default(),
                hit_queue: VecDeque::new(),
                fetch_queues: vec![VecDeque::new(); channels],
                writeback_queues: vec![VecDeque::new(); channels],
                dirty_on_fill: FastSet::default(),
                line_fetch_reqs: FastMap::default(),
                next_token: 0,
                hit_latency,
            },
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Number of hardware threads.
    pub fn thread_count(&self) -> usize {
        self.cores.len()
    }

    /// Number of memory-channel shards.
    pub fn channels(&self) -> usize {
        self.uncore.mem.channels()
    }

    /// Mutable access to the defense instance protecting `channel`, e.g.
    /// to enable mechanism-specific instrumentation (downcast via
    /// [`mitigations::AsAny`]) before calling [`System::run`].
    pub fn defense_mut(&mut self, channel: usize) -> &mut dyn RowHammerDefense {
        self.uncore.mem.defense_mut(channel)
    }

    /// Steps every component one cycle. Returns whether the tick delivered
    /// at least one memory completion or ready LLC hit to a core (the
    /// "events processed" of [`SteppingStats`]), and whether the next
    /// cycle has work for the cores or the uncore without an outside
    /// event: a core that can retire or issue ([`Core::tick`]), or a line
    /// fetch a core queued after this cycle's admission step, which the
    /// next cycle's admission step tries first.
    fn tick(&mut self, now: Cycle) -> (bool, bool) {
        let mut delivered = false;
        let uncore = &mut self.uncore;
        // 1. Memory subsystem: every channel shard issues commands in
        //    lockstep; collect the completions of all shards.
        for (channel, completed) in uncore.mem.tick(now) {
            if completed.request.access.is_write() {
                continue;
            }
            let req_id = (channel, completed.request.id);
            if let Some(line) = uncore.line_fetch_reqs.remove(&req_id) {
                let fill = uncore.llc.fill(line);
                if uncore.dirty_on_fill.remove(&line) {
                    // Re-apply the write-allocated store so the line is dirty.
                    let _ = uncore.llc.access(line, true);
                }
                if let Some(writeback) = fill.writeback {
                    let wb_channel = uncore.mem.channel_of(writeback);
                    uncore.writeback_queues[wb_channel]
                        .push_back((completed.request.thread, writeback));
                }
                if let Some(waiters) = uncore.line_waiters.remove(&line) {
                    for (core_index, token) in waiters {
                        self.cores[core_index].on_memory_complete(token);
                        delivered = true;
                    }
                }
            } else if let Some((core_index, token)) = uncore.direct_waiters.remove(&req_id) {
                self.cores[core_index].on_memory_complete(token);
                delivered = true;
            }
        }
        // 2. LLC hits that became ready.
        while let Some(&(ready, core_index, token)) = uncore.hit_queue.front() {
            if ready > now {
                break;
            }
            uncore.hit_queue.pop_front();
            self.cores[core_index].on_memory_complete(token);
            delivered = true;
        }
        // 3. Retry pending line fetches and writebacks, per channel, in
        //    batches (one amortized admission pass per channel per cycle
        //    instead of one full admission check per request).
        let line_fetch_reqs = &mut uncore.line_fetch_reqs;
        for (channel, queue) in uncore.fetch_queues.iter_mut().enumerate() {
            uncore
                .mem
                .enqueue_batch(channel, queue, AccessType::Read, now, |req_id, line| {
                    line_fetch_reqs.insert(req_id, line);
                });
        }
        for (channel, queue) in uncore.writeback_queues.iter_mut().enumerate() {
            uncore
                .mem
                .enqueue_batch(channel, queue, AccessType::Write, now, |_, _| {});
        }
        // 4. Cores issue and retire, consuming this cycle's deliveries.
        let queued_fetches =
            |uncore: &Uncore| -> usize { uncore.fetch_queues.iter().map(VecDeque::len).sum() };
        let fetches_before = queued_fetches(uncore);
        let mut can_act = false;
        for (core_index, core) in self.cores.iter_mut().enumerate() {
            let mut sink = CoreSink { uncore, core_index };
            can_act |= core.tick(now, &mut sink);
        }
        (
            delivered,
            can_act || queued_fetches(uncore) > fetches_before,
        )
    }

    /// The next cycle to tick under [`AdvanceMode::EventDriven`] after a
    /// tick at `now` after which no core can retire or issue on its own
    /// and no core queued a line fetch (see [`System::tick`]).
    ///
    /// The cores then repeat their refused sends, or wait, until the
    /// uncore changes under them, and each memory shard reports the
    /// earliest cycle at which it can do anything but repeat its refusals
    /// and skip its memoized failed pass ([`MemorySubsystem::idle_until`];
    /// `None` if a shard may act in the very next cycle). The clock jumps
    /// to the earliest shard horizon or the LLC hit queue's front, bounded
    /// by `min_cycles`/`max_cycles`, and the skipped cycles' refusals are
    /// replayed so every statistic matches lockstep.
    fn skip_idle(&mut self, now: Cycle, all_done: bool) -> Cycle {
        let Some(mut next) = self.uncore.mem.idle_until(now) else {
            return now + 1;
        };
        // The hit queue is ordered by push time and the latency is
        // constant, so the front entry is the earliest one.
        if let Some(&(ready, _, _)) = self.uncore.hit_queue.front() {
            next = next.min(ready);
        }
        // With every thread finished the run only pads out to
        // `min_cycles`; otherwise the safety bound caps the jump.
        if all_done {
            next = next.min(self.config.min_cycles);
        }
        let next = next.clamp(now + 1, self.config.max_cycles);
        self.uncore.mem.replay_idle(now + 1..next);
        next
    }

    /// Runs the system to completion (every non-attacker thread reaches its
    /// instruction limit) or to the configured cycle bound, and returns the
    /// collected results.
    pub fn run(self) -> RunResult {
        self.run_into_parts().0
    }

    /// Like [`System::run`], but also hands back the per-channel defense
    /// instances for post-run inspection (e.g. mechanism-specific counters
    /// reachable by downcasting through [`mitigations::AsAny`]).
    pub fn run_into_parts(mut self) -> (RunResult, Vec<Box<dyn RowHammerDefense>>) {
        let event_driven = self.config.advance == AdvanceMode::EventDriven;
        let mut stepping = SteppingStats::default();
        let mut now: Cycle = 0;
        let mut finish_cycle: Vec<Option<Cycle>> = vec![None; self.cores.len()];
        loop {
            let (delivered, needs_next) = self.tick(now);
            stepping.cycles_simulated += 1;
            stepping.events_processed += u64::from(delivered);
            let mut all_done = true;
            for (index, core) in self.cores.iter().enumerate() {
                if core.is_finished() {
                    finish_cycle[index].get_or_insert(now);
                } else if !self.core_is_attacker[index] {
                    all_done = false;
                }
            }
            if (all_done && now >= self.config.min_cycles) || now >= self.config.max_cycles {
                break;
            }
            let next = if event_driven && !needs_next {
                self.skip_idle(now, all_done)
            } else {
                now + 1
            };
            stepping.largest_jump = stepping.largest_jump.max(next - now);
            stepping.cycles_skipped += next - now - 1;
            now = next;
        }
        let end = now.max(1);
        let threads = self
            .cores
            .iter()
            .enumerate()
            .map(|(index, core)| {
                let cycles = finish_cycle[index].unwrap_or(end).max(1);
                let instructions = core.retired_instructions();
                ThreadResult {
                    thread: index,
                    name: self.core_names[index].clone(),
                    is_attacker: self.core_is_attacker[index],
                    instructions,
                    cycles,
                    ipc: instructions as f64 / cycles as f64,
                    max_rhli: self.uncore.mem.max_rhli(ThreadId::new(index)),
                    memory_requests: core.stats().memory_requests,
                }
            })
            .collect();
        let defense_name = self.uncore.mem.defense_name().to_owned();
        let mut per_channel = self.uncore.mem.finish(end);
        let (dram_stats, ctrl_stats, defense_stats) = merge_channel_stats(
            &mut per_channel,
            self.config.memctrl.organization.banks_per_channel(),
        );
        let clock_hz = self.config.memctrl.clock.frequency_hz();
        let energy_model = DramEnergyModel::new(Ddr4PowerSpec::micron_8gb_x8(), clock_hz);
        let energy = energy_model.breakdown(&dram_stats);
        let result = RunResult {
            defense: defense_name,
            n_rh: self.config.n_rh,
            time_scale: self.config.time_scale,
            total_cycles: end,
            threads,
            dram: dram_stats,
            ctrl: ctrl_stats,
            per_channel,
            llc_hits: self.uncore.llc.stats().hits,
            llc_misses: self.uncore.llc.stats().misses,
            energy,
            defense_stats,
            stepping,
        };
        (result, self.uncore.mem.into_defenses())
    }
}

/// The effective RowHammer threshold of the full-scale (paper) threshold
/// `paper_n_rh` at time scale `time_scale`: divided by the scale like the
/// refresh window, and floored at 16 (README, "Substitutions and scaled
/// time"). It is what [`SystemBuilder::effective_n_rh`] reports and the
/// defense is built with.
pub fn scaled_n_rh(paper_n_rh: u64, time_scale: u64) -> u64 {
    (paper_n_rh / time_scale).max(16)
}

/// Convenience builder assembling a [`System`] from workload specs, an
/// optional attacker, optional pre-recorded traces, a defense kind and
/// scaling options.
pub struct SystemBuilder {
    config: SystemConfig,
    defense: DefenseKind,
    paper_n_rh: u64,
    workloads: Vec<(SyntheticSpec, u64)>,
    attacker: Option<AttackKind>,
    /// Pre-built trace threads (name, trace, is_attacker, instruction
    /// limit), appended after the synthetic workloads in thread order.
    trace_threads: Vec<(String, BoxedTrace, bool, u64)>,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SystemBuilder {
    /// Creates a builder with the paper's default system configuration and
    /// no time scaling.
    pub fn new() -> Self {
        Self {
            config: SystemConfig::default(),
            defense: DefenseKind::Baseline,
            paper_n_rh: 32_768,
            workloads: Vec::new(),
            attacker: None,
            trace_threads: Vec::new(),
        }
    }

    /// Applies a time-scaling factor: the refresh window and the RowHammer
    /// threshold are both divided by `factor`, which preserves the defenses'
    /// behaviour while making runs laptop-sized (README, "Substitutions and
    /// scaled time").
    pub fn time_scale(mut self, factor: u64) -> Self {
        assert!(factor > 0, "time scale factor must be non-zero");
        self.config.memctrl = self.config.memctrl.clone().with_time_scale(factor);
        self.config.time_scale = factor;
        self
    }

    /// Sets the full-scale (paper) RowHammer threshold; the effective
    /// threshold used by the defense is scaled by the time-scale factor.
    pub fn rowhammer_threshold(mut self, n_rh: u64) -> Self {
        self.paper_n_rh = n_rh;
        self
    }

    /// Selects the defense.
    pub fn defense(mut self, kind: DefenseKind) -> Self {
        self.defense = kind;
        self
    }

    /// Sets the number of memory channels. Each channel becomes an
    /// independent shard (controller + DRAM device + defense instance);
    /// the default of 1 reproduces the paper's Table 5 system.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn channels(mut self, channels: usize) -> Self {
        assert!(channels > 0, "a system needs at least one memory channel");
        self.config.memctrl.organization.channels = channels;
        self
    }

    /// Selects how the simulated clock advances: event-driven (the
    /// default), which skips the cycles in which no core, controller or
    /// LLC hit can act, or per-cycle lockstep, the reference the
    /// equivalence tests compare it against. Both modes are bit-identical;
    /// event-driven is faster whenever cores wait (idle padding out to
    /// `min_cycles`, cores stalled on memory while the controller waits on
    /// DRAM timing or its command slot, or requests the defense keeps
    /// vetoing or the queues keep refusing). A core reports from its own
    /// tick whether it can act next cycle, so the cycle right after a core
    /// stalls is skipped too.
    pub fn advance_mode(mut self, advance: AdvanceMode) -> Self {
        self.config.advance = advance;
        self
    }

    /// Sets the random seed (workload placement and probabilistic
    /// defenses).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Overrides the safety bound on simulated cycles.
    pub fn max_cycles(mut self, max_cycles: Cycle) -> Self {
        self.config.max_cycles = max_cycles;
        self
    }

    /// Keeps the system running for at least this many cycles even after
    /// every benign thread has finished (so slow defense dynamics such as
    /// RHLI accumulation are observable in short runs).
    pub fn min_cycles(mut self, min_cycles: Cycle) -> Self {
        self.config.min_cycles = min_cycles;
        self
    }

    /// Enables DRAM activation logging (for safety verification).
    pub fn activation_log(mut self) -> Self {
        self.config.enable_activation_log = true;
        self
    }

    /// Shrinks the LLC (useful to keep cacheable workloads memory-bound at
    /// small instruction budgets, mirroring their full-scale behaviour).
    pub fn llc_capacity(mut self, bytes: u64) -> Self {
        self.config.llc.capacity_bytes = bytes;
        self
    }

    /// Adds a benign workload running `instruction_limit` instructions.
    pub fn add_workload(mut self, spec: SyntheticSpec, instruction_limit: u64) -> Self {
        self.workloads.push((spec, instruction_limit));
        self
    }

    /// Adds a double-sided RowHammer attacker as thread 0.
    pub fn add_attacker(mut self) -> Self {
        self.attacker = Some(AttackKind::DoubleSided);
        self
    }

    /// Adds a RowHammer attacker of the given pattern as thread 0.
    /// `add_attacker_kind(AttackKind::DoubleSided)` is identical to
    /// [`SystemBuilder::add_attacker`].
    pub fn add_attacker_kind(mut self, kind: AttackKind) -> Self {
        self.attacker = Some(kind);
        self
    }

    /// Adds a thread driven by a pre-built trace (e.g. replayed from a
    /// trace file). Trace threads are appended after the synthetic
    /// workloads in thread order and are *not* relocated: the records'
    /// addresses are used verbatim, so a trace recorded from a built
    /// system replays bit-identically. `is_attacker` threads are excluded
    /// from the run-completion criterion (they run until the benign
    /// threads finish).
    pub fn add_trace(
        mut self,
        name: impl Into<String>,
        trace: BoxedTrace,
        is_attacker: bool,
        instruction_limit: u64,
    ) -> Self {
        self.trace_threads
            .push((name.into(), trace, is_attacker, instruction_limit));
        self
    }

    /// The effective (scaled) RowHammer threshold the defense will use.
    pub fn effective_n_rh(&self) -> u64 {
        scaled_n_rh(self.paper_n_rh, self.config.time_scale)
    }

    /// The per-channel defense geometry the built system will use (for
    /// callers deriving mechanism configurations, e.g. BlockHammer's
    /// Table 1 parameters).
    pub fn geometry_preview(&self) -> DefenseGeometry {
        self.config.defense_geometry(self.thread_count().max(1))
    }

    /// Total threads the built system will have (attacker + synthetic
    /// workloads + trace threads).
    fn thread_count(&self) -> usize {
        self.workloads.len() + self.trace_threads.len() + usize::from(self.attacker.is_some())
    }

    /// Materializes the builder into its parts: the finalized
    /// configuration, the per-thread traces in thread order, and the
    /// per-channel defenses. Shared by [`SystemBuilder::build`] and
    /// [`SystemBuilder::into_thread_traces`] so both observe the exact
    /// same thread construction (ordering, address slicing, seeding).
    #[allow(clippy::type_complexity)]
    fn into_parts(
        mut self,
    ) -> (
        SystemConfig,
        Vec<(String, BoxedTrace, bool, u64)>,
        Vec<Box<dyn RowHammerDefense>>,
    ) {
        assert!(
            self.thread_count() > 0,
            "add at least one workload or an attacker"
        );
        self.config.n_rh = self.effective_n_rh();
        let thread_count = self.thread_count();
        let geometry = self.config.defense_geometry(thread_count);
        let defenses = self.defense.build_per_channel(
            self.config.memctrl.organization.channels,
            RowHammerThreshold::new(self.config.n_rh),
            geometry,
            self.config.t_refi_cycles(),
            self.config.seed,
        );
        let organization = self.config.memctrl.organization;
        let mut traces: Vec<(String, BoxedTrace, bool, u64)> = Vec::new();
        if let Some(kind) = self.attacker {
            let attack = kind.build(AttackSpec::default_for(organization));
            traces.push((
                format!("attacker.{}", kind.label()),
                Box::new(attack),
                true,
                u64::MAX,
            ));
        }
        // Give each benign thread a disjoint address-space slice so threads
        // do not share cache lines or rows.
        let slice = organization.capacity_bytes() / (thread_count as u64 + 1);
        for (index, (spec, limit)) in self.workloads.iter().enumerate() {
            let base = slice * (index as u64 + usize::from(self.attacker.is_some()) as u64);
            let relocated = spec.clone().at_base(base);
            let seed = self.config.seed ^ ((index as u64 + 1) * 0x9E37_79B9);
            traces.push((
                spec.name.clone(),
                Box::new(relocated.build(seed)),
                false,
                *limit,
            ));
        }
        // Trace-driven threads come last: their records carry absolute
        // addresses, so they need no relocation.
        traces.extend(self.trace_threads);
        (self.config, traces, defenses)
    }

    /// Builds the system, instantiating one independent defense per memory
    /// channel.
    ///
    /// # Panics
    ///
    /// Panics if no workload, trace thread or attacker was added.
    pub fn build(self) -> System {
        let (config, traces, defenses) = self.into_parts();
        System::new(config, traces, defenses)
    }

    /// Consumes the builder and hands back the exact per-thread traces
    /// `build` would feed the system — `(name, trace, is_attacker,
    /// instruction_limit)` in thread order, with the same address slicing
    /// and per-thread seeding. This is what trace recorders consume: a
    /// trace file recorded from these iterators replays the run bit for
    /// bit (see the `campaign` crate).
    ///
    /// # Panics
    ///
    /// Panics if no workload, trace thread or attacker was added.
    pub fn into_thread_traces(self) -> Vec<(String, BoxedTrace, bool, u64)> {
        self.into_parts().1
    }

    /// Builds and runs the system, returning the collected results.
    pub fn run(self) -> RunResult {
        self.build().run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_builder() -> SystemBuilder {
        // A heavily time-scaled system whose refresh window is ~25k cycles,
        // run for at least two refresh windows.
        SystemBuilder::new()
            .time_scale(8192)
            .max_cycles(3_000_000)
            .min_cycles(60_000)
            .llc_capacity(1 << 20)
    }

    #[test]
    fn single_benign_core_completes_its_instructions() {
        let result = quick_builder()
            .defense(DefenseKind::Baseline)
            .add_workload(SyntheticSpec::medium_intensity("m0", 0), 3_000)
            .run();
        assert_eq!(result.threads.len(), 1);
        assert!(result.threads[0].instructions >= 3_000);
        assert!(result.threads[0].ipc > 0.0);
        assert!(result.dram.totals().activates > 0);
        assert!(result.energy.total_joules() > 0.0);
    }

    #[test]
    fn misses_to_one_line_fetch_it_once() {
        // Two loads and a store to one line miss in the same cycle: the
        // first allocates the MSHR entry and the other two merge into it,
        // so the controller sees a single line fetch.
        let trace = vec![
            TraceRecord::load(0, 0x4000),
            TraceRecord::load(0, 0x4008),
            TraceRecord::store(0, 0x4010),
        ];
        let result = quick_builder()
            .add_trace("one-line", Box::new(trace.into_iter()), false, u64::MAX)
            .run();
        assert_eq!(result.threads[0].instructions, 3);
        assert_eq!(result.llc_misses, 3);
        assert_eq!(result.ctrl.accepted_requests, 1);
    }

    #[test]
    fn blockhammer_does_not_slow_benign_single_core_runs() {
        let baseline = quick_builder()
            .defense(DefenseKind::Baseline)
            .add_workload(SyntheticSpec::high_intensity("h0", 0), 3_000)
            .run();
        let protected = quick_builder()
            .defense(DefenseKind::BlockHammer)
            .add_workload(SyntheticSpec::high_intensity("h0", 0), 3_000)
            .run();
        let ratio = protected.threads[0].ipc / baseline.threads[0].ipc;
        assert!(
            ratio > 0.95,
            "BlockHammer slowed a benign workload by {:.1}% in a single-core run",
            (1.0 - ratio) * 100.0
        );
    }

    #[test]
    fn attacker_is_throttled_by_blockhammer_but_not_by_baseline() {
        let victim_instructions = 6_000;
        let baseline = quick_builder()
            .defense(DefenseKind::Baseline)
            .add_attacker()
            .add_workload(
                SyntheticSpec::high_intensity("victim", 0),
                victim_instructions,
            )
            .run();
        let protected = quick_builder()
            .defense(DefenseKind::BlockHammer)
            .add_attacker()
            .add_workload(
                SyntheticSpec::high_intensity("victim", 0),
                victim_instructions,
            )
            .run();
        // The attacker's memory throughput (requests per cycle) must drop.
        let attacker_rate =
            |r: &RunResult| r.threads[0].memory_requests as f64 / r.total_cycles as f64;
        assert!(
            attacker_rate(&protected) < attacker_rate(&baseline),
            "BlockHammer must reduce the attacker's memory throughput \
             (baseline {:.4}/cycle, protected {:.4}/cycle)",
            attacker_rate(&baseline),
            attacker_rate(&protected)
        );
        // The benign victim must run faster when the attacker is throttled.
        let benign_ipc = |r: &RunResult| r.threads[1].ipc;
        assert!(
            benign_ipc(&protected) > benign_ipc(&baseline),
            "the benign thread must speed up under BlockHammer when attacked \
             (baseline IPC {:.4}, protected IPC {:.4})",
            benign_ipc(&baseline),
            benign_ipc(&protected)
        );
        assert!(
            protected.threads[0].max_rhli > 0.0,
            "attacker RHLI must be non-zero"
        );
        assert_eq!(
            protected.threads[1].max_rhli, 0.0,
            "benign RHLI must stay zero"
        );
    }

    #[test]
    fn explicit_single_channel_matches_the_default_path() {
        // `.channels(1)` must be the identical code path to the default
        // builder, bit for bit.
        let run = |builder: SystemBuilder| {
            builder
                .defense(DefenseKind::BlockHammer)
                .add_attacker()
                .add_workload(SyntheticSpec::high_intensity("h0", 0), 3_000)
                .run()
        };
        let default_run = run(quick_builder());
        let explicit_run = run(quick_builder().channels(1));
        assert_eq!(default_run.total_cycles, explicit_run.total_cycles);
        assert_eq!(default_run.per_channel.len(), 1);
        assert_eq!(explicit_run.per_channel.len(), 1);
        for (a, b) in default_run.threads.iter().zip(&explicit_run.threads) {
            assert_eq!(a.instructions, b.instructions);
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.memory_requests, b.memory_requests);
            assert_eq!(a.max_rhli, b.max_rhli);
        }
        assert_eq!(default_run.dram.totals(), explicit_run.dram.totals());
        assert_eq!(default_run.ctrl.row_hits, explicit_run.ctrl.row_hits);
        assert_eq!(
            default_run.defense_stats.observed_activations,
            explicit_run.defense_stats.observed_activations
        );
    }

    #[test]
    fn merged_stats_equal_the_single_shard_stats_for_one_channel() {
        let result = quick_builder()
            .defense(DefenseKind::BlockHammer)
            .add_workload(SyntheticSpec::high_intensity("h0", 0), 3_000)
            .run();
        assert_eq!(result.per_channel.len(), 1);
        let shard = &result.per_channel[0];
        assert_eq!(shard.channel, 0);
        assert_eq!(shard.defense, "BlockHammer");
        assert_eq!(shard.dram.totals(), result.dram.totals());
        assert_eq!(shard.ctrl.accepted_requests, result.ctrl.accepted_requests);
        assert_eq!(
            shard.defense_stats.observed_activations,
            result.defense_stats.observed_activations
        );
    }

    #[test]
    fn two_channel_system_shards_traffic_and_defenses() {
        let result = quick_builder()
            .channels(2)
            .defense(DefenseKind::BlockHammer)
            .add_workload(SyntheticSpec::high_intensity("h0", 0), 3_000)
            .add_workload(SyntheticSpec::medium_intensity("m1", 1), 3_000)
            .run();
        assert_eq!(result.per_channel.len(), 2);
        // Both channels must see traffic (the MOP mapping interleaves
        // consecutive lines across channels) ...
        for shard in &result.per_channel {
            assert!(
                shard.dram.totals().activates > 0,
                "channel {} received no activations",
                shard.channel
            );
            assert!(shard.defense_stats.observed_activations > 0);
        }
        // ... and the merged views must be the sums of the shards.
        let summed_activates: u64 = result
            .per_channel
            .iter()
            .map(|shard| shard.dram.totals().activates)
            .sum();
        assert_eq!(result.dram.totals().activates, summed_activates);
        let summed_accepted: u64 = result
            .per_channel
            .iter()
            .map(|shard| shard.ctrl.accepted_requests)
            .sum();
        assert_eq!(result.ctrl.accepted_requests, summed_accepted);
        // Two ranks overall: one per channel, concatenated in channel order.
        assert_eq!(result.dram.per_rank.len(), 2);
        assert!(result.threads.iter().all(|t| t.instructions >= 3_000));
    }

    #[test]
    fn advance_modes_are_bit_identical() {
        // Event-driven stepping must reproduce the lockstep run, bit for
        // bit, while actually skipping cycles. (The cross-defense and
        // multi-channel matrix lives in tests/tests/event_equivalence.rs.)
        let run = |advance: AdvanceMode| {
            quick_builder()
                .min_cycles(40_000)
                .advance_mode(advance)
                .defense(DefenseKind::BlockHammer)
                .add_attacker()
                .add_workload(SyntheticSpec::low_intensity("l0", 0), 2_000)
                .run()
        };
        let lockstep = run(AdvanceMode::Lockstep);
        let event = run(AdvanceMode::EventDriven);
        assert_eq!(lockstep.total_cycles, event.total_cycles);
        assert_eq!(lockstep.dram.totals(), event.dram.totals());
        assert_eq!(lockstep.ctrl, event.ctrl);
        assert_eq!(lockstep.llc_hits, event.llc_hits);
        assert_eq!(lockstep.llc_misses, event.llc_misses);
        assert_eq!(
            lockstep.defense_stats.observed_activations,
            event.defense_stats.observed_activations
        );
        for (a, b) in lockstep.threads.iter().zip(&event.threads) {
            assert_eq!(a.instructions, b.instructions);
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.memory_requests, b.memory_requests);
            assert_eq!(a.max_rhli, b.max_rhli);
        }
        // Lockstep ticks every cycle; event-driven must have skipped some.
        assert_eq!(lockstep.stepping.cycles_skipped, 0);
        assert_eq!(
            lockstep.stepping.cycles_simulated,
            lockstep.total_cycles + 1
        );
        assert!(
            event.stepping.cycles_skipped > 0,
            "event-driven run skipped no cycles"
        );
        assert_eq!(
            event.stepping.cycles_simulated + event.stepping.cycles_skipped,
            event.total_cycles + 1
        );
        assert!(event.stepping.largest_jump > 1);
    }

    #[test]
    fn a_default_builder_skips_the_idle_min_cycles_tail() {
        // No `advance_mode` call: the default steps event-driven, so the
        // padding out to `min_cycles` after the thread finishes is skipped.
        let result = SystemBuilder::new()
            .min_cycles(50_000)
            .add_workload(SyntheticSpec::low_intensity("l0", 0), 1_000)
            .run();
        assert!(result.total_cycles >= 50_000);
        assert!(
            result.stepping.cycles_skipped > 0,
            "a run from SystemBuilder::new() ticked every cycle"
        );
    }

    #[test]
    fn trace_threads_replay_bit_identically_to_their_generators() {
        // A system fed from materialized traces (via into_thread_traces)
        // must reproduce the generator-driven run exactly — the foundation
        // of the campaign crate's record/replay path.
        let make = || {
            quick_builder()
                .defense(DefenseKind::BlockHammer)
                .add_attacker()
                .add_workload(SyntheticSpec::high_intensity("h0", 0), 2_000)
                .add_workload(SyntheticSpec::medium_intensity("m1", 1), 2_000)
        };
        let generated = make().run();
        // Materialize the exact thread traces, bound the infinite attacker
        // stream to full periods, and replay through add_trace.
        let threads = make().into_thread_traces();
        let mut replay = quick_builder().defense(DefenseKind::BlockHammer);
        for (name, trace, is_attacker, limit) in threads {
            let records: Vec<TraceRecord> = if is_attacker {
                // 2 aggressors x banks per full period; capture many
                // periods so the bounded replay outlives the run.
                trace.take(1 << 17).collect()
            } else {
                // Enough records to cover the instruction limit.
                let mut taken = Vec::new();
                let mut instructions = 0u64;
                for record in trace {
                    instructions += record.instructions();
                    taken.push(record);
                    if instructions >= limit + 64 {
                        break;
                    }
                }
                taken
            };
            replay = replay.add_trace(name, Box::new(records.into_iter()), is_attacker, limit);
        }
        let replayed = replay.run();
        assert_eq!(generated.total_cycles, replayed.total_cycles);
        assert_eq!(generated.dram.totals(), replayed.dram.totals());
        assert_eq!(generated.ctrl, replayed.ctrl);
        for (a, b) in generated.threads.iter().zip(&replayed.threads) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.is_attacker, b.is_attacker);
            assert_eq!(a.instructions, b.instructions);
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.memory_requests, b.memory_requests);
            assert_eq!(a.max_rhli, b.max_rhli);
        }
    }

    #[test]
    fn attacker_kind_default_matches_add_attacker() {
        let run = |builder: SystemBuilder| {
            builder
                .defense(DefenseKind::BlockHammer)
                .add_workload(SyntheticSpec::high_intensity("h0", 0), 2_000)
                .run()
        };
        let implicit = run(quick_builder().add_attacker());
        let explicit = run(quick_builder().add_attacker_kind(workloads::AttackKind::DoubleSided));
        assert_eq!(implicit.total_cycles, explicit.total_cycles);
        assert_eq!(implicit.dram.totals(), explicit.dram.totals());
        assert_eq!(implicit.threads[0].name, "attacker.double_sided");
        assert_eq!(explicit.threads[0].name, "attacker.double_sided");
    }

    #[test]
    fn sharded_runs_are_deterministic() {
        let run = || {
            quick_builder()
                .channels(2)
                .defense(DefenseKind::Para)
                .add_attacker()
                .add_workload(SyntheticSpec::high_intensity("h0", 0), 2_000)
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.dram.totals(), b.dram.totals());
        for (x, y) in a.threads.iter().zip(&b.threads) {
            assert_eq!(x.instructions, y.instructions);
            assert_eq!(x.memory_requests, y.memory_requests);
        }
    }

    #[test]
    fn activation_log_bounds_attack_below_threshold() {
        let result = quick_builder()
            .defense(DefenseKind::BlockHammer)
            .activation_log()
            .add_attacker()
            .add_workload(SyntheticSpec::low_intensity("l0", 0), 1_000)
            .run();
        let timings = result.time_scale;
        assert_eq!(timings, 8192);
        let t_refw = MemCtrlConfig::default()
            .with_time_scale(8192)
            .timings
            .into_cycles(&bh_types::TimeConverter::default())
            .t_refw;
        let worst = result
            .dram
            .max_row_activations_in_window(t_refw)
            .expect("activation log enabled");
        assert!(
            worst <= result.n_rh,
            "a row received {worst} activations in one refresh window, above N_RH = {}",
            result.n_rh
        );
    }
}
