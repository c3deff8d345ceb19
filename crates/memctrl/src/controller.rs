//! The FR-FCFS memory controller.

use crate::config::MemCtrlConfig;
use crate::scheduler::Scheduler;
use crate::stats::CtrlStats;
use bh_types::{AccessType, Cycle, DramAddress, MemCommand, MemRequest, ReqId, ThreadId};
use dram_sim::{DramDevice, DramStats, IssueOutcome, TimingsInCycles};
use mitigations::RowHammerDefense;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Why a request could not be accepted into the controller queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueError {
    /// The target queue (read or write) is full; retry later.
    QueueFull,
    /// The issuing thread has reached its defense-imposed in-flight quota
    /// for the target bank (AttackThrottler); retry later.
    QuotaExceeded,
}

impl fmt::Display for EnqueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnqueueError::QueueFull => f.write_str("memory controller queue is full"),
            EnqueueError::QuotaExceeded => {
                f.write_str("thread exceeded its in-flight request quota for the bank")
            }
        }
    }
}

impl Error for EnqueueError {}

/// Outcome of one [`MemoryController::enqueue_batch`] call: how many
/// requests were admitted and, if the batch stopped early, why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchAdmission {
    /// Requests admitted (in arrival order, from the front of the batch).
    pub accepted: usize,
    /// The rejection that ended the batch, if any. `None` means every item
    /// was admitted.
    pub rejection: Option<EnqueueError>,
}

/// A demand request that finished, reported back to the cache / core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedRequest {
    /// The original request.
    pub request: MemRequest,
    /// Cycle at which its data became available (reads) or its burst
    /// finished (writes).
    pub completed_at: Cycle,
}

/// The DDR4 memory controller of one channel.
///
/// See the crate-level documentation for the scheduling policy and the
/// defense hook points.
#[derive(Debug)]
pub struct MemoryController {
    config: MemCtrlConfig,
    timings: TimingsInCycles,
    dram: DramDevice,
    /// The demand queues plus the FR-FCFS scheduling index over them.
    scheduler: Scheduler,
    /// Victim rows the defense asked to refresh, each served as one ACT.
    victim_queue: Vec<DramAddress>,
    /// Scheduled completions: (cycle, request), in command-issue order.
    pending_completions: Vec<(Cycle, MemRequest)>,
    /// The earliest cycle in `pending_completions` (`Cycle::MAX` if none).
    next_completion: Cycle,
    /// In-flight demand requests per (thread, global bank). Entries are
    /// removed as soon as their count returns to zero, so the map's size is
    /// bounded by the number of currently queued requests rather than by
    /// every (thread, bank) pair the run ever touched.
    inflight: HashMap<(usize, usize), u32>,
    /// Next auto-refresh deadline per rank.
    next_refresh: Vec<Cycle>,
    /// Whether a refresh is overdue per rank.
    refresh_pending: Vec<bool>,
    /// Earliest cycle the next command may use the command bus.
    next_command_at: Cycle,
    /// The cycle before which the last command-slot pass would fail again
    /// unchanged: set when a pass issues nothing without consulting the
    /// defense, to its retry or refresh cycle, and cleared (0) by every
    /// push and every issue (victims are queued only by an issuing pass).
    /// See [`MemoryController::tick`].
    pass_memo: Cycle,
    /// Whether the controller is currently draining writes.
    drain_mode: bool,
    /// Queued requests that have been skipped at least once due to the
    /// defense; an id leaves the set when its request completes.
    delayed_by_defense: HashSet<ReqId>,
    next_req_id: ReqId,
    stats: CtrlStats,
    /// What the current cycle's tick and admissions did.
    tally: TickTally,
}

/// What one cycle of a controller did — its tick plus the admissions that
/// follow it — as event-driven stepping needs to know it: the per-poll
/// refusals and vetoes a repeat of the cycle would redo, when a failed
/// command-slot pass could turn out differently, and whether new work
/// arrived after the tick.
#[derive(Debug, Default)]
struct TickTally {
    rejected_queue_full: u64,
    rejected_quota: u64,
    /// Consults the defense vetoed in this tick's pass if it failed, in
    /// consult order (an issuing pass drops its own: no pass runs until
    /// the slot reopens).
    vetoed: Vec<(ThreadId, DramAddress)>,
    /// Earliest cycle at which this tick's failed pass could turn out
    /// differently: a refused DRAM timing check passing, or a refresh
    /// deadline.
    retry_at: Cycle,
    /// A request was admitted since the tick.
    queued: bool,
}

impl MemoryController {
    /// Creates the controller of one memory channel from its
    /// configuration. A system with several channels runs one controller
    /// per channel (the `sim` crate's `MemorySubsystem`).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (use
    /// [`MemCtrlConfig::validate`] to check it fallibly first) or if
    /// `config.organization.channels` is not 1.
    pub fn new(config: MemCtrlConfig) -> Self {
        // lint: allow(panic-freedom) -- documented constructor contract; MemCtrlConfig::validate is the fallible path
        config.validate().expect("invalid memory controller config");
        assert_eq!(
            config.organization.channels, 1,
            "a memory controller models exactly one channel"
        );
        let timings = config.timings.into_cycles(&config.clock);
        let dram = DramDevice::new(config.organization, timings);
        let ranks = config.organization.ranks;
        let scheduler = Scheduler::new(
            config.scheduler,
            config.organization.total_banks(),
            config.organization.banks_per_rank(),
            config.read_queue_capacity,
            config.write_queue_capacity,
        );
        Self {
            timings,
            dram,
            scheduler,
            victim_queue: Vec::new(),
            pending_completions: Vec::new(),
            next_completion: Cycle::MAX,
            inflight: HashMap::new(),
            next_refresh: vec![timings.t_refi; ranks],
            refresh_pending: vec![false; ranks],
            next_command_at: 0,
            pass_memo: 0,
            drain_mode: false,
            delayed_by_defense: HashSet::new(),
            next_req_id: 0,
            stats: CtrlStats::default(),
            tally: TickTally::default(),
            config,
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &MemCtrlConfig {
        &self.config
    }

    /// The timing parameters in simulation cycles.
    pub fn timings(&self) -> &TimingsInCycles {
        &self.timings
    }

    /// Enables per-activation logging in the DRAM statistics (safety
    /// verification).
    pub fn enable_activation_log(&mut self) {
        self.dram.enable_activation_log();
    }

    /// Number of requests currently queued or awaiting completion.
    pub fn pending_requests(&self) -> usize {
        self.scheduler.len(AccessType::Read)
            + self.scheduler.len(AccessType::Write)
            + self.victim_queue.len()
            + self.pending_completions.len()
    }

    /// Whether the controller has no work left.
    pub fn is_idle(&self) -> bool {
        self.pending_requests() == 0
    }

    /// Read-queue occupancy.
    pub fn read_queue_len(&self) -> usize {
        self.scheduler.len(AccessType::Read)
    }

    /// Write-queue occupancy.
    pub fn write_queue_len(&self) -> usize {
        self.scheduler.len(AccessType::Write)
    }

    fn global_bank(&self, addr: &DramAddress) -> usize {
        let org = &self.config.organization;
        addr.global_bank_index(org.ranks, org.bank_groups, org.banks_per_group)
    }

    /// The admission predicate: defense quota first, then queue space.
    /// `quota` is the defense's in-flight limit for the `<thread, bank>`
    /// pair (the batch amortizes that trait call); `free_slots` is the
    /// remaining space in the target queue.
    fn admission_error(
        &self,
        thread: ThreadId,
        bank: usize,
        quota: Option<u32>,
        free_slots: usize,
    ) -> Option<EnqueueError> {
        if let Some(quota) = quota {
            let inflight = self
                .inflight
                .get(&(thread.index(), bank))
                .copied()
                .unwrap_or(0);
            if inflight >= quota {
                return Some(EnqueueError::QuotaExceeded);
            }
        }
        (free_slots == 0).then_some(EnqueueError::QueueFull)
    }

    /// Remaining slots in one demand queue.
    fn free_slots(&self, access: AccessType) -> usize {
        match access {
            AccessType::Read => self
                .config
                .read_queue_capacity
                .saturating_sub(self.read_queue_len()),
            AccessType::Write => self
                .config
                .write_queue_capacity
                .saturating_sub(self.write_queue_len()),
        }
    }

    /// Accepts a demand request into the controller.
    ///
    /// # Errors
    ///
    /// Returns [`EnqueueError::QueueFull`] when the target queue has no
    /// space and [`EnqueueError::QuotaExceeded`] when the defense's
    /// in-flight quota for this thread/bank is exhausted.
    pub fn enqueue(
        &mut self,
        thread: ThreadId,
        phys_addr: u64,
        access: AccessType,
        now: Cycle,
        defense: &dyn RowHammerDefense,
    ) -> Result<ReqId, EnqueueError> {
        let mut id = None;
        let outcome = self.enqueue_batch(
            std::iter::once((thread, phys_addr, ())),
            access,
            now,
            defense,
            |req_id, ()| id = Some(req_id),
        );
        match id {
            Some(id) => Ok(id),
            None => Err(outcome
                .rejection
                // lint: allow(panic-freedom) -- admission invariant: a request that was not accepted always carries a rejection
                .expect("a request that was not accepted was rejected")),
        }
    }

    /// Admits requests from `items` in arrival order until the first
    /// rejection, amortizing the per-request admission work across the
    /// batch (the defense's in-flight quota is fetched once per
    /// `<thread, bank>` run instead of once per request, and queue space
    /// is tracked incrementally).
    ///
    /// Each item carries an opaque tag that is handed back through
    /// `on_accept` together with the assigned request id. Admission
    /// decisions, statistics and request ids are identical to calling
    /// [`MemoryController::enqueue`] once per item and stopping at the
    /// first error — `tests/tests/batch_admission.rs` pins this.
    pub fn enqueue_batch<T>(
        &mut self,
        items: impl IntoIterator<Item = (ThreadId, u64, T)>,
        access: AccessType,
        now: Cycle,
        defense: &dyn RowHammerDefense,
        mut on_accept: impl FnMut(ReqId, T),
    ) -> BatchAdmission {
        let geometry = self.config.organization.geometry();
        let mapping = self.config.mapping;
        let mut free_slots = self.free_slots(access);
        // One-entry quota cache: consecutive requests of one thread to one
        // bank (the common shape of a per-channel fetch queue) pay the
        // defense trait call once.
        let mut cached_quota: Option<((usize, usize), Option<u32>)> = None;
        let mut outcome = BatchAdmission {
            accepted: 0,
            rejection: None,
        };
        for (thread, phys_addr, tag) in items {
            let addr = mapping.decode(&geometry, phys_addr);
            let bank = self.global_bank(&addr);
            let key = (thread.index(), bank);
            let quota = match cached_quota {
                Some((cached_key, quota)) if cached_key == key => quota,
                _ => {
                    let quota = defense.inflight_quota(thread, bank);
                    cached_quota = Some((key, quota));
                    quota
                }
            };
            match self.admission_error(thread, bank, quota, free_slots) {
                Some(EnqueueError::QuotaExceeded) => {
                    self.stats.rejected_quota += 1;
                    self.tally.rejected_quota += 1;
                    outcome.rejection = Some(EnqueueError::QuotaExceeded);
                    break;
                }
                Some(EnqueueError::QueueFull) => {
                    self.stats.rejected_queue_full += 1;
                    self.tally.rejected_queue_full += 1;
                    outcome.rejection = Some(EnqueueError::QueueFull);
                    break;
                }
                None => {}
            }
            free_slots -= 1;
            let id = self.next_req_id;
            self.next_req_id += 1;
            let request = MemRequest::demand(id, thread, addr, access, now);
            *self.inflight.entry(key).or_insert(0) += 1;
            self.stats.accepted_requests += 1;
            self.tally.queued = true;
            self.pass_memo = 0;
            self.scheduler.push(access, bank, request);
            on_accept(id, tag);
            outcome.accepted += 1;
        }
        outcome
    }

    /// Advances the controller by one cycle: completes finished requests,
    /// issues at most one DRAM command when the command slot is open, and
    /// consults the defense at every hook point.
    ///
    /// A command-slot pass that issues nothing and consults no defense is
    /// remembered until its retry or refresh cycle: until then, or until
    /// the next push or issue (victims are queued only with an issue), the
    /// controller skips the pass, because it would fail again the same
    /// way. Such a pass found no legal command at all (a legal ACT
    /// consults the defense, any other legal command issues), and legality
    /// changes only with an issue or at a refused check's retry cycle.
    pub fn tick(
        &mut self,
        now: Cycle,
        defense: &mut dyn RowHammerDefense,
    ) -> Vec<CompletedRequest> {
        self.tally.rejected_queue_full = 0;
        self.tally.rejected_quota = 0;
        self.tally.vetoed.clear();
        self.tally.retry_at = Cycle::MAX;
        self.tally.queued = false;
        defense.tick(now);
        let completed = self.collect_completions(now);
        if now < self.next_command_at {
            return completed;
        }
        if now < self.pass_memo {
            self.tally.retry_at = self.pass_memo;
            return completed;
        }
        let issued = self.try_issue_command(now, defense);
        let retry_at = self.dram.take_retry_at();
        if issued {
            self.next_command_at = now + self.config.command_bus_interval;
            self.tally.vetoed.clear();
            self.pass_memo = 0;
        } else {
            self.tally.retry_at = retry_at.min(self.refresh_deadline());
            if self.tally.vetoed.is_empty() {
                self.pass_memo = self.tally.retry_at;
            }
        }
        completed
    }

    /// The earliest auto-refresh deadline among the ranks.
    fn refresh_deadline(&self) -> Cycle {
        self.next_refresh
            .iter()
            .copied()
            .min()
            .unwrap_or(Cycle::MAX)
    }

    /// After the tick at `now` and the admissions that followed it, the
    /// earliest later cycle at which ticking again could do anything but
    /// repeat this cycle's refusals and vetoes, or `None` if that may be
    /// the very next cycle. It is the earliest of the command slot
    /// reopening after an issue, a completion falling due, the defense's
    /// `next_event`, and — if the pass failed — the pass's retry or
    /// refresh cycle; but a request admitted since the tick gives an open
    /// slot work at once (`None`).
    ///
    /// Every other input of the tick and of admission (queue contents and
    /// space, in-flight counts, open rows) changes only through those
    /// events, so until then each cycle repeats this one's refusals and
    /// its failed pass's vetoes exactly; [`MemoryController::replay_idle`]
    /// accounts for them.
    // lint: alloc-free
    pub fn idle_until(&self, now: Cycle, defense: &dyn RowHammerDefense) -> Option<Cycle> {
        let mut at = self.tally.retry_at.min(self.next_completion);
        if self.next_command_at > now {
            at = at.min(self.next_command_at);
        } else if self.tally.queued {
            return None;
        }
        Some(defense.next_event(now).map_or(at, |event| at.min(event)))
    }

    /// Accounts for the cycles in `skipped`, each of which would have
    /// repeated the last cycle's refusals and failed pass (see
    /// [`MemoryController::idle_until`]): adds its per-poll refusals once
    /// per skipped cycle and lets the defense replay its vetoed consults.
    // lint: alloc-free
    pub fn replay_idle(&mut self, skipped: Range<Cycle>, defense: &mut dyn RowHammerDefense) {
        let repeats = skipped.end - skipped.start;
        self.stats.rejected_queue_full += repeats * self.tally.rejected_queue_full;
        self.stats.rejected_quota += repeats * self.tally.rejected_quota;
        if !self.tally.vetoed.is_empty() {
            defense.replay_vetoes(skipped, &self.tally.vetoed);
        }
    }

    /// Reports the requests whose completion cycle has been reached.
    /// Removal is stable, so requests completing on the same cycle are
    /// reported in the order their commands were issued (FIFO) — the
    /// downstream per-thread accounting observes this stream.
    fn collect_completions(&mut self, now: Cycle) -> Vec<CompletedRequest> {
        if now < self.next_completion {
            return Vec::new();
        }
        let mut done = Vec::new();
        let mut next = Cycle::MAX;
        self.pending_completions.retain(|(completed_at, request)| {
            if *completed_at <= now {
                done.push(CompletedRequest {
                    request: request.clone(),
                    completed_at: *completed_at,
                });
                false
            } else {
                next = next.min(*completed_at);
                true
            }
        });
        self.next_completion = next;
        for completed in &done {
            self.finish_request(&completed.request, completed.completed_at);
        }
        done
    }

    fn finish_request(&mut self, request: &MemRequest, completed_at: Cycle) {
        let bank = self.global_bank(&request.dram_addr);
        if let Entry::Occupied(mut entry) = self.inflight.entry((request.thread.index(), bank)) {
            let count = entry.get_mut();
            *count = count.saturating_sub(1);
            if *count == 0 {
                entry.remove();
            }
        }
        self.delayed_by_defense.remove(&request.id);
        match request.access {
            AccessType::Read => {
                let latency = completed_at.saturating_sub(request.arrival);
                self.stats.record_read_completion(request.thread, latency);
            }
            AccessType::Write => self.stats.writes_completed += 1,
        }
    }

    /// Attempts to issue one command. Returns whether a command (or an
    /// internally-completed victim refresh) consumed the command slot.
    fn try_issue_command(&mut self, now: Cycle, defense: &mut dyn RowHammerDefense) -> bool {
        if self.handle_refresh(now) {
            return true;
        }
        // Victim refreshes the defense asked for have priority: they are
        // the defense's security-critical traffic.
        if !self.victim_queue.is_empty() && self.serve_victim_queue(now) {
            return true;
        }
        // Write-drain hysteresis.
        if self.write_queue_len() >= self.config.write_drain_high {
            self.drain_mode = true;
        } else if self.write_queue_len() <= self.config.write_drain_low {
            self.drain_mode = false;
        }
        let serve_writes = self.drain_mode || self.scheduler.is_empty(AccessType::Read);
        if serve_writes && !self.scheduler.is_empty(AccessType::Write) {
            self.serve_demand_queue(AccessType::Write, now, defense)
        } else if !self.scheduler.is_empty(AccessType::Read) {
            self.serve_demand_queue(AccessType::Read, now, defense)
        } else {
            false
        }
    }

    /// Issues precharges / REF commands needed for overdue auto-refresh.
    /// Every rank is scanned before deciding: the first rank with an
    /// actionable pending refresh gets the command slot, and the slot is
    /// only held idle (blocking demand traffic, so no new activations can
    /// postpone the refresh further) when at least one rank has a pending
    /// refresh and *no* rank could issue anything for it. Returns whether a
    /// command slot was consumed.
    fn handle_refresh(&mut self, now: Cycle) -> bool {
        let org = self.config.organization;
        let mut pending_blocked = false;
        for rank in 0..org.ranks {
            if now >= self.next_refresh[rank] {
                self.refresh_pending[rank] = true;
            }
            if !self.refresh_pending[rank] {
                continue;
            }
            // Any address within the rank works for rank-wide commands.
            let probe = DramAddress::new(0, rank, 0, 0, 0, 0);
            if self.dram.can_issue(MemCommand::Refresh, &probe, now) {
                self.issue_tracked(MemCommand::Refresh, &probe, now);
                self.stats.auto_refreshes += 1;
                self.refresh_pending[rank] = false;
                self.next_refresh[rank] += self.timings.t_refi;
                return true;
            }
            // Close any open bank so the refresh can proceed.
            for bg in 0..org.bank_groups {
                for ba in 0..org.banks_per_group {
                    let addr = DramAddress::new(0, rank, bg, ba, 0, 0);
                    if self.dram.open_row(&addr).is_some()
                        && self.dram.can_issue(MemCommand::Precharge, &addr, now)
                    {
                        self.issue_tracked(MemCommand::Precharge, &addr, now);
                        return true;
                    }
                }
            }
            // This rank's refresh is pending but nothing can be issued for
            // it yet; another rank may still be actionable.
            pending_blocked = true;
        }
        pending_blocked
    }

    /// Serves the defense's victim-refresh queue. A victim refresh is
    /// physically an activation of the victim row; a victim whose row is
    /// already open has effectively just been refreshed and completes
    /// without a command.
    fn serve_victim_queue(&mut self, now: Cycle) -> bool {
        for i in 0..self.victim_queue.len() {
            let addr = self.victim_queue[i];
            match self.dram.open_row(&addr) {
                Some(open) if open == addr.row() => {
                    // Row already open: the restore has just happened.
                    self.victim_queue.swap_remove(i);
                    self.stats.victim_refreshes_performed += 1;
                    return true;
                }
                Some(_) => {
                    if self.dram.can_issue(MemCommand::Precharge, &addr, now) {
                        self.issue_tracked(MemCommand::Precharge, &addr, now);
                        self.stats.row_conflicts += 1;
                        return true;
                    }
                }
                None => {
                    if self.dram.can_issue(MemCommand::Activate, &addr, now) {
                        self.issue_tracked(MemCommand::Activate, &addr, now);
                        self.victim_queue.swap_remove(i);
                        self.stats.victim_refreshes_performed += 1;
                        return true;
                    }
                }
            }
        }
        false
    }

    /// FR-FCFS over one demand queue. Returns whether a command was issued.
    fn serve_demand_queue(
        &mut self,
        kind: AccessType,
        now: Cycle,
        defense: &mut dyn RowHammerDefense,
    ) -> bool {
        // Pass 1: oldest row-buffer hit.
        if let Some(request) = self.scheduler.take_row_hit(kind, now, &self.dram) {
            let cmd = match kind {
                AccessType::Read => MemCommand::Read,
                AccessType::Write => MemCommand::Write,
            };
            let outcome = self.issue_tracked(cmd, &request.dram_addr, now);
            self.stats.row_hits += 1;
            self.next_completion = self.next_completion.min(outcome.completes_at);
            self.pending_completions
                .push((outcome.completes_at, request));
            return true;
        }
        // Pass 2: oldest request to a precharged bank -> activate. The
        // request stays queued and completes later as a row hit.
        let pick = {
            let delayed = &mut self.delayed_by_defense;
            let stats = &mut self.stats;
            let vetoed = &mut self.tally.vetoed;
            self.scheduler
                .pick_activation(kind, now, &self.dram, defense, |request| {
                    if delayed.insert(request.id) {
                        stats.activations_delayed_by_defense += 1;
                    }
                    vetoed.push((request.thread, request.dram_addr));
                })
        };
        if let Some((thread, addr)) = pick {
            self.issue_tracked(MemCommand::Activate, &addr, now);
            self.stats.row_misses += 1;
            let victims = defense.on_activation(now, thread, &addr);
            self.victim_queue.extend(victims);
            return true;
        }
        // Pass 3: oldest conflicting request -> precharge, but only if no
        // queued request still wants the currently open row (FR part of
        // FR-FCFS).
        if let Some(addr) = self
            .scheduler
            .pick_conflict_precharge(kind, now, &self.dram)
        {
            self.issue_tracked(MemCommand::Precharge, &addr, now);
            self.stats.row_conflicts += 1;
            return true;
        }
        false
    }

    /// Issues a command to the DRAM device and mirrors its row-buffer
    /// effect in the scheduler's per-bank open-row cache.
    fn issue_tracked(&mut self, cmd: MemCommand, addr: &DramAddress, now: Cycle) -> IssueOutcome {
        let outcome = self.dram.issue(cmd, addr, now);
        let bank = self.global_bank(addr);
        self.scheduler.note_issue(cmd, bank, addr.row());
        #[cfg(debug_assertions)]
        {
            let banks_per_group = self.config.organization.banks_per_group;
            debug_assert_eq!(
                self.scheduler.cached_open_row(bank),
                self.dram
                    .open_row_at(addr.rank(), addr.bank_in_rank(banks_per_group)),
                "open-row cache diverged from the device on {cmd} to {addr}"
            );
        }
        outcome
    }

    /// Finalizes the run at `now`, returning DRAM statistics (command
    /// counts, bank-state residency, optional activation log) and the
    /// controller's own statistics.
    pub fn finish(&mut self, now: Cycle) -> (DramStats, CtrlStats) {
        (self.dram.finish(now), self.stats.clone())
    }

    /// Read-only access to the controller statistics.
    pub fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    /// Read-only access to the DRAM device (e.g. for inspecting open rows
    /// or activation logs in tests).
    pub fn dram(&self) -> &DramDevice {
        &self.dram
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitigations::{DefenseGeometry, NoMitigation, Para, RowHammerThreshold};

    fn controller() -> MemoryController {
        MemoryController::new(MemCtrlConfig::default())
    }

    fn run_until_complete(
        ctrl: &mut MemoryController,
        defense: &mut dyn RowHammerDefense,
        start: Cycle,
        limit: Cycle,
    ) -> Vec<CompletedRequest> {
        let mut done = Vec::new();
        for cycle in start..start + limit {
            done.extend(ctrl.tick(cycle, defense));
            if ctrl.is_idle() {
                break;
            }
        }
        done
    }

    #[test]
    #[should_panic(expected = "exactly one channel")]
    fn new_rejects_more_than_one_channel() {
        let mut config = MemCtrlConfig::default();
        config.organization.channels = 2;
        MemoryController::new(config);
    }

    #[test]
    fn single_read_completes_with_act_plus_cas_latency() {
        let mut ctrl = controller();
        let mut defense = NoMitigation::new();
        ctrl.enqueue(ThreadId::new(0), 0x10_000, AccessType::Read, 0, &defense)
            .unwrap();
        let done = run_until_complete(&mut ctrl, &mut defense, 0, 5_000);
        assert_eq!(done.len(), 1);
        let latency = done[0].completed_at;
        let t = *ctrl.timings();
        assert!(latency >= t.t_rcd + t.read_latency());
        assert!(latency < t.t_rcd + t.read_latency() + 200);
        assert_eq!(ctrl.stats().reads_completed, 1);
        assert_eq!(ctrl.stats().row_misses, 1);
    }

    #[test]
    fn same_row_reads_hit_the_row_buffer() {
        let mut ctrl = controller();
        let mut defense = NoMitigation::new();
        // Consecutive cache lines within the MOP group map to the same row.
        for line in 0..4u64 {
            ctrl.enqueue(
                ThreadId::new(0),
                0x20_000 + line * 64,
                AccessType::Read,
                0,
                &defense,
            )
            .unwrap();
        }
        let done = run_until_complete(&mut ctrl, &mut defense, 0, 10_000);
        assert_eq!(done.len(), 4);
        assert_eq!(ctrl.stats().row_misses, 1, "one ACT opens the row");
        assert_eq!(ctrl.stats().row_hits, 4, "all four columns hit");
    }

    #[test]
    fn row_conflicts_are_resolved_with_precharge() {
        let mut ctrl = controller();
        let mut defense = NoMitigation::new();
        let geometry = ctrl.config().organization.geometry();
        let mapping = ctrl.config().mapping;
        // Two addresses in the same bank but different rows.
        let a = mapping.encode(&geometry, &DramAddress::new(0, 0, 1, 1, 100, 0));
        let b = mapping.encode(&geometry, &DramAddress::new(0, 0, 1, 1, 200, 0));
        ctrl.enqueue(ThreadId::new(0), a, AccessType::Read, 0, &defense)
            .unwrap();
        ctrl.enqueue(ThreadId::new(0), b, AccessType::Read, 0, &defense)
            .unwrap();
        let done = run_until_complete(&mut ctrl, &mut defense, 0, 20_000);
        assert_eq!(done.len(), 2);
        assert_eq!(ctrl.stats().row_conflicts, 1);
        assert_eq!(ctrl.stats().row_misses, 2);
    }

    #[test]
    fn writes_are_drained_and_complete() {
        let mut ctrl = controller();
        let mut defense = NoMitigation::new();
        for i in 0..8u64 {
            ctrl.enqueue(
                ThreadId::new(0),
                0x100_000 + i * 4096,
                AccessType::Write,
                0,
                &defense,
            )
            .unwrap();
        }
        let _ = run_until_complete(&mut ctrl, &mut defense, 0, 50_000);
        assert_eq!(ctrl.stats().writes_completed, 8);
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let mut ctrl = controller();
        let defense = NoMitigation::new();
        let cap = ctrl.config().read_queue_capacity;
        for i in 0..cap as u64 {
            ctrl.enqueue(ThreadId::new(0), i * 4096, AccessType::Read, 0, &defense)
                .unwrap();
        }
        let err = ctrl
            .enqueue(ThreadId::new(0), 0xdead000, AccessType::Read, 0, &defense)
            .unwrap_err();
        assert_eq!(err, EnqueueError::QueueFull);
        assert_eq!(ctrl.stats().rejected_queue_full, 1);
    }

    #[test]
    fn inflight_accounting_drops_entries_at_zero() {
        let mut ctrl = controller();
        let mut defense = NoMitigation::new();
        // Touch many distinct (thread, bank) pairs; the accounting map must
        // not retain an entry for every pair ever seen.
        for i in 0..32u64 {
            ctrl.enqueue(
                ThreadId::new((i % 8) as usize),
                i * 0x4_0000,
                AccessType::Read,
                0,
                &defense,
            )
            .unwrap();
        }
        let done = run_until_complete(&mut ctrl, &mut defense, 0, 100_000);
        assert_eq!(done.len(), 32);
        assert!(
            ctrl.inflight.is_empty(),
            "inflight map retained {} zero entries",
            ctrl.inflight.len()
        );
    }

    #[test]
    fn completions_on_the_same_cycle_are_reported_in_fifo_order() {
        let mut ctrl = controller();
        let mut defense = NoMitigation::new();
        // Four same-row reads issue back to back; withhold ticks until all
        // have issued, then jump far ahead so every completion is collected
        // in one call — stable removal must report them in issue order.
        for line in 0..4u64 {
            ctrl.enqueue(
                ThreadId::new(0),
                0x30_000 + line * 64,
                AccessType::Read,
                0,
                &defense,
            )
            .unwrap();
        }
        let mut done = Vec::new();
        let mut cycle = 0;
        while ctrl.read_queue_len() > 0 && cycle < 1_000 {
            done.extend(ctrl.tick(cycle, &mut defense));
            cycle += 1;
        }
        assert_eq!(ctrl.read_queue_len(), 0, "all reads must issue");
        done.extend(ctrl.tick(100_000, &mut defense));
        let ids: Vec<ReqId> = done.iter().map(|c| c.request.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3], "completion stream must stay FIFO");
    }

    #[test]
    fn blocked_rank_does_not_stall_other_ranks_refreshes() {
        let mut config = MemCtrlConfig::default();
        config.organization.ranks = 2;
        let mut ctrl = MemoryController::new(config);
        let mut defense = NoMitigation::new();
        let t_refi = ctrl.timings().t_refi;
        let geometry = ctrl.config().organization.geometry();
        let mapping = ctrl.config().mapping;
        // Idle until shortly before the refresh deadline, then open a row
        // in rank 0 so that, at the deadline, rank 0 can neither refresh
        // (row open) nor precharge (tRAS still running).
        for cycle in 0..t_refi - 40 {
            ctrl.tick(cycle, &mut defense);
        }
        let rank0 = mapping.encode(&geometry, &DramAddress::new(0, 0, 0, 0, 100, 0));
        ctrl.enqueue(
            ThreadId::new(0),
            rank0,
            AccessType::Read,
            t_refi - 40,
            &defense,
        )
        .unwrap();
        for cycle in t_refi - 40..=t_refi + 5 {
            ctrl.tick(cycle, &mut defense);
        }
        assert_eq!(
            ctrl.stats().auto_refreshes,
            1,
            "rank 1 must refresh on schedule while rank 0 is blocked"
        );
        for cycle in t_refi + 6..t_refi + 1_000 {
            ctrl.tick(cycle, &mut defense);
        }
        assert_eq!(
            ctrl.stats().auto_refreshes,
            2,
            "rank 0 must refresh once its bank can be closed"
        );
    }

    #[test]
    fn auto_refresh_is_issued_periodically() {
        let mut ctrl = controller();
        let mut defense = NoMitigation::new();
        let t_refi = ctrl.timings().t_refi;
        let horizon = t_refi * 5 + 1000;
        for cycle in 0..horizon {
            ctrl.tick(cycle, &mut defense);
        }
        let refreshes = ctrl.stats().auto_refreshes;
        assert!(
            (4..=6).contains(&refreshes),
            "expected about 5 refreshes, got {refreshes}"
        );
    }

    #[test]
    fn reactive_defense_victim_refreshes_are_performed() {
        let mut ctrl = controller();
        // A PARA with an aggressive probability so victim refreshes are
        // frequent enough to observe quickly.
        let mut defense = Para::new(
            RowHammerThreshold::new(16),
            1e-3,
            DefenseGeometry::default(),
            1,
        );
        let geometry = ctrl.config().organization.geometry();
        let mapping = ctrl.config().mapping;
        let mut cycle = 0;
        let mut reads = Vec::new();
        let mut done = Vec::new();
        // Hammer two rows of one bank alternately.
        for i in 0..400u64 {
            let row = if i % 2 == 0 { 1000 } else { 1002 };
            let phys = mapping.encode(&geometry, &DramAddress::new(0, 0, 0, 0, row, 0));
            loop {
                if let Ok(id) =
                    ctrl.enqueue(ThreadId::new(0), phys, AccessType::Read, cycle, &defense)
                {
                    reads.push(id);
                    break;
                }
                done.extend(ctrl.tick(cycle, &mut defense));
                cycle += 1;
            }
        }
        while !ctrl.is_idle() && cycle < 2_000_000 {
            done.extend(ctrl.tick(cycle, &mut defense));
            cycle += 1;
        }
        assert!(
            ctrl.stats().victim_refreshes_performed > 0,
            "PARA's victim refreshes must reach DRAM"
        );
        let mut completed: Vec<ReqId> = done.iter().map(|c| c.request.id).collect();
        completed.sort_unstable();
        assert_eq!(completed, reads, "exactly the 400 demand reads complete");
        assert!(defense.stats().victim_refreshes >= ctrl.stats().victim_refreshes_performed);
    }

    #[test]
    fn quota_zero_blocks_a_thread() {
        /// A defense that forbids thread 1 from having any in-flight
        /// requests (an extreme AttackThrottler).
        #[derive(Debug)]
        struct BlockThread1;
        impl RowHammerDefense for BlockThread1 {
            fn name(&self) -> &'static str {
                "BlockThread1"
            }
            fn on_activation(
                &mut self,
                _now: Cycle,
                _thread: ThreadId,
                _addr: &DramAddress,
            ) -> Vec<DramAddress> {
                Vec::new()
            }
            fn inflight_quota(&self, thread: ThreadId, _bank: usize) -> Option<u32> {
                (thread.index() == 1).then_some(0)
            }
            fn metadata(&self) -> mitigations::MetadataFootprint {
                mitigations::MetadataFootprint::default()
            }
            fn stats(&self) -> mitigations::DefenseStats {
                mitigations::DefenseStats::default()
            }
        }
        let mut ctrl = controller();
        let defense = BlockThread1;
        assert!(ctrl
            .enqueue(ThreadId::new(0), 0x1000, AccessType::Read, 0, &defense)
            .is_ok());
        let err = ctrl
            .enqueue(ThreadId::new(1), 0x2000, AccessType::Read, 0, &defense)
            .unwrap_err();
        assert_eq!(err, EnqueueError::QuotaExceeded);
    }

    #[test]
    fn defense_veto_delays_activation() {
        /// A defense that vetoes every activation until cycle 5000.
        #[derive(Debug)]
        struct VetoUntil(Cycle);
        impl RowHammerDefense for VetoUntil {
            fn name(&self) -> &'static str {
                "VetoUntil"
            }
            fn is_activation_safe(
                &mut self,
                now: Cycle,
                _thread: ThreadId,
                _addr: &DramAddress,
            ) -> bool {
                now >= self.0
            }
            fn on_activation(
                &mut self,
                _now: Cycle,
                _thread: ThreadId,
                _addr: &DramAddress,
            ) -> Vec<DramAddress> {
                Vec::new()
            }
            fn metadata(&self) -> mitigations::MetadataFootprint {
                mitigations::MetadataFootprint::default()
            }
            fn stats(&self) -> mitigations::DefenseStats {
                mitigations::DefenseStats::default()
            }
        }
        let mut ctrl = controller();
        let mut defense = VetoUntil(5_000);
        ctrl.enqueue(ThreadId::new(0), 0x7000, AccessType::Read, 0, &defense)
            .unwrap();
        let done = run_until_complete(&mut ctrl, &mut defense, 0, 50_000);
        assert_eq!(done.len(), 1);
        assert!(
            done[0].completed_at >= 5_000,
            "read completed at {} despite the veto",
            done[0].completed_at
        );
        assert_eq!(ctrl.stats().activations_delayed_by_defense, 1);
        assert!(
            ctrl.delayed_by_defense.is_empty(),
            "a completed request leaves the delayed set"
        );
    }

    #[test]
    fn idle_until_after_an_issue_is_the_slot_reopening() {
        let mut ctrl = controller();
        let mut defense = NoMitigation::new();
        ctrl.enqueue(ThreadId::new(0), 0x10_000, AccessType::Read, 0, &defense)
            .unwrap();
        assert!(ctrl.tick(0, &mut defense).is_empty());
        assert_eq!(ctrl.stats().row_misses, 1, "the tick activates the row");
        let slot = ctrl.config().command_bus_interval;
        assert_eq!(ctrl.idle_until(0, &defense), Some(slot));
    }

    #[test]
    fn idle_until_after_an_admission_waits_only_for_a_closed_slot() {
        let mut ctrl = controller();
        let mut defense = NoMitigation::new();
        let slot = ctrl.config().command_bus_interval;
        ctrl.tick(0, &mut defense);
        let t_refi = ctrl.timings().t_refi;
        assert_eq!(
            ctrl.idle_until(0, &defense),
            Some(t_refi),
            "an empty controller waits for its refresh deadline"
        );
        ctrl.enqueue(ThreadId::new(0), 0x10_000, AccessType::Read, 0, &defense)
            .unwrap();
        assert_eq!(
            ctrl.idle_until(0, &defense),
            None,
            "a request admitted with the slot open can issue next cycle"
        );
        ctrl.tick(1, &mut defense);
        ctrl.enqueue(ThreadId::new(0), 0x80_000, AccessType::Read, 1, &defense)
            .unwrap();
        assert_eq!(
            ctrl.idle_until(1, &defense),
            Some(1 + slot),
            "a request admitted after an issue waits for the slot"
        );
    }

    #[test]
    fn idle_until_after_a_failed_pass_is_its_retry_cycle() {
        let mut ctrl = controller();
        let mut defense = NoMitigation::new();
        let geometry = ctrl.config().organization.geometry();
        let mapping = ctrl.config().mapping;
        let written = DramAddress::new(0, 0, 1, 1, 100, 0);
        let conflicting = DramAddress::new(0, 0, 1, 1, 200, 0);
        ctrl.enqueue(
            ThreadId::new(0),
            mapping.encode(&geometry, &written),
            AccessType::Write,
            0,
            &defense,
        )
        .unwrap();
        let mut now = 0;
        while ctrl.write_queue_len() > 0 {
            ctrl.tick(now, &mut defense);
            now += 1;
        }
        // A read to another row of the written bank needs a PRE, which
        // write recovery (tWR) holds back until after the write completes.
        ctrl.enqueue(
            ThreadId::new(0),
            mapping.encode(&geometry, &conflicting),
            AccessType::Read,
            now,
            &defense,
        )
        .unwrap();
        while ctrl.tick(now, &mut defense).is_empty() {
            now += 1;
        }
        let pre_at = ctrl
            .dram()
            .earliest_issue(MemCommand::Precharge, &conflicting)
            .unwrap();
        assert!(
            pre_at > now,
            "the PRE is still refused when the write completes"
        );
        assert_eq!(ctrl.idle_until(now, &defense), Some(pre_at));
    }

    #[test]
    fn per_thread_latency_is_tracked() {
        let mut ctrl = controller();
        let mut defense = NoMitigation::new();
        ctrl.enqueue(ThreadId::new(3), 0x9000, AccessType::Read, 0, &defense)
            .unwrap();
        let _ = run_until_complete(&mut ctrl, &mut defense, 0, 10_000);
        assert_eq!(ctrl.stats().reads_per_thread[&3], 1);
        assert!(ctrl.stats().read_latency_per_thread[&3] > 0);
    }
}
