//! The FR-FCFS scheduling passes over the demand queues.
//!
//! [`Scheduler`] owns the read and write queues and answers the three
//! questions the controller asks every scheduling round, in priority
//! order:
//!
//! 1. *row hit* — the oldest request whose target row is already open and
//!    whose column command is legal now;
//! 2. *activation* — the oldest request to a precharged bank whose ACT is
//!    legal now and which the RowHammer defense does not veto;
//! 3. *conflict precharge* — the oldest request that needs a different row
//!    than the one its bank holds open, provided no queued request still
//!    wants the open row (the "first-ready" part of FR-FCFS).
//!
//! Two interchangeable implementations are provided, selected by
//! [`SchedulerPolicy`]:
//!
//! * [`SchedulerPolicy::LinearScan`] stores each queue as one flat vector
//!   and re-scans it per pass — the straightforward reference
//!   implementation, kept as the equivalence baseline and for the
//!   `controller_scheduling` benchmark's before/after comparison.
//! * [`SchedulerPolicy::BankedIndex`] buckets requests per global bank
//!   ([`BankedQueue`]) with an [`OpenRowCache`], so each pass touches only
//!   banks that have queued work and performs at most one command-legality
//!   check per bank instead of one per request. An open-row index counts,
//!   per bank, the queued reads and writes that target the bank's open
//!   row: it is updated on push, on row-hit removal and on every issued
//!   ACT or precharge, so the row-hit pass skips banks without a hit and
//!   the conflict-precharge pass answers "still wanted?" in O(1). Debug
//!   builds recount it after every update.
//!
//! Both implementations make identical decisions, cycle for cycle: command
//! legality depends only on bank and rank state (never on the column), so
//! every per-request check the linear scan performs is constant across the
//! requests of one bank, and "oldest first" is recovered in the banked
//! representation by merging bucket heads by request id (ids are assigned
//! monotonically at admission). Defense hooks are consulted in the same
//! order as the linear scan would, so even stateful defenses observe an
//! identical call sequence. `tests/tests/scheduler_equivalence.rs` pins
//! this equivalence on randomized workloads.

use crate::queues::{BankedQueue, OpenRowCache};
use bh_types::{AccessType, Cycle, DramAddress, MemCommand, MemRequest, ReqId, ThreadId};
use dram_sim::DramDevice;
use mitigations::RowHammerDefense;
use serde::{Deserialize, Serialize};

/// How the controller's scheduling hot path scans the demand queues.
///
/// Both policies implement the same FR-FCFS semantics and make identical
/// decisions; they differ only in cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SchedulerPolicy {
    /// One flat vector per queue, re-scanned O(queue length) per pass.
    LinearScan,
    /// Per-bank FIFO buckets with an open-row cache; passes touch only
    /// banks that have work.
    #[default]
    BankedIndex,
}

/// One demand queue in the representation its policy requires.
#[derive(Debug, Clone)]
enum QueueRepr {
    Linear(Vec<MemRequest>),
    Banked(BankedQueue),
}

impl QueueRepr {
    fn len(&self) -> usize {
        match self {
            QueueRepr::Linear(q) => q.len(),
            QueueRepr::Banked(q) => q.len(),
        }
    }
}

/// The demand queues plus the per-bank scheduling index. See the
/// [module](self) documentation.
#[derive(Debug, Clone)]
pub(crate) struct Scheduler {
    read: QueueRepr,
    write: QueueRepr,
    open_rows: OpenRowCache,
    /// Banked policy only: per global bank, the queued reads and writes
    /// (indexed by [`kind_index`]) that target the bank's open row.
    open_row_hits: Vec<[u32; 2]>,
    /// Scratch cursor list for `pick_activation`'s banked merge, kept
    /// across calls so the per-cycle pass never allocates.
    act_cursors: Vec<(usize, usize)>,
}

/// The slot of an access type in a per-bank `[reads, writes]` pair.
fn kind_index(kind: AccessType) -> usize {
    match kind {
        AccessType::Read => 0,
        AccessType::Write => 1,
    }
}

impl Scheduler {
    pub(crate) fn new(
        policy: SchedulerPolicy,
        total_banks: usize,
        banks_per_rank: usize,
        read_capacity: usize,
        write_capacity: usize,
    ) -> Self {
        let make = |capacity: usize| match policy {
            SchedulerPolicy::LinearScan => QueueRepr::Linear(Vec::with_capacity(capacity)),
            SchedulerPolicy::BankedIndex => QueueRepr::Banked(BankedQueue::new(total_banks)),
        };
        Self {
            read: make(read_capacity),
            write: make(write_capacity),
            open_rows: OpenRowCache::new(total_banks, banks_per_rank),
            open_row_hits: vec![[0; 2]; total_banks],
            act_cursors: Vec::new(),
        }
    }

    fn queue(&self, kind: AccessType) -> &QueueRepr {
        match kind {
            AccessType::Read => &self.read,
            AccessType::Write => &self.write,
        }
    }

    fn queue_mut(&mut self, kind: AccessType) -> &mut QueueRepr {
        match kind {
            AccessType::Read => &mut self.read,
            AccessType::Write => &mut self.write,
        }
    }

    /// Occupancy of one queue.
    pub(crate) fn len(&self, kind: AccessType) -> usize {
        self.queue(kind).len()
    }

    /// Whether one queue is empty.
    pub(crate) fn is_empty(&self, kind: AccessType) -> bool {
        self.len(kind) == 0
    }

    /// Admits a request into its queue; `bank` is the request's global bank
    /// index.
    // lint: alloc-free
    pub(crate) fn push(&mut self, kind: AccessType, bank: usize, request: MemRequest) {
        let hits_open_row = self.open_rows.get(bank) == Some(request.dram_addr.row());
        match self.queue_mut(kind) {
            QueueRepr::Linear(q) => q.push(request),
            QueueRepr::Banked(q) => {
                q.push(bank, request);
                if hits_open_row {
                    self.open_row_hits[bank][kind_index(kind)] += 1;
                }
                self.debug_check_open_row_hits(bank);
            }
        }
    }

    /// Records the row-buffer effect of a command the controller issued on
    /// `bank` (keeps the open-row cache and the open-row index exact).
    // lint: alloc-free
    pub(crate) fn note_issue(&mut self, cmd: MemCommand, bank: usize, row: u64) {
        self.open_rows.note_issue(cmd, bank, row);
        let (QueueRepr::Banked(reads), QueueRepr::Banked(writes)) = (&self.read, &self.write)
        else {
            return;
        };
        match cmd {
            MemCommand::Activate => {
                let count = |q: &BankedQueue| {
                    q.bucket(bank)
                        .iter()
                        .filter(|r| r.dram_addr.row() == row)
                        .count() as u32
                };
                self.open_row_hits[bank] = [count(reads), count(writes)];
            }
            MemCommand::Precharge | MemCommand::ReadAp | MemCommand::WriteAp => {
                self.open_row_hits[bank] = [0; 2];
            }
            MemCommand::PrechargeAll => {
                for hits in &mut self.open_row_hits[self.open_rows.rank_banks(bank)] {
                    *hits = [0; 2];
                }
            }
            MemCommand::Read | MemCommand::Write | MemCommand::Refresh => {}
        }
        for bank in self.open_rows.rank_banks(bank) {
            self.debug_check_open_row_hits(bank);
        }
    }

    /// Debug builds: recounts `bank`'s open-row index from the queues and
    /// the open-row cache (a no-op under the linear policy).
    fn debug_check_open_row_hits(&self, bank: usize) {
        if let (QueueRepr::Banked(reads), QueueRepr::Banked(writes)) = (&self.read, &self.write) {
            let open = self.open_rows.get(bank);
            let count = |q: &BankedQueue| {
                q.bucket(bank)
                    .iter()
                    .filter(|r| Some(r.dram_addr.row()) == open)
                    .count() as u32
            };
            debug_assert_eq!(
                self.open_row_hits[bank],
                [count(reads), count(writes)],
                "open-row index diverged from the queues on bank {bank}"
            );
        }
    }

    /// The cached open row of a global bank (debug cross-checks).
    #[cfg(debug_assertions)]
    pub(crate) fn cached_open_row(&self, bank: usize) -> Option<u64> {
        self.open_rows.get(bank)
    }

    /// Pass 1: removes and returns the oldest row-buffer hit whose column
    /// command is legal at `now`.
    // lint: alloc-free
    pub(crate) fn take_row_hit(
        &mut self,
        kind: AccessType,
        now: Cycle,
        dram: &DramDevice,
    ) -> Option<MemRequest> {
        let cmd = match kind {
            AccessType::Read => MemCommand::Read,
            AccessType::Write => MemCommand::Write,
        };
        match self.queue(kind) {
            QueueRepr::Linear(q) => {
                let i = q.iter().position(|request| {
                    let addr = &request.dram_addr;
                    dram.open_row(addr) == Some(addr.row()) && dram.can_issue(cmd, addr, now)
                })?;
                let QueueRepr::Linear(q) = self.queue_mut(kind) else {
                    // lint: allow(panic-freedom) -- queue representation is chosen once at construction and never changes
                    unreachable!("queue representation is fixed at construction");
                };
                Some(q.remove(i))
            }
            QueueRepr::Banked(q) => {
                let mut best: Option<(ReqId, usize, usize)> = None;
                for bank in 0..self.open_row_hits.len() {
                    if self.open_row_hits[bank][kind_index(kind)] == 0 {
                        continue;
                    }
                    let Some(open) = self.open_rows.get(bank) else {
                        continue;
                    };
                    let Some((pos, request)) = q
                        .bucket(bank)
                        .iter()
                        .enumerate()
                        .find(|(_, r)| r.dram_addr.row() == open)
                    else {
                        continue;
                    };
                    // Column-command legality is identical for every
                    // same-row request of the bank, so one check suffices.
                    if !dram.can_issue(cmd, &request.dram_addr, now) {
                        continue;
                    }
                    if best.map_or(true, |(id, _, _)| request.id < id) {
                        best = Some((request.id, bank, pos));
                    }
                }
                let (_, bank, pos) = best?;
                let QueueRepr::Banked(q) = self.queue_mut(kind) else {
                    // lint: allow(panic-freedom) -- queue representation is chosen once at construction and never changes
                    unreachable!("queue representation is fixed at construction");
                };
                let hit = q.remove(bank, pos);
                self.open_row_hits[bank][kind_index(kind)] -= 1;
                self.debug_check_open_row_hits(bank);
                Some(hit)
            }
        }
    }

    /// Pass 2: the oldest request to a precharged bank whose ACT is legal
    /// at `now` and which the defense does not veto, as its thread and
    /// address. The request stays queued (it completes later as a row
    /// hit); `on_veto` is called for every request the defense skipped, in
    /// consult order.
    // lint: alloc-free
    pub(crate) fn pick_activation(
        &mut self,
        kind: AccessType,
        now: Cycle,
        dram: &DramDevice,
        defense: &mut dyn RowHammerDefense,
        mut on_veto: impl FnMut(&MemRequest),
    ) -> Option<(ThreadId, DramAddress)> {
        // The banked path's cursor list lives on the scheduler so this
        // per-cycle pass never allocates (it reaches capacity — at most
        // one entry per bank — after the first few calls).
        let mut cursors = std::mem::take(&mut self.act_cursors);
        cursors.clear();
        let result = match self.queue(kind) {
            QueueRepr::Linear(q) => 'linear: {
                for request in q {
                    let addr = &request.dram_addr;
                    if dram.open_row(addr).is_some()
                        || !dram.can_issue(MemCommand::Activate, addr, now)
                    {
                        continue;
                    }
                    // The defense may veto (delay) this activation;
                    // skipping the request effectively prioritizes
                    // RowHammer-safe requests, as Section 3.1 describes.
                    if !defense.is_activation_safe(now, request.thread, addr) {
                        on_veto(request);
                        continue;
                    }
                    break 'linear Some((request.thread, *addr));
                }
                None
            }
            QueueRepr::Banked(q) => {
                // Banks whose ACT is legal now; eligibility is a bank-level
                // property (activation legality never depends on the row),
                // so it is decided once per bank.
                for bank in 0..self.open_row_hits.len() {
                    let Some(front) = q.bucket(bank).front() else {
                        continue;
                    };
                    if self.open_rows.get(bank).is_some()
                        || !dram.can_issue(MemCommand::Activate, &front.dram_addr, now)
                    {
                        continue;
                    }
                    cursors.push((bank, 0));
                }
                // Merge the eligible buckets in request-id (arrival) order
                // so the defense sees candidates exactly as a linear scan
                // would present them.
                loop {
                    let mut best: Option<(usize, ReqId)> = None;
                    for (cursor, &(bank, pos)) in cursors.iter().enumerate() {
                        let id = q.bucket(bank)[pos].id;
                        if best.map_or(true, |(_, best_id)| id < best_id) {
                            best = Some((cursor, id));
                        }
                    }
                    let Some((cursor, _)) = best else {
                        break None;
                    };
                    let (bank, pos) = cursors[cursor];
                    let request = &q.bucket(bank)[pos];
                    if !defense.is_activation_safe(now, request.thread, &request.dram_addr) {
                        on_veto(request);
                        if pos + 1 < q.bucket(bank).len() {
                            cursors[cursor].1 = pos + 1;
                        } else {
                            cursors.swap_remove(cursor);
                        }
                        continue;
                    }
                    break Some((request.thread, request.dram_addr));
                }
            }
        };
        // Hand the buffer back for the next call.
        self.act_cursors = cursors;
        result
    }

    /// Pass 3: the oldest request conflicting with its bank's open row,
    /// provided no queued request (of either queue) still wants that open
    /// row and the PRE is legal at `now`. Returns the conflicting request's
    /// address (the PRE target). The banked policy reads "still wanted"
    /// from the open-row index.
    // lint: alloc-free
    pub(crate) fn pick_conflict_precharge(
        &self,
        kind: AccessType,
        now: Cycle,
        dram: &DramDevice,
    ) -> Option<DramAddress> {
        match (self.queue(kind), &self.read, &self.write) {
            (QueueRepr::Linear(q), QueueRepr::Linear(reads), QueueRepr::Linear(writes)) => {
                for request in q {
                    let addr = &request.dram_addr;
                    let Some(open) = dram.open_row(addr) else {
                        continue;
                    };
                    if open == addr.row() {
                        continue;
                    }
                    // Keep the row open while any queued request still hits
                    // it.
                    let still_wanted = reads.iter().chain(writes.iter()).any(|other| {
                        other.dram_addr.rank() == addr.rank()
                            && other.dram_addr.bank_group() == addr.bank_group()
                            && other.dram_addr.bank() == addr.bank()
                            && other.dram_addr.row() == open
                    });
                    if still_wanted {
                        continue;
                    }
                    if dram.can_issue(MemCommand::Precharge, addr, now) {
                        return Some(*addr);
                    }
                }
                None
            }
            (QueueRepr::Banked(q), QueueRepr::Banked(_), QueueRepr::Banked(_)) => {
                let mut best: Option<(ReqId, DramAddress)> = None;
                for bank in 0..self.open_row_hits.len() {
                    // Keep the row open while any queued read or write
                    // still hits it.
                    if self.open_rows.get(bank).is_none() || self.open_row_hits[bank] != [0; 2] {
                        continue;
                    }
                    // No queued request targets the open row, so the
                    // bucket's oldest request conflicts with it.
                    let Some(request) = q.bucket(bank).front() else {
                        continue;
                    };
                    // PRE legality never depends on the row, so one check
                    // covers every conflicting request of the bank.
                    if !dram.can_issue(MemCommand::Precharge, &request.dram_addr, now) {
                        continue;
                    }
                    if best.map_or(true, |(id, _)| request.id < id) {
                        best = Some((request.id, request.dram_addr));
                    }
                }
                best.map(|(_, addr)| addr)
            }
            // lint: allow(panic-freedom) -- both queues share the representation chosen once at construction
            _ => unreachable!("both queues share one representation"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_types::{ThreadId, TimeConverter};
    use dram_sim::{DramOrganization, DramTimings};
    use mitigations::NoMitigation;

    fn device() -> DramDevice {
        DramDevice::new(
            DramOrganization::default(),
            DramTimings::ddr4_2400().into_cycles(&TimeConverter::default()),
        )
    }

    fn scheduler(policy: SchedulerPolicy) -> Scheduler {
        let org = DramOrganization::default();
        Scheduler::new(policy, org.total_banks(), org.banks_per_rank(), 64, 64)
    }

    fn request(id: u64, bank_group: usize, bank: usize, row: u64) -> MemRequest {
        MemRequest::demand(
            id,
            ThreadId::new(0),
            DramAddress::new(0, 0, bank_group, bank, row, 0),
            AccessType::Read,
            id,
        )
    }

    fn bank_index(bank_group: usize, bank: usize) -> usize {
        let org = DramOrganization::default();
        DramAddress::new(0, 0, bank_group, bank, 0, 0).global_bank_index(
            org.ranks,
            org.bank_groups,
            org.banks_per_group,
        )
    }

    /// Opens `row` in the device bank and mirrors it in the scheduler.
    fn open(s: &mut Scheduler, dram: &mut DramDevice, bg: usize, bank: usize, row: u64, at: u64) {
        let addr = DramAddress::new(0, 0, bg, bank, row, 0);
        dram.issue(MemCommand::Activate, &addr, at);
        s.note_issue(MemCommand::Activate, bank_index(bg, bank), row);
    }

    #[test]
    fn banked_row_hit_picks_the_oldest_across_banks() {
        let mut dram = device();
        let mut s = scheduler(SchedulerPolicy::BankedIndex);
        // Open rows in two banks; the younger bank's hit arrived first.
        open(&mut s, &mut dram, 0, 0, 10, 0);
        let t = *dram.timings();
        open(&mut s, &mut dram, 1, 0, 20, t.t_rrd_s);
        s.push(AccessType::Read, bank_index(1, 0), request(5, 1, 0, 20));
        s.push(AccessType::Read, bank_index(0, 0), request(6, 0, 0, 10));
        let now = t.t_rrd_s + t.t_rcd; // both column commands legal
        let hit = s.take_row_hit(AccessType::Read, now, &dram).unwrap();
        assert_eq!(hit.id, 5, "the oldest hit wins even in a later bank");
        assert_eq!(s.len(AccessType::Read), 1);
    }

    #[test]
    fn banked_activation_consults_the_defense_in_arrival_order() {
        let dram = device();
        let mut s = scheduler(SchedulerPolicy::BankedIndex);
        // Three requests to two precharged banks, ids out of bucket order.
        s.push(AccessType::Read, bank_index(2, 1), request(1, 2, 1, 7));
        s.push(AccessType::Read, bank_index(0, 0), request(2, 0, 0, 3));
        s.push(AccessType::Read, bank_index(2, 1), request(3, 2, 1, 9));
        /// Vetoes the first two candidates it is shown.
        #[derive(Debug)]
        struct VetoFirstTwo(u32);
        impl RowHammerDefense for VetoFirstTwo {
            fn name(&self) -> &'static str {
                "VetoFirstTwo"
            }
            fn is_activation_safe(
                &mut self,
                _now: Cycle,
                _thread: ThreadId,
                _addr: &DramAddress,
            ) -> bool {
                self.0 += 1;
                self.0 > 2
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
        let mut defense = VetoFirstTwo(0);
        let mut vetoed = Vec::new();
        let (_, addr) = s
            .pick_activation(AccessType::Read, 0, &dram, &mut defense, |r| {
                vetoed.push(r.id);
            })
            .unwrap();
        assert_eq!(vetoed, vec![1, 2], "vetoes follow arrival order");
        assert_eq!(addr.row(), 9, "the third-oldest request survives");
        assert_eq!(
            s.len(AccessType::Read),
            3,
            "activation keeps requests queued"
        );
    }

    #[test]
    fn banked_conflict_precharge_respects_still_wanted_rows() {
        let mut dram = device();
        let mut s = scheduler(SchedulerPolicy::BankedIndex);
        open(&mut s, &mut dram, 0, 0, 10, 0);
        let t = *dram.timings();
        open(&mut s, &mut dram, 1, 0, 30, t.t_rrd_s);
        // Bank (0,0): conflicting request, but row 10 is still wanted by a
        // queued write -> must not be precharged.
        s.push(AccessType::Read, bank_index(0, 0), request(1, 0, 0, 11));
        s.push(
            AccessType::Write,
            bank_index(0, 0),
            MemRequest::demand(
                2,
                ThreadId::new(1),
                DramAddress::new(0, 0, 0, 0, 10, 0),
                AccessType::Write,
                2,
            ),
        );
        // Bank (1,0): conflicting request, open row 30 wanted by nobody.
        s.push(AccessType::Read, bank_index(1, 0), request(3, 1, 0, 31));
        let now = t.t_rrd_s + t.t_ras; // PRE legal in both banks
        let pre = s
            .pick_conflict_precharge(AccessType::Read, now, &dram)
            .unwrap();
        assert_eq!(pre.bank_group(), 1);
        assert_eq!(pre.row(), 31);
    }

    #[test]
    fn open_row_index_follows_activations_hits_and_precharges() {
        let mut dram = device();
        let mut s = scheduler(SchedulerPolicy::BankedIndex);
        let bank = bank_index(0, 0);
        let mut write = request(2, 0, 0, 10);
        write.access = AccessType::Write;
        s.push(AccessType::Read, bank, request(1, 0, 0, 10));
        s.push(AccessType::Write, bank, write);
        s.push(AccessType::Read, bank, request(3, 0, 0, 11));
        assert_eq!(
            s.open_row_hits[bank],
            [0, 0],
            "a precharged bank has no hits"
        );
        open(&mut s, &mut dram, 0, 0, 10, 0);
        assert_eq!(
            s.open_row_hits[bank],
            [1, 1],
            "an ACT counts the queued hits"
        );
        let t = *dram.timings();
        let hit = s.take_row_hit(AccessType::Read, t.t_rcd, &dram).unwrap();
        assert_eq!(hit.id, 1);
        assert_eq!(s.open_row_hits[bank], [0, 1]);
        assert_eq!(
            s.pick_conflict_precharge(AccessType::Read, t.t_ras, &dram),
            None,
            "the queued write still wants row 10"
        );
        s.note_issue(MemCommand::Precharge, bank, 10);
        assert_eq!(
            s.open_row_hits[bank],
            [0, 0],
            "a PRE clears the bank's hits"
        );
    }

    #[test]
    fn linear_and_banked_agree_on_a_small_mixed_queue() {
        for kind in [AccessType::Read, AccessType::Write] {
            let mut dram = device();
            let mut defense = NoMitigation::new();
            let mut linear = scheduler(SchedulerPolicy::LinearScan);
            let mut banked = scheduler(SchedulerPolicy::BankedIndex);
            open(&mut linear, &mut dram, 0, 0, 10, 0);
            banked.note_issue(MemCommand::Activate, bank_index(0, 0), 10);
            for (id, (bg, bank, row)) in [(0, 0, 10), (1, 1, 5), (0, 0, 11), (3, 2, 10)]
                .into_iter()
                .enumerate()
            {
                for s in [&mut linear, &mut banked] {
                    let mut r = request(id as u64, bg, bank, row);
                    r.access = kind;
                    s.push(kind, bank_index(bg, bank), r);
                }
            }
            let now = dram.timings().t_rcd;
            let a = linear.take_row_hit(kind, now, &dram).map(|r| r.id);
            let b = banked.take_row_hit(kind, now, &dram).map(|r| r.id);
            assert_eq!(a, b);
            let a = linear.pick_activation(kind, now, &dram, &mut defense, |_| {});
            let b = banked.pick_activation(kind, now, &dram, &mut defense, |_| {});
            assert_eq!(a, b);
            let a = linear.pick_conflict_precharge(kind, now, &dram);
            let b = banked.pick_conflict_precharge(kind, now, &dram);
            assert_eq!(a, b);
        }
    }
}
