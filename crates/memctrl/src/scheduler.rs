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
//! Each queue buckets its requests per global bank ([`BankedQueue`]), so
//! each pass touches only banks that have queued work and asks the DRAM
//! device one legality question per pass, for a whole bank set, instead
//! of one per request. An open-row index counts, per bank, the queued
//! reads and writes that target the bank's open row: it is updated on
//! push, on row-hit removal and on every issued ACT or precharge. Debug
//! builds recount it after every update.
//!
//! Open rows are the device's to answer: every pass holds the
//! [`DramDevice`] and reads a bank's open row
//! ([`DramDevice::open_row_of`]) and the set of open banks
//! ([`DramDevice::open_banks`]) from it, so the scheduler keeps no copy
//! of the row buffers.
//!
//! The passes walk *bank sets*: `u64`s with one bit per bank of the
//! channel (the banks with a queued request, the device's open banks,
//! and per queue kind the banks whose open-row hit count is non-zero).
//! The row-hit pass walks the hit set, the activation pass the queued
//! banks that are not open, and the conflict-precharge pass the queued
//! open banks whose row no request of either queue still wants. Each pass
//! hands its set to [`DramDevice::legal_banks`], which answers which of
//! those banks can take the pass's command now (and records the refused
//! banks' retry cycles as per-bank checks would), and
//! then walks only the legal banks, lowest bit first: the ascending bank
//! order of a `0..banks` loop, so the defense consults are exactly those
//! of such a loop. Legality is a bank-level fact, so the row-hit pass
//! settles it before it walks any bucket, and most calls find no legal
//! hit.
//!
//! The passes answer exactly as a flat scan of each queue in arrival
//! order would, cycle for cycle: command legality depends only on bank
//! and rank state (never on the column), so every per-request check such
//! a scan makes is constant across the requests of one bank, and "oldest
//! first" is recovered by merging bucket heads by request id (ids are
//! assigned monotonically at admission). The defense is consulted in the
//! order such a scan would consult it, so even a stateful defense sees
//! the same call sequence. This module's tests keep that flat scan as an
//! oracle and drive it and the passes side by side, round by round, over
//! generated mixes: every pick, every veto and every failed round's retry
//! cycle must agree.

use crate::queues::BankedQueue;
use bh_types::{AccessType, Cycle, DramAddress, MemCommand, MemRequest, ReqId, ThreadId};
use dram_sim::{banks_in, DramDevice};
use mitigations::RowHammerDefense;

/// The demand queues plus the per-bank scheduling index. See the
/// [module](self) documentation.
#[derive(Debug, Clone)]
pub(crate) struct Scheduler {
    read: BankedQueue,
    write: BankedQueue,
    /// Per global bank, the queued reads and writes (indexed by
    /// [`kind_index`]) that target the bank's open row.
    open_row_hits: Vec<[u32; 2]>,
    /// Per queue kind (indexed by [`kind_index`]), the bank set of the
    /// banks whose `open_row_hits` entry is non-zero.
    hit_banks: [u64; 2],
    /// The cursor list of `pick_activation`'s merge, kept across calls
    /// so the per-cycle pass never allocates.
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
    pub(crate) fn new(total_banks: usize) -> Self {
        Self {
            read: BankedQueue::new(total_banks),
            write: BankedQueue::new(total_banks),
            open_row_hits: vec![[0; 2]; total_banks],
            hit_banks: [0; 2],
            act_cursors: Vec::new(),
        }
    }

    fn queue(&self, kind: AccessType) -> &BankedQueue {
        match kind {
            AccessType::Read => &self.read,
            AccessType::Write => &self.write,
        }
    }

    fn queue_mut(&mut self, kind: AccessType) -> &mut BankedQueue {
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
    pub(crate) fn push(
        &mut self,
        kind: AccessType,
        bank: usize,
        request: MemRequest,
        dram: &DramDevice,
    ) {
        let hits_open_row = dram.open_row_of(bank) == Some(request.dram_addr.row());
        self.queue_mut(kind).push(bank, request);
        if hits_open_row {
            self.open_row_hits[bank][kind_index(kind)] += 1;
            self.hit_banks[kind_index(kind)] |= 1 << bank;
        }
        self.debug_check_open_row_hits(bank, dram);
    }

    /// The queued reads and writes that target `bank`'s open row in
    /// `dram`, counted from the buckets.
    fn count_open_row_hits(&self, bank: usize, dram: &DramDevice) -> [u32; 2] {
        let open = dram.open_row_of(bank);
        let count = |q: &BankedQueue| {
            q.bucket(bank)
                .iter()
                .filter(|r| Some(r.dram_addr.row()) == open)
                .count() as u32
        };
        [count(&self.read), count(&self.write)]
    }

    /// Records the row-buffer effect of a command the controller issued on
    /// `bank`, which `dram` already reflects (keeps the open-row index and
    /// the hit sets exact). Only an ACT or a PRE changes them, and only on
    /// `bank` (a REF needs its rank's banks closed already), so debug
    /// builds recount that bank alone.
    // lint: alloc-free
    pub(crate) fn note_issue(&mut self, cmd: MemCommand, bank: usize, dram: &DramDevice) {
        match cmd {
            MemCommand::Activate => {
                self.open_row_hits[bank] = self.count_open_row_hits(bank, dram);
                for (set, hits) in self.hit_banks.iter_mut().zip(self.open_row_hits[bank]) {
                    if hits > 0 {
                        *set |= 1 << bank;
                    }
                }
            }
            MemCommand::Precharge => {
                self.open_row_hits[bank] = [0; 2];
                for set in &mut self.hit_banks {
                    *set &= !(1 << bank);
                }
            }
            MemCommand::Read | MemCommand::Write | MemCommand::Refresh => {}
        }
        self.debug_check_open_row_hits(bank, dram);
    }

    /// Debug builds: recounts `bank`'s open-row index and its bits in the
    /// queued and hit bank sets from the queues and the device's open row
    /// (a no-op in release builds).
    fn debug_check_open_row_hits(&self, bank: usize, dram: &DramDevice) {
        if !cfg!(debug_assertions) {
            return;
        }
        let hits = self.count_open_row_hits(bank, dram);
        debug_assert_eq!(
            self.open_row_hits[bank], hits,
            "open-row index diverged from the queues on bank {bank}"
        );
        let bit = |set: u64| (set >> bank) & 1 == 1;
        debug_assert_eq!(
            [bit(self.hit_banks[0]), bit(self.hit_banks[1])],
            hits.map(|n| n > 0),
            "hit set diverged from the open-row index on bank {bank}"
        );
        debug_assert_eq!(
            [bit(self.read.banks()), bit(self.write.banks())],
            [
                !self.read.bucket(bank).is_empty(),
                !self.write.bucket(bank).is_empty()
            ],
            "queued set diverged from the buckets on bank {bank}"
        );
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
        let q = self.queue(kind);
        let mut best: Option<(ReqId, usize, usize)> = None;
        // Column-command legality depends on the bank and its open row,
        // never on the column, so one answer per bank covers every hit of
        // the bank, and it comes before the walk.
        let legal = dram.legal_banks(cmd, self.hit_banks[kind_index(kind)], now);
        for bank in banks_in(legal) {
            let Some(open) = dram.open_row_of(bank) else {
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
            if best.map_or(true, |(id, _, _)| request.id < id) {
                best = Some((request.id, bank, pos));
            }
        }
        let (_, bank, pos) = best?;
        let hit = self.queue_mut(kind).remove(bank, pos);
        let hits = &mut self.open_row_hits[bank][kind_index(kind)];
        *hits -= 1;
        if *hits == 0 {
            self.hit_banks[kind_index(kind)] &= !(1 << bank);
        }
        self.debug_check_open_row_hits(bank, dram);
        Some(hit)
    }

    /// Pass 2: the oldest request to a precharged bank whose ACT is legal
    /// at `now` and which the defense does not veto, as its thread and
    /// address. The request stays queued (it completes later as a row
    /// hit); `on_veto` is called for every request the defense skipped, in
    /// consult order, with whether this was the request's first veto (its
    /// `delayed_by_defense` flag is set here).
    // lint: alloc-free
    pub(crate) fn pick_activation(
        &mut self,
        kind: AccessType,
        now: Cycle,
        dram: &DramDevice,
        defense: &mut dyn RowHammerDefense,
        mut on_veto: impl FnMut(&MemRequest, bool),
    ) -> Option<(ThreadId, DramAddress)> {
        let q = match kind {
            AccessType::Read => &mut self.read,
            AccessType::Write => &mut self.write,
        };
        // Precharged banks with queued work whose ACT is legal now;
        // eligibility is a bank-level property (activation legality never
        // depends on the row), so it is decided once per bank.
        let legal = dram.legal_banks(MemCommand::Activate, q.banks() & !dram.open_banks(), now);
        // The cursor list lives on the scheduler so this per-cycle pass
        // never allocates (it reaches capacity — at most one entry per
        // bank — after the first few calls).
        let cursors = &mut self.act_cursors;
        cursors.clear();
        cursors.extend(banks_in(legal).map(|bank| (bank, 0)));
        // Merge the eligible buckets in request-id (arrival) order, so the
        // defense sees candidates in the order a flat scan would.
        loop {
            let mut best: Option<(usize, ReqId)> = None;
            for (cursor, &(bank, pos)) in cursors.iter().enumerate() {
                let id = q.bucket(bank)[pos].id;
                if best.map_or(true, |(_, best_id)| id < best_id) {
                    best = Some((cursor, id));
                }
            }
            let (cursor, _) = best?;
            let (bank, pos) = cursors[cursor];
            let request = q.request_mut(bank, pos);
            // The defense may veto (delay) this activation; skipping the
            // request prioritizes RowHammer-safe requests, as Section 3.1
            // describes.
            if !defense.is_activation_safe(now, request.thread, &request.dram_addr) {
                let first = !std::mem::replace(&mut request.delayed_by_defense, true);
                on_veto(request, first);
                if pos + 1 < q.bucket(bank).len() {
                    cursors[cursor].1 = pos + 1;
                } else {
                    cursors.swap_remove(cursor);
                }
                continue;
            }
            return Some((request.thread, request.dram_addr));
        }
    }

    /// Pass 3: the oldest request conflicting with its bank's open row,
    /// provided no queued request (of either queue) still wants that open
    /// row and the PRE is legal at `now`. Returns the conflicting request's
    /// address (the PRE target). "Still wanted" is read from the open-row
    /// index.
    // lint: alloc-free
    pub(crate) fn pick_conflict_precharge(
        &self,
        kind: AccessType,
        now: Cycle,
        dram: &DramDevice,
    ) -> Option<DramAddress> {
        let q = self.queue(kind);
        let mut best: Option<(ReqId, DramAddress)> = None;
        // Open banks with queued work, keeping a row open while any queued
        // read or write still hits it.
        let still_wanted = self.hit_banks[0] | self.hit_banks[1];
        let conflicts = q.banks() & dram.open_banks() & !still_wanted;
        // PRE legality never depends on the row, so one answer per bank
        // covers every conflicting request of the bank.
        for bank in banks_in(dram.legal_banks(MemCommand::Precharge, conflicts, now)) {
            // No queued request targets the open row, so the bucket's
            // oldest request conflicts with it.
            let Some(request) = q.bucket(bank).front() else {
                continue;
            };
            if best.map_or(true, |(id, _)| request.id < id) {
                best = Some((request.id, request.dram_addr));
            }
        }
        best.map(|(_, addr)| addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemCtrlConfig;
    use bh_types::{DramOrganization, TimeConverter};
    use dram_sim::DramTimings;
    use mitigations::{
        DefenseGeometry, DefenseStats, MetadataFootprint, NoMitigation, Para, RowHammerThreshold,
    };

    fn device() -> DramDevice {
        DramDevice::new(
            DramOrganization::default(),
            DramTimings::ddr4_2400().into_cycles(&TimeConverter::default()),
        )
    }

    fn scheduler() -> Scheduler {
        Scheduler::new(DramOrganization::default().total_banks())
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

    /// The bank index of `addr` in the default organization.
    fn global_bank(addr: &DramAddress) -> usize {
        DramOrganization::default().bank_of(addr)
    }

    fn bank_index(bank_group: usize, bank: usize) -> usize {
        global_bank(&DramAddress::new(0, 0, bank_group, bank, 0, 0))
    }

    /// Opens `row` in the device bank and notes the ACT in the scheduler.
    fn open(s: &mut Scheduler, dram: &mut DramDevice, bg: usize, bank: usize, row: u64, at: u64) {
        let addr = DramAddress::new(0, 0, bg, bank, row, 0);
        dram.issue(MemCommand::Activate, &addr, at);
        s.note_issue(MemCommand::Activate, bank_index(bg, bank), dram);
    }

    #[test]
    fn banked_row_hit_picks_the_oldest_across_banks() {
        let mut dram = device();
        let mut s = scheduler();
        // Open rows in two banks; the younger bank's hit arrived first.
        open(&mut s, &mut dram, 0, 0, 10, 0);
        let t = *dram.timings();
        open(&mut s, &mut dram, 1, 0, 20, t.t_rrd_s);
        s.push(
            AccessType::Read,
            bank_index(1, 0),
            request(5, 1, 0, 20),
            &dram,
        );
        s.push(
            AccessType::Read,
            bank_index(0, 0),
            request(6, 0, 0, 10),
            &dram,
        );
        let now = t.t_rrd_s + t.t_rcd; // both column commands legal
        let hit = s.take_row_hit(AccessType::Read, now, &dram).unwrap();
        assert_eq!(hit.id, 5, "the oldest hit wins even in a later bank");
        assert_eq!(s.len(AccessType::Read), 1);
    }

    #[test]
    fn banked_activation_consults_the_defense_in_arrival_order() {
        let dram = device();
        let mut s = scheduler();
        // Three requests to two precharged banks, ids out of bucket order.
        s.push(
            AccessType::Read,
            bank_index(2, 1),
            request(1, 2, 1, 7),
            &dram,
        );
        s.push(
            AccessType::Read,
            bank_index(0, 0),
            request(2, 0, 0, 3),
            &dram,
        );
        s.push(
            AccessType::Read,
            bank_index(2, 1),
            request(3, 2, 1, 9),
            &dram,
        );
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
            fn metadata(&self) -> MetadataFootprint {
                MetadataFootprint::default()
            }
            fn stats(&self) -> DefenseStats {
                DefenseStats::default()
            }
        }
        let mut defense = VetoFirstTwo(0);
        let mut vetoed = Vec::new();
        let (_, addr) = s
            .pick_activation(AccessType::Read, 0, &dram, &mut defense, |r, first| {
                vetoed.push((r.id, first));
            })
            .unwrap();
        assert_eq!(
            vetoed,
            vec![(1, true), (2, true)],
            "vetoes follow arrival order"
        );
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
        let mut s = scheduler();
        open(&mut s, &mut dram, 0, 0, 10, 0);
        let t = *dram.timings();
        open(&mut s, &mut dram, 1, 0, 30, t.t_rrd_s);
        // Bank (0,0): conflicting request, but row 10 is still wanted by a
        // queued write -> must not be precharged.
        s.push(
            AccessType::Read,
            bank_index(0, 0),
            request(1, 0, 0, 11),
            &dram,
        );
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
            &dram,
        );
        // Bank (1,0): conflicting request, open row 30 wanted by nobody.
        s.push(
            AccessType::Read,
            bank_index(1, 0),
            request(3, 1, 0, 31),
            &dram,
        );
        let now = t.t_rrd_s + t.t_ras; // PRE legal in both banks
        let pre = s
            .pick_conflict_precharge(AccessType::Read, now, &dram)
            .unwrap();
        assert_eq!(pre.bank_group(), 1);
        assert_eq!(pre.row(), 31);
    }

    /// The scheduler's bank sets and the device's open banks: queued reads,
    /// queued writes, open banks, read hits and write hits.
    fn bank_sets(s: &Scheduler, dram: &DramDevice) -> [u64; 5] {
        [
            s.read.banks(),
            s.write.banks(),
            dram.open_banks(),
            s.hit_banks[0],
            s.hit_banks[1],
        ]
    }

    #[test]
    fn open_row_index_follows_activations_hits_and_precharges() {
        let mut dram = device();
        let mut s = scheduler();
        let bank = bank_index(0, 0);
        let other = bank_index(1, 2);
        let (b, o) = (1 << bank, 1 << other);
        let mut write = request(2, 0, 0, 10);
        write.access = AccessType::Write;
        s.push(AccessType::Read, bank, request(1, 0, 0, 10), &dram);
        s.push(AccessType::Write, bank, write, &dram);
        s.push(AccessType::Read, bank, request(3, 0, 0, 11), &dram);
        s.push(AccessType::Read, other, request(4, 1, 2, 50), &dram);
        assert_eq!(
            s.open_row_hits[bank],
            [0, 0],
            "a precharged bank has no hits"
        );
        assert_eq!(bank_sets(&s, &dram), [b | o, b, 0, 0, 0]);
        open(&mut s, &mut dram, 0, 0, 10, 0);
        assert_eq!(
            s.open_row_hits[bank],
            [1, 1],
            "an ACT counts the queued hits"
        );
        assert_eq!(bank_sets(&s, &dram), [b | o, b, b, b, b]);
        let t = *dram.timings();
        let hit = s.take_row_hit(AccessType::Read, t.t_rcd, &dram).unwrap();
        assert_eq!(hit.id, 1);
        assert_eq!(s.open_row_hits[bank], [0, 1]);
        assert_eq!(
            bank_sets(&s, &dram),
            [b | o, b, b, 0, b],
            "the last read hit leaves the read hit set"
        );
        assert_eq!(
            s.pick_conflict_precharge(AccessType::Read, t.t_ras, &dram),
            None,
            "the queued write still wants row 10"
        );
        let row10 = DramAddress::new(0, 0, 0, 0, 10, 0);
        let pre_at = dram.earliest_issue(MemCommand::Precharge, &row10).unwrap();
        dram.issue(MemCommand::Precharge, &row10, pre_at);
        s.note_issue(MemCommand::Precharge, bank, &dram);
        assert_eq!(
            s.open_row_hits[bank],
            [0, 0],
            "a PRE clears the bank's hits"
        );
        assert_eq!(bank_sets(&s, &dram), [b | o, b, 0, 0, 0]);
        let served = s.take_row_hit(AccessType::Write, pre_at, &dram);
        assert_eq!(served, None, "a precharged bank serves no hit");
        let act_at = dram.earliest_issue(MemCommand::Activate, &row10).unwrap();
        open(&mut s, &mut dram, 0, 0, 11, act_at);
        assert_eq!(bank_sets(&s, &dram), [b | o, b, b, b, 0]);
        let hit = s
            .take_row_hit(AccessType::Read, act_at + t.t_rcd, &dram)
            .unwrap();
        assert_eq!(hit.id, 3);
        assert_eq!(
            bank_sets(&s, &dram),
            [o, b, b, 0, 0],
            "an emptied bucket leaves the queued set"
        );
    }

    /// The flat-scan oracle: each queue is one vector in arrival order, and
    /// each pass scans it and asks the device about every request. It is
    /// the plain reading of FR-FCFS, which the scheduler's passes must
    /// answer exactly as.
    mod flat {
        use super::*;

        /// Pass 1: removes and returns the oldest request whose row is open
        /// and whose column command is legal at `now`.
        pub(super) fn take_row_hit(
            q: &mut Vec<MemRequest>,
            kind: AccessType,
            now: Cycle,
            dram: &DramDevice,
        ) -> Option<MemRequest> {
            let cmd = match kind {
                AccessType::Read => MemCommand::Read,
                AccessType::Write => MemCommand::Write,
            };
            let i = q.iter().position(|request| {
                let addr = &request.dram_addr;
                dram.open_row(addr) == Some(addr.row()) && dram.can_issue(cmd, addr, now)
            })?;
            Some(q.remove(i))
        }

        /// Pass 2: the oldest request to a precharged bank whose ACT is
        /// legal at `now` and which the defense does not veto; `on_veto`
        /// sees every skipped request, in consult order, with whether it was
        /// the request's first veto.
        pub(super) fn pick_activation(
            q: &mut [MemRequest],
            now: Cycle,
            dram: &DramDevice,
            defense: &mut dyn RowHammerDefense,
            mut on_veto: impl FnMut(&MemRequest, bool),
        ) -> Option<(ThreadId, DramAddress)> {
            for request in q.iter_mut() {
                let addr = &request.dram_addr;
                if dram.open_row(addr).is_some() || !dram.can_issue(MemCommand::Activate, addr, now)
                {
                    continue;
                }
                if !defense.is_activation_safe(now, request.thread, addr) {
                    let first = !std::mem::replace(&mut request.delayed_by_defense, true);
                    on_veto(request, first);
                    continue;
                }
                return Some((request.thread, *addr));
            }
            None
        }

        /// Pass 3: the oldest request of the `kind` queue that conflicts
        /// with its bank's open row, provided no queued read or write still
        /// wants that row and the PRE is legal at `now`.
        pub(super) fn pick_conflict_precharge(
            kind: AccessType,
            reads: &[MemRequest],
            writes: &[MemRequest],
            now: Cycle,
            dram: &DramDevice,
        ) -> Option<DramAddress> {
            let q = match kind {
                AccessType::Read => reads,
                AccessType::Write => writes,
            };
            for request in q {
                let addr = &request.dram_addr;
                let Some(open) = dram.open_row(addr) else {
                    continue;
                };
                if open == addr.row() {
                    continue;
                }
                // Keep the row open while any queued request still hits it.
                let still_wanted = reads.iter().chain(writes).any(|other| {
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
    }

    /// A defense whose answer depends on how many times it has been
    /// consulted: it vetoes every third consult. Any difference in the
    /// order or number of consults between the passes and the oracle
    /// snowballs into different picks, so agreement under it pins the
    /// consult sequence itself.
    #[derive(Debug, Default)]
    struct CountedVeto {
        calls: u64,
    }

    impl RowHammerDefense for CountedVeto {
        fn name(&self) -> &'static str {
            "CountedVeto"
        }
        fn is_activation_safe(
            &mut self,
            _now: Cycle,
            _thread: ThreadId,
            _addr: &DramAddress,
        ) -> bool {
            self.calls += 1;
            self.calls % 3 != 0
        }
        fn on_activation(
            &mut self,
            _now: Cycle,
            _thread: ThreadId,
            _addr: &DramAddress,
        ) -> Vec<DramAddress> {
            Vec::new()
        }
        fn metadata(&self) -> MetadataFootprint {
            MetadataFootprint::default()
        }
        fn stats(&self) -> DefenseStats {
            DefenseStats::default()
        }
    }

    /// One demand access of a mix.
    struct Access {
        thread: ThreadId,
        addr: DramAddress,
        kind: AccessType,
        arrival: Cycle,
    }

    /// Decodes one word per access. Rows and columns stay in a small range,
    /// so a mix packs row hits, misses and conflicts densely across the 16
    /// banks; about a quarter of the accesses are writes.
    fn decode_accesses(words: &[u64]) -> Vec<Access> {
        let mut arrival: Cycle = 0;
        words
            .iter()
            .map(|&word| {
                let bank_group = ((word >> 3) & 3) as usize;
                let bank = ((word >> 5) & 3) as usize;
                let row = (word >> 7) & 31;
                let column = (word >> 12) & 127;
                arrival += (word >> 21) & 7;
                Access {
                    thread: ThreadId::new((word & 7) as usize),
                    addr: DramAddress::new(0, 0, bank_group, bank, row, column),
                    kind: if (word >> 19) & 3 == 0 {
                        AccessType::Write
                    } else {
                        AccessType::Read
                    },
                    arrival,
                }
            })
            .collect()
    }

    /// What the driven rounds did, on which both sides agreed.
    #[derive(Debug, Default)]
    struct Tally {
        row_hits: u64,
        activations: u64,
        precharges: u64,
        /// Requests the defense skipped in the activation pass.
        vetoes: u64,
        /// Victim rows opened on precharged banks.
        victim_acts: u64,
        /// Rounds that issued nothing.
        idle_rounds: u64,
    }

    impl std::ops::AddAssign<&Tally> for Tally {
        fn add_assign(&mut self, other: &Tally) {
            self.row_hits += other.row_hits;
            self.activations += other.activations;
            self.precharges += other.precharges;
            self.vetoes += other.vetoes;
            self.victim_acts += other.victim_acts;
            self.idle_rounds += other.idle_rounds;
        }
    }

    impl Tally {
        /// Asserts that the rounds issued every pass's command and had a
        /// round that issued nothing, and that they saw vetoes exactly when
        /// the defense can veto: a comparison that never reaches a
        /// decision shows nothing.
        fn assert_exercised(&self, defense_vetoes: bool) {
            assert!(self.row_hits > 0, "no row hit issued: {self:?}");
            assert!(self.activations > 0, "no activation issued: {self:?}");
            assert!(self.precharges > 0, "no precharge issued: {self:?}");
            assert!(self.idle_rounds > 0, "no round failed: {self:?}");
            assert_eq!(self.vetoes > 0, defense_vetoes, "vetoes: {self:?}");
        }
    }

    /// The scheduler and the flat oracle side by side. Each side has its
    /// own DRAM device and its own copy of the defense, and issues the
    /// commands it picks on its own device.
    struct Pair {
        scheduler: Scheduler,
        dram: DramDevice,
        defense: Box<dyn RowHammerDefense>,
        reads: Vec<MemRequest>,
        writes: Vec<MemRequest>,
        flat_dram: DramDevice,
        flat_defense: Box<dyn RowHammerDefense>,
        /// Victim rows the defense asked to refresh that `drive` has not
        /// opened yet.
        victims: Vec<DramAddress>,
        tally: Tally,
    }

    impl Pair {
        fn new(make_defense: impl Fn() -> Box<dyn RowHammerDefense>) -> Self {
            Self {
                scheduler: scheduler(),
                dram: device(),
                defense: make_defense(),
                reads: Vec::new(),
                writes: Vec::new(),
                flat_dram: device(),
                flat_defense: make_defense(),
                victims: Vec::new(),
                tally: Tally::default(),
            }
        }

        /// Admits `request` into both sides.
        fn admit(&mut self, request: MemRequest) {
            let bank = global_bank(&request.dram_addr);
            let kind = request.access;
            self.scheduler.push(kind, bank, request.clone(), &self.dram);
            match kind {
                AccessType::Read => self.reads.push(request),
                AccessType::Write => self.writes.push(request),
            }
        }

        /// Issues `cmd` on both devices and notes it in the scheduler, as
        /// the controller's `issue_tracked` does. The retry cycles refused
        /// before an issue are dropped, as the controller drops them.
        fn issue(&mut self, cmd: MemCommand, addr: &DramAddress, now: Cycle) {
            self.dram.issue(cmd, addr, now);
            self.flat_dram.issue(cmd, addr, now);
            self.scheduler
                .note_issue(cmd, global_bank(addr), &self.dram);
            self.dram.take_retry_at();
            self.flat_dram.take_retry_at();
        }

        /// Opens the oldest waiting victim row whose bank is precharged and
        /// can take the ACT at `now`, as a victim ACT of the controller
        /// would: the passes then meet an open row that no queued request
        /// may want.
        fn open_victim(&mut self, now: Cycle) -> bool {
            let Some(i) = self.victims.iter().position(|victim| {
                self.dram
                    .earliest_issue(MemCommand::Activate, victim)
                    .is_some_and(|at| at <= now)
            }) else {
                return false;
            };
            let victim = self.victims.remove(i);
            self.issue(MemCommand::Activate, &victim, now);
            self.tally.victim_acts += 1;
            true
        }

        /// One command slot serving the `kind` queue on both sides, in the
        /// controller's pass order: row hit, activation, conflict
        /// precharge. Both sides must pick the same request and report the
        /// same vetoes. Returns `None` if a command issued, and otherwise
        /// the retry cycle both devices must report for the failed round
        /// (the cycle the controller's pass memo waits for).
        fn round(&mut self, kind: AccessType, now: Cycle) -> Option<Cycle> {
            let flat_queue = match kind {
                AccessType::Read => &mut self.reads,
                AccessType::Write => &mut self.writes,
            };
            let hit = self.scheduler.take_row_hit(kind, now, &self.dram);
            let flat_hit = flat::take_row_hit(flat_queue, kind, now, &self.flat_dram);
            assert_eq!(hit, flat_hit, "row hit at cycle {now}");
            if let Some(request) = hit {
                let cmd = match kind {
                    AccessType::Read => MemCommand::Read,
                    AccessType::Write => MemCommand::Write,
                };
                self.issue(cmd, &request.dram_addr, now);
                self.tally.row_hits += 1;
                return None;
            }
            let (mut vetoes, mut flat_vetoes) = (Vec::new(), Vec::new());
            let pick = self.scheduler.pick_activation(
                kind,
                now,
                &self.dram,
                self.defense.as_mut(),
                |r, first| vetoes.push((r.id, first)),
            );
            let flat_pick = flat::pick_activation(
                flat_queue,
                now,
                &self.flat_dram,
                self.flat_defense.as_mut(),
                |r, first| flat_vetoes.push((r.id, first)),
            );
            assert_eq!(vetoes, flat_vetoes, "vetoes at cycle {now}");
            assert_eq!(pick, flat_pick, "activation at cycle {now}");
            self.tally.vetoes += vetoes.len() as u64;
            if let Some((thread, addr)) = pick {
                self.issue(MemCommand::Activate, &addr, now);
                let victims = self.defense.on_activation(now, thread, &addr);
                let flat_victims = self.flat_defense.on_activation(now, thread, &addr);
                assert_eq!(victims, flat_victims, "victims at cycle {now}");
                self.victims.extend(victims);
                self.tally.activations += 1;
                return None;
            }
            let pre = self
                .scheduler
                .pick_conflict_precharge(kind, now, &self.dram);
            let flat_pre = flat::pick_conflict_precharge(
                kind,
                &self.reads,
                &self.writes,
                now,
                &self.flat_dram,
            );
            assert_eq!(pre, flat_pre, "conflict precharge at cycle {now}");
            if let Some(addr) = pre {
                self.issue(MemCommand::Precharge, &addr, now);
                self.tally.precharges += 1;
                return None;
            }
            let retry = self.dram.take_retry_at();
            assert_eq!(
                retry,
                self.flat_dram.take_retry_at(),
                "retry cycle of the failed round at cycle {now}"
            );
            self.tally.idle_rounds += 1;
            Some(retry)
        }
    }

    /// Drives `accesses` through both sides of `pair`, one round per
    /// command slot, until both queues drain; request ids follow the
    /// accesses' order. A failed round is retried at its retry cycle or
    /// the next arrival, whichever comes first (at least one cycle later).
    ///
    /// Reads are served but on every third round, which serves writes, as
    /// does a round with no read queued. `drive` models no refresh, so
    /// serving writes only when reads run out would leave a queued write
    /// that hits an open row blocking the conflicting reads' precharge
    /// forever.
    fn drive(pair: &mut Pair, accesses: &[Access]) {
        let slot = MemCtrlConfig::default().command_bus_interval;
        let mut next = 0;
        let mut now: Cycle = 0;
        for round in 0u64.. {
            assert!(round < 1_000_000, "the mix did not drain");
            while let Some(access) = accesses.get(next).filter(|a| a.arrival <= now) {
                let id = next as ReqId;
                pair.admit(MemRequest::demand(
                    id,
                    access.thread,
                    access.addr,
                    access.kind,
                    now,
                ));
                next += 1;
            }
            let kind = match (pair.reads.is_empty(), pair.writes.is_empty()) {
                (true, true) => {
                    assert!(
                        pair.scheduler.is_empty(AccessType::Read)
                            && pair.scheduler.is_empty(AccessType::Write),
                        "the scheduler kept requests the oracle served"
                    );
                    match accesses.get(next) {
                        Some(access) => {
                            now = access.arrival;
                            continue;
                        }
                        None => return,
                    }
                }
                (true, false) => AccessType::Write,
                (false, false) if round % 3 == 2 => AccessType::Write,
                (false, _) => AccessType::Read,
            };
            let failed = if pair.open_victim(now) {
                None
            } else {
                pair.round(kind, now)
            };
            now = match failed {
                None => now + slot,
                Some(retry) => {
                    match retry.min(accesses.get(next).map_or(Cycle::MAX, |a| a.arrival)) {
                        // Nothing comes due: the next round may serve the other
                        // queue.
                        Cycle::MAX => now + 1,
                        at => at.max(now + 1),
                    }
                }
            };
        }
    }

    /// Accesses decoded from a fixed multiplicative sequence; the
    /// constants are arbitrary.
    fn dense_mix(multiplier: u64, rotation: u32) -> Vec<Access> {
        let words: Vec<u64> = (1..400u64)
            .map(|i| i.wrapping_mul(multiplier).rotate_left(rotation))
            .collect();
        decode_accesses(&words)
    }

    #[test]
    fn linear_and_banked_agree_on_a_small_mixed_queue() {
        let mut tally = Tally::default();
        for kind in [AccessType::Read, AccessType::Write] {
            for vetoing in [false, true] {
                let mut pair = Pair::new(|| -> Box<dyn RowHammerDefense> {
                    if vetoing {
                        Box::new(CountedVeto::default())
                    } else {
                        Box::new(NoMitigation::new())
                    }
                });
                // Row 10 of bank (0, 0) starts open: one request hits it
                // and one conflicts with it.
                pair.issue(
                    MemCommand::Activate,
                    &DramAddress::new(0, 0, 0, 0, 10, 0),
                    0,
                );
                let accesses: Vec<Access> = [(0, 0, 10), (1, 1, 5), (0, 0, 11), (3, 2, 10)]
                    .into_iter()
                    .map(|(bank_group, bank, row)| Access {
                        thread: ThreadId::new(0),
                        addr: DramAddress::new(0, 0, bank_group, bank, row, 0),
                        kind,
                        arrival: 0,
                    })
                    .collect();
                drive(&mut pair, &accesses);
                tally += &pair.tally;
            }
        }
        tally.assert_exercised(true);
    }

    /// A long mixed workload with no defense: pure FR-FCFS ordering.
    #[test]
    fn passes_match_the_flat_oracle_on_a_dense_mix_without_defense() {
        let mut pair = Pair::new(|| Box::new(NoMitigation::new()));
        drive(&mut pair, &dense_mix(0xD134_2543_DE82_EF95, 29));
        pair.tally.assert_exercised(false);
    }

    /// The same kind of mix under PARA, which never vetoes but asks for
    /// victim refreshes: `drive` opens those rows on precharged banks,
    /// so the passes meet open rows that the queues did not ask for.
    #[test]
    fn passes_match_the_flat_oracle_on_a_dense_mix_with_victim_refreshes() {
        let accesses = dense_mix(0x9E37_79B9_7F4A_7C15, 17);
        assert!(accesses.iter().any(|a| a.kind == AccessType::Write));
        let mut pair = Pair::new(|| {
            Box::new(Para::new(
                RowHammerThreshold::new(64),
                5e-2,
                DefenseGeometry::default(),
                7,
            ))
        });
        drive(&mut pair, &accesses);
        pair.tally.assert_exercised(false);
        assert!(pair.tally.victim_acts > 0, "{:?}", pair.tally);
    }

    /// Many generated mixes of 1 to 149 accesses under a defense whose
    /// vetoes depend on the consult order, from a fixed-seed generator
    /// (splitmix64).
    #[test]
    fn passes_match_the_flat_oracle_on_generated_mixes_under_a_counted_veto() {
        let mut state: u64 = 0x0B10_C4A3_3E55_EED5;
        let mut next_word = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut tally = Tally::default();
        for _ in 0..199 {
            let len = 1 + next_word() % 149;
            let words: Vec<u64> = (0..len).map(|_| next_word()).collect();
            let mut pair = Pair::new(|| Box::new(CountedVeto::default()));
            drive(&mut pair, &decode_accesses(&words));
            tally += &pair.tally;
        }
        tally.assert_exercised(true);
    }
}
