//! Per-bank indexed request queues and the controller's open-row cache.
//!
//! The FR-FCFS scheduling passes only ever care about three per-bank
//! questions — "is the open row one a queued request wants?", "is the bank
//! precharged?", "does a queued request conflict with the open row?" — so
//! storing requests in one flat vector forces every pass to re-derive the
//! bank of every request on every cycle. [`BankedQueue`] instead buckets
//! requests by their global bank index at admission time, preserving FIFO
//! order within each bucket, and [`OpenRowCache`] mirrors the DRAM
//! device's per-bank row-buffer state so the scheduler consults only banks
//! that actually have work.
//!
//! Arrival order across buckets is recovered from request ids: the
//! controller assigns ids monotonically at admission, so "oldest request"
//! is always "smallest id", and a k-way merge over bucket heads visits
//! requests in exactly the order a linear scan of a flat queue would.

use bh_types::{MemCommand, MemRequest};
use std::collections::VecDeque;
use std::ops::Range;

/// Demand requests bucketed by global bank index, FIFO within each bucket.
///
/// `push` appends to the target bank's bucket; removal is stable (it
/// preserves the relative order of the remaining requests in the bucket),
/// so each bucket stays sorted by arrival — and therefore by request id.
#[derive(Debug, Clone)]
pub(crate) struct BankedQueue {
    buckets: Vec<VecDeque<MemRequest>>,
    len: usize,
}

impl BankedQueue {
    /// Creates a queue with one bucket per global bank.
    pub(crate) fn new(banks: usize) -> Self {
        Self {
            buckets: vec![VecDeque::new(); banks],
            len: 0,
        }
    }

    /// Total queued requests across all banks.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends a request to its bank's bucket.
    pub(crate) fn push(&mut self, bank: usize, request: MemRequest) {
        self.buckets[bank].push_back(request);
        self.len += 1;
    }

    /// The FIFO bucket of one bank.
    pub(crate) fn bucket(&self, bank: usize) -> &VecDeque<MemRequest> {
        &self.buckets[bank]
    }

    /// Removes and returns the request at `pos` within `bank`'s bucket,
    /// keeping the order of the remaining requests.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range for the bucket.
    pub(crate) fn remove(&mut self, bank: usize, pos: usize) -> MemRequest {
        let request = self.buckets[bank]
            .remove(pos)
            // lint: allow(panic-freedom) -- documented pub(crate) contract: positions come from peeking the same bucket
            .expect("bucket position out of range");
        self.len -= 1;
        request
    }
}

/// The controller-side mirror of each bank's row-buffer state, indexed by
/// global bank.
///
/// The cache is exact, not approximate: every DRAM command the controller
/// issues flows through [`OpenRowCache::note_issue`], and the command
/// legality checks the controller performs before issuing guarantee the
/// transitions match the device (an ACT is only legal on a precharged
/// bank, a REF only with every bank of the rank closed, and so on). The
/// controller cross-checks the mirror against
/// [`dram_sim::DramDevice::open_row_at`] in debug builds.
#[derive(Debug, Clone)]
pub(crate) struct OpenRowCache {
    rows: Vec<Option<u64>>,
    /// Banks per rank: rank-wide commands (PREA) clear one contiguous
    /// slice of `rows`.
    banks_per_rank: usize,
}

impl OpenRowCache {
    /// Creates a cache with every bank precharged (the device's reset
    /// state). `banks_per_rank` defines the rank-aligned slices a
    /// rank-wide precharge closes; it must divide `banks` (callers pass
    /// geometry from a validated `DramOrganization`).
    pub(crate) fn new(banks: usize, banks_per_rank: usize) -> Self {
        debug_assert!(banks_per_rank > 0 && banks % banks_per_rank == 0);
        Self {
            rows: vec![None; banks],
            banks_per_rank: banks_per_rank.max(1),
        }
    }

    /// The cached open row of `bank`, if any.
    pub(crate) fn get(&self, bank: usize) -> Option<u64> {
        self.rows[bank]
    }

    /// The banks of `bank`'s rank (the slice a rank-wide precharge closes).
    pub(crate) fn rank_banks(&self, bank: usize) -> Range<usize> {
        let start = (bank / self.banks_per_rank) * self.banks_per_rank;
        start..start + self.banks_per_rank
    }

    /// Records the effect of an issued command on `bank`'s row buffer.
    /// Rank-wide commands use `bank` only to identify the rank.
    pub(crate) fn note_issue(&mut self, cmd: MemCommand, bank: usize, row: u64) {
        match cmd {
            MemCommand::Activate => self.rows[bank] = Some(row),
            // Auto-precharging column commands close the bank (the device
            // flips its state to precharged at issue time).
            MemCommand::Precharge | MemCommand::ReadAp | MemCommand::WriteAp => {
                self.rows[bank] = None;
            }
            // Plain column commands leave the row buffer as-is; a REF is
            // only legal with every bank of the rank already precharged,
            // so it cannot change any cached entry either.
            MemCommand::Read | MemCommand::Write | MemCommand::Refresh => {}
            // PREA closes every bank of the addressed rank: clear that
            // rank's whole slice so the mirror stays exact.
            MemCommand::PrechargeAll => {
                let banks = self.rank_banks(bank);
                for slot in &mut self.rows[banks] {
                    *slot = None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_types::{AccessType, DramAddress, ThreadId};

    fn request(id: u64, bank_group: usize, bank: usize, row: u64) -> MemRequest {
        MemRequest::demand(
            id,
            ThreadId::new(0),
            DramAddress::new(0, 0, bank_group, bank, row, 0),
            AccessType::Read,
            id,
        )
    }

    #[test]
    fn push_and_stable_remove_keep_fifo_order_per_bank() {
        let mut q = BankedQueue::new(4);
        q.push(1, request(0, 0, 1, 10));
        q.push(1, request(1, 0, 1, 20));
        q.push(1, request(2, 0, 1, 30));
        q.push(3, request(3, 0, 3, 40));
        assert_eq!(q.len(), 4);
        let removed = q.remove(1, 1);
        assert_eq!(removed.id, 1);
        let remaining: Vec<u64> = q.bucket(1).iter().map(|r| r.id).collect();
        assert_eq!(remaining, vec![0, 2], "removal must be stable");
        assert_eq!(q.len(), 3);
        assert_eq!(q.bucket(2).len(), 0);
    }

    #[test]
    fn open_row_cache_tracks_activate_and_precharge() {
        let mut cache = OpenRowCache::new(2, 2);
        assert_eq!(cache.get(0), None);
        cache.note_issue(MemCommand::Activate, 0, 42);
        assert_eq!(cache.get(0), Some(42));
        cache.note_issue(MemCommand::Read, 0, 42);
        assert_eq!(cache.get(0), Some(42), "column commands keep the row");
        cache.note_issue(MemCommand::Precharge, 0, 42);
        assert_eq!(cache.get(0), None);
        assert_eq!(cache.get(1), None, "other banks are untouched");
        cache.note_issue(MemCommand::Activate, 1, 7);
        cache.note_issue(MemCommand::ReadAp, 1, 7);
        assert_eq!(cache.get(1), None, "auto-precharge closes the bank");
    }

    #[test]
    fn open_row_cache_rank_wide_precharge_closes_only_that_rank() {
        // 4 banks, 2 per rank: PREA on rank 1 must close banks 2..4 and
        // leave rank 0 untouched.
        let mut cache = OpenRowCache::new(4, 2);
        cache.note_issue(MemCommand::Activate, 0, 11);
        cache.note_issue(MemCommand::Activate, 2, 22);
        cache.note_issue(MemCommand::Activate, 3, 33);
        cache.note_issue(MemCommand::PrechargeAll, 3, 0);
        assert_eq!(cache.get(0), Some(11), "other rank keeps its open row");
        assert_eq!(cache.get(2), None);
        assert_eq!(cache.get(3), None);
    }
}
