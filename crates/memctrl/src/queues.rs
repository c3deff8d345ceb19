//! Per-bank indexed request queues.
//!
//! The FR-FCFS scheduling passes only ever care about three per-bank
//! questions — "is the open row one a queued request wants?", "is the bank
//! precharged?", "does a queued request conflict with the open row?" — so
//! storing requests in one flat vector forces every pass to re-derive the
//! bank of every request on every cycle. [`BankedQueue`] instead buckets
//! requests by their global bank index at admission time, preserving FIFO
//! order within each bucket, so the scheduler consults only banks that
//! actually have work. Open rows are the DRAM device's to answer
//! ([`dram_sim::DramDevice::open_row_of`]).
//!
//! Arrival order across buckets is recovered from request ids: the
//! controller assigns ids monotonically at admission, so "oldest request"
//! is always "smallest id", and a k-way merge over bucket heads visits
//! requests in exactly the order a linear scan of a flat queue would.
//!
//! The queue also keeps a *bank set* — a `u64` with one bit per bank of
//! the channel — of the banks with a queued request
//! ([`BankedQueue::banks`]). The scheduling passes combine it with the
//! device's open banks ([`dram_sim::DramDevice::open_banks`]) and walk
//! the result lowest bit first, which is ascending bank order, so they
//! visit no bank without work. A `u64` bounds a channel to 64 banks;
//! [`crate::MemCtrlConfig::validate`] enforces it.

use bh_types::MemRequest;
use std::collections::VecDeque;

/// Demand requests bucketed by global bank index, FIFO within each bucket.
///
/// `push` appends to the target bank's bucket; removal is stable (it
/// preserves the relative order of the remaining requests in the bucket),
/// so each bucket stays sorted by arrival — and therefore by request id.
#[derive(Debug, Clone)]
pub(crate) struct BankedQueue {
    buckets: Vec<VecDeque<MemRequest>>,
    /// The bank set of the non-empty buckets.
    banks: u64,
    len: usize,
}

impl BankedQueue {
    /// Creates a queue with one bucket per global bank.
    pub(crate) fn new(banks: usize) -> Self {
        Self {
            buckets: vec![VecDeque::new(); banks],
            banks: 0,
            len: 0,
        }
    }

    /// Total queued requests across all banks.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The set of banks with at least one queued request (bit `b` for
    /// bank `b`).
    pub(crate) fn banks(&self) -> u64 {
        self.banks
    }

    /// Appends a request to its bank's bucket.
    pub(crate) fn push(&mut self, bank: usize, request: MemRequest) {
        self.buckets[bank].push_back(request);
        self.banks |= 1 << bank;
        self.len += 1;
    }

    /// The FIFO bucket of one bank.
    pub(crate) fn bucket(&self, bank: usize) -> &VecDeque<MemRequest> {
        &self.buckets[bank]
    }

    /// The request at `pos` within `bank`'s bucket, for updates that
    /// leave its bank and arrival order alone.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range for the bucket.
    pub(crate) fn request_mut(&mut self, bank: usize, pos: usize) -> &mut MemRequest {
        &mut self.buckets[bank][pos]
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
        if self.buckets[bank].is_empty() {
            self.banks &= !(1 << bank);
        }
        self.len -= 1;
        request
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
        assert_eq!(q.banks(), 0b1010);
        let removed = q.remove(1, 1);
        assert_eq!(removed.id, 1);
        let remaining: Vec<u64> = q.bucket(1).iter().map(|r| r.id).collect();
        assert_eq!(remaining, vec![0, 2], "removal must be stable");
        assert_eq!(q.len(), 3);
        assert_eq!(q.bucket(2).len(), 0);
        q.remove(3, 0);
        assert_eq!(q.banks(), 0b0010, "an emptied bucket leaves the set");
    }
}
