//! RowBlocker-HB: the per-rank row activation history buffer.
//!
//! The history buffer remembers every activation of the last `tDelay`
//! cycles in a circular FIFO whose row-address field is searched like a
//! content-addressable memory. Its capacity only needs to cover the
//! worst-case number of activations a rank can perform within `tDelay`,
//! which the four-activation window bounds to `⌈4 · tDelay / tFAW⌉`
//! (Section 3.1.2).
//!
//! The hardware CAM answers "was this row activated recently?" in one
//! cycle; a software linear scan over the (up to ~900-entry) FIFO per
//! query would dominate the defense hot path, so the buffer keeps a
//! row-key index (live entry count + most recent activation cycle per
//! row) alongside the FIFO and answers membership queries from it in
//! O(1). The FIFO remains the source of truth for expiry order.

use bh_types::{Cycle, FastMap};
use std::collections::VecDeque;

/// One history buffer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HistoryEntry {
    /// Row identifier, unique within the rank.
    row_key: u64,
    /// Cycle at which the activation was issued.
    issued_at: Cycle,
}

/// Per-row index payload: how many live FIFO entries reference the row and
/// when it was last activated.
#[derive(Debug, Clone, Copy)]
struct RowPresence {
    live_entries: u32,
    last_issued: Cycle,
}

/// A per-rank circular buffer of recent row activations.
#[derive(Debug, Clone)]
pub struct HistoryBuffer {
    entries: VecDeque<HistoryEntry>,
    /// Row-key membership index over the live entries (the CAM model).
    index: FastMap<u64, RowPresence>,
    capacity: usize,
    /// Entries older than this many cycles are expired.
    window: Cycle,
    /// Number of insertions that displaced a still-valid entry (capacity
    /// overflow; should stay zero when sized per the paper's bound).
    overflows: u64,
}

impl HistoryBuffer {
    /// Creates a buffer of `capacity` entries covering a rolling `window`
    /// of cycles (the configured `tDelay`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `window` is zero.
    pub fn new(capacity: usize, window: Cycle) -> Self {
        assert!(capacity > 0, "history buffer capacity must be non-zero");
        assert!(window > 0, "history window must be non-zero");
        Self {
            entries: VecDeque::with_capacity(capacity),
            index: FastMap::with_capacity_and_hasher(capacity, Default::default()),
            capacity,
            window,
            overflows: 0,
        }
    }

    /// Number of currently valid (non-expired) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer currently holds no valid entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Times an insertion displaced a still-valid entry.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Removes the oldest FIFO entry and keeps the row index consistent.
    fn pop_oldest(&mut self) {
        let Some(front) = self.entries.pop_front() else {
            return;
        };
        match self.index.get_mut(&front.row_key) {
            Some(presence) if presence.live_entries > 1 => presence.live_entries -= 1,
            _ => {
                self.index.remove(&front.row_key);
            }
        }
    }

    /// Drops entries older than the window relative to `now` (the hardware
    /// does this continuously by checking the head timestamp every cycle).
    // lint: alloc-free
    pub fn expire(&mut self, now: Cycle) {
        while let Some(front) = self.entries.front() {
            if now.saturating_sub(front.issued_at) >= self.window {
                self.pop_oldest();
            } else {
                break;
            }
        }
    }

    /// Records an activation of `row_key` at `now`.
    // lint: alloc-free
    pub fn record(&mut self, now: Cycle, row_key: u64) {
        self.expire(now);
        if self.entries.len() == self.capacity {
            // Should not happen when the capacity follows the tFAW bound;
            // drop the oldest entry (conservative for performance, counted
            // so tests can assert it never triggers).
            self.pop_oldest();
            self.overflows += 1;
        }
        self.entries.push_back(HistoryEntry {
            row_key,
            issued_at: now,
        });
        self.index
            .entry(row_key)
            .and_modify(|presence| {
                presence.live_entries += 1;
                // Entries are pushed in issue order, so the newest record
                // is always the most recent activation of the row.
                presence.last_issued = now;
            })
            .or_insert(RowPresence {
                live_entries: 1,
                last_issued: now,
            });
    }

    /// Cycle at which `row_key`'s most recent activation expires from the
    /// window, if it is currently present: the "Recently Activated?" CAM
    /// lookup, which is `Some` exactly when `row_key` was activated within
    /// the last `window` cycles.
    // lint: alloc-free
    pub fn expires_at(&mut self, now: Cycle, row_key: u64) -> Option<Cycle> {
        self.expire(now);
        self.index
            .get(&row_key)
            .map(|presence| presence.last_issued + self.window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remembers_recent_rows_and_forgets_old_ones() {
        let mut hb = HistoryBuffer::new(16, 100);
        hb.record(10, 7);
        assert!(hb.expires_at(50, 7).is_some());
        assert!(hb.expires_at(50, 8).is_none());
        // At cycle 110 the entry from cycle 10 has aged out.
        assert!(hb.expires_at(110, 7).is_none());
        assert!(hb.is_empty());
    }

    #[test]
    fn expiry_is_exactly_at_the_window_boundary() {
        let mut hb = HistoryBuffer::new(4, 100);
        hb.record(0, 1);
        assert_eq!(hb.expires_at(99, 1), Some(100));
        assert!(hb.expires_at(100, 1).is_none());
        hb.record(200, 2);
        assert_eq!(hb.expires_at(200, 2), Some(300));
    }

    #[test]
    fn capacity_bound_from_tfaw_is_never_exceeded_in_legal_traffic() {
        // With tFAW = 112 cycles and a window of 24_853 cycles (the 32K
        // configuration), at most ceil(4*24853/112) = 888 activations can be
        // legal; recording at exactly the tFAW-limited rate must not
        // overflow a buffer of that size.
        let window = 24_853;
        let t_faw = 112;
        let capacity = (4 * window as usize).div_ceil(t_faw as usize);
        let mut hb = HistoryBuffer::new(capacity, window);
        let mut now = 0;
        for i in 0..10_000u64 {
            // 4 activations per tFAW window.
            if i % 4 == 0 && i > 0 {
                now += t_faw;
            }
            hb.record(now, i);
        }
        assert_eq!(hb.overflows(), 0);
        assert!(hb.len() <= capacity);
    }

    #[test]
    fn overflow_is_counted_when_capacity_is_too_small() {
        let mut hb = HistoryBuffer::new(2, 1_000);
        hb.record(0, 1);
        hb.record(1, 2);
        hb.record(2, 3);
        assert_eq!(hb.overflows(), 1);
        assert_eq!(hb.len(), 2);
        // The oldest entry (row 1) was displaced.
        assert!(hb.expires_at(3, 1).is_none());
        assert!(hb.expires_at(3, 3).is_some());
    }

    #[test]
    fn duplicate_rows_track_the_most_recent_activation() {
        let mut hb = HistoryBuffer::new(8, 100);
        hb.record(0, 5);
        hb.record(60, 5);
        // The first record would have expired at 100, but the second keeps
        // the row "recently activated" until 160.
        assert_eq!(hb.expires_at(120, 5), Some(160));
        assert!(hb.expires_at(160, 5).is_none());
    }

    #[test]
    fn index_survives_partial_expiry_of_duplicate_rows() {
        // Two records of the same row; when the first expires the index
        // must still report the row present (the second record is live),
        // and only after the second expires is the row forgotten.
        let mut hb = HistoryBuffer::new(8, 100);
        hb.record(0, 9);
        hb.record(50, 9);
        hb.record(50, 10);
        assert!(hb.expires_at(100, 9).is_some(), "second record still live");
        assert_eq!(hb.len(), 2);
        assert!(hb.expires_at(150, 9).is_none());
        assert!(hb.expires_at(150, 10).is_none());
        assert!(hb.is_empty());
    }
}
