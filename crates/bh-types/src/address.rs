//! Decoded DRAM addresses and physical-address-to-DRAM mapping schemes.
//!
//! The memory controller translates a flat physical byte address into a
//! `(channel, rank, bank group, bank, row, column)` tuple. Two mapping
//! schemes are provided:
//!
//! * [`AddressMapping::RoBaRaCoCh`] — the classic row:bank:rank:column:channel
//!   interleaving.
//! * [`AddressMapping::Mop`] — the "minimalist open page" (MOP) scheme used
//!   by the paper's simulated system (Table 5), which interleaves a small
//!   block of consecutive cache lines in the same row across banks.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A fully decoded DRAM address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DramAddress {
    channel: usize,
    rank: usize,
    bank_group: usize,
    bank: usize,
    row: u64,
    column: u64,
}

impl DramAddress {
    /// Creates a decoded DRAM address from its components.
    pub const fn new(
        channel: usize,
        rank: usize,
        bank_group: usize,
        bank: usize,
        row: u64,
        column: u64,
    ) -> Self {
        Self {
            channel,
            rank,
            bank_group,
            bank,
            row,
            column,
        }
    }

    /// The memory channel this address maps to.
    pub fn channel(&self) -> usize {
        self.channel
    }

    /// The rank within the channel.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The bank group within the rank.
    pub fn bank_group(&self) -> usize {
        self.bank_group
    }

    /// The bank within the bank group.
    pub fn bank(&self) -> usize {
        self.bank
    }

    /// The memory-controller-visible row index within the bank.
    pub fn row(&self) -> u64 {
        self.row
    }

    /// The column (cache-line granular) within the row.
    pub fn column(&self) -> u64 {
        self.column
    }

    /// Flat bank index within a rank: `bank_group * banks_per_group + bank`.
    pub fn bank_in_rank(&self, banks_per_group: usize) -> usize {
        self.bank_group * banks_per_group + self.bank
    }

    /// Flat bank index across the whole system, used to index per-bank
    /// defense state.
    ///
    /// Layout: `((channel * ranks + rank) * bank_groups + bank_group) *
    /// banks_per_group + bank`.
    pub fn global_bank_index(
        &self,
        ranks_per_channel: usize,
        bank_groups_per_rank: usize,
        banks_per_group: usize,
    ) -> usize {
        ((self.channel * ranks_per_channel + self.rank) * bank_groups_per_rank + self.bank_group)
            * banks_per_group
            + self.bank
    }

    /// A key that uniquely identifies this row within its rank, used by
    /// defenses that track rows per rank (e.g. RowBlocker-HB).
    pub fn row_in_rank_key(&self, banks_per_group: usize, rows_per_bank: u64) -> u64 {
        self.bank_in_rank(banks_per_group) as u64 * rows_per_bank + self.row
    }

    /// Returns a copy of this address with a different row, keeping every
    /// other coordinate. Used to address physically nearby (victim) rows.
    pub fn with_row(&self, row: u64) -> Self {
        Self { row, ..*self }
    }

    /// Returns the neighbouring row at signed distance `offset`, clamped to
    /// `[0, rows_per_bank)`. Returns `None` if the neighbour falls outside
    /// the bank.
    pub fn neighbor_row(&self, offset: i64, rows_per_bank: u64) -> Option<Self> {
        let target = self.row as i64 + offset;
        if target < 0 || target as u64 >= rows_per_bank {
            None
        } else {
            Some(self.with_row(target as u64))
        }
    }
}

impl fmt::Display for DramAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ch{}/ra{}/bg{}/ba{}/row{:#x}/col{}",
            self.channel, self.rank, self.bank_group, self.bank, self.row, self.column
        )
    }
}

/// Geometry needed to decode a physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddressMappingGeometry {
    /// Number of channels in the system.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Bank groups per rank.
    pub bank_groups: usize,
    /// Banks per bank group.
    pub banks_per_group: usize,
    /// Rows per bank.
    pub rows: u64,
    /// Columns (cache lines) per row.
    pub columns: u64,
    /// Cache-line size in bytes.
    pub line_bytes: u64,
}

impl Default for AddressMappingGeometry {
    /// The paper's simulated system (Table 5): 1 channel, 1 rank, 4 bank
    /// groups x 4 banks, 64K rows per bank, 8 KiB rows (128 x 64 B lines).
    fn default() -> Self {
        Self {
            channels: 1,
            ranks: 1,
            bank_groups: 4,
            banks_per_group: 4,
            rows: 65_536,
            columns: 128,
            line_bytes: 64,
        }
    }
}

impl AddressMappingGeometry {
    /// Total number of banks in the system.
    pub fn total_banks(&self) -> usize {
        self.channels * self.ranks * self.bank_groups * self.banks_per_group
    }

    /// Banks within one channel.
    pub fn banks_per_channel(&self) -> usize {
        self.ranks * self.bank_groups * self.banks_per_group
    }

    /// Total addressable capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_banks() as u64 * self.rows * self.columns * self.line_bytes
    }

    /// The geometry of a single channel of this system: identical in every
    /// dimension except `channels`, which becomes 1. This is the geometry a
    /// channel-sharded memory controller decodes channel-local addresses
    /// against.
    pub fn per_channel(&self) -> Self {
        Self {
            channels: 1,
            ..*self
        }
    }
}

/// Physical-address-to-DRAM-coordinate mapping scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AddressMapping {
    /// Row : Rank : BankGroup : Bank : Column : Channel (row bits on top).
    RoBaRaCoCh,
    /// Minimalist Open Page (MOP): interleaves `mop_lines` consecutive cache
    /// lines within a row, then rotates across banks, maximising bank-level
    /// parallelism while preserving short bursts of row locality.
    Mop {
        /// Number of consecutive cache lines kept in the same row before
        /// switching banks (the "MOP width").
        mop_lines: u64,
    },
}

impl Default for AddressMapping {
    fn default() -> Self {
        AddressMapping::Mop { mop_lines: 4 }
    }
}

impl AddressMapping {
    /// The channel a physical byte address routes to.
    ///
    /// Both mapping schemes interleave channels on the lowest line-index
    /// bits, so the channel can be extracted without a full decode. This is
    /// what a channel-sharded memory subsystem uses to pick the shard; it
    /// always agrees with [`AddressMapping::decode`]'s `channel()`.
    pub fn channel_of(&self, geometry: &AddressMappingGeometry, phys_addr: u64) -> usize {
        self.to_channel_local(geometry, phys_addr).0
    }

    /// Splits a physical byte address into its channel and the
    /// channel-local physical address.
    ///
    /// The local address, decoded against [`AddressMappingGeometry::per_channel`],
    /// yields the same rank / bank group / bank / row / column coordinates
    /// as a full-system decode of `phys_addr` (with `channel` = 0). With a
    /// single channel the local address equals the original address, so the
    /// sharded path is bit-for-bit identical to the unsharded one.
    pub fn to_channel_local(
        &self,
        geometry: &AddressMappingGeometry,
        phys_addr: u64,
    ) -> (usize, u64) {
        let total_lines = (geometry.capacity_bytes() / geometry.line_bytes).max(1);
        let line = (phys_addr / geometry.line_bytes) % total_lines;
        let channel = (line % geometry.channels as u64) as usize;
        let local_line = line / geometry.channels as u64;
        let local_phys = local_line * geometry.line_bytes + phys_addr % geometry.line_bytes;
        (channel, local_phys)
    }

    /// Decodes a physical byte address into DRAM coordinates.
    ///
    /// Addresses beyond the geometry's capacity wrap around; the simulator
    /// synthesises addresses inside the capacity so wrapping only guards
    /// against malformed traces.
    pub fn decode(&self, geometry: &AddressMappingGeometry, phys_addr: u64) -> DramAddress {
        let line = (phys_addr / geometry.line_bytes)
            % (geometry.capacity_bytes() / geometry.line_bytes).max(1);
        match *self {
            AddressMapping::RoBaRaCoCh => {
                let mut x = line;
                let channel = (x % geometry.channels as u64) as usize;
                x /= geometry.channels as u64;
                let column = x % geometry.columns;
                x /= geometry.columns;
                let bank = (x % geometry.banks_per_group as u64) as usize;
                x /= geometry.banks_per_group as u64;
                let bank_group = (x % geometry.bank_groups as u64) as usize;
                x /= geometry.bank_groups as u64;
                let rank = (x % geometry.ranks as u64) as usize;
                x /= geometry.ranks as u64;
                let row = x % geometry.rows;
                DramAddress::new(channel, rank, bank_group, bank, row, column)
            }
            AddressMapping::Mop { mop_lines } => {
                let mop = mop_lines.max(1);
                let mut x = line;
                let channel = (x % geometry.channels as u64) as usize;
                x /= geometry.channels as u64;
                let col_lo = x % mop;
                x /= mop;
                let bank = (x % geometry.banks_per_group as u64) as usize;
                x /= geometry.banks_per_group as u64;
                let bank_group = (x % geometry.bank_groups as u64) as usize;
                x /= geometry.bank_groups as u64;
                let rank = (x % geometry.ranks as u64) as usize;
                x /= geometry.ranks as u64;
                let col_hi = x % (geometry.columns / mop).max(1);
                x /= (geometry.columns / mop).max(1);
                let row = x % geometry.rows;
                let column = col_hi * mop + col_lo;
                DramAddress::new(channel, rank, bank_group, bank, row, column)
            }
        }
    }

    /// Encodes DRAM coordinates back into a physical byte address.
    ///
    /// `encode` is the inverse of [`AddressMapping::decode`] for addresses
    /// within the geometry's capacity, which property-based tests verify.
    pub fn encode(&self, geometry: &AddressMappingGeometry, addr: &DramAddress) -> u64 {
        let line = match *self {
            AddressMapping::RoBaRaCoCh => {
                let mut x = addr.row();
                x = x * geometry.ranks as u64 + addr.rank() as u64;
                x = x * geometry.bank_groups as u64 + addr.bank_group() as u64;
                x = x * geometry.banks_per_group as u64 + addr.bank() as u64;
                x = x * geometry.columns + addr.column();
                x * geometry.channels as u64 + addr.channel() as u64
            }
            AddressMapping::Mop { mop_lines } => {
                let mop = mop_lines.max(1);
                let col_hi = addr.column() / mop;
                let col_lo = addr.column() % mop;
                let mut x = addr.row();
                x = x * (geometry.columns / mop).max(1) + col_hi;
                x = x * geometry.ranks as u64 + addr.rank() as u64;
                x = x * geometry.bank_groups as u64 + addr.bank_group() as u64;
                x = x * geometry.banks_per_group as u64 + addr.bank() as u64;
                x = x * mop + col_lo;
                x * geometry.channels as u64 + addr.channel() as u64
            }
        };
        line * geometry.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn geom() -> AddressMappingGeometry {
        AddressMappingGeometry::default()
    }

    #[test]
    fn default_geometry_matches_table5() {
        let g = geom();
        assert_eq!(g.total_banks(), 16);
        assert_eq!(g.rows, 65_536);
        // 16 banks * 64K rows * 8 KiB per row = 8 GiB.
        assert_eq!(g.capacity_bytes(), 8 * 1024 * 1024 * 1024);
    }

    #[test]
    fn mop_keeps_consecutive_lines_in_same_row() {
        let m = AddressMapping::Mop { mop_lines: 4 };
        let g = geom();
        let base = 0x1000_0000u64;
        let a0 = m.decode(&g, base);
        let a1 = m.decode(&g, base + 64);
        let a2 = m.decode(&g, base + 3 * 64);
        let a3 = m.decode(&g, base + 4 * 64);
        assert_eq!(a0.row(), a1.row());
        assert_eq!(
            a0.bank_in_rank(g.banks_per_group),
            a1.bank_in_rank(g.banks_per_group)
        );
        assert_eq!(a0.row(), a2.row());
        // After the MOP width the bank changes but the row index stays, so
        // bank-level parallelism is exposed.
        assert_ne!(
            a0.bank_in_rank(g.banks_per_group),
            a3.bank_in_rank(g.banks_per_group)
        );
    }

    #[test]
    fn robaracoch_spreads_lines_across_columns_first() {
        let m = AddressMapping::RoBaRaCoCh;
        let g = geom();
        let a0 = m.decode(&g, 0);
        let a1 = m.decode(&g, 64);
        assert_eq!(a0.row(), a1.row());
        assert_eq!(a0.bank(), a1.bank());
        assert_eq!(a1.column(), a0.column() + 1);
    }

    #[test]
    fn neighbor_row_respects_bank_bounds() {
        let a = DramAddress::new(0, 0, 0, 0, 0, 0);
        assert!(a.neighbor_row(-1, 65_536).is_none());
        assert_eq!(a.neighbor_row(1, 65_536).unwrap().row(), 1);
        let top = DramAddress::new(0, 0, 0, 0, 65_535, 0);
        assert!(top.neighbor_row(1, 65_536).is_none());
        assert_eq!(top.neighbor_row(-2, 65_536).unwrap().row(), 65_533);
    }

    #[test]
    fn global_bank_index_is_dense_and_unique() {
        let g = geom();
        let mut seen = std::collections::HashSet::new();
        for ch in 0..g.channels {
            for ra in 0..g.ranks {
                for bg in 0..g.bank_groups {
                    for ba in 0..g.banks_per_group {
                        let a = DramAddress::new(ch, ra, bg, ba, 0, 0);
                        let idx = a.global_bank_index(g.ranks, g.bank_groups, g.banks_per_group);
                        assert!(idx < g.total_banks());
                        assert!(seen.insert(idx), "duplicate bank index {idx}");
                    }
                }
            }
        }
        assert_eq!(seen.len(), g.total_banks());
    }

    #[test]
    fn channel_of_agrees_with_decode_for_multi_channel_geometries() {
        for channels in [1usize, 2, 4] {
            let g = AddressMappingGeometry { channels, ..geom() };
            for m in [
                AddressMapping::Mop { mop_lines: 4 },
                AddressMapping::RoBaRaCoCh,
            ] {
                for line in 0..4096u64 {
                    let phys = line * 64;
                    assert_eq!(m.channel_of(&g, phys), m.decode(&g, phys).channel());
                }
            }
        }
    }

    #[test]
    fn channel_local_decode_matches_full_decode() {
        for channels in [1usize, 2, 4] {
            let g = AddressMappingGeometry { channels, ..geom() };
            let local_geom = g.per_channel();
            assert_eq!(local_geom.channels, 1);
            assert_eq!(local_geom.banks_per_channel(), g.banks_per_channel());
            for m in [
                AddressMapping::Mop { mop_lines: 4 },
                AddressMapping::RoBaRaCoCh,
            ] {
                for line in 0..4096u64 {
                    let phys = line * 64 + 8;
                    let full = m.decode(&g, phys);
                    let (channel, local_phys) = m.to_channel_local(&g, phys);
                    assert_eq!(channel, full.channel());
                    let local = m.decode(&local_geom, local_phys);
                    assert_eq!(local.channel(), 0);
                    assert_eq!(local.rank(), full.rank());
                    assert_eq!(local.bank_group(), full.bank_group());
                    assert_eq!(local.bank(), full.bank());
                    assert_eq!(local.row(), full.row());
                    assert_eq!(local.column(), full.column());
                }
            }
        }
    }

    #[test]
    fn single_channel_local_address_is_the_identity() {
        let g = geom();
        let m = AddressMapping::default();
        for phys in [0u64, 64, 0x1000_0040, 0x7fff_ffc0] {
            assert_eq!(m.to_channel_local(&g, phys), (0, phys));
        }
    }

    proptest! {
        #[test]
        fn decode_encode_round_trips_mop(line in 0u64..(8u64 << 30) / 64) {
            let g = geom();
            let m = AddressMapping::Mop { mop_lines: 4 };
            let phys = line * 64;
            let decoded = m.decode(&g, phys);
            prop_assert_eq!(m.encode(&g, &decoded), phys);
        }

        #[test]
        fn decode_encode_round_trips_robaracoch(line in 0u64..(8u64 << 30) / 64) {
            let g = geom();
            let m = AddressMapping::RoBaRaCoCh;
            let phys = line * 64;
            let decoded = m.decode(&g, phys);
            prop_assert_eq!(m.encode(&g, &decoded), phys);
        }

        #[test]
        fn decoded_coordinates_are_in_range(addr in 0u64..(8u64 << 30)) {
            let g = geom();
            for m in [AddressMapping::Mop { mop_lines: 4 }, AddressMapping::RoBaRaCoCh] {
                let d = m.decode(&g, addr);
                prop_assert!(d.channel() < g.channels);
                prop_assert!(d.rank() < g.ranks);
                prop_assert!(d.bank_group() < g.bank_groups);
                prop_assert!(d.bank() < g.banks_per_group);
                prop_assert!(d.row() < g.rows);
                prop_assert!(d.column() < g.columns);
            }
        }
    }
}
