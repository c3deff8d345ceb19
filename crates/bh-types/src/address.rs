//! Decoded DRAM addresses and the physical-address-to-DRAM mapping.
//!
//! The memory controller translates a flat physical byte address into a
//! `(channel, rank, bank group, bank, row, column)` tuple with
//! [`DramOrganization::decode`], the "minimalist open page" (MOP) scheme
//! of the paper's simulated system (Table 5), which interleaves a small
//! block of consecutive cache lines in the same row across banks.

use crate::DramOrganization;
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

/// The MOP width (Table 5): the number of consecutive cache lines a row
/// keeps before the mapping moves on to the next bank.
const MOP_LINES: u64 = 4;

/// `(x / d, x % d)`: a shift and a mask when `d` is a power of two, a
/// division otherwise (which panics on zero, as `/` does).
fn div_rem(x: u64, d: u64) -> (u64, u64) {
    if d.is_power_of_two() {
        (x >> d.trailing_zeros(), x & (d - 1))
    } else {
        (x / d, x % d)
    }
}

/// MOP address mapping: `MOP_LINES` consecutive cache lines stay in one
/// row, then the mapping rotates across banks, bank groups and ranks,
/// which maximises bank-level parallelism while preserving short bursts
/// of row locality. Channels interleave on the lowest line-index bits.
impl DramOrganization {
    /// The number of cache lines the organization addresses (at least 1):
    /// the modulus at which out-of-range addresses wrap.
    fn total_lines(&self) -> u64 {
        (self.total_banks() as u64 * self.rows_per_bank * self.columns_per_row).max(1)
    }

    /// MOP blocks per row (at least 1).
    fn mop_blocks(&self) -> u64 {
        (self.columns_per_row / MOP_LINES).max(1)
    }

    /// The channel a physical byte address routes to, without a full
    /// decode. This is what a channel-sharded memory subsystem uses to
    /// pick the shard; it always agrees with [`DramOrganization::decode`]'s
    /// `channel()`.
    pub fn channel_of(&self, phys_addr: u64) -> usize {
        self.to_channel_local(phys_addr).0
    }

    /// Splits a physical byte address into its channel and the
    /// channel-local physical address.
    ///
    /// The local address, decoded by [`DramOrganization::per_channel`],
    /// yields the same rank / bank group / bank / row / column coordinates
    /// as a full-system decode of `phys_addr` (with `channel` = 0). With a
    /// single channel the local address equals the original address, so the
    /// sharded path is bit-for-bit identical to the unsharded one.
    pub fn to_channel_local(&self, phys_addr: u64) -> (usize, u64) {
        let (line, offset) = div_rem(phys_addr, self.line_bytes);
        let (_, line) = div_rem(line, self.total_lines());
        let (local_line, channel) = div_rem(line, self.channels as u64);
        (channel as usize, local_line * self.line_bytes + offset)
    }

    /// Decodes a physical byte address into DRAM coordinates.
    ///
    /// Addresses beyond the organization's capacity wrap around; the
    /// simulator synthesises addresses inside the capacity so wrapping only
    /// guards against malformed traces.
    ///
    /// Each coordinate is a remainder of the line index, and each divisor
    /// is a dimension. A power-of-two divisor, which every organization in
    /// use has, costs a shift and a mask; any other divisor takes a
    /// division and decodes the same coordinates.
    pub fn decode(&self, phys_addr: u64) -> DramAddress {
        let (line, _) = div_rem(phys_addr, self.line_bytes);
        let (_, line) = div_rem(line, self.total_lines());
        let (x, channel) = div_rem(line, self.channels as u64);
        let (x, col_lo) = div_rem(x, MOP_LINES);
        let (x, bank) = div_rem(x, self.banks_per_group as u64);
        let (x, bank_group) = div_rem(x, self.bank_groups as u64);
        let (x, rank) = div_rem(x, self.ranks as u64);
        let (x, col_hi) = div_rem(x, self.mop_blocks());
        let (_, row) = div_rem(x, self.rows_per_bank);
        DramAddress::new(
            channel as usize,
            rank as usize,
            bank_group as usize,
            bank as usize,
            row,
            col_hi * MOP_LINES + col_lo,
        )
    }

    /// Encodes DRAM coordinates back into a physical byte address.
    ///
    /// `encode` is the inverse of [`DramOrganization::decode`] for
    /// addresses within the capacity, which property-based tests verify.
    pub fn encode(&self, addr: &DramAddress) -> u64 {
        let mut x = addr.row();
        x = x * self.mop_blocks() + addr.column() / MOP_LINES;
        x = x * self.ranks as u64 + addr.rank() as u64;
        x = x * self.bank_groups as u64 + addr.bank_group() as u64;
        x = x * self.banks_per_group as u64 + addr.bank() as u64;
        x = x * MOP_LINES + addr.column() % MOP_LINES;
        let line = x * self.channels as u64 + addr.channel() as u64;
        line * self.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn org() -> DramOrganization {
        DramOrganization::default()
    }

    #[test]
    fn default_geometry_matches_table5() {
        // The mapping addresses Table 5's 16 banks * 64K rows * 8 KiB per
        // row = 8 GiB: the last line lands in the last row, and the first
        // address past the capacity wraps to the first line.
        let o = org();
        let capacity = 8u64 << 30;
        assert_eq!(o.total_lines() * o.line_bytes, capacity);
        let last = o.decode(capacity - o.line_bytes);
        assert_eq!(last.row(), 65_535);
        assert_eq!(o.bank_of(&last), 15);
        assert_eq!(o.decode(capacity), o.decode(0));
        let banks: std::collections::HashSet<usize> = (0..64u64)
            .map(|line| o.bank_of(&o.decode(line * o.line_bytes)))
            .collect();
        assert_eq!(banks.len(), 16);
    }

    #[test]
    fn mop_keeps_consecutive_lines_in_same_row() {
        let o = org();
        let base = 0x1000_0000u64;
        let a0 = o.decode(base);
        let a1 = o.decode(base + 64);
        let a2 = o.decode(base + 3 * 64);
        let a3 = o.decode(base + 4 * 64);
        assert_eq!(a0.row(), a1.row());
        assert_eq!(o.bank_of(&a0), o.bank_of(&a1));
        assert_eq!(a0.row(), a2.row());
        // After the MOP width the bank changes but the row index stays, so
        // bank-level parallelism is exposed.
        assert_ne!(o.bank_of(&a0), o.bank_of(&a3));
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
    fn channel_of_agrees_with_decode_for_multi_channel_geometries() {
        for channels in [1usize, 2, 4] {
            let o = DramOrganization { channels, ..org() };
            for line in 0..4096u64 {
                let phys = line * 64;
                assert_eq!(o.channel_of(phys), o.decode(phys).channel());
            }
        }
    }

    #[test]
    fn channel_local_decode_matches_full_decode() {
        for channels in [1usize, 2, 4] {
            let o = DramOrganization { channels, ..org() };
            let local_org = o.per_channel();
            assert_eq!(local_org.channels, 1);
            assert_eq!(local_org.banks_per_channel(), o.banks_per_channel());
            for line in 0..4096u64 {
                let phys = line * 64 + 8;
                let full = o.decode(phys);
                let (channel, local_phys) = o.to_channel_local(phys);
                assert_eq!(channel, full.channel());
                let local = local_org.decode(local_phys);
                assert_eq!(local.channel(), 0);
                assert_eq!(local.rank(), full.rank());
                assert_eq!(local.bank_group(), full.bank_group());
                assert_eq!(local.bank(), full.bank());
                assert_eq!(local.row(), full.row());
                assert_eq!(local.column(), full.column());
            }
        }
    }

    #[test]
    fn single_channel_local_address_is_the_identity() {
        let o = org();
        for phys in [0u64, 64, 0x1000_0040, 0x7fff_ffc0] {
            assert_eq!(o.to_channel_local(phys), (0, phys));
        }
    }

    proptest! {
        #[test]
        fn decode_encode_round_trips_mop(line in 0u64..(8u64 << 30) / 64) {
            let o = org();
            let phys = line * 64;
            let decoded = o.decode(phys);
            prop_assert_eq!(o.encode(&decoded), phys);
        }

        #[test]
        fn decoded_coordinates_are_in_range(addr in 0u64..(8u64 << 30)) {
            let o = org();
            let d = o.decode(addr);
            prop_assert!(d.channel() < o.channels);
            prop_assert!(d.rank() < o.ranks);
            prop_assert!(d.bank_group() < o.bank_groups);
            prop_assert!(d.bank() < o.banks_per_group);
            prop_assert!(d.row() < o.rows_per_bank);
            prop_assert!(d.column() < o.columns_per_row);
        }
    }
}
