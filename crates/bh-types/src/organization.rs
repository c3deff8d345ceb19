//! The DRAM organization: how many channels, ranks, bank groups, banks,
//! rows and columns the simulated memory has, and how its banks are
//! numbered.
//!
//! [`DramOrganization`] is the one description of that layout. Every layer
//! asks it two questions: how a physical address decodes (the MOP address
//! mapping, in the `address` module) and which flat bank index a decoded
//! address has ([`DramOrganization::bank_of`], its inverse
//! [`DramOrganization::bank_address`], and a rank's banks,
//! [`DramOrganization::rank_banks`]).

use crate::{ConfigError, DramAddress};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// The physical organization of the simulated DRAM subsystem.
///
/// The full system's organization routes addresses to channels; each
/// channel's controller, device and defenses hold
/// [`DramOrganization::per_channel`], which decodes channel-local addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramOrganization {
    /// Number of independent memory channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Bank groups per rank (DDR4 has 4).
    pub bank_groups: usize,
    /// Banks per bank group (DDR4 has 4).
    pub banks_per_group: usize,
    /// Rows per bank.
    pub rows_per_bank: u64,
    /// Columns (cache-line-sized) per row.
    pub columns_per_row: u64,
    /// Cache-line size in bytes.
    pub line_bytes: u64,
}

impl Default for DramOrganization {
    /// The paper's simulated system (Table 5): one channel, one rank,
    /// 4 bank groups x 4 banks, 64K rows per bank, 8 KiB rows (128 x 64 B
    /// lines).
    fn default() -> Self {
        Self {
            channels: 1,
            ranks: 1,
            bank_groups: 4,
            banks_per_group: 4,
            rows_per_bank: 65_536,
            columns_per_row: 128,
            line_bytes: 64,
        }
    }
}

impl DramOrganization {
    /// Validates the organization, returning an error naming the offending
    /// field if any dimension is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        macro_rules! nonzero {
            ($field:ident) => {
                if self.$field == 0 {
                    return Err(ConfigError::new(stringify!($field), "must be non-zero"));
                }
            };
        }
        nonzero!(channels);
        nonzero!(ranks);
        nonzero!(bank_groups);
        nonzero!(banks_per_group);
        nonzero!(rows_per_bank);
        nonzero!(columns_per_row);
        nonzero!(line_bytes);
        Ok(())
    }

    /// Banks per rank.
    pub fn banks_per_rank(&self) -> usize {
        self.bank_groups * self.banks_per_group
    }

    /// Banks within one channel.
    pub fn banks_per_channel(&self) -> usize {
        self.ranks * self.banks_per_rank()
    }

    /// Total banks in the system.
    pub fn total_banks(&self) -> usize {
        self.channels * self.banks_per_channel()
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_banks() as u64 * self.rows_per_bank * self.columns_per_row * self.line_bytes
    }

    /// The organization of a single channel of this system (`channels` = 1,
    /// everything else unchanged): what each shard of a channel-sharded
    /// memory subsystem instantiates, and what decodes the channel-local
    /// addresses [`DramOrganization::to_channel_local`] yields.
    pub fn per_channel(&self) -> Self {
        Self {
            channels: 1,
            ..*self
        }
    }

    /// The index of `addr`'s bank within its channel,
    /// `(rank * bank_groups + bank_group) * banks_per_group + bank`. The
    /// device, the controller and the defenses index per-bank state by it,
    /// and a bank set holds bit `bank_of(addr)`. The channel coordinate is
    /// not consulted.
    pub fn bank_of(&self, addr: &DramAddress) -> usize {
        (addr.rank() * self.bank_groups + addr.bank_group()) * self.banks_per_group + addr.bank()
    }

    /// The channel-local address of `row` in the bank with index `bank`,
    /// column 0: the inverse of [`DramOrganization::bank_of`].
    ///
    /// # Panics
    ///
    /// Panics if `bank` is not below [`DramOrganization::banks_per_channel`].
    pub fn bank_address(&self, bank: usize, row: u64) -> DramAddress {
        assert!(bank < self.banks_per_channel(), "bank {bank} out of range");
        let in_rank = bank % self.banks_per_rank();
        DramAddress::new(
            0,
            bank / self.banks_per_rank(),
            in_rank / self.banks_per_group,
            in_rank % self.banks_per_group,
            row,
            0,
        )
    }

    /// The indices of `rank`'s banks, which are contiguous.
    pub fn rank_banks(&self, rank: usize) -> Range<usize> {
        let banks_per_rank = self.banks_per_rank();
        rank * banks_per_rank..(rank + 1) * banks_per_rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table5() {
        let o = DramOrganization::default();
        assert_eq!(o.total_banks(), 16);
        assert_eq!(o.banks_per_rank(), 16);
        assert_eq!(o.rows_per_bank, 65_536);
        // 16 banks * 64K rows * 8 KiB per row = 8 GiB.
        assert_eq!(o.capacity_bytes(), 8 << 30);
        assert!(o.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_dimensions() {
        let o = DramOrganization {
            rows_per_bank: 0,
            ..DramOrganization::default()
        };
        let err = o.validate().unwrap_err();
        assert_eq!(err.field(), "rows_per_bank");
    }

    #[test]
    fn bank_numbering_is_one_to_one_and_rank_contiguous() {
        let o = DramOrganization {
            ranks: 2,
            bank_groups: 3,
            ..DramOrganization::default()
        };
        let mut seen = vec![false; o.banks_per_channel()];
        for rank in 0..o.ranks {
            for bank_group in 0..o.bank_groups {
                for bank in 0..o.banks_per_group {
                    let a = DramAddress::new(0, rank, bank_group, bank, 77, 0);
                    let index = o.bank_of(&a);
                    assert!(o.rank_banks(rank).contains(&index), "{a} left its rank");
                    assert!(!seen[index], "{a} shares bank index {index}");
                    seen[index] = true;
                    assert_eq!(o.bank_address(index, a.row()), a);
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every bank index has a bank");
    }
}
