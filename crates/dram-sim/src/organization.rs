//! DRAM organization (channels, ranks, bank groups, banks, rows, columns).

use bh_types::{AddressMappingGeometry, ConfigError};
use serde::{Deserialize, Serialize};

/// The physical organization of the simulated DRAM subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramOrganization {
    /// Number of independent memory channels. A
    /// [`DramDevice`](crate::DramDevice) models exactly one; a
    /// multi-channel system builds one device per channel from
    /// [`DramOrganization::per_channel`].
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
    /// 4 bank groups x 4 banks, 64K rows per bank.
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

    /// Total banks in the system.
    pub fn total_banks(&self) -> usize {
        self.channels * self.banks_per_channel()
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_banks() as u64 * self.rows_per_bank * self.columns_per_row * self.line_bytes
    }

    /// Banks within one channel.
    pub fn banks_per_channel(&self) -> usize {
        self.ranks * self.banks_per_rank()
    }

    /// The organization of a single channel of this system (`channels` = 1,
    /// everything else unchanged) — what each shard of a channel-sharded
    /// memory subsystem instantiates.
    pub fn per_channel(&self) -> Self {
        Self {
            channels: 1,
            ..*self
        }
    }

    /// The address-mapping geometry equivalent of this organization.
    pub fn geometry(&self) -> AddressMappingGeometry {
        AddressMappingGeometry {
            channels: self.channels,
            ranks: self.ranks,
            bank_groups: self.bank_groups,
            banks_per_group: self.banks_per_group,
            rows: self.rows_per_bank,
            columns: self.columns_per_row,
            line_bytes: self.line_bytes,
        }
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
    fn geometry_mirrors_organization() {
        let o = DramOrganization::default();
        let g = o.geometry();
        assert_eq!(g.total_banks(), o.total_banks());
        assert_eq!(g.capacity_bytes(), o.capacity_bytes());
    }
}
