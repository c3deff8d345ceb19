//! Memory controller configuration.

use crate::scheduler::SchedulerPolicy;
use bh_types::{AddressMapping, ConfigError, Cycle, TimeConverter};
use dram_sim::{DramOrganization, DramTimings};
use serde::{Deserialize, Serialize};

/// Configuration of a [`crate::MemoryController`].
///
/// The full-system configuration uses the same type for every channel at
/// once: there `organization.channels` may exceed 1, and each channel's
/// controller gets a copy with [`DramOrganization::per_channel`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemCtrlConfig {
    /// DRAM organization.
    pub organization: DramOrganization,
    /// DRAM timing parameters (nanosecond domain).
    pub timings: DramTimings,
    /// Simulation clock.
    pub clock: TimeConverter,
    /// Physical-to-DRAM address mapping scheme.
    pub mapping: AddressMapping,
    /// Read queue capacity (requests).
    pub read_queue_capacity: usize,
    /// Write queue capacity (requests).
    pub write_queue_capacity: usize,
    /// Write-drain high watermark: when the write queue reaches this level
    /// the controller switches to draining writes.
    pub write_drain_high: usize,
    /// Write-drain low watermark: draining stops once the write queue falls
    /// to this level.
    pub write_drain_low: usize,
    /// Minimum gap between two commands on the channel's command bus, in
    /// simulation cycles (the DDR4 command bus runs slower than the CPU
    /// clock).
    pub command_bus_interval: Cycle,
    /// How the FR-FCFS scheduling passes scan the demand queues. The two
    /// policies make identical decisions; [`SchedulerPolicy::LinearScan`]
    /// exists as the equivalence and benchmark baseline.
    pub scheduler: SchedulerPolicy,
}

impl Default for MemCtrlConfig {
    /// The paper's configuration (Table 5): 64-entry read/write queues,
    /// FR-FCFS, MOP address mapping, DDR4-2400, 3.2 GHz controller clock.
    fn default() -> Self {
        Self {
            organization: DramOrganization::default(),
            timings: DramTimings::ddr4_2400(),
            clock: TimeConverter::default(),
            mapping: AddressMapping::default(),
            read_queue_capacity: 64,
            write_queue_capacity: 64,
            write_drain_high: 48,
            write_drain_low: 16,
            command_bus_interval: 3,
            scheduler: SchedulerPolicy::default(),
        }
    }
}

impl MemCtrlConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field if queue sizes
    /// are zero or the drain watermarks are inconsistent.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.organization.validate()?;
        if self.read_queue_capacity == 0 {
            return Err(ConfigError::new("read_queue_capacity", "must be non-zero"));
        }
        if self.write_queue_capacity == 0 {
            return Err(ConfigError::new("write_queue_capacity", "must be non-zero"));
        }
        if self.write_drain_high > self.write_queue_capacity {
            return Err(ConfigError::new(
                "write_drain_high",
                "must not exceed the write queue capacity",
            ));
        }
        if self.write_drain_low >= self.write_drain_high {
            return Err(ConfigError::new(
                "write_drain_low",
                "must be below write_drain_high",
            ));
        }
        if self.command_bus_interval == 0 {
            return Err(ConfigError::new("command_bus_interval", "must be non-zero"));
        }
        Ok(())
    }

    /// Returns a copy whose refresh window has been divided by `factor`
    /// (scaled-time mode, see the README section "Substitutions and scaled
    /// time").
    pub fn with_time_scale(mut self, factor: u64) -> Self {
        self.timings = self.timings.with_time_scale(factor);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_table5() {
        let c = MemCtrlConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.read_queue_capacity, 64);
        assert_eq!(c.write_queue_capacity, 64);
        assert_eq!(c.organization.total_banks(), 16);
    }

    #[test]
    fn validate_rejects_bad_watermarks() {
        let mut c = MemCtrlConfig::default();
        c.write_drain_low = c.write_drain_high;
        assert_eq!(c.validate().unwrap_err().field(), "write_drain_low");
        let mut c = MemCtrlConfig::default();
        c.write_drain_high = c.write_queue_capacity + 1;
        assert_eq!(c.validate().unwrap_err().field(), "write_drain_high");
    }

    #[test]
    fn validate_rejects_zero_queues() {
        let c = MemCtrlConfig {
            read_queue_capacity: 0,
            ..MemCtrlConfig::default()
        };
        assert_eq!(c.validate().unwrap_err().field(), "read_queue_capacity");
    }

    #[test]
    fn time_scale_shrinks_refresh_window() {
        let c = MemCtrlConfig::default().with_time_scale(128);
        assert!((c.timings.t_refw - 64.0e6 / 128.0).abs() < 1e-3);
    }
}
