//! Clock and time conversion helpers.
//!
//! The whole simulation runs on a single clock domain: the CPU clock
//! (3.2 GHz in the paper's configuration, Table 5). DRAM timing parameters
//! are specified in nanoseconds by the DDR4 standard and converted into CPU
//! cycles with [`TimeConverter`].

use serde::{Deserialize, Serialize};

/// A point in (or duration of) simulated time, measured in clock cycles of
/// the simulation clock domain.
pub type Cycle = u64;

/// A duration expressed in nanoseconds.
pub type Nanoseconds = f64;

/// A clock frequency expressed in cycles per second (Hz).
pub type CyclesPerSecond = f64;

/// Converts between wall-clock durations (nanoseconds) and simulation
/// cycles for a fixed clock frequency.
///
/// # Example
///
/// ```
/// use bh_types::TimeConverter;
///
/// let clk = TimeConverter::new(3.2e9); // 3.2 GHz CPU clock
/// assert_eq!(clk.ns_to_cycles(46.25), 148); // tRC of DDR4-2400
/// assert!((clk.cycles_to_ns(148) - 46.25).abs() < 0.1);
/// assert_eq!(clk.ms_to_cycles(64.0), 204_800_000); // a refresh window
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeConverter {
    frequency_hz: CyclesPerSecond,
}

impl TimeConverter {
    /// Creates a converter for a clock running at `frequency_hz` Hz.
    ///
    /// # Panics
    ///
    /// Panics if `frequency_hz` is not strictly positive and finite.
    pub fn new(frequency_hz: CyclesPerSecond) -> Self {
        assert!(
            frequency_hz.is_finite() && frequency_hz > 0.0,
            "clock frequency must be positive and finite, got {frequency_hz}"
        );
        Self { frequency_hz }
    }

    /// The clock frequency in Hz.
    pub fn frequency_hz(&self) -> CyclesPerSecond {
        self.frequency_hz
    }

    /// Converts a duration in nanoseconds to cycles, rounding up so that a
    /// converted timing constraint is never shorter than the original.
    pub fn ns_to_cycles(&self, ns: Nanoseconds) -> Cycle {
        (ns * self.frequency_hz / 1e9).ceil() as Cycle
    }

    /// Converts a duration in milliseconds to cycles (rounding up).
    pub fn ms_to_cycles(&self, ms: f64) -> Cycle {
        self.ns_to_cycles(ms * 1e6)
    }

    /// Converts a number of cycles back into nanoseconds.
    pub fn cycles_to_ns(&self, cycles: Cycle) -> Nanoseconds {
        cycles as f64 * 1e9 / self.frequency_hz
    }

    /// Converts a number of cycles into seconds.
    pub fn cycles_to_seconds(&self, cycles: Cycle) -> f64 {
        cycles as f64 / self.frequency_hz
    }
}

impl Default for TimeConverter {
    /// A 3.2 GHz clock, the CPU frequency used throughout the paper
    /// (Table 5).
    fn default() -> Self {
        Self::new(3.2e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_round_trip_is_close() {
        let clk = TimeConverter::new(3.2e9);
        for ns in [0.0, 1.0, 7.5, 46.25, 350.0, 7700.0] {
            let cycles = clk.ns_to_cycles(ns);
            let back = clk.cycles_to_ns(cycles);
            assert!(back >= ns - 1e-9, "round trip shortened {ns} -> {back}");
            assert!(back - ns <= clk.cycles_to_ns(1) + 1e-9);
        }
    }

    #[test]
    fn conversion_rounds_up() {
        let clk = TimeConverter::new(1e9); // 1 ns per cycle
        assert_eq!(clk.ns_to_cycles(0.1), 1);
        assert_eq!(clk.ns_to_cycles(1.0), 1);
        assert_eq!(clk.ns_to_cycles(1.0001), 2);
    }

    #[test]
    fn refresh_window_at_cpu_clock() {
        let clk = TimeConverter::default();
        // 64 ms at 3.2 GHz.
        assert_eq!(clk.ms_to_cycles(64.0), 204_800_000);
    }

    #[test]
    fn us_and_ms_consistent_with_ns() {
        let clk = TimeConverter::new(2.4e9);
        // One microsecond, given in milliseconds.
        assert_eq!(clk.ms_to_cycles(0.001), clk.ns_to_cycles(1000.0));
        assert_eq!(clk.ms_to_cycles(1.0), clk.ns_to_cycles(1_000_000.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_panics() {
        let _ = TimeConverter::new(0.0);
    }
}
