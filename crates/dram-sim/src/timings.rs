//! DDR4 timing parameters.
//!
//! [`DramTimings`] holds the JEDEC timing parameters in nanoseconds (plus a
//! handful that are naturally expressed in bus cycles, converted to ns via
//! the bus clock). [`TimingsInCycles`] is the same set converted to the
//! simulation clock domain (CPU cycles), which is what the bank/rank state
//! machines consume.

use bh_types::{Cycle, Nanoseconds, TimeConverter};
use serde::{Deserialize, Serialize};

/// DDR4 timing parameters in nanoseconds.
///
/// Field names follow the JEDEC DDR4 specification. Only parameters that
/// influence activation-rate, bandwidth or refresh behaviour are modelled;
/// ODT and calibration timings are irrelevant to a RowHammer study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramTimings {
    /// ACT-to-ACT to the same bank (row cycle time).
    pub t_rc: Nanoseconds,
    /// ACT-to-column-command delay (RAS-to-CAS).
    pub t_rcd: Nanoseconds,
    /// Precharge latency.
    pub t_rp: Nanoseconds,
    /// Minimum row-open time (ACT to PRE).
    pub t_ras: Nanoseconds,
    /// ACT-to-ACT delay, different bank groups.
    pub t_rrd_s: Nanoseconds,
    /// ACT-to-ACT delay, same bank group.
    pub t_rrd_l: Nanoseconds,
    /// Four-activation window.
    pub t_faw: Nanoseconds,
    /// Column-to-column delay, different bank groups.
    pub t_ccd_s: Nanoseconds,
    /// Column-to-column delay, same bank group.
    pub t_ccd_l: Nanoseconds,
    /// Write-to-read turnaround, different bank groups.
    pub t_wtr_s: Nanoseconds,
    /// Write-to-read turnaround, same bank group.
    pub t_wtr_l: Nanoseconds,
    /// Read-to-precharge delay.
    pub t_rtp: Nanoseconds,
    /// Write recovery time (end of write burst to precharge).
    pub t_wr: Nanoseconds,
    /// CAS (read) latency.
    pub t_cl: Nanoseconds,
    /// CAS write latency.
    pub t_cwl: Nanoseconds,
    /// Data burst duration (BL8 at the bus clock).
    pub t_bl: Nanoseconds,
    /// Average refresh command interval.
    pub t_refi: Nanoseconds,
    /// Refresh cycle time (duration of one all-bank REF).
    pub t_rfc: Nanoseconds,
    /// Refresh window: every row must be refreshed at least once per tREFW.
    pub t_refw: Nanoseconds,
}

impl DramTimings {
    /// DDR4-2400 (AL=0, CL=17) timings as used by the paper's configuration
    /// (tRC = 46.25 ns, tFAW = 35 ns, tREFW = 64 ms; see Table 1).
    pub fn ddr4_2400() -> Self {
        // Bus clock: 1200 MHz -> 0.833 ns per bus cycle.
        let tck = 1.0 / 1.2;
        Self {
            t_rc: 46.25,
            t_rcd: 14.16,
            t_rp: 14.16,
            t_ras: 32.0,
            t_rrd_s: 4.0 * tck,
            t_rrd_l: 6.0 * tck,
            t_faw: 35.0,
            t_ccd_s: 4.0 * tck,
            t_ccd_l: 6.0 * tck,
            t_wtr_s: 2.5,
            t_wtr_l: 7.5,
            t_rtp: 7.5,
            t_wr: 15.0,
            t_cl: 17.0 * tck,
            t_cwl: 12.0 * tck,
            t_bl: 4.0 * tck,
            t_refi: 7800.0,
            t_rfc: 350.0,
            t_refw: 64.0e6,
        }
    }

    /// Returns a copy with the refresh window (and refresh interval) divided
    /// by `factor`, used by the scaled-time simulation mode. All per-command
    /// timings are left untouched so row activation costs stay realistic.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn with_time_scale(mut self, factor: u64) -> Self {
        assert!(factor > 0, "time scale factor must be non-zero");
        self.t_refw /= factor as f64;
        self
    }

    /// Converts every parameter into simulation-clock cycles.
    pub fn into_cycles(self, clock: &TimeConverter) -> TimingsInCycles {
        TimingsInCycles {
            t_rc: clock.ns_to_cycles(self.t_rc),
            t_rcd: clock.ns_to_cycles(self.t_rcd),
            t_rp: clock.ns_to_cycles(self.t_rp),
            t_ras: clock.ns_to_cycles(self.t_ras),
            t_rrd_s: clock.ns_to_cycles(self.t_rrd_s),
            t_rrd_l: clock.ns_to_cycles(self.t_rrd_l),
            t_faw: clock.ns_to_cycles(self.t_faw),
            t_ccd_s: clock.ns_to_cycles(self.t_ccd_s),
            t_ccd_l: clock.ns_to_cycles(self.t_ccd_l),
            t_wtr_s: clock.ns_to_cycles(self.t_wtr_s),
            t_wtr_l: clock.ns_to_cycles(self.t_wtr_l),
            t_rtp: clock.ns_to_cycles(self.t_rtp),
            t_wr: clock.ns_to_cycles(self.t_wr),
            t_cl: clock.ns_to_cycles(self.t_cl),
            t_cwl: clock.ns_to_cycles(self.t_cwl),
            t_bl: clock.ns_to_cycles(self.t_bl),
            t_refi: clock.ns_to_cycles(self.t_refi),
            t_rfc: clock.ns_to_cycles(self.t_rfc),
            t_refw: clock.ns_to_cycles(self.t_refw),
            clock: *clock,
            source_ns: self,
        }
    }
}

impl Default for DramTimings {
    fn default() -> Self {
        Self::ddr4_2400()
    }
}

/// DDR4 timing parameters converted to simulation-clock cycles.
///
/// Obtained from [`DramTimings::into_cycles`]; consumed by the bank and
/// rank state machines and by the defenses (e.g. Eq. 1 of the paper uses
/// `tRC`, `tREFW` and `tFAW`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)] // fields mirror DramTimings; documented there.
pub struct TimingsInCycles {
    pub t_rc: Cycle,
    pub t_rcd: Cycle,
    pub t_rp: Cycle,
    pub t_ras: Cycle,
    pub t_rrd_s: Cycle,
    pub t_rrd_l: Cycle,
    pub t_faw: Cycle,
    pub t_ccd_s: Cycle,
    pub t_ccd_l: Cycle,
    pub t_wtr_s: Cycle,
    pub t_wtr_l: Cycle,
    pub t_rtp: Cycle,
    pub t_wr: Cycle,
    pub t_cl: Cycle,
    pub t_cwl: Cycle,
    pub t_bl: Cycle,
    pub t_refi: Cycle,
    pub t_rfc: Cycle,
    pub t_refw: Cycle,
    /// Clock used for the conversion (kept for reporting).
    pub clock: TimeConverter,
    /// The original nanosecond-domain parameters.
    pub source_ns: DramTimings,
}

impl TimingsInCycles {
    /// Read latency from column command to first data beat (CL + BL).
    pub fn read_latency(&self) -> Cycle {
        self.t_cl + self.t_bl
    }

    /// Write latency from column command to end of burst (CWL + BL).
    pub fn write_latency(&self) -> Cycle {
        self.t_cwl + self.t_bl
    }
}

impl Default for TimingsInCycles {
    fn default() -> Self {
        DramTimings::default().into_cycles(&TimeConverter::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_2400_matches_paper_constants() {
        let t = DramTimings::ddr4_2400();
        assert!((t.t_rc - 46.25).abs() < 1e-9);
        assert!((t.t_faw - 35.0).abs() < 1e-9);
        assert!((t.t_refw - 64.0e6).abs() < 1e-3);
    }

    #[test]
    fn conversion_preserves_ordering_constraints() {
        let t = DramTimings::ddr4_2400().into_cycles(&TimeConverter::default());
        assert!(t.t_ras >= t.t_rcd, "a row must stay open at least tRCD");
        assert!(t.t_rc >= t.t_ras + t.t_rp - 2, "tRC ~ tRAS + tRP");
        assert!(t.t_rrd_l >= t.t_rrd_s);
        assert!(t.t_ccd_l >= t.t_ccd_s);
        assert!(t.t_faw >= t.t_rrd_s * 3);
        assert!(t.t_refw > t.t_refi);
    }

    #[test]
    fn time_scale_shrinks_only_refresh_window() {
        let base = DramTimings::ddr4_2400();
        let scaled = base.with_time_scale(64);
        assert!((scaled.t_refw - base.t_refw / 64.0).abs() < 1e-6);
        assert_eq!(scaled.t_rc, base.t_rc);
        assert_eq!(scaled.t_faw, base.t_faw);
    }

    #[test]
    fn latencies_are_positive() {
        let t = TimingsInCycles::default();
        assert!(t.read_latency() > 0);
        assert!(t.write_latency() > 0);
    }
}
