//! The defense trait and shared reporting types.

use bh_types::{ConfigError, Cycle, DramAddress, ThreadId};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::fmt;

/// The RowHammer threshold `N_RH`: the minimum number of activations to a
/// single row within one refresh window that can induce a bit-flip in a
/// neighbouring row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RowHammerThreshold(u64);

impl RowHammerThreshold {
    /// Creates a threshold.
    ///
    /// # Panics
    ///
    /// Panics if `n_rh` is zero (a zero threshold would make every DRAM
    /// access a bit-flip, which no defense can handle).
    pub fn new(n_rh: u64) -> Self {
        assert!(n_rh > 0, "the RowHammer threshold must be non-zero");
        Self(n_rh)
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `n_rh` is zero.
    pub fn try_new(n_rh: u64) -> Result<Self, ConfigError> {
        if n_rh == 0 {
            Err(ConfigError::new("n_rh", "must be non-zero"))
        } else {
            Ok(Self(n_rh))
        }
    }

    /// The threshold value.
    pub fn get(self) -> u64 {
        self.0
    }

    /// The threshold adjusted for double-sided attacks (`N_RH / 2`), the
    /// attack model all evaluated mechanisms are configured against
    /// (Section 7).
    pub fn double_sided(self) -> Self {
        Self((self.0 / 2).max(1))
    }
}

impl fmt::Display for RowHammerThreshold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N_RH={}", self.0)
    }
}

/// Metadata storage a defense keeps in the memory controller, used by the
/// hardware cost model (Table 4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetadataFootprint {
    /// Bits stored in plain SRAM arrays (counters, timestamps).
    pub sram_bits: u64,
    /// Bits stored in content-addressable memory (tag-matched tables).
    pub cam_bits: u64,
}

impl MetadataFootprint {
    /// Footprint with only SRAM storage.
    pub fn sram(bits: u64) -> Self {
        Self {
            sram_bits: bits,
            cam_bits: 0,
        }
    }

    /// Footprint with only CAM storage.
    pub fn cam(bits: u64) -> Self {
        Self {
            sram_bits: 0,
            cam_bits: bits,
        }
    }

    /// Element-wise sum.
    pub fn merged(&self, other: &Self) -> Self {
        Self {
            sram_bits: self.sram_bits + other.sram_bits,
            cam_bits: self.cam_bits + other.cam_bits,
        }
    }

    /// SRAM storage in kibibytes.
    pub fn sram_kib(&self) -> f64 {
        self.sram_bits as f64 / 8.0 / 1024.0
    }

    /// CAM storage in kibibytes.
    pub fn cam_kib(&self) -> f64 {
        self.cam_bits as f64 / 8.0 / 1024.0
    }

    /// Total storage in kibibytes.
    pub fn total_kib(&self) -> f64 {
        self.sram_kib() + self.cam_kib()
    }
}

/// Counters every defense reports at the end of a run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DefenseStats {
    /// Activations observed by the defense.
    pub observed_activations: u64,
    /// Victim-row refreshes the defense asked the controller to perform.
    pub victim_refreshes: u64,
    /// Rows currently or ever blacklisted (meaningful for throttling
    /// defenses; zero for reactive-refresh ones).
    pub blacklist_insertions: u64,
}

impl DefenseStats {
    /// Records an observed activation.
    pub fn record_activation(&mut self) {
        self.observed_activations += 1;
    }

    /// Element-wise sum of two counter sets (used to aggregate the
    /// per-channel defense instances of a sharded memory subsystem).
    pub fn merged(&self, other: &DefenseStats) -> DefenseStats {
        DefenseStats {
            observed_activations: self.observed_activations + other.observed_activations,
            victim_refreshes: self.victim_refreshes + other.victim_refreshes,
            blacklist_insertions: self.blacklist_insertions + other.blacklist_insertions,
        }
    }
}

/// Upcasting support for trait objects: every `'static` type implements
/// this automatically, so a `dyn RowHammerDefense` can be downcast to its
/// concrete mechanism (e.g. to flip a BlockHammer-specific switch on the
/// defense instance a channel shard owns).
pub trait AsAny {
    /// The value as `&dyn Any`.
    fn as_any(&self) -> &dyn Any;
    /// The value as `&mut dyn Any`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Interface between the memory controller and a RowHammer defense.
///
/// The controller calls these hooks at well-defined points of its
/// scheduling loop:
///
/// 1. Before issuing an ACT it asks [`RowHammerDefense::is_activation_safe`];
///    a `false` answer makes the controller skip that request this cycle
///    (proactive throttling).
/// 2. After issuing an ACT it calls [`RowHammerDefense::on_activation`]; any
///    returned addresses are enqueued as victim-refresh requests (reactive
///    refresh).
/// 3. When accepting new requests it consults
///    [`RowHammerDefense::inflight_quota`] to limit a thread's in-flight
///    requests per bank (AttackThrottler-style throttling).
///
/// All addresses passed to the trait are memory-controller-visible; none of
/// the implementations in this crate require knowledge of DRAM-internal row
/// mappings except the reactive-refresh baselines, which — exactly as the
/// paper argues — must assume the controller-visible adjacency equals the
/// physical adjacency to identify victims.
///
/// Defenses must be [`Send`] so a system that owns them can move between
/// threads; every implementation is plain owned data anyway.
pub trait RowHammerDefense: AsAny + Send {
    /// Short mechanism name used in reports ("PARA", "Graphene", ...).
    fn name(&self) -> &'static str;

    /// Whether an activation of `addr` on behalf of `thread` may be issued
    /// at cycle `now`. Defaults to `true`; only throttling defenses
    /// override it.
    fn is_activation_safe(&mut self, now: Cycle, thread: ThreadId, addr: &DramAddress) -> bool {
        let _ = (now, thread, addr);
        true
    }

    /// Notifies the defense that an ACT to `addr` by `thread` was issued at
    /// `now`. Returns victim rows the controller must refresh.
    fn on_activation(
        &mut self,
        now: Cycle,
        thread: ThreadId,
        addr: &DramAddress,
    ) -> Vec<DramAddress>;

    /// Called once in every simulated cycle the controller ticks, before
    /// any other hook of that cycle: before the controller's passes
    /// consult the defense and before the system admits requests against
    /// its quotas. Defenses use it for epoch rollover; the default does
    /// nothing. BlockHammer advances its epoch clock only here and relies
    /// on this order.
    fn tick(&mut self, now: Cycle) {
        let _ = now;
    }

    /// The next cycle after `now` at which the defense's answers can change
    /// without any intervening controller activity (e.g. a counter-swap
    /// epoch boundary). `None` (the default) means the answers change only
    /// in response to the hooks the controller already drives.
    ///
    /// This is the whole stepping contract. Between hook calls,
    /// [`RowHammerDefense::is_activation_safe`] and
    /// [`RowHammerDefense::inflight_quota`] answer the same way until the
    /// returned cycle, however often they are asked, so the controller may
    /// skip every consult in between and event-driven stepping may skip
    /// every cycle. A veto that lifts with time alone must be reported
    /// here. A [`RowHammerDefense::tick`] is guaranteed at or before the
    /// returned cycle, so per-boundary work is never batched across a jump.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let _ = now;
        None
    }

    /// Maximum number of in-flight requests `thread` may have to
    /// `global_bank`, or `None` for no limit.
    fn inflight_quota(&self, thread: ThreadId, global_bank: usize) -> Option<u32> {
        let _ = (thread, global_bank);
        None
    }

    /// The RowHammer likelihood index of `<thread, bank>` if the defense
    /// computes one (Section 3.2.1); `0.0` otherwise.
    fn rhli(&self, thread: ThreadId, global_bank: usize) -> f64 {
        let _ = (thread, global_bank);
        0.0
    }

    /// Metadata storage footprint per DRAM rank (Table 4).
    fn metadata(&self) -> MetadataFootprint;

    /// Counters accumulated during the run.
    fn stats(&self) -> DefenseStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_double_sided_halves() {
        let t = RowHammerThreshold::new(32_000);
        assert_eq!(t.double_sided().get(), 16_000);
        assert_eq!(RowHammerThreshold::new(1).double_sided().get(), 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_threshold_panics() {
        let _ = RowHammerThreshold::new(0);
    }

    #[test]
    fn try_new_reports_field() {
        let err = RowHammerThreshold::try_new(0).unwrap_err();
        assert_eq!(err.field(), "n_rh");
        assert!(RowHammerThreshold::try_new(5).is_ok());
    }

    #[test]
    fn footprint_arithmetic() {
        let a = MetadataFootprint::sram(8 * 1024 * 10); // 10 KiB
        let b = MetadataFootprint::cam(8 * 1024 * 2); // 2 KiB
        let m = a.merged(&b);
        assert!((m.sram_kib() - 10.0).abs() < 1e-9);
        assert!((m.cam_kib() - 2.0).abs() < 1e-9);
        assert!((m.total_kib() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_value() {
        assert_eq!(RowHammerThreshold::new(1024).to_string(), "N_RH=1024");
    }
}
