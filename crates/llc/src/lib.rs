//! # llc
//!
//! A shared last-level cache model: set-associative, LRU replacement,
//! write-back / write-allocate, with MSHR-based miss merging and support
//! for cache-bypassing (non-temporal) accesses.
//!
//! The cache is deliberately decoupled from the memory controller: it
//! reports *what* needs to be fetched or written back, and the simulation
//! harness (the `sim` crate) moves those requests to the controller and
//! calls [`Llc::fill`] when data returns. This keeps the cache unit-testable
//! in isolation.
//!
//! ## Example
//!
//! ```
//! use llc::{AccessResult, Llc, LlcConfig};
//!
//! let mut llc = Llc::new(LlcConfig::default());
//! // A cold access misses and allocates an MSHR entry: the caller fetches
//! // the line.
//! assert!(matches!(llc.access(0x1000, false), AccessResult::MissAllocated));
//! // A second access to the same line merges into the outstanding miss
//! // and needs no fetch of its own.
//! assert!(matches!(llc.access(0x1008, false), AccessResult::MissMerged));
//! // When the line returns from memory the cache is filled.
//! let fill = llc.fill(0x1000);
//! assert!(fill.writeback.is_none());
//! // Subsequent accesses hit.
//! assert!(matches!(llc.access(0x1000, false), AccessResult::Hit));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bh_types::{ConfigError, FastSet};

/// Configuration of the last-level cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Cache-line size in bytes.
    pub line_bytes: u64,
    /// Load-to-use latency of a hit, in core cycles.
    pub hit_latency: u64,
    /// Maximum outstanding line fetches (MSHR entries).
    pub mshr_entries: usize,
}

impl Default for LlcConfig {
    /// The paper's LLC (Table 5): 16 MiB, 8-way, 64-byte lines.
    fn default() -> Self {
        Self {
            capacity_bytes: 16 * 1024 * 1024,
            associativity: 8,
            line_bytes: 64,
            hit_latency: 30,
            mshr_entries: 64,
        }
    }
}

impl LlcConfig {
    /// Number of sets implied by the configuration.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / (self.line_bytes * self.associativity as u64)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any dimension is zero, the line size is
    /// not a power of two, or the capacity is not an integer number of sets.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.capacity_bytes == 0 {
            return Err(ConfigError::new("capacity_bytes", "must be non-zero"));
        }
        if self.associativity == 0 {
            return Err(ConfigError::new("associativity", "must be non-zero"));
        }
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err(ConfigError::new("line_bytes", "must be a power of two"));
        }
        if self.mshr_entries == 0 {
            return Err(ConfigError::new("mshr_entries", "must be non-zero"));
        }
        if self.capacity_bytes % (self.line_bytes * self.associativity as u64) != 0 {
            return Err(ConfigError::new(
                "capacity_bytes",
                "must be a multiple of line_bytes * associativity",
            ));
        }
        Ok(())
    }
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The line is resident; data is available after the hit latency.
    Hit,
    /// The line is not resident and a new outstanding fetch was allocated;
    /// the caller must fetch the line from memory and call [`Llc::fill`].
    MissAllocated,
    /// The line is not resident but a fetch is already outstanding; the
    /// caller should wait for the existing fill.
    MissMerged,
    /// The line is not resident and no MSHR entry is available; retry later.
    MshrFull,
}

/// Result of filling a line into the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fill {
    /// Physical address of a dirty line that was evicted and must be
    /// written back to memory, if any.
    pub writeback: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
    /// Larger = more recently used.
    lru: u64,
}

/// Aggregate cache statistics.
#[derive(Debug, Clone, Default)]
pub struct LlcStats {
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed (allocated or merged). An access
    /// refused for full MSHRs is retried, and counts only when it resolves.
    pub misses: u64,
}

/// The shared last-level cache.
#[derive(Debug)]
pub struct Llc {
    config: LlcConfig,
    sets: Vec<Vec<Line>>,
    /// Outstanding line fetches (line-aligned addresses).
    mshr: FastSet<u64>,
    lru_clock: u64,
    stats: LlcStats,
}

impl Llc {
    /// Creates a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`LlcConfig::validate`]).
    pub fn new(config: LlcConfig) -> Self {
        // lint: allow(panic-freedom) -- documented constructor contract; LlcConfig::validate is the fallible path
        config.validate().expect("invalid LLC configuration");
        Self {
            sets: vec![Vec::with_capacity(config.associativity); config.sets() as usize],
            mshr: FastSet::default(),
            lru_clock: 0,
            stats: LlcStats::default(),
            config,
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> &LlcConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &LlcStats {
        &self.stats
    }

    fn line_addr(&self, phys: u64) -> u64 {
        phys & !(self.config.line_bytes - 1)
    }

    fn set_index(&self, line_addr: u64) -> usize {
        ((line_addr / self.config.line_bytes) % self.config.sets()) as usize
    }

    fn tag(&self, line_addr: u64) -> u64 {
        line_addr / self.config.line_bytes / self.config.sets()
    }

    /// Line-aligned address of `phys` (exposed so callers can key their
    /// miss bookkeeping consistently with the cache's merging).
    pub fn line_of(&self, phys: u64) -> u64 {
        self.line_addr(phys)
    }

    /// Performs a demand access. Only [`AccessResult::MissAllocated`]
    /// asks the caller to fetch the line: its MSHR entry lives until
    /// [`Llc::fill`] delivers that fetch, and every other miss to the line
    /// meanwhile merges into it.
    pub fn access(&mut self, phys: u64, is_write: bool) -> AccessResult {
        let line_addr = self.line_addr(phys);
        let set_idx = self.set_index(line_addr);
        let tag = self.tag(line_addr);
        self.lru_clock += 1;
        if let Some(line) = self.sets[set_idx].iter_mut().find(|l| l.tag == tag) {
            line.lru = self.lru_clock;
            if is_write {
                line.dirty = true;
            }
            self.stats.hits += 1;
            return AccessResult::Hit;
        }
        if self.mshr.len() >= self.config.mshr_entries && !self.mshr.contains(&line_addr) {
            return AccessResult::MshrFull;
        }
        self.stats.misses += 1;
        if self.mshr.insert(line_addr) {
            AccessResult::MissAllocated
        } else {
            AccessResult::MissMerged
        }
    }

    /// Installs the line containing `phys` (previously reported as
    /// [`AccessResult::MissAllocated`]) and returns an eventual dirty
    /// eviction. Write-allocated lines are marked dirty by the subsequent
    /// retry of the store, so fills always install clean lines.
    pub fn fill(&mut self, phys: u64) -> Fill {
        let line_addr = self.line_addr(phys);
        self.mshr.remove(&line_addr);
        let set_idx = self.set_index(line_addr);
        let tag = self.tag(line_addr);
        if self.sets[set_idx].iter().any(|l| l.tag == tag) {
            return Fill { writeback: None };
        }
        self.lru_clock += 1;
        let lru_clock = self.lru_clock;
        let associativity = self.config.associativity;
        let set = &mut self.sets[set_idx];
        if set.len() < associativity {
            set.push(Line {
                tag,
                dirty: false,
                lru: lru_clock,
            });
            return Fill { writeback: None };
        }
        // Evict the least recently used way.
        let victim_idx = set
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.lru)
            .map(|(i, _)| i)
            // lint: allow(panic-freedom) -- validated associativity >= 1 means every set is non-empty
            .expect("set is non-empty");
        let victim = set[victim_idx];
        set[victim_idx] = Line {
            tag,
            dirty: false,
            lru: lru_clock,
        };
        let writeback = victim
            .dirty
            .then(|| (victim.tag * self.config.sets() + set_idx as u64) * self.config.line_bytes);
        Fill { writeback }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Llc {
        Llc::new(LlcConfig {
            capacity_bytes: 8 * 1024,
            associativity: 2,
            line_bytes: 64,
            hit_latency: 10,
            mshr_entries: 4,
        })
    }

    #[test]
    fn default_config_matches_table5() {
        let c = LlcConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.capacity_bytes, 16 * 1024 * 1024);
        assert_eq!(c.associativity, 8);
        assert_eq!(c.sets(), 32_768);
    }

    #[test]
    fn validate_rejects_bad_line_size() {
        let c = LlcConfig {
            line_bytes: 48,
            ..LlcConfig::default()
        };
        assert_eq!(c.validate().unwrap_err().field(), "line_bytes");
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut llc = small_cache();
        assert_eq!(llc.access(0x1000, false), AccessResult::MissAllocated);
        assert_eq!(llc.access(0x1020, false), AccessResult::MissMerged);
        let fill = llc.fill(0x1000);
        assert!(fill.writeback.is_none());
        assert_eq!(llc.access(0x1000, false), AccessResult::Hit);
        assert_eq!((llc.stats().hits, llc.stats().misses), (1, 2));
    }

    #[test]
    fn dirty_eviction_generates_writeback() {
        let mut llc = small_cache();
        let sets = llc.config().sets();
        // Three lines mapping to the same set in a 2-way cache.
        let a = 0;
        let b = sets * 64;
        let c = 2 * sets * 64;
        for addr in [a, b] {
            assert_eq!(llc.access(addr, true), AccessResult::MissAllocated);
            llc.fill(addr);
            // Retry of the store marks the line dirty.
            assert_eq!(llc.access(addr, true), AccessResult::Hit);
        }
        assert_eq!(llc.access(c, false), AccessResult::MissAllocated);
        let fill = llc.fill(c);
        let wb = fill.writeback.expect("a dirty line must be written back");
        assert!(wb == a || wb == b, "writeback {wb:#x} is not a or b");
    }

    #[test]
    fn mshr_capacity_is_enforced() {
        let mut llc = small_cache();
        for i in 0..4u64 {
            assert_eq!(
                llc.access(0x10_000 + i * 64, false),
                AccessResult::MissAllocated
            );
        }
        assert_eq!(
            llc.access(0x20_000, false),
            AccessResult::MshrFull,
            "fifth outstanding miss must be rejected"
        );
        assert_eq!(llc.stats().misses, 4, "a refused access is not a miss");
        assert_eq!(
            llc.access(0x10_008, false),
            AccessResult::MissMerged,
            "a full MSHR still merges misses to an outstanding line"
        );
        llc.fill(0x10_000);
        assert_eq!(llc.access(0x20_000, false), AccessResult::MissAllocated);
    }

    #[test]
    fn lru_keeps_recently_used_lines() {
        let mut llc = small_cache();
        let sets = llc.config().sets();
        let a = 0;
        let b = sets * 64;
        let c = 2 * sets * 64;
        for addr in [a, b] {
            llc.access(addr, false);
            llc.fill(addr);
        }
        // Touch `a` so `b` becomes the LRU victim.
        assert_eq!(llc.access(a, false), AccessResult::Hit);
        llc.access(c, false);
        llc.fill(c);
        assert_eq!(llc.access(a, false), AccessResult::Hit);
        assert_eq!(llc.access(b, false), AccessResult::MissAllocated);
    }
}
