//! PRoHIT: probabilistic reactive refresh with a hot/cold history table
//! (Son et al., DAC 2017).
//!
//! PRoHIT extends PARA with a small probabilistically-managed table of
//! potential victim rows. Victims of observed activations are inserted into
//! a *cold* table with low probability; repeated insertions promote an
//! entry towards (and within) a *hot* table. On every periodic refresh
//! opportunity the top entry of the hot table is refreshed, so frequently
//! hammered victims get refreshed much sooner than under plain PARA.
//!
//! The implementation follows the structure and the default parameters of
//! the original proposal (4-entry hot table, 4-entry cold table, insertion
//! probability 1/16, promotion probability 1/2); the paper notes PRoHIT
//! does not define how to re-tune these for other `N_RH` values, which is
//! why the BlockHammer paper only evaluates it at a fixed design point.

use crate::defense::{DefenseStats, MetadataFootprint, RowHammerDefense};
use crate::geometry::DefenseGeometry;
use bh_types::{Cycle, DramAddress, ThreadId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const HOT_ENTRIES: usize = 4;
const COLD_ENTRIES: usize = 4;
const INSERT_PROBABILITY: f64 = 1.0 / 16.0;
const PROMOTE_PROBABILITY: f64 = 1.0 / 2.0;

#[derive(Debug, Clone)]
struct Tables {
    /// Victim rows ordered from most to least promoted.
    hot: Vec<u64>,
    cold: Vec<u64>,
}

impl Tables {
    fn new() -> Self {
        Self {
            hot: Vec::with_capacity(HOT_ENTRIES),
            cold: Vec::with_capacity(COLD_ENTRIES),
        }
    }
}

/// The PRoHIT probabilistic history-table mechanism.
#[derive(Debug, Clone)]
pub struct ProHit {
    /// One hot/cold table pair per bank, indexed by global bank index.
    tables: Vec<Tables>,
    geometry: DefenseGeometry,
    /// Cycles between servicing opportunities (we use tREFI-like pacing).
    service_interval: Cycle,
    next_service: Cycle,
    rng: StdRng,
    stats: DefenseStats,
    /// Victim refreshes scheduled at the next service point, per bank.
    pending_service: Vec<Option<u64>>,
}

impl ProHit {
    /// Creates PRoHIT with the original paper's default table sizes and
    /// probabilities. `service_interval` is the pacing of table-driven
    /// refreshes (the proposal piggybacks on regular refresh operations, so
    /// a tREFI-scale interval in cycles is appropriate).
    pub fn new(geometry: DefenseGeometry, service_interval: Cycle, seed: u64) -> Self {
        Self {
            tables: (0..geometry.organization.banks_per_channel())
                .map(|_| Tables::new())
                .collect(),
            geometry,
            service_interval: service_interval.max(1),
            next_service: service_interval.max(1),
            rng: StdRng::seed_from_u64(seed),
            stats: DefenseStats::default(),
            pending_service: vec![None; geometry.organization.banks_per_channel()],
        }
    }

    fn observe_victim(&mut self, bank: usize, victim_row: u64) {
        let promote = self.rng.gen_bool(PROMOTE_PROBABILITY);
        let insert = self.rng.gen_bool(INSERT_PROBABILITY);
        let t = &mut self.tables[bank];
        if let Some(pos) = t.hot.iter().position(|&r| r == victim_row) {
            // Already hot: move towards the top with the promotion probability.
            if promote && pos > 0 {
                t.hot.swap(pos, pos - 1);
            }
        } else if let Some(pos) = t.cold.iter().position(|&r| r == victim_row) {
            // Promote from cold to hot.
            if promote {
                t.cold.remove(pos);
                if t.hot.len() == HOT_ENTRIES {
                    // lint: allow(panic-freedom) -- guarded by the HOT_ENTRIES length check on the previous line
                    let demoted = t.hot.pop().expect("hot table is full");
                    if t.cold.len() == COLD_ENTRIES {
                        t.cold.pop();
                    }
                    t.cold.insert(0, demoted);
                }
                t.hot.push(victim_row);
            }
        } else if insert {
            if t.cold.len() == COLD_ENTRIES {
                t.cold.pop();
            }
            t.cold.insert(0, victim_row);
        }
    }
}

impl RowHammerDefense for ProHit {
    fn name(&self) -> &'static str {
        "PRoHIT"
    }

    fn on_activation(
        &mut self,
        now: Cycle,
        _thread: ThreadId,
        addr: &DramAddress,
    ) -> Vec<DramAddress> {
        self.stats.record_activation();
        let bank = self.geometry.organization.bank_of(addr);
        let rows = self.geometry.organization.rows_per_bank;
        for offset in [-1i64, 1] {
            if let Some(v) = addr.neighbor_row(offset, rows) {
                self.observe_victim(bank, v.row());
            }
        }
        // At each service point, refresh the top hot entry of this bank (the
        // original proposal performs this on refresh commands; returning it
        // from the activation path keeps the controller interface uniform).
        if now >= self.next_service {
            self.next_service = now + self.service_interval;
            for (bank_idx, tables) in self.tables.iter_mut().enumerate() {
                if let Some(top) = tables.hot.first().copied() {
                    tables.hot.remove(0);
                    self.pending_service[bank_idx] = Some(top);
                }
            }
        }
        if let Some(row) = self.pending_service[bank].take() {
            self.stats.victim_refreshes += 1;
            return vec![addr.with_row(row)];
        }
        Vec::new()
    }

    fn metadata(&self) -> MetadataFootprint {
        // 8 entries per bank, each a row address (~17 bits) held in a small
        // CAM, matching the ~0.22 KiB per rank the paper reports.
        let entry_bits = 17;
        let banks = self.geometry.organization.banks_per_rank() as u64;
        MetadataFootprint::cam(banks * (HOT_ENTRIES + COLD_ENTRIES) as u64 * entry_bits)
    }

    fn stats(&self) -> DefenseStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prohit() -> ProHit {
        ProHit::new(DefenseGeometry::default(), 1000, 7)
    }

    #[test]
    fn hammered_victims_eventually_get_refreshed() {
        let mut d = prohit();
        let aggressor = DramAddress::new(0, 0, 0, 0, 1000, 0);
        let mut refreshed = Vec::new();
        for i in 0..200_000u64 {
            refreshed.extend(d.on_activation(i, ThreadId::new(0), &aggressor));
        }
        assert!(
            !refreshed.is_empty(),
            "a heavily hammered row's neighbours must eventually be refreshed"
        );
        for v in &refreshed {
            assert!(v.row() == 999 || v.row() == 1001);
        }
    }

    #[test]
    fn sparse_benign_accesses_cause_few_refreshes() {
        let mut d = prohit();
        let mut refreshes = 0usize;
        // Touch many different rows once each: the table churns but the
        // service path rarely finds a promoted victim.
        for i in 0..20_000u64 {
            let addr = DramAddress::new(0, 0, 0, 0, (i * 37) % 60_000, 0);
            refreshes += d.on_activation(i, ThreadId::new(0), &addr).len();
        }
        let rate = refreshes as f64 / 20_000.0;
        assert!(rate < 0.05, "benign refresh rate too high: {rate}");
    }

    #[test]
    fn metadata_is_a_fraction_of_a_kilobyte() {
        let d = prohit();
        assert!(d.metadata().total_kib() < 0.5);
        assert!(d.metadata().cam_bits > 0);
    }

    #[test]
    fn never_blocks_activations() {
        let mut d = prohit();
        let addr = DramAddress::new(0, 0, 0, 0, 5, 0);
        assert!(d.is_activation_safe(0, ThreadId::new(0), &addr));
    }
}
