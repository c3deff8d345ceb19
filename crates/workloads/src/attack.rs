//! RowHammer attack trace generators.
//!
//! The paper's attack model (Section 7) is a synthetic double-sided attack:
//! in every bank, two aggressor rows sandwiching a victim row are activated
//! alternately as fast as possible (`RA, RB, RA, RB, ...`). An
//! [`AttackGenerator`] produces exactly that access stream, or the
//! single-sided and many-sided variants used by the extension experiments,
//! emitting cache-bypassing reads with no intervening compute so the
//! attacking core saturates the memory system.

use bh_types::{DramAddress, DramOrganization, TraceRecord};

/// Which access pattern an attacker thread runs.
///
/// The paper's evaluation uses the double-sided attack exclusively; the
/// other variants exist for the extension experiments (and for campaigns
/// that sweep over attack patterns). All variants are periodic: they cycle
/// over a fixed address list, so a recorded trace of one full period
/// replayed in a loop reproduces the generator bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// Two aggressor rows sandwiching the victim (the paper's Section 7
    /// attack model, and the default everywhere).
    DoubleSided,
    /// A single aggressor row directly below the victim.
    SingleSided,
    /// `sides` aggressor rows around the victim (the TRRespass-style
    /// pattern used to defeat in-DRAM TRR).
    ManySided {
        /// Number of aggressor rows per attacked bank.
        sides: u32,
    },
}

impl Default for AttackKind {
    /// The paper's attack model.
    fn default() -> Self {
        AttackKind::DoubleSided
    }
}

impl AttackKind {
    /// Stable snake_case label used in thread names and reports (e.g.
    /// `attacker.double_sided`).
    pub fn label(&self) -> String {
        match self {
            AttackKind::DoubleSided => "double_sided".to_owned(),
            AttackKind::SingleSided => "single_sided".to_owned(),
            AttackKind::ManySided { sides } => format!("many_sided_{sides}"),
        }
    }

    /// Parses a [`AttackKind::label`] back into its kind — the inverse
    /// used when campaign specs arrive over the wire. `many_sided_<n>`
    /// carries its side count; a zero count (which no constructor
    /// produces) and unknown labels return `None`.
    pub fn from_label(label: &str) -> Option<AttackKind> {
        match label {
            "double_sided" => Some(AttackKind::DoubleSided),
            "single_sided" => Some(AttackKind::SingleSided),
            other => {
                let sides: u32 = other.strip_prefix("many_sided_")?.parse().ok()?;
                (sides > 0).then_some(AttackKind::ManySided { sides })
            }
        }
    }

    /// The number of aggressor rows per attacked bank.
    fn sides(&self) -> u32 {
        match self {
            AttackKind::DoubleSided => 2,
            AttackKind::SingleSided => 1,
            AttackKind::ManySided { sides } => *sides,
        }
    }

    /// Builds the trace generator for this kind of attack.
    ///
    /// # Panics
    ///
    /// Panics if the kind has no aggressor row, the aggressor rows would
    /// fall outside the bank, or `spec.banks_to_attack` is zero.
    pub fn build(&self, spec: AttackSpec) -> AttackGenerator {
        AttackGenerator::new(spec, self.sides())
    }
}

/// Parameters shared by every kind of attack.
#[derive(Debug, Clone, Copy)]
pub struct AttackSpec {
    /// Organization of the target system, which encodes the chosen rows'
    /// physical addresses.
    pub organization: DramOrganization,
    /// The victim row around which aggressor rows are chosen.
    pub victim_row: u64,
    /// Number of banks the attack cycles over (the paper hammers every
    /// bank; restricting to one bank concentrates the attack). Banks are
    /// numbered across the system, channel by channel: bank `b` is bank
    /// `b % banks_per_channel` of channel `b / banks_per_channel`.
    pub banks_to_attack: usize,
}

impl AttackSpec {
    /// An attack on every bank of `organization`, hammering around row
    /// 0x8000 (an arbitrary row in the middle of each bank).
    pub fn default_for(organization: DramOrganization) -> Self {
        Self {
            organization,
            victim_row: 0x8000,
            banks_to_attack: organization.total_banks(),
        }
    }
}

/// A RowHammer attack trace generator of any [`AttackKind`]: it cycles
/// over a fixed list of physical addresses, the aggressor rows of every
/// attacked bank.
#[derive(Debug, Clone)]
pub struct AttackGenerator {
    addresses: Vec<u64>,
    cursor: usize,
}

impl AttackGenerator {
    /// Builds an attack with `sides` aggressor rows per bank, alternating
    /// below and above the victim (-1, +1, -2, +2, ...). The list takes
    /// each aggressor row in turn across banks `0..banks_to_attack` (see
    /// [`AttackSpec::banks_to_attack`] for how they spread over channels):
    /// cycling over banks between consecutive activations of the same row
    /// maximizes activation throughput despite tRC, exactly like a real
    /// attacker would.
    ///
    /// # Panics
    ///
    /// Panics if `sides` is zero, the aggressor rows would fall outside the
    /// bank, or `spec.banks_to_attack` is zero.
    fn new(spec: AttackSpec, sides: u32) -> Self {
        assert!(sides > 0, "an attack needs at least one aggressor");
        assert!(spec.banks_to_attack > 0, "must attack at least one bank");
        let org = spec.organization;
        let reach = u64::from(sides).div_ceil(2);
        assert!(
            spec.victim_row >= reach && spec.victim_row + reach < org.rows_per_bank,
            "victim row must have space for {sides} aggressors"
        );
        let banks = spec.banks_to_attack.min(org.total_banks());
        let per_channel = org.banks_per_channel();
        let addresses = (0..u64::from(sides))
            .flat_map(|k| {
                let distance = k / 2 + 1;
                let row = if k % 2 == 0 {
                    spec.victim_row - distance
                } else {
                    spec.victim_row + distance
                };
                (0..banks).map(move |bank| {
                    let local = org.bank_address(bank % per_channel, row);
                    org.encode(&DramAddress::new(
                        bank / per_channel,
                        local.rank(),
                        local.bank_group(),
                        local.bank(),
                        row,
                        local.column(),
                    ))
                })
            })
            .collect();
        Self {
            addresses,
            cursor: 0,
        }
    }

    /// The generator's period: it repeats its address stream every
    /// `period()` records, so recording that many records and looping the
    /// file reproduces the infinite stream exactly.
    pub fn period(&self) -> usize {
        self.addresses.len()
    }
}

impl Iterator for AttackGenerator {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        let address = self.addresses[self.cursor % self.addresses.len()];
        self.cursor += 1;
        Some(TraceRecord::uncached_load(0, address))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn spec() -> AttackSpec {
        AttackSpec::default_for(DramOrganization::default())
    }

    #[test]
    fn double_sided_alternates_between_two_rows_per_bank() {
        let s = spec();
        let org = s.organization;
        let attack = AttackKind::DoubleSided.build(s);
        assert_eq!(attack.period(), 2 * org.total_banks());
        let records: Vec<_> = attack.take(4 * org.total_banks()).collect();
        for record in &records {
            let d = org.decode(record.address);
            assert!(
                d.row() == s.victim_row - 1 || d.row() == s.victim_row + 1,
                "attack touched row {:#x}, not an aggressor",
                d.row()
            );
            assert!(record.bypass_cache);
            assert_eq!(record.non_memory_instructions, 0);
        }
        // Both aggressors of bank 0 appear within one full cycle.
        let bank0_rows: HashSet<u64> = records
            .iter()
            .map(|r| org.decode(r.address))
            .filter(|d| org.bank_of(d) == 0)
            .map(|d| d.row())
            .collect();
        assert_eq!(bank0_rows.len(), 2);
    }

    #[test]
    fn attack_covers_every_bank() {
        let two_ranks = DramOrganization {
            ranks: 2,
            bank_groups: 3,
            ..DramOrganization::default()
        };
        for org in [DramOrganization::default(), two_ranks] {
            let attack = AttackKind::DoubleSided.build(AttackSpec::default_for(org));
            let period = attack.period();
            let mut visits = vec![0; org.banks_per_channel()];
            for record in attack.take(period) {
                visits[org.bank_of(&org.decode(record.address))] += 1;
            }
            assert_eq!(visits, vec![2; org.banks_per_channel()], "{org:?}");
        }
    }

    #[test]
    fn a_multi_channel_attack_hammers_every_bank_of_every_channel() {
        let two_channels = DramOrganization {
            channels: 2,
            ..DramOrganization::default()
        };
        let attack = AttackKind::DoubleSided.build(AttackSpec::default_for(two_channels));
        let period = attack.period();
        assert_eq!(period, 2 * two_channels.total_banks());
        let mut visits = vec![vec![0; two_channels.banks_per_channel()]; two_channels.channels];
        for record in attack.take(period) {
            let address = two_channels.decode(record.address);
            visits[address.channel()][two_channels.bank_of(&address)] += 1;
        }
        let every_bank_twice = vec![2; two_channels.banks_per_channel()];
        assert_eq!(visits, vec![every_bank_twice; two_channels.channels]);
    }

    #[test]
    fn many_sided_uses_the_requested_number_of_aggressors() {
        let s = spec();
        let org = s.organization;
        let rows: HashSet<u64> = AttackKind::ManySided { sides: 6 }
            .build(s)
            .take(6 * org.total_banks())
            .map(|r| org.decode(r.address).row())
            .collect();
        assert_eq!(rows.len(), 6);
        for row in rows {
            assert!((row as i64 - s.victim_row as i64).unsigned_abs() <= 3);
        }
    }

    #[test]
    fn attack_kinds_build_periodic_generators() {
        let s = spec();
        for kind in [
            AttackKind::DoubleSided,
            AttackKind::SingleSided,
            AttackKind::ManySided { sides: 4 },
        ] {
            let generator = kind.build(s);
            let period = generator.period();
            assert!(period > 0, "{} has a zero period", kind.label());
            let records: Vec<_> = kind.build(s).take(2 * period).collect();
            assert_eq!(
                &records[..period],
                &records[period..],
                "{} does not repeat after one period",
                kind.label()
            );
        }
    }

    #[test]
    fn every_kind_refuses_zero_banks() {
        let s = AttackSpec {
            banks_to_attack: 0,
            ..spec()
        };
        for kind in [
            AttackKind::DoubleSided,
            AttackKind::SingleSided,
            AttackKind::ManySided { sides: 4 },
        ] {
            let refusal = std::panic::catch_unwind(|| kind.build(s))
                .expect_err("a zero-bank attack was built");
            let message = refusal.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(message, "must attack at least one bank", "{}", kind.label());
        }
    }

    #[test]
    fn single_sided_uses_one_aggressor_row() {
        let s = spec();
        let org = s.organization;
        let rows: HashSet<u64> = AttackKind::SingleSided
            .build(s)
            .take(4 * org.total_banks())
            .map(|r| org.decode(r.address).row())
            .collect();
        assert_eq!(rows, HashSet::from([s.victim_row - 1]));
    }

    #[test]
    fn kind_labels_are_stable() {
        assert_eq!(AttackKind::DoubleSided.label(), "double_sided");
        assert_eq!(AttackKind::SingleSided.label(), "single_sided");
        assert_eq!(AttackKind::ManySided { sides: 6 }.label(), "many_sided_6");
        assert_eq!(AttackKind::default(), AttackKind::DoubleSided);
    }

    #[test]
    fn labels_round_trip_through_from_label() {
        for kind in [
            AttackKind::DoubleSided,
            AttackKind::SingleSided,
            AttackKind::ManySided { sides: 6 },
        ] {
            assert_eq!(AttackKind::from_label(&kind.label()), Some(kind));
        }
        assert_eq!(AttackKind::from_label("many_sided_0"), None);
        assert_eq!(AttackKind::from_label("many_sided_x"), None);
        assert_eq!(AttackKind::from_label("rowpress"), None);
    }

    #[test]
    #[should_panic(expected = "victim row")]
    fn victim_at_bank_edge_is_rejected() {
        let mut s = spec();
        s.victim_row = 0;
        let _ = AttackKind::DoubleSided.build(s);
    }
}
