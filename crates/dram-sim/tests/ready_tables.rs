//! Soundness of the device's ready-time table and open-bank set: after
//! every command of a random legal command sequence,
//! [`DramDevice::legal_banks`] must answer exactly as per-bank
//! [`DramDevice::can_issue`] checks do (column commands addressing the
//! bank's open row), and leave the same earliest refused cycle for
//! [`DramDevice::take_retry_at`]; and [`DramDevice::open_banks`] and
//! [`DramDevice::open_row_of`] must agree with [`DramDevice::open_row`] on
//! every bank.

use bh_types::{Cycle, DramAddress, DramOrganization, MemCommand, TimeConverter};
use dram_sim::{DramDevice, DramTimings};
use proptest::prelude::*;

/// The default geometry, two ranks, and a non-power-of-two one.
fn geometries() -> [DramOrganization; 3] {
    let default = DramOrganization::default();
    [
        default,
        DramOrganization {
            ranks: 2,
            ..default
        },
        DramOrganization {
            bank_groups: 3,
            banks_per_group: 3,
            ..default
        },
    ]
}

/// A small deterministic generator (splitmix64) for the command sequence.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The address a command to `bank` uses: a column command the open row.
fn command_addr(dram: &DramDevice, bank: usize, row: u64) -> DramAddress {
    let org = dram.organization();
    let open = dram.open_row(&org.bank_address(bank, 0));
    org.bank_address(bank, open.unwrap_or(row))
}

/// Checks `legal_banks` for every per-bank command on `set` at `now`
/// against the per-bank loop, legal set and retry cycle alike.
fn check(dram: &DramDevice, set: u64, now: Cycle) {
    let per_bank_commands = [
        MemCommand::Activate,
        MemCommand::Precharge,
        MemCommand::Read,
        MemCommand::Write,
    ];
    for cmd in per_bank_commands {
        dram.take_retry_at();
        let legal = dram.legal_banks(cmd, set, now);
        let retry = dram.take_retry_at();
        let mut expected = 0u64;
        for bank in (0..64).filter(|bank| set >> bank & 1 == 1) {
            if dram.can_issue(cmd, &command_addr(dram, bank, 0), now) {
                expected |= 1 << bank;
            }
        }
        let expected_retry = dram.take_retry_at();
        assert_eq!(
            (legal, retry),
            (expected, expected_retry),
            "{cmd} on banks {set:#x} at cycle {now}"
        );
    }
}

/// Checks the open-bank set and every bank's index-based open row against
/// the address-based [`DramDevice::open_row`].
fn check_open_rows(dram: &DramDevice) {
    let org = dram.organization();
    let mut open = 0u64;
    for bank in 0..org.banks_per_channel() {
        let row = dram.open_row(&org.bank_address(bank, 0));
        assert_eq!(dram.open_row_of(bank), row, "open row of bank {bank}");
        if row.is_some() {
            open |= 1 << bank;
        }
    }
    assert_eq!(dram.open_banks(), open, "open-bank set");
}

proptest! {
    #[test]
    fn legal_banks_match_per_bank_checks(
        geometry in 0usize..3,
        seed in 0u64..u64::MAX,
        steps in 20usize..300,
    ) {
        let org = geometries()[geometry];
        let timings = DramTimings::ddr4_2400().into_cycles(&TimeConverter::default());
        let mut dram = DramDevice::new(org, timings);
        let banks = org.banks_per_channel();
        let all = u64::MAX >> (64 - banks);
        let mut rng = Rng(seed);
        let mut now: Cycle = 0;
        check(&dram, all, now);
        check_open_rows(&dram);
        for _ in 0..steps {
            let bank = rng.below(banks as u64) as usize;
            let cmd = match rng.below(9) {
                0..=2 => MemCommand::Activate,
                3 | 4 => MemCommand::Precharge,
                5 | 6 => MemCommand::Read,
                7 => MemCommand::Write,
                _ => MemCommand::Refresh,
            };
            let mut addr = command_addr(&dram, bank, rng.below(8));
            let mut cmd = cmd;
            if cmd == MemCommand::Refresh && dram.earliest_issue(cmd, &addr).is_none() {
                // REF needs its rank closed: precharge an open bank of it.
                let rank = addr.rank();
                let open = org
                    .rank_banks(rank)
                    .find(|&b| dram.open_row_of(b).is_some());
                if let Some(open) = open {
                    cmd = MemCommand::Precharge;
                    addr = org.bank_address(open, 0);
                }
            }
            // Issue the command at its earliest legal cycle, a few cycles
            // late at random so timing constraints end up both met and not.
            let Some(at) = dram.earliest_issue(cmd, &addr) else {
                continue;
            };
            now = now.max(at) + rng.below(4);
            dram.issue(cmd, &addr, now);
            check_open_rows(&dram);
            for probe in [now, now + 1 + rng.below(64), now + rng.below(timings.t_rfc + 1)] {
                check(&dram, all, probe);
                check(&dram, rng.next() & all, probe);
            }
        }
    }
}
