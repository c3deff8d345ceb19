//! Hardware cost model (Table 4): per-rank metadata storage, chip area,
//! access energy and static power of BlockHammer and the six baselines.
//!
//! The paper obtains these numbers from CACTI 6.0 and Synopsys DC. Those
//! tools are not available here, so this module uses an analytic model:
//! each mechanism's *metadata storage* (SRAM and CAM bits, computed exactly
//! from its configuration by the `mitigations` crate and by BlockHammer
//! itself) is multiplied by per-kibibyte technology coefficients that are
//! calibrated once against the per-structure values the paper reports for
//! BlockHammer at `N_RH` = 32K (Table 4, left half). Absolute numbers for
//! other mechanisms therefore deviate where their access behaviour differs
//! from a plain SRAM/CAM lookup (most visibly Graphene's fully-associative
//! search energy), but the quantity the paper's argument rests on — how
//! each mechanism's cost *scales* as `N_RH` drops from 32K to 1K — is
//! carried entirely by the storage growth, which is modelled exactly.
//! The README section "Substitutions and scaled time" records this
//! substitution.

use crate::config::BlockHammerConfig;
use crate::defense::{BlockHammer, OperatingMode};
use mitigations::{
    Cbt, DefenseGeometry, Graphene, MetadataFootprint, MrLoc, Para, ProHit, RowHammerDefense,
    RowHammerThreshold, TwiCe,
};
use serde::{Deserialize, Serialize};

/// Chip area per KiB of plain SRAM, in mm² (65 nm, calibrated to the
/// paper's D-CBF figure: 48 KiB -> 0.11 mm²).
pub const SRAM_AREA_MM2_PER_KIB: f64 = 0.002_3;
/// Chip area per KiB of CAM, in mm² (calibrated to the history buffer:
/// 1.73 KiB CAM + 1.73 KiB SRAM -> 0.03 mm²).
pub const CAM_AREA_MM2_PER_KIB: f64 = 0.015;
/// Access energy per KiB of SRAM touched per query, in pJ.
pub const SRAM_ENERGY_PJ_PER_KIB: f64 = 0.377;
/// Access energy per KiB of CAM searched per query, in pJ.
pub const CAM_ENERGY_PJ_PER_KIB: f64 = 0.68;
/// Static power per KiB of SRAM, in mW.
pub const SRAM_STATIC_MW_PER_KIB: f64 = 0.413;
/// Static power per KiB of CAM, in mW.
pub const CAM_STATIC_MW_PER_KIB: f64 = 0.77;
/// Reference CPU die area used to express the "% of CPU" column; chosen so
/// that BlockHammer's 0.14 mm² at N_RH = 32K corresponds to the 0.06% the
/// paper reports.
pub const CPU_DIE_AREA_MM2: f64 = 233.0;

/// One row of Table 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HwCostRow {
    /// Mechanism name.
    pub mechanism: String,
    /// SRAM storage per rank, KiB.
    pub sram_kib: f64,
    /// CAM storage per rank, KiB.
    pub cam_kib: f64,
    /// Chip area per rank, mm².
    pub area_mm2: f64,
    /// Area as a percentage of the reference CPU die.
    pub cpu_area_percent: f64,
    /// Energy per metadata access, pJ.
    pub access_energy_pj: f64,
    /// Static power, mW.
    pub static_power_mw: f64,
}

/// Converts a metadata footprint into a cost row.
pub fn cost_of(mechanism: &str, metadata: &MetadataFootprint) -> HwCostRow {
    let sram = metadata.sram_kib();
    let cam = metadata.cam_kib();
    let area = sram * SRAM_AREA_MM2_PER_KIB + cam * CAM_AREA_MM2_PER_KIB;
    HwCostRow {
        mechanism: mechanism.to_owned(),
        sram_kib: sram,
        cam_kib: cam,
        area_mm2: area,
        cpu_area_percent: area / CPU_DIE_AREA_MM2 * 100.0,
        access_energy_pj: sram * SRAM_ENERGY_PJ_PER_KIB + cam * CAM_ENERGY_PJ_PER_KIB,
        static_power_mw: sram * SRAM_STATIC_MW_PER_KIB + cam * CAM_STATIC_MW_PER_KIB,
    }
}

/// Builds the full Table 4 comparison (all seven mechanisms) for a given
/// RowHammer threshold.
///
/// PRoHIT and MRLoc do not define how to re-tune their empirical parameters
/// for other thresholds (as the paper notes); their rows are only
/// meaningful at the fixed design point and are included unchanged.
pub fn table4(n_rh: RowHammerThreshold, geometry: &DefenseGeometry) -> Vec<HwCostRow> {
    // tREFI at the simulation clock, used by mechanisms that need a pacing
    // interval.
    let t_refi_cycles = 24_960;
    let para = Para::new(n_rh, 1e-15, *geometry, 0);
    let prohit = ProHit::new(*geometry, t_refi_cycles, 0);
    let mrloc = MrLoc::new(n_rh, 1e-15, *geometry, 0);
    let cbt = Cbt::new(n_rh, *geometry);
    let twice = TwiCe::new(n_rh, t_refi_cycles, *geometry);
    let graphene = Graphene::new(n_rh, *geometry);
    let config = BlockHammerConfig::for_rowhammer_threshold(n_rh, geometry);
    let blockhammer = BlockHammer::new(config, *geometry, OperatingMode::FullFunctional);
    vec![
        cost_of(blockhammer.name(), &blockhammer.metadata()),
        cost_of(para.name(), &para.metadata()),
        cost_of(prohit.name(), &prohit.metadata()),
        cost_of(mrloc.name(), &mrloc.metadata()),
        cost_of(cbt.name(), &cbt.metadata()),
        cost_of(twice.name(), &twice.metadata()),
        cost_of(graphene.name(), &graphene.metadata()),
    ]
}

/// Renders Table 4 rows as an aligned plain-text table (used by the
/// `bench` crate's `paper` binary).
pub fn render_table(rows: &[HwCostRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>10} {:>10} {:>10} {:>8} {:>12} {:>12}\n",
        "Mechanism", "SRAM KiB", "CAM KiB", "Area mm2", "% CPU", "Energy pJ", "Static mW"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<22} {:>10.2} {:>10.2} {:>10.3} {:>8.3} {:>12.2} {:>12.2}\n",
            row.mechanism,
            row.sram_kib,
            row.cam_kib,
            row.area_mm2,
            row.cpu_area_percent,
            row.access_energy_pj,
            row.static_power_mw
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n_rh: u64) -> Vec<HwCostRow> {
        table4(RowHammerThreshold::new(n_rh), &DefenseGeometry::default())
    }

    fn find<'a>(rows: &'a [HwCostRow], name: &str) -> &'a HwCostRow {
        rows.iter()
            .find(|r| r.mechanism == name)
            .unwrap_or_else(|| panic!("no row for {name}"))
    }

    #[test]
    fn blockhammer_at_32k_matches_table4_anchor() {
        let rows = rows(32_768);
        let bh = find(&rows, "BlockHammer");
        // Paper: 51.48 KiB SRAM, 1.73 KiB CAM, 0.14 mm², 0.06% CPU.
        assert!((40.0..70.0).contains(&bh.sram_kib), "SRAM {}", bh.sram_kib);
        assert!((1.0..6.0).contains(&bh.cam_kib), "CAM {}", bh.cam_kib);
        assert!((0.10..0.22).contains(&bh.area_mm2), "area {}", bh.area_mm2);
        assert!(
            (0.03..0.10).contains(&bh.cpu_area_percent),
            "% CPU {}",
            bh.cpu_area_percent
        );
    }

    #[test]
    fn probabilistic_mechanisms_are_tiny() {
        let rows = rows(32_768);
        for name in ["PARA", "PRoHIT", "MRLoc"] {
            let row = find(&rows, name);
            assert!(
                row.area_mm2 < 0.02,
                "{name} should be well below every table-based mechanism"
            );
        }
    }

    #[test]
    fn table_based_baselines_blow_up_at_1k_faster_than_blockhammer() {
        let at_32k = rows(32_768);
        let at_1k = rows(1_024);
        let growth =
            |name: &str| find(&at_1k, name).area_mm2 / find(&at_32k, name).area_mm2.max(1e-9);
        let bh_growth = growth("BlockHammer");
        // Paper: TWiCe and CBT end up at 3.3x / 2.5x of BlockHammer's area
        // at N_RH = 1K; what matters for the claim is that their growth
        // outpaces BlockHammer's.
        assert!(
            growth("TWiCe") > bh_growth,
            "TWiCe growth {} vs BlockHammer {}",
            growth("TWiCe"),
            bh_growth
        );
        assert!(
            growth("CBT") > bh_growth,
            "CBT growth {} vs BlockHammer {}",
            growth("CBT"),
            bh_growth
        );
        // Graphene's cost also rises steeply (22x energy in the paper).
        let graphene_energy_growth =
            find(&at_1k, "Graphene").access_energy_pj / find(&at_32k, "Graphene").access_energy_pj;
        assert!(graphene_energy_growth > 10.0);
    }

    #[test]
    fn blockhammer_area_stays_below_one_percent_of_the_cpu_at_1k() {
        let rows_1k = rows(1_024);
        let rows_32k = rows(32_768);
        let bh = find(&rows_1k, "BlockHammer");
        // Paper: 1.57 mm² / 0.64% at N_RH = 1K.
        assert!(bh.cpu_area_percent < 1.5, "{}", bh.cpu_area_percent);
        assert!(bh.area_mm2 > find(&rows_32k, "BlockHammer").area_mm2);
    }

    #[test]
    fn rendered_table_contains_every_mechanism() {
        let rows = rows(32_768);
        let text = render_table(&rows);
        for name in [
            "BlockHammer",
            "PARA",
            "PRoHIT",
            "MRLoc",
            "CBT",
            "TWiCe",
            "Graphene",
        ] {
            assert!(text.contains(name), "missing {name} in rendered table");
        }
        assert!(text.lines().count() >= 8);
    }
}
