//! Plain-text table rendering for experiment results.
//!
//! The `bench` crate's `paper` binary prints these tables, for the
//! in-process drivers and the campaign-run figures alike; they mirror the
//! rows and series of the paper's figures so the reproduction can be
//! compared side-by-side with the published plots.

use crate::experiments::{FalsePositiveStudy, Figure4Row, MultiProgramRow, RhliStudy, Table8Row};

/// Renders the Figure 4 rows (normalized execution time and DRAM energy per
/// defense and workload category).
pub fn render_figure4(rows: &[Figure4Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:<4} {:>18} {:>18}\n",
        "Defense", "Cat", "Norm. exec. time", "Norm. DRAM energy"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<14} {:<4} {:>18.4} {:>18.4}\n",
            row.defense, row.category, row.normalized_execution_time, row.normalized_dram_energy
        ));
    }
    out
}

/// Renders Figure 5 / Figure 6 rows (normalized multiprogrammed metrics).
pub fn render_multiprogram(rows: &[MultiProgramRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:<10} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
        "Defense", "Scenario", "N_RH", "Weighted", "Harmonic", "MaxSlowdown", "DRAM energy"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<14} {:<10} {:>8} {:>12.4} {:>12.4} {:>12.4} {:>12.4}\n",
            row.defense,
            row.scenario,
            row.n_rh,
            row.normalized.weighted_speedup,
            row.normalized.harmonic_speedup,
            row.normalized.max_slowdown,
            row.normalized.dram_energy_joules
        ));
    }
    out
}

/// Renders the RHLI study (Section 3.2.1).
pub fn render_rhli(study: &RhliStudy) -> String {
    format!(
        "RHLI study (Section 3.2.1)\n\
         observe-only attacker RHLI : {:.3}\n\
         observe-only benign RHLI   : {:.3}\n\
         full-functional attacker   : {:.3}\n\
         reduction factor           : {:.1}x\n",
        study.observe_attacker_rhli,
        study.observe_benign_rhli,
        study.full_attacker_rhli,
        study.reduction_factor
    )
}

/// Renders the false-positive study (Section 8.4).
pub fn render_false_positives(study: &FalsePositiveStudy) -> String {
    format!(
        "False-positive study (Section 8.4)\n\
         false positive rate : {:.5}%\n\
         delay P50           : {:.2} us\n\
         delay P90           : {:.2} us\n\
         delay P100          : {:.2} us\n\
         theoretical tDelay  : {:.2} us\n",
        study.false_positive_rate * 100.0,
        study.delay_p50_us,
        study.delay_p90_us,
        study.delay_p100_us,
        study.t_delay_us
    )
}

/// Renders the Table 8 reproduction (paper vs measured MPKI / RBCPKI).
pub fn render_table8(rows: &[Table8Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:<4} {:>12} {:>12} {:>14} {:>14}\n",
        "Workload", "Cat", "paper MPKI", "paper RBC", "measured MPKI", "measured RBC"
    ));
    for row in rows {
        let paper_mpki = row
            .paper_mpki
            .map(|v| format!("{v:.1}"))
            .unwrap_or_else(|| "-".to_owned());
        out.push_str(&format!(
            "{:<24} {:<4} {:>12} {:>12.1} {:>14.2} {:>14.2}\n",
            row.name,
            row.category,
            paper_mpki,
            row.paper_rbcpki,
            row.measured_mpki,
            row.measured_rbcpki
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MultiProgramMetrics;

    #[test]
    fn multiprogram_table_contains_all_rows() {
        let rows = vec![MultiProgramRow {
            defense: "BlockHammer".into(),
            scenario: "attack".into(),
            n_rh: 32_768,
            normalized: MultiProgramMetrics {
                weighted_speedup: 1.45,
                harmonic_speedup: 1.56,
                max_slowdown: 0.77,
                dram_energy_joules: 0.71,
            },
        }];
        let text = render_multiprogram(&rows);
        assert!(text.contains("BlockHammer"));
        assert!(text.contains("attack"));
        assert!(text.contains("1.45"));
    }

    #[test]
    fn table8_renders_missing_mpki_as_dash() {
        let rows = vec![Table8Row {
            name: "ycsb.B.like".into(),
            category: "M".into(),
            paper_mpki: None,
            paper_rbcpki: 1.1,
            measured_mpki: 4.9,
            measured_rbcpki: 1.3,
        }];
        let text = render_table8(&rows);
        assert!(text.contains('-'));
        assert!(text.contains("ycsb.B.like"));
    }

    #[test]
    fn study_renders_are_nonempty() {
        let rhli = RhliStudy {
            observe_attacker_rhli: 10.9,
            observe_benign_rhli: 0.0,
            full_attacker_rhli: 0.2,
            reduction_factor: 54.0,
        };
        assert!(render_rhli(&rhli).contains("54.0x"));
        let fp = FalsePositiveStudy {
            false_positive_rate: 0.0001,
            delay_p50_us: 1.7,
            delay_p90_us: 3.9,
            delay_p100_us: 7.6,
            t_delay_us: 7.7,
        };
        assert!(render_false_positives(&fp).contains("7.7"));
    }

    #[test]
    fn figure4_render_includes_categories() {
        let rows = vec![Figure4Row {
            defense: "PARA".into(),
            category: "H".into(),
            normalized_execution_time: 1.007,
            normalized_dram_energy: 1.049,
        }];
        let text = render_figure4(&rows);
        assert!(text.contains("PARA"));
        assert!(text.contains("1.0070"));
    }
}
