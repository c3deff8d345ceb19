//! Incremental aggregation of run outcomes into per-sweep-point
//! summaries, and their CSV / JSON serializations.
//!
//! A *sweep point* is one cell of the campaign matrix — (scenario,
//! defense, `N_RH`, channels) — aggregated over its workload mixes, the
//! way the paper averages each Figure 5/6 series over its 125 mixes. The
//! aggregator is incremental ([`CampaignAggregator::absorb`] one outcome
//! at a time, in run order) so campaign executors can reduce results as
//! they stream in instead of holding every run in memory.
//!
//! Emission is deliberately boring: a fixed-column CSV (with
//! [`parse_summary_csv`] as its inverse, used by CI to validate emitted
//! files) and a hand-rolled JSON document. [`CampaignSummary::
//! multiprogram_rows`] bridges to `sim::report::render_multiprogram`,
//! which is how the paper's Figures 5 and 6 print.

use crate::runner::{FailedRun, RunOutcome};
use sim::experiments::MultiProgramRow;
use sim::MultiProgramMetrics;

/// Identity of one sweep point.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SweepKey {
    /// Scenario label (`no-attack`, `attack`, ...).
    pub scenario: String,
    /// Defense label.
    pub defense: String,
    /// Full-scale RowHammer threshold.
    pub n_rh: u64,
    /// Memory channels.
    pub channels: usize,
}

/// Running sums for one sweep point.
#[derive(Debug, Clone, Default)]
struct SweepAccumulator {
    runs: usize,
    failed: usize,
    metric_sums: Option<MultiProgramMetrics>,
    benign_ipc_sum: f64,
    cycles_sum: f64,
    energy_sum: f64,
    activations: u64,
    max_attacker_rhli: f64,
    max_benign_rhli: f64,
}

/// Aggregated results of one sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPointSummary {
    /// The point's identity.
    pub key: SweepKey,
    /// Runs (mixes) aggregated into this point.
    pub runs: usize,
    /// Runs of this point that were quarantined by the executor's
    /// failure policy instead of completing. A non-zero count marks the
    /// point *degraded*: its means cover fewer mixes than the campaign
    /// planned, and its row should be read accordingly.
    pub failed_runs: usize,
    /// Mean multiprogrammed metrics across the point's runs (present when
    /// the campaign ran with normalization).
    pub metrics: Option<MultiProgramMetrics>,
    /// `metrics` normalized to the Baseline defense's point at the same
    /// (scenario, `N_RH`, channels) — the y-axes of Figures 5 and 6.
    pub normalized: Option<MultiProgramMetrics>,
    /// Mean of the runs' mean benign IPCs.
    pub mean_benign_ipc: f64,
    /// Largest attacker RHLI observed in any run of the point.
    pub max_attacker_rhli: f64,
    /// Largest benign-thread RHLI observed in any run of the point.
    pub max_benign_rhli: f64,
    /// Mean simulated cycles per run.
    pub mean_cycles: f64,
    /// Mean DRAM energy per run, joules.
    pub mean_dram_energy_j: f64,
    /// Total DRAM activations across the point's runs.
    pub total_activations: u64,
}

/// The reduced form of a whole campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// Campaign name.
    pub name: String,
    /// Total runs aggregated.
    pub runs: usize,
    /// Total runs quarantined across every sweep point (0 for a fully
    /// healthy campaign).
    pub failed: usize,
    /// Sweep points, in first-absorbed order (= expansion order).
    pub points: Vec<SweepPointSummary>,
}

impl CampaignSummary {
    /// Whether any sweep point is degraded by quarantined runs.
    pub fn is_degraded(&self) -> bool {
        self.failed > 0
    }
}

/// Incrementally reduces [`RunOutcome`]s into a [`CampaignSummary`].
///
/// Absorb outcomes in run order: floating-point accumulation is
/// order-sensitive, and the deterministic-order guarantee of the campaign
/// executor exists precisely so sequential and pooled execution feed the
/// aggregator identically.
#[derive(Debug)]
pub struct CampaignAggregator {
    name: String,
    runs: usize,
    failed: usize,
    order: Vec<SweepKey>,
    accumulators: std::collections::HashMap<SweepKey, SweepAccumulator>,
}

impl CampaignAggregator {
    /// Creates an empty aggregator for a campaign.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            runs: 0,
            failed: 0,
            order: Vec::new(),
            accumulators: std::collections::HashMap::new(),
        }
    }

    /// Marks one quarantined run against its sweep point. The point's
    /// means are untouched (a failed run contributes no numbers) but its
    /// `failed_runs` count flags it as degraded in every serialization.
    pub fn absorb_failure(&mut self, failure: &FailedRun) {
        let key = SweepKey {
            scenario: failure.scenario.clone(),
            defense: failure.defense.clone(),
            n_rh: failure.n_rh,
            channels: failure.channels,
        };
        if !self.accumulators.contains_key(&key) {
            self.order.push(key.clone());
        }
        self.accumulators.entry(key).or_default().failed += 1;
        self.failed += 1;
    }

    /// Folds one run outcome into its sweep point.
    pub fn absorb(&mut self, outcome: &RunOutcome) {
        let key = SweepKey {
            scenario: outcome.scenario.clone(),
            defense: outcome.defense.clone(),
            n_rh: outcome.n_rh,
            channels: outcome.channels,
        };
        if !self.accumulators.contains_key(&key) {
            self.order.push(key.clone());
        }
        let acc = self.accumulators.entry(key).or_default();
        acc.runs += 1;
        if let Some(metrics) = &outcome.metrics {
            let sums = acc.metric_sums.get_or_insert(MultiProgramMetrics {
                weighted_speedup: 0.0,
                harmonic_speedup: 0.0,
                max_slowdown: 0.0,
                dram_energy_joules: 0.0,
            });
            sums.weighted_speedup += metrics.weighted_speedup;
            sums.harmonic_speedup += metrics.harmonic_speedup;
            sums.max_slowdown += metrics.max_slowdown;
            sums.dram_energy_joules += metrics.dram_energy_joules;
        }
        acc.benign_ipc_sum += outcome.mean_benign_ipc();
        acc.cycles_sum += outcome.total_cycles as f64;
        acc.energy_sum += outcome.dram_energy_j;
        acc.activations += outcome.activations;
        acc.max_attacker_rhli = acc.max_attacker_rhli.max(outcome.max_attacker_rhli());
        acc.max_benign_rhli = acc.max_benign_rhli.max(outcome.max_benign_rhli());
        self.runs += 1;
    }

    /// Finalizes the summary: means per point, plus normalization of each
    /// point to the Baseline defense at the same (scenario, `N_RH`,
    /// channels) when such a point exists.
    pub fn finish(self) -> CampaignSummary {
        let mut points: Vec<SweepPointSummary> = self
            .order
            .iter()
            .map(|key| {
                let acc = &self.accumulators[key];
                let n = acc.runs.max(1) as f64;
                SweepPointSummary {
                    key: key.clone(),
                    runs: acc.runs,
                    failed_runs: acc.failed,
                    metrics: acc.metric_sums.as_ref().map(|sums| MultiProgramMetrics {
                        weighted_speedup: sums.weighted_speedup / n,
                        harmonic_speedup: sums.harmonic_speedup / n,
                        max_slowdown: sums.max_slowdown / n,
                        dram_energy_joules: sums.dram_energy_joules / n,
                    }),
                    normalized: None,
                    mean_benign_ipc: acc.benign_ipc_sum / n,
                    max_attacker_rhli: acc.max_attacker_rhli,
                    max_benign_rhli: acc.max_benign_rhli,
                    mean_cycles: acc.cycles_sum / n,
                    mean_dram_energy_j: acc.energy_sum / n,
                    total_activations: acc.activations,
                }
            })
            .collect();
        // Normalize to the Baseline point of each (scenario, n_rh,
        // channels) cell, as the paper normalizes Figures 5/6.
        let baselines: Vec<(SweepKey, MultiProgramMetrics)> = points
            .iter()
            .filter(|p| p.key.defense == "Baseline")
            .filter_map(|p| p.metrics.map(|m| (p.key.clone(), m)))
            .collect();
        for point in &mut points {
            let Some(metrics) = point.metrics else {
                continue;
            };
            let baseline = baselines.iter().find(|(key, _)| {
                key.scenario == point.key.scenario
                    && key.n_rh == point.key.n_rh
                    && key.channels == point.key.channels
            });
            if let Some((_, baseline)) = baseline {
                point.normalized = Some(metrics.normalized_to(baseline));
            }
        }
        CampaignSummary {
            name: self.name,
            runs: self.runs,
            failed: self.failed,
            points,
        }
    }
}

/// Column order of the summary CSV.
const CSV_HEADER: &str = "scenario,defense,n_rh,channels,runs,mean_benign_ipc,\
max_attacker_rhli,max_benign_rhli,mean_cycles,mean_dram_energy_j,total_acts,\
weighted_speedup,harmonic_speedup,max_slowdown,\
norm_weighted_speedup,norm_harmonic_speedup,norm_max_slowdown,norm_dram_energy,\
failed_runs";

/// Number of columns in the summary CSV.
const CSV_COLUMNS: usize = 19;

fn push_f64(out: &mut String, value: f64) {
    out.push_str(&format!(",{value:.6}"));
}

fn push_optional_metrics(out: &mut String, metrics: &Option<MultiProgramMetrics>, energy: bool) {
    match metrics {
        Some(m) => {
            push_f64(out, m.weighted_speedup);
            push_f64(out, m.harmonic_speedup);
            push_f64(out, m.max_slowdown);
            if energy {
                push_f64(out, m.dram_energy_joules);
            }
        }
        None => {
            // One comma per (empty) column: 3 metric columns, plus the
            // energy column in the normalized block.
            out.push_str(if energy { ",,,," } else { ",,," });
        }
    }
}

impl CampaignSummary {
    /// Serializes the summary as CSV (fixed column order, 6-decimal
    /// floats; metric columns are empty when the campaign did not
    /// normalize). The output is a pure function of the absorbed
    /// outcomes, so sequential and pooled executions of the same campaign
    /// emit byte-identical CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(CSV_HEADER);
        out.push('\n');
        for point in &self.points {
            out.push_str(&format!(
                "{},{},{},{},{}",
                point.key.scenario,
                point.key.defense,
                point.key.n_rh,
                point.key.channels,
                point.runs
            ));
            push_f64(&mut out, point.mean_benign_ipc);
            push_f64(&mut out, point.max_attacker_rhli);
            push_f64(&mut out, point.max_benign_rhli);
            push_f64(&mut out, point.mean_cycles);
            push_f64(&mut out, point.mean_dram_energy_j);
            out.push_str(&format!(",{}", point.total_activations));
            // Raw metrics (energy is already a raw column above).
            push_optional_metrics(&mut out, &point.metrics, false);
            push_optional_metrics(&mut out, &point.normalized, true);
            out.push_str(&format!(",{}", point.failed_runs));
            out.push('\n');
        }
        out
    }

    /// Serializes the summary as a JSON document (hand-rolled: the
    /// workspace's serde is an offline no-op stand-in).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"campaign\": \"{}\",\n  \"runs\": {},\n  \"failed_runs\": {},\n  \"points\": [\n",
            escape_json(&self.name),
            self.runs,
            self.failed
        ));
        for (i, point) in self.points.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!(
                "\"scenario\": \"{}\", \"defense\": \"{}\", \"n_rh\": {}, \
                 \"channels\": {}, \"runs\": {}, \"failed_runs\": {}, \
                 \"mean_benign_ipc\": {:.6}, \
                 \"max_attacker_rhli\": {:.6}, \"max_benign_rhli\": {:.6}, \
                 \"mean_cycles\": {:.6}, \"mean_dram_energy_j\": {:.6}, \
                 \"total_acts\": {}",
                escape_json(&point.key.scenario),
                escape_json(&point.key.defense),
                point.key.n_rh,
                point.key.channels,
                point.runs,
                point.failed_runs,
                point.mean_benign_ipc,
                point.max_attacker_rhli,
                point.max_benign_rhli,
                point.mean_cycles,
                point.mean_dram_energy_j,
                point.total_activations,
            ));
            for (label, metrics) in [
                ("metrics", &point.metrics),
                ("normalized", &point.normalized),
            ] {
                match metrics {
                    Some(m) => out.push_str(&format!(
                        ", \"{label}\": {{\"weighted_speedup\": {:.6}, \
                         \"harmonic_speedup\": {:.6}, \"max_slowdown\": {:.6}, \
                         \"dram_energy_j\": {:.6}}}",
                        m.weighted_speedup,
                        m.harmonic_speedup,
                        m.max_slowdown,
                        m.dram_energy_joules
                    )),
                    None => out.push_str(&format!(", \"{label}\": null")),
                }
            }
            out.push('}');
            if i + 1 < self.points.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The points that have normalized metrics, as
    /// `sim::experiments::MultiProgramRow`s in point (expansion) order,
    /// Baseline's own rows included at 1.0 — directly renderable with
    /// `sim::report::render_multiprogram`, which is how Figures 5 and 6
    /// print.
    pub fn multiprogram_rows(&self) -> Vec<MultiProgramRow> {
        self.points
            .iter()
            .filter_map(|point| {
                point.normalized.map(|normalized| MultiProgramRow {
                    defense: point.key.defense.clone(),
                    scenario: point.key.scenario.clone(),
                    n_rh: point.key.n_rh,
                    normalized,
                })
            })
            .collect()
    }
}

pub(crate) fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// One parsed row of a summary CSV.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryCsvRow {
    /// The sweep point the row describes.
    pub key: SweepKey,
    /// Runs aggregated into the row.
    pub runs: usize,
    /// Quarantined runs of the point (non-zero marks it degraded).
    pub failed_runs: usize,
    /// Mean benign IPC of the point.
    pub mean_benign_ipc: f64,
    /// Normalized weighted speedup, when the campaign normalized.
    pub norm_weighted_speedup: Option<f64>,
}

/// Parses a summary CSV produced by [`CampaignSummary::to_csv`],
/// validating the header, the column count of every row and the numeric
/// columns. CI uses this to assert the emitted artifact is well-formed.
///
/// # Errors
///
/// Returns a line-positioned message for any malformed content.
pub fn parse_summary_csv(text: &str) -> Result<Vec<SummaryCsvRow>, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty CSV")?;
    if header != CSV_HEADER {
        return Err(format!("unexpected header: `{header}`"));
    }
    let mut rows = Vec::new();
    for (line_index, line) in lines {
        let line_number = line_index + 1;
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != CSV_COLUMNS {
            return Err(format!(
                "line {line_number}: {} columns, expected {CSV_COLUMNS}",
                fields.len()
            ));
        }
        let parse_u64 = |i: usize| -> Result<u64, String> {
            fields[i]
                .parse::<u64>()
                .map_err(|_| format!("line {line_number}: column {i} is not an integer"))
        };
        let parse_f64 = |i: usize| -> Result<f64, String> {
            fields[i]
                .parse::<f64>()
                .map_err(|_| format!("line {line_number}: column {i} is not a number"))
        };
        let parse_optional = |i: usize| -> Result<Option<f64>, String> {
            if fields[i].is_empty() {
                Ok(None)
            } else {
                parse_f64(i).map(Some)
            }
        };
        // Validate every numeric column, keep the interesting ones.
        for i in 5..=9 {
            parse_f64(i)?;
        }
        parse_u64(10)?;
        for i in 11..CSV_COLUMNS - 1 {
            parse_optional(i)?;
        }
        rows.push(SummaryCsvRow {
            key: SweepKey {
                scenario: fields[0].to_owned(),
                defense: fields[1].to_owned(),
                n_rh: parse_u64(2)?,
                channels: parse_u64(3)? as usize,
            },
            runs: parse_u64(4)? as usize,
            failed_runs: parse_u64(18)? as usize,
            mean_benign_ipc: parse_f64(5)?,
            norm_weighted_speedup: parse_optional(14)?,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ThreadOutcome;

    fn outcome(
        index: usize,
        scenario: &str,
        defense: &str,
        ipc: f64,
        metrics: Option<MultiProgramMetrics>,
    ) -> RunOutcome {
        RunOutcome {
            index,
            name: format!("mix-{index:03}/{defense}"),
            scenario: scenario.to_owned(),
            defense: defense.to_owned(),
            n_rh: 32_768,
            channels: 1,
            total_cycles: 10_000,
            activations: 500,
            dram_energy_j: 0.25,
            threads: vec![
                ThreadOutcome {
                    name: "attacker.double_sided".into(),
                    is_attacker: true,
                    instructions: 100,
                    cycles: 10_000,
                    ipc: 0.01,
                    max_rhli: 3.0,
                    memory_requests: 100,
                },
                ThreadOutcome {
                    name: "b0".into(),
                    is_attacker: false,
                    instructions: 1_000,
                    cycles: 10_000,
                    ipc,
                    max_rhli: 0.0,
                    memory_requests: 10,
                },
            ],
            metrics,
            stepping: sim::SteppingStats::default(),
        }
    }

    fn metrics(w: f64) -> MultiProgramMetrics {
        MultiProgramMetrics {
            weighted_speedup: w,
            harmonic_speedup: w / 2.0,
            max_slowdown: 2.0 / w,
            dram_energy_joules: 0.25,
        }
    }

    #[test]
    fn aggregation_means_and_maxima() {
        let mut agg = CampaignAggregator::new("t");
        agg.absorb(&outcome(0, "attack", "Baseline", 0.4, Some(metrics(1.0))));
        agg.absorb(&outcome(1, "attack", "Baseline", 0.6, Some(metrics(3.0))));
        agg.absorb(&outcome(
            2,
            "attack",
            "BlockHammer",
            0.8,
            Some(metrics(4.0)),
        ));
        let summary = agg.finish();
        assert_eq!(summary.runs, 3);
        assert_eq!(summary.points.len(), 2);
        let baseline = &summary.points[0];
        assert_eq!(baseline.runs, 2);
        assert!((baseline.mean_benign_ipc - 0.5).abs() < 1e-12);
        let m = baseline.metrics.expect("metrics present");
        assert!((m.weighted_speedup - 2.0).abs() < 1e-12);
        assert!((baseline.max_attacker_rhli - 3.0).abs() < 1e-12);
        // Normalization: BlockHammer / Baseline = 4.0 / 2.0.
        let bh = &summary.points[1];
        let n = bh.normalized.expect("normalized present");
        assert!((n.weighted_speedup - 2.0).abs() < 1e-12);
        // Baseline normalizes to itself: all ones.
        let bn = baseline.normalized.expect("baseline normalized");
        assert!((bn.weighted_speedup - 1.0).abs() < 1e-12);
    }

    #[test]
    fn csv_round_trips_through_the_parser() {
        let mut agg = CampaignAggregator::new("t");
        agg.absorb(&outcome(0, "attack", "Baseline", 0.5, Some(metrics(2.0))));
        agg.absorb(&outcome(
            1,
            "attack",
            "BlockHammer",
            0.7,
            Some(metrics(3.0)),
        ));
        let summary = agg.finish();
        let csv = summary.to_csv();
        let rows = parse_summary_csv(&csv).expect("emitted CSV parses");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].key.defense, "Baseline");
        assert_eq!(rows[1].key.defense, "BlockHammer");
        assert!((rows[1].norm_weighted_speedup.unwrap() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn csv_without_metrics_has_empty_metric_columns() {
        let mut agg = CampaignAggregator::new("t");
        agg.absorb(&outcome(0, "no-attack", "Baseline", 0.5, None));
        let summary = agg.finish();
        let rows = parse_summary_csv(&summary.to_csv()).expect("parses");
        assert_eq!(rows[0].norm_weighted_speedup, None);
    }

    #[test]
    fn malformed_csv_is_rejected_with_a_position() {
        assert!(parse_summary_csv("").is_err());
        assert!(parse_summary_csv("bad,header\n").is_err());
        let mut agg = CampaignAggregator::new("t");
        agg.absorb(&outcome(0, "attack", "Baseline", 0.5, None));
        let mut csv = agg.finish().to_csv();
        csv.push_str("attack,Extra,1,1,notanumber\n");
        let err = parse_summary_csv(&csv).unwrap_err();
        assert!(err.contains("line 3"), "got: {err}");
    }

    #[test]
    fn quarantined_runs_mark_their_point_degraded() {
        let mut agg = CampaignAggregator::new("t");
        agg.absorb(&outcome(0, "attack", "Baseline", 0.5, Some(metrics(2.0))));
        agg.absorb(&outcome(1, "attack", "Para", 0.7, Some(metrics(3.0))));
        agg.absorb_failure(&FailedRun {
            index: 2,
            name: "mix-002/Para".into(),
            scenario: "attack".into(),
            defense: "Para".into(),
            n_rh: 32_768,
            channels: 1,
            attempts: 2,
            cause: "panicked: injected".into(),
        });
        let summary = agg.finish();
        assert!(summary.is_degraded());
        assert_eq!(summary.failed, 1);
        assert_eq!(summary.runs, 2, "failures do not count as runs");
        let para = summary
            .points
            .iter()
            .find(|p| p.key.defense == "Para")
            .expect("Para point");
        assert_eq!((para.runs, para.failed_runs), (1, 1));
        // The degraded flag survives both serializations and the parser.
        let rows = parse_summary_csv(&summary.to_csv()).expect("parses");
        let para_row = rows.iter().find(|r| r.key.defense == "Para").expect("row");
        assert_eq!(para_row.failed_runs, 1);
        assert_eq!(rows[0].failed_runs, 0);
        assert!(summary.to_json().contains("\"failed_runs\": 1"));
    }

    #[test]
    fn a_failure_alone_still_registers_its_sweep_point() {
        let mut agg = CampaignAggregator::new("t");
        agg.absorb_failure(&FailedRun {
            index: 0,
            name: "mix-000/Graphene".into(),
            scenario: "attack".into(),
            defense: "Graphene".into(),
            n_rh: 32_768,
            channels: 1,
            attempts: 1,
            cause: "panicked".into(),
        });
        let summary = agg.finish();
        assert_eq!(summary.points.len(), 1);
        assert_eq!(summary.points[0].runs, 0);
        assert_eq!(summary.points[0].failed_runs, 1);
        // Zero-run points serialize without dividing by zero.
        assert!(parse_summary_csv(&summary.to_csv()).is_ok());
    }

    #[test]
    fn multiprogram_rows_render_with_sim_report() {
        let mut agg = CampaignAggregator::new("t");
        agg.absorb(&outcome(0, "attack", "Baseline", 0.5, Some(metrics(2.0))));
        agg.absorb(&outcome(
            1,
            "attack",
            "BlockHammer",
            0.7,
            Some(metrics(3.0)),
        ));
        let summary = agg.finish();
        let rows = summary.multiprogram_rows();
        assert_eq!(rows.len(), 2);
        let rendered = sim::report::render_multiprogram(&rows);
        assert!(rendered.contains("BlockHammer"));
        assert!(rendered.contains("attack"));
    }

    #[test]
    fn json_emission_is_structurally_sound() {
        let mut agg = CampaignAggregator::new("quote\"me");
        agg.absorb(&outcome(0, "attack", "Baseline", 0.5, Some(metrics(2.0))));
        let json = agg.finish().to_json();
        assert!(json.contains("\"campaign\": \"quote\\\"me\""));
        assert!(json.contains("\"points\": ["));
        assert!(json.contains("\"normalized\": {"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
