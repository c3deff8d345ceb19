//! Regenerates the BlockHammer paper's tables and figures from one entry
//! point:
//!
//! ```text
//! cargo run --release -p bench --bin paper -- [quick|standard] [ARTIFACT...]
//! ```
//!
//! `ARTIFACT` is any of `tab1 tab3 tab4 sec321 fig4 fig5 fig6 tab7 tab8
//! sec84`; naming none runs all of them, in that (paper) order. The tier
//! sets the run size: `quick` takes seconds, `standard` (the default)
//! minutes. Figures 5 and 6 and the Section 3.2.1 RHLI study run as
//! campaigns on `campaign::default_workers()` workers (their output is
//! identical at any worker count); the other artifacts call the
//! single-core drivers of `sim::experiments` or the analytic models of
//! `blockhammer`. An unknown word prints the usage and exits with status 2.

use blockhammer::config::BlockHammerConfig;
use blockhammer::{hwcost, security};
use campaign::{CampaignError, CampaignSpec, CampaignSummary, Scenario};
use mitigations::{DefenseGeometry, RowHammerThreshold};
use sim::experiments::{self, ExperimentScale, RhliStudy};
use sim::{report, DefenseKind};
use std::process::ExitCode;
use workloads::AttackKind;

/// The full-scale RowHammer threshold of the single-threshold artifacts
/// (the paper's realistic contemporary value, Section 1).
const PAPER_N_RH: u64 = 32_768;

/// Prints one artifact at the given scale.
type Printer = fn(&ExperimentScale) -> Result<(), CampaignError>;

/// Every artifact, in paper order, with the word that selects it.
const ARTIFACTS: [(&str, Printer); 10] = [
    ("tab1", tab1),
    ("tab3", tab3),
    ("tab4", tab4),
    ("sec321", sec321),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("tab7", tab7),
    ("tab8", tab8),
    ("sec84", sec84),
];

const USAGE: &str = "usage: paper [quick|standard] [ARTIFACT...]\n\
    ARTIFACT: tab1 tab3 tab4 sec321 fig4 fig5 fig6 tab7 tab8 sec84 (default: all)";

/// A parsed command line: the run size and the artifacts to print, in
/// paper order.
struct Invocation {
    scale: ExperimentScale,
    artifacts: Vec<(&'static str, Printer)>,
}

/// Parses the tier and artifact words; any other word is an error.
fn parse_args<S: AsRef<str>>(args: &[S]) -> Result<Invocation, String> {
    let mut scale = ExperimentScale::standard();
    let mut named = Vec::new();
    for arg in args {
        match arg.as_ref() {
            "quick" => scale = ExperimentScale::quick(),
            "standard" => scale = ExperimentScale::standard(),
            word => match ARTIFACTS.iter().find(|(name, _)| *name == word) {
                Some((name, _)) => named.push(*name),
                None => return Err(format!("unknown tier or artifact `{word}`")),
            },
        }
    }
    let artifacts = ARTIFACTS
        .into_iter()
        .filter(|(name, _)| named.is_empty() || named.contains(name))
        .collect();
    Ok(Invocation { scale, artifacts })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let invocation = match parse_args(&args) {
        Ok(invocation) => invocation,
        Err(message) => {
            eprintln!("paper: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for (at, (name, print)) in invocation.artifacts.iter().enumerate() {
        if at > 0 {
            println!();
        }
        if let Err(error) = print(&invocation.scale) {
            eprintln!("paper: {name}: {error}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// The campaign-run artifacts: Figures 5 and 6, Section 3.2.1.
// ---------------------------------------------------------------------------

/// Figure 5: Baseline plus the seven Figure 4/5 defenses at N_RH = 32K,
/// over the tier's benign-only and attack-present mixes.
fn fig5_campaign(scale: &ExperimentScale) -> CampaignSpec {
    CampaignSpec {
        name: "fig5".to_owned(),
        mix_count: scale.mix_count,
        threads_per_mix: scale.threads_per_mix,
        scale: scale.run,
        seed: scale.seed,
        ..CampaignSpec::paper()
    }
}

/// Figure 6: Baseline plus the four scalable defenses, swept from
/// N_RH = 32K down to 1K.
fn fig6_campaign(scale: &ExperimentScale) -> CampaignSpec {
    let mut defenses = vec![DefenseKind::Baseline];
    defenses.extend(DefenseKind::figure_6_set());
    CampaignSpec {
        name: "fig6".to_owned(),
        defenses,
        n_rh_points: vec![32_768, 8_192, 2_048, 1_024],
        ..fig5_campaign(scale)
    }
}

/// Section 3.2.1: one attack mix under BlockHammer's observe-only and
/// full-functional modes. Only RHLI is read, so nothing is normalized.
fn sec321_campaign(scale: &ExperimentScale) -> CampaignSpec {
    CampaignSpec {
        name: "sec321".to_owned(),
        mix_count: 1,
        scenarios: vec![Scenario::Attack(AttackKind::DoubleSided)],
        defenses: vec![DefenseKind::BlockHammerObserve, DefenseKind::BlockHammer],
        normalize: false,
        ..fig5_campaign(scale)
    }
}

/// Executes a campaign on the machine's default worker count and returns
/// its summary, which is identical at any worker count.
fn summarize(spec: &CampaignSpec) -> Result<CampaignSummary, CampaignError> {
    Ok(campaign::execute(spec, spec.expand(), campaign::default_workers())?.summary)
}

/// Runs the RHLI campaign and reads the study off its two points.
fn sec321_study(scale: &ExperimentScale) -> Result<RhliStudy, CampaignError> {
    let summary = summarize(&sec321_campaign(scale))?;
    let max_rhli = |kind: DefenseKind| {
        summary
            .points
            .iter()
            .find(|point| point.key.defense == kind.label())
            .map(|point| (point.max_attacker_rhli, point.max_benign_rhli))
            .unwrap_or_default()
    };
    let (observe_attacker, observe_benign) = max_rhli(DefenseKind::BlockHammerObserve);
    let (full_attacker, _) = max_rhli(DefenseKind::BlockHammer);
    Ok(RhliStudy {
        observe_attacker_rhli: observe_attacker,
        observe_benign_rhli: observe_benign,
        full_attacker_rhli: full_attacker,
        reduction_factor: observe_attacker / full_attacker.max(1e-9),
    })
}

/// The numbers that size an experiment's runs, named in plain words for
/// the figure and table headers. How the clock advances is left out: it
/// never changes an output.
fn describe(scale: &ExperimentScale) -> String {
    let run = &scale.run;
    format!(
        "time scale {}, instructions per benign thread {}, LLC bytes {}, \
         min cycles {}, max cycles {}, mixes {}, threads per mix {}, \
         workloads per category {}, seed {}",
        run.time_scale,
        run.benign_instructions,
        run.llc_bytes,
        run.min_cycles,
        run.max_cycles,
        scale.mix_count,
        scale.threads_per_mix,
        scale.workloads_per_category,
        scale.seed
    )
}

/// Section 3.2.1: the RowHammer likelihood index of benign and attacker
/// threads under BlockHammer's observe-only and full-functional modes.
fn sec321(scale: &ExperimentScale) -> Result<(), CampaignError> {
    let study = sec321_study(scale)?;
    print!("{}", report::render_rhli(&study));
    println!(
        "\nExpected shape (paper): benign RHLI = 0; attacker RHLI well above 1 in\n\
         observe-only mode and pushed to (or below) 1 in full-functional mode."
    );
    Ok(())
}

/// Figure 5: normalized weighted speedup, harmonic speedup, maximum
/// slowdown and DRAM energy of multiprogrammed mixes, with and without a
/// RowHammer attacker, for every mechanism.
fn fig5(scale: &ExperimentScale) -> Result<(), CampaignError> {
    println!(
        "Figure 5: multiprogrammed workloads, N_RH = {PAPER_N_RH} ({})\n",
        describe(scale)
    );
    let rows = summarize(&fig5_campaign(scale))?.multiprogram_rows();
    print!("{}", report::render_multiprogram(&rows));
    println!(
        "\nExpected shape (paper): ~1.00 for every mechanism without an attack;\n\
         with an attack BlockHammer raises weighted/harmonic speedup well above 1\n\
         and cuts DRAM energy, while all other mechanisms stay at or below 1.00."
    );
    Ok(())
}

/// Figure 6: the multiprogrammed study swept across RowHammer thresholds
/// for PARA, TWiCe, Graphene and BlockHammer.
fn fig6(scale: &ExperimentScale) -> Result<(), CampaignError> {
    println!("Figure 6: N_RH scaling study ({})\n", describe(scale));
    let rows = summarize(&fig6_campaign(scale))?.multiprogram_rows();
    print!("{}", report::render_multiprogram(&rows));
    println!(
        "\nExpected shape (paper): without an attack PARA's overhead grows as N_RH\n\
         shrinks while the others stay near 1.00; with an attack BlockHammer's\n\
         benefit grows as N_RH shrinks."
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// The in-process drivers: Figure 4, Table 8, Section 8.4.
// ---------------------------------------------------------------------------

/// Figure 4: execution time and DRAM energy of single-core benign
/// applications under each mechanism, normalized to the unprotected
/// baseline, grouped into the L / M / H categories.
fn fig4(scale: &ExperimentScale) -> Result<(), CampaignError> {
    println!(
        "Figure 4: single-core normalized execution time / DRAM energy ({})\n",
        describe(scale)
    );
    let rows = experiments::figure4(scale, PAPER_N_RH);
    print!("{}", report::render_figure4(&rows));
    println!(
        "\nExpected shape (paper): every mechanism ~1.00 for L/M; PARA and MRLoc\n\
         show small overheads for H; BlockHammer stays at 1.00 everywhere."
    );
    Ok(())
}

/// Table 8: the benign workload catalog with measured MPKI and
/// row-buffer-conflict rates next to the paper's values.
fn tab8(scale: &ExperimentScale) -> Result<(), CampaignError> {
    println!(
        "Table 8: benign applications (synthetic stand-ins), {}\n",
        describe(scale)
    );
    print!("{}", report::render_table8(&experiments::table8(scale)));
    Ok(())
}

/// Section 8.4: BlockHammer's false-positive rate and the distribution of
/// the delay penalty mistakenly-delayed activations experience.
fn sec84(scale: &ExperimentScale) -> Result<(), CampaignError> {
    let study = experiments::false_positive_study(scale, PAPER_N_RH);
    print!("{}", report::render_false_positives(&study));
    println!(
        "\nExpected shape (paper): false positive rate around 0.01%, delay\n\
         percentiles well below the theoretical tDelay bound."
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// The analytic artifacts: Tables 1, 2-3, 4 and 7.
// ---------------------------------------------------------------------------

/// Table 1: BlockHammer's configuration for a DDR4 chip with N_RH = 32K.
fn tab1(_: &ExperimentScale) -> Result<(), CampaignError> {
    let geometry = DefenseGeometry::default();
    let config =
        BlockHammerConfig::for_rowhammer_threshold(RowHammerThreshold::new(PAPER_N_RH), &geometry);
    println!("Table 1: BlockHammer parameters (DDR4, N_RH = 32K)\n");
    println!("DRAM features");
    println!("  N_RH            : {}", config.n_rh);
    println!("  N_RH*           : {}", config.n_rh_star);
    println!(
        "  banks           : {}",
        geometry.organization.banks_per_channel()
    );
    println!("  tREFW           : 64 ms");
    println!("  tRC             : 46.25 ns");
    println!("  tFAW            : 35 ns");
    println!("RowBlocker-BL");
    println!("  N_BL            : {}", config.n_bl);
    println!(
        "  tCBF            : {} cycles (= tREFW)",
        config.t_cbf_cycles
    );
    println!(
        "  tDelay          : {:.2} us (paper: 7.7 us)",
        config.t_delay_us(3.2e9)
    );
    println!("  CBF size        : {} counters per bank", config.cbf_size);
    println!(
        "  CBF hashing     : {} H3-class functions",
        config.cbf_hashes
    );
    println!("RowBlocker-HB");
    println!(
        "  history entries : {} per rank (paper: 887)",
        config.history_entries
    );
    println!("AttackThrottler");
    println!(
        "  2 counters per <thread, bank> pair ({} threads x {} banks)",
        geometry.threads,
        geometry.organization.banks_per_channel()
    );
    Ok(())
}

/// The Section 5 security analysis (Tables 2 and 3): the epoch-type
/// activation bounds and the conclusion that no access pattern can exceed
/// the RowHammer threshold on a BlockHammer-protected system.
fn tab3(_: &ExperimentScale) -> Result<(), CampaignError> {
    let geometry = DefenseGeometry::default();
    println!("Section 5 security analysis\n");
    for n_rh in [32_768u64, 16_384, 8_192, 4_096, 2_048, 1_024] {
        let config =
            BlockHammerConfig::for_rowhammer_threshold(RowHammerThreshold::new(n_rh), &geometry);
        println!("--- N_RH = {n_rh} (N_RH* = {}) ---", config.n_rh_star);
        println!("Table 2 epoch-type bounds (max activations per epoch):");
        for bound in security::epoch_type_table(&config) {
            println!("  {:?}: {}", bound.epoch_type, bound.max_activations);
        }
        let analysis = security::max_activations_in_refresh_window(&config);
        println!(
            "optimal attack: {} activations per refresh window across epochs {:?}",
            analysis.max_activations, analysis.per_epoch
        );
        println!(
            "=> {} (limit N_RH* = {})\n",
            if analysis.safe {
                "NO successful RowHammer attack exists"
            } else {
                "UNSAFE configuration"
            },
            analysis.n_rh_star
        );
    }
    Ok(())
}

/// Table 4: per-rank metadata storage, chip area, access energy and static
/// power of BlockHammer and the six baselines, at N_RH = 32K and 1K.
fn tab4(_: &ExperimentScale) -> Result<(), CampaignError> {
    let geometry = DefenseGeometry::default();
    println!(
        "Table 4: hardware cost comparison (analytic model, see README \
         \"Substitutions and scaled time\")\n"
    );
    for n_rh in [32_768u64, 1_024] {
        println!("=== N_RH = {n_rh} ===");
        let rows = hwcost::table4(RowHammerThreshold::new(n_rh), &geometry);
        print!("{}", hwcost::render_table(&rows));
        println!();
    }
    println!(
        "Note: coefficients are calibrated to the paper's BlockHammer figures at\n\
         N_RH = 32K; the scaling from 32K to 1K is the quantity to compare."
    );
    Ok(())
}

/// Table 7: BlockHammer's configuration for every evaluated threshold.
fn tab7(_: &ExperimentScale) -> Result<(), CampaignError> {
    let geometry = DefenseGeometry::default();
    println!("Table 7: BlockHammer configurations per RowHammer threshold\n");
    println!(
        "{:>8} {:>8} {:>10} {:>8} {:>10} {:>14} {:>12}",
        "N_RH", "N_RH*", "CBF size", "N_BL", "tCBF", "tDelay (us)", "HB entries"
    );
    for config in BlockHammerConfig::table7(&geometry) {
        println!(
            "{:>8} {:>8} {:>10} {:>8} {:>10} {:>14.2} {:>12}",
            config.n_rh,
            config.n_rh_star,
            config.cbf_size,
            config.n_bl,
            "64 ms",
            config.t_delay_us(3.2e9),
            config.history_entries
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(invocation: &Invocation) -> Vec<&'static str> {
        invocation.artifacts.iter().map(|(name, _)| *name).collect()
    }

    #[test]
    fn parser_rejects_unknown_words_and_defaults_to_everything_at_standard() {
        let all = parse_args::<&str>(&[]).expect("no arguments is valid");
        assert_eq!(all.scale, ExperimentScale::standard());
        assert_eq!(
            words(&all),
            ["tab1", "tab3", "tab4", "sec321", "fig4", "fig5", "fig6", "tab7", "tab8", "sec84"]
        );
        // Named artifacts run once each, in paper order.
        let some = parse_args(&["fig6", "quick", "tab1", "fig6"]).expect("valid words");
        assert_eq!(some.scale, ExperimentScale::quick());
        assert_eq!(words(&some), ["tab1", "fig6"]);
        assert!(parse_args(&["quik"]).is_err(), "misspelled tier");
        assert!(parse_args(&["quick", "fig7"]).is_err(), "unknown artifact");
    }

    #[test]
    fn quick_figure_campaigns_normalize_every_point_to_baseline() {
        let scale = ExperimentScale::quick();
        for (spec, defenses) in [
            (fig5_campaign(&scale), 1 + 7),
            (fig6_campaign(&scale), 1 + 4),
        ] {
            assert_eq!(spec.defenses[0], DefenseKind::Baseline, "{}", spec.name);
            assert_eq!(spec.defenses.len(), defenses, "{}", spec.name);
            let summary = summarize(&spec).expect("campaign runs");
            assert_eq!(
                summary.points.len(),
                defenses * spec.scenarios.len() * spec.n_rh_points.len()
            );
            assert!(
                summary.points.iter().all(|p| p.normalized.is_some()),
                "{}: every point is normalized",
                spec.name
            );
        }
    }

    #[test]
    fn sec321_study_distinguishes_attacker_from_benign() {
        let study = sec321_study(&ExperimentScale::quick()).expect("campaign runs");
        assert!(
            study.observe_attacker_rhli > 1.0,
            "observe-only attacker RHLI = {}, expected > 1",
            study.observe_attacker_rhli
        );
        assert!(study.observe_benign_rhli < 0.5);
        assert!(
            study.full_attacker_rhli < study.observe_attacker_rhli,
            "full-functional mode must reduce the attacker's RHLI \
             (observe {}, full {})",
            study.observe_attacker_rhli,
            study.full_attacker_rhli
        );
        assert!(study.reduction_factor > 1.0);
    }
}
