//! `perfbench` — the repository's campaign benchmark.
//!
//! ```text
//! perfbench --workload <quick-2w|attack-long> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it executes the workload's campaign through
//! `campaign::execute_observed` repeatedly for at least `--seconds` and
//! reports the end-to-end metrics. With `--trace 1` it executes the
//! campaign a few times untraced, re-runs every `RunSpec` of the first
//! execution through the public `sim` API with forwarding decorators (the
//! traced pass), and reports the per-layer metrics. Either way it checks
//! the outputs and prints, as its last line,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. See
//! `README.md` beside this file.

mod host;
mod stats;
mod trace;
mod workload;

use campaign::checkpoint::{self, JournalEntry};
use campaign::{
    execute_observed, parse_summary_csv, CampaignAggregator, CampaignReport, CampaignSpec,
    ExecutionOptions, FailurePolicy, RunSpec,
};
use sim::DefenseKind;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::TracedPass;
use workload::Workload;

/// Where results, spans and scratch journals go, relative to the
/// directory the benchmark runs in.
const OUT_DIR: &str = ".bench_out";
/// Fewest campaign repetitions an untraced run measures (medians need
/// several samples).
const MIN_REPS: usize = 3;
/// Fewest delivery gaps an untraced run collects, so `run_p90_ms` has at
/// least ten samples above it.
const MIN_GAPS: usize = 100;
/// An untraced run stops starting repetitions after this long, whatever
/// the minimums say.
const HARD_CAP: Duration = Duration::from_secs(120);

/// The end-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 2] = [("runs_per_s", "runs/s"), ("setup_s", "s")];

/// The defenses the per-layer metrics break out, with their metric keys.
const DEFENSES: [(DefenseKind, &str); 4] = [
    (DefenseKind::Baseline, "baseline"),
    (DefenseKind::Para, "para"),
    (DefenseKind::BlockHammer, "blockhammer"),
    (DefenseKind::Graphene, "graphene"),
];

/// Per-defense metric suffixes: suffix, unit, which direction is better.
const DEFENSE_METRICS: [(&str, &str, &str); 12] = [
    ("build_ms", "ms", "lower"),
    ("consults", "count", "lower"),
    ("vetoes", "count", "lower"),
    ("consults_per_act", "ratio", "lower"),
    ("consult_ns_mean", "ns", "lower"),
    ("activations", "count", "lower"),
    ("on_activation_ns_mean", "ns", "lower"),
    ("victim_refreshes", "count", "lower"),
    ("tick_calls", "count", "lower"),
    ("next_event_calls", "count", "lower"),
    ("hook_ns_per_ticked_cycle", "ns", "lower"),
    ("share_of_step", "fraction", "lower"),
];

/// Weighted-speedup breakouts: defenses normalized to Baseline, and the
/// scenarios they appear in.
const WS_DEFENSES: [(&str, &str); 3] = [
    ("PARA", "para"),
    ("BlockHammer", "blockhammer"),
    ("Graphene", "graphene"),
];
const WS_SCENARIOS: [&str; 2] = ["no-attack", "attack"];

/// Every per-layer metric (`--trace 1`): name, unit, better direction.
fn per_layer_declared() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: &'static str| {
        out.push((name.to_owned(), unit, better));
    };
    add("campaign.expand_ms", "ms", "lower");
    add("campaign.prelude_references", "count", "lower");
    add("campaign.prelude_computed", "count", "lower");
    add("campaign.journal_append_us_p50", "us", "lower");
    add("campaign.journal_append_us_p90", "us", "lower");
    add("campaign.journal_bytes", "bytes", "lower");
    add("campaign.aggregate_ms", "ms", "lower");
    add("failed_share", "fraction", "lower");
    add("run_p50_ms", "ms", "lower");
    add("run_p90_ms", "ms", "lower");
    add("pool.busy_share", "fraction", "higher");
    add("pool.idle_s", "s", "lower");
    add("pool.steals", "count", "higher");
    add("pool.reorder_high_water", "count", "lower");
    add("sim.build_ms_p50", "ms", "lower");
    add("sim.build_ms_total", "ms", "lower");
    add("mem.peak_rss_mb", "MB", "lower");
    add("sim.step_ms_total", "ms", "lower");
    add("sim.ticked_cycles", "count", "lower");
    add("sim.skipped_cycles", "count", "higher");
    add("sim.skip_ratio", "fraction", "higher");
    add("sim.events_processed", "count", "lower");
    add("sim.ns_per_ticked_cycle", "ns", "lower");
    add("sim.self_ns_per_ticked_cycle", "ns", "lower");
    add("sim.mcycles_per_s", "Mcycles/s", "higher");
    add("sim.kips", "kinst/s", "higher");
    for (_, key) in DEFENSES {
        for (suffix, unit, better) in DEFENSE_METRICS {
            add(&format!("defense.{key}.{suffix}"), unit, better);
        }
    }
    add("workloads.records", "count", "lower");
    add("workloads.gen_ns_mean", "ns", "lower");
    add("memctrl.accepted", "count", "higher");
    add("memctrl.rejected_queue_full", "count", "lower");
    add("memctrl.rejected_quota", "count", "lower");
    add("memctrl.row_hit_rate", "fraction", "higher");
    add("memctrl.avg_read_latency", "cycles", "lower");
    add("memctrl.delayed_by_defense", "count", "lower");
    add("dram.act", "count", "lower");
    add("dram.pre", "count", "lower");
    add("dram.rd", "count", "higher");
    add("dram.wr", "count", "higher");
    add("dram.ref", "count", "lower");
    add("llc.hits", "count", "higher");
    add("llc.misses", "count", "lower");
    add("cpu.instructions", "count", "higher");
    add("cpu.memory_requests", "count", "higher");
    add("energy.dram_j", "J", "lower");
    add("model.total_cycles", "cycles", "lower");
    for (_, key) in WS_DEFENSES {
        for scenario in WS_SCENARIOS {
            add(&format!("model.ws.{key}.{scenario}"), "ratio", "higher");
        }
    }
    add("model.max_benign_rhli", "ratio", "lower");
    add("model.max_attacker_rhli", "ratio", "lower");
    add("model.output_digest", "hash", "lower");
    add("trace.overhead", "ratio", "lower");
    out
}

/// Parsed command line.
#[derive(Debug)]
struct Options {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 7;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One execution of a campaign through `execute_observed`, with a fresh
/// journal (so the prelude starts cold, as for every new campaign).
struct Execution {
    spec: CampaignSpec,
    report: CampaignReport,
    /// From before expansion to the first delivery.
    setup_s: f64,
    /// From before expansion to `execute_observed` returning.
    wall_s: f64,
    /// Gaps between consecutive deliveries.
    gaps_ms: Vec<f64>,
    /// Delivered entries, when asked for.
    entries: Vec<JournalEntry>,
    csv: String,
    json: String,
}

fn execute(
    workload: Workload,
    seed: u64,
    workers: usize,
    dir: &Path,
    keep_entries: bool,
) -> Result<Execution, String> {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let options = ExecutionOptions {
        policy: FailurePolicy::Quarantine,
        journal: Some(dir.join("campaign.journal")),
        ..ExecutionOptions::default()
    };
    let mut deliveries: Vec<Instant> = Vec::new();
    let mut entries = Vec::new();
    let start = Instant::now();
    let (spec, runs) = workload.runs(seed);
    deliveries.reserve(runs.len());
    let report = execute_observed(&spec, runs, workers, &options, &mut |entry, _| {
        deliveries.push(Instant::now());
        if keep_entries {
            entries.push(entry.clone());
        }
    })
    .map_err(|e| format!("campaign failed: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let _ = fs::remove_dir_all(dir);
    let first = deliveries.first().ok_or("the campaign delivered nothing")?;
    let gaps_ms = deliveries
        .windows(2)
        .map(|pair| (pair[1] - pair[0]).as_secs_f64() * 1e3)
        .collect();
    Ok(Execution {
        setup_s: (*first - start).as_secs_f64(),
        wall_s,
        gaps_ms,
        entries,
        csv: report.summary.to_csv(),
        json: report.summary.to_json(),
        spec,
        report,
    })
}

/// Output checks every execution must pass.
fn check_execution(exec: &Execution, problems: &mut Vec<String>) {
    let spec = &exec.spec;
    let report = &exec.report;
    let delivered = report.outcomes.len() + report.failures.len();
    if delivered != spec.run_count() {
        problems.push(format!(
            "delivered {delivered} of {} runs",
            spec.run_count()
        ));
    }
    if !report.failures.is_empty() {
        problems.push(format!("{} runs quarantined", report.failures.len()));
    }
    let points = spec.scenarios.len()
        * spec.defenses.len()
        * spec.n_rh_points.len()
        * spec.channel_counts.len();
    match parse_summary_csv(&exec.csv) {
        Ok(rows) if rows.len() == points => {}
        Ok(rows) => problems.push(format!(
            "campaign.csv has {} rows for {points} sweep points",
            rows.len()
        )),
        Err(e) => problems.push(format!("campaign.csv does not parse: {e}")),
    }
}

/// A pooled workload's artifacts must equal a sequential execution's of
/// the same runs, byte for byte.
fn check_against_sequential(
    opts: &Options,
    exec: &Execution,
    work: &Path,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let reference = execute(opts.workload, opts.seed, 0, &work.join("sequential"), false)?;
    if reference.csv != exec.csv {
        problems.push("campaign.csv differs from the sequential execution".to_owned());
    }
    if reference.json != exec.json {
        problems.push("campaign.json differs from the sequential execution".to_owned());
    }
    Ok(())
}

/// What one invocation reports.
struct Outcome {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    /// Extra facts for the result file (JSON object members).
    notes: Vec<(String, String)>,
}

/// Repeated untraced executions of one workload.
struct Measured {
    /// The first execution (with its delivered entries when asked for).
    first: Execution,
    /// Runs per second of each execution.
    rates: Vec<f64>,
    /// Set-up time of each execution.
    setups: Vec<f64>,
    /// Delivery gaps of every execution, pooled.
    gaps: Vec<f64>,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

/// Executes the workload's campaign until at least `seconds` have passed,
/// [`MIN_REPS`] executions have run and [`MIN_GAPS`] delivery gaps are in
/// (or [`HARD_CAP`] is reached), checking every execution's outputs. The
/// first execution uses the invocation's seed, later ones seeds derived
/// from it ([`workload::execution_seed`]).
fn measure(
    opts: &Options,
    seconds: u64,
    work: &Path,
    keep_entries: bool,
) -> Result<Measured, String> {
    let started = Instant::now();
    let mut problems = Vec::new();
    let mut rates = Vec::new();
    let mut setups = Vec::new();
    let mut gaps = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut first: Option<Execution> = None;
    loop {
        let k = rates.len();
        let seed = workload::execution_seed(opts.seed, k);
        let keep = keep_entries && first.is_none();
        let rep = work.join(format!("rep-{k}"));
        let exec = execute(opts.workload, seed, opts.workload.workers(), &rep, keep)?;
        check_execution(&exec, &mut problems);
        let runs = exec.report.outcomes.len() + exec.report.failures.len();
        attempted += runs;
        failed += exec.report.failures.len();
        rates.push(runs as f64 / exec.wall_s);
        setups.push(exec.setup_s);
        gaps.extend_from_slice(&exec.gaps_ms);
        first.get_or_insert(exec);
        let elapsed = started.elapsed();
        let enough =
            elapsed.as_secs() >= seconds && rates.len() >= MIN_REPS && gaps.len() >= MIN_GAPS;
        if enough || elapsed >= HARD_CAP {
            break;
        }
    }
    let first = first.ok_or("no repetition ran")?;
    if opts.workload.workers() > 1 {
        check_against_sequential(opts, &first, work, &mut problems)?;
    }
    Ok(Measured {
        first,
        rates,
        setups,
        gaps,
        attempted,
        failed,
        problems,
    })
}

/// `--trace 0`: end-to-end metrics over repeated untraced executions.
fn run_untraced(opts: &Options, work: &Path) -> Result<Outcome, String> {
    let m = measure(opts, opts.seconds, work, false)?;
    let metrics = vec![
        (
            "runs_per_s".to_owned(),
            stats::median(&m.rates).unwrap_or(0.0),
            "runs/s",
        ),
        (
            "setup_s".to_owned(),
            stats::median(&m.setups).unwrap_or(0.0),
            "s",
        ),
    ];
    let notes = vec![
        ("repetitions".to_owned(), m.rates.len().to_string()),
        (
            "output_digest".to_owned(),
            stats::digest48(&[m.first.csv.as_bytes(), m.first.json.as_bytes()]).to_string(),
        ),
        ("runs_per_s_reps".to_owned(), json_array(&m.rates)),
        ("setup_s_reps".to_owned(), json_array(&m.setups)),
    ];
    Ok(Outcome {
        metrics,
        attempted: m.attempted,
        failed: m.failed,
        problems: m.problems,
        notes,
    })
}

fn json_array(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", items.join(", "))
}

/// Replays delivered entries through a fresh journal, timing each append.
/// Returns (append times in µs, journal bytes).
fn replay_journal(
    spec: &CampaignSpec,
    entries: &[JournalEntry],
    dir: &Path,
) -> Result<(Vec<f64>, u64), String> {
    let _ = fs::remove_dir_all(dir);
    let path = dir.join("replay.journal");
    let mut journal = checkpoint::resume_or_create(
        &path,
        checkpoint::fingerprint(spec),
        spec.run_count() as u64,
    )
    .map_err(|e| format!("opening the replay journal: {e}"))?;
    let mut times = Vec::with_capacity(entries.len());
    for entry in entries {
        let start = Instant::now();
        journal
            .writer
            .append(entry)
            .map_err(|e| format!("appending to the replay journal: {e}"))?;
        times.push(start.elapsed().as_secs_f64() * 1e6);
    }
    drop(journal);
    let bytes = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let _ = fs::remove_dir_all(dir);
    Ok((times, bytes))
}

/// `--trace 1`: untraced executions for the campaign-level, delivery and
/// pool numbers, then the traced pass for everything below.
fn run_traced(opts: &Options, work: &Path) -> Result<Outcome, String> {
    let measured = measure(opts, 0, work, true)?;
    let peak_rss_mb = host::peak_rss_mb();
    let mut problems = measured.problems;
    let exec = &measured.first;
    let spec = &exec.spec;

    let mut expand_ms = Vec::new();
    let mut runs: Vec<RunSpec> = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        runs = opts.workload.runs(opts.seed).1;
        expand_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }

    let pass = trace::traced_pass(&runs, &exec.report.outcomes);
    problems.extend(pass.mismatches.iter().cloned());
    let spans_path = Path::new(OUT_DIR).join(format!(
        "spans-{}-seed{}.csv",
        opts.workload.name(),
        opts.seed
    ));
    fs::write(&spans_path, trace::spans_csv(&pass))
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;

    let (append_us, journal_bytes) = replay_journal(spec, &exec.entries, &work.join("replay"))?;
    let start = Instant::now();
    let mut aggregator = CampaignAggregator::new(spec.name.clone());
    for entry in &exec.entries {
        match entry {
            JournalEntry::Outcome(outcome) => aggregator.absorb(outcome),
            JournalEntry::Failure(failure) => aggregator.absorb_failure(failure),
        }
    }
    let summary = aggregator.finish();
    let aggregate_ms = start.elapsed().as_secs_f64() * 1e3;
    if summary.to_csv() != exec.csv {
        problems.push("re-aggregated summary differs from the delivered one".to_owned());
    }

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let report = &exec.report;
    m.insert(
        "campaign.expand_ms".into(),
        stats::median(&expand_ms).unwrap_or(0.0),
    );
    m.insert(
        "campaign.prelude_references".into(),
        report.scheduling.prelude.references as f64,
    );
    m.insert(
        "campaign.prelude_computed".into(),
        report.scheduling.prelude.computed as f64,
    );
    m.insert(
        "campaign.journal_append_us_p50".into(),
        stats::percentile(&append_us, 50.0).unwrap_or(0.0),
    );
    m.insert(
        "campaign.journal_append_us_p90".into(),
        stats::percentile(&append_us, 90.0).unwrap_or(0.0),
    );
    m.insert("campaign.journal_bytes".into(), journal_bytes as f64);
    m.insert("campaign.aggregate_ms".into(), aggregate_ms);
    m.insert(
        "failed_share".into(),
        measured.failed as f64 / measured.attempted.max(1) as f64,
    );
    let tail = stats::tail_percentile(measured.gaps.len()).map_or(50.0, |p| p.min(90.0));
    m.insert(
        "run_p50_ms".into(),
        stats::median(&measured.gaps).unwrap_or(0.0),
    );
    m.insert(
        "run_p90_ms".into(),
        stats::percentile(&measured.gaps, tail).unwrap_or(0.0),
    );

    let workers = &report.scheduling.workers;
    let capacity = workers.len() as f64 * report.wall.as_secs_f64();
    let busy: f64 = workers.iter().map(|w| w.busy.as_secs_f64()).sum();
    m.insert(
        "pool.busy_share".into(),
        if capacity > 0.0 { busy / capacity } else { 0.0 },
    );
    m.insert("pool.idle_s".into(), (capacity - busy).max(0.0));
    m.insert(
        "pool.steals".into(),
        workers.iter().map(|w| w.steals).sum::<u64>() as f64,
    );
    m.insert(
        "pool.reorder_high_water".into(),
        report.scheduling.reorder_high_water as f64,
    );
    m.insert("mem.peak_rss_mb".into(), peak_rss_mb);

    insert_sim_metrics(&pass, &mut m);
    insert_model_metrics(exec, &mut m);

    let declared = per_layer_declared();
    let mut metrics = Vec::with_capacity(declared.len());
    for (name, unit, _) in &declared {
        match m.remove(name) {
            Some(value) => metrics.push((name.clone(), value, *unit)),
            None => problems.push(format!("per-layer metric `{name}` was not measured")),
        }
    }
    for name in m.keys() {
        problems.push(format!("undeclared per-layer metric `{name}`"));
    }
    let notes = vec![
        ("runs_traced".to_owned(), pass.runs.len().to_string()),
        (
            "spans".to_owned(),
            format!("\"{}\"", host::escape(&spans_path.display().to_string())),
        ),
    ];
    Ok(Outcome {
        metrics,
        attempted: measured.attempted,
        failed: measured.failed,
        problems,
        notes,
    })
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Stepping, construction, defense, generator and model-component metrics
/// from the traced pass.
fn insert_sim_metrics(pass: &TracedPass, m: &mut BTreeMap<String, f64>) {
    let runs = &pass.runs;
    let sum = |f: &dyn Fn(&trace::RunTrace) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let build: Vec<f64> = runs.iter().map(|r| r.build_ns as f64 / 1e6).collect();
    m.insert(
        "sim.build_ms_p50".into(),
        stats::median(&build).unwrap_or(0.0),
    );
    m.insert("sim.build_ms_total".into(), build.iter().sum());
    let step_ns = sum(&|r| r.step_ns);
    let ticked = sum(&|r| r.result.stepping.cycles_simulated);
    let skipped = sum(&|r| r.result.stepping.cycles_skipped);
    let total_cycles = sum(&|r| r.result.total_cycles);
    let instructions = sum(&|r| r.result.threads.iter().map(|t| t.instructions).sum());
    let step_self_ns: u64 = pass
        .spans
        .iter()
        .filter(|s| s.layer == "sim.step")
        .map(|span| pass.self_time(span))
        .sum();
    m.insert("sim.step_ms_total".into(), step_ns / 1e6);
    m.insert("sim.ticked_cycles".into(), ticked);
    m.insert("sim.skipped_cycles".into(), skipped);
    m.insert("sim.skip_ratio".into(), ratio(skipped, ticked + skipped));
    m.insert(
        "sim.events_processed".into(),
        sum(&|r| r.result.stepping.events_processed),
    );
    m.insert("sim.ns_per_ticked_cycle".into(), ratio(step_ns, ticked));
    m.insert(
        "sim.self_ns_per_ticked_cycle".into(),
        ratio(step_self_ns as f64, ticked),
    );
    m.insert(
        "sim.mcycles_per_s".into(),
        ratio(total_cycles * 1e3, step_ns),
    );
    m.insert("sim.kips".into(), ratio(instructions * 1e6, step_ns));
    m.insert(
        "trace.overhead".into(),
        ratio(step_ns, sum(&|r| r.reference_step_ns)),
    );

    for (kind, key) in DEFENSES {
        let mine: Vec<&trace::RunTrace> = runs.iter().filter(|r| r.defense == kind).collect();
        let mut hooks = trace::HookTally::default();
        for run in &mine {
            hooks.add(&run.hooks);
        }
        let build_ms: Vec<f64> = mine
            .iter()
            .map(|r| r.defense_build_ns as f64 / 1e6)
            .collect();
        let ticked: u64 = mine
            .iter()
            .map(|r| r.result.stepping.cycles_simulated)
            .sum();
        let step: u64 = mine.iter().map(|r| r.step_ns).sum();
        let values = [
            ratio(build_ms.iter().sum(), build_ms.len() as f64),
            hooks.consults as f64,
            hooks.vetoes as f64,
            ratio(hooks.consults as f64, hooks.activations as f64),
            ratio(hooks.consult_ns as f64, hooks.consults as f64),
            hooks.activations as f64,
            ratio(hooks.on_activation_ns as f64, hooks.activations as f64),
            hooks.victim_refreshes as f64,
            hooks.tick_calls as f64,
            hooks.next_event_calls as f64,
            ratio(hooks.hook_ns() as f64, ticked as f64),
            ratio(hooks.hook_ns() as f64, step as f64),
        ];
        for ((suffix, _, _), value) in DEFENSE_METRICS.iter().zip(values) {
            m.insert(format!("defense.{key}.{suffix}"), value);
        }
    }

    let records = sum(&|r| r.records);
    m.insert("workloads.records".into(), records);
    m.insert(
        "workloads.gen_ns_mean".into(),
        ratio(sum(&|r| r.gen_ns), records),
    );

    let ctrl = runs
        .iter()
        .map(|r| r.result.ctrl.clone())
        .reduce(|a, b| a.merged(&b))
        .unwrap_or_default();
    m.insert("memctrl.accepted".into(), ctrl.accepted_requests as f64);
    m.insert(
        "memctrl.rejected_queue_full".into(),
        ctrl.rejected_queue_full as f64,
    );
    m.insert("memctrl.rejected_quota".into(), ctrl.rejected_quota as f64);
    m.insert("memctrl.row_hit_rate".into(), ctrl.row_hit_rate());
    m.insert(
        "memctrl.avg_read_latency".into(),
        ctrl.average_read_latency(),
    );
    m.insert(
        "memctrl.delayed_by_defense".into(),
        ctrl.activations_delayed_by_defense as f64,
    );
    m.insert(
        "dram.act".into(),
        sum(&|r| r.result.dram.totals().activates),
    );
    m.insert(
        "dram.pre".into(),
        sum(&|r| r.result.dram.totals().precharges),
    );
    m.insert("dram.rd".into(), sum(&|r| r.result.dram.totals().reads));
    m.insert("dram.wr".into(), sum(&|r| r.result.dram.totals().writes));
    m.insert(
        "dram.ref".into(),
        sum(&|r| r.result.dram.totals().refreshes),
    );
    m.insert("llc.hits".into(), sum(&|r| r.result.llc_hits));
    m.insert("llc.misses".into(), sum(&|r| r.result.llc_misses));
    m.insert("cpu.instructions".into(), instructions);
    m.insert(
        "cpu.memory_requests".into(),
        sum(&|r| r.result.threads.iter().map(|t| t.memory_requests).sum()),
    );
    m.insert(
        "energy.dram_j".into(),
        runs.iter().map(|r| r.result.dram_energy_joules()).sum(),
    );
}

/// Simulated outputs of the delivered campaign.
fn insert_model_metrics(exec: &Execution, m: &mut BTreeMap<String, f64>) {
    let outcomes = &exec.report.outcomes;
    m.insert(
        "model.total_cycles".into(),
        outcomes.iter().map(|o| o.total_cycles).sum::<u64>() as f64,
    );
    for (label, key) in WS_DEFENSES {
        for scenario in WS_SCENARIOS {
            let ws: Vec<f64> = exec
                .report
                .summary
                .points
                .iter()
                .filter(|p| p.key.defense == label && p.key.scenario == scenario)
                .filter_map(|p| p.normalized.map(|n| n.weighted_speedup))
                .collect();
            m.insert(
                format!("model.ws.{key}.{scenario}"),
                ratio(ws.iter().sum(), ws.len() as f64),
            );
        }
    }
    m.insert(
        "model.max_benign_rhli".into(),
        outcomes
            .iter()
            .map(|o| o.max_benign_rhli())
            .fold(0.0, f64::max),
    );
    m.insert(
        "model.max_attacker_rhli".into(),
        outcomes
            .iter()
            .map(|o| o.max_attacker_rhli())
            .fold(0.0, f64::max),
    );
    m.insert(
        "model.output_digest".into(),
        stats::digest48(&[exec.csv.as_bytes(), exec.json.as_bytes()]) as f64,
    );
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(outcome: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Validates the metric set against the declaration for the mode.
fn check_metrics(outcome: &mut Outcome, trace: bool) {
    let declared: Vec<(String, &str)> = if trace {
        per_layer_declared()
            .into_iter()
            .map(|(name, unit, _)| (name, unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| ((*name).to_owned(), *unit))
            .collect()
    };
    let emitted: Vec<(String, &str)> = outcome
        .metrics
        .iter()
        .map(|(name, _, unit)| (name.clone(), *unit))
        .collect();
    if emitted != declared {
        outcome
            .problems
            .push("emitted metrics differ from the declared set".to_owned());
    }
    for (name, value, _) in &mut outcome.metrics {
        if !stats::valid_metric_name(name) {
            outcome
                .problems
                .push(format!("invalid metric name `{name}`"));
        }
        if !value.is_finite() {
            outcome
                .problems
                .push(format!("metric `{name}` is not finite"));
            *value = 0.0;
        }
    }
    if !trace {
        for (name, value, _) in &outcome.metrics {
            if *value <= 0.0 {
                outcome
                    .problems
                    .push(format!("end-to-end metric `{name}` is {value}"));
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The contention probe's child processes (see `host`).
    if args.first().map(String::as_str) == Some("--spin") {
        let iterations = args.get(1).and_then(|n| n.parse().ok()).unwrap_or(1);
        println!("{}", host::spin(iterations));
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <quick-2w|attack-long> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: creating {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let work: PathBuf = Path::new(OUT_DIR).join(format!("work-{}", std::process::id()));
    let result = if opts.trace {
        run_traced(&opts, &work)
    } else {
        run_untraced(&opts, &work)
    };
    let _ = fs::remove_dir_all(&work);
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    check_metrics(&mut outcome, opts.trace);
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let correct = outcome.problems.is_empty();
    let host = host::facts_json();
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(key, value)| format!("\"{key}\": {value}"))
        .collect();
    let line = result_json(&outcome, correct);
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {host}, \
         \"notes\": {{{}}}, \"result\": {line}}}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        notes.join(", ")
    );
    let record_path = Path::new(OUT_DIR).join(format!(
        "result-{}-seed{}-trace{}.json",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    ));
    if let Err(e) = fs::write(&record_path, format!("{record}\n")) {
        eprintln!("perfbench: writing {}: {e}", record_path.display());
    }
    println!("{record}");
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metric_names_are_valid_and_unique() {
        let mut names: Vec<String> = per_layer_declared()
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        names.extend(END_TO_END.iter().map(|(n, _)| (*n).to_owned()));
        for name in &names {
            assert!(stats::valid_metric_name(name), "{name}");
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric names");
        assert!(count - END_TO_END.len() <= 128);
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let mut declared: Vec<String> = text
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next().map(str::to_owned))
            .collect();
        let mut expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        expected.extend(END_TO_END.iter().map(|(n, _)| (*n).to_owned()));
        expected.extend(per_layer_declared().into_iter().map(|(n, _, _)| n));
        declared.sort();
        expected.sort();
        assert_eq!(declared, expected);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let opts = parse_args(&args("--workload quick-2w --seed 3 --seconds 5 --trace 1")).unwrap();
        assert_eq!(opts.workload, Workload::Quick2w);
        assert_eq!((opts.seed, opts.seconds, opts.trace), (3, 5, true));
        assert!(parse_args(&args("--seed 3")).is_err());
        assert!(parse_args(&args("--workload attack-long --trace 2")).is_err());
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload attack-long --seed")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            metrics: vec![("runs_per_s".to_owned(), 12.5, "runs/s")],
            attempted: 3,
            failed: 0,
            problems: Vec::new(),
            notes: Vec::new(),
        };
        assert_eq!(
            result_json(&outcome, true),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"runs_per_s\": {\"value\": 12.5, \"unit\": \"runs/s\"}}}"
        );
    }
}
