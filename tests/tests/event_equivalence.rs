//! Event-driven stepping equivalence pins: `AdvanceMode::EventDriven`
//! must reproduce the lockstep reference **bit for bit** — every
//! `RunResult` field except the mode-dependent idle-skip counters — for
//! every defense, channel count and workload shape, and whole campaigns
//! must emit byte-identical CSV/JSON in both modes.

use bh_types::{Cycle, DramAddress, ThreadId, TraceRecord};
use blockhammer::BlockHammer;
use campaign::{execute, CampaignSpec};
use integration_tests::all_defenses;
use memctrl::MemCtrlConfig;
use mitigations::{
    DefenseStats, MetadataFootprint, NoMitigation, RowHammerDefense, RowHammerThreshold,
};
use proptest::prelude::*;
use sim::{AdvanceMode, DefenseKind, RunResult, SteppingStats, System, SystemBuilder};
use workloads::{AttackKind, SyntheticSpec};

/// The comparable form of a run: the full `RunResult` with the
/// advance-mode-dependent stepping counters zeroed (they are the *only*
/// field allowed to differ between modes). `RunResult: PartialEq`
/// compares every statistic field for field.
fn canonical(mut result: RunResult) -> RunResult {
    result.stepping = SteppingStats::default();
    result
}

fn quick_builder(seed: u64, channels: usize) -> SystemBuilder {
    SystemBuilder::new()
        .time_scale(8192)
        .max_cycles(3_000_000)
        .min_cycles(20_000)
        .llc_capacity(1 << 20)
        .seed(seed)
        .channels(channels)
}

#[test]
fn every_defense_and_channel_count_is_bit_identical() {
    for defense in all_defenses() {
        for channels in [1usize, 2, 4] {
            let run = |advance: AdvanceMode| {
                quick_builder(7, channels)
                    .defense(defense)
                    .advance_mode(advance)
                    .add_attacker()
                    .add_workload(SyntheticSpec::high_intensity("h0", 0), 1_500)
                    .add_workload(SyntheticSpec::low_intensity("l1", 1), 1_500)
                    .run()
            };
            let lockstep = run(AdvanceMode::Lockstep);
            let event = run(AdvanceMode::EventDriven);
            assert_eq!(
                lockstep.stepping.cycles_simulated,
                lockstep.total_cycles + 1,
                "lockstep must tick every cycle"
            );
            assert_eq!(
                event.stepping.cycles_simulated + event.stepping.cycles_skipped,
                event.total_cycles + 1,
                "skip accounting must cover the whole run"
            );
            assert_eq!(
                canonical(lockstep),
                canonical(event),
                "{:?} x {channels}ch diverged between advance modes",
                defense
            );
        }
    }
}

#[test]
fn benign_only_runs_are_bit_identical() {
    // No attacker: the run ends when the benign threads finish and then
    // pads out to `min_cycles` with an idle system — the padding is where
    // event-driven stepping jumps refresh-to-refresh.
    for defense in [DefenseKind::Baseline, DefenseKind::BlockHammer] {
        let run = |advance: AdvanceMode| {
            quick_builder(11, 1)
                .defense(defense)
                .advance_mode(advance)
                .min_cycles(50_000)
                .add_workload(SyntheticSpec::low_intensity("l0", 0), 1_000)
                .run()
        };
        let lockstep = run(AdvanceMode::Lockstep);
        let event = run(AdvanceMode::EventDriven);
        assert_eq!(canonical(lockstep), canonical(event.clone()));
        assert!(
            event.stepping.cycles_skipped > 0,
            "an idle-padded run must skip cycles"
        );
    }
}

#[test]
fn idle_heavy_run_simulates_a_fraction_of_its_cycles() {
    // The deterministic speedup proxy: on an idle-heavy run (short benign
    // thread, long min_cycles padding) event-driven stepping must tick at
    // most a fifth of the simulated cycles — the tick count is the
    // wall-clock driver, so this pins the >=5x claim without timing.
    let result = quick_builder(3, 1)
        .defense(DefenseKind::BlockHammer)
        .advance_mode(AdvanceMode::EventDriven)
        .min_cycles(200_000)
        .add_workload(SyntheticSpec::low_intensity("l0", 0), 1_000)
        .run();
    assert!(
        result.stepping.cycles_simulated * 5 <= result.total_cycles,
        "expected >=5x tick reduction, got {} ticks over {} cycles",
        result.stepping.cycles_simulated,
        result.total_cycles
    );
    assert!(result.stepping.largest_jump > 100);
}

#[test]
fn saturated_attack_run_ticks_at_most_half_its_cycles() {
    // A saturated shape: a double-sided attacker keeps BlockHammer
    // vetoing and the queues refusing, which used to force a tick on
    // almost every cycle. Repeated no-op ticks are skipped now, so at
    // most half the cycles may be ticked.
    let result = quick_builder(7, 1)
        .defense(DefenseKind::BlockHammer)
        .advance_mode(AdvanceMode::EventDriven)
        .add_attacker()
        .add_workload(SyntheticSpec::high_intensity("h0", 0), 2_000)
        .run();
    assert!(
        result.stepping.cycles_simulated * 2 <= result.total_cycles,
        "expected >=2x tick reduction, got {} ticks over {} cycles",
        result.stepping.cycles_simulated,
        result.total_cycles
    );
}

/// Vetoes every activation until `lift` and reports that cycle from
/// `next_event`; records whether the run ticked the lift cycle and when
/// the first activation issued.
#[derive(Debug)]
struct VetoUntil {
    lift: Cycle,
    ticked_lift: bool,
    first_activation: Option<Cycle>,
}

impl RowHammerDefense for VetoUntil {
    fn name(&self) -> &'static str {
        "VetoUntil"
    }
    fn tick(&mut self, now: Cycle) {
        self.ticked_lift |= now == self.lift;
    }
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        (now < self.lift).then_some(self.lift)
    }
    fn is_activation_safe(&mut self, now: Cycle, _thread: ThreadId, _addr: &DramAddress) -> bool {
        now >= self.lift
    }
    fn on_activation(
        &mut self,
        now: Cycle,
        _thread: ThreadId,
        _addr: &DramAddress,
    ) -> Vec<DramAddress> {
        self.first_activation.get_or_insert(now);
        Vec::new()
    }
    fn metadata(&self) -> MetadataFootprint {
        MetadataFootprint::default()
    }
    fn stats(&self) -> DefenseStats {
        DefenseStats::default()
    }
}

#[test]
fn a_veto_lifting_with_time_alone_is_ticked_at_its_lift() {
    // Until the lift the controller's vetoed pass is memoized and every
    // tick repeats the same refusals, so event-driven stepping skips; the
    // defense's `next_event` must stop both the memo and the skip at the
    // lift itself.
    let lift = 15_000;
    let run = |advance: AdvanceMode| {
        let builder = || {
            quick_builder(5, 1)
                .advance_mode(advance)
                .add_workload(SyntheticSpec::high_intensity("h0", 0), 1_000)
        };
        let config = builder().build().config().clone();
        let defense = VetoUntil {
            lift,
            ticked_lift: false,
            first_activation: None,
        };
        let system = System::new(
            config,
            builder().into_thread_traces(),
            vec![Box::new(defense)],
        );
        let (result, defenses) = system.run_into_parts();
        let veto = defenses[0]
            .as_ref()
            .as_any()
            .downcast_ref::<VetoUntil>()
            .expect("the test defense comes back");
        (result, veto.ticked_lift, veto.first_activation)
    };
    let (lockstep, _, lockstep_first) = run(AdvanceMode::Lockstep);
    let (event, ticked_lift, event_first) = run(AdvanceMode::EventDriven);
    assert!(ticked_lift, "event-driven stepping jumped past the lift");
    assert_eq!(event_first, Some(lift), "the first ACT waits for the lift");
    assert_eq!(lockstep_first, event_first);
    assert!(event.ctrl.activations_delayed_by_defense > 0);
    assert!(
        event.stepping.cycles_skipped > lift / 2,
        "the vetoed stretch must be skipped, skipped {}",
        event.stepping.cycles_skipped
    );
    assert_eq!(canonical(lockstep), canonical(event));
}

/// Forwards every hook to the defense it wraps and records every cycle
/// the controller ticked it and every activation it saw.
struct TickRecorder {
    inner: Box<dyn RowHammerDefense>,
    ticks: Vec<Cycle>,
    activations: Vec<Cycle>,
}

impl TickRecorder {
    fn new(inner: Box<dyn RowHammerDefense>) -> Self {
        Self {
            inner,
            ticks: Vec::new(),
            activations: Vec::new(),
        }
    }
}

impl RowHammerDefense for TickRecorder {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn is_activation_safe(&mut self, now: Cycle, thread: ThreadId, addr: &DramAddress) -> bool {
        self.inner.is_activation_safe(now, thread, addr)
    }
    fn on_activation(
        &mut self,
        now: Cycle,
        thread: ThreadId,
        addr: &DramAddress,
    ) -> Vec<DramAddress> {
        self.activations.push(now);
        self.inner.on_activation(now, thread, addr)
    }
    fn tick(&mut self, now: Cycle) {
        self.ticks.push(now);
        self.inner.tick(now);
    }
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.inner.next_event(now)
    }
    fn inflight_quota(&self, thread: ThreadId, global_bank: usize) -> Option<u32> {
        self.inner.inflight_quota(thread, global_bank)
    }
    fn rhli(&self, thread: ThreadId, global_bank: usize) -> f64 {
        self.inner.rhli(thread, global_bank)
    }
    fn metadata(&self) -> MetadataFootprint {
        self.inner.metadata()
    }
    fn stats(&self) -> DefenseStats {
        self.inner.stats()
    }
}

#[test]
fn a_command_only_tick_is_followed_by_no_detection_tick() {
    // One thread loads four rows of one bank and then waits, so the
    // controller works through its ACT, RD and PRE commands while no core
    // can move. An issue closes the channel's command slot, and the
    // controller reports the slot reopening as its horizon: the clock
    // jumps there instead of ticking the next cycle only to find that
    // nothing can happen.
    let organization = MemCtrlConfig::default().organization;
    let loads: Vec<TraceRecord> = (1..=4u64)
        .map(|row| {
            let addr = DramAddress::new(0, 0, 2, 1, row * 64, 0);
            TraceRecord::load(0, organization.encode(&addr))
        })
        .collect();
    let run = |advance: AdvanceMode| {
        let builder = || {
            quick_builder(5, 1)
                .advance_mode(advance)
                .min_cycles(0)
                .add_trace("loads", Box::new(loads.clone().into_iter()), false, 4)
        };
        let system = System::new(
            builder().build().config().clone(),
            builder().into_thread_traces(),
            vec![Box::new(TickRecorder::new(Box::new(NoMitigation::new())))],
        );
        let (result, defenses) = system.run_into_parts();
        let recorder = defenses[0]
            .as_ref()
            .as_any()
            .downcast_ref::<TickRecorder>()
            .expect("the test defense comes back");
        (result, recorder.ticks.clone(), recorder.activations.clone())
    };
    let (lockstep, _, _) = run(AdvanceMode::Lockstep);
    let (event, ticks, activations) = run(AdvanceMode::EventDriven);
    assert_eq!(canonical(lockstep), canonical(event.clone()));
    assert_eq!(activations.len(), 4, "every load opens its own row");
    for act in &activations {
        assert!(
            !ticks.contains(&(act + 1)),
            "the cycle after the ACT at {act} was ticked: {ticks:?}"
        );
    }
    // The bound is this run's tick count. A detection tick after each of
    // its eight command-only ticks would make it 36.
    assert!(
        event.stepping.cycles_simulated <= 28,
        "{} ticks: {ticks:?}",
        event.stepping.cycles_simulated
    );
}

#[test]
fn a_tick_that_fills_a_core_window_is_followed_by_a_skip() {
    // One thread issues loads that all merge into one outstanding line
    // fetch, four per cycle, until its window is full. No controller can
    // act in the next cycle: the fetch's ACT is out and its RD waits for
    // tRCD. The core reports from the tick that fills its window that it
    // cannot act, so the clock jumps at once instead of ticking the next
    // cycle only to find the window still full.
    let window = 128;
    let issue_width = 4;
    let filled_at: Cycle = window / issue_width - 1;
    let loads: Vec<TraceRecord> = (0..2 * window)
        .map(|i| TraceRecord::load(0, 0x10_0000 + i % 64))
        .collect();
    let run = |advance: AdvanceMode| {
        let builder = || {
            quick_builder(5, 1)
                .advance_mode(advance)
                .min_cycles(0)
                .add_trace(
                    "merged-loads",
                    Box::new(loads.clone().into_iter()),
                    false,
                    u64::MAX,
                )
        };
        let system = System::new(
            builder().build().config().clone(),
            builder().into_thread_traces(),
            vec![Box::new(TickRecorder::new(Box::new(NoMitigation::new())))],
        );
        let (result, defenses) = system.run_into_parts();
        let recorder = defenses[0]
            .as_ref()
            .as_any()
            .downcast_ref::<TickRecorder>()
            .expect("the test defense comes back");
        (result, recorder.ticks.clone())
    };
    let (lockstep, _) = run(AdvanceMode::Lockstep);
    let (event, ticks) = run(AdvanceMode::EventDriven);
    assert_eq!(canonical(lockstep), canonical(event.clone()));
    assert_eq!(
        event.llc_misses, window,
        "the loads that fill the window merge into one fetch; the rest hit"
    );
    assert_eq!(event.ctrl.accepted_requests, 1);
    assert_eq!(
        ticks[..=filled_at as usize],
        (0..=filled_at).collect::<Vec<_>>()[..],
        "the core issues in every cycle until its window is full"
    );
    assert!(
        !ticks.contains(&(filled_at + 1)),
        "the cycle after the window filled at {filled_at} was ticked: {ticks:?}"
    );
}

#[test]
fn a_fetch_queued_after_admission_is_admitted_next_cycle() {
    // A single cacheable load to a cold line: the core's tick misses in
    // the LLC and queues the line fetch after this cycle's admission step,
    // and then cannot act. No controller has work yet, so only the queued
    // fetch says the next cycle must be ticked; skipping past it would
    // leave the fetch waiting for the refresh deadline.
    let run = |advance: AdvanceMode| {
        quick_builder(5, 1)
            .advance_mode(advance)
            .min_cycles(0)
            .add_trace(
                "cold-load",
                Box::new(std::iter::once(TraceRecord::load(0, 0x10_0000))),
                false,
                1,
            )
            .run()
    };
    let lockstep = run(AdvanceMode::Lockstep);
    let event = run(AdvanceMode::EventDriven);
    assert_eq!(canonical(lockstep), canonical(event.clone()));
    assert_eq!(event.ctrl.reads_completed, 1, "the load is fetched");
    assert!(
        event.threads[0].cycles < 500,
        "the load finished at cycle {}",
        event.threads[0].cycles
    );
}

#[test]
fn every_epoch_boundary_gets_its_own_tick() {
    // BlockHammer's blacklists and quotas change at an epoch boundary
    // without an activation, so every boundary must be a ticked cycle: a
    // jump past one would answer from the ended epoch's filters and
    // counters until the next tick. At this time scale an epoch (12,500
    // cycles) is shorter than the refresh interval, and the run idles
    // through most of its epochs: only BlockHammer's `next_event` stops
    // the clock at each boundary.
    for advance in [AdvanceMode::Lockstep, AdvanceMode::EventDriven] {
        let builder = || {
            quick_builder(13, 1)
                .defense(DefenseKind::BlockHammer)
                .advance_mode(advance)
                .min_cycles(125_000)
                .add_workload(SyntheticSpec::low_intensity("l0", 0), 1_000)
        };
        let config = builder().build().config().clone();
        let defenses = DefenseKind::BlockHammer
            .build_per_channel(
                1,
                RowHammerThreshold::new(config.n_rh),
                config.defense_geometry(1),
                config.t_refi_cycles(),
                config.seed,
            )
            .into_iter()
            .map(|inner| Box::new(TickRecorder::new(inner)) as Box<dyn RowHammerDefense>)
            .collect();
        let system = System::new(config, builder().into_thread_traces(), defenses);
        let (result, defenses) = system.run_into_parts();
        assert_eq!(
            canonical(result.clone()),
            canonical(builder().run()),
            "{advance:?}: the recorder changed the run"
        );
        let recorder = defenses[0]
            .as_ref()
            .as_any()
            .downcast_ref::<TickRecorder>()
            .expect("the test defense comes back");
        let blockhammer = recorder
            .inner
            .as_ref()
            .as_any()
            .downcast_ref::<BlockHammer>()
            .expect("the recorder wraps BlockHammer");
        let epoch = blockhammer.config().epoch_cycles();
        let boundaries = result.total_cycles / epoch;
        assert!(
            boundaries >= 8,
            "{} cycles of {epoch}-cycle epochs",
            result.total_cycles
        );
        let unticked: Vec<Cycle> = (1..=boundaries)
            .map(|k| k * epoch)
            .filter(|boundary| recorder.ticks.binary_search(boundary).is_err())
            .collect();
        assert!(
            unticked.is_empty(),
            "{advance:?}: the epoch boundaries at {unticked:?} were not ticked"
        );
        assert_eq!(
            blockhammer.blockhammer_stats().epoch_swaps,
            boundaries,
            "{advance:?}: {} cycles of {epoch}-cycle epochs",
            result.total_cycles
        );
    }
}

#[test]
fn campaign_csv_and_json_are_byte_identical_across_modes() {
    // The CI smoke campaign shape, shrunk: both advance modes must
    // produce the exact same summary artifacts, byte for byte, and the
    // same per-run outcomes once the stepping counters are masked.
    let campaign_with = |advance: AdvanceMode| {
        let mut campaign = CampaignSpec::smoke();
        campaign.name = "event-equivalence".to_owned();
        campaign.mix_count = 1;
        campaign.threads_per_mix = 2;
        campaign.scale.benign_instructions = 800;
        campaign.scale.min_cycles = 20_000;
        campaign.scale.advance = advance;
        campaign
    };
    let run = |advance: AdvanceMode| {
        let campaign = campaign_with(advance);
        execute(&campaign, campaign.expand(), 0).expect("campaign runs")
    };
    let lockstep = run(AdvanceMode::Lockstep);
    let event = run(AdvanceMode::EventDriven);
    assert_eq!(
        lockstep.summary.to_csv(),
        event.summary.to_csv(),
        "summary CSV diverged between advance modes"
    );
    assert_eq!(
        lockstep.summary.to_json(),
        event.summary.to_json(),
        "summary JSON diverged between advance modes"
    );
    let masked = |report: &campaign::CampaignReport| {
        let mut outcomes = report.outcomes.clone();
        for outcome in &mut outcomes {
            outcome.stepping = SteppingStats::default();
        }
        outcomes
    };
    assert_eq!(masked(&lockstep), masked(&event));
    // The stepping report is the one artifact that *should* differ.
    assert_ne!(lockstep.stepping_csv(), event.stepping_csv());
    assert!(event
        .outcomes
        .iter()
        .any(|outcome| outcome.stepping.cycles_skipped > 0));
}

proptest! {
    /// Randomized mixes x defenses x channel counts x attack patterns:
    /// event-driven and lockstep runs must stay bit-identical for
    /// arbitrary seeds and workload shapes, with and without an attacker
    /// of each kind. Full-system runs
    /// are too slow for the shim's 128 cases, so a sampled gate keeps a
    /// deterministic ~8-case subset.
    #[test]
    fn random_mixes_are_bit_identical(
        gate in 0u32..16,
        seed in 0u64..1_000_000,
        defense_index in 0usize..9,
        channel_exp in 0u32..3,
        attacker_flag in 0u32..2,
        intensity in 0usize..3,
        attack_kind in 0usize..3,
    ) {
        prop_assume!(gate == 0);
        let with_attacker = attacker_flag == 1;
        let defense = all_defenses()[defense_index];
        let channels = 1usize << channel_exp;
        let workload = |name: &str, variant: u64| match intensity {
            0 => SyntheticSpec::low_intensity(name, variant),
            1 => SyntheticSpec::medium_intensity(name, variant),
            _ => SyntheticSpec::high_intensity(name, variant),
        };
        let run = |advance: AdvanceMode| {
            let mut builder = quick_builder(seed, channels)
                .defense(defense)
                .advance_mode(advance)
                .min_cycles(10_000);
            if with_attacker {
                builder = builder.add_attacker_kind(match attack_kind {
                    0 => AttackKind::DoubleSided,
                    1 => AttackKind::SingleSided,
                    _ => AttackKind::ManySided { sides: 4 },
                });
            }
            builder
                .add_workload(workload("w0", 0), 800)
                .run()
        };
        prop_assert_eq!(
            canonical(run(AdvanceMode::Lockstep)),
            canonical(run(AdvanceMode::EventDriven))
        );
    }
}
