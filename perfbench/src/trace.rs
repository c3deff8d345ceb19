//! The traced pass: every run of a campaign re-executed through the public
//! `sim` API, once plainly (the reference) and once with forwarding
//! decorators around each channel's defense and each thread's trace. The
//! decorators count and time every call from outside, so no product crate
//! carries instrumentation; the pass checks that the decorated run returns
//! exactly the reference `RunResult`.

use crate::stats::Span;
use bh_types::{Cycle, DramAddress, ThreadId, TraceRecord};
use campaign::{RunOutcome, RunSpec, ThreadGenerator};
use mitigations::{DefenseStats, MetadataFootprint, RowHammerDefense, RowHammerThreshold};
use sim::{BoxedTrace, DefenseKind, RunResult, System, SystemBuilder};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Nanoseconds since `start`.
fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Calls and time per defense hook, summed over a run's channels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HookTally {
    /// `is_activation_safe` calls.
    pub consults: u64,
    /// Consults answered "unsafe".
    pub vetoes: u64,
    /// Time inside `is_activation_safe`.
    pub consult_ns: u64,
    /// `on_activation` calls (issued ACTs).
    pub activations: u64,
    /// Time inside `on_activation`.
    pub on_activation_ns: u64,
    /// Victim rows returned by `on_activation`.
    pub victim_refreshes: u64,
    /// `tick` calls.
    pub tick_calls: u64,
    /// Time inside `tick`.
    pub tick_ns: u64,
    /// `next_event` calls.
    pub next_event_calls: u64,
    /// Time inside `next_event`.
    pub next_event_ns: u64,
    /// `inflight_quota` calls.
    pub quota_calls: u64,
    /// Time inside `inflight_quota`.
    pub quota_ns: u64,
}

impl HookTally {
    /// Time inside every timed hook.
    pub fn hook_ns(&self) -> u64 {
        self.consult_ns + self.on_activation_ns + self.tick_ns + self.next_event_ns + self.quota_ns
    }

    /// Element-wise sum.
    pub fn add(&mut self, other: &HookTally) {
        self.consults += other.consults;
        self.vetoes += other.vetoes;
        self.consult_ns += other.consult_ns;
        self.activations += other.activations;
        self.on_activation_ns += other.on_activation_ns;
        self.victim_refreshes += other.victim_refreshes;
        self.tick_calls += other.tick_calls;
        self.tick_ns += other.tick_ns;
        self.next_event_calls += other.next_event_calls;
        self.next_event_ns += other.next_event_ns;
        self.quota_calls += other.quota_calls;
        self.quota_ns += other.quota_ns;
    }
}

/// A defense that forwards every hook to the wrapped one, counting and
/// timing the calls. `&self` hooks record through `Cell`s.
pub struct TracedDefense {
    inner: Box<dyn RowHammerDefense>,
    tally: HookTally,
    /// (calls, ns) of `next_event`.
    next_event: Cell<(u64, u64)>,
    /// (calls, ns) of `inflight_quota`.
    quota: Cell<(u64, u64)>,
}

impl TracedDefense {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn RowHammerDefense>) -> Self {
        Self {
            inner,
            tally: HookTally::default(),
            next_event: Cell::new((0, 0)),
            quota: Cell::new((0, 0)),
        }
    }

    /// Everything recorded so far.
    pub fn tally(&self) -> HookTally {
        let (next_event_calls, next_event_ns) = self.next_event.get();
        let (quota_calls, quota_ns) = self.quota.get();
        HookTally {
            next_event_calls,
            next_event_ns,
            quota_calls,
            quota_ns,
            ..self.tally
        }
    }
}

impl RowHammerDefense for TracedDefense {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_activation_safe(&mut self, now: Cycle, thread: ThreadId, addr: &DramAddress) -> bool {
        let start = Instant::now();
        let safe = self.inner.is_activation_safe(now, thread, addr);
        self.tally.consult_ns += ns_since(start);
        self.tally.consults += 1;
        self.tally.vetoes += u64::from(!safe);
        safe
    }

    fn on_activation(
        &mut self,
        now: Cycle,
        thread: ThreadId,
        addr: &DramAddress,
    ) -> Vec<DramAddress> {
        let start = Instant::now();
        let victims = self.inner.on_activation(now, thread, addr);
        self.tally.on_activation_ns += ns_since(start);
        self.tally.activations += 1;
        self.tally.victim_refreshes += victims.len() as u64;
        victims
    }

    fn tick(&mut self, now: Cycle) {
        let start = Instant::now();
        self.inner.tick(now);
        self.tally.tick_ns += ns_since(start);
        self.tally.tick_calls += 1;
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let start = Instant::now();
        let next = self.inner.next_event(now);
        let (calls, ns) = self.next_event.get();
        self.next_event.set((calls + 1, ns + ns_since(start)));
        next
    }

    fn inflight_quota(&self, thread: ThreadId, global_bank: usize) -> Option<u32> {
        let start = Instant::now();
        let quota = self.inner.inflight_quota(thread, global_bank);
        let (calls, ns) = self.quota.get();
        self.quota.set((calls + 1, ns + ns_since(start)));
        quota
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

/// Records pulled and time spent generating them, shared by every traced
/// thread of one run.
#[derive(Debug, Default)]
struct GenTally {
    records: Cell<u64>,
    ns: Cell<u64>,
}

/// A thread trace that forwards `next`, counting and timing it.
struct TracedTrace {
    inner: BoxedTrace,
    tally: Rc<GenTally>,
}

impl Iterator for TracedTrace {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        let start = Instant::now();
        let record = self.inner.next();
        self.tally.ns.set(self.tally.ns.get() + ns_since(start));
        if record.is_some() {
            self.tally.records.set(self.tally.records.get() + 1);
        }
        record
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// The builder for `spec` with `defense` in place of the spec's own — the
/// public-API equivalent of how `campaign::run_spec` materializes a
/// generator-driven run.
fn builder(spec: &RunSpec, defense: DefenseKind) -> SystemBuilder {
    let mut builder = SystemBuilder::new()
        .time_scale(spec.scale.time_scale)
        .llc_capacity(spec.scale.llc_bytes)
        .seed(spec.seed)
        .max_cycles(spec.scale.max_cycles)
        .min_cycles(spec.scale.min_cycles)
        .channels(spec.channels)
        .defense(defense)
        .rowhammer_threshold(spec.paper_n_rh)
        .advance_mode(spec.scale.advance);
    for thread in &spec.threads {
        builder = match &thread.generator {
            ThreadGenerator::Attack(kind) => builder.add_attacker_kind(*kind),
            ThreadGenerator::Synthetic(synthetic) => {
                builder.add_workload(synthetic.clone(), thread.instruction_limit)
            }
        };
    }
    builder
}

/// What the traced pass measured for one run.
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// Run index in the campaign.
    pub index: usize,
    /// Defense under test.
    pub defense: DefenseKind,
    /// Untraced `System::run` time (build excluded).
    pub reference_step_ns: u64,
    /// Traced construction: defense build plus `System::new`.
    pub build_ns: u64,
    /// Defense construction alone.
    pub defense_build_ns: u64,
    /// Traced `run_into_parts` time.
    pub step_ns: u64,
    /// Defense hook counters, summed over channels.
    pub hooks: HookTally,
    /// Trace records generated.
    pub records: u64,
    /// Time inside trace generation.
    pub gen_ns: u64,
    /// The traced run's result (equal to the reference's).
    pub result: RunResult,
}

/// Everything the traced pass produced.
#[derive(Debug, Default)]
pub struct TracedPass {
    /// Per-run measurements, in run order.
    pub runs: Vec<RunTrace>,
    /// Per-run spans, in the order they closed.
    pub spans: Vec<Span>,
    /// Transparency failures, one line each.
    pub mismatches: Vec<String>,
}

/// Runs every spec untraced and traced, checking that both return the same
/// `RunResult` and that the untraced one matches `outcomes[i]` (the
/// `RunOutcome` the campaign executor delivered for run `i`).
pub fn traced_pass(runs: &[RunSpec], outcomes: &[RunOutcome]) -> TracedPass {
    let epoch = Instant::now();
    let at = |instant: Instant| instant.duration_since(epoch).as_nanos() as u64;
    let mut pass = TracedPass::default();
    for spec in runs {
        if spec.threads.iter().any(|t| t.trace.is_some()) {
            pass.mismatches.push(format!(
                "run {}: trace-file threads are not supported",
                spec.index
            ));
            continue;
        }
        // Reference: the plain public path.
        let r0 = Instant::now();
        let system = builder(spec, spec.defense).build();
        let r1 = Instant::now();
        let (reference, _) = system.run_into_parts();
        let r2 = Instant::now();
        pass.spans.push(Span {
            id: spec.index,
            layer: "reference",
            parent: None,
            start: at(r0),
            end: at(r2),
        });
        pass.spans.push(Span {
            id: spec.index,
            layer: "reference.step",
            parent: Some("reference"),
            start: at(r1),
            end: at(r2),
        });

        // Untimed preparation: the configuration, geometry and thread
        // traces the builder would use. A Baseline builder yields the same
        // configuration and traces without building the real defense.
        let config = builder(spec, DefenseKind::Baseline)
            .build()
            .config()
            .clone();
        let probe = builder(spec, spec.defense);
        let geometry = probe.geometry_preview();
        let n_rh = probe.effective_n_rh();
        drop(probe);
        let tally = Rc::new(GenTally::default());
        let traces: Vec<(String, BoxedTrace, bool, u64)> = builder(spec, DefenseKind::Baseline)
            .into_thread_traces()
            .into_iter()
            .map(|(name, trace, is_attacker, limit)| {
                let traced: BoxedTrace = Box::new(TracedTrace {
                    inner: trace,
                    tally: Rc::clone(&tally),
                });
                (name, traced, is_attacker, limit)
            })
            .collect();

        // Traced run.
        let t0 = Instant::now();
        let defenses = spec.defense.build_per_channel(
            spec.channels,
            RowHammerThreshold::new(n_rh),
            geometry,
            config.t_refi_cycles(),
            config.seed,
        );
        let t1 = Instant::now();
        let wrapped: Vec<Box<dyn RowHammerDefense>> = defenses
            .into_iter()
            .map(|d| Box::new(TracedDefense::new(d)) as Box<dyn RowHammerDefense>)
            .collect();
        let system = System::new(config, traces, wrapped);
        let t2 = Instant::now();
        let (result, defenses) = system.run_into_parts();
        let t3 = Instant::now();
        for (layer, parent, start, end) in [
            ("defense.build", Some("sim.build"), t0, t1),
            ("sim.build", Some("run"), t0, t2),
            ("sim.step", Some("run"), t2, t3),
            ("run", None, t0, t3),
        ] {
            pass.spans.push(Span {
                id: spec.index,
                layer,
                parent,
                start: at(start),
                end: at(end),
            });
        }
        let mut hooks = HookTally::default();
        for defense in &defenses {
            match (**defense).as_any().downcast_ref::<TracedDefense>() {
                Some(traced) => hooks.add(&traced.tally()),
                None => pass
                    .mismatches
                    .push(format!("run {}: a defense came back unwrapped", spec.index)),
            }
        }

        if result != reference {
            pass.mismatches.push(format!(
                "run {} `{}`: traced RunResult differs from the untraced one",
                spec.index, spec.name
            ));
        }
        match outcomes.iter().find(|o| o.index == spec.index) {
            Some(outcome) => {
                if let Some(field) = outcome_mismatch(&reference, outcome) {
                    pass.mismatches.push(format!(
                        "run {} `{}`: System::run differs from campaign::run_spec in {field}",
                        spec.index, spec.name
                    ));
                }
            }
            None => pass.mismatches.push(format!(
                "run {}: no delivered outcome to compare",
                spec.index
            )),
        }
        pass.runs.push(RunTrace {
            index: spec.index,
            defense: spec.defense,
            reference_step_ns: (r2 - r1).as_nanos() as u64,
            build_ns: (t2 - t0).as_nanos() as u64,
            defense_build_ns: (t1 - t0).as_nanos() as u64,
            step_ns: (t3 - t2).as_nanos() as u64,
            hooks,
            records: tally.records.get(),
            gen_ns: tally.ns.get(),
            result,
        });
    }
    pass
}

/// The first field in which `outcome` is not the projection of `result`
/// that `campaign::run_spec` makes (its multiprogrammed metrics aside:
/// they need the executor's stand-alone references).
fn outcome_mismatch(result: &RunResult, outcome: &RunOutcome) -> Option<&'static str> {
    if outcome.total_cycles != result.total_cycles {
        return Some("total_cycles");
    }
    if outcome.activations != result.dram.totals().activates {
        return Some("activations");
    }
    if outcome.dram_energy_j != result.dram_energy_joules() {
        return Some("dram_energy_j");
    }
    if outcome.stepping != result.stepping {
        return Some("stepping");
    }
    if outcome.threads.len() != result.threads.len() {
        return Some("thread count");
    }
    for (mine, theirs) in result.threads.iter().zip(&outcome.threads) {
        let same = mine.name == theirs.name
            && mine.is_attacker == theirs.is_attacker
            && mine.instructions == theirs.instructions
            && mine.cycles == theirs.cycles
            && mine.ipc == theirs.ipc
            && mine.max_rhli == theirs.max_rhli
            && mine.memory_requests == theirs.memory_requests;
        if !same {
            return Some("threads");
        }
    }
    None
}

impl TracedPass {
    /// Self time of `span`. A `sim.step` span also excludes the hook and
    /// generation time its run's decorators measured.
    pub fn self_time(&self, span: &Span) -> u64 {
        let inner = if span.layer == "sim.step" {
            self.runs
                .iter()
                .find(|r| r.index == span.id)
                .map_or(0, |r| r.hooks.hook_ns() + r.gen_ns)
        } else {
            0
        };
        crate::stats::self_time(span, &self.spans, inner)
    }
}

/// The spans as CSV with each span's self time.
pub fn spans_csv(pass: &TracedPass) -> String {
    let mut csv = String::from("id,layer,parent,start_ns,end_ns,self_ns\n");
    for span in &pass.spans {
        csv.push_str(&format!(
            "{},{},{},{},{},{}\n",
            span.id,
            span.layer,
            span.parent.unwrap_or(""),
            span.start,
            span.end,
            pass.self_time(span)
        ));
    }
    csv
}
