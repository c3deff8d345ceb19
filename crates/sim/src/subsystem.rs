//! The channel-sharded memory subsystem.
//!
//! The paper evaluates a single memory channel (Table 5), but real servers
//! scale memory bandwidth by adding channels, each with its own memory
//! controller — and BlockHammer is instantiated *per memory controller*,
//! so every channel owns an independent defense. This module models
//! exactly that: one [`MemoryController`] + DRAM device + boxed
//! [`RowHammerDefense`] per channel (a channel shard), with physical
//! addresses routed to shards by the address mapping's channel bits. It
//! is the only place that knows about channels: each shard's controller
//! and device model exactly one channel, and see channel-local addresses.
//!
//! Shards step in lockstep on the calling thread, one cycle at a time and
//! with completions always collected in channel order, so runs are
//! deterministic. The shards share no state, but a shard's cycle is far
//! cheaper than a thread handoff, so parallelism lives one level up:
//! whole runs fan out over the campaign executor's work-stealing pool.

use crate::metrics::ChannelStats;
use bh_types::{AccessType, AddressMapping, AddressMappingGeometry, Cycle, ReqId, ThreadId};
use dram_sim::DramStats;
use memctrl::{CompletedRequest, CtrlStats, EnqueueError, MemCtrlConfig, MemoryController};
use mitigations::{DefenseStats, RowHammerDefense};
use std::collections::VecDeque;
use std::ops::Range;

/// Identifies a request across shards: `(channel, shard-local request id)`.
///
/// Per-shard request ids are only unique within their controller, so every
/// consumer of the subsystem keys bookkeeping on this pair.
pub type ShardReqId = (usize, ReqId);

/// One memory channel: its controller (with DRAM device inside) and the
/// defense instance that protects it.
struct ChannelShard {
    channel: usize,
    ctrl: MemoryController,
    defense: Box<dyn RowHammerDefense>,
}

/// A set of independent per-channel memory controllers behind a single
/// enqueue/tick facade. See the module documentation.
pub struct MemorySubsystem {
    mapping: AddressMapping,
    /// Full-system geometry, used only to split addresses into
    /// `(channel, channel-local address)`.
    geometry: AddressMappingGeometry,
    /// Banks within one channel (the index space of per-shard defenses).
    banks_per_channel: usize,
    /// The shards, in channel order.
    shards: Vec<ChannelShard>,
}

impl MemorySubsystem {
    /// Builds one shard per channel of `config.organization`, handing shard
    /// `i` the `i`-th defense.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `defenses` does not have
    /// exactly one entry per channel.
    pub fn new(
        config: &MemCtrlConfig,
        defenses: Vec<Box<dyn RowHammerDefense>>,
        enable_activation_log: bool,
    ) -> Self {
        // lint: allow(panic-freedom) -- documented constructor contract; MemCtrlConfig::validate is the fallible path
        config.validate().expect("invalid memory controller config");
        let channels = config.organization.channels;
        assert_eq!(
            defenses.len(),
            channels,
            "need exactly one defense instance per memory channel"
        );
        let shard_config = MemCtrlConfig {
            organization: config.organization.per_channel(),
            ..config.clone()
        };
        let shards = defenses
            .into_iter()
            .enumerate()
            .map(|(channel, defense)| {
                let mut ctrl = MemoryController::new(shard_config.clone());
                if enable_activation_log {
                    ctrl.enable_activation_log();
                }
                ChannelShard {
                    channel,
                    ctrl,
                    defense,
                }
            })
            .collect();
        Self {
            mapping: config.mapping,
            geometry: config.organization.geometry(),
            banks_per_channel: config.organization.banks_per_channel(),
            shards,
        }
    }

    /// Number of channel shards.
    pub fn channels(&self) -> usize {
        self.shards.len()
    }

    /// The channel shard a physical address routes to.
    pub fn channel_of(&self, phys_addr: u64) -> usize {
        self.mapping.channel_of(&self.geometry, phys_addr)
    }

    /// Mutable access to the defense instance protecting `channel` (e.g.
    /// to enable mechanism-specific instrumentation before a run).
    pub fn defense_mut(&mut self, channel: usize) -> &mut dyn RowHammerDefense {
        self.shards[channel].defense.as_mut()
    }

    /// Routes a demand request to its channel's controller.
    ///
    /// # Errors
    ///
    /// Propagates the shard controller's [`EnqueueError`] (full queue or
    /// defense quota).
    pub fn enqueue(
        &mut self,
        thread: ThreadId,
        phys_addr: u64,
        access: AccessType,
        now: Cycle,
    ) -> Result<ShardReqId, EnqueueError> {
        let (channel, local) = self.mapping.to_channel_local(&self.geometry, phys_addr);
        let shard = &mut self.shards[channel];
        shard
            .ctrl
            .enqueue(thread, local, access, now, shard.defense.as_ref())
            .map(|id| (channel, id))
    }

    /// Admits pending requests for `channel` from the front of `queue`
    /// (entries are `(thread, system physical address)`) until the first
    /// rejection, popping every accepted entry and reporting it through
    /// `on_accept` with its assigned id. Returns the number accepted.
    ///
    /// Every queued address must route to `channel`; admission decisions
    /// and statistics are identical to retrying [`MemorySubsystem::enqueue`]
    /// per entry and stopping at the first error, but the per-request
    /// admission work is amortized across the batch.
    pub fn enqueue_batch(
        &mut self,
        channel: usize,
        queue: &mut VecDeque<(ThreadId, u64)>,
        access: AccessType,
        now: Cycle,
        mut on_accept: impl FnMut(ShardReqId, u64),
    ) -> usize {
        if queue.is_empty() {
            return 0;
        }
        let mapping = self.mapping;
        let geometry = self.geometry;
        let shard = &mut self.shards[channel];
        let outcome = shard.ctrl.enqueue_batch(
            queue.iter().map(|&(thread, phys)| {
                let (routed, local) = mapping.to_channel_local(&geometry, phys);
                debug_assert_eq!(routed, channel, "queued address routed off-channel");
                (thread, local, phys)
            }),
            access,
            now,
            shard.defense.as_ref(),
            |id, phys| on_accept((channel, id), phys),
        );
        queue.drain(..outcome.accepted);
        outcome.accepted
    }

    /// Advances every shard by one cycle (lockstep) and returns the
    /// completed demand requests tagged with their channel, in channel
    /// order.
    pub fn tick(&mut self, now: Cycle) -> Vec<(usize, CompletedRequest)> {
        let mut completed = Vec::new();
        for shard in &mut self.shards {
            for done in shard.ctrl.tick(now, shard.defense.as_mut()) {
                completed.push((shard.channel, done));
            }
        }
        completed
    }

    /// After a cycle, the earliest later cycle at which some shard could do
    /// anything but repeat it, or `None` if a shard may act in the very
    /// next cycle (see [`MemoryController::idle_until`]).
    // lint: alloc-free
    pub fn idle_until(&self, now: Cycle) -> Option<Cycle> {
        self.shards.iter().try_fold(Cycle::MAX, |at, shard| {
            let idle = shard.ctrl.idle_until(now, shard.defense.as_ref())?;
            Some(at.min(idle))
        })
    }

    /// Accounts for the skipped repeats of an idle cycle on every shard
    /// (see [`MemoryController::replay_idle`]).
    // lint: alloc-free
    pub fn replay_idle(&mut self, skipped: Range<Cycle>) {
        for shard in &mut self.shards {
            shard
                .ctrl
                .replay_idle(skipped.start..skipped.end, shard.defense.as_mut());
        }
    }

    /// The largest RowHammer likelihood index any shard's defense reports
    /// for `thread`, across all banks.
    pub fn max_rhli(&self, thread: ThreadId) -> f64 {
        self.shards
            .iter()
            .flat_map(|shard| {
                (0..self.banks_per_channel).map(move |bank| shard.defense.rhli(thread, bank))
            })
            .fold(0.0, f64::max)
    }

    /// The mechanism name (shards run identical mechanisms; shard 0 speaks
    /// for all).
    pub fn defense_name(&self) -> &'static str {
        self.shards[0].defense.name()
    }

    /// Finalizes every shard at `now` and returns per-channel statistics,
    /// in channel order.
    pub fn finish(&mut self, now: Cycle) -> Vec<ChannelStats> {
        self.shards
            .iter_mut()
            .map(|shard| {
                let (dram, ctrl) = shard.ctrl.finish(now);
                ChannelStats {
                    channel: shard.channel,
                    defense: shard.defense.name().to_owned(),
                    dram,
                    ctrl,
                    defense_stats: shard.defense.stats(),
                }
            })
            .collect()
    }

    /// Consumes the subsystem, handing back the per-channel defense
    /// instances (in channel order) for post-run inspection.
    pub fn into_defenses(self) -> Vec<Box<dyn RowHammerDefense>> {
        self.shards.into_iter().map(|shard| shard.defense).collect()
    }
}

/// Merges per-channel statistics into the system-wide views `RunResult`
/// exposes for backward compatibility: concatenated DRAM rank counters
/// (with activation logs re-based to system-wide bank indices and *moved*
/// out of the per-channel entries to avoid duplicating them), summed
/// controller counters and summed defense counters.
pub fn merge_channel_stats(
    per_channel: &mut [ChannelStats],
    banks_per_channel: usize,
) -> (DramStats, CtrlStats, DefenseStats) {
    let mut dram = DramStats::new(0);
    let mut ctrl = CtrlStats::default();
    let mut defense = DefenseStats::default();
    for stats in per_channel.iter_mut() {
        let shard_dram = DramStats {
            per_rank: stats.dram.per_rank.clone(),
            active_bank_cycles: stats.dram.active_bank_cycles.clone(),
            elapsed_cycles: stats.dram.elapsed_cycles,
            activation_log: stats.dram.activation_log.take(),
            activations_per_row: stats.dram.activations_per_row.take(),
        };
        dram.absorb_shard(shard_dram, stats.channel * banks_per_channel);
        ctrl = ctrl.merged(&stats.ctrl);
        defense = defense.merged(&stats.defense_stats);
    }
    (dram, ctrl, defense)
}
