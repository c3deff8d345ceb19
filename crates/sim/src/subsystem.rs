//! The channel-sharded memory subsystem.
//!
//! The paper evaluates a single memory channel (Table 5), but real servers
//! scale memory bandwidth by adding channels, each with its own memory
//! controller — and BlockHammer is instantiated *per memory controller*,
//! so every channel owns an independent defense. This module models
//! exactly that: one [`MemoryController`] + DRAM device + boxed
//! [`RowHammerDefense`] per channel (a [`ChannelShard`]), with physical
//! addresses routed to shards by the address mapping's channel bits.
//!
//! Shards step in lockstep, one cycle at a time and with completions
//! always collected in channel order, so runs are deterministic. Because
//! the shards share no state, the lockstep can also be executed
//! concurrently ([`SteppingMode`]) without altering results: each shard
//! ticks independently and the per-shard completion lists are concatenated
//! in channel order afterwards, which is exactly the sequential output.
//! Two concurrent modes exist: [`SteppingMode::ScopedThreads`] spawns a
//! scoped thread per shard every cycle (the PR 2 baseline, kept for
//! comparison), and [`SteppingMode::WorkerPool`] keeps one long-lived
//! worker per extra shard and hands shards over per cycle, removing the
//! spawn/join cost from the per-cycle path (the main thread steps shard 0
//! itself while the workers step the rest).
//!
//! With `channels = 1` the subsystem degenerates to exactly the
//! pre-sharding behaviour: addresses pass through unchanged and the single
//! shard is the old controller + defense pair.

use crate::metrics::ChannelStats;
use crate::pool::WorkerPool;
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

/// How the subsystem executes one lockstep cycle across its shards. All
/// modes produce bit-identical results (regression-pinned); they differ
/// only in cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SteppingMode {
    /// Step shards one after another on the calling thread.
    #[default]
    Sequential,
    /// Spawn one scoped thread per shard per cycle (the PR 2
    /// implementation, retained as an equivalence and benchmark baseline).
    ScopedThreads,
    /// Keep one persistent worker thread per extra shard and hand shards
    /// over per cycle; the calling thread steps shard 0 itself.
    WorkerPool,
}

impl SteppingMode {
    /// The stepping mode best suited to this machine for a system with
    /// `channels` memory shards: the persistent worker pool when there is
    /// more than one shard *and* [`std::thread::available_parallelism`]
    /// reports more than one hardware thread, sequential otherwise. All
    /// modes are bit-identical, so auto-selection never changes results.
    pub fn auto(channels: usize) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        if channels > 1 && threads > 1 {
            SteppingMode::WorkerPool
        } else {
            SteppingMode::Sequential
        }
    }
}

/// One memory channel: its controller (with DRAM device inside) and the
/// defense instance that protects it.
struct ChannelShard {
    channel: usize,
    ctrl: MemoryController,
    defense: Box<dyn RowHammerDefense>,
}

impl ChannelShard {
    fn tick(&mut self, now: Cycle) -> Vec<CompletedRequest> {
        self.ctrl.tick(now, self.defense.as_mut())
    }
}

/// A set of independent per-channel memory controllers behind a single
/// enqueue/tick facade. See the module documentation.
pub struct MemorySubsystem {
    mapping: AddressMapping,
    /// Full-system geometry, used only to split addresses into
    /// `(channel, channel-local address)`.
    geometry: AddressMappingGeometry,
    banks_per_channel: usize,
    /// The shards, in channel order. A slot is only `None` while its shard
    /// is being stepped by a pool worker inside [`MemorySubsystem::tick`].
    shards: Vec<Option<ChannelShard>>,
    stepping: SteppingMode,
    /// Lazily-created persistent workers for [`SteppingMode::WorkerPool`]
    /// (one per shard beyond the first).
    pool: Option<WorkerPool<Cycle, ChannelShard, Vec<CompletedRequest>>>,
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
                Some(ChannelShard {
                    channel,
                    ctrl,
                    defense,
                })
            })
            .collect();
        Self {
            mapping: config.mapping,
            geometry: config.organization.geometry(),
            banks_per_channel: config.organization.banks_per_channel(),
            shards,
            stepping: SteppingMode::Sequential,
            pool: None,
        }
    }

    fn shard(&self, channel: usize) -> &ChannelShard {
        self.shards[channel]
            .as_ref()
            // lint: allow(panic-freedom) -- shards are only None while checked out to pool workers in tick_pooled
            .expect("shard is being stepped")
    }

    fn shard_mut(&mut self, channel: usize) -> &mut ChannelShard {
        self.shards[channel]
            .as_mut()
            // lint: allow(panic-freedom) -- shards are only None while checked out to pool workers in tick_pooled
            .expect("shard is being stepped")
    }

    /// Number of channel shards.
    pub fn channels(&self) -> usize {
        self.shards.len()
    }

    /// Selects how shards are stepped. With a single shard every mode uses
    /// the sequential path.
    pub fn set_stepping(&mut self, stepping: SteppingMode) {
        self.stepping = stepping;
    }

    /// Compatibility switch for the pre-pool API: `true` selects
    /// [`SteppingMode::WorkerPool`], `false` [`SteppingMode::Sequential`].
    pub fn set_parallel_stepping(&mut self, enabled: bool) {
        self.stepping = if enabled {
            SteppingMode::WorkerPool
        } else {
            SteppingMode::Sequential
        };
    }

    /// Banks within one channel (the index space of per-shard defenses).
    pub fn banks_per_channel(&self) -> usize {
        self.banks_per_channel
    }

    /// The channel shard a physical address routes to.
    pub fn channel_of(&self, phys_addr: u64) -> usize {
        self.mapping.channel_of(&self.geometry, phys_addr)
    }

    /// The defense instance protecting `channel`.
    pub fn defense(&self, channel: usize) -> &dyn RowHammerDefense {
        self.shard(channel).defense.as_ref()
    }

    /// Mutable access to the defense instance protecting `channel` (e.g.
    /// to enable mechanism-specific instrumentation before a run).
    pub fn defense_mut(&mut self, channel: usize) -> &mut dyn RowHammerDefense {
        self.shard_mut(channel).defense.as_mut()
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
        let shard = self.shard_mut(channel);
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
        let shard = self.shards[channel]
            .as_mut()
            // lint: allow(panic-freedom) -- shards are only None while checked out to pool workers in tick_pooled
            .expect("shard is being stepped");
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
    ///
    /// With a concurrent [`SteppingMode`] (and more than one shard),
    /// shards tick on threads; the per-shard completion lists are then
    /// concatenated in channel order, so the output — and therefore the
    /// whole run — is identical to sequential stepping.
    pub fn tick(&mut self, now: Cycle) -> Vec<(usize, CompletedRequest)> {
        match self.stepping {
            SteppingMode::ScopedThreads if self.shards.len() > 1 => self.tick_scoped(now),
            SteppingMode::WorkerPool if self.shards.len() > 1 => self.tick_pooled(now),
            _ => self.tick_sequential(now),
        }
    }

    fn tick_sequential(&mut self, now: Cycle) -> Vec<(usize, CompletedRequest)> {
        let mut completed = Vec::new();
        for slot in &mut self.shards {
            // lint: allow(panic-freedom) -- shards are only None while checked out to pool workers in tick_pooled
            let shard = slot.as_mut().expect("shard is being stepped");
            for done in shard.tick(now) {
                completed.push((shard.channel, done));
            }
        }
        completed
    }

    fn tick_scoped(&mut self, now: Cycle) -> Vec<(usize, CompletedRequest)> {
        // lint: allow(thread-discipline) -- ScopedThreads is the reference stepping mode the worker pool is validated against
        let per_shard: Vec<(usize, Vec<CompletedRequest>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .map(|slot| {
                    // lint: allow(panic-freedom) -- shards are only None while checked out to pool workers in tick_pooled
                    let shard = slot.as_mut().expect("shard is being stepped");
                    scope.spawn(move || (shard.channel, shard.tick(now)))
                })
                .collect();
            handles
                .into_iter()
                // lint: allow(panic-freedom) -- a panicking shard tick must propagate, mirroring the pooled path
                .map(|handle| handle.join().expect("shard tick panicked"))
                .collect()
        });
        per_shard
            .into_iter()
            .flat_map(|(channel, done)| done.into_iter().map(move |d| (channel, d)))
            .collect()
    }

    fn tick_pooled(&mut self, now: Cycle) -> Vec<(usize, CompletedRequest)> {
        if self.pool.is_none() {
            self.pool = Some(WorkerPool::new(
                self.shards.len() - 1,
                |now, shard: &mut ChannelShard| shard.tick(now),
            ));
        }
        // Hand shards 1..n to the workers, step shard 0 on this thread,
        // then collect everything back in channel order.
        for channel in 1..self.shards.len() {
            // lint: allow(panic-freedom) -- every shard is home before tick_pooled starts handing them out
            let shard = self.shards[channel].take().expect("shard is present");
            self.pool
                .as_mut()
                // lint: allow(panic-freedom) -- the pool is created at the top of tick_pooled
                .expect("pool was just created")
                .dispatch(channel - 1, now, shard);
        }
        // A panic — in shard 0's tick or inside a worker — must not stop
        // the remaining shards from being collected back into their
        // slots: a caught unwind would otherwise leave the subsystem
        // with missing shards, and every later call would die on an
        // unrelated "shard is being stepped" instead of the original
        // failure. So both the shard-0 tick and each collect are caught,
        // every restorable shard is restored, and the first panic
        // payload is re-raised afterwards. (AssertUnwindSafe is fine:
        // the panic is re-raised as soon as the shards are back. A shard
        // whose own worker panicked is unavoidably lost with that
        // worker's unwind.)
        // lint: allow(recovery-discipline) -- shard restoration boundary documented above; payload is re-raised
        let shard0_done = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // lint: allow(panic-freedom) -- shard 0 is stepped in place and never handed to a worker
            let shard0 = self.shards[0].as_mut().expect("shard 0 never leaves");
            shard0.tick(now)
        }));
        let mut completed = Vec::new();
        let mut worker_done = Vec::new();
        let mut worker_panic = None;
        for channel in 1..self.shards.len() {
            // lint: allow(panic-freedom) -- the pool is created at the top of tick_pooled
            let pool = self.pool.as_mut().expect("pool was just created");
            // lint: allow(recovery-discipline) -- shard restoration boundary documented above; payload is re-raised
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.collect(channel - 1)
            })) {
                Ok((shard, done)) => {
                    self.shards[channel] = Some(shard);
                    worker_done.push((channel, done));
                }
                Err(payload) => {
                    worker_panic.get_or_insert(payload);
                }
            }
        }
        match shard0_done {
            Ok(done) => completed.extend(done.into_iter().map(|d| (0, d))),
            // lint: allow(recovery-discipline) -- re-raising the original shard-0 panic after restoration
            Err(payload) => std::panic::resume_unwind(payload),
        }
        if let Some(payload) = worker_panic {
            // lint: allow(recovery-discipline) -- re-raising the first worker panic after restoration
            std::panic::resume_unwind(payload);
        }
        for (channel, done) in worker_done {
            completed.extend(done.into_iter().map(|d| (channel, d)));
        }
        completed
    }

    /// After a cycle, `None` if any shard made progress in it, otherwise
    /// the earliest later cycle at which a shard's repeat of it could turn
    /// out differently (see [`MemoryController::idle_until`]).
    // lint: alloc-free
    pub fn idle_until(&self, now: Cycle) -> Option<Cycle> {
        (0..self.shards.len()).try_fold(Cycle::MAX, |at, channel| {
            let shard = self.shard(channel);
            let idle = shard.ctrl.idle_until(now, shard.defense.as_ref())?;
            Some(at.min(idle))
        })
    }

    /// Accounts for the skipped repeats of an idle cycle on every shard
    /// (see [`MemoryController::replay_idle`]).
    // lint: alloc-free
    pub fn replay_idle(&mut self, skipped: Range<Cycle>) {
        for channel in 0..self.shards.len() {
            let shard = self.shard_mut(channel);
            shard
                .ctrl
                .replay_idle(skipped.start..skipped.end, shard.defense.as_mut());
        }
    }

    /// The largest RowHammer likelihood index any shard's defense reports
    /// for `thread`, across all banks.
    pub fn max_rhli(&self, thread: ThreadId) -> f64 {
        (0..self.shards.len())
            .flat_map(|channel| {
                (0..self.banks_per_channel)
                    .map(move |bank| self.shard(channel).defense.rhli(thread, bank))
            })
            .fold(0.0, f64::max)
    }

    /// The mechanism name (shards run identical mechanisms; shard 0 speaks
    /// for all).
    pub fn defense_name(&self) -> &'static str {
        self.shard(0).defense.name()
    }

    /// Finalizes every shard at `now` and returns per-channel statistics,
    /// in channel order.
    pub fn finish(&mut self, now: Cycle) -> Vec<ChannelStats> {
        self.shards
            .iter_mut()
            .map(|slot| {
                // lint: allow(panic-freedom) -- shards are only None while checked out to pool workers in tick_pooled
                let shard = slot.as_mut().expect("shard is being stepped");
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
        self.shards
            .into_iter()
            // lint: allow(panic-freedom) -- shards are only None while checked out to pool workers in tick_pooled
            .map(|slot| slot.expect("shard is being stepped").defense)
            .collect()
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
