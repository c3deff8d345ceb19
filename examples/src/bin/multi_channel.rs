//! A two-channel system under attack: each memory channel is an
//! independent shard (controller + DRAM device + BlockHammer instance),
//! as BlockHammer deploys in hardware — one instance per memory
//! controller. The per-channel statistics show both shards carrying
//! traffic and both defenses observing it.
//!
//! The shards step sequentially on the calling thread: a shard's cycle
//! costs far less than a thread handoff, so threads pay off across whole
//! runs (the campaign executor), not inside one.
//!
//! ```text
//! cargo run --release -p examples-bin --bin multi_channel
//! ```

use sim::{DefenseKind, SystemBuilder};
use workloads::SyntheticSpec;

fn main() {
    let result = SystemBuilder::new()
        .channels(2)
        .time_scale(8192)
        .defense(DefenseKind::BlockHammer)
        .rowhammer_threshold(32_768)
        .llc_capacity(1 << 20)
        .min_cycles(100_000)
        .add_attacker()
        .add_workload(SyntheticSpec::high_intensity("victim.high", 0), 10_000)
        .add_workload(SyntheticSpec::medium_intensity("victim.medium", 1), 10_000)
        .run();

    println!("Two-channel system, double-sided attack, per-channel BlockHammer\n");
    println!("{:<28} {:>12} {:>8}", "thread", "IPC", "RHLI");
    for thread in &result.threads {
        println!(
            "{:<28} {:>12.3} {:>8.2}",
            thread.name, thread.ipc, thread.max_rhli
        );
    }
    println!(
        "\n{:<10} {:>12} {:>12} {:>14} {:>12}",
        "channel", "ACTs", "row hits", "ACTs delayed", "observed"
    );
    for shard in &result.per_channel {
        println!(
            "{:<10} {:>12} {:>12} {:>14} {:>12}",
            shard.channel,
            shard.dram.totals().activates,
            shard.ctrl.row_hits,
            shard.ctrl.activations_delayed_by_defense,
            shard.defense_stats.observed_activations
        );
    }
    println!(
        "\nmerged: {} ACTs across {} channels ({} delayed by the defenses)",
        result.dram.totals().activates,
        result.per_channel.len(),
        result.ctrl.activations_delayed_by_defense
    );
}
