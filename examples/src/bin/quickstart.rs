//! Quickstart: protect a single-core system with BlockHammer and run a
//! memory-intensive benign workload.
//!
//! ```text
//! cargo run --release -p examples-bin --bin quickstart
//! ```

use sim::{DefenseKind, SystemBuilder};
use workloads::SyntheticSpec;

fn main() {
    // A heavily time-scaled system (refresh window ~25k cycles) so the run
    // finishes in well under a second; the README section "Substitutions
    // and scaled time" explains why this preserves BlockHammer's behaviour.
    let result = SystemBuilder::new()
        .time_scale(8192)
        .defense(DefenseKind::BlockHammer)
        .rowhammer_threshold(32_768)
        .llc_capacity(1 << 20)
        .min_cycles(60_000)
        .add_workload(
            SyntheticSpec::high_intensity("quickstart.workload", 0),
            20_000,
        )
        .run();

    let thread = &result.threads[0];
    println!("BlockHammer quickstart");
    println!("  workload            : {}", thread.name);
    println!("  instructions        : {}", thread.instructions);
    println!("  cycles              : {}", thread.cycles);
    println!("  IPC                 : {:.3}", thread.ipc);
    println!("  LLC miss rate       : {:.1} %", {
        let total = (result.llc_hits + result.llc_misses).max(1);
        result.llc_misses as f64 / total as f64 * 100.0
    });
    println!("  DRAM activations    : {}", result.dram.totals().activates);
    println!(
        "  row-buffer hit rate : {:.1} %",
        result.ctrl.row_hit_rate() * 100.0
    );
    println!(
        "  DRAM energy         : {:.3} mJ",
        result.dram_energy_joules() * 1e3
    );
    println!(
        "  activations delayed by BlockHammer: {}",
        result.ctrl.activations_delayed_by_defense
    );
    println!(
        "  (benign workloads are essentially never delayed; compare with the\n   attack_mitigation example)"
    );
}
