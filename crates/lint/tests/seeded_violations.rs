//! One seeded-violation fixture per rule: each fixture is a minimal
//! workspace holding exactly one violation, and the test pins that the
//! rule fires exactly once, on the right file and line — and that the
//! `bh-lint` binary exits non-zero on it (and zero on a clean tree).

use bh_lint::rules::{
    ALLOC_FREE, DETERMINISM, HYGIENE, PANIC_FREEDOM, RECOVERY_DISCIPLINE, SUPPRESSION,
    THREAD_DISCIPLINE,
};
use bh_lint::{run_workspace, Finding};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A throw-away workspace under the target's temp dir, deleted on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    /// Creates a one-crate workspace: `crates/<krate>/src/lib.rs` holds
    /// `source`, and the member manifest opts into workspace lints (so
    /// the hygiene rule stays quiet unless a fixture wants it).
    fn new(name: &str, krate: &str, source: &str) -> Self {
        let root = std::env::temp_dir()
            .join("bh-lint-fixtures")
            .join(format!("{name}-{}", std::process::id()));
        let crate_dir = root.join("crates").join(krate);
        fs::create_dir_all(crate_dir.join("src")).expect("create fixture tree");
        fs::write(
            root.join("Cargo.toml"),
            format!("[workspace]\nmembers = [\"crates/{krate}\"]\n"),
        )
        .expect("write root manifest");
        fs::write(
            crate_dir.join("Cargo.toml"),
            format!("[package]\nname = \"{krate}\"\n\n[lints]\nworkspace = true\n"),
        )
        .expect("write member manifest");
        fs::write(crate_dir.join("src/lib.rs"), source).expect("write fixture source");
        Self { root }
    }

    fn findings(&self) -> Vec<Finding> {
        run_workspace(&self.root).expect("fixture tree is readable")
    }

    /// The one finding the fixture seeds; panics if it is not alone.
    fn single_finding(&self) -> Finding {
        let findings = self.findings();
        assert_eq!(
            findings.len(),
            1,
            "expected exactly one finding, got: {findings:?}"
        );
        findings.into_iter().next().expect("len checked")
    }

    /// Exit status of the real binary run over this fixture.
    fn binary_exit(&self) -> i32 {
        let status = Command::new(env!("CARGO_BIN_EXE_bh-lint"))
            .arg("--root")
            .arg(&self.root)
            .output()
            .expect("run bh-lint binary");
        status.status.code().expect("bh-lint exited with a code")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn assert_single(fixture: &Fixture, rule: &str, file: &str, line: usize) {
    let finding = fixture.single_finding();
    assert_eq!(finding.rule, rule);
    assert_eq!(finding.file, file);
    assert_eq!(finding.line, line, "wrong span: {finding}");
    assert_ne!(fixture.binary_exit(), 0, "binary must fail on {rule}");
}

#[test]
fn determinism_fixture_fires_once_on_hash_iteration() {
    let fixture = Fixture::new(
        "determinism",
        "sim",
        "use std::collections::HashMap;\n\
         pub fn sum(m: &HashMap<u64, u64>) -> u64 {\n\
         \x20   let mut total = 0;\n\
         \x20   for (_, v) in m.iter() {\n\
         \x20       total += v;\n\
         \x20   }\n\
         \x20   total\n\
         }\n",
    );
    assert_single(&fixture, DETERMINISM, "crates/sim/src/lib.rs", 4);
}

#[test]
fn determinism_fixture_fires_once_on_fast_map_iteration() {
    // The fixed hasher makes a map's contents process-independent, but
    // its iteration order is still hash order.
    let fixture = Fixture::new(
        "determinism-fast",
        "memctrl",
        "use bh_types::FastMap;\n\
         pub struct Stats {\n\
         \x20   per_thread: FastMap<usize, u64>,\n\
         }\n\
         pub fn first(s: &Stats) -> Option<u64> {\n\
         \x20   s.per_thread.values().next().copied()\n\
         }\n",
    );
    assert_single(&fixture, DETERMINISM, "crates/memctrl/src/lib.rs", 6);
}

#[test]
fn alloc_free_fixture_fires_once_inside_marked_region() {
    let fixture = Fixture::new(
        "alloc-free",
        "blockhammer",
        "// lint: alloc-free\n\
         pub fn hot() -> usize {\n\
         \x20   let scratch = vec![0u8; 4];\n\
         \x20   scratch.len()\n\
         }\n\
         pub fn cold() -> Vec<u8> {\n\
         \x20   vec![1, 2, 3]\n\
         }\n",
    );
    // Only the marked region is checked: `cold` allocates freely.
    assert_single(&fixture, ALLOC_FREE, "crates/blockhammer/src/lib.rs", 3);
}

#[test]
fn panic_freedom_fixture_fires_once_outside_tests() {
    let fixture = Fixture::new(
        "panic-freedom",
        "memctrl",
        "pub fn first(v: &[u8]) -> u8 {\n\
         \x20   *v.first().unwrap()\n\
         }\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   #[test]\n\
         \x20   fn in_tests_unwrap_is_fine() {\n\
         \x20       assert_eq!(Some(1).unwrap(), 1);\n\
         \x20   }\n\
         }\n",
    );
    assert_single(&fixture, PANIC_FREEDOM, "crates/memctrl/src/lib.rs", 2);
}

#[test]
fn thread_discipline_fixture_fires_once_outside_pool() {
    let fixture = Fixture::new(
        "thread-discipline",
        "llc",
        "pub fn sneaky() {\n\
         \x20   std::thread::spawn(|| {}).join().ok();\n\
         }\n",
    );
    // The spawn also carries no panic token, so the one finding is the
    // thread rule.
    assert_single(&fixture, THREAD_DISCIPLINE, "crates/llc/src/lib.rs", 2);
}

#[test]
fn thread_discipline_allows_serve_but_flags_the_rest_of_server() {
    // A two-file `server` crate: the sanctioned spawn site
    // (`src/serve.rs`) spawns cleanly, while the same spawn in
    // `src/router.rs` — one directory over — still fires.
    let fixture = Fixture::new(
        "thread-server",
        "server",
        "pub mod router;\npub mod serve;\n",
    );
    let src = fixture.root.join("crates/server/src");
    fs::write(
        src.join("serve.rs"),
        "pub fn acceptor() {\n\
         \x20   std::thread::spawn(|| {}).join().ok();\n\
         }\n",
    )
    .expect("write serve fixture");
    fs::write(
        src.join("router.rs"),
        "pub fn sneaky() {\n\
         \x20   std::thread::spawn(|| {}).join().ok();\n\
         }\n",
    )
    .expect("write router fixture");
    assert_single(
        &fixture,
        THREAD_DISCIPLINE,
        "crates/server/src/router.rs",
        2,
    );
}

#[test]
fn both_disciplines_allow_the_stealing_queue_but_flag_its_siblings() {
    // The work-stealing pool is the whole of `src/pool.rs`: its spawn +
    // catch_unwind are clean, while the same pair one module over
    // (`src/subsystem.rs`, where channel shards step) fires both rules.
    let fixture = Fixture::new(
        "stealing-queue",
        "sim",
        "pub mod pool;\npub mod subsystem;\n",
    );
    let src = fixture.root.join("crates/sim/src");
    let spawn_and_catch = "pub fn puller() -> bool {\n\
                           \x20   std::thread::spawn(|| std::panic::catch_unwind(|| {}).is_ok())\n\
                           \x20       .join()\n\
                           \x20       .unwrap_or(false)\n\
                           }\n";
    fs::write(src.join("pool.rs"), spawn_and_catch).expect("write pool fixture");
    fs::write(src.join("subsystem.rs"), spawn_and_catch).expect("write subsystem fixture");
    let findings = fixture.findings();
    assert_eq!(findings.len(), 2, "got: {findings:?}");
    assert!(findings
        .iter()
        .all(|f| f.file == "crates/sim/src/subsystem.rs" && f.line == 2));
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&THREAD_DISCIPLINE));
    assert!(rules.contains(&RECOVERY_DISCIPLINE));
    assert_ne!(fixture.binary_exit(), 0);
}

#[test]
fn parallelism_probe_is_allowed_only_in_the_worker_count_default() {
    // Probing the host's parallelism is legal only where the campaign
    // executor picks its default worker count. The same probe where
    // channel shards step would make a simulation machine-dependent.
    let probe = "pub fn threads() -> usize {\n\
                 \x20   std::thread::available_parallelism().map_or(1, |n| n.get())\n\
                 }\n";
    let fixture = Fixture::new("parallelism", "sim", "pub mod subsystem;\n");
    fs::write(fixture.root.join("crates/sim/src/subsystem.rs"), probe)
        .expect("write subsystem fixture");
    let campaign = fixture.root.join("crates/campaign/src");
    fs::create_dir_all(&campaign).expect("create campaign fixture dir");
    fs::write(campaign.join("lib.rs"), "pub mod executor;\n").expect("write lib shim");
    fs::write(campaign.join("executor.rs"), probe).expect("write executor fixture");
    assert_single(&fixture, DETERMINISM, "crates/sim/src/subsystem.rs", 2);
}

#[test]
fn recovery_discipline_fixture_fires_once_outside_the_boundaries() {
    let fixture = Fixture::new(
        "recovery-discipline",
        "mitigations",
        "pub fn risky() -> bool {\n\
         \x20   std::panic::catch_unwind(|| {}).is_ok()\n\
         }\n",
    );
    assert_single(
        &fixture,
        RECOVERY_DISCIPLINE,
        "crates/mitigations/src/lib.rs",
        2,
    );
}

#[test]
fn recovery_discipline_is_silent_in_the_sanctioned_files() {
    // The same source under the campaign executor's path is clean: the
    // run-isolation boundary is allowed to catch unwinds.
    let fixture = Fixture::new(
        "recovery-allowlist",
        "campaign",
        "pub fn boundary() -> bool {\n\
         \x20   std::panic::catch_unwind(|| {}).is_ok()\n\
         }\n",
    );
    // Relocate the source to the allowlisted executor path.
    let src = fixture.root.join("crates/campaign/src");
    fs::rename(src.join("lib.rs"), src.join("executor.rs")).expect("rename fixture source");
    fs::write(src.join("lib.rs"), "pub mod executor;\n").expect("write lib shim");
    assert_eq!(fixture.findings(), Vec::new());
}

#[test]
fn hygiene_fixture_fires_once_on_println() {
    let fixture = Fixture::new(
        "hygiene",
        "energy",
        "pub fn report(x: u64) {\n\
         \x20   println!(\"x = {x}\");\n\
         }\n",
    );
    assert_single(&fixture, HYGIENE, "crates/energy/src/lib.rs", 2);
}

#[test]
fn hygiene_fixture_fires_once_on_missing_manifest_lints() {
    let fixture = Fixture::new("hygiene-manifest", "cpu", "pub fn quiet() {}\n");
    // Overwrite the member manifest without the `[lints]` table.
    fs::write(
        fixture.root.join("crates/cpu/Cargo.toml"),
        "[package]\nname = \"cpu\"\n",
    )
    .expect("rewrite manifest");
    assert_single(&fixture, HYGIENE, "crates/cpu/Cargo.toml", 1);
}

#[test]
fn suppression_fixture_fires_once_on_stale_allow() {
    let fixture = Fixture::new(
        "suppression-stale",
        "workloads",
        "// lint: allow(determinism) -- nothing here actually iterates\n\
         pub fn quiet() {}\n",
    );
    assert_single(&fixture, SUPPRESSION, "crates/workloads/src/lib.rs", 1);
}

#[test]
fn unjustified_allow_is_reported_and_does_not_suppress() {
    let fixture = Fixture::new(
        "suppression-unjustified",
        "dram-sim",
        "pub fn first(v: &[u8]) -> u8 {\n\
         \x20   // lint: allow(panic-freedom)\n\
         \x20   *v.first().unwrap()\n\
         }\n",
    );
    // An allow without a justification suppresses nothing: both the
    // defective directive and the original finding are reported.
    let findings = fixture.findings();
    assert_eq!(findings.len(), 2, "got: {findings:?}");
    assert_eq!(findings[0].rule, SUPPRESSION);
    assert_eq!(findings[0].line, 2);
    assert_eq!(findings[1].rule, PANIC_FREEDOM);
    assert_eq!(findings[1].line, 3);
    assert_ne!(fixture.binary_exit(), 0);
}

#[test]
fn justified_allow_silences_the_finding_and_the_binary_passes() {
    let fixture = Fixture::new(
        "justified-allow",
        "bh-types",
        "pub fn first(v: &[u8]) -> u8 {\n\
         \x20   // lint: allow(panic-freedom) -- callers pass non-empty slices\n\
         \x20   *v.first().unwrap()\n\
         }\n",
    );
    assert_eq!(fixture.findings(), Vec::new());
    assert_eq!(fixture.binary_exit(), 0, "binary must pass a clean tree");
}

#[test]
fn missing_root_is_a_usage_error_exit() {
    let missing = Path::new("/nonexistent/bh-lint-fixture");
    let output = Command::new(env!("CARGO_BIN_EXE_bh-lint"))
        .arg("--root")
        .arg(missing)
        .output()
        .expect("run bh-lint binary");
    assert_eq!(output.status.code(), Some(2));
}
