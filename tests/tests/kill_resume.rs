//! The end-to-end fault-tolerance pin: a campaign process killed
//! mid-sweep — by an injected `process::abort` and by a *real* signal
//! delivered from outside — resumes from its checkpoint journal and
//! produces byte-identical artifacts to an uninterrupted run, for both
//! sequential and pooled execution.
//!
//! The campaign under test is [`integration_tests::resume_campaign`]
//! (and [`integration_tests::resume_sharing_campaign`], whose runs repeat
//! a simulation), executed by the `resume_harness` binary in a child
//! process (a kill must hit a whole process, not a thread, to mean
//! anything).

use campaign::checkpoint::read_journal;
use campaign::fingerprint;
use integration_tests::{resume_campaign, resume_sharing_campaign};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn harness() -> Command {
    Command::new(env!("CARGO_BIN_EXE_resume_harness"))
}

fn scratch(label: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(label);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("read {}/{name}: {e}", dir.display()))
}

/// Runs the harness to completion in `dir` with `extra` arguments,
/// asserts success and returns what it printed.
fn run_to_completion_with(dir: &Path, workers: usize, extra: &[&str]) -> String {
    let output = harness()
        .args([
            "out",
            &dir.display().to_string(),
            "workers",
            &workers.to_string(),
        ])
        .args(extra)
        .output()
        .expect("spawn resume_harness");
    assert!(
        output.status.success(),
        "harness failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// Runs the harness to completion in `dir` and asserts success.
fn run_to_completion(dir: &Path, workers: usize) {
    run_to_completion_with(dir, workers, &[]);
}

/// Asserts `dir`'s artifacts are byte-identical to the reference run's.
fn assert_matches_reference(dir: &Path, reference: &Path) {
    for artifact in ["campaign.csv", "campaign.json", "stepping.csv"] {
        assert_eq!(
            read(dir, artifact),
            read(reference, artifact),
            "{artifact} diverged from the uninterrupted run"
        );
    }
}

#[test]
fn injected_abort_then_resume_is_byte_identical() {
    let spec = resume_campaign();
    let total = spec.expand().len();
    let reference = scratch("kill-resume-ref-abort");
    run_to_completion(&reference, 0);
    for workers in [0usize, 2] {
        let dir = scratch(&format!("kill-resume-abort-{workers}"));
        // First invocation: the fault injector aborts the process (no
        // unwinding, no flushes) once 2 of the 4 runs are journaled.
        let output = harness()
            .args([
                "out",
                &dir.display().to_string(),
                "workers",
                &workers.to_string(),
            ])
            .args(["abort-after", "2"])
            .output()
            .expect("spawn resume_harness");
        assert!(
            !output.status.success(),
            "{workers} workers: the armed harness must die, got: {}",
            String::from_utf8_lossy(&output.stdout)
        );
        let scan = read_journal(
            &dir.join("campaign.journal"),
            fingerprint(&spec),
            total as u64,
        )
        .expect("the journal survives the abort");
        assert_eq!(
            scan.entries.len(),
            2,
            "exactly the pre-abort runs are journaled"
        );
        // Second invocation resumes and completes.
        run_to_completion(&dir, workers);
        assert_matches_reference(&dir, &reference);
    }
}

#[test]
fn real_process_kill_then_resume_is_byte_identical() {
    let spec = resume_campaign();
    let total = spec.expand().len();
    let fp = fingerprint(&spec);
    let reference = scratch("kill-resume-ref-kill");
    run_to_completion(&reference, 0);
    for workers in [0usize, 2] {
        let dir = scratch(&format!("kill-resume-kill-{workers}"));
        // The harness stalls once 2 runs are journaled; this test
        // delivers a real SIGKILL while it sits there.
        let mut child = harness()
            .args([
                "out",
                &dir.display().to_string(),
                "workers",
                &workers.to_string(),
            ])
            .args(["stall-after", "2"])
            .spawn()
            .expect("spawn resume_harness");
        let journal = dir.join("campaign.journal");
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            // The journal is flushed record-by-record, so polling the
            // file observes the stall point; a torn in-progress record
            // (dropped by the scanner) or a not-yet-created file just
            // means "keep waiting".
            let journaled = read_journal(&journal, fp, total as u64)
                .map(|scan| scan.entries.len())
                .unwrap_or(0);
            if journaled >= 2 {
                break;
            }
            if let Some(status) = child.try_wait().expect("poll child") {
                panic!("{workers} workers: harness exited early with {status}");
            }
            assert!(
                Instant::now() < deadline,
                "{workers} workers: harness never reached the stall point"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        child.kill().expect("kill the stalled harness");
        child.wait().expect("reap the killed harness");
        // Resume in a fresh process and byte-compare.
        run_to_completion(&dir, workers);
        assert_matches_reference(&dir, &reference);
    }
}

#[test]
fn abort_between_a_primary_and_its_copy_resumes_the_copy_from_the_journal() {
    let spec = resume_sharing_campaign();
    let total = spec.expand().len();
    let reference = scratch("kill-resume-ref-shared");
    assert_eq!(
        run_to_completion_with(&reference, 0, &["shared"]).trim(),
        format!("completed {total} runs (0 replayed, 2 shared)")
    );
    for workers in [0usize, 2] {
        let dir = scratch(&format!("kill-resume-shared-{workers}"));
        // Runs 0 and 1 are journaled, their copies 4 and 5 are not.
        let output = harness()
            .args([
                "out",
                &dir.display().to_string(),
                "workers",
                &workers.to_string(),
                "shared",
            ])
            .args(["abort-after", "2"])
            .output()
            .expect("spawn resume_harness");
        assert!(
            !output.status.success(),
            "{workers} workers: the armed harness must die, got: {}",
            String::from_utf8_lossy(&output.stdout)
        );
        let scan = read_journal(
            &dir.join("campaign.journal"),
            fingerprint(&spec),
            total as u64,
        )
        .expect("the journal survives the abort");
        assert_eq!(scan.entries.len(), 2);
        // The resumed process replays the two primaries and delivers both
        // copies from their journaled outcomes.
        assert_eq!(
            run_to_completion_with(&dir, workers, &["shared"]).trim(),
            format!("completed {total} runs (2 replayed, 2 shared)"),
            "{workers} workers"
        );
        assert_matches_reference(&dir, &reference);
    }
}
