//! Journal corruption properties: any truncation or single-byte flip of
//! a checkpoint journal either resumes cleanly from the last good record
//! or fails with a structured [`JournalError`] — it never panics and
//! never silently replays a corrupted outcome or prelude table.
//!
//! The journal under attack is produced by a real (tiny) campaign run,
//! so the bytes exercised are exactly what production resume would read.

use campaign::checkpoint::{parse_journal, resume_or_create, JournalScan, PreludeTable};
use campaign::{execute_resumable, fingerprint, CampaignSpec, ExecutionOptions, JournalEntry};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

/// A pristine journal: its bytes, the prelude table and entries it
/// holds, and the fingerprint/run-count it was written under.
struct PristineJournal {
    bytes: Vec<u8>,
    prelude: PreludeTable,
    entries: Vec<JournalEntry>,
    fingerprint: u64,
    total_runs: u64,
}

fn scratch(label: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(label);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs a 4-run campaign once, journaled, and caches the journal bytes.
fn pristine() -> &'static PristineJournal {
    static JOURNAL: OnceLock<PristineJournal> = OnceLock::new();
    JOURNAL.get_or_init(|| {
        let mut campaign = CampaignSpec::smoke();
        campaign.name = "checkpoint-robustness".to_owned();
        campaign.mix_count = 1;
        campaign.threads_per_mix = 2;
        campaign.scale.benign_instructions = 400;
        campaign.scale.min_cycles = 20_000;
        let dir = scratch("checkpoint-robustness");
        let path = dir.join("campaign.journal");
        let options = ExecutionOptions {
            journal: Some(path.clone()),
            ..Default::default()
        };
        let report = execute_resumable(&campaign, campaign.expand(), 0, &options)
            .expect("the journal-producing campaign runs");
        let bytes = std::fs::read(&path).expect("journal file exists");
        let fp = fingerprint(&campaign);
        let total = report.outcomes.len() as u64;
        let scan = parse_journal(&bytes, fp, total).expect("pristine journal parses");
        assert_eq!(scan.entries.len() as u64, total, "every run was journaled");
        assert!(!scan.dropped_trailing);
        PristineJournal {
            bytes,
            // The campaign normalizes, so its journal opens with the table.
            prelude: scan.prelude.expect("the prelude table was journaled"),
            entries: scan.entries,
            fingerprint: fp,
            total_runs: total,
        }
    })
}

/// The robustness contract for one mutated byte string.
fn assert_survives(mutated: &[u8], label: &str) {
    let p = pristine();
    match parse_journal(mutated, p.fingerprint, p.total_runs) {
        Ok(JournalScan {
            prelude,
            entries,
            good_len,
            ..
        }) => {
            // A successful parse yields no table or the pristine one —
            // never an altered reference.
            assert!(
                prelude.is_none() || prelude.as_ref() == Some(&p.prelude),
                "{label}: a recovered prelude table must be the pristine one"
            );
            // A successful parse must yield an exact prefix of the
            // original entries — never a spliced or altered outcome.
            assert!(
                entries.len() <= p.entries.len(),
                "{label}: more entries than were written"
            );
            assert_eq!(
                entries,
                p.entries[..entries.len()],
                "{label}: recovered entries must be a pristine prefix"
            );
            assert!(
                good_len as usize <= mutated.len(),
                "{label}: good_len points past the data"
            );
        }
        Err(error) => {
            // Structured failure is acceptable; the Display impl must
            // hold up too (no panicking formatting paths).
            let _ = error.to_string();
        }
    }
}

proptest! {
    /// Truncating the journal anywhere — mid-header, mid-record,
    /// mid-checksum — yields a clean prefix or a structured error.
    #[test]
    fn any_truncation_resumes_cleanly_or_errors(cut in 0u64..1_000_000) {
        let p = pristine();
        let cut = (cut as usize) % (p.bytes.len() + 1);
        assert_survives(&p.bytes[..cut], &format!("truncated at {cut}"));
    }

    /// Flipping any single byte yields a clean prefix or a structured
    /// error — the checksum (or the header check) catches the damage.
    #[test]
    fn any_single_byte_flip_resumes_cleanly_or_errors(
        position in 0u64..1_000_000,
        flip in 1u64..256,
    ) {
        let p = pristine();
        let position = (position as usize) % p.bytes.len();
        let mut mutated = p.bytes.clone();
        mutated[position] ^= flip as u8;
        assert_survives(&mutated, &format!("flipped byte {position} by {flip:#04x}"));
    }

    /// Both at once: flip a byte, then truncate.
    #[test]
    fn combined_flip_and_truncation_is_survivable(
        position in 0u64..1_000_000,
        flip in 1u64..256,
        cut in 0u64..1_000_000,
    ) {
        let p = pristine();
        let position = (position as usize) % p.bytes.len();
        let mut mutated = p.bytes.clone();
        mutated[position] ^= flip as u8;
        let cut = (cut as usize) % (mutated.len() + 1);
        mutated.truncate(cut);
        assert_survives(&mutated, &format!("flip {position} then cut {cut}"));
    }
}

#[test]
fn resume_truncates_the_file_to_the_last_good_record_and_appends() {
    let p = pristine();
    // Chop the journal mid-way through its final record (one byte short):
    // resume must drop the torn record, truncate the file to the good
    // prefix, and hand back a writer that appends where it left off.
    let dir = scratch("checkpoint-torn-resume");
    let path = dir.join("torn.journal");
    std::fs::write(&path, &p.bytes[..p.bytes.len() - 1]).expect("write torn journal");
    let resumed =
        resume_or_create(&path, p.fingerprint, p.total_runs).expect("torn journal resumes");
    assert_eq!(resumed.entries.len(), p.entries.len() - 1);
    assert!(resumed.dropped_trailing, "the torn record was dropped");
    let mut writer = resumed.writer;
    writer
        .append(&p.entries[p.entries.len() - 1])
        .expect("re-append the lost record");
    drop(writer);
    // The healed journal is byte-identical to the pristine one.
    let healed = std::fs::read(&path).expect("read healed journal");
    assert_eq!(healed, p.bytes);
}
