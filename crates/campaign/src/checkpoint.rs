//! Append-only campaign checkpoint journal: crash-safe resume state.
//!
//! A campaign is a deterministic, ordered run list (PR 4), so the only
//! state needed to resume one is *how far it got*. The journal records
//! exactly that: each delivered run result — completed outcome or
//! quarantined failure — is appended, in run order, the moment it is
//! known, and flushed before the campaign moves on. A killed process
//! therefore leaves a journal holding every finished run plus at most
//! one torn trailing record, and [`resume_or_create`] turns that back
//! into a campaign that re-runs only the tail.
//!
//! A normalized campaign's journal also keeps its alone-IPC reference
//! table ([`PreludeTable`]): a fresh journal records it as its first
//! record, before any run, so a resumed campaign reads its references
//! back instead of re-simulating them. The journal is the campaign's one
//! durable file.
//!
//! # On-disk format
//!
//! The format follows the binary trace conventions of
//! [`crate::trace`] (magic + version byte, length-prefixed records,
//! LEB128 varints), hardened for its job as recovery state:
//!
//! ```text
//! header:  "BHCJ" | version (1 byte) | spec fingerprint (u64 LE)
//!          | total runs (u64 LE)
//! record:  payload length (varint) | payload | FNV-1a 64 checksum of
//!          the payload (u64 LE)
//! payload: tag (0 = outcome, 1 = failure, 2 = prelude) | tag-specific
//!          fields (varints, length-prefixed UTF-8 strings, f64 bit
//!          patterns LE)
//! prelude: entry count (varint) | per entry: workload name (string)
//!          | channels (varint) | alone IPC (f64), sorted by
//!          (name, channels); only ever the first record
//! ```
//!
//! The header pins *which* campaign the journal belongs to: the
//! [`fingerprint`] hashes the [`CampaignSpec`]'s canonical JSON, which
//! holds every field, so resuming with a different spec (different seed,
//! axes, scale…) is refused with [`JournalError::SpecMismatch`] instead
//! of silently splicing results from two different sweeps. The
//! per-record checksum makes torn or bit-flipped trailing records
//! detectable: [`parse_journal`] stops at the first record that fails
//! its checksum (or frame), reports the clean prefix, and
//! [`resume_or_create`] truncates the file back to that prefix before
//! appending — a corrupt record is *dropped*, never trusted
//! (property-pinned in `tests/tests/checkpoint_robustness.rs`).
//! A dropped prelude record costs only its recomputation.

use crate::runner::{FailedRun, RunOutcome, ThreadOutcome};
use crate::spec::CampaignSpec;
use crate::trace::{read_varint, write_varint};
use crate::wire;
use sim::{MultiProgramMetrics, SteppingStats};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Magic bytes opening every checkpoint journal ("BlockHammer Campaign
/// Journal", sibling of the trace format's `BHTB`).
pub const JOURNAL_MAGIC: [u8; 4] = *b"BHCJ";
/// Current journal format version. Version 2 pins the [`fingerprint`] of
/// the spec's canonical JSON, so a version-1 journal, pinned to the older
/// field-by-field hash, is refused as an old version rather than as a
/// different campaign.
pub const JOURNAL_VERSION: u8 = 2;
/// Fixed header size: magic, version, spec fingerprint, total runs.
const HEADER_LEN: usize = 4 + 1 + 8 + 8;
/// Sanity bound on a single record payload. Real payloads are a few
/// hundred bytes (one `RunOutcome` with its threads); anything claiming
/// to be larger is a corrupt length prefix, not a record worth reading.
const MAX_PAYLOAD: u64 = 1 << 22;
/// Payload tag of the prelude record.
const PRELUDE_TAG: u8 = 2;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Why a journal could not be used.
#[derive(Debug)]
pub enum JournalError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The file is not a journal (bad magic/version) or its fixed header
    /// is torn.
    Header {
        /// What was wrong with it.
        message: String,
    },
    /// The journal belongs to a different campaign (fingerprint or run
    /// count mismatch) — resuming would splice unrelated results.
    SpecMismatch {
        /// What diverged.
        message: String,
    },
    /// A record in the *interior* of the journal is structurally invalid
    /// even though its checksum passes, or replayed entries contradict
    /// the campaign's run list. (Trailing torn/corrupt records are not
    /// errors: they are detected by checksum and dropped.)
    Corrupt {
        /// 0-based index of the offending record.
        record: u64,
        /// What was wrong with it.
        message: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Header { message } => write!(f, "bad journal header: {message}"),
            JournalError::SpecMismatch { message } => {
                write!(f, "journal belongs to a different campaign: {message}")
            }
            JournalError::Corrupt { record, message } => {
                write!(f, "corrupt journal record {record}: {message}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// A normalized campaign's stand-alone IPC references: one
/// `(workload name, channels, alone IPC)` entry per distinct pair,
/// sorted by `(name, channels)`.
pub type PreludeTable = Vec<(String, usize, f64)>;

/// One journaled run result, in campaign run order.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEntry {
    /// The run completed and produced an outcome.
    Outcome(RunOutcome),
    /// The run was quarantined after failing (see
    /// `campaign::FailurePolicy`).
    Failure(FailedRun),
}

impl JournalEntry {
    /// The run's position in the campaign run order.
    pub fn index(&self) -> usize {
        match self {
            JournalEntry::Outcome(outcome) => outcome.index,
            JournalEntry::Failure(failure) => failure.index,
        }
    }

    /// The run's name.
    pub fn name(&self) -> &str {
        match self {
            JournalEntry::Outcome(outcome) => &outcome.name,
            JournalEntry::Failure(failure) => &failure.name,
        }
    }
}

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Content fingerprint of a campaign spec: FNV-1a over its canonical
/// JSON encoding ([`wire::spec_to_json`]), which writes every field that
/// influences the expanded run list or the per-run results. Two specs
/// therefore fingerprint equal exactly when their campaigns are
/// interchangeable for resume purposes, and a server campaign's ID is the
/// hash of its own `spec.json` bytes.
pub fn fingerprint(spec: &CampaignSpec) -> u64 {
    fnv1a(wire::spec_to_json(spec).as_bytes(), FNV_OFFSET)
}

// ---------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------

fn push_varint(out: &mut Vec<u8>, value: u64) {
    let mut buf = [0u8; 10];
    let n = write_varint(&mut buf, value);
    out.extend_from_slice(&buf[..n]);
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn push_f64(out: &mut Vec<u8>, value: f64) {
    out.extend_from_slice(&value.to_bits().to_le_bytes());
}

/// Serializes one entry to its record payload (checksummed and
/// length-framed by the writer).
fn encode_entry(entry: &JournalEntry) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    match entry {
        JournalEntry::Outcome(o) => {
            out.push(0);
            push_varint(&mut out, o.index as u64);
            push_str(&mut out, &o.name);
            push_str(&mut out, &o.scenario);
            push_str(&mut out, &o.defense);
            push_varint(&mut out, o.n_rh);
            push_varint(&mut out, o.channels as u64);
            push_varint(&mut out, o.total_cycles);
            push_varint(&mut out, o.activations);
            push_f64(&mut out, o.dram_energy_j);
            push_varint(&mut out, o.threads.len() as u64);
            for thread in &o.threads {
                push_str(&mut out, &thread.name);
                out.push(u8::from(thread.is_attacker));
                push_varint(&mut out, thread.instructions);
                push_varint(&mut out, thread.cycles);
                push_f64(&mut out, thread.ipc);
                push_f64(&mut out, thread.max_rhli);
                push_varint(&mut out, thread.memory_requests);
            }
            match &o.metrics {
                None => out.push(0),
                Some(m) => {
                    out.push(1);
                    push_f64(&mut out, m.weighted_speedup);
                    push_f64(&mut out, m.harmonic_speedup);
                    push_f64(&mut out, m.max_slowdown);
                    push_f64(&mut out, m.dram_energy_joules);
                }
            }
            push_varint(&mut out, o.stepping.cycles_simulated);
            push_varint(&mut out, o.stepping.cycles_skipped);
            push_varint(&mut out, o.stepping.events_processed);
            push_varint(&mut out, o.stepping.largest_jump);
        }
        JournalEntry::Failure(f) => {
            out.push(1);
            push_varint(&mut out, f.index as u64);
            push_str(&mut out, &f.name);
            push_str(&mut out, &f.scenario);
            push_str(&mut out, &f.defense);
            push_varint(&mut out, f.n_rh);
            push_varint(&mut out, f.channels as u64);
            push_varint(&mut out, u64::from(f.attempts));
            push_str(&mut out, &f.cause);
        }
    }
    out
}

struct PayloadCursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> PayloadCursor<'a> {
    fn u64(&mut self) -> Result<u64, String> {
        read_varint(self.bytes, &mut self.at)
    }

    fn usize(&mut self) -> Result<usize, String> {
        let value = self.u64()?;
        usize::try_from(value).map_err(|_| format!("value {value} overflows usize"))
    }

    fn byte(&mut self) -> Result<u8, String> {
        let byte = *self
            .bytes
            .get(self.at)
            .ok_or_else(|| "payload truncated".to_owned())?;
        self.at += 1;
        Ok(byte)
    }

    fn f64(&mut self) -> Result<f64, String> {
        let end = self
            .at
            .checked_add(8)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| "payload truncated in f64".to_owned())?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.bytes[self.at..end]);
        self.at = end;
        Ok(f64::from_bits(u64::from_le_bytes(raw)))
    }

    fn string(&mut self) -> Result<String, String> {
        let len = self.usize()?;
        let end = self
            .at
            .checked_add(len)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| "payload truncated in string".to_owned())?;
        let s = std::str::from_utf8(&self.bytes[self.at..end])
            .map_err(|_| "string is not valid UTF-8".to_owned())?
            .to_owned();
        self.at = end;
        Ok(s)
    }

    /// Fails unless the whole payload was consumed.
    fn finish(&self) -> Result<(), String> {
        if self.at != self.bytes.len() {
            return Err(format!(
                "{} trailing byte(s) in record payload",
                self.bytes.len() - self.at
            ));
        }
        Ok(())
    }
}

/// Deserializes one record payload. Called only after the checksum
/// passed, so a failure here means a writer bug or a crafted file — it
/// surfaces as [`JournalError::Corrupt`], never a panic.
fn decode_entry(payload: &[u8]) -> Result<JournalEntry, String> {
    let mut cursor = PayloadCursor {
        bytes: payload,
        at: 0,
    };
    let entry = match cursor.byte()? {
        0 => {
            let index = cursor.usize()?;
            let name = cursor.string()?;
            let scenario = cursor.string()?;
            let defense = cursor.string()?;
            let n_rh = cursor.u64()?;
            let channels = cursor.usize()?;
            let total_cycles = cursor.u64()?;
            let activations = cursor.u64()?;
            let dram_energy_j = cursor.f64()?;
            let thread_count = cursor.usize()?;
            if thread_count > payload.len() {
                // Each thread needs several payload bytes; a count beyond
                // the payload length is corrupt, not a huge allocation.
                return Err(format!("thread count {thread_count} exceeds payload size"));
            }
            let mut threads = Vec::with_capacity(thread_count);
            for _ in 0..thread_count {
                threads.push(ThreadOutcome {
                    name: cursor.string()?,
                    is_attacker: cursor.byte()? != 0,
                    instructions: cursor.u64()?,
                    cycles: cursor.u64()?,
                    ipc: cursor.f64()?,
                    max_rhli: cursor.f64()?,
                    memory_requests: cursor.u64()?,
                });
            }
            let metrics = match cursor.byte()? {
                0 => None,
                1 => Some(MultiProgramMetrics {
                    weighted_speedup: cursor.f64()?,
                    harmonic_speedup: cursor.f64()?,
                    max_slowdown: cursor.f64()?,
                    dram_energy_joules: cursor.f64()?,
                }),
                other => return Err(format!("unknown metrics tag {other}")),
            };
            let stepping = SteppingStats {
                cycles_simulated: cursor.u64()?,
                cycles_skipped: cursor.u64()?,
                events_processed: cursor.u64()?,
                largest_jump: cursor.u64()?,
            };
            JournalEntry::Outcome(RunOutcome {
                index,
                name,
                scenario,
                defense,
                n_rh,
                channels,
                total_cycles,
                activations,
                dram_energy_j,
                threads,
                metrics,
                stepping,
            })
        }
        1 => {
            let index = cursor.usize()?;
            let name = cursor.string()?;
            let scenario = cursor.string()?;
            let defense = cursor.string()?;
            let n_rh = cursor.u64()?;
            let channels = cursor.usize()?;
            let attempts_raw = cursor.u64()?;
            let attempts = u32::try_from(attempts_raw)
                .map_err(|_| format!("attempt count {attempts_raw} overflows u32"))?;
            let cause = cursor.string()?;
            JournalEntry::Failure(FailedRun {
                index,
                name,
                scenario,
                defense,
                n_rh,
                channels,
                attempts,
                cause,
            })
        }
        other => return Err(format!("unknown entry tag {other}")),
    };
    cursor.finish()?;
    Ok(entry)
}

/// Serializes the prelude's reference table to its record payload.
fn encode_prelude(table: &[(String, usize, f64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + table.len() * 32);
    out.push(PRELUDE_TAG);
    push_varint(&mut out, table.len() as u64);
    for (name, channels, ipc) in table {
        push_str(&mut out, name);
        push_varint(&mut out, *channels as u64);
        push_f64(&mut out, *ipc);
    }
    out
}

/// Deserializes a prelude record payload (tag included), refusing a
/// table the executor could not binary-search: unsorted or duplicated
/// keys.
fn decode_prelude(payload: &[u8]) -> Result<PreludeTable, String> {
    let mut cursor = PayloadCursor {
        bytes: payload,
        at: 1,
    };
    let count = cursor.usize()?;
    if count > payload.len() {
        // Each entry needs several payload bytes; a count beyond the
        // payload length is corrupt, not a huge allocation.
        return Err(format!("prelude count {count} exceeds payload size"));
    }
    let mut table: PreludeTable = Vec::with_capacity(count);
    for _ in 0..count {
        let name = cursor.string()?;
        let channels = cursor.usize()?;
        let ipc = cursor.f64()?;
        if let Some((last_name, last_channels, _)) = table.last() {
            if (last_name, *last_channels) >= (&name, channels) {
                return Err(format!(
                    "prelude entry ({name}, {channels}) is out of order"
                ));
            }
        }
        table.push((name, channels, ipc));
    }
    cursor.finish()?;
    Ok(table)
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Result of scanning journal bytes: the clean prefix and where it ends.
#[derive(Debug)]
pub struct JournalScan {
    /// The prelude's reference table, when the clean prefix opens with
    /// one.
    pub prelude: Option<PreludeTable>,
    /// The decoded entries of the clean prefix, in run order.
    pub entries: Vec<JournalEntry>,
    /// Byte length of the clean prefix (header + intact records) — the
    /// offset resume truncates the file to before appending.
    pub good_len: u64,
    /// Whether trailing bytes after the clean prefix were dropped
    /// (a torn or corrupt final record from an interrupted writer).
    pub dropped_trailing: bool,
}

/// Parses journal `bytes`, validating the header against the expected
/// campaign identity and decoding records until the first torn or
/// checksum-failing one (which, together with everything after it, is
/// dropped rather than trusted).
///
/// # Errors
///
/// * [`JournalError::Header`] if the fixed header is torn or not a
///   journal;
/// * [`JournalError::SpecMismatch`] if the journal was written for a
///   different campaign;
/// * [`JournalError::Corrupt`] if a checksum-valid record fails to
///   decode, its run index is out of order, or a prelude record is not
///   the first record — states an append-only writer cannot produce, so
///   nothing after them is trustworthy.
pub fn parse_journal(
    bytes: &[u8],
    expect_fingerprint: u64,
    expect_total_runs: u64,
) -> Result<JournalScan, JournalError> {
    if bytes.len() < HEADER_LEN {
        return Err(JournalError::Header {
            message: format!(
                "file is {} byte(s), shorter than the {HEADER_LEN}-byte header",
                bytes.len()
            ),
        });
    }
    if bytes[..4] != JOURNAL_MAGIC {
        return Err(JournalError::Header {
            message: "bad magic (not a BHCJ journal)".to_owned(),
        });
    }
    if bytes[4] != JOURNAL_VERSION {
        return Err(JournalError::Header {
            message: format!(
                "unsupported version {} (expected {JOURNAL_VERSION})",
                bytes[4]
            ),
        });
    }
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[5..13]);
    let fingerprint = u64::from_le_bytes(word);
    word.copy_from_slice(&bytes[13..21]);
    let total_runs = u64::from_le_bytes(word);
    if fingerprint != expect_fingerprint {
        return Err(JournalError::SpecMismatch {
            message: format!(
                "spec fingerprint {fingerprint:#018x} != expected {expect_fingerprint:#018x}"
            ),
        });
    }
    if total_runs != expect_total_runs {
        return Err(JournalError::SpecMismatch {
            message: format!("journal covers {total_runs} runs, campaign has {expect_total_runs}"),
        });
    }

    let mut prelude = None;
    let mut entries = Vec::new();
    let mut good_len = HEADER_LEN;
    let mut cursor = HEADER_LEN;
    let mut dropped_trailing = false;
    while cursor < bytes.len() {
        let record_ok = (|| {
            let mut at = cursor;
            let payload_len = read_varint(bytes, &mut at).ok()?;
            if payload_len == 0 || payload_len > MAX_PAYLOAD {
                return None;
            }
            let payload_len = payload_len as usize;
            let payload_end = at.checked_add(payload_len)?;
            let frame_end = payload_end.checked_add(8)?;
            if frame_end > bytes.len() {
                return None;
            }
            let payload = &bytes[at..payload_end];
            let mut checksum = [0u8; 8];
            checksum.copy_from_slice(&bytes[payload_end..frame_end]);
            if fnv1a(payload, FNV_OFFSET) != u64::from_le_bytes(checksum) {
                return None;
            }
            Some((payload, frame_end))
        })();
        let Some((payload, frame_end)) = record_ok else {
            // Torn or bit-flipped trailing record: drop it and everything
            // after it. The clean prefix is still a valid resume point.
            dropped_trailing = true;
            break;
        };
        let record = (usize::from(prelude.is_some()) + entries.len()) as u64;
        let corrupt = |message| JournalError::Corrupt { record, message };
        if payload[0] == PRELUDE_TAG {
            if record != 0 {
                return Err(corrupt("a prelude record after the first".to_owned()));
            }
            prelude = Some(decode_prelude(payload).map_err(corrupt)?);
            cursor = frame_end;
            good_len = frame_end;
            continue;
        }
        let entry = decode_entry(payload).map_err(corrupt)?;
        if entry.index() != entries.len() {
            return Err(JournalError::Corrupt {
                record,
                message: format!(
                    "record holds run index {} at journal position {}",
                    entry.index(),
                    entries.len()
                ),
            });
        }
        if entries.len() as u64 >= total_runs {
            return Err(JournalError::Corrupt {
                record,
                message: format!("more records than the campaign's {total_runs} runs"),
            });
        }
        entries.push(entry);
        cursor = frame_end;
        good_len = frame_end;
    }
    Ok(JournalScan {
        prelude,
        entries,
        good_len: good_len as u64,
        dropped_trailing,
    })
}

/// Reads and parses the journal at `path` (see [`parse_journal`]).
///
/// # Errors
///
/// Propagates I/O and parse errors.
pub fn read_journal(
    path: &Path,
    expect_fingerprint: u64,
    expect_total_runs: u64,
) -> Result<JournalScan, JournalError> {
    let bytes = std::fs::read(path)?;
    parse_journal(&bytes, expect_fingerprint, expect_total_runs)
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Appends records to an open journal, flushing each before returning
/// so a completed run is durable before the next one starts.
pub struct JournalWriter {
    sink: File,
    records: u64,
}

impl JournalWriter {
    /// Appends one run result (length frame + payload + checksum) and
    /// flushes.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn append(&mut self, entry: &JournalEntry) -> io::Result<()> {
        self.write_record(&encode_entry(entry))?;
        self.records += 1;
        crate::faults::after_journal_append(self.records);
        Ok(())
    }

    /// Appends the prelude's reference table (sorted by `(name,
    /// channels)`) and flushes. Only a journal that holds no record yet
    /// may take it: [`parse_journal`] refuses a prelude record anywhere
    /// but first.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn append_prelude(&mut self, table: &[(String, usize, f64)]) -> io::Result<()> {
        self.write_record(&encode_prelude(table))
    }

    /// Frames `payload` (length + payload + checksum), writes and
    /// flushes it.
    fn write_record(&mut self, payload: &[u8]) -> io::Result<()> {
        let mut frame = Vec::with_capacity(payload.len() + 18);
        push_varint(&mut frame, payload.len() as u64);
        frame.extend_from_slice(payload);
        frame.extend_from_slice(&fnv1a(payload, FNV_OFFSET).to_le_bytes());
        self.sink.write_all(&frame)?;
        self.sink.flush()
    }

    /// Run records appended across the journal's lifetime (including the
    /// replayed prefix this writer resumed from); the prelude record does
    /// not count.
    pub fn records(&self) -> u64 {
        self.records
    }
}

/// An opened (or freshly created) journal, ready to resume from.
pub struct ResumedJournal {
    /// The prelude's reference table, when the journal holds one.
    pub prelude: Option<PreludeTable>,
    /// The clean prefix of already-finished runs, in run order; empty
    /// for a fresh journal.
    pub entries: Vec<JournalEntry>,
    /// Whether a torn/corrupt trailing record was dropped (and truncated
    /// away) while opening.
    pub dropped_trailing: bool,
    /// The writer positioned after the clean prefix.
    pub writer: JournalWriter,
}

/// Opens the journal at `path` for the campaign identified by
/// `fingerprint`/`total_runs`, creating it (with its header) if absent
/// or empty. An existing journal is scanned, any torn trailing record
/// truncated away, and the writer positioned to append after the clean
/// prefix.
///
/// # Errors
///
/// Propagates I/O errors and every [`parse_journal`] failure — notably
/// [`JournalError::SpecMismatch`] when the journal on disk belongs to a
/// different campaign.
pub fn resume_or_create(
    path: &Path,
    fingerprint: u64,
    total_runs: u64,
) -> Result<ResumedJournal, JournalError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let existing_len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    if existing_len == 0 {
        // Fresh journal (or a file created but killed before the header
        // flush, which holds no information): write the header.
        let mut sink = File::create(path)?;
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&JOURNAL_MAGIC);
        header[4] = JOURNAL_VERSION;
        header[5..13].copy_from_slice(&fingerprint.to_le_bytes());
        header[13..21].copy_from_slice(&total_runs.to_le_bytes());
        sink.write_all(&header)?;
        sink.flush()?;
        return Ok(ResumedJournal {
            prelude: None,
            entries: Vec::new(),
            dropped_trailing: false,
            writer: JournalWriter { sink, records: 0 },
        });
    }
    let mut sink = OpenOptions::new().read(true).write(true).open(path)?;
    let mut bytes = Vec::with_capacity(existing_len as usize);
    sink.read_to_end(&mut bytes)?;
    let scan = parse_journal(&bytes, fingerprint, total_runs)?;
    if scan.good_len < bytes.len() as u64 {
        sink.set_len(scan.good_len)?;
    }
    sink.seek(SeekFrom::Start(scan.good_len))?;
    let records = scan.entries.len() as u64;
    Ok(ResumedJournal {
        prelude: scan.prelude,
        entries: scan.entries,
        dropped_trailing: scan.dropped_trailing,
        writer: JournalWriter { sink, records },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bh-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn sample_outcome(index: usize) -> RunOutcome {
        RunOutcome {
            index,
            name: format!("mix-{index:03}/Baseline/nrh32768/ch1"),
            scenario: if index % 2 == 0 {
                "attack"
            } else {
                "no-attack"
            }
            .to_owned(),
            defense: "Baseline".to_owned(),
            n_rh: 32_768,
            channels: 1,
            total_cycles: 100_000 + index as u64,
            activations: 4_200 * (index as u64 + 1),
            dram_energy_j: 0.125 * (index as f64 + 1.0),
            threads: vec![
                ThreadOutcome {
                    name: "attacker.double_sided".to_owned(),
                    is_attacker: true,
                    instructions: 0,
                    cycles: 100_000,
                    ipc: 0.0,
                    max_rhli: 0.93,
                    memory_requests: 50_000,
                },
                ThreadOutcome {
                    name: "streaming.a".to_owned(),
                    is_attacker: false,
                    instructions: 2_000,
                    cycles: 90_000 + index as u64,
                    ipc: 0.022,
                    max_rhli: 0.01,
                    memory_requests: 512,
                },
            ],
            metrics: (index % 2 == 0).then_some(MultiProgramMetrics {
                weighted_speedup: 0.87,
                harmonic_speedup: 0.85,
                max_slowdown: 1.31,
                dram_energy_joules: 0.125,
            }),
            stepping: SteppingStats {
                cycles_simulated: 40_000,
                cycles_skipped: 60_000,
                events_processed: 39_000,
                largest_jump: 1_600,
            },
        }
    }

    fn sample_failure(index: usize) -> FailedRun {
        FailedRun {
            index,
            name: format!("mix-{index:03}/Para/nrh32768/ch1"),
            scenario: "attack".to_owned(),
            defense: "Para".to_owned(),
            n_rh: 32_768,
            channels: 1,
            attempts: 3,
            cause: "panicked: injected fault, with \"quotes\" and a\nnewline".to_owned(),
        }
    }

    fn sample_entries() -> Vec<JournalEntry> {
        vec![
            JournalEntry::Outcome(sample_outcome(0)),
            JournalEntry::Failure(sample_failure(1)),
            JournalEntry::Outcome(sample_outcome(2)),
        ]
    }

    fn write_sample_journal(path: &Path, fingerprint: u64, total: u64) -> Vec<JournalEntry> {
        let entries = sample_entries();
        let mut resumed = resume_or_create(path, fingerprint, total).expect("create");
        for entry in &entries {
            resumed.writer.append(entry).expect("append");
        }
        entries
    }

    #[test]
    fn entries_round_trip_through_the_payload_encoding() {
        for entry in sample_entries() {
            let payload = encode_entry(&entry);
            assert_eq!(decode_entry(&payload).expect("decode"), entry);
        }
    }

    #[test]
    fn a_journal_round_trips_through_disk() {
        let path = scratch("roundtrip.journal");
        let entries = write_sample_journal(&path, 0xfeed, 8);
        let scan = read_journal(&path, 0xfeed, 8).expect("read");
        assert_eq!(scan.entries, entries);
        assert!(!scan.dropped_trailing);
    }

    #[test]
    fn resume_continues_after_the_existing_prefix() {
        let path = scratch("resume.journal");
        let entries = write_sample_journal(&path, 0xfeed, 8);
        let mut resumed = resume_or_create(&path, 0xfeed, 8).expect("resume");
        assert_eq!(resumed.entries, entries);
        assert_eq!(resumed.writer.records(), 3);
        resumed
            .writer
            .append(&JournalEntry::Outcome(sample_outcome(3)))
            .expect("append");
        let scan = read_journal(&path, 0xfeed, 8).expect("read");
        assert_eq!(scan.entries.len(), 4);
        assert_eq!(scan.entries[3].index(), 3);
    }

    #[test]
    fn a_torn_trailing_record_is_dropped_and_truncated() {
        let path = scratch("torn.journal");
        write_sample_journal(&path, 0xfeed, 8);
        let full = std::fs::read(&path).expect("read bytes");
        // Chop mid-way through the last record.
        std::fs::write(&path, &full[..full.len() - 5]).expect("truncate");
        let resumed = resume_or_create(&path, 0xfeed, 8).expect("resume");
        assert_eq!(resumed.entries.len(), 2, "last record dropped");
        assert!(resumed.dropped_trailing);
        // The file was truncated back to the clean prefix and appending
        // after it yields a clean three-record journal again.
        drop(resumed);
        let mut resumed = resume_or_create(&path, 0xfeed, 8).expect("reopen");
        assert!(!resumed.dropped_trailing, "truncation was persisted");
        resumed
            .writer
            .append(&JournalEntry::Outcome(sample_outcome(2)))
            .expect("append");
        let scan = read_journal(&path, 0xfeed, 8).expect("read");
        assert_eq!(scan.entries.len(), 3);
        assert!(!scan.dropped_trailing);
    }

    #[test]
    fn a_flipped_byte_in_the_last_record_fails_its_checksum() {
        let path = scratch("flipped.journal");
        let entries = write_sample_journal(&path, 0xfeed, 8);
        let mut bytes = std::fs::read(&path).expect("read bytes");
        let last = bytes.len() - 12; // inside the final record's payload
        bytes[last] ^= 0x40;
        let scan = parse_journal(&bytes, 0xfeed, 8).expect("scan");
        assert_eq!(scan.entries.len(), 2);
        assert_eq!(scan.entries, entries[..2]);
        assert!(scan.dropped_trailing);
    }

    #[test]
    fn mismatched_fingerprint_or_run_count_is_refused() {
        let path = scratch("mismatch.journal");
        write_sample_journal(&path, 0xfeed, 8);
        assert!(matches!(
            read_journal(&path, 0xbeef, 8),
            Err(JournalError::SpecMismatch { .. })
        ));
        assert!(matches!(
            read_journal(&path, 0xfeed, 9),
            Err(JournalError::SpecMismatch { .. })
        ));
    }

    #[test]
    fn non_journals_and_torn_headers_are_structured_errors() {
        assert!(matches!(
            parse_journal(b"BHCJ", 0, 0),
            Err(JournalError::Header { .. })
        ));
        assert!(matches!(
            parse_journal(b"BHTB\x01aaaaaaaabbbbbbbb", 0, 0),
            Err(JournalError::Header { .. })
        ));
        let mut versioned = Vec::new();
        versioned.extend_from_slice(&JOURNAL_MAGIC);
        versioned.push(99);
        versioned.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            parse_journal(&versioned, 0, 0),
            Err(JournalError::Header { .. })
        ));
    }

    #[test]
    fn out_of_order_interior_records_are_corrupt() {
        let path = scratch("order.journal");
        let mut resumed = resume_or_create(&path, 1, 8).expect("create");
        resumed
            .writer
            .append(&JournalEntry::Outcome(sample_outcome(1)))
            .expect("append");
        assert!(matches!(
            read_journal(&path, 1, 8),
            Err(JournalError::Corrupt { record: 0, .. })
        ));
    }

    fn sample_table() -> PreludeTable {
        vec![
            ("random.a".to_owned(), 1, 0.75),
            ("streaming.a".to_owned(), 1, 0.5),
            ("streaming.a".to_owned(), 2, 0.625),
        ]
    }

    #[test]
    fn a_prelude_record_round_trips_ahead_of_the_runs() {
        let path = scratch("prelude.journal");
        let mut resumed = resume_or_create(&path, 0xfeed, 8).expect("create");
        resumed
            .writer
            .append_prelude(&sample_table())
            .expect("append prelude");
        assert_eq!(resumed.writer.records(), 0, "the table is not a run");
        let entries = sample_entries();
        for entry in &entries {
            resumed.writer.append(entry).expect("append");
        }
        drop(resumed);
        let scan = read_journal(&path, 0xfeed, 8).expect("read");
        assert_eq!(scan.prelude, Some(sample_table()));
        assert_eq!(scan.entries, entries);
        let resumed = resume_or_create(&path, 0xfeed, 8).expect("resume");
        assert_eq!(resumed.prelude, Some(sample_table()));
        assert_eq!(resumed.writer.records(), 3);
        // A reader that knows only run records refuses the table with a
        // structured error rather than misreading it.
        assert_eq!(
            decode_entry(&encode_prelude(&sample_table())),
            Err("unknown entry tag 2".to_owned())
        );
    }

    #[test]
    fn a_torn_prelude_record_is_dropped() {
        let path = scratch("torn-prelude.journal");
        let mut resumed = resume_or_create(&path, 0xfeed, 8).expect("create");
        resumed
            .writer
            .append_prelude(&sample_table())
            .expect("append prelude");
        drop(resumed);
        let full = std::fs::read(&path).expect("read bytes");
        std::fs::write(&path, &full[..full.len() - 3]).expect("truncate");
        let resumed = resume_or_create(&path, 0xfeed, 8).expect("resume");
        assert_eq!(resumed.prelude, None, "the torn table is not trusted");
        assert!(resumed.entries.is_empty());
        assert!(resumed.dropped_trailing);
        // Truncated back to the bare header: the journal is fresh again,
        // so the next invocation recomputes and records the table.
        assert_eq!(
            std::fs::metadata(&path).expect("stat").len(),
            HEADER_LEN as u64
        );
    }

    #[test]
    fn a_prelude_record_after_a_run_record_is_corrupt() {
        let path = scratch("late-prelude.journal");
        let mut resumed = resume_or_create(&path, 0xfeed, 8).expect("create");
        resumed
            .writer
            .append(&JournalEntry::Outcome(sample_outcome(0)))
            .expect("append");
        resumed
            .writer
            .append_prelude(&sample_table())
            .expect("append prelude");
        assert!(matches!(
            read_journal(&path, 0xfeed, 8),
            Err(JournalError::Corrupt { record: 1, .. })
        ));
    }

    #[test]
    fn an_unsorted_prelude_record_is_corrupt() {
        let path = scratch("unsorted-prelude.journal");
        let mut table = sample_table();
        table.swap(0, 2);
        let mut resumed = resume_or_create(&path, 0xfeed, 8).expect("create");
        resumed
            .writer
            .append_prelude(&table)
            .expect("append prelude");
        assert!(matches!(
            read_journal(&path, 0xfeed, 8),
            Err(JournalError::Corrupt { record: 0, .. })
        ));
    }

    #[test]
    fn fingerprints_distinguish_campaign_specs() {
        let base = CampaignSpec::smoke();
        let fp = fingerprint(&base);
        assert_eq!(fp, fingerprint(&CampaignSpec::smoke()), "stable");
        let mut seeded = base.clone();
        seeded.seed ^= 1;
        assert_ne!(fp, fingerprint(&seeded));
        let mut scaled = base.clone();
        scaled.scale.benign_instructions += 1;
        assert_ne!(fp, fingerprint(&scaled));
        let mut renamed = base.clone();
        renamed.name.push('!');
        assert_ne!(fp, fingerprint(&renamed));
        let mut denormalized = base;
        denormalized.normalize = false;
        assert_ne!(fp, fingerprint(&denormalized));
    }
}
