//! Streaming trace file formats: Ramulator-style text and a compact
//! length-prefixed binary encoding of [`TraceRecord`]s.
//!
//! # Text format
//!
//! One record per line, in Ramulator's CPU trace shape extended with an
//! optional flags token:
//!
//! ```text
//! <non-memory-instructions> <address> [flags]
//! ```
//!
//! `address` is decimal or `0x`-prefixed hexadecimal. `flags` is one of
//! `R` (cacheable load, the default when omitted), `W` (cacheable store),
//! `B`/`RB` (cache-bypassing load) or `WB` (cache-bypassing store). Blank
//! lines and lines starting with `#` are ignored. A pure-load trace is
//! therefore exactly a Ramulator CPU trace, and Ramulator traces ingest
//! unchanged. Malformed lines produce a line-numbered
//! [`TraceError::Parse`] instead of a panic.
//!
//! # Binary format
//!
//! A 5-byte header (magic `BHTB`, version `1`) followed by
//! length-prefixed records: one length byte, then a payload of a flags
//! byte (bit 0 = write, bit 1 = bypass) and two LEB128 varints
//! (non-memory instruction count, address). Typical records are 4–11
//! bytes against the text format's ~12–25. Truncated or corrupt payloads
//! produce a record-numbered [`TraceError::Corrupt`].
//!
//! Both encodings round-trip every [`TraceRecord`] losslessly
//! (property-pinned in `tests/tests/trace_roundtrip.rs`). Readers stream
//! from any [`BufRead`], writers to any [`Write`]; [`open_trace_file`]
//! auto-detects the format from the magic bytes.

use bh_types::TraceRecord;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every binary trace file.
pub const BINARY_MAGIC: [u8; 4] = *b"BHTB";
/// Current binary format version.
pub const BINARY_VERSION: u8 = 1;
/// Largest legal binary record payload: flags byte + two maximal varints
/// (5 bytes for the u32, 10 for the u64).
const MAX_BINARY_PAYLOAD: usize = 16;

/// On-disk encoding of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Ramulator-style text, one record per line.
    Text,
    /// Compact length-prefixed binary records.
    Binary,
}

impl TraceFormat {
    /// Conventional file extension for the format.
    pub fn extension(&self) -> &'static str {
        match self {
            TraceFormat::Text => "trace",
            TraceFormat::Binary => "btrace",
        }
    }
}

impl fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFormat::Text => f.write_str("text"),
            TraceFormat::Binary => f.write_str("binary"),
        }
    }
}

/// Why a trace could not be read.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// A malformed text line; `line` is 1-based.
    Parse {
        /// 1-based line number of the offending line.
        line: u64,
        /// What was wrong with it.
        message: String,
    },
    /// A malformed binary record; `record` is 0-based.
    Corrupt {
        /// 0-based index of the offending record.
        record: u64,
        /// What was wrong with it.
        message: String,
    },
    /// A trace to be replayed in a loop holds no records.
    EmptyLoop {
        /// The trace file.
        path: PathBuf,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
            TraceError::Corrupt { record, message } => {
                write!(f, "corrupt binary trace at record {record}: {message}")
            }
            TraceError::EmptyLoop { path } => {
                write!(f, "cannot loop the empty trace {}", path.display())
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Streams [`TraceRecord`]s to a sink in either format.
pub struct TraceWriter<W: Write> {
    sink: W,
    format: TraceFormat,
    written: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer; for [`TraceFormat::Binary`] the header is emitted
    /// immediately.
    ///
    /// # Errors
    ///
    /// Propagates sink errors from writing the header.
    pub fn new(mut sink: W, format: TraceFormat) -> io::Result<Self> {
        if format == TraceFormat::Binary {
            sink.write_all(&BINARY_MAGIC)?;
            sink.write_all(&[BINARY_VERSION])?;
        }
        Ok(Self {
            sink,
            format,
            written: 0,
        })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Propagates sink errors.
    pub fn write(&mut self, record: &TraceRecord) -> io::Result<()> {
        match self.format {
            TraceFormat::Text => {
                let flags = match (record.is_write, record.bypass_cache) {
                    (false, false) => "",
                    (true, false) => " W",
                    (false, true) => " B",
                    (true, true) => " WB",
                };
                writeln!(
                    self.sink,
                    "{} 0x{:x}{}",
                    record.non_memory_instructions, record.address, flags
                )?;
            }
            TraceFormat::Binary => {
                let mut payload = [0u8; MAX_BINARY_PAYLOAD];
                payload[0] = u8::from(record.is_write) | (u8::from(record.bypass_cache) << 1);
                let mut len = 1;
                len += write_varint(
                    &mut payload[len..],
                    u64::from(record.non_memory_instructions),
                );
                len += write_varint(&mut payload[len..], record.address);
                self.sink.write_all(&[len as u8])?;
                self.sink.write_all(&payload[..len])?;
            }
        }
        self.written += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the sink.
    ///
    /// # Errors
    ///
    /// Propagates sink errors from the flush.
    pub fn finish(mut self) -> io::Result<W> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// LEB128-encodes `value` into `buf`, returning the number of bytes used.
/// Shared with the checkpoint journal (`campaign::checkpoint`), which
/// frames its records with the same varints as binary traces.
pub(crate) fn write_varint(buf: &mut [u8], mut value: u64) -> usize {
    let mut n = 0;
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf[n] = byte;
            return n + 1;
        }
        buf[n] = byte | 0x80;
        n += 1;
    }
}

/// LEB128-decodes a u64 from `buf[*cursor..]`, advancing the cursor.
pub(crate) fn read_varint(buf: &[u8], cursor: &mut usize) -> Result<u64, String> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = buf.get(*cursor) else {
            return Err("varint truncated".to_owned());
        };
        *cursor += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err("varint overflows 64 bits".to_owned());
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// Streams [`TraceRecord`]s from a source, yielding
/// `Result<TraceRecord, TraceError>` so malformed input surfaces as a
/// positioned error instead of a panic.
pub struct TraceReader<R: BufRead> {
    source: R,
    format: TraceFormat,
    /// 1-based line number (text) of the next line to read.
    line: u64,
    /// 0-based index of the next binary record.
    record: u64,
    /// Whether the binary header has been consumed.
    header_done: bool,
    /// A reader that produced an error stops (errors are not recoverable
    /// mid-stream: byte positions are no longer trustworthy).
    poisoned: bool,
}

impl<R: BufRead> TraceReader<R> {
    /// Creates a reader for a source known to be in `format`. For binary
    /// sources the header is validated on the first read.
    pub fn new(source: R, format: TraceFormat) -> Self {
        Self {
            source,
            format,
            line: 0,
            record: 0,
            header_done: false,
            poisoned: false,
        }
    }

    fn next_text(&mut self) -> Option<Result<TraceRecord, TraceError>> {
        let mut buf = String::new();
        loop {
            buf.clear();
            match self.source.read_line(&mut buf) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => return Some(Err(TraceError::Io(e))),
            }
            self.line += 1;
            let line = buf.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            return Some(parse_text_line(line, self.line));
        }
    }

    fn next_binary(&mut self) -> Option<Result<TraceRecord, TraceError>> {
        let corrupt = |record: u64, message: String| TraceError::Corrupt { record, message };
        if !self.header_done {
            let mut header = [0u8; 5];
            if let Err(e) = self.source.read_exact(&mut header) {
                return Some(Err(if e.kind() == io::ErrorKind::UnexpectedEof {
                    corrupt(0, "file shorter than the 5-byte header".to_owned())
                } else {
                    TraceError::Io(e)
                }));
            }
            if header[..4] != BINARY_MAGIC {
                return Some(Err(corrupt(0, "bad magic (not a BHTB trace)".to_owned())));
            }
            if header[4] != BINARY_VERSION {
                return Some(Err(corrupt(
                    0,
                    format!(
                        "unsupported version {} (expected {BINARY_VERSION})",
                        header[4]
                    ),
                )));
            }
            self.header_done = true;
        }
        let mut len_byte = [0u8; 1];
        match self.source.read_exact(&mut len_byte) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return None,
            Err(e) => return Some(Err(TraceError::Io(e))),
        }
        let len = len_byte[0] as usize;
        if len == 0 || len > MAX_BINARY_PAYLOAD {
            return Some(Err(corrupt(
                self.record,
                format!("record length {len} outside 1..={MAX_BINARY_PAYLOAD}"),
            )));
        }
        let mut payload = [0u8; MAX_BINARY_PAYLOAD];
        if let Err(e) = self.source.read_exact(&mut payload[..len]) {
            return Some(Err(if e.kind() == io::ErrorKind::UnexpectedEof {
                corrupt(self.record, "record payload truncated".to_owned())
            } else {
                TraceError::Io(e)
            }));
        }
        let flags = payload[0];
        if flags & !0b11 != 0 {
            return Some(Err(corrupt(
                self.record,
                format!("unknown flag bits {flags:#04x}"),
            )));
        }
        let mut cursor = 1;
        let non_memory = match read_varint(&payload[..len], &mut cursor) {
            Ok(v) if v <= u64::from(u32::MAX) => v as u32,
            Ok(v) => {
                return Some(Err(corrupt(
                    self.record,
                    format!("non-memory instruction count {v} overflows u32"),
                )))
            }
            Err(message) => return Some(Err(corrupt(self.record, message))),
        };
        let address = match read_varint(&payload[..len], &mut cursor) {
            Ok(v) => v,
            Err(message) => return Some(Err(corrupt(self.record, message))),
        };
        if cursor != len {
            return Some(Err(corrupt(
                self.record,
                format!("{} trailing byte(s) in record payload", len - cursor),
            )));
        }
        self.record += 1;
        Some(Ok(TraceRecord {
            non_memory_instructions: non_memory,
            address,
            is_write: flags & 0b01 != 0,
            bypass_cache: flags & 0b10 != 0,
        }))
    }
}

fn parse_text_line(line: &str, line_number: u64) -> Result<TraceRecord, TraceError> {
    let err = |message: String| TraceError::Parse {
        line: line_number,
        message,
    };
    let mut tokens = line.split_whitespace();
    let non_memory_token = tokens
        .next()
        .ok_or_else(|| err("empty trace line".to_owned()))?;
    let non_memory = non_memory_token.parse::<u32>().map_err(|_| {
        err(format!(
            "expected a non-memory instruction count, got `{non_memory_token}`"
        ))
    })?;
    let address_token = tokens
        .next()
        .ok_or_else(|| err("missing address column".to_owned()))?;
    let address = parse_address(address_token)
        .ok_or_else(|| err(format!("expected an address, got `{address_token}`")))?;
    let (is_write, bypass_cache) = match tokens.next() {
        None | Some("R") => (false, false),
        Some("W") => (true, false),
        Some("B") | Some("RB") => (false, true),
        Some("WB") => (true, true),
        Some(other) => {
            return Err(err(format!(
                "unknown flags `{other}` (expected R, W, B, RB or WB)"
            )))
        }
    };
    if let Some(extra) = tokens.next() {
        return Err(err(format!("unexpected trailing token `{extra}`")));
    }
    Ok(TraceRecord {
        non_memory_instructions: non_memory,
        address,
        is_write,
        bypass_cache,
    })
}

fn parse_address(token: &str) -> Option<u64> {
    if let Some(hex) = token
        .strip_prefix("0x")
        .or_else(|| token.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16).ok()
    } else {
        token.parse::<u64>().ok()
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.poisoned {
            return None;
        }
        let item = match self.format {
            TraceFormat::Text => self.next_text(),
            TraceFormat::Binary => self.next_binary(),
        };
        if matches!(item, Some(Err(_))) {
            self.poisoned = true;
        }
        item
    }
}

// ---------------------------------------------------------------------------
// File helpers
// ---------------------------------------------------------------------------

/// Opens a trace file, auto-detecting the format from the magic bytes
/// (binary traces start with `BHTB`; anything else is treated as text).
///
/// # Errors
///
/// Propagates file-open errors.
pub fn open_trace_file(path: &Path) -> Result<TraceReader<BufReader<File>>, TraceError> {
    if let Some(error) = crate::faults::before_trace_open(path) {
        return Err(TraceError::Io(error));
    }
    let mut source = BufReader::new(File::open(path)?);
    let format = match source.fill_buf() {
        Ok(head) if head.len() >= 4 && head[..4] == BINARY_MAGIC => TraceFormat::Binary,
        Ok(_) => TraceFormat::Text,
        Err(e) => return Err(TraceError::Io(e)),
    };
    Ok(TraceReader::new(source, format))
}

/// Reads a whole trace file into memory (format auto-detected), failing
/// on the first malformed record.
///
/// # Errors
///
/// Propagates open/read errors and positioned parse errors.
pub fn load_trace_file(path: &Path) -> Result<Vec<TraceRecord>, TraceError> {
    open_trace_file(path)?.collect()
}

/// Records up to `limit` records of `records` to `path` in `format`,
/// creating parent directories as needed. Returns the number of records
/// written. This is the recorder that makes campaigns replayable from
/// disk: point it at any `workloads` generator (synthetic or attack).
///
/// The file appears atomically (written to a temporary sibling, then
/// renamed into place), so a process killed mid-recording never leaves a
/// torn trace behind for the trace-reuse check to trust.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn record_trace_file(
    path: &Path,
    format: TraceFormat,
    records: impl IntoIterator<Item = TraceRecord>,
    limit: u64,
) -> io::Result<u64> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let staging = crate::artifacts::staging_path(path);
    let mut writer = TraceWriter::new(BufWriter::new(File::create(&staging)?), format)?;
    for record in records.into_iter().take(limit as usize) {
        writer.write(&record)?;
    }
    let written = writer.written();
    writer.finish()?;
    std::fs::rename(&staging, path)?;
    Ok(written)
}

/// An in-memory trace replayed in an endless loop — the replay form of
/// periodic attacker traces: a file holding exactly one period (or any
/// whole multiple) looped forever reproduces the generator bit for bit.
#[derive(Debug, Clone)]
pub struct LoopedTrace {
    records: Vec<TraceRecord>,
    cursor: usize,
}

impl LoopedTrace {
    /// Wraps `records` for cyclic replay.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty (an empty loop has no meaningful
    /// iteration).
    pub fn new(records: Vec<TraceRecord>) -> Self {
        assert!(!records.is_empty(), "cannot loop an empty trace");
        Self { records, cursor: 0 }
    }
}

impl Iterator for LoopedTrace {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        let record = self.records[self.cursor];
        self.cursor = (self.cursor + 1) % self.records.len();
        Some(record)
    }
}

/// Where a replayed thread's records come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSource {
    /// Path of the trace file.
    pub path: PathBuf,
    /// Replay the file in an endless loop (attacker traces) instead of
    /// once through (benign traces).
    pub repeat: bool,
}

impl TraceSource {
    /// Loads the file and builds the thread's trace iterator.
    ///
    /// # Errors
    ///
    /// Propagates load errors (I/O or malformed records), and returns
    /// [`TraceError::EmptyLoop`] for an empty file with `repeat` set.
    pub fn build(&self) -> Result<sim::BoxedTrace, TraceError> {
        let records = load_trace_file(&self.path)?;
        Ok(if self.repeat {
            if records.is_empty() {
                return Err(TraceError::EmptyLoop {
                    path: self.path.clone(),
                });
            }
            Box::new(LoopedTrace::new(records))
        } else {
            Box::new(records.into_iter())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord::load(17, 0x1234_5678),
            TraceRecord::store(0, 64),
            TraceRecord::uncached_load(3, u64::MAX),
            TraceRecord::uncached_store(u32::MAX, 0),
        ]
    }

    #[test]
    fn empty_text_line_is_a_parse_error_not_a_panic() {
        let result = parse_text_line("", 7);
        match result {
            Err(TraceError::Parse { line, .. }) => assert_eq!(line, 7),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    fn round_trip(format: TraceFormat) -> Vec<TraceRecord> {
        let mut writer = TraceWriter::new(Vec::new(), format).unwrap();
        for record in sample_records() {
            writer.write(&record).unwrap();
        }
        let bytes = writer.finish().unwrap();
        TraceReader::new(bytes.as_slice(), format)
            .collect::<Result<Vec<_>, _>>()
            .unwrap()
    }

    #[test]
    fn text_round_trips() {
        assert_eq!(round_trip(TraceFormat::Text), sample_records());
    }

    #[test]
    fn binary_round_trips() {
        assert_eq!(round_trip(TraceFormat::Binary), sample_records());
    }

    #[test]
    fn plain_ramulator_lines_parse() {
        let text = "12 8192\n# comment\n\n3 0x2000\n";
        let records: Vec<_> = TraceReader::new(text.as_bytes(), TraceFormat::Text)
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert_eq!(
            records,
            vec![TraceRecord::load(12, 8192), TraceRecord::load(3, 0x2000)]
        );
    }

    #[test]
    fn malformed_text_reports_the_line_number() {
        let text = "1 0x40\n\n# ok\nnot-a-count 0x40\n";
        let results: Vec<_> = TraceReader::new(text.as_bytes(), TraceFormat::Text).collect();
        assert!(results[0].is_ok());
        match &results[1] {
            Err(TraceError::Parse { line, .. }) => assert_eq!(*line, 4),
            other => panic!("expected a parse error, got {other:?}"),
        }
        // A reader that errored stops instead of resynchronizing.
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn bad_flags_and_trailing_tokens_are_rejected() {
        for bad in ["1 0x40 X", "1 0x40 W extra", "1", "1 zz"] {
            let results: Vec<_> = TraceReader::new(bad.as_bytes(), TraceFormat::Text).collect();
            assert!(
                matches!(results[0], Err(TraceError::Parse { line: 1, .. })),
                "`{bad}` should fail to parse"
            );
        }
    }

    #[test]
    fn binary_detects_corruption() {
        // Bad magic.
        let results: Vec<_> = TraceReader::new(&b"NOPE\x01"[..], TraceFormat::Binary).collect();
        assert!(matches!(results[0], Err(TraceError::Corrupt { .. })));
        // Truncated payload.
        let mut writer = TraceWriter::new(Vec::new(), TraceFormat::Binary).unwrap();
        writer.write(&TraceRecord::load(5, 0x40)).unwrap();
        let mut bytes = writer.finish().unwrap();
        bytes.truncate(bytes.len() - 1);
        let results: Vec<_> = TraceReader::new(bytes.as_slice(), TraceFormat::Binary).collect();
        assert!(matches!(
            results[0],
            Err(TraceError::Corrupt { record: 0, .. })
        ));
        // Unknown flag bits.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&BINARY_MAGIC);
        bytes.push(BINARY_VERSION);
        bytes.extend_from_slice(&[3, 0b100, 0, 0]);
        let results: Vec<_> = TraceReader::new(bytes.as_slice(), TraceFormat::Binary).collect();
        assert!(matches!(
            results[0],
            Err(TraceError::Corrupt { record: 0, .. })
        ));
    }

    #[test]
    fn binary_is_more_compact_than_text() {
        let records: Vec<TraceRecord> = (0..1000)
            .map(|i| TraceRecord::load(50, 0x4000 + i * 64))
            .collect();
        let encode = |format| {
            let mut writer = TraceWriter::new(Vec::new(), format).unwrap();
            for r in &records {
                writer.write(r).unwrap();
            }
            writer.finish().unwrap().len()
        };
        assert!(encode(TraceFormat::Binary) < encode(TraceFormat::Text));
    }

    #[test]
    fn looped_trace_cycles() {
        let records = vec![TraceRecord::load(0, 0x40), TraceRecord::load(0, 0x80)];
        let looped: Vec<_> = LoopedTrace::new(records.clone()).take(5).collect();
        assert_eq!(
            looped,
            vec![records[0], records[1], records[0], records[1], records[0]]
        );
    }

    #[test]
    fn varints_round_trip_boundaries() {
        for value in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = [0u8; 10];
            let n = write_varint(&mut buf, value);
            let mut cursor = 0;
            assert_eq!(read_varint(&buf[..n], &mut cursor), Ok(value));
            assert_eq!(cursor, n);
        }
    }
}
