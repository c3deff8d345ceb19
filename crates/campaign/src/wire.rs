//! Wire formats for campaign-as-a-service: JSON campaign specs and
//! NDJSON result records.
//!
//! The campaign server (`crates/server`) accepts [`CampaignSpec`]s over
//! HTTP and streams per-run results back, so both directions need a
//! textual encoding whose round-trip is *exact*: a spec serialized with
//! [`spec_to_json`] and parsed back with [`spec_from_json`] must compare
//! equal and — the property resume correctness hangs on — produce the
//! same [`checkpoint::fingerprint`](crate::checkpoint::fingerprint), or
//! a submitted campaign could silently resume a different sweep's
//! journal. `tests/tests/spec_wire.rs` pins the round-trip by property.
//!
//! The parser ([`parse_json`]) is deliberately strict where general JSON
//! parsers are lenient: duplicate object keys, unknown spec fields,
//! numbers that overflow their target type, and trailing input are all
//! hard errors — a campaign spec is an experiment description, and the
//! server must refuse anything it would have to guess about. No external
//! dependencies: like the repo's trace and journal codecs, the format is
//! hand-rolled on `std`.

use crate::checkpoint::JournalEntry;
use crate::runner::{FailedRun, RunOutcome, ThreadOutcome};
use crate::spec::{CampaignSpec, RunScale, Scenario};
use sim::{AdvanceMode, DefenseKind};
use std::fmt;

pub(crate) use crate::aggregate::escape_json;

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, and control characters) — the same escaping every JSON
/// artifact in this crate uses, exported for the campaign server's
/// status documents.
pub fn escape(s: &str) -> String {
    escape_json(s)
}

/// Upper bound on a campaign name accepted over the wire (bytes).
pub const MAX_NAME_BYTES: usize = 256;
/// Upper bound on each sweep axis accepted over the wire (points).
pub const MAX_AXIS_POINTS: usize = 64;
/// Upper bound on `mix_count` accepted over the wire.
pub const MAX_MIX_COUNT: usize = 4096;
/// Upper bound on `threads_per_mix` accepted over the wire.
pub const MAX_THREADS_PER_MIX: usize = 64;
/// Upper bound on `channel` axis values accepted over the wire.
pub const MAX_CHANNELS: usize = 16;
/// Nesting depth bound of the JSON parser (a spec is three levels deep).
const MAX_DEPTH: usize = 16;

/// Why a wire payload was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What was wrong with it.
    pub message: String,
}

impl WireError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// JSON values and the strict parser
// ---------------------------------------------------------------------------

/// A parsed JSON value. Integers that fit `u64` parse as [`Json::UInt`];
/// every other number (negative, fractional, exponent) parses as
/// [`Json::Float`] — so integer-typed spec fields reject `2.0` and `-2`
/// for free. Objects preserve key order and refuse duplicate keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`.
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, keys in source order (duplicates rejected at parse).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(v) => Some(v),
            _ => None,
        }
    }

    /// The value's elements, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value's members, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }

    /// What kind of value this is, for error messages.
    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "a boolean",
            Json::UInt(_) => "an integer",
            Json::Float(_) => "a number",
            Json::Str(_) => "a string",
            Json::Array(_) => "an array",
            Json::Object(_) => "an object",
        }
    }
}

/// Parses a complete JSON document. Exactly one value, nothing trailing;
/// duplicate object keys and unescaped control characters are errors.
///
/// # Errors
///
/// [`WireError`] describing the first offence, with its byte offset.
pub fn parse_json(text: &str) -> Result<Json, WireError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    parser.skip_ws();
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.at != parser.bytes.len() {
        return Err(parser.fail("trailing content after the JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn fail(&self, message: impl fmt::Display) -> WireError {
        WireError::new(format!("at byte {}: {message}", self.at))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    /// Consumes `literal` or reports what was found instead.
    fn eat(&mut self, literal: &str) -> Result<(), WireError> {
        let end = self.at + literal.len();
        if self.bytes.get(self.at..end) == Some(literal.as_bytes()) {
            self.at = end;
            Ok(())
        } else {
            Err(self.fail(format!("expected `{literal}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, WireError> {
        if depth > MAX_DEPTH {
            return Err(self.fail("nesting deeper than a campaign spec can be"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(other) => Err(self.fail(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.fail("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, WireError> {
        self.at += 1; // past '{'
        let mut members: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.fail("expected a string key"));
            }
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.fail(format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            self.eat(":")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.fail("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, WireError> {
        self.at += 1; // past '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.fail("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.at += 1; // past opening '"'
        let mut out: Vec<u8> = Vec::new();
        loop {
            match self.peek() {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out)
                        .map_err(|_| self.fail("string decodes to invalid UTF-8"));
                }
                Some(b'\\') => {
                    self.at += 1;
                    self.escape(&mut out)?;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.fail("unescaped control character in string"));
                }
                Some(c) => {
                    // Multi-byte UTF-8 sequences pass through raw: the
                    // input is a `&str`, so they are already valid.
                    out.push(c);
                    self.at += 1;
                }
            }
        }
    }

    /// Decodes one escape sequence (cursor just past the backslash).
    fn escape(&mut self, out: &mut Vec<u8>) -> Result<(), WireError> {
        let Some(code) = self.peek() else {
            return Err(self.fail("dangling escape at end of input"));
        };
        self.at += 1;
        match code {
            b'"' => out.push(b'"'),
            b'\\' => out.push(b'\\'),
            b'/' => out.push(b'/'),
            b'b' => out.push(0x08),
            b'f' => out.push(0x0c),
            b'n' => out.push(b'\n'),
            b'r' => out.push(b'\r'),
            b't' => out.push(b'\t'),
            b'u' => {
                let unit = self.hex4()?;
                let scalar = if (0xD800..=0xDBFF).contains(&unit) {
                    // A high surrogate must be chased by an escaped low
                    // surrogate; the pair combines into one scalar.
                    self.eat("\\u")
                        .map_err(|_| self.fail("high surrogate without a low surrogate"))?;
                    let low = self.hex4()?;
                    if !(0xDC00..=0xDFFF).contains(&low) {
                        return Err(self.fail("invalid low surrogate"));
                    }
                    0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                } else if (0xDC00..=0xDFFF).contains(&unit) {
                    return Err(self.fail("unpaired low surrogate"));
                } else {
                    unit
                };
                let c = char::from_u32(scalar)
                    .ok_or_else(|| self.fail("escape is not a Unicode scalar"))?;
                let mut buf = [0u8; 4];
                out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
            }
            other => return Err(self.fail(format!("unknown escape `\\{}`", other as char))),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, WireError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|c| (c as char).to_digit(16))
                .ok_or_else(|| self.fail("expected four hex digits after \\u"))?;
            value = value * 16 + digit;
            self.at += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, WireError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        // Integer part: `0` alone, or a nonzero-leading digit run.
        match self.peek() {
            Some(b'0') => {
                self.at += 1;
                if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    return Err(self.fail("numbers must not have leading zeros"));
                }
            }
            Some(c) if c.is_ascii_digit() => {
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.at += 1;
                }
            }
            _ => return Err(self.fail("expected a digit")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.at += 1;
            if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(self.fail("expected digits after the decimal point"));
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(self.fail("expected digits in the exponent"));
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        let literal = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|_| self.fail("number literal is not UTF-8"))?;
        if integral && !literal.starts_with('-') {
            return literal
                .parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| self.fail(format!("integer `{literal}` overflows u64")));
        }
        literal
            .parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.fail(format!("`{literal}` is not a number")))
    }
}

// ---------------------------------------------------------------------------
// CampaignSpec <-> JSON
// ---------------------------------------------------------------------------

/// Stable wire label of an [`AdvanceMode`].
fn advance_label(advance: AdvanceMode) -> &'static str {
    match advance {
        AdvanceMode::Lockstep => "lockstep",
        AdvanceMode::EventDriven => "event-driven",
    }
}

/// Inverse of [`advance_label`].
fn advance_from_label(label: &str) -> Option<AdvanceMode> {
    match label {
        "lockstep" => Some(AdvanceMode::Lockstep),
        "event-driven" => Some(AdvanceMode::EventDriven),
        _ => None,
    }
}

/// Serializes a campaign spec to its canonical one-line JSON encoding —
/// the exact inverse of [`spec_from_json`] for every spec the server
/// would accept.
pub fn spec_to_json(spec: &CampaignSpec) -> String {
    let quoted = |labels: Vec<String>| -> String {
        let mut out = String::new();
        for (i, label) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape_json(label));
            out.push('"');
        }
        out
    };
    let joined = |values: &[u64]| -> String {
        values
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        concat!(
            "{{\"name\":\"{name}\",\"mix_count\":{mixes},",
            "\"threads_per_mix\":{threads},\"scenarios\":[{scenarios}],",
            "\"defenses\":[{defenses}],\"n_rh_points\":[{nrh}],",
            "\"channel_counts\":[{channels}],\"scale\":{{",
            "\"time_scale\":{time_scale},",
            "\"benign_instructions\":{benign_instructions},",
            "\"llc_bytes\":{llc_bytes},\"min_cycles\":{min_cycles},",
            "\"max_cycles\":{max_cycles},\"advance\":\"{advance}\"}},",
            "\"seed\":{seed},\"normalize\":{normalize}}}"
        ),
        name = escape_json(&spec.name),
        mixes = spec.mix_count,
        threads = spec.threads_per_mix,
        scenarios = quoted(spec.scenarios.iter().map(Scenario::label).collect()),
        defenses = quoted(spec.defenses.iter().map(|d| d.label().to_owned()).collect()),
        nrh = joined(&spec.n_rh_points),
        channels = joined(
            &spec
                .channel_counts
                .iter()
                .map(|&c| c as u64)
                .collect::<Vec<_>>()
        ),
        time_scale = spec.scale.time_scale,
        benign_instructions = spec.scale.benign_instructions,
        llc_bytes = spec.scale.llc_bytes,
        min_cycles = spec.scale.min_cycles,
        max_cycles = spec.scale.max_cycles,
        advance = advance_label(spec.scale.advance),
        seed = spec.seed,
        normalize = spec.normalize,
    )
}

/// A field cursor over one JSON object that insists every member is
/// consumed exactly once: unknown and missing fields are both errors.
struct Fields<'a> {
    context: &'static str,
    members: &'a [(String, Json)],
    taken: Vec<bool>,
}

impl<'a> Fields<'a> {
    fn over(value: &'a Json, context: &'static str) -> Result<Self, WireError> {
        let members = value
            .as_object()
            .ok_or_else(|| WireError::new(format!("{context} must be an object")))?;
        Ok(Self {
            context,
            members,
            taken: vec![false; members.len()],
        })
    }

    fn take(&mut self, key: &str) -> Result<&'a Json, WireError> {
        let members = self.members;
        if let Some(i) = members.iter().position(|(k, _)| k == key) {
            self.taken[i] = true;
            return Ok(&members[i].1);
        }
        Err(WireError::new(format!(
            "{} is missing required field `{key}`",
            self.context
        )))
    }

    /// Fails on any member no `take` consumed.
    fn finish(self) -> Result<(), WireError> {
        for (i, (key, _)) in self.members.iter().enumerate() {
            if !self.taken[i] {
                return Err(WireError::new(format!(
                    "{} has unknown field `{key}`",
                    self.context
                )));
            }
        }
        Ok(())
    }
}

/// `value` as a `u64` within `[min, max]`, named `what` in errors.
fn bounded_u64(value: &Json, what: &str, min: u64, max: u64) -> Result<u64, WireError> {
    let v = value.as_u64().ok_or_else(|| {
        WireError::new(format!("`{what}` must be an integer, got {}", value.kind()))
    })?;
    if v < min || v > max {
        return Err(WireError::new(format!(
            "`{what}` must be in {min}..={max}, got {v}"
        )));
    }
    Ok(v)
}

/// `value` as a non-empty label array of at most [`MAX_AXIS_POINTS`],
/// each element mapped through `parse` (which reports bad labels).
fn axis<T>(
    value: &Json,
    what: &str,
    parse: impl Fn(&str) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let items = value
        .as_array()
        .ok_or_else(|| WireError::new(format!("`{what}` must be an array")))?;
    if items.is_empty() || items.len() > MAX_AXIS_POINTS {
        return Err(WireError::new(format!(
            "`{what}` must have 1..={MAX_AXIS_POINTS} points, got {}",
            items.len()
        )));
    }
    items
        .iter()
        .map(|item| {
            let label = item.as_str().ok_or_else(|| {
                WireError::new(format!(
                    "`{what}` entries must be strings, got {}",
                    item.kind()
                ))
            })?;
            parse(label)
        })
        .collect()
}

/// `value` as a non-empty integer array of at most [`MAX_AXIS_POINTS`],
/// each element within `[min, max]`.
fn numeric_axis(value: &Json, what: &str, min: u64, max: u64) -> Result<Vec<u64>, WireError> {
    let items = value
        .as_array()
        .ok_or_else(|| WireError::new(format!("`{what}` must be an array")))?;
    if items.is_empty() || items.len() > MAX_AXIS_POINTS {
        return Err(WireError::new(format!(
            "`{what}` must have 1..={MAX_AXIS_POINTS} points, got {}",
            items.len()
        )));
    }
    items
        .iter()
        .map(|item| bounded_u64(item, what, min, max))
        .collect()
}

/// Parses and validates a campaign spec from its JSON encoding.
///
/// Beyond shape (exact field sets, correct types), this enforces the
/// server's admission bounds: name length, axis sizes, `mix_count`,
/// `threads_per_mix` (at least two when any scenario carries an
/// attacker — [`CampaignSpec::expand`] would panic otherwise), channel
/// counts, and a non-zero `time_scale`. A spec that parses here expands
/// without panicking.
///
/// # Errors
///
/// [`WireError`] naming the first offending field.
pub fn spec_from_json(text: &str) -> Result<CampaignSpec, WireError> {
    let root = parse_json(text)?;
    let mut fields = Fields::over(&root, "the campaign spec")?;

    let name = fields
        .take("name")?
        .as_str()
        .ok_or_else(|| WireError::new("`name` must be a string"))?
        .to_owned();
    if name.is_empty() || name.len() > MAX_NAME_BYTES {
        return Err(WireError::new(format!(
            "`name` must be 1..={MAX_NAME_BYTES} bytes, got {}",
            name.len()
        )));
    }
    let mix_count = bounded_u64(
        fields.take("mix_count")?,
        "mix_count",
        1,
        MAX_MIX_COUNT as u64,
    )? as usize;
    let threads_per_mix = bounded_u64(
        fields.take("threads_per_mix")?,
        "threads_per_mix",
        1,
        MAX_THREADS_PER_MIX as u64,
    )? as usize;
    let scenarios = axis(fields.take("scenarios")?, "scenarios", |label| {
        Scenario::from_label(label)
            .ok_or_else(|| WireError::new(format!("unknown scenario label `{label}`")))
    })?;
    let defenses = axis(fields.take("defenses")?, "defenses", |label| {
        DefenseKind::from_label(label)
            .ok_or_else(|| WireError::new(format!("unknown defense label `{label}`")))
    })?;
    let n_rh_points = numeric_axis(fields.take("n_rh_points")?, "n_rh_points", 1, u64::MAX)?;
    let channel_counts: Vec<usize> = numeric_axis(
        fields.take("channel_counts")?,
        "channel_counts",
        1,
        MAX_CHANNELS as u64,
    )?
    .into_iter()
    .map(|c| c as usize)
    .collect();

    let mut scale_fields = Fields::over(fields.take("scale")?, "`scale`")?;
    let scale = RunScale {
        time_scale: bounded_u64(scale_fields.take("time_scale")?, "time_scale", 1, u64::MAX)?,
        benign_instructions: bounded_u64(
            scale_fields.take("benign_instructions")?,
            "benign_instructions",
            1,
            u64::MAX,
        )?,
        llc_bytes: bounded_u64(scale_fields.take("llc_bytes")?, "llc_bytes", 1, u64::MAX)?,
        min_cycles: bounded_u64(scale_fields.take("min_cycles")?, "min_cycles", 0, u64::MAX)?,
        max_cycles: bounded_u64(scale_fields.take("max_cycles")?, "max_cycles", 1, u64::MAX)?,
        advance: {
            let label = scale_fields
                .take("advance")?
                .as_str()
                .ok_or_else(|| WireError::new("`advance` must be a string"))?;
            advance_from_label(label).ok_or_else(|| {
                WireError::new(format!(
                    "`advance` must be `lockstep` or `event-driven`, got `{label}`"
                ))
            })?
        },
    };
    scale_fields.finish()?;
    if scale.max_cycles < scale.min_cycles {
        return Err(WireError::new(format!(
            "`max_cycles` ({}) must be at least `min_cycles` ({})",
            scale.max_cycles, scale.min_cycles
        )));
    }

    let seed = bounded_u64(fields.take("seed")?, "seed", 0, u64::MAX)?;
    let normalize = fields
        .take("normalize")?
        .as_bool()
        .ok_or_else(|| WireError::new("`normalize` must be a boolean"))?;
    fields.finish()?;

    let has_attack = scenarios.iter().any(|s| matches!(s, Scenario::Attack(_)));
    if has_attack && threads_per_mix < 2 {
        return Err(WireError::new(
            "attack scenarios need `threads_per_mix` >= 2 (one attacker plus victims)",
        ));
    }

    Ok(CampaignSpec {
        name,
        mix_count,
        threads_per_mix,
        scenarios,
        defenses,
        n_rh_points,
        channel_counts,
        scale,
        seed,
        normalize,
    })
}

// ---------------------------------------------------------------------------
// JournalEntry -> NDJSON
// ---------------------------------------------------------------------------

/// A finite float as a JSON number; NaN/infinity (which JSON cannot
/// carry) as `null`.
fn json_f64(value: f64) -> String {
    if value.is_finite() {
        value.to_string()
    } else {
        "null".to_owned()
    }
}

fn thread_to_json(thread: &ThreadOutcome) -> String {
    format!(
        concat!(
            "{{\"name\":\"{}\",\"is_attacker\":{},\"instructions\":{},",
            "\"cycles\":{},\"ipc\":{},\"max_rhli\":{},\"memory_requests\":{}}}"
        ),
        escape_json(&thread.name),
        thread.is_attacker,
        thread.instructions,
        thread.cycles,
        json_f64(thread.ipc),
        json_f64(thread.max_rhli),
        thread.memory_requests,
    )
}

fn outcome_to_json(o: &RunOutcome) -> String {
    let threads = o
        .threads
        .iter()
        .map(thread_to_json)
        .collect::<Vec<_>>()
        .join(",");
    let metrics = match &o.metrics {
        None => "null".to_owned(),
        Some(m) => format!(
            concat!(
                "{{\"weighted_speedup\":{},\"harmonic_speedup\":{},",
                "\"max_slowdown\":{},\"dram_energy_joules\":{}}}"
            ),
            json_f64(m.weighted_speedup),
            json_f64(m.harmonic_speedup),
            json_f64(m.max_slowdown),
            json_f64(m.dram_energy_joules),
        ),
    };
    format!(
        concat!(
            "{{\"type\":\"outcome\",\"index\":{},\"name\":\"{}\",",
            "\"scenario\":\"{}\",\"defense\":\"{}\",\"n_rh\":{},",
            "\"channels\":{},\"total_cycles\":{},\"activations\":{},",
            "\"dram_energy_j\":{},\"threads\":[{}],\"metrics\":{},",
            "\"stepping\":{{\"cycles_simulated\":{},\"cycles_skipped\":{},",
            "\"events_processed\":{},\"largest_jump\":{}}}}}"
        ),
        o.index,
        escape_json(&o.name),
        escape_json(&o.scenario),
        escape_json(&o.defense),
        o.n_rh,
        o.channels,
        o.total_cycles,
        o.activations,
        json_f64(o.dram_energy_j),
        threads,
        metrics,
        o.stepping.cycles_simulated,
        o.stepping.cycles_skipped,
        o.stepping.events_processed,
        o.stepping.largest_jump,
    )
}

fn failure_to_json(f: &FailedRun) -> String {
    format!(
        concat!(
            "{{\"type\":\"failure\",\"index\":{},\"name\":\"{}\",",
            "\"scenario\":\"{}\",\"defense\":\"{}\",\"n_rh\":{},",
            "\"channels\":{},\"attempts\":{},\"cause\":\"{}\"}}"
        ),
        f.index,
        escape_json(&f.name),
        escape_json(&f.scenario),
        escape_json(&f.defense),
        f.n_rh,
        f.channels,
        f.attempts,
        escape_json(&f.cause),
    )
}

/// One journal entry as a single NDJSON line (no trailing newline):
/// `{"type":"outcome",...}` for completed runs, `{"type":"failure",...}`
/// for quarantined ones, fields mirroring the binary journal's encode
/// order. This is the record format the campaign server streams to
/// clients, so its bytes are part of the service contract: identical
/// entries always render identical lines.
pub fn entry_to_ndjson(entry: &JournalEntry) -> String {
    match entry {
        JournalEntry::Outcome(outcome) => outcome_to_json(outcome),
        JournalEntry::Failure(failure) => failure_to_json(failure),
    }
}

/// One-line JSON rendering of [`ExecutionStats`](crate::ExecutionStats) — the scheduling
/// fragment the server embeds in its status documents. The scheduler
/// label needs no escaping (it is one of three fixed identifiers), so
/// the whole document is assembled by formatting, like the NDJSON
/// records above.
pub fn scheduling_json(stats: &crate::ExecutionStats) -> String {
    let mut workers = String::new();
    for (i, worker) in stats.workers.iter().enumerate() {
        if i > 0 {
            workers.push(',');
        }
        workers.push_str(&format!(
            "{{\"jobs\":{},\"steals\":{},\"busy_us\":{}}}",
            worker.jobs,
            worker.steals,
            worker.busy.as_micros()
        ));
    }
    format!(
        "{{\"scheduler\":\"{}\",\"reorder_high_water\":{},\"prelude\":{{\"references\":{},\
         \"computed\":{},\"from_cache\":{}}},\"workers\":[{workers}]}}",
        stats.scheduler,
        stats.reorder_high_water,
        stats.prelude.references,
        stats.prelude.computed,
        stats.prelude.from_cache,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::fingerprint;
    use sim::{MultiProgramMetrics, SteppingStats};
    use workloads::AttackKind;

    #[test]
    fn canonical_specs_round_trip_with_equal_fingerprints() {
        for spec in [
            CampaignSpec::smoke(),
            CampaignSpec::quick(3),
            CampaignSpec::paper(),
        ] {
            let json = spec_to_json(&spec);
            let back = spec_from_json(&json).expect("canonical spec parses");
            assert_eq!(back, spec);
            assert_eq!(fingerprint(&back), fingerprint(&spec));
        }
    }

    #[test]
    fn spec_with_every_label_variant_round_trips() {
        let mut spec = CampaignSpec::smoke();
        spec.name = "wire \"quoted\\\" \n\t — campaign".to_owned();
        spec.scenarios = vec![
            Scenario::BenignOnly,
            Scenario::Attack(AttackKind::DoubleSided),
            Scenario::Attack(AttackKind::SingleSided),
            Scenario::Attack(AttackKind::ManySided { sides: 9 }),
        ];
        spec.defenses = vec![
            DefenseKind::Baseline,
            DefenseKind::Para,
            DefenseKind::ProHit,
            DefenseKind::MrLoc,
            DefenseKind::Cbt,
            DefenseKind::TwiCe,
            DefenseKind::Graphene,
            DefenseKind::BlockHammer,
            DefenseKind::BlockHammerObserve,
        ];
        spec.scale.advance = AdvanceMode::Lockstep;
        spec.normalize = false;
        let back = spec_from_json(&spec_to_json(&spec)).expect("parses");
        assert_eq!(back, spec);
        assert_eq!(fingerprint(&back), fingerprint(&spec));
    }

    #[test]
    fn malformed_specs_are_refused_with_named_fields() {
        let base = spec_to_json(&CampaignSpec::smoke());
        let cases: Vec<(String, &str)> = vec![
            (
                base.replace("\"mix_count\":2", "\"mix_count\":0"),
                "mix_count",
            ),
            (
                base.replace("\"mix_count\":2", "\"mix_count\":2.0"),
                "mix_count",
            ),
            (base.replace("\"seed\":7", "\"seed\":-7"), "seed"),
            (
                base.replace(
                    "\"scenarios\":[\"no-attack\",\"attack\"]",
                    "\"scenarios\":[]",
                ),
                "scenarios",
            ),
            (
                base.replace("\"Baseline\"", "\"baseline\""),
                "defense label",
            ),
            (
                base.replace("\"no-attack\"", "\"benign\""),
                "scenario label",
            ),
            (
                base.replace("\"channel_counts\":[1]", "\"channel_counts\":[17]"),
                "channel_counts",
            ),
            (
                base.replace("\"normalize\":true", "\"normalize\":true,\"extra\":1"),
                "unknown field",
            ),
            (
                base.replace("\"normalize\":true", "\"normalize\":null"),
                "normalize",
            ),
            (
                base.replace("\"advance\":\"event-driven\"", "\"advance\":\"warp\""),
                "advance",
            ),
            (
                base.replace("\"time_scale\":8192", "\"time_scale\":0"),
                "time_scale",
            ),
            (format!("{base} trailing"), "trailing"),
        ];
        for (mutated, expect) in cases {
            assert_ne!(mutated, base, "the mutation must apply ({expect})");
            let error = spec_from_json(&mutated).expect_err(expect);
            assert!(
                error.message.contains(expect)
                    || error.message.contains("unknown")
                    || error.message.contains("trailing"),
                "error for `{expect}` says: {}",
                error.message
            );
        }
    }

    #[test]
    fn missing_and_duplicate_fields_are_refused() {
        let base = spec_to_json(&CampaignSpec::smoke());
        let missing = base.replace("\"seed\":7,", "");
        assert!(spec_from_json(&missing)
            .expect_err("missing field")
            .message
            .contains("seed"));
        let duplicate = base.replace("\"seed\":7", "\"seed\":7,\"seed\":8");
        assert!(spec_from_json(&duplicate)
            .expect_err("duplicate key")
            .message
            .contains("duplicate"));
    }

    #[test]
    fn attack_scenarios_require_two_threads() {
        let mut spec = CampaignSpec::smoke();
        spec.threads_per_mix = 1;
        let error = spec_from_json(&spec_to_json(&spec)).expect_err("refused");
        assert!(error.message.contains("threads_per_mix"));
        // Benign-only campaigns may run single-threaded.
        spec.scenarios = vec![Scenario::BenignOnly];
        assert!(spec_from_json(&spec_to_json(&spec)).is_ok());
    }

    #[test]
    fn parser_is_strict_json() {
        assert!(parse_json("{\"a\":1}").is_ok());
        assert!(parse_json("{\"a\":1,\"a\":2}").is_err(), "duplicate keys");
        assert!(parse_json("{\"a\":01}").is_err(), "leading zeros");
        assert!(parse_json("[1,]").is_err(), "trailing comma");
        assert!(parse_json("\"\u{1}\"").is_err(), "raw control char");
        assert!(parse_json("123 456").is_err(), "trailing content");
        assert!(
            parse_json("99999999999999999999999999").is_err(),
            "u64 overflow"
        );
        assert_eq!(parse_json("-2"), Ok(Json::Float(-2.0)));
        assert_eq!(parse_json("2.5"), Ok(Json::Float(2.5)));
        assert_eq!(parse_json("1e3"), Ok(Json::Float(1000.0)));
        assert_eq!(
            parse_json("\"\\u00e9\\ud83d\\ude00\\\\\\\"\\n\""),
            Ok(Json::Str("é😀\\\"\n".to_owned()))
        );
        assert!(parse_json("\"\\ud83d\"").is_err(), "lone high surrogate");
        assert!(parse_json("\"\\ude00\"").is_err(), "lone low surrogate");
        let deep = format!("{}1{}", "[".repeat(40), "]".repeat(40));
        assert!(parse_json(&deep).is_err(), "depth bound");
    }

    fn sample_outcome() -> RunOutcome {
        RunOutcome {
            index: 3,
            name: "mix-001/BlockHammer/nrh32768/ch1".to_owned(),
            scenario: "attack".to_owned(),
            defense: "BlockHammer".to_owned(),
            n_rh: 32_768,
            channels: 1,
            total_cycles: 123_456,
            activations: 789,
            dram_energy_j: 0.25,
            threads: vec![ThreadOutcome {
                name: "attacker.double_sided".to_owned(),
                is_attacker: true,
                instructions: 10,
                cycles: 20,
                ipc: 0.5,
                max_rhli: 1.25,
                memory_requests: 30,
            }],
            metrics: Some(MultiProgramMetrics {
                weighted_speedup: 0.875,
                harmonic_speedup: 0.75,
                max_slowdown: 2.5,
                dram_energy_joules: 0.25,
            }),
            stepping: SteppingStats {
                cycles_simulated: 100,
                cycles_skipped: 50,
                events_processed: 7,
                largest_jump: 12,
            },
        }
    }

    #[test]
    fn ndjson_records_are_single_parseable_lines() {
        let outcome = JournalEntry::Outcome(sample_outcome());
        let line = entry_to_ndjson(&outcome);
        assert!(!line.contains('\n'), "one record, one line");
        let parsed = parse_json(&line).expect("outcome line is valid JSON");
        assert_eq!(parsed.get("type").and_then(Json::as_str), Some("outcome"));
        assert_eq!(parsed.get("index").and_then(Json::as_u64), Some(3));
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("max_slowdown").cloned()),
            Some(Json::Float(2.5))
        );
        assert_eq!(
            parsed
                .get("threads")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(1)
        );

        let failure = JournalEntry::Failure(FailedRun {
            index: 4,
            name: "mix-002/Para/nrh32768/ch1".to_owned(),
            scenario: "attack".to_owned(),
            defense: "Para".to_owned(),
            n_rh: 32_768,
            channels: 1,
            attempts: 2,
            cause: "panicked: \"quoted\"\ncause".to_owned(),
        });
        let line = entry_to_ndjson(&failure);
        assert!(!line.contains('\n'));
        let parsed = parse_json(&line).expect("failure line is valid JSON");
        assert_eq!(parsed.get("type").and_then(Json::as_str), Some("failure"));
        assert_eq!(parsed.get("attempts").and_then(Json::as_u64), Some(2));
        assert_eq!(
            parsed.get("cause").and_then(Json::as_str),
            Some("panicked: \"quoted\"\ncause")
        );
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let mut outcome = sample_outcome();
        outcome.threads[0].ipc = f64::NAN;
        outcome.metrics = None;
        let line = entry_to_ndjson(&JournalEntry::Outcome(outcome));
        let parsed = parse_json(&line).expect("line stays valid JSON");
        let thread = parsed
            .get("threads")
            .and_then(Json::as_array)
            .map(|t| &t[0]);
        assert_eq!(thread.and_then(|t| t.get("ipc").cloned()), Some(Json::Null));
        assert_eq!(parsed.get("metrics").cloned(), Some(Json::Null));
    }

    #[test]
    fn identical_entries_render_identical_bytes() {
        let entry = JournalEntry::Outcome(sample_outcome());
        assert_eq!(entry_to_ndjson(&entry), entry_to_ndjson(&entry.clone()));
    }

    #[test]
    fn scheduling_json_is_valid_and_carries_every_counter() {
        let mut stats = crate::ExecutionStats {
            scheduler: "stealing",
            reorder_high_water: 3,
            ..Default::default()
        };
        stats.prelude.references = 4;
        stats.prelude.from_cache = 4;
        stats.workers = vec![
            crate::WorkerSnapshot {
                jobs: 5,
                steals: 2,
                busy: std::time::Duration::from_micros(10_345),
            },
            crate::WorkerSnapshot::default(),
        ];
        let doc = scheduling_json(&stats);
        let parsed = parse_json(&doc).expect("scheduling document is valid JSON");
        assert_eq!(
            parsed.get("scheduler").and_then(Json::as_str),
            Some("stealing")
        );
        assert_eq!(
            parsed.get("reorder_high_water").and_then(Json::as_u64),
            Some(3)
        );
        let prelude = parsed.get("prelude").expect("prelude object");
        assert_eq!(prelude.get("references").and_then(Json::as_u64), Some(4));
        assert_eq!(prelude.get("computed").and_then(Json::as_u64), Some(0));
        assert_eq!(prelude.get("from_cache").and_then(Json::as_u64), Some(4));
        let workers = parsed
            .get("workers")
            .and_then(Json::as_array)
            .expect("workers array");
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[0].get("jobs").and_then(Json::as_u64), Some(5));
        assert_eq!(workers[0].get("steals").and_then(Json::as_u64), Some(2));
        assert_eq!(
            workers[0].get("busy_us").and_then(Json::as_u64),
            Some(10_345)
        );
    }
}
