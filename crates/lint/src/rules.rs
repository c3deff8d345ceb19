//! The rule engine: what `bh-lint` checks and how findings are reported
//! and suppressed.
//!
//! Every rule is a token-pattern check over [scrubbed](crate::lexer)
//! source — comments and literal contents can never match. Rules that
//! only govern product behaviour skip `#[cfg(test)]`/`mod tests`
//! regions. A finding on line N is suppressed by
//! `// lint: allow(<rule>) -- <justification>` on line N (trailing) or
//! alone on the nearest preceding marker line; the justification is
//! mandatory, and stale or malformed suppressions are themselves
//! findings, so an allow can never silently rot.

use crate::lexer::{self, Marker, Region, RegionKind, ScrubbedFile};
use std::fmt;

/// One rule violation (or suppression defect).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path of the offending file, workspace-relative where possible.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (see [`RULES`]).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} — {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A rule's identity and documentation, as printed by `--list-rules`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable identifier, the name used in `lint: allow(...)`.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// What exactly is banned, and where.
    pub detail: &'static str,
}

/// Rule identifiers.
pub const DETERMINISM: &str = "determinism";
/// See [`RULES`].
pub const ALLOC_FREE: &str = "alloc-free";
/// See [`RULES`].
pub const PANIC_FREEDOM: &str = "panic-freedom";
/// See [`RULES`].
pub const THREAD_DISCIPLINE: &str = "thread-discipline";
/// See [`RULES`].
pub const RECOVERY_DISCIPLINE: &str = "recovery-discipline";
/// See [`RULES`].
pub const HYGIENE: &str = "hygiene";
/// See [`RULES`].
pub const SUPPRESSION: &str = "suppression";

/// The rule table, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: DETERMINISM,
        summary: "no nondeterministic iteration or clocks in product code",
        detail: "HashMap/HashSet iteration (.iter/.iter_mut/.keys/.values/.values_mut/\
                 .drain/.into_iter/.retain, `for _ in &map`) is banned on identifiers \
                 the file declares with a hash type (HashMap, HashSet, or bh-types' \
                 FastMap and FastSet, whose fixed hasher still iterates in hash \
                 order); Instant::now and SystemTime are \
                 banned everywhere in product code; available_parallelism is allowed \
                 only in the worker-count default (campaign/src/executor.rs).",
    },
    RuleInfo {
        id: ALLOC_FREE,
        summary: "no allocation inside `// lint: alloc-free` regions",
        detail: "Within a marked block: Vec::new, vec![, format!, .to_string(, \
                 .to_owned(, Box::new, .collect(, .clone( are banned. Mark the hot \
                 functions of defense and scheduler crates.",
    },
    RuleInfo {
        id: PANIC_FREEDOM,
        summary: "no panicking escape hatches in product code",
        detail: ".unwrap(), .expect(, panic!, unreachable!, todo!, unimplemented! are \
                 banned outside test regions; convert to Result/debug_assert! or \
                 justify the invariant with an allow.",
    },
    RuleInfo {
        id: THREAD_DISCIPLINE,
        summary: "thread creation only at the sanctioned spawn sites",
        detail: "thread::spawn, thread::scope and thread::Builder are banned outside \
                 crates/sim/src/pool.rs (the work-stealing pool that runs whole \
                 simulations) and crates/server/src/serve.rs (the campaign server's \
                 accept/executor threads, which never touch simulated state \
                 directly).",
    },
    RuleInfo {
        id: RECOVERY_DISCIPLINE,
        summary: "unwind recovery only at the sanctioned isolation boundaries",
        detail: "catch_unwind and resume_unwind are banned outside the work-stealing \
                 pool (crates/sim/src/pool.rs) and the campaign run-isolation \
                 boundary (crates/campaign/src/executor.rs): \
                 scattered unwind recovery hides real failures and corrupts \
                 half-stepped state. A deliberate boundary elsewhere needs a \
                 justified allow.",
    },
    RuleInfo {
        id: HYGIENE,
        summary: "no stray printing; workspace lint opt-in",
        detail: "println!, print!, eprintln!, eprint!, dbg! are banned in library \
                 crates outside test regions; every workspace crate manifest must \
                 contain `[lints] workspace = true`.",
    },
    RuleInfo {
        id: SUPPRESSION,
        summary: "suppressions must be justified, well-formed and live",
        detail: "`// lint: allow(rule) -- justification` requires a non-empty \
                 justification and a known rule id, and must suppress at least one \
                 finding; malformed `lint:` directives are reported. Unsuppressable.",
    },
];

/// The one file in which `available_parallelism` is legal: the
/// campaign worker-count default (`campaign::default_workers`). A
/// simulation never sizes anything from the host.
const PARALLELISM_ALLOWLIST: &[&str] = &["crates/campaign/src/executor.rs"];

/// The files allowed to create threads: the work-stealing pool that runs
/// whole simulations, and the campaign server's thread layer (acceptor,
/// per-connection handlers, executor) — service plumbing that hands all
/// simulation work to the pool-backed campaign executor.
const THREAD_ALLOWLIST: &[&str] = &["crates/sim/src/pool.rs", "crates/server/src/serve.rs"];

/// Files allowed to catch or re-raise unwinds: the work-stealing pool
/// (workers survive panicking jobs) and the campaign executor (per-run
/// isolation).
const RECOVERY_ALLOWLIST: &[&str] = &["crates/sim/src/pool.rs", "crates/campaign/src/executor.rs"];

/// Tokens banned inside alloc-free regions.
const ALLOC_TOKENS: &[&str] = &[
    "Vec::new",
    "vec![",
    "format!",
    ".to_string(",
    ".to_owned(",
    "Box::new",
    ".collect(",
    ".clone(",
];

/// Tokens banned by panic-freedom.
const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Tokens banned by thread-discipline.
const THREAD_TOKENS: &[&str] = &["thread::spawn", "thread::scope", "thread::Builder"];

/// Tokens banned by recovery-discipline.
const RECOVERY_TOKENS: &[&str] = &["catch_unwind", "resume_unwind"];

/// Macros banned by hygiene in library code.
const PRINT_TOKENS: &[&str] = &["println!", "print!", "eprintln!", "eprint!", "dbg!"];

/// Hash-iteration methods banned by determinism.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "retain",
];

/// Whether `path` (workspace-relative, `/`-separated) ends with one of
/// the allowlisted suffixes.
fn allowlisted(path: &str, allowlist: &[&str]) -> bool {
    allowlist.iter().any(|suffix| path.ends_with(suffix))
}

/// Lints one product-crate source file. `path` should be
/// workspace-relative with `/` separators (used for allowlists and
/// reporting).
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    let file = lexer::scrub(source);
    let regions = lexer::regions(&file);
    let hash_names = collect_hash_names(&file);
    let mut raw = Vec::new();
    for (index, line) in file.lines.iter().enumerate() {
        let line_no = index + 1;
        let code = line.code.as_str();
        if code.trim().is_empty() {
            continue;
        }
        let in_test = lexer::in_region(&regions, RegionKind::Test, index);
        if !in_test {
            check_determinism(path, line_no, code, &hash_names, &mut raw);
            check_panic_freedom(path, line_no, code, &mut raw);
            check_thread_discipline(path, line_no, code, &mut raw);
            check_recovery_discipline(path, line_no, code, &mut raw);
            check_hygiene_code(path, line_no, code, &mut raw);
            if lexer::in_region(&regions, RegionKind::AllocFree, index) {
                check_alloc_free(path, line_no, code, &mut raw);
            }
        }
    }
    apply_suppressions(path, &file, &regions, raw)
}

/// Lints a workspace-member manifest: it must opt into the shared
/// workspace lints.
pub fn lint_manifest(path: &str, source: &str) -> Vec<Finding> {
    let mut has_lints = false;
    let mut in_lints = false;
    for line in source.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            has_lints = true;
        }
    }
    if has_lints {
        Vec::new()
    } else {
        vec![Finding {
            file: path.to_owned(),
            line: 1,
            rule: HYGIENE,
            message: "crate does not opt into workspace lints (add `[lints]\\nworkspace = true`)"
                .to_owned(),
        }]
    }
}

// ---------------------------------------------------------------------------
// Individual rule checks
// ---------------------------------------------------------------------------

/// Identifiers this file declares with a hash-table type, via
/// `name: HashMap<...>` / `name: HashSet<...>` (fields, lets, params) or
/// `name = HashMap::new()` / `HashMap::with_capacity`, and likewise for
/// bh-types' `FastMap` / `FastSet`.
fn collect_hash_names(file: &ScrubbedFile) -> Vec<String> {
    let mut names = Vec::new();
    for line in &file.lines {
        let code = line.code.as_str();
        for ty in ["HashMap", "HashSet", "FastMap", "FastSet"] {
            let mut from = 0;
            while let Some(pos) = code[from..].find(ty) {
                let at = from + pos;
                from = at + ty.len();
                // `name: HashMap<` (possibly through wrappers like
                // `Option<HashMap<...>>`) or `name = HashMap::new()`.
                if let Some(name) = binder_before(code, at) {
                    if !names.contains(&name) {
                        names.push(name);
                    }
                }
            }
        }
    }
    names
}

/// The identifier being bound when a hash type appears at `at`: scans
/// left past `:`/`=` (and any type wrappers in between) to the nearest
/// `ident :` or `ident =` at the same nesting.
fn binder_before(code: &str, at: usize) -> Option<String> {
    let head = &code[..at];
    // Find the last `:` or `=` before the type (skipping `::`). Only
    // transparent wrappers may sit between the binder and the hash type:
    // `x: Option<HashMap<..>>` still binds `x` to a map, but
    // `x: Vec<HashMap<..>>` does not — iterating `x` walks the Vec.
    let bytes = head.as_bytes();
    let mut i = head.len();
    let mut word_end: Option<usize> = None;
    while i > 0 {
        i -= 1;
        let c = bytes[i];
        if c.is_ascii_alphanumeric() || c == b'_' {
            if word_end.is_none() {
                word_end = Some(i + 1);
            }
            continue;
        }
        if let Some(end) = word_end.take() {
            if !matches!(
                &head[i + 1..end],
                "Option" | "Box" | "std" | "collections" | "mut"
            ) {
                // An opaque container (`Vec`, `VecDeque`, ...) between the
                // binder and the hash type: the binder is not itself a map.
                return None;
            }
        }
        match c {
            b':' => {
                if i > 0 && bytes[i - 1] == b':' {
                    // `::` path separator — the type is qualified
                    // (`std::collections::HashMap`); keep scanning left.
                    i -= 1;
                    continue;
                }
                return ident_ending_at(head, i);
            }
            b'=' => {
                // Not `==`, `=>`, `<=`, `>=`, `!=`, `+=`, ...
                if i > 0 && matches!(bytes[i - 1], b'=' | b'<' | b'>' | b'!' | b'+' | b'-') {
                    return None;
                }
                return ident_ending_at(head, i);
            }
            // Type wrappers and whitespace between the binder and the
            // hash type are fine (`x: Option<HashMap<...>>`).
            b' ' | b'<' | b'&' | b'\'' | b'(' => continue,
            _ => return None,
        }
    }
    None
}

/// The identifier whose last char sits just before byte `before`
/// (skipping trailing spaces and a `mut ` keyword).
fn ident_ending_at(head: &str, before: usize) -> Option<String> {
    let trimmed = head[..before].trim_end();
    let start = trimmed
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .map_or(0, |p| p + 1);
    let ident = &trimmed[start..];
    if ident.is_empty() || ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    if ident == "mut" {
        // `let mut name = HashMap::new()` — step past the keyword.
        return ident_ending_at(trimmed, trimmed.len() - 3);
    }
    // Type positions (`Option<HashMap>`, `Vec<HashSet<..>>`) start with
    // an uppercase letter by convention; binders are snake_case.
    if ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
        return None;
    }
    Some(ident.to_owned())
}

/// The identifier immediately preceding byte offset `at` (exclusive),
/// i.e. the receiver's last path segment in `recv.method(`.
fn receiver_before(code: &str, at: usize) -> Option<&str> {
    let head = &code[..at];
    let start = head
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .map_or(0, |p| p + 1);
    let ident = &head[start..];
    (!ident.is_empty()).then_some(ident)
}

fn check_determinism(
    path: &str,
    line_no: usize,
    code: &str,
    hash_names: &[String],
    out: &mut Vec<Finding>,
) {
    let mut push = |message: String| {
        out.push(Finding {
            file: path.to_owned(),
            line: line_no,
            rule: DETERMINISM,
            message,
        })
    };
    for clock in ["Instant::now", "SystemTime"] {
        if code.contains(clock) {
            push(format!(
                "`{clock}` in product code: simulated results must not depend on wall-clock time"
            ));
        }
    }
    if code.contains("available_parallelism") && !allowlisted(path, PARALLELISM_ALLOWLIST) {
        push(
            "`available_parallelism` outside the worker-count default \
             (campaign::executor) makes behaviour machine-dependent"
                .to_owned(),
        );
    }
    if hash_names.is_empty() {
        return;
    }
    // `recv.method(` where recv is a known hash-typed name.
    for method in HASH_ITER_METHODS {
        let needle = format!(".{method}(");
        let mut from = 0;
        while let Some(pos) = code[from..].find(&needle) {
            let at = from + pos;
            from = at + needle.len();
            if let Some(recv) = receiver_before(code, at) {
                if hash_names.iter().any(|n| n == recv) {
                    push(format!(
                        "`{recv}.{method}()` iterates a HashMap/HashSet in nondeterministic \
                         order; use a BTreeMap/sorted drain or justify order-independence"
                    ));
                }
            }
        }
    }
    // `for _ in &map` / `for _ in map` over a known hash-typed name.
    if let Some(for_pos) = find_keyword(code, "for") {
        if let Some(in_rel) = find_keyword(&code[for_pos..], "in") {
            let after_in = &code[for_pos + in_rel + 2..];
            let expr: String = after_in
                .trim_start()
                .chars()
                .take_while(|&c| c != '{')
                .collect();
            let expr = expr
                .trim()
                .trim_start_matches('&')
                .trim_start_matches("mut ")
                .trim();
            if expr.contains("..") {
                // A range expression (`0..banks`) never iterates a map,
                // whatever its operands are named.
                return;
            }
            let last_segment = expr.rsplit('.').next().unwrap_or(expr);
            if hash_names.iter().any(|n| n == last_segment) {
                push(format!(
                    "`for _ in {expr}` iterates a HashMap/HashSet in nondeterministic order"
                ));
            }
        }
    }
}

/// Finds `word` in `code` at word boundaries.
fn find_keyword(code: &str, word: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let at = from + pos;
        from = at + word.len();
        let before_ok =
            at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
        let after = at + word.len();
        let after_ok =
            after >= bytes.len() || !(bytes[after].is_ascii_alphanumeric() || bytes[after] == b'_');
        if before_ok && after_ok {
            return Some(at);
        }
    }
    None
}

fn check_alloc_free(path: &str, line_no: usize, code: &str, out: &mut Vec<Finding>) {
    for token in ALLOC_TOKENS {
        if code.contains(token) {
            out.push(Finding {
                file: path.to_owned(),
                line: line_no,
                rule: ALLOC_FREE,
                message: format!("`{token}` inside an alloc-free region"),
            });
        }
    }
}

fn check_panic_freedom(path: &str, line_no: usize, code: &str, out: &mut Vec<Finding>) {
    for token in PANIC_TOKENS {
        if code.contains(token) {
            // `debug_assert!`-style macros contain no banned token;
            // `.expect(` must not fire on `.expect_err(` (it cannot:
            // the token includes the open paren right after `expect`).
            out.push(Finding {
                file: path.to_owned(),
                line: line_no,
                rule: PANIC_FREEDOM,
                message: format!(
                    "`{token}` in product code; return a Result, use debug_assert!, or \
                     justify the invariant"
                ),
            });
        }
    }
}

fn check_thread_discipline(path: &str, line_no: usize, code: &str, out: &mut Vec<Finding>) {
    if allowlisted(path, THREAD_ALLOWLIST) {
        return;
    }
    for token in THREAD_TOKENS {
        if code.contains(token) {
            out.push(Finding {
                file: path.to_owned(),
                line: line_no,
                rule: THREAD_DISCIPLINE,
                message: format!(
                    "`{token}` outside the sanctioned spawn sites (sim::pool, \
                     server::serve); route parallelism through the work-stealing pool"
                ),
            });
        }
    }
}

fn check_recovery_discipline(path: &str, line_no: usize, code: &str, out: &mut Vec<Finding>) {
    if allowlisted(path, RECOVERY_ALLOWLIST) {
        return;
    }
    for token in RECOVERY_TOKENS {
        if code.contains(token) {
            out.push(Finding {
                file: path.to_owned(),
                line: line_no,
                rule: RECOVERY_DISCIPLINE,
                message: format!(
                    "`{token}` outside the sanctioned isolation boundaries (sim::pool, \
                     campaign::executor); justify the boundary or let the unwind propagate"
                ),
            });
        }
    }
}

fn check_hygiene_code(path: &str, line_no: usize, code: &str, out: &mut Vec<Finding>) {
    for token in PRINT_TOKENS {
        let mut from = 0;
        while let Some(pos) = code[from..].find(token) {
            let at = from + pos;
            from = at + token.len();
            // `println!` contains `print!` as a substring at offset 2 —
            // require a non-ident char before the token so each macro is
            // reported once, under its own name.
            let bytes = code.as_bytes();
            let standalone =
                at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
            if standalone {
                out.push(Finding {
                    file: path.to_owned(),
                    line: line_no,
                    rule: HYGIENE,
                    message: format!("`{token}` in library code"),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/// Applies `lint: allow` markers to `raw` findings and appends the
/// suppression-rule findings (missing justification, unknown rule,
/// stale allow, malformed directive).
fn apply_suppressions(
    path: &str,
    file: &ScrubbedFile,
    _regions: &[Region],
    raw: Vec<Finding>,
) -> Vec<Finding> {
    /// One allow marker and the line (1-based) whose findings it governs.
    struct Allow {
        marker_line: usize,
        target_line: usize,
        rules: Vec<String>,
        justified: bool,
        used: bool,
    }
    let mut allows: Vec<Allow> = Vec::new();
    let mut out: Vec<Finding> = Vec::new();
    for (index, line) in file.lines.iter().enumerate() {
        let line_no = index + 1;
        for marker in &line.markers {
            match marker {
                Marker::Allow {
                    rules,
                    justification,
                } => {
                    // Trailing comment governs its own line; a marker on
                    // an otherwise empty line governs the next line that
                    // has code.
                    let target_line = if line.code.trim().is_empty() {
                        file.lines
                            .iter()
                            .enumerate()
                            .skip(index + 1)
                            .find(|(_, l)| !l.code.trim().is_empty())
                            .map_or(line_no, |(i, _)| i + 1)
                    } else {
                        line_no
                    };
                    for rule in rules {
                        if !RULES.iter().any(|r| r.id == rule) {
                            out.push(Finding {
                                file: path.to_owned(),
                                line: line_no,
                                rule: SUPPRESSION,
                                message: format!("allow names unknown rule `{rule}`"),
                            });
                        } else if rule == SUPPRESSION {
                            out.push(Finding {
                                file: path.to_owned(),
                                line: line_no,
                                rule: SUPPRESSION,
                                message: "the suppression rule cannot be suppressed".to_owned(),
                            });
                        }
                    }
                    let justified = justification.is_some();
                    if !justified {
                        out.push(Finding {
                            file: path.to_owned(),
                            line: line_no,
                            rule: SUPPRESSION,
                            message: "allow without a justification (`-- <why>` is mandatory)"
                                .to_owned(),
                        });
                    }
                    allows.push(Allow {
                        marker_line: line_no,
                        target_line,
                        rules: rules.clone(),
                        justified,
                        used: false,
                    });
                }
                Marker::AllocFree => {}
                Marker::Malformed(text) => {
                    out.push(Finding {
                        file: path.to_owned(),
                        line: line_no,
                        rule: SUPPRESSION,
                        message: format!("malformed lint directive `// {text}`"),
                    });
                }
            }
        }
    }
    for finding in raw {
        let suppressed = allows.iter_mut().any(|allow| {
            if allow.target_line == finding.line
                && allow.justified
                && allow.rules.iter().any(|r| r == finding.rule)
            {
                allow.used = true;
                true
            } else {
                false
            }
        });
        if !suppressed {
            out.push(finding);
        }
    }
    for allow in &allows {
        if allow.justified && !allow.used {
            out.push(Finding {
                file: path.to_owned(),
                line: allow.marker_line,
                rule: SUPPRESSION,
                message: format!(
                    "stale allow: no {} finding on line {} to suppress",
                    allow.rules.join("/"),
                    allow.target_line
                ),
            });
        }
    }
    out.sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    out
}
