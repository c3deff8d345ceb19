//! `bh-lint`: a dependency-free static-analysis pass enforcing the
//! workspace's determinism and hot-path invariants.
//!
//! Every performance change in this repository stakes its correctness
//! on bit-identical results across advance modes and worker counts —
//! the property BlockHammer's blacklisting-threshold math (and therefore
//! the paper's security argument) rests on. This
//! crate mechanizes the rules that protect that property instead of
//! defending it only with after-the-fact equivalence tests:
//!
//! * **determinism** — no `HashMap`/`HashSet` (or `FastMap`/`FastSet`)
//!   iteration, no wall-clock reads, no machine-dependent parallelism
//!   probes in product code (`available_parallelism` only in
//!   `campaign::executor`'s worker-count default);
//! * **alloc-free** — regions marked `// lint: alloc-free` (the defense
//!   and scheduler hot paths) must not allocate;
//! * **panic-freedom** — no `unwrap`/`expect`/`panic!` escape hatches
//!   outside tests;
//! * **thread-discipline** — threads are created only in `sim::pool`
//!   (the work-stealing pool that runs whole simulations) and the
//!   campaign server's thread layer (`server::serve`);
//! * **recovery-discipline** — `catch_unwind`/`resume_unwind` only at
//!   the sanctioned isolation boundaries (`sim::pool`,
//!   `campaign::executor`);
//! * **hygiene** — no stray printing in library code, every crate opts
//!   into the workspace lints.
//!
//! Findings are suppressed per line with
//! `// lint: allow(<rule>) -- <justification>`; the justification is
//! mandatory and stale suppressions are themselves findings. The checks
//! are deliberately lexical (a scrubber, not a compiler — see
//! [`lexer`]): cheap enough to run on every `cargo test`, honest enough
//! to be reviewed, and escapable only through a justified allow.
//!
//! Run as `cargo run -p bh-lint --release` (walks the workspace's
//! product crates), or `bh-lint --list-rules` for the rule table. The
//! integration test `tests/tests/lint_clean.rs` keeps the tree clean.

pub mod lexer;
pub mod rules;

pub use rules::{Finding, RuleInfo, RULES};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The product crates `bh-lint` walks: everything whose code can affect
/// simulated results. Excluded by design: `crates/compat/*` (offline
/// registry stand-ins), `crates/bench` and `examples` (binaries that
/// print and time by nature), `tests` (test harness) and `crates/lint`
/// itself (a build tool, not simulation product).
pub const PRODUCT_CRATES: &[&str] = &[
    "bh-types",
    "blockhammer",
    "mitigations",
    "dram-sim",
    "memctrl",
    "llc",
    "cpu",
    "energy",
    "workloads",
    "sim",
    "campaign",
    "server",
];

/// Locates the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
///
/// # Errors
///
/// Fails with [`io::ErrorKind::NotFound`] if no ancestor is a workspace
/// root.
pub fn find_workspace_root(start: &Path) -> io::Result<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            let text = fs::read_to_string(&manifest)?;
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Ok(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        format!("no workspace root above {}", start.display()),
    ))
}

/// Recursively collects the `.rs` files under `dir`, sorted by path so
/// the walk itself is deterministic.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|entry| entry.map(|e| e.path()))
        .collect::<io::Result<Vec<_>>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// A path relative to `root`, `/`-separated (for stable reporting and
/// allowlist matching across platforms).
fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lints the whole workspace rooted at `root`: every product crate's
/// sources plus every workspace member's manifest. Findings come back
/// sorted by (file, line, rule).
///
/// # Errors
///
/// Propagates file-system errors (an unreadable tree is a failure, not
/// a clean pass).
pub fn run_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for krate in PRODUCT_CRATES {
        let src = root.join("crates").join(krate).join("src");
        if !src.is_dir() {
            // Partial workspaces (test fixtures) lint only the crates
            // they contain; the real tree always has all of them, and
            // `tests/tests/lint_clean.rs` runs against it.
            continue;
        }
        let mut files = Vec::new();
        rust_files(&src, &mut files)?;
        for path in files {
            let text = fs::read_to_string(&path)?;
            findings.extend(rules::lint_source(&relative(root, &path), &text));
        }
    }
    // Manifest hygiene: every workspace member opts into workspace lints.
    for manifest in workspace_member_manifests(root)? {
        let text = fs::read_to_string(&manifest)?;
        findings.extend(rules::lint_manifest(&relative(root, &manifest), &text));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

/// The workspace members' `Cargo.toml` paths, parsed from the root
/// manifest's `members = [...]` list.
fn workspace_member_manifests(root: &Path) -> io::Result<Vec<PathBuf>> {
    let text = fs::read_to_string(root.join("Cargo.toml"))?;
    let mut members = Vec::new();
    let mut in_members = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with("members") {
            in_members = true;
        }
        if in_members {
            for piece in line.split('"').skip(1).step_by(2) {
                members.push(root.join(piece).join("Cargo.toml"));
            }
            if line.contains(']') {
                break;
            }
        }
    }
    Ok(members)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_is_found_from_this_crate() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
        assert!(root.join("Cargo.toml").is_file());
        assert!(root.join("crates/sim/src/lib.rs").is_file());
    }

    #[test]
    fn member_manifests_are_discovered() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
        let manifests = workspace_member_manifests(&root).unwrap();
        assert!(manifests.iter().all(|m| m.is_file()));
        assert!(
            manifests.len() >= 20,
            "expected every workspace member, got {}",
            manifests.len()
        );
    }
}
