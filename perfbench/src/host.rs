//! Facts about the machine a result was measured on, recorded beside
//! every result so numbers from different hosts are never compared
//! blindly.

use std::process::{Command, Stdio};
use std::time::Instant;

/// Iterations of the spin loop used by the contention probe (about
/// 0.1-0.2 s on a current core).
const SPIN_ITERATIONS: u64 = 60_000_000;

/// A CPU-bound loop whose result depends on every iteration, so the
/// optimizer cannot remove it.
pub fn spin(iterations: u64) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Runs `copies` spin processes (this executable with `--spin`) at once
/// and returns the wall time until the last one exits.
fn spin_processes(copies: usize) -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let started = Instant::now();
    let mut children = Vec::new();
    for _ in 0..copies {
        let child = Command::new(&exe)
            .arg("--spin")
            .arg(SPIN_ITERATIONS.to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn();
        match child {
            Ok(child) => children.push(child),
            Err(_) => break,
        }
    }
    let spawned = children.len();
    let mut ok = spawned == copies;
    for mut child in children {
        ok &= child.wait().map(|s| s.success()).unwrap_or(false);
    }
    ok.then(|| started.elapsed().as_secs_f64())
}

/// Wall time of two concurrent spin processes over the time of one: about
/// 1.0 when the two get separate cores, about 2.0 when they share one.
pub fn contention_ratio() -> Option<f64> {
    let one = spin_processes(1)?;
    let two = spin_processes(2)?;
    Some(two / one)
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(command: &mut Command) -> Option<String> {
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&output.stdout);
    text.lines().next().map(|line| line.trim().to_owned())
}

/// Host facts as a JSON object (one line).
pub fn facts_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned());
    let rustc = command_line(Command::new("rustc").arg("--version"))
        .unwrap_or_else(|| "unknown".to_owned());
    // Only a repository rooted in the working directory counts: git must
    // not search the directories above it.
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    let cwd = std::env::current_dir().ok();
    if let Some(parent) = cwd.as_deref().and_then(std::path::Path::parent) {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let commit = command_line(&mut git).unwrap_or_else(|| "unknown".to_owned());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let contention = contention_ratio().map_or("null".to_owned(), |r| format!("{r:.3}"));
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"kernel\": \"{}\", \"rustc\": \"{}\", \
         \"commit\": \"{}\", \"profile\": \"{profile}\", \"contention_ratio\": {contention}}}",
        escape(&cpu),
        escape(&kernel),
        escape(&rustc),
        escape(&commit)
    )
}

/// Minimal JSON string escaping.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_and_control_characters() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }

    #[test]
    fn spin_depends_on_iteration_count() {
        assert_ne!(spin(1), spin(2));
    }
}
