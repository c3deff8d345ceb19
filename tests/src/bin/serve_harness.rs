//! A minimal campaign-server process for the kill/resume-over-HTTP
//! integration test (`tests/tests/server_kill_resume.rs`).
//!
//! Starts a [`server::Server`] on an ephemeral loopback port with its
//! data directory under `DIR`, writes the bound address to `DIR/addr`
//! (atomically, so the test can poll for it), then parks. The test
//! submits a campaign over HTTP, lets the armed fault injector stall the
//! executor mid-campaign, SIGKILLs the server, re-spawns this binary on
//! the same directory, and verifies the resumed campaign streams and
//! writes byte-identical results.
//!
//! ```text
//! serve_harness data DIR [queue N] [workers N] [stall-after N]
//! ```

use campaign::faults::{arm, FaultPlan};
use campaign::write_atomic;
use server::{Server, ServerConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("serve_harness: {message}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServerConfig::default()
    };
    let mut data_dir: Option<PathBuf> = None;
    let mut plan = FaultPlan::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "data" => match iter.next() {
                Some(dir) => data_dir = Some(PathBuf::from(dir)),
                None => return fail("data needs a directory argument"),
            },
            name @ ("queue" | "workers" | "stall-after") => {
                let Some(n) = iter.next().and_then(|v| v.parse::<u64>().ok()) else {
                    return fail(format!("{name} needs an integer argument"));
                };
                match name {
                    "queue" => config.queue_capacity = n as usize,
                    "workers" => config.workers = n as usize,
                    _ => plan.stall_after_journal_records = Some(n),
                }
            }
            other => return fail(format!("unknown argument `{other}`")),
        }
    }
    let Some(data_dir) = data_dir else {
        return fail("data DIR is required");
    };
    config.data_dir = data_dir.clone();
    if plan.stall_after_journal_records.is_some() {
        arm(plan);
    }
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(error) => return fail(format!("starting server: {error}")),
    };
    if let Err(error) = write_atomic(&data_dir.join("addr"), server.addr().to_string()) {
        return fail(format!("writing addr file: {error}"));
    }
    // Park until the test kills us.
    loop {
        std::thread::sleep(Duration::from_millis(100));
    }
}
