//! `bh-serve`: the campaign server binary.
//!
//! ```text
//! bh-serve [addr HOST:PORT] [data DIR] [queue N] [workers N] [max-runs N]
//! ```
//!
//! Arguments are bare `key value` words, like the repo's other
//! binaries. Defaults: `addr 127.0.0.1:7878 data target/bh-serve
//! queue 8 workers <cores-2> max-runs 100000`. With `workers` of 2 or
//! more, each campaign's runs execute on the campaign engine's
//! work-stealing pool. `SIGINT`/`SIGTERM` trigger a clean shutdown:
//! stop admitting, finish the in-flight campaign (its journal makes
//! even a hard kill recoverable), drain connections, exit `0`.

use server::{request_shutdown, shutdown_requested, Server, ServerConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// `SIGINT` (ctrl-C) on every platform this repo targets.
const SIGINT: i32 = 2;
/// `SIGTERM` (polite kill) likewise.
const SIGTERM: i32 = 15;

extern "C" {
    /// POSIX `signal(2)`. Declared by hand because this build
    /// environment has no `libc` crate; the return value (the previous
    /// handler, a pointer) is declared pointer-sized and ignored.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

/// The installed handler: one async-signal-safe atomic store.
extern "C" fn on_signal(_signum: i32) {
    request_shutdown();
}

/// Operator-facing output; this binary's only printing site.
fn say(line: &str) {
    println!("{line}"); // lint: allow(hygiene) -- operator-facing binary output
}

fn fail(message: &str) -> ExitCode {
    // lint: allow(hygiene) -- operator-facing binary diagnostics
    eprintln!("bh-serve: {message}");
    ExitCode::FAILURE
}

/// Applies `key value` argument pairs onto the default config.
fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    let mut words = args.iter();
    while let Some(key) = words.next() {
        let value = words
            .next()
            .ok_or_else(|| format!("`{key}` needs a value"))?;
        match key.as_str() {
            "addr" => config.addr = value.clone(),
            "data" => config.data_dir = PathBuf::from(value),
            "queue" => {
                config.queue_capacity = value
                    .parse()
                    .map_err(|_| format!("bad queue capacity `{value}`"))?;
            }
            "workers" => {
                config.workers = value
                    .parse()
                    .map_err(|_| format!("bad worker count `{value}`"))?;
            }
            "max-runs" => {
                config.max_runs = value
                    .parse()
                    .map_err(|_| format!("bad run limit `{value}`"))?;
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}` (usage: bh-serve [addr HOST:PORT] [data DIR] \
                     [queue N] [workers N] [max-runs N])"
                ))
            }
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(message) => return fail(&message),
    };
    // SAFETY: `signal(2)` with a handler that only performs one atomic
    // store is the canonical async-signal-safe pattern; no Rust state
    // is touched from the handler.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(error) => return fail(&format!("starting server: {error}")),
    };
    say(&format!(
        "bh-serve listening on http://{} (queue capacity {}, {} workers)",
        server.addr(),
        server.config().queue_capacity,
        server.config().workers,
    ));
    for note in server.notes() {
        say(&format!("  {note}"));
    }
    while !shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    say("bh-serve: signal received, shutting down");
    server.stop();
    say("bh-serve: bye");
    ExitCode::SUCCESS
}
