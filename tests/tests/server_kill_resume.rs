//! Crash-safety of the campaign *server*, end-to-end over HTTP: a
//! server SIGKILLed mid-campaign (the armed fault injector stalls its
//! executor after 2 journal records, so the kill lands at a known
//! journal state) is restarted on the same data directory, re-admits the
//! interrupted campaign from its persisted spec, resumes it from the
//! journal — and the results a client then streams, plus the final
//! artifacts, are byte-identical to an uninterrupted batch run.
//!
//! The server under test is the `serve_harness` binary (a kill must hit
//! a whole process); the campaign is [`integration_tests::serve_campaign`].

use campaign::checkpoint::{fingerprint, read_journal};
use campaign::{execute_observed, wire, CampaignSpec, ExecutionOptions};
use integration_tests::serve_campaign;
use server::http::client;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

fn scratch(label: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(label);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Spawns `serve_harness` on `data`, with additional harness arguments
/// (worker count, stall-after) appended verbatim, and waits for its
/// address file.
fn start_harness(data: &Path, extra: &[&str]) -> (Child, String) {
    // A previous server's address file would race the new one's.
    let _ = std::fs::remove_file(data.join("addr"));
    let mut command = Command::new(env!("CARGO_BIN_EXE_serve_harness"));
    command.args(["data", &data.display().to_string()]);
    if !extra.contains(&"workers") {
        command.args(["workers", "0"]);
    }
    command.args(extra);
    let mut child = command.spawn().expect("spawn serve_harness");
    let addr_file = data.join("addr");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(addr) = std::fs::read_to_string(&addr_file) {
            if !addr.is_empty() {
                return (child, addr);
            }
        }
        if let Some(status) = child.try_wait().expect("poll harness") {
            panic!("serve_harness exited early with {status}");
        }
        assert!(
            Instant::now() < deadline,
            "serve_harness never wrote its address file"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Waits until the journal of campaign `spec` under `data` holds exactly
/// `records` records (a harness started with `stall-after records` then
/// parks its executor for good).
fn wait_for_journal(data: &Path, spec: &CampaignSpec, records: usize) {
    let journal = data
        .join(format!("{:016x}", fingerprint(spec)))
        .join("campaign.journal");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let journaled = read_journal(&journal, fingerprint(spec), spec.run_count() as u64)
            .map(|scan| scan.entries.len())
            .unwrap_or(0);
        if journaled == records {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "the stalled server never journaled {records} records (got {journaled})"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn sigkilled_server_resumes_campaign_with_byte_identical_results() {
    let spec = serve_campaign();
    let id = format!("{:016x}", fingerprint(&spec));

    // The uninterrupted reference: record lines and artifacts straight
    // from the batch engine, no server involved.
    let mut expected_lines = Vec::new();
    let report = execute_observed(
        &spec,
        spec.expand(),
        0,
        &ExecutionOptions::default(),
        &mut |entry, _| expected_lines.push(wire::entry_to_ndjson(entry)),
    )
    .expect("reference executes");

    let data = scratch("serve-kill-resume");
    // First server: armed to stall its executor once 2 of the 4 runs are
    // journaled. The stall keeps the process alive until its 201 has
    // reached the client; then a SIGKILL ends it without unwinding or
    // flushing anything besides the journal.
    let (mut doomed, addr) = start_harness(&data, &["stall-after", "2"]);
    let body = wire::spec_to_json(&spec);
    let response =
        client::request(&addr, "POST", "/campaigns", &[], body.as_bytes()).expect("submit");
    assert_eq!(response.status, 201, "{}", response.utf8().unwrap_or(""));
    wait_for_journal(&data, &spec, 2);
    doomed.kill().expect("SIGKILL the stalled server");
    let status = doomed.wait().expect("reap the killed server");
    assert!(!status.success(), "the armed server must die");
    assert!(
        !data.join(&id).join("campaign.json").exists(),
        "the interrupted campaign must not have final artifacts"
    );

    // Second server, same data directory: recovery finds spec.json
    // without a completion marker, re-admits the campaign, and the
    // journal resume skips the 2 already-finished runs.
    let (survivor, addr) = start_harness(&data, &[]);
    let mut streamed = Vec::new();
    let status = client::stream(&addr, &format!("/campaigns/{id}/results"), &mut |line| {
        streamed.push(line.to_owned());
        Ok(())
    })
    .expect("stream resumed results");
    assert_eq!(status, 200);
    assert_eq!(
        streamed, expected_lines,
        "resumed stream must be byte-identical to the uninterrupted run"
    );

    // The status document accounts for the journal replay.
    let response = client::request(&addr, "GET", &format!("/campaigns/{id}"), &[], &[])
        .expect("status request");
    let status_doc = response.utf8().unwrap();
    assert!(
        status_doc.contains("\"phase\":\"done\""),
        "got: {status_doc}"
    );
    assert!(status_doc.contains("\"replayed\":2"), "got: {status_doc}");
    assert!(
        status_doc.contains(&format!("\"completed\":{}", spec.run_count())),
        "got: {status_doc}"
    );

    // Final artifacts, fetched over HTTP, byte-compare against the
    // uninterrupted reference.
    for (artifact, expected) in [
        ("csv", report.summary.to_csv()),
        ("json", report.summary.to_json()),
        ("stepping", report.stepping_csv()),
    ] {
        let response = client::request(
            &addr,
            "GET",
            &format!("/campaigns/{id}/artifacts/{artifact}"),
            &[],
            &[],
        )
        .expect("artifact request");
        assert_eq!(response.status, 200, "artifact {artifact}");
        assert_eq!(
            response.utf8().unwrap(),
            expected,
            "artifact {artifact} diverged from the uninterrupted run"
        );
    }

    // A *third* server on the same directory rebuilds the finished
    // campaign from its journal without re-running anything, and streams
    // the same bytes again.
    let mut survivor = survivor;
    survivor.kill().expect("kill the second server");
    survivor.wait().expect("reap the second server");
    let (mut third, addr) = start_harness(&data, &[]);
    let mut replayed = Vec::new();
    let status = client::stream(&addr, &format!("/campaigns/{id}/results"), &mut |line| {
        replayed.push(line.to_owned());
        Ok(())
    })
    .expect("stream rebuilt results");
    assert_eq!(status, 200);
    assert_eq!(replayed, expected_lines);
    third.kill().expect("kill the third server");
    third.wait().expect("reap the third server");
}

#[test]
fn sigkilled_stealing_server_resumes_with_a_warm_prelude_cache() {
    // Same recovery story, but with the pull-based scheduler doing the
    // executing and a *real* SIGKILL (the injector stalls the executor
    // at a deterministic journal state so the kill lands predictably).
    // The resumed campaign must also skip its normalization prelude by
    // reading back the table the first server journaled.
    let mut spec = serve_campaign();
    spec.name = "serve-kill-stealing".to_owned();
    let id = format!("{:016x}", fingerprint(&spec));

    let mut expected_lines = Vec::new();
    let report = execute_observed(
        &spec,
        spec.expand(),
        0,
        &ExecutionOptions::default(),
        &mut |entry, _| expected_lines.push(wire::entry_to_ndjson(entry)),
    )
    .expect("reference executes");

    let data = scratch("serve-kill-stealing");
    let stealing_args = ["workers", "2"];
    let mut stalled_args = vec!["stall-after", "2"];
    stalled_args.extend_from_slice(&stealing_args);
    let (mut doomed, addr) = start_harness(&data, &stalled_args);
    let body = wire::spec_to_json(&spec);
    let response =
        client::request(&addr, "POST", "/campaigns", &[], body.as_bytes()).expect("submit");
    assert_eq!(response.status, 201, "{}", response.utf8().unwrap_or(""));

    // Wait until exactly 2 runs are journaled (the executor then stalls
    // forever) behind the prelude table, then deliver the kill.
    wait_for_journal(&data, &spec, 2);
    let scan = read_journal(
        &data.join(&id).join("campaign.journal"),
        fingerprint(&spec),
        spec.run_count() as u64,
    )
    .expect("read the stalled server's journal");
    assert!(
        scan.prelude.is_some(),
        "the first server must journal its prelude table"
    );
    doomed.kill().expect("SIGKILL the stalled server");
    doomed.wait().expect("reap the killed server");

    // The survivor resumes with the same stealing scheduler, replays the
    // 2 journaled runs, reads the prelude from the journal, and streams
    // bytes identical to the uninterrupted sequential reference.
    let (mut survivor, addr) = start_harness(&data, &stealing_args);
    let mut streamed = Vec::new();
    let status = client::stream(&addr, &format!("/campaigns/{id}/results"), &mut |line| {
        streamed.push(line.to_owned());
        Ok(())
    })
    .expect("stream resumed results");
    assert_eq!(status, 200);
    assert_eq!(streamed, expected_lines);

    let response = client::request(&addr, "GET", &format!("/campaigns/{id}"), &[], &[])
        .expect("status request");
    let status_doc = response.utf8().unwrap();
    assert!(
        status_doc.contains("\"phase\":\"done\""),
        "got: {status_doc}"
    );
    assert!(status_doc.contains("\"replayed\":2"), "got: {status_doc}");
    assert!(
        status_doc.contains("\"scheduler\":\"stealing\""),
        "got: {status_doc}"
    );
    // The journaled table means this invocation simulated no references.
    assert!(status_doc.contains("\"computed\":0"), "got: {status_doc}");
    assert!(
        !status_doc.contains("\"from_cache\":0"),
        "the resumed prelude must come from the journal: {status_doc}"
    );

    for (artifact, expected) in [
        ("csv", report.summary.to_csv()),
        ("json", report.summary.to_json()),
    ] {
        let response = client::request(
            &addr,
            "GET",
            &format!("/campaigns/{id}/artifacts/{artifact}"),
            &[],
            &[],
        )
        .expect("artifact request");
        assert_eq!(response.status, 200, "artifact {artifact}");
        assert_eq!(
            response.utf8().unwrap(),
            expected,
            "artifact {artifact} diverged from the uninterrupted run"
        );
    }
    // The scheduling artifact is not byte-compared (its counters are
    // wall-clock- and worker-dependent) but must exist and name the
    // scheduler and the journal-served prelude.
    let response = client::request(
        &addr,
        "GET",
        &format!("/campaigns/{id}/artifacts/scheduling"),
        &[],
        &[],
    )
    .expect("scheduling artifact request");
    assert_eq!(response.status, 200);
    let scheduling = response.utf8().unwrap();
    assert!(
        scheduling.contains("scheduler,stealing"),
        "got: {scheduling}"
    );
    assert!(
        scheduling.contains("prelude_computed,0"),
        "got: {scheduling}"
    );
    survivor.kill().expect("kill the survivor");
    survivor.wait().expect("reap the survivor");
}
