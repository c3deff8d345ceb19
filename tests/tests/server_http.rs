//! End-to-end tests of the campaign server over real loopback HTTP:
//! concurrent clients streaming byte-identical results that match batch
//! execution, bounded-queue backpressure, and the admission-time wire
//! contract (fingerprint pinning, malformed specs, run limits).

use campaign::checkpoint::fingerprint;
use campaign::{execute_observed, wire, CampaignSpec, ExecutionOptions};
use integration_tests::{serve_campaign, serve_slow_campaign};
use server::http::client;
use server::{Server, ServerConfig};
use std::path::PathBuf;
use std::time::Duration;

/// A fresh data directory under the temp dir, wiped before use.
fn data_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("bh-serve-tests")
        .join(format!("{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(test: &str, queue_capacity: usize, max_runs: usize) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: data_dir(test),
        queue_capacity,
        workers: 2,
        max_runs,
    })
    .expect("server starts on an ephemeral port")
}

/// POSTs `spec` (with its fingerprint pinned in the request header) and
/// returns `(status, body)`.
fn submit(addr: &str, spec: &CampaignSpec) -> (u16, String) {
    let body = wire::spec_to_json(spec);
    let fp = format!("{:016x}", fingerprint(spec));
    let response = client::request(
        addr,
        "POST",
        "/campaigns",
        &[("x-campaign-fingerprint", &fp)],
        body.as_bytes(),
    )
    .expect("loopback request succeeds");
    let text = response.utf8().expect("response is UTF-8").to_owned();
    (response.status, text)
}

/// Polls the status document until `phase` appears (or panics).
fn await_phase(addr: &str, id: &str, phase: &str) -> String {
    for _ in 0..600 {
        let response = client::request(addr, "GET", &format!("/campaigns/{id}"), &[], &[])
            .expect("status request succeeds");
        let body = response.utf8().expect("status is UTF-8").to_owned();
        if body.contains(&format!("\"phase\":\"{phase}\"")) {
            return body;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("campaign {id} never reached phase {phase}");
}

/// The batch-engine reference: the NDJSON record lines and final
/// artifacts of `spec` executed locally, without any server.
fn batch_reference(spec: &CampaignSpec) -> (Vec<String>, String, String, String) {
    let mut lines = Vec::new();
    let report = execute_observed(
        spec,
        spec.expand(),
        0,
        &ExecutionOptions::default(),
        &mut |entry, _| lines.push(wire::entry_to_ndjson(entry)),
    )
    .expect("batch reference executes");
    (
        lines,
        report.summary.to_csv(),
        report.summary.to_json(),
        report.stepping_csv(),
    )
}

#[test]
fn concurrent_clients_stream_byte_identical_results_matching_batch() {
    let spec = serve_campaign();
    // The reference runs sequentially (workers = 0); the server runs the
    // same spec with two workers. Byte-identical output across worker
    // counts is the campaign engine's determinism contract.
    let (expected_lines, expected_csv, expected_json, expected_stepping) = batch_reference(&spec);
    assert_eq!(expected_lines.len(), spec.run_count());

    let server = start("concurrent", 8, 100_000);
    let addr = server.addr().to_string();
    let id = format!("{:016x}", fingerprint(&spec));

    // Two clients race the same submission; admission is idempotent, so
    // exactly one 201 (admitted) and one 200 (already known).
    let submits: Vec<(u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| scope.spawn(|| submit(&addr, &spec)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut statuses: Vec<u16> = submits.iter().map(|(status, _)| *status).collect();
    statuses.sort_unstable();
    assert_eq!(statuses, [200, 201], "got: {submits:?}");

    // Both clients stream the results concurrently; each must receive
    // the complete record sequence, byte-identical to the batch run.
    let streams: Vec<(u16, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut lines = Vec::new();
                    let status =
                        client::stream(&addr, &format!("/campaigns/{id}/results"), &mut |line| {
                            lines.push(line.to_owned());
                            Ok(())
                        })
                        .expect("streaming request succeeds");
                    (status, lines)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (status, lines) in &streams {
        assert_eq!(*status, 200);
        assert_eq!(lines, &expected_lines, "streamed records must match batch");
    }

    // The campaign finished cleanly and its artifacts are byte-identical
    // to what the batch engine writes.
    let status = await_phase(&addr, &id, "done");
    assert!(status.contains(&format!("\"completed\":{}", spec.run_count())));
    assert!(status.contains("\"failed\":0"));
    for (artifact, expected) in [
        ("csv", &expected_csv),
        ("json", &expected_json),
        ("stepping", &expected_stepping),
    ] {
        let response = client::request(
            &addr,
            "GET",
            &format!("/campaigns/{id}/artifacts/{artifact}"),
            &[],
            &[],
        )
        .expect("artifact request succeeds");
        assert_eq!(response.status, 200, "artifact {artifact}");
        assert_eq!(
            response.utf8().unwrap(),
            expected.as_str(),
            "artifact {artifact} bytes"
        );
    }

    // A client attaching after completion replays the same bytes.
    let mut late = Vec::new();
    let status = client::stream(&addr, &format!("/campaigns/{id}/results"), &mut |line| {
        late.push(line.to_owned());
        Ok(())
    })
    .unwrap();
    assert_eq!(status, 200);
    assert_eq!(late, expected_lines);

    server.stop();
}

#[test]
fn full_queue_rejects_with_503_and_retry_after() {
    let server = start("backpressure", 1, 100_000);
    let addr = server.addr().to_string();

    // Occupy the executor with the slow campaign…
    let slow = serve_slow_campaign();
    let (status, _) = submit(&addr, &slow);
    assert_eq!(status, 201);
    await_phase(&addr, &format!("{:016x}", fingerprint(&slow)), "running");

    // …fill the 1-slot queue behind it…
    let mut queued = serve_campaign();
    queued.name = "serve-queued".to_owned();
    let (status, _) = submit(&addr, &queued);
    assert_eq!(status, 201);

    // …and the third client is told to back off.
    let mut rejected = serve_campaign();
    rejected.name = "serve-rejected".to_owned();
    let body = wire::spec_to_json(&rejected);
    let response = client::request(&addr, "POST", "/campaigns", &[], body.as_bytes()).unwrap();
    assert_eq!(response.status, 503);
    assert_eq!(response.header("retry-after"), Some("1"));
    // The rejected campaign was not recorded anywhere: no status, and no
    // spec.json that a restart would wrongly revive.
    let rejected_id = format!("{:016x}", fingerprint(&rejected));
    let response =
        client::request(&addr, "GET", &format!("/campaigns/{rejected_id}"), &[], &[]).unwrap();
    assert_eq!(response.status, 404);
    assert!(!server
        .config()
        .data_dir
        .join(&rejected_id)
        .join("spec.json")
        .exists());

    let response = client::request(&addr, "GET", "/healthz", &[], &[]).unwrap();
    assert_eq!(response.status, 200);
    let health = response.utf8().unwrap();
    assert!(health.contains("\"queue_depth\":1"), "got: {health}");
    assert!(health.contains("\"queue_capacity\":1"));
    assert!(health.contains("\"executor_alive\":true"));

    server.stop();
}

#[test]
fn admission_refuses_bad_specs_and_mismatched_fingerprints() {
    let server = start("refusals", 8, 6);
    let addr = server.addr().to_string();
    let spec = serve_campaign();
    let body = wire::spec_to_json(&spec);

    // Not JSON at all.
    let response = client::request(&addr, "POST", "/campaigns", &[], b"not json").unwrap();
    assert_eq!(response.status, 400);
    assert!(response.utf8().unwrap().contains("spec refused"));

    // Structurally valid JSON that violates spec bounds.
    let zero_mixes = body.replacen("\"mix_count\":1", "\"mix_count\":0", 1);
    let response =
        client::request(&addr, "POST", "/campaigns", &[], zero_mixes.as_bytes()).unwrap();
    assert_eq!(response.status, 400);

    // A fingerprint the client computed over a *different* spec than it
    // sent: the server must refuse rather than silently re-keying.
    let response = client::request(
        &addr,
        "POST",
        "/campaigns",
        &[("x-campaign-fingerprint", "00000000deadbeef")],
        body.as_bytes(),
    )
    .unwrap();
    assert_eq!(response.status, 400);
    assert!(response.utf8().unwrap().contains("does not match"));

    // Over the server's run budget (this server caps at 6; an 8-run
    // variant must be refused before touching the queue).
    let mut big = spec.clone();
    big.mix_count = 2;
    assert!(big.run_count() > 6);
    let (status, body_text) = submit(&addr, &big);
    assert_eq!(status, 400);
    assert!(body_text.contains("over this server's limit"));

    // Unknown routes and methods.
    let response = client::request(&addr, "GET", "/campaigns/feedbeef00000000", &[], &[]).unwrap();
    assert_eq!(response.status, 404);
    let response = client::request(&addr, "GET", "/nope", &[], &[]).unwrap();
    assert_eq!(response.status, 404);
    let response = client::request(&addr, "DELETE", "/campaigns", &[], &[]).unwrap();
    assert_eq!(response.status, 405);

    // Nothing above was admitted.
    assert!(server
        .config()
        .data_dir
        .read_dir()
        .map_or(true, |mut d| d.next().is_none()));
    server.stop();
}
