//! End-to-end daemon tests over real sockets: submit → poll → fetch, and
//! the kill/restart/resume acceptance gates.
//!
//! The central claim under test: a campaign served over HTTP produces a
//! deterministic result document *byte-identical* to the same spec run
//! in-process — including when the daemon is killed mid-campaign and a
//! fresh daemon resumes the job from its journal, at any worker count.

use std::time::{Duration, Instant};

use gecko_fleet::json::Json;
use gecko_fleet::spec_io::{report_deterministic_json, spec_to_json};
use gecko_fleet::{AttackCase, Campaign, CampaignSpec, DeviceCase, SchemeKind, Workload};
use gecko_serve::http::http_call;
use gecko_serve::{ServeConfig, Server};

fn fresh_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("gecko-serve-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn start_server(root: &std::path::Path) -> (Server, String) {
    let cfg = ServeConfig {
        bind: "127.0.0.1:0".to_string(),
        journal_root: root.to_path_buf(),
        queue_workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("server starts");
    let addr = server.addr().to_string();
    (server, addr)
}

/// A tiny Figure-4-shaped sweep: the paper's DPI attack study scaled to
/// test size — victim app on NVP, two boards, a clean baseline plus
/// P1/P2 injections at two frequencies, continuous windows.
fn tiny_fig4_spec() -> CampaignSpec {
    use gecko_emi::attack::DpiPoint;
    use gecko_emi::{AttackSchedule, EmiSignal, Injection, MonitorKind};
    let mut attacks = vec![AttackCase::none()];
    for (label, point) in [("P1", DpiPoint::P1), ("P2", DpiPoint::P2)] {
        for freq in [27e6, 240e6] {
            attacks.push(AttackCase::new(
                format!("{label}@{freq:.0}Hz"),
                AttackSchedule::continuous(EmiSignal::new(freq, 20.0), Injection::Dpi(point)),
            ));
        }
    }
    let devices: Vec<DeviceCase> = gecko_emi::devices::all_devices()
        .into_iter()
        .take(2)
        .map(|d| DeviceCase::new(d, MonitorKind::Adc))
        .collect();
    CampaignSpec::new("fig4-tiny")
        .apps([gecko_sim::experiments::VICTIM_APP])
        .schemes([SchemeKind::Nvp])
        .devices(devices)
        .attacks(attacks)
        .workload(Workload::RunFor { seconds: 0.004 })
}

fn submit(addr: &str, path: &str, body: &str) -> Json {
    let resp = http_call(addr, "POST", path, body).expect("submit call");
    assert_eq!(resp.status, 201, "submit failed: {}", resp.body);
    Json::parse(&resp.body).expect("status document parses")
}

fn job_id(status: &Json) -> u64 {
    status.get("id").and_then(Json::as_u64).expect("job id")
}

/// Polls `/v1/jobs/<id>?wait_ms=...` until the job reaches `want` (or any
/// stopped state), failing loudly on a different terminal state.
fn poll_until(addr: &str, id: u64, want: &str, timeout: Duration) -> Json {
    let deadline = Instant::now() + timeout;
    loop {
        let resp = http_call(addr, "GET", &format!("/v1/jobs/{id}?wait_ms=2000"), "")
            .expect("status call");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let status = Json::parse(&resp.body).expect("status parses");
        let state = status
            .get("state")
            .and_then(Json::as_str)
            .expect("state field")
            .to_string();
        if state == want {
            return status;
        }
        assert!(
            matches!(state.as_str(), "queued" | "running"),
            "job {id} landed in `{state}` while waiting for `{want}`: {}",
            resp.body
        );
        assert!(
            Instant::now() < deadline,
            "timed out waiting for job {id} to reach {want}"
        );
    }
}

#[test]
fn served_fig4_sweep_is_bit_identical_to_in_process() {
    let spec = tiny_fig4_spec();

    // Reference: the library path, no daemon involved.
    let reference = Campaign::new(spec.clone()).workers(2).run().unwrap();
    let reference_doc = report_deterministic_json(&reference);
    let reference_digest = reference.deterministic_digest();

    let root = fresh_root("fig4");
    let (server, addr) = start_server(&root);

    let status = submit(&addr, "/v1/campaigns", &spec_to_json(&spec));
    let id = job_id(&status);
    let state = status.get("state").and_then(Json::as_str).unwrap();
    assert!(
        state == "queued" || state == "running",
        "fresh job in unexpected state {state}"
    );
    assert_eq!(status.get("grid").and_then(Json::as_u64), Some(10));

    // The event stream long-polls: the started event arrives promptly.
    let resp = http_call(
        &addr,
        "GET",
        &format!("/v1/jobs/{id}/events?from=0&wait_ms=5000"),
        "",
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(
        resp.body.contains("campaign_started"),
        "first poll should see the started event: {}",
        resp.body
    );

    let done = poll_until(&addr, id, "done", Duration::from_secs(180));
    assert_eq!(
        done.get("digest").and_then(Json::as_u64),
        Some(reference_digest),
        "served digest diverges from the in-process run"
    );
    assert_eq!(done.get("items_done").and_then(Json::as_u64), Some(10));

    // The deterministic result document is byte-identical to the
    // in-process encoding.
    let resp = http_call(
        &addr,
        "GET",
        &format!("/v1/jobs/{id}/result?view=deterministic"),
        "",
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.body, reference_doc,
        "served deterministic document differs from the library path"
    );

    // The full document carries the non-deterministic extras.
    let resp = http_call(&addr, "GET", &format!("/v1/jobs/{id}/result"), "").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("\"wall_s\""), "{}", resp.body);

    // After completion the event stream is closed and replays from 0.
    let resp = http_call(
        &addr,
        "GET",
        &format!("/v1/jobs/{id}/events?from=0&wait_ms=100"),
        "",
    )
    .unwrap();
    let events = Json::parse(&resp.body).unwrap();
    assert_eq!(events.get("closed").and_then(Json::as_bool), Some(true));
    assert!(
        events
            .get("events")
            .and_then(Json::as_arr)
            .is_some_and(|e| !e.is_empty()),
        "{}",
        resp.body
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn kill_mid_campaign_then_restart_resumes_bit_exactly() {
    let spec = tiny_fig4_spec();
    let reference = Campaign::new(spec.clone()).run().unwrap();
    let reference_doc = report_deterministic_json(&reference);

    // The acceptance gate: interrupt at a journaled checkpoint, kill the
    // daemon, boot a fresh one on the same data dir, and the resumed job
    // merges to a byte-identical deterministic document — at 1, 2, and 8
    // workers.
    for workers in [1usize, 2, 8] {
        let root = fresh_root(&format!("kill-w{workers}"));
        let (server, addr) = start_server(&root);
        let envelope = format!(
            r#"{{"spec":{},"workers":{workers},"halt_after":3}}"#,
            spec_to_json(&spec)
        );
        let status = submit(&addr, "/v1/campaigns", &envelope);
        let id = job_id(&status);

        let interrupted = poll_until(&addr, id, "interrupted", Duration::from_secs(180));
        let resumed_floor = interrupted
            .get("items_done")
            .and_then(Json::as_u64)
            .unwrap();
        assert!(
            (3..10).contains(&resumed_floor),
            "halt_after=3 should stop partway, got {resumed_floor} items"
        );

        // Kill the daemon (graceful drain, but the job stays interrupted).
        server.shutdown();

        // Restart over the same journal root: the job re-queues, resumes
        // past the journaled runs, and completes.
        let (server, addr) = start_server(&root);
        let done = poll_until(&addr, id, "done", Duration::from_secs(180));
        assert_eq!(
            done.get("items_resumed").and_then(Json::as_u64),
            Some(resumed_floor),
            "resume should skip exactly the journaled runs"
        );
        assert_eq!(
            done.get("digest").and_then(Json::as_u64),
            Some(reference.deterministic_digest())
        );
        let resp = http_call(
            &addr,
            "GET",
            &format!("/v1/jobs/{id}/result?view=deterministic"),
            "",
        )
        .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.body, reference_doc,
            "workers={workers}: resumed document differs from uninterrupted run"
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn job_journaled_with_a_batch_knob_resumes_per_item_bit_exactly() {
    // Daemons before batching was removed accepted `"batch": N` and stored
    // it in job.json. Such a job, killed mid-campaign, must come back on a
    // current daemon, run per item, and merge to the uninterrupted digest.
    let spec = tiny_fig4_spec();
    let reference = Campaign::new(spec.clone()).run().unwrap();
    let root = fresh_root("legacy-batch");
    let (server, addr) = start_server(&root);
    let envelope = format!(
        r#"{{"spec":{},"workers":2,"halt_after":3,"batch":64}}"#,
        spec_to_json(&spec)
    );
    let id = job_id(&submit(&addr, "/v1/campaigns", &envelope));
    let interrupted = poll_until(&addr, id, "interrupted", Duration::from_secs(180));
    assert_eq!(
        interrupted.get("batch"),
        None,
        "status no longer reports batch"
    );
    server.shutdown();

    // Rewrite job.json the way the older daemon stored it.
    let job_json = root.join(format!("job-{id}")).join("job.json");
    let Json::Obj(mut fields) = Json::parse(&std::fs::read_to_string(&job_json).unwrap()).unwrap()
    else {
        panic!("job.json is an object");
    };
    fields.retain(|(k, _)| k != "batch");
    fields.push(("batch".into(), Json::U64(64)));
    std::fs::write(&job_json, Json::Obj(fields).encode()).unwrap();

    let (server, addr) = start_server(&root);
    let done = poll_until(&addr, id, "done", Duration::from_secs(180));
    assert_eq!(done.get("batch"), None);
    assert_eq!(done.get("items_resumed").and_then(Json::as_u64), Some(3));
    assert_eq!(
        done.get("digest").and_then(Json::as_u64),
        Some(reference.deterministic_digest())
    );
    let resp = http_call(
        &addr,
        "GET",
        &format!("/v1/jobs/{id}/result?view=deterministic"),
        "",
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, report_deterministic_json(&reference));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn legacy_flat_journal_migrates_and_resumes_bit_exactly() {
    // Daemons before the segmented store journaled a job to a flat
    // `job-<id>/journal.jsonl`. Such a job, killed mid-append, must come
    // back on a current daemon: the file becomes the journal's first
    // segment, its torn final line is repaired, and the job resumes.
    let spec = tiny_fig4_spec();
    let reference = Campaign::new(spec.clone()).run().unwrap();
    let root = fresh_root("legacy-journal");
    let (server, addr) = start_server(&root);
    let envelope = format!(
        r#"{{"spec":{},"workers":2,"halt_after":3}}"#,
        spec_to_json(&spec)
    );
    let id = job_id(&submit(&addr, "/v1/campaigns", &envelope));
    poll_until(&addr, id, "interrupted", Duration::from_secs(180));
    server.shutdown();

    // Rewrite the journal the way the older daemon stored it, torn by a
    // kill in the middle of its next append.
    let job_dir = root.join(format!("job-{id}"));
    let journal_dir = job_dir.join("journal");
    let mut segments: Vec<_> = std::fs::read_dir(&journal_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segments.sort();
    let mut flat = String::new();
    for segment in &segments {
        flat.push_str(&std::fs::read_to_string(segment).unwrap());
    }
    let last = flat.lines().last().expect("the halted run journaled lines");
    let torn = last[..last.len() / 2].to_string();
    flat.push_str(&torn);
    std::fs::remove_dir_all(&journal_dir).unwrap();
    std::fs::write(job_dir.join("journal.jsonl"), flat).unwrap();

    let (server, addr) = start_server(&root);
    let done = poll_until(&addr, id, "done", Duration::from_secs(180));
    assert_eq!(done.get("items_resumed").and_then(Json::as_u64), Some(3));
    assert_eq!(
        done.get("digest").and_then(Json::as_u64),
        Some(reference.deterministic_digest())
    );
    let resp = http_call(
        &addr,
        "GET",
        &format!("/v1/jobs/{id}/result?view=deterministic"),
        "",
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, report_deterministic_json(&reference));
    assert!(!job_dir.join("journal.jsonl").exists());
    assert!(journal_dir.join("seg-000000.jsonl").exists());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_torn_result_document_is_rewritten_byte_identically_on_restart() {
    let spec = tiny_fig4_spec();
    let root = fresh_root("torn-result");
    let (server, addr) = start_server(&root);
    let envelope = format!(r#"{{"spec":{},"workers":2}}"#, spec_to_json(&spec));
    let id = job_id(&submit(&addr, "/v1/campaigns", &envelope));
    let done = poll_until(&addr, id, "done", Duration::from_secs(180));
    let digest = done.get("digest").and_then(Json::as_u64);
    let det_path = format!("/v1/jobs/{id}/result?view=deterministic");
    let original = http_call(&addr, "GET", &det_path, "").unwrap();
    assert_eq!(original.status, 200);
    server.shutdown();

    // A kill while `result.json` was being written.
    let result = root.join(format!("job-{id}")).join("result.json");
    let bytes = std::fs::read(&result).unwrap();
    std::fs::write(&result, &bytes[..bytes.len() / 2]).unwrap();

    // The restarted daemon re-queues the job instead of serving the torn
    // bytes, and the resume (every run journaled) rewrites both documents.
    let (server, addr) = start_server(&root);
    let done = poll_until(&addr, id, "done", Duration::from_secs(180));
    assert_eq!(done.get("digest").and_then(Json::as_u64), digest);
    let rewritten = http_call(&addr, "GET", &det_path, "").unwrap();
    assert_eq!(rewritten.status, 200);
    assert_eq!(rewritten.body, original.body);
    let full = http_call(&addr, "GET", &format!("/v1/jobs/{id}/result"), "").unwrap();
    assert_eq!(full.status, 200);
    let full = Json::parse(&full.body).expect("the full document is whole again");
    assert_eq!(full.get("digest").and_then(Json::as_u64), digest);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn served_check_matches_in_process_and_streams_verdicts() {
    use gecko_check::{CheckCampaign, CheckSpec, ExploreConfig};
    use gecko_serve::wire::{check_report_deterministic_json, check_spec_to_json};

    let spec = CheckSpec::new("serve-check")
        .app_names(&["blink"])
        .unwrap()
        .schemes([SchemeKind::Gecko])
        .explore(ExploreConfig::default().with_max_windows(48))
        .chunk_windows(16);

    let reference = CheckCampaign::new(spec.clone()).workers(2).run().unwrap();
    let reference_doc = check_report_deterministic_json(&reference);

    let root = fresh_root("check");
    let (server, addr) = start_server(&root);
    let status = submit(&addr, "/v1/checks", &check_spec_to_json(&spec));
    let id = job_id(&status);
    assert_eq!(status.get("kind").and_then(Json::as_str), Some("check"));

    let done = poll_until(&addr, id, "done", Duration::from_secs(180));
    assert_eq!(
        done.get("digest").and_then(Json::as_u64),
        Some(reference.deterministic_digest())
    );
    let resp = http_call(
        &addr,
        "GET",
        &format!("/v1/jobs/{id}/result?view=deterministic"),
        "",
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, reference_doc);

    // The check's verdict events flowed through the same stream.
    let resp = http_call(
        &addr,
        "GET",
        &format!("/v1/jobs/{id}/events?from=0&wait_ms=100"),
        "",
    )
    .unwrap();
    assert!(resp.body.contains("check_started"), "{}", resp.body);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn cancel_over_http_drains_to_a_cancelled_checkpoint() {
    // A sweep big enough to still be running when the cancel lands.
    let spec = CampaignSpec::new("cancel-me")
        .apps(["blink", "crc16"])
        .schemes([SchemeKind::Gecko, SchemeKind::Nvp])
        .seeds([1, 2, 3, 4, 5, 6])
        .workload(Workload::RunFor { seconds: 0.01 });

    let root = fresh_root("cancel");
    let (server, addr) = start_server(&root);
    let status = submit(&addr, "/v1/campaigns", &spec_to_json(&spec));
    let id = job_id(&status);

    let resp = http_call(&addr, "DELETE", &format!("/v1/jobs/{id}"), "").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    let done = poll_until(&addr, id, "cancelled", Duration::from_secs(180));
    assert_eq!(done.get("state").and_then(Json::as_str), Some("cancelled"));

    // No result for a cancelled job — 409 names the state.
    let resp = http_call(&addr, "GET", &format!("/v1/jobs/{id}/result"), "").unwrap();
    assert_eq!(resp.status, 409);
    assert!(resp.body.contains("cancelled"), "{}", resp.body);

    // And the job list still carries it.
    let resp = http_call(&addr, "GET", "/v1/jobs", "").unwrap();
    assert!(resp.body.contains("\"cancel-me\""), "{}", resp.body);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn daemon_shutdown_mid_job_is_a_clean_checkpoint() {
    // Graceful shutdown while a job is running: workers journal the run
    // they are on, the job parks as interrupted, and a restart resumes it
    // to the same digest as an uninterrupted run — the "no abandoned
    // workers" guarantee, driven through the public API.
    let spec = tiny_fig4_spec();
    let reference_digest = Campaign::new(spec.clone())
        .run()
        .unwrap()
        .deterministic_digest();

    let root = fresh_root("drain");
    let (server, addr) = start_server(&root);
    let status = submit(&addr, "/v1/campaigns", &spec_to_json(&spec));
    let id = job_id(&status);

    // Let it get going, then shut the daemon down under it.
    let _ = http_call(
        &addr,
        "GET",
        &format!("/v1/jobs/{id}/events?from=0&wait_ms=5000"),
        "",
    );
    server.shutdown();

    let (server, addr) = start_server(&root);
    let done = poll_until(&addr, id, "done", Duration::from_secs(180));
    assert_eq!(
        done.get("digest").and_then(Json::as_u64),
        Some(reference_digest),
        "post-drain resume must merge bit-exactly"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn capacity_limits_surface_as_conflict() {
    let root = fresh_root("limits");
    let cfg = ServeConfig {
        bind: "127.0.0.1:0".to_string(),
        journal_root: root.clone(),
        max_items_per_job: 4,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr().to_string();

    // 10-item fig4 grid against a 4-item cap.
    let resp = http_call(
        &addr,
        "POST",
        "/v1/campaigns",
        &spec_to_json(&tiny_fig4_spec()),
    )
    .unwrap();
    assert_eq!(resp.status, 409, "{}", resp.body);
    assert!(resp.body.contains("limit"), "{}", resp.body);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
