//! End-to-end tests of `primepar serve` and the typed exit codes, invoking
//! the actual binary and speaking the line protocol over stdin/stdout.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

use primepar::api::{cancel_json, request_json, PlanRequest};
use primepar::obs::{parse_json, Json};
use primepar::service::{stats_request_json, MAX_FRAME_BYTES};

/// Runs `primepar serve` with `input` piped to stdin, returning
/// (exit-ok, stdout, stderr).
fn serve(input: &str, extra: &[&str]) -> (bool, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_primepar"))
        .arg("serve")
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("serve exits");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn exit_code(args: &[&str]) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_primepar"))
        .args(args)
        .output()
        .expect("binary runs")
        .status
        .code()
        .expect("exit code")
}

fn small_request(id: &str) -> PlanRequest {
    PlanRequest::builder("opt-6.7b")
        .id(id)
        .devices(4)
        .seq(512)
        .layers(Some(2))
        .build()
}

/// The Table-2 point (OPT-6.7B, 16 devices, batch 8, sequence 2048): it
/// plans cold about 25 times slower than [`small_request`], so it holds a
/// worker while the frames after it are read.
fn expensive_request(id: &str) -> PlanRequest {
    PlanRequest::builder("opt-6.7b").id(id).devices(16).build()
}

fn response_lines(stdout: &str) -> Vec<Json> {
    stdout
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse_json(l).expect("response frame parses"))
        .collect()
}

fn str_field<'j>(doc: &'j Json, key: &str) -> &'j str {
    doc.get(key).and_then(Json::as_str).unwrap_or_default()
}

#[test]
fn serve_answers_repeats_from_the_plan_memo_bitwise_identically() {
    let mut input = String::new();
    for id in ["r1", "r2"] {
        input.push_str(&request_json(&small_request(id)).render());
        input.push('\n');
    }
    input.push_str("{\"schema_version\":\"primepar.service.v2\",\"type\":\"shutdown\"}\n");

    let (ok, stdout, stderr) = serve(&input, &["--workers", "1"]);
    assert!(ok, "serve failed: {stderr}");
    let frames = response_lines(&stdout);
    assert_eq!(frames.len(), 3, "r1 + r2 + bye, got:\n{stdout}");

    let (r1, r2) = (&frames[0], &frames[1]);
    assert_eq!(str_field(r1, "id"), "r1");
    assert_eq!(str_field(r2, "id"), "r2");
    for frame in [r1, r2] {
        // Responses are always tagged with the current protocol version.
        assert_eq!(str_field(frame, "schema_version"), "primepar.service.v2");
        assert_eq!(frame.get("ok").and_then(Json::as_bool), Some(true));
    }
    let hit = |f: &Json| {
        f.get("cache")
            .and_then(|c| c.get("plan_cache_hit"))
            .and_then(Json::as_bool)
    };
    assert_eq!(hit(r1), Some(false), "first request must plan cold");
    assert_eq!(hit(r2), Some(true), "identical repeat must hit the memo");
    let plan_text = str_field(r1, "plan_text");
    assert!(!plan_text.is_empty());
    assert_eq!(
        plan_text.as_bytes(),
        str_field(r2, "plan_text").as_bytes(),
        "served repeats must be byte-identical"
    );
    assert_eq!(str_field(&frames[2], "type"), "bye");
    assert!(
        stderr.contains("2 request(s)"),
        "summary on stderr: {stderr}"
    );
}

#[test]
fn untagged_and_v1_frames_are_rejected_in_band() {
    let frame = request_json(&small_request("old"));
    let untagged = match &frame {
        Json::Obj(entries) => Json::Obj(
            entries
                .iter()
                .filter(|(k, _)| k != "schema_version")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    };
    let mut v1 = frame.clone();
    v1.set("schema_version", "primepar.service.v1");
    let input = format!(
        "{}\n{}\n{}\n{{\"schema_version\":\"primepar.service.v2\",\"type\":\"shutdown\"}}\n",
        untagged.render(),
        v1.render(),
        request_json(&small_request("new")).render()
    );
    let (ok, stdout, stderr) = serve(&input, &["--workers", "1"]);
    assert!(ok, "serve failed: {stderr}");
    let frames = response_lines(&stdout);
    assert_eq!(frames.len(), 4, "two errors, new, bye:\n{stdout}");
    for error in &frames[..2] {
        assert_eq!(str_field(error, "type"), "error");
        let error = error.get("error").expect("error body");
        assert_eq!(str_field(error, "kind"), "protocol");
        let message = str_field(error, "message");
        assert!(
            message.contains("primepar.service.v2") && message.contains("CHANGELOG"),
            "the rejection names the current tag and the migration notes: {message}"
        );
    }
    assert_eq!(str_field(&frames[2], "id"), "new");
    assert_eq!(frames[2].get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(str_field(&frames[3], "type"), "bye");
}

#[test]
fn protocol_errors_stay_in_band_and_the_session_survives() {
    let mut input = String::from("this is not json\n");
    input.push_str(&request_json(&small_request("after")).render());
    input.push('\n');
    input.push_str("{\"schema_version\":\"primepar.service.v2\",\"type\":\"shutdown\"}\n");
    let (ok, stdout, stderr) = serve(&input, &["--workers", "1"]);
    assert!(ok, "serve failed: {stderr}");
    let frames = response_lines(&stdout);
    let error = &frames[0];
    assert_eq!(error.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        error
            .get("error")
            .map(|e| str_field(e, "kind").to_owned())
            .unwrap_or_default(),
        "protocol"
    );
    assert_eq!(str_field(&frames[1], "id"), "after");
    assert_eq!(frames[1].get("ok").and_then(Json::as_bool), Some(true));
}

#[test]
fn deeply_nested_frames_get_a_protocol_error_and_the_session_survives() {
    // A frame nested far past the JSON depth limit is refused in-band like
    // any other malformed frame, without overflowing the parser's stack,
    // and the next request is served.
    let mut input = "[".repeat(100_000);
    input.push('\n');
    input.push_str(&request_json(&small_request("after")).render());
    input.push('\n');
    let (ok, stdout, stderr) = serve(&input, &["--workers", "1"]);
    assert!(ok, "serve failed: {stderr}");
    let frames = response_lines(&stdout);
    let errors: Vec<&Json> = frames
        .iter()
        .filter(|f| f.get("ok").and_then(Json::as_bool) == Some(false))
        .collect();
    assert_eq!(errors.len(), 1, "{stdout}");
    let kind = errors[0].get("error").map(|e| str_field(e, "kind"));
    assert_eq!(kind, Some("protocol"));
    let replies: Vec<&Json> = frames
        .iter()
        .filter(|f| str_field(f, "id") == "after")
        .collect();
    assert_eq!(replies.len(), 1, "{stdout}");
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(true));
}

#[test]
fn over_long_frames_get_a_protocol_error_and_the_session_survives() {
    // A line one byte past the frame cap is skipped without being buffered
    // whole and refused in-band; the plan frame after it is served.
    let mut input = format!("{{\"pad\":\"{}\"}}", "a".repeat(MAX_FRAME_BYTES));
    assert!(input.len() > MAX_FRAME_BYTES);
    input.push('\n');
    input.push_str(&request_json(&small_request("after")).render());
    input.push('\n');
    let (ok, stdout, stderr) = serve(&input, &["--workers", "1"]);
    assert!(ok, "serve failed: {stderr}");
    let frames = response_lines(&stdout);
    let errors: Vec<&Json> = frames
        .iter()
        .filter(|f| f.get("ok").and_then(Json::as_bool) == Some(false))
        .collect();
    assert_eq!(errors.len(), 1, "{stdout}");
    let error = errors[0].get("error").expect("error object");
    assert_eq!(str_field(error, "kind"), "protocol");
    assert!(
        str_field(error, "message").contains("longer than"),
        "{stdout}"
    );
    let reply = by_id(&frames, "after");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
}

fn by_id<'j>(frames: &'j [Json], id: &str) -> &'j Json {
    frames
        .iter()
        .find(|f| str_field(f, "id") == id)
        .unwrap_or_else(|| panic!("no response for id {id}"))
}

fn u64_field(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key).and_then(Json::as_u64)
}

#[test]
fn interleaved_cancels_stay_in_band_under_load() {
    // One worker: "busy" occupies it while "doomed-rid" and "doomed-id" sit
    // queued; one is cancelled by server-assigned request_id, the other by
    // client id. Both must answer in-band as cancelled, and the session must
    // keep serving afterwards.
    let mut input = String::new();
    input.push_str(&request_json(&expensive_request("busy")).render());
    input.push('\n');
    for id in ["doomed-rid", "doomed-id"] {
        input.push_str(&request_json(&small_request(id)).render());
        input.push('\n');
    }
    // "busy" was accepted first, so the queued requests are ids 2 and 3.
    input.push_str(
        "{\"schema_version\":\"primepar.service.v2\",\"type\":\"cancel\",\"request_id\":2}\n",
    );
    input.push_str(
        "{\"schema_version\":\"primepar.service.v2\",\"type\":\"cancel\",\"id\":\"doomed-id\"}\n",
    );
    input.push_str(&request_json(&small_request("after")).render());
    input.push('\n');
    input.push_str("{\"schema_version\":\"primepar.service.v2\",\"type\":\"shutdown\"}\n");

    let (ok, stdout, stderr) = serve(&input, &["--workers", "1"]);
    assert!(ok, "serve failed: {stderr}");
    let frames = response_lines(&stdout);

    for id in ["busy", "after"] {
        let f = by_id(&frames, id);
        assert_eq!(
            f.get("ok").and_then(Json::as_bool),
            Some(true),
            "{id} must be served despite the surrounding cancels:\n{stdout}"
        );
    }
    for id in ["doomed-rid", "doomed-id"] {
        let f = by_id(&frames, id);
        assert_eq!(f.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            f.get("error").map(|e| str_field(e, "kind").to_owned()),
            Some("cancelled".into()),
            "{id} must answer an in-band cancelled error:\n{stdout}"
        );
    }
    // Every plan response carries the server-assigned submission-order id.
    assert_eq!(u64_field(by_id(&frames, "busy"), "request_id"), Some(1));
    assert_eq!(
        u64_field(by_id(&frames, "doomed-rid"), "request_id"),
        Some(2)
    );
    assert_eq!(
        u64_field(by_id(&frames, "doomed-id"), "request_id"),
        Some(3)
    );
    assert_eq!(u64_field(by_id(&frames, "after"), "request_id"), Some(4));
}

#[test]
fn cheap_requests_overtake_expensive_ones_out_of_order() {
    // Two workers, an expensive request submitted before a cheap one: the
    // cheap response must be emitted first, correlated by request_id.
    let slow = expensive_request("slow");
    let mut input = String::new();
    input.push_str(&request_json(&slow).render());
    input.push('\n');
    input.push_str(&request_json(&small_request("fast")).render());
    input.push('\n');
    input.push_str("{\"schema_version\":\"primepar.service.v2\",\"type\":\"shutdown\"}\n");

    let (ok, stdout, stderr) = serve(&input, &["--workers", "2"]);
    assert!(ok, "serve failed: {stderr}");
    let frames = response_lines(&stdout);
    assert_eq!(
        str_field(&frames[0], "id"),
        "fast",
        "out-of-order:\n{stdout}"
    );
    assert_eq!(u64_field(&frames[0], "request_id"), Some(2));
    assert_eq!(str_field(&frames[1], "id"), "slow");
    assert_eq!(u64_field(&frames[1], "request_id"), Some(1));
    for f in &frames[..2] {
        assert_eq!(f.get("ok").and_then(Json::as_bool), Some(true));
    }
}

#[test]
fn cache_file_persists_warm_state_across_serve_restarts() {
    let dir =
        std::env::temp_dir().join(format!("primepar_service_cli_cache_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cache = dir.join("warm.cache.json");
    let cache_arg = cache.to_str().expect("utf-8 temp path");

    let input = format!(
        "{}\n{{\"schema_version\":\"primepar.service.v2\",\"type\":\"shutdown\"}}\n",
        request_json(&small_request("first")).render()
    );
    let (ok, stdout1, stderr) = serve(&input, &["--workers", "1", "--cache-file", cache_arg]);
    assert!(ok, "first session failed: {stderr}");
    assert!(cache.exists(), "shutdown must dump the warm cache");

    let input = format!(
        "{}\n{{\"schema_version\":\"primepar.service.v2\",\"type\":\"shutdown\"}}\n",
        request_json(&small_request("second")).render()
    );
    let (ok, stdout2, stderr) = serve(&input, &["--workers", "1", "--cache-file", cache_arg]);
    assert!(ok, "second session failed: {stderr}");

    let first = response_lines(&stdout1);
    let second = response_lines(&stdout2);
    let hit = |f: &Json| {
        f.get("cache")
            .and_then(|c| c.get("plan_cache_hit"))
            .and_then(Json::as_bool)
    };
    assert_eq!(hit(by_id(&first, "first")), Some(false));
    assert_eq!(
        hit(by_id(&second, "second")),
        Some(true),
        "restored cache must serve a memo hit:\n{stdout2}"
    );
    assert_eq!(
        str_field(by_id(&first, "first"), "plan_text").as_bytes(),
        str_field(by_id(&second, "second"), "plan_text").as_bytes(),
        "restored plan must be byte-identical"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// One plan key of the scripted session: only the layer count varies.
fn session_request(id: &str, layers: u64) -> PlanRequest {
    PlanRequest::builder("opt-6.7b")
        .id(id)
        .devices(4)
        .batch(8)
        .seq(256)
        .layers(Some(layers))
        .build()
}

#[test]
fn scripted_session_answers_every_request_and_hits_repeats() {
    // A fixed transcript over four workers: 4 unique keys, planned cold,
    // then 20 repeats of those keys with 3 of them cancelled by request_id,
    // a live stats probe and a shutdown. The repeats are sent once every
    // unique key has answered, so each one that is not cancelled is a memo
    // hit.
    const UNIQUE: u64 = 4;
    const REPEATS: u64 = 20;
    let stats_out = std::env::temp_dir().join(format!(
        "primepar_service_cli_session_{}.stats.json",
        std::process::id()
    ));
    let mut child = Command::new(env!("CARGO_BIN_EXE_primepar"))
        .args(["serve", "--workers", "4", "--stats-out"])
        .arg(&stats_out)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut frames = Vec::new();

    for i in 0..UNIQUE {
        let frame = request_json(&session_request(&format!("u{i}"), 1 + i)).render();
        writeln!(stdin, "{frame}").expect("send");
    }
    stdin.flush().expect("flush");
    while frames.len() < UNIQUE as usize {
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read");
        assert!(!line.is_empty(), "serve exited during the unique phase");
        frames.push(parse_json(&line).expect("response frame parses"));
    }

    // Server request ids count submissions from 1: repeat `j` is `UNIQUE + 1 + j`.
    let cancelled_ids = [UNIQUE + 3, UNIQUE + 10, UNIQUE + 17];
    for j in 0..REPEATS {
        let frame = request_json(&session_request(&format!("r{j}"), 1 + j % UNIQUE)).render();
        writeln!(stdin, "{frame}").expect("send");
        let request_id = UNIQUE + 1 + j;
        if cancelled_ids.contains(&request_id) {
            writeln!(stdin, "{}", cancel_json(None, Some(request_id)).render()).expect("send");
        }
    }
    writeln!(stdin, "{}", stats_request_json(None).render()).expect("send");
    writeln!(
        stdin,
        "{{\"schema_version\":\"primepar.service.v2\",\"type\":\"shutdown\"}}"
    )
    .expect("send");
    drop(stdin);
    for line in stdout.lines() {
        frames.push(parse_json(&line.expect("read")).expect("response frame parses"));
    }
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Every plan id is answered exactly once, and the session ends with bye.
    let mut ids: Vec<&str> = frames
        .iter()
        .filter(|f| u64_field(f, "request_id").is_some())
        .map(|f| str_field(f, "id"))
        .collect();
    ids.sort_unstable();
    let mut expected: Vec<String> = (0..UNIQUE)
        .map(|i| format!("u{i}"))
        .chain((0..REPEATS).map(|j| format!("r{j}")))
        .collect();
    expected.sort_unstable();
    assert_eq!(ids, expected);
    assert_eq!(
        frames.last().map(|f| str_field(f, "type")),
        Some("bye"),
        "the session ends with bye"
    );

    // Cancelled repeats answer in-band (a cancel may lose the race to its
    // memo hit); every other repeat is served, at least 80% from the memo.
    let hit = |f: &Json| {
        f.get("cache")
            .and_then(|c| c.get("plan_cache_hit"))
            .and_then(Json::as_bool)
            == Some(true)
    };
    let (mut served, mut hits, mut cancelled) = (0usize, 0usize, 0u64);
    for j in 0..REPEATS {
        let f = by_id(&frames, &format!("r{j}"));
        if f.get("ok").and_then(Json::as_bool) == Some(true) {
            served += 1;
            hits += usize::from(hit(f));
        } else {
            assert!(
                cancelled_ids.contains(&(UNIQUE + 1 + j)),
                "only cancelled repeats may fail: {}",
                f.render()
            );
            assert_eq!(
                f.get("error").map(|e| str_field(e, "kind").to_owned()),
                Some("cancelled".into())
            );
            cancelled += 1;
        }
    }
    assert!(
        hits * 5 >= served * 4,
        "{hits} of {served} served repeats hit the memo (floor 80%)"
    );
    for i in 0..UNIQUE {
        let f = by_id(&frames, &format!("u{i}"));
        assert_eq!(f.get("ok").and_then(Json::as_bool), Some(true));
    }

    // The live probe counted every submission; the shutdown snapshot
    // accounts for each one as completed, the cancelled ones as errors.
    let live = frames
        .iter()
        .find(|f| str_field(f, "type") == "stats")
        .and_then(|f| f.get("stats"))
        .and_then(|s| s.get("requests"))
        .expect("stats response");
    assert_eq!(u64_field(live, "submitted"), Some(UNIQUE + REPEATS));
    let dump = parse_json(&std::fs::read_to_string(&stats_out).expect("stats dump")).expect("json");
    let requests = dump.get("requests").expect("requests section");
    assert_eq!(u64_field(requests, "submitted"), Some(UNIQUE + REPEATS));
    assert_eq!(u64_field(requests, "completed"), Some(UNIQUE + REPEATS));
    assert_eq!(u64_field(requests, "errors"), Some(cancelled));
    assert_eq!(u64_field(requests, "queue_depth"), Some(0));
    std::fs::remove_file(&stats_out).ok();
}

#[test]
fn error_variants_map_to_distinct_exit_codes() {
    // config: unknown model.
    assert_eq!(
        exit_code(&["plan", "--model", "noop-13b", "--devices", "4"]),
        2
    );
    // config: unknown command.
    assert_eq!(exit_code(&["frobnicate"]), 2);
    // topology: non-power-of-two device count.
    assert_eq!(
        exit_code(&["plan", "--model", "opt-6.7b", "--devices", "3"]),
        3
    );
    // protocol: loading a plan file that does not parse.
    let bad = std::env::temp_dir().join("primepar_service_cli_bad_plan.txt");
    std::fs::write(&bad, "not a plan").expect("temp write");
    assert_eq!(
        exit_code(&[
            "plan",
            "--model",
            "opt-6.7b",
            "--devices",
            "4",
            "--seq",
            "512",
            "--plan",
            bad.to_str().expect("utf-8 temp path"),
        ]),
        4
    );
    // success path still exits 0.
    assert_eq!(exit_code(&["models"]), 0);
}

#[test]
fn slow_ms_under_the_logical_clock_is_a_config_error() {
    // Whether a request is slow is a wall-clock verdict, and `request.slow`
    // carries wall-clock stage times: it cannot ride in an event log that
    // promises byte-identical reruns.
    assert_eq!(
        exit_code(&["serve", "--logical-clock", "--slow-ms", "5"]),
        2
    );
    // Either flag alone still serves.
    assert_eq!(exit_code(&["serve", "--logical-clock"]), 0);
    assert_eq!(exit_code(&["serve", "--slow-ms", "5"]), 0);
}
