//! `serve_unix_socket`: one warm cache shared across connections, a
//! `shutdown` frame that ends the server and removes its socket, and a
//! socket path that never replaces a file that is not a socket.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use primepar_obs::{parse_json, Json};
use primepar_service::{
    request_json, serve_unix_socket, Error, PlanRequest, ServeOptions, SERVICE_SCHEMA,
};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("primepar-socket-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// Opens one connection (retrying while the server binds), sends `frames`,
/// half-closes, and returns every response up to and including `bye`.
fn session(path: &Path, frames: &[String]) -> Vec<Json> {
    let started = Instant::now();
    let mut stream = loop {
        match UnixStream::connect(path) {
            Ok(stream) => break stream,
            Err(_) if started.elapsed() < Duration::from_secs(10) => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("connect {}: {e}", path.display()),
        }
    };
    for frame in frames {
        writeln!(stream, "{frame}").expect("send");
    }
    stream.shutdown(Shutdown::Write).expect("half-close");
    BufReader::new(stream)
        .lines()
        .map(|line| parse_json(&line.expect("read")).expect("response json"))
        .collect()
}

fn plan_frame(id: &str) -> String {
    let req = PlanRequest::builder("opt-6.7b")
        .id(id)
        .devices(4)
        .seq(512)
        .layers(Some(1))
        .build();
    request_json(&req).render()
}

fn memo_hit(doc: &Json) -> Option<bool> {
    doc.get("cache")
        .and_then(|c| c.get("plan_cache_hit"))
        .and_then(Json::as_bool)
}

#[test]
fn connections_share_the_warm_cache_and_shutdown_removes_the_socket() {
    let path = scratch("serve.sock");
    // A socket left behind by an earlier server is stale: it is replaced.
    drop(UnixListener::bind(&path).expect("stale socket"));
    let server = {
        let path = path.clone();
        std::thread::spawn(move || {
            serve_unix_socket(
                &path,
                &ServeOptions {
                    workers: 1,
                    ..ServeOptions::default()
                },
            )
        })
    };

    let first = session(&path, &[plan_frame("c1")]);
    assert_eq!(first.len(), 2, "c1 and bye: {first:?}");
    assert_eq!(memo_hit(&first[0]), Some(false), "the first plan is cold");

    let second = session(&path, &[plan_frame("c2")]);
    assert_eq!(second.len(), 2, "c2 and bye: {second:?}");
    assert_eq!(
        memo_hit(&second[0]),
        Some(true),
        "a second connection is served from the shared memo"
    );
    assert_eq!(
        first[0].get("plan_text").and_then(Json::as_str),
        second[0].get("plan_text").and_then(Json::as_str)
    );

    let shutdown = format!(r#"{{"schema_version":"{SERVICE_SCHEMA}","type":"shutdown"}}"#);
    let last = session(&path, &[shutdown]);
    assert_eq!(
        last.last()
            .and_then(|doc| doc.get("type"))
            .and_then(Json::as_str),
        Some("bye")
    );
    let end = server.join().expect("server thread").expect("server ends");
    assert_eq!((end.requests, end.errors, end.shutdown), (2, 0, true));
    assert!(!path.exists(), "shutdown removes the socket");
}

#[test]
fn a_regular_file_at_the_socket_path_is_refused_and_kept() {
    let path = scratch("notes.txt");
    std::fs::write(&path, "keep me").expect("write");
    let verdict = serve_unix_socket(&path, &ServeOptions::default());
    assert!(matches!(verdict, Err(Error::Config(_))), "{verdict:?}");
    assert_eq!(
        std::fs::read_to_string(&path).expect("still there"),
        "keep me"
    );
    std::fs::remove_file(&path).ok();
}
