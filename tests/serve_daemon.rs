//! Process-boundary tests of the `membound-serve` daemon: the real
//! binary on a real socket, killed and restarted for the crash-safety
//! scenarios that in-process tests (`crates/serve/tests/daemon.rs`)
//! cannot express.
//!
//! * `SIGKILL` mid-run: the daemon dies with cells half-inserted; a
//!   restarted daemon on the same `--cache-dir` reproduces the serial
//!   digest, answers the already-simulated cells from the cache, and a
//!   further resubmission is fully warm (`misses=0`).
//! * `SIGTERM` with a job running: the daemon drains — the job streams
//!   to completion, the exit code is 0 and the socket file is removed.
//! * The `membound-cli serve` client round-trips the same digest over
//!   the wire as an in-process serial run.
//! * Hostile lines (200,000 nested `[`, a line past the length cap) are
//!   answered with `Error`; the daemon keeps serving and exits cleanly.

#![cfg(unix)]

use membound::core::runner::Engine;
use membound::serve::client::{SubmitOptions, SubmitOutcome};
use membound::serve::protocol::to_line;
use membound::serve::{Client, JobSpec, Request, Response};
use std::io::{BufRead as _, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SERVE_BIN: &str = env!("CARGO_BIN_EXE_membound-serve");
const CLI_BIN: &str = env!("CARGO_BIN_EXE_membound-cli");

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("membound_serve_proc")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn spawn_daemon(socket: &Path, jobs: u32, cache_dir: Option<&Path>) -> Child {
    let mut cmd = Command::new(SERVE_BIN);
    cmd.arg("--socket")
        .arg(socket)
        .args(["--jobs", &jobs.to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(dir) = cache_dir {
        cmd.arg("--cache-dir").arg(dir);
    }
    cmd.spawn().expect("spawn membound-serve")
}

/// Connect and complete a round-trip, retrying while the daemon boots
/// (or re-binds over a stale socket file left by a kill).
fn connect_within(socket: &Path, secs: u64) -> Client {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Ok(mut client) = Client::connect(socket) {
            if client.status(None).is_ok() {
                return client;
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon never became reachable on {socket:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn ladder(sizes: &[usize]) -> JobSpec {
    JobSpec::TransposeLadder {
        sizes: sizes.to_vec(),
        block: 16,
        device: Some("mango".into()),
    }
}

fn serial_digest(spec: &JobSpec) -> String {
    Engine::new(1)
        .run(&spec.matrix().expect("valid spec"))
        .combined_digest()
}

#[test]
fn sigkill_mid_run_then_restart_answers_from_the_surviving_cache() {
    let dir = tmp_dir("sigkill");
    let socket = dir.join("mb.sock");
    let cache = dir.join("cache");
    let spec = ladder(&[96, 128]);
    let want = serial_digest(&spec);

    // First daemon: kill it the instant the third cell has streamed.
    // Cache inserts land before a record reaches the stream, so at
    // least those cells survive the kill as warm entries.
    let mut child = spawn_daemon(&socket, 2, Some(&cache));
    let mut client = connect_within(&socket, 30);
    let mut cell_lines = 0u32;
    let interrupted = client.submit(&spec, &SubmitOptions::default(), |line| {
        if line.starts_with("{\"kind\":\"cell\"") {
            cell_lines += 1;
            if cell_lines == 3 {
                child.kill().expect("SIGKILL the daemon");
            }
        }
    });
    assert!(
        interrupted.is_err(),
        "the killed daemon cannot finish the exchange: {interrupted:?}"
    );
    assert!(cell_lines >= 3, "kill was triggered by streamed telemetry");
    child.wait().expect("reap killed daemon");
    assert!(socket.exists(), "SIGKILL leaves the stale socket file");

    // Second daemon: binds over the stale socket, reads the surviving
    // cache, and reproduces the canonical digest without re-simulating
    // what the first run persisted.
    let mut child = spawn_daemon(&socket, 2, Some(&cache));
    let mut client = connect_within(&socket, 30);
    match client
        .submit(&spec, &SubmitOptions::default(), |_| {})
        .expect("submit exchange")
    {
        SubmitOutcome::Done {
            digest,
            cells,
            cached,
            misses,
            ..
        } => {
            assert_eq!(digest.expect("digest"), want, "restart reproduces serial");
            assert!(cached >= 3, "cells inserted before the kill hit warm");
            assert_eq!(misses, cells - cached);
        }
        other => panic!("expected Done, got {other:?}"),
    }

    // Third submission: everything is cached now.
    match client
        .submit(&spec, &SubmitOptions::default(), |_| {})
        .expect("submit exchange")
    {
        SubmitOutcome::Done { digest, misses, .. } => {
            assert_eq!(misses, 0, "fully warm resubmission");
            assert_eq!(digest.expect("digest"), want);
        }
        other => panic!("expected Done, got {other:?}"),
    }

    client.shutdown().expect("shutdown request");
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "clean drain exits 0: {status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_drains_the_running_job_and_removes_the_socket() {
    let dir = tmp_dir("sigterm");
    let socket = dir.join("mb.sock");
    let spec = ladder(&[64]);
    let want = serial_digest(&spec);

    let mut child = spawn_daemon(&socket, 2, None);
    let pid = child.id().to_string();
    let mut client = connect_within(&socket, 30);

    // A job delayed at its first cell is mid-run when SIGTERM lands;
    // drain semantics require it to finish and stream out normally.
    let options = SubmitOptions {
        failpoint: Some("cell:delay=1000@0".into()),
        ..SubmitOptions::default()
    };
    let mut sent_term = false;
    let outcome = client
        .submit(&spec, &options, |line| {
            if !sent_term && line.starts_with("{\"kind\":\"header\"") {
                sent_term = true;
                let ok = Command::new("kill")
                    .args(["-TERM", &pid])
                    .status()
                    .expect("run kill");
                assert!(ok.success(), "kill -TERM failed");
            }
        })
        .expect("drain finishes the running job");
    assert!(sent_term, "SIGTERM was sent while the job streamed");
    match outcome {
        SubmitOutcome::Done { digest, .. } => {
            assert_eq!(digest.expect("digest"), want, "drained job is intact");
        }
        other => panic!("expected Done, got {other:?}"),
    }

    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "SIGTERM drain exits 0: {status:?}");
    assert!(!socket.exists(), "socket file removed on drain");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_client_round_trips_the_serial_digest() {
    let dir = tmp_dir("cli");
    let socket = dir.join("mb.sock");
    let spec = ladder(&[96]);
    let want = serial_digest(&spec);

    let mut child = spawn_daemon(&socket, 2, None);
    drop(connect_within(&socket, 30));

    let output = Command::new(CLI_BIN)
        .args([
            "serve",
            "submit",
            "--socket",
            socket.to_str().expect("utf8 socket path"),
            "--figure",
            "ladder",
            "--sizes",
            "96",
            "--device",
            "mango",
            "--quiet",
        ])
        .output()
        .expect("run membound-cli serve submit");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "cli submit failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        stdout.contains(&format!("digest={want}")),
        "cli summary carries the serial digest {want}: {stdout}"
    );

    let status = Command::new(CLI_BIN)
        .args([
            "serve",
            "shutdown",
            "--socket",
            socket.to_str().expect("utf8 socket path"),
        ])
        .status()
        .expect("run membound-cli serve shutdown");
    assert!(status.success(), "cli shutdown failed");
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "clean drain exits 0: {status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_lines_are_answered_with_errors_and_the_daemon_keeps_serving() {
    let dir = tmp_dir("hostile");
    let socket = dir.join("mb.sock");
    let spec = ladder(&[64]);
    let want = serial_digest(&spec);

    let mut child = spawn_daemon(&socket, 2, None);
    drop(connect_within(&socket, 30));

    let stream = UnixStream::connect(&socket).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut exchange = |line: &[u8]| -> Response {
        writer.write_all(line).expect("send line");
        writer.write_all(b"\n").expect("send newline");
        let mut answer = String::new();
        reader.read_line(&mut answer).expect("daemon answers");
        serde_json::from_str(answer.trim()).expect("a protocol line")
    };
    // Deep nesting: refused by the parser's depth limit.
    match exchange(&vec![b'['; 200_000]) {
        Response::Error { message } => assert!(message.contains("nesting"), "{message}"),
        other => panic!("expected Error, got {other:?}"),
    }
    // A line past the length cap: dropped through its newline.
    match exchange(&vec![b' '; 3 << 20]) {
        Response::Error { message } => assert!(message.contains("longer than"), "{message}"),
        other => panic!("expected Error, got {other:?}"),
    }
    // The same connection still speaks the protocol.
    match exchange(to_line(&Request::Status { job: None }).as_bytes()) {
        Response::Status { .. } => {}
        other => panic!("expected Status, got {other:?}"),
    }

    // And the daemon still runs jobs.
    let mut client = connect_within(&socket, 30);
    match client
        .submit(&spec, &SubmitOptions::default(), |_| {})
        .expect("submit exchange")
    {
        SubmitOutcome::Done { digest, .. } => {
            assert_eq!(digest.expect("digest"), want, "served after hostile input");
        }
        other => panic!("expected Done, got {other:?}"),
    }
    client.shutdown().expect("shutdown request");
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "clean drain exits 0: {status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
