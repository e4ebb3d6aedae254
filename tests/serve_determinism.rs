//! Determinism pinning for the verification server: concurrent clients
//! submitting the same job batch must receive byte-identical response
//! payloads regardless of worker count, client arrival order, or which
//! client's job reached the queue first — and the verdicts must match
//! the equivalent one-shot runs.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use rtlcheck::bench::serve::{ServeOptions, ServeSummary, Server};
use rtlcheck::core::Rtlcheck;
use rtlcheck::litmus::suite;
use rtlcheck::obs::json::Json;
use rtlcheck::obs::NullCollector;
use rtlcheck::prelude::*;

/// Starts an in-process server with `jobs` workers; returns its address
/// and the thread that resolves to the drain summary.
fn start_server(jobs: usize) -> (String, std::thread::JoinHandle<ServeSummary>) {
    let server = Server::bind(ServeOptions {
        jobs,
        // Large enough that admission never rejects: overload rejections
        // are schedule-dependent and would break the byte-diff.
        queue_cap: 1024,
        ..ServeOptions::default()
    })
    .expect("server binds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run(&NullCollector, &[]));
    (addr, handle)
}

/// Sends `batch` (one request per line) and reads frames until every
/// request has its terminal frame; returns the raw payload including the
/// hello banner.
fn run_client(addr: &str, batch: &[&str]) -> String {
    let mut stream = TcpStream::connect(addr).expect("client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut payload = String::new();
    for line in batch {
        payload.push_str(line);
        payload.push('\n');
    }
    stream.write_all(payload.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let mut received = String::new();
    let mut terminals = 0;
    while terminals < batch.len() {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("server responds");
        assert!(n > 0, "server closed early:\n{received}");
        if let Ok(v) = Json::parse(line.trim_end()) {
            if matches!(
                v.get("type").and_then(Json::as_str),
                Some("result") | Some("error")
            ) {
                terminals += 1;
            }
        }
        received.push_str(&line);
    }
    received
}

fn shut_down(addr: &str) {
    let mut stream = TcpStream::connect(addr).expect("shutdown client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
        .write_all(b"{\"id\":\"bye\",\"kind\":\"shutdown\"}\n")
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    // hello, then the drained result.
    reader.read_line(&mut line).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"status\":\"drained\""), "{line}");
}

/// A shuffled batch mixing verdicts, priorities, budgets, and an
/// events-off request — shared verbatim by every client.
const BATCH: &[&str] = &[
    "{\"id\":\"a\",\"kind\":\"check\",\"test\":\"sb\",\"priority\":2}",
    "{\"id\":\"b\",\"kind\":\"check\",\"test\":\"mp\",\"memory\":\"buggy\"}",
    "{\"id\":\"c\",\"kind\":\"check\",\"test\":\"mp\",\"priority\":9}",
    "{\"id\":\"d\",\"kind\":\"check\",\"test\":\"mp\",\"max_states\":3}",
    "{\"id\":\"e\",\"kind\":\"suite\",\"only\":[\"lb\",\"sb\"],\"events\":false}",
    "{\"id\":\"f\",\"kind\":\"check\",\"test\":\"lb\",\"events\":false}",
];

#[test]
fn concurrent_clients_get_byte_identical_payloads_across_worker_counts() {
    let mut payloads: Vec<String> = Vec::new();

    for jobs in [1, 8] {
        let (addr, handle) = start_server(jobs);

        // Three concurrent clients, same batch.
        let concurrent: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let addr = addr.clone();
                    scope.spawn(move || run_client(&addr, BATCH))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        payloads.extend(concurrent);

        // One late sequential arrival (different interleaving with the
        // warm cache and empty queue).
        payloads.push(run_client(&addr, BATCH));

        shut_down(&addr);
        let summary = handle.join().unwrap();
        assert_eq!(summary.rejected_overload, 0, "batch must not be rejected");
        assert!(summary.completed > 0);
    }

    let first = &payloads[0];
    for (i, p) in payloads.iter().enumerate() {
        assert_eq!(
            p, first,
            "payload {i} differs from the first (jobs/arrival dependence)"
        );
    }
    // The payload really carried the batch: every id got its terminal.
    for id in ["a", "b", "c", "d", "e", "f"] {
        assert!(
            first.contains(&format!("{{\"id\":\"{id}\",\"type\":\"result\"")),
            "no terminal for {id}:\n{first}"
        );
    }
    // events:false requests stream nothing.
    assert!(
        !first.contains("{\"id\":\"f\",\"type\":\"counter\""),
        "{first}"
    );
    assert!(
        !first.contains("{\"id\":\"e\",\"type\":\"counter\""),
        "{first}"
    );
}

/// `sb` and `podwr000` are the same litmus test under two names, so they
/// ground to one verification problem. Queued together behind a job that
/// occupies the only worker, each must still be answered under its own
/// name — a shared engine run would hand one of them the other's report
/// row, making the response depend on which arrived first.
#[test]
fn same_problem_checks_keep_their_own_test_names() {
    let (addr, handle) = start_server(1);
    let payload = run_client(
        &addr,
        &[
            "{\"id\":\"lead\",\"kind\":\"suite\",\"only\":[\"lb\",\"mp\"],\"events\":false}",
            "{\"id\":\"x\",\"kind\":\"check\",\"test\":\"podwr000\",\"events\":false}",
            "{\"id\":\"y\",\"kind\":\"check\",\"test\":\"sb\",\"events\":false}",
        ],
    );
    shut_down(&addr);
    handle.join().unwrap();

    let report = |id: &str| {
        payload
            .lines()
            .filter_map(|l| Json::parse(l).ok())
            .find(|v| {
                v.get("id").and_then(Json::as_str) == Some(id)
                    && v.get("type").and_then(Json::as_str) == Some("result")
            })
            .and_then(|v| v.get("report").cloned())
            .unwrap_or_else(|| panic!("no report for {id}:\n{payload}"))
    };
    let (x, y) = (report("x"), report("y"));
    assert_eq!(x.get("test").and_then(Json::as_str), Some("podwr000"));
    assert_eq!(y.get("test").and_then(Json::as_str), Some("sb"));
    // Apart from the name, one problem gives one row.
    for field in ["status", "proven", "properties", "bounded"] {
        assert_eq!(
            x.get(field).map(Json::render),
            y.get(field).map(Json::render),
            "{field}"
        );
    }
}

#[test]
fn server_verdicts_match_one_shot_runs() {
    let (addr, handle) = start_server(2);
    let payload = run_client(
        &addr,
        &[
            "{\"id\":\"fixed\",\"kind\":\"check\",\"test\":\"mp\"}",
            "{\"id\":\"buggy\",\"kind\":\"check\",\"test\":\"mp\",\"memory\":\"buggy\"}",
        ],
    );
    shut_down(&addr);
    handle.join().unwrap();

    let statuses: Vec<(String, String)> = payload
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter(|v| v.get("type").and_then(Json::as_str) == Some("result"))
        .map(|v| {
            (
                v.get("id").and_then(Json::as_str).unwrap().to_string(),
                v.get("status").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect();

    // The same checks through the library, one-shot.
    let test = suite::get("mp").unwrap();
    let config = VerifyConfig::quick();
    let fixed = Rtlcheck::new(MemoryImpl::Fixed).check_test(&test, &config);
    let buggy = Rtlcheck::new(MemoryImpl::Buggy).check_test(&test, &config);
    assert!(fixed.verified() && !fixed.bug_found());
    assert!(buggy.bug_found());

    for (id, status) in &statuses {
        let expected = match id.as_str() {
            "fixed" => "verified",
            "buggy" => "violation",
            other => panic!("unexpected id {other}"),
        };
        assert_eq!(status, expected, "server disagrees with the library run");
    }
    assert_eq!(statuses.len(), 2);

    // And against the actual CLI: exit codes agree with the statuses.
    let cli = std::process::Command::new(env!("CARGO_BIN_EXE_rtlcheck"))
        .args(["check", "mp", "--memory", "buggy"])
        .output()
        .expect("the rtlcheck binary runs");
    assert_eq!(cli.status.code(), Some(1), "CLI flags the same violation");
}
