//! Admission control and warm-cache behaviour of the verification
//! server: queue saturation yields structured `overloaded` rejections
//! with queue metadata, per-job state budgets exhaust to
//! `budget_limited` exactly like the CLI, and the shared cache's warmth
//! is observable — `graph_cache.*` hits and `serve.coalesced` counts —
//! on repeated identical requests.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use rtlcheck::bench::serve::{ServeOptions, ServeSummary, Server};
use rtlcheck::core::{CoverOutcome, Rtlcheck};
use rtlcheck::litmus::suite;
use rtlcheck::obs::json::Json;
use rtlcheck::obs::NullCollector;
use rtlcheck::prelude::*;

fn start_server(opts: ServeOptions) -> (String, std::thread::JoinHandle<ServeSummary>) {
    let server = Server::bind(opts).expect("server binds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run(&NullCollector, &[]));
    (addr, handle)
}

fn connect(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// Reads frames until `n` terminal (`result`/`error`) frames arrived;
/// returns them parsed.
fn read_terminals(reader: &mut BufReader<TcpStream>, n: usize) -> Vec<Json> {
    let mut terminals = Vec::new();
    while terminals.len() < n {
        let mut line = String::new();
        let read = reader.read_line(&mut line).expect("server responds");
        assert!(read > 0, "server closed early");
        let v = Json::parse(line.trim_end()).expect("valid frame");
        if matches!(
            v.get("type").and_then(Json::as_str),
            Some("result") | Some("error")
        ) {
            terminals.push(v);
        }
    }
    terminals
}

fn shut_down(addr: &str) {
    let (mut stream, mut reader) = connect(addr);
    stream
        .write_all(b"{\"id\":0,\"kind\":\"shutdown\"}\n")
        .unwrap();
    let frame = &read_terminals(&mut reader, 1)[0];
    assert_eq!(frame.get("status").and_then(Json::as_str), Some("drained"));
}

#[test]
fn queue_saturation_rejects_with_overloaded_metadata() {
    // One worker, a pending queue of one.
    let (addr, handle) = start_server(ServeOptions {
        jobs: 1,
        queue_cap: 1,
        ..ServeOptions::default()
    });

    // A whole buggy-memory suite occupies the worker for longer than the
    // burst takes to admit. Wait until it runs: a second connection polls
    // `stats`, which the first connection's sequencer would hold back until
    // the suite had answered.
    let (mut stream, mut reader) = connect(&addr);
    stream
        .write_all(b"{\"id\":\"lead\",\"kind\":\"suite\",\"memory\":\"buggy\",\"events\":false}\n")
        .unwrap();
    let (mut probe, mut probe_reader) = connect(&addr);
    loop {
        probe
            .write_all(b"{\"id\":\"s\",\"kind\":\"stats\"}\n")
            .unwrap();
        let stats = &read_terminals(&mut probe_reader, 1)[0];
        let running = stats.get("serve").and_then(|s| s.get("running"));
        if running.and_then(Json::as_u64) == Some(1) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    // Eleven distinct checks in one burst: the first fills the queue, the
    // other ten overflow it.
    let names: Vec<&str> = suite::names().into_iter().take(11).collect();
    let mut burst = String::new();
    for (i, name) in names.iter().enumerate() {
        burst.push_str(&format!(
            "{{\"id\":{i},\"kind\":\"check\",\"test\":\"{name}\",\"events\":false}}\n"
        ));
    }
    stream.write_all(burst.as_bytes()).unwrap();
    let terminals = read_terminals(&mut reader, 1 + names.len());

    // Replies come in request order: the suite, the admitted check, then
    // ten rejections carrying the observed depth and the bound.
    let field = |t: &Json, k: &str| t.get(k).map(Json::render).unwrap_or_default();
    assert_eq!(field(&terminals[0], "id"), "\"lead\"");
    assert_eq!(field(&terminals[1], "type"), "\"result\"", "{terminals:?}");
    for t in &terminals[2..] {
        assert_eq!(field(t, "error"), "\"overloaded\"", "{t:?}");
        assert_eq!(
            (field(t, "queue_depth"), field(t, "queue_cap")),
            ("1".into(), "1".into())
        );
    }

    shut_down(&addr);
    let summary = handle.join().unwrap();
    let counts = (summary.rejected_overload, summary.jobs, summary.completed);
    assert_eq!(counts, (10, 2, 2), "{summary:?}");
    assert_eq!(summary.queue_peak, 1, "{summary:?}");
}

#[test]
fn per_job_budgets_exhaust_to_budget_limited_like_the_cli() {
    let (addr, handle) = start_server(ServeOptions {
        jobs: 1,
        ..ServeOptions::default()
    });
    let (mut stream, mut reader) = connect(&addr);
    stream
        .write_all(b"{\"id\":\"tight\",\"kind\":\"check\",\"test\":\"mp\",\"max_states\":3}\n")
        .unwrap();
    let frame = &read_terminals(&mut reader, 1)[0];
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("result"));
    assert_eq!(
        frame.get("status").and_then(Json::as_str),
        Some("budget_limited"),
        "{frame:?}"
    );
    shut_down(&addr);
    handle.join().unwrap();

    // The same clamp through the library: a 3-state budget leaves the
    // covering-trace search inconclusive — the classification the
    // mutation campaign renders as budget-limited.
    let test = suite::get("mp").unwrap();
    let mut config = VerifyConfig::quick();
    for engine in &mut config.engines {
        engine.max_states = engine.max_states.min(3);
    }
    config.cover_max_states = config.cover_max_states.min(3);
    let report = Rtlcheck::new(MemoryImpl::Fixed).check_test(&test, &config);
    assert!(
        matches!(report.cover, CoverOutcome::Inconclusive),
        "library agrees the budget exhausts"
    );
}

#[test]
fn warm_cache_and_coalescing_are_visible_in_counters() {
    let (addr, handle) = start_server(ServeOptions {
        jobs: 1,
        ..ServeOptions::default()
    });

    // Burst: a leading job to occupy the single worker, then two
    // identical problems that must coalesce into one engine run while it
    // is busy, then a repeat on a fresh connection for a cache hit.
    let (mut stream, mut reader) = connect(&addr);
    stream
        .write_all(
            b"{\"id\":\"lead\",\"kind\":\"suite\",\"only\":[\"sb\",\"lb\"],\"events\":false}\n\
              {\"id\":\"first\",\"kind\":\"check\",\"test\":\"mp\",\"events\":false}\n\
              {\"id\":\"twin\",\"kind\":\"check\",\"test\":\"mp\",\"events\":false}\n",
        )
        .unwrap();
    let terminals = read_terminals(&mut reader, 3);
    for t in &terminals {
        assert_eq!(
            t.get("type").and_then(Json::as_str),
            Some("result"),
            "{t:?}"
        );
    }
    // The coalesced twin reports the identical payload under its own id.
    let by_id = |id: &str| {
        terminals
            .iter()
            .find(|t| t.get("id").and_then(Json::as_str) == Some(id))
            .unwrap()
    };
    assert_eq!(
        by_id("first").get("report").unwrap().render(),
        by_id("twin").get("report").unwrap().render()
    );

    // Second identical request, sequentially: the graph is already in
    // the shared cache. The stats request only goes out after the warm
    // job's result arrived — stats snapshots are taken at request
    // arrival, so asking earlier would race the job.
    let (mut stream2, mut reader2) = connect(&addr);
    stream2
        .write_all(b"{\"id\":\"warm\",\"kind\":\"check\",\"test\":\"mp\",\"events\":false}\n")
        .unwrap();
    let warm = &read_terminals(&mut reader2, 1)[0];
    assert_eq!(warm.get("status").and_then(Json::as_str), Some("verified"));
    stream2
        .write_all(b"{\"id\":\"stats\",\"kind\":\"stats\"}\n")
        .unwrap();
    let stats = &read_terminals(&mut reader2, 1)[0];
    let cache = stats.get("graph_cache").unwrap();
    assert!(
        cache.get("hits").and_then(Json::as_u64).unwrap() >= 1,
        "the repeat request must hit the warm cache: {stats:?}"
    );
    let serve = stats.get("serve").unwrap();
    assert!(
        serve.get("coalesced").and_then(Json::as_u64).unwrap() >= 1,
        "the twin must have coalesced: {stats:?}"
    );

    shut_down(&addr);
    let summary = handle.join().unwrap();
    assert!(summary.coalesced >= 1, "{summary:?}");
    // 4 admitted jobs minus the coalesced twin.
    assert_eq!(summary.completed, 3, "{summary:?}");
}
