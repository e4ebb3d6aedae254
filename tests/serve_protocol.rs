//! Protocol robustness for the verification server: hostile or broken
//! input — malformed JSON, truncated lines, unknown kinds, oversized
//! frames, mid-job disconnects — must produce a structured error frame
//! (or a clean close) and leave the server able to serve the next
//! request. Never a panic, never a wedged worker.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use rtlcheck::bench::serve::{ServeOptions, ServeSummary, Server};
use rtlcheck::obs::json::Json;
use rtlcheck::obs::NullCollector;

fn start_server(opts: ServeOptions) -> (String, std::thread::JoinHandle<ServeSummary>) {
    let server = Server::bind(opts).expect("server binds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run(&NullCollector, &[]));
    (addr, handle)
}

fn connect(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// Reads lines until the next `result`/`error` frame, which it returns
/// parsed (stream frames and the hello banner are skipped).
fn read_terminal(reader: &mut BufReader<TcpStream>) -> Json {
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("server responds");
        assert!(n > 0, "server closed instead of answering");
        let v = Json::parse(line.trim_end()).expect("server frames are valid JSON");
        if matches!(
            v.get("type").and_then(Json::as_str),
            Some("result") | Some("error")
        ) {
            return v;
        }
    }
}

fn error_kind(frame: &Json) -> &str {
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("error"));
    frame.get("error").and_then(Json::as_str).unwrap()
}

fn shut_down(addr: &str) {
    let (mut stream, mut reader) = connect(addr);
    stream
        .write_all(b"{\"id\":0,\"kind\":\"shutdown\"}\n")
        .unwrap();
    let frame = read_terminal(&mut reader);
    assert_eq!(frame.get("status").and_then(Json::as_str), Some("drained"));
}

#[test]
fn abuse_cases_get_structured_errors_and_the_server_survives() {
    let (addr, handle) = start_server(ServeOptions {
        jobs: 1,
        max_frame: 4096,
        ..ServeOptions::default()
    });

    // Malformed JSON.
    {
        let (mut stream, mut reader) = connect(&addr);
        stream.write_all(b"{nope\n").unwrap();
        let frame = read_terminal(&mut reader);
        assert_eq!(error_kind(&frame), "bad_request");
        assert!(frame
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("malformed JSON"));
    }

    // Valid JSON, wrong shape.
    {
        let (mut stream, mut reader) = connect(&addr);
        stream.write_all(b"42\n").unwrap();
        assert_eq!(error_kind(&read_terminal(&mut reader)), "bad_request");
    }

    // Unknown job kind, id echoed back.
    {
        let (mut stream, mut reader) = connect(&addr);
        stream
            .write_all(b"{\"id\":\"x\",\"kind\":\"warp\"}\n")
            .unwrap();
        let frame = read_terminal(&mut reader);
        assert_eq!(error_kind(&frame), "bad_request");
        assert_eq!(frame.get("id").and_then(Json::as_str), Some("x"));
        assert!(frame
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("unknown job kind"));
    }

    // Unknown test and invalid litmus source.
    {
        let (mut stream, mut reader) = connect(&addr);
        stream
            .write_all(b"{\"id\":1,\"kind\":\"check\",\"test\":\"nope\"}\n")
            .unwrap();
        assert_eq!(error_kind(&read_terminal(&mut reader)), "bad_request");
        stream
            .write_all(b"{\"id\":2,\"kind\":\"check\",\"litmus\":\"garbage\"}\n")
            .unwrap();
        assert_eq!(error_kind(&read_terminal(&mut reader)), "bad_request");
    }

    // The retired `backend` option is a bad request, not a silent fallback.
    {
        let (mut stream, mut reader) = connect(&addr);
        stream
            .write_all(b"{\"id\":4,\"kind\":\"check\",\"test\":\"mp\",\"backend\":\"composed\"}\n")
            .unwrap();
        let frame = read_terminal(&mut reader);
        assert_eq!(error_kind(&frame), "bad_request");
        assert!(frame
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("the `backend` option is retired"));
    }

    // Oversized frame: discarded with a structured rejection, and the
    // connection keeps working afterwards.
    {
        let (mut stream, mut reader) = connect(&addr);
        let mut big = String::from("{\"id\":1,\"kind\":\"check\",\"litmus\":\"");
        big.push_str(&"x".repeat(8192));
        big.push_str("\"}\n");
        stream.write_all(big.as_bytes()).unwrap();
        let frame = read_terminal(&mut reader);
        assert_eq!(error_kind(&frame), "oversized_frame");
        stream.write_all(b"{\"id\":3,\"kind\":\"ping\"}\n").unwrap();
        let frame = read_terminal(&mut reader);
        assert_eq!(frame.get("status").and_then(Json::as_str), Some("ok"));
    }

    // Truncated line: bytes without a newline, then a hard close. No
    // frame is owed; the server must simply survive.
    {
        let (mut stream, _reader) = connect(&addr);
        stream.write_all(b"{\"id\":9,\"kind\":\"ch").unwrap();
        drop(stream);
    }

    // Mid-job disconnect: submit a real job and vanish before the
    // response. The delivery is dropped, not the server.
    {
        let (mut stream, _reader) = connect(&addr);
        stream
            .write_all(b"{\"id\":7,\"kind\":\"check\",\"test\":\"mp\"}\n")
            .unwrap();
        drop(stream);
    }

    // Empty lines are skipped, not answered.
    {
        let (mut stream, mut reader) = connect(&addr);
        stream
            .write_all(b"\n  \n{\"id\":8,\"kind\":\"ping\"}\n")
            .unwrap();
        let frame = read_terminal(&mut reader);
        assert_eq!(frame.get("id").and_then(Json::as_u64), Some(8));
    }

    // After all of the above the server still executes real work.
    {
        let (mut stream, mut reader) = connect(&addr);
        stream
            .write_all(b"{\"id\":\"final\",\"kind\":\"check\",\"test\":\"mp\"}\n")
            .unwrap();
        let frame = read_terminal(&mut reader);
        assert_eq!(frame.get("type").and_then(Json::as_str), Some("result"));
        assert_eq!(frame.get("status").and_then(Json::as_str), Some("verified"));
    }

    shut_down(&addr);
    let summary = handle.join().unwrap();
    assert!(summary.protocol_errors >= 6, "{summary:?}");
    assert!(summary.completed >= 2, "{summary:?}");
}

/// A `check` the RTL flow cannot answer is refused at admission with a
/// `bad_request` naming the reason: five threads on the four-core design,
/// a thread past the 15-instruction PC window, or a `permit` condition
/// (the flow checks forbidden outcomes only).
#[test]
fn checks_the_flow_cannot_answer_are_bad_requests() {
    let (addr, handle) = start_server(ServeOptions {
        jobs: 1,
        ..ServeOptions::default()
    });
    let five_threads: String = (1..=5)
        .map(|c| format!("core {} {{ st x, {c}; }}\n", c - 1))
        .collect();
    let cases = [
        (
            format!("test five\n{{ x = 0; }}\n{five_threads}forbid ( x = 0 )"),
            "test `five` needs 5 cores but the design has 4",
        ),
        (
            format!(
                "test long\n{{ x = 0; }}\ncore 0 {{ {}}}\nforbid ( x = 0 )",
                "st x, 1; ".repeat(16)
            ),
            "thread 0 of `long` has 16 instructions but the per-core PC window holds 15",
        ),
        (
            "test mp-11\n{ x = 0; y = 0; }\ncore 0 { st x, 1; st y, 1; }\n\
             core 1 { r1 = ld y; r2 = ld x; }\npermit ( 1:r1 = 1 /\\ 1:r2 = 1 )"
                .to_string(),
            "test `mp-11` has a `permit` condition",
        ),
    ];
    let (mut stream, mut reader) = connect(&addr);
    for (id, (source, reason)) in cases.iter().enumerate() {
        let request = Json::Obj(vec![
            ("id".into(), Json::Uint(id as u64)),
            ("kind".into(), Json::Str("check".into())),
            ("litmus".into(), Json::Str(source.clone())),
        ]);
        stream
            .write_all(format!("{}\n", request.render()).as_bytes())
            .unwrap();
        let frame = read_terminal(&mut reader);
        assert_eq!(error_kind(&frame), "bad_request", "{reason}");
        assert_eq!(frame.get("id").and_then(Json::as_u64), Some(id as u64));
        let message = frame.get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains(reason), "{message}");
    }

    shut_down(&addr);
    let summary = handle.join().unwrap();
    assert_eq!(summary.protocol_errors, 3, "{summary:?}");
    assert_eq!(summary.jobs, 0, "nothing reached the queue: {summary:?}");
}

/// A `suite` or `mutate` request naming a test or mutant twice is a
/// `bad_request` naming it, not a run that counts it twice; so is a
/// `mutate` request selecting no mutants, as an empty test list already
/// is, not a `no_kills` campaign of nothing.
#[test]
fn repeated_names_are_bad_requests() {
    let (addr, handle) = start_server(ServeOptions {
        jobs: 1,
        ..ServeOptions::default()
    });
    let cases = [
        (
            r#"{"id":0,"kind":"suite","only":["mp","sb","mp"]}"#,
            "duplicate suite test `mp`",
        ),
        (
            r#"{"id":1,"kind":"mutate","only":["mp","mp"],"mutants":["store_drop_when_busy"]}"#,
            "duplicate litmus test `mp`",
        ),
        (
            r#"{"id":2,"kind":"mutate","only":["mp"],"mutants":["store_drop_when_busy","store_drop_when_busy"]}"#,
            "duplicate mutant `store_drop_when_busy`",
        ),
        (
            r#"{"id":3,"kind":"mutate","only":["mp"],"mutants":[]}"#,
            "no mutants selected",
        ),
    ];
    let (mut stream, mut reader) = connect(&addr);
    for (id, (request, message)) in cases.iter().enumerate() {
        stream.write_all(format!("{request}\n").as_bytes()).unwrap();
        let frame = read_terminal(&mut reader);
        assert_eq!(error_kind(&frame), "bad_request", "{request}");
        assert_eq!(frame.get("id").and_then(Json::as_u64), Some(id as u64));
        let text = frame.get("message").and_then(Json::as_str).unwrap();
        assert!(text.contains(message), "{text}");
    }
    shut_down(&addr);
    handle.join().unwrap();
}

/// `mutate` has no `incremental` option any more (every mutant graph is
/// built cold), so a request still carrying one falls under the "unknown
/// fields are ignored" rule and gets the same result frame as one
/// without it; the `stats` reply's cache object has no splice counters.
#[test]
fn retired_incremental_field_is_ignored_and_gone_from_stats() {
    let (addr, handle) = start_server(ServeOptions {
        jobs: 1,
        ..ServeOptions::default()
    });
    let (mut stream, mut reader) = connect(&addr);
    let mut answer = |request: &str| {
        stream.write_all(format!("{request}\n").as_bytes()).unwrap();
        read_terminal(&mut reader)
    };
    let mutate = r#""id":"m","kind":"mutate","only":["mp"],"mutants":["store_drop_when_busy"]"#;
    let plain = answer(&format!("{{{mutate}}}"));
    let retired = answer(&format!(r#"{{{mutate},"incremental":"validate"}}"#));
    assert_eq!(
        plain.get("status").and_then(Json::as_str),
        Some("ok"),
        "{}",
        plain.render()
    );
    assert_eq!(plain.render(), retired.render());

    let stats = answer(r#"{"id":"s","kind":"stats"}"#);
    let cache = stats
        .get("graph_cache")
        .expect("stats carry the graph cache");
    assert!(cache.get("requests").is_some(), "{}", stats.render());
    for key in ["incremental_hits", "incremental_misses", "spliced"] {
        assert!(cache.get(key).is_none(), "{key}: {}", stats.render());
    }
    shut_down(&addr);
    handle.join().unwrap();
}

#[test]
fn hello_banner_identifies_the_protocol() {
    let (addr, handle) = start_server(ServeOptions::default());
    let (_stream, mut reader) = connect(&addr);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v = Json::parse(line.trim_end()).unwrap();
    assert_eq!(v.get("type").and_then(Json::as_str), Some("hello"));
    assert_eq!(
        v.get("proto").and_then(Json::as_str),
        Some("rtlcheck-serve/1")
    );
    shut_down(&addr);
    handle.join().unwrap();
}
