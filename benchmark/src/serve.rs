//! serve-warm: the verification server in-process, two workers, driven by
//! two closed-loop client connections over its TCP protocol.
//!
//! Each connection sends a `check` request for every suite test, in its
//! own seed-drawn order, waiting for each reply before the next request.
//! Set-up binds the server and runs one untimed round that fills the shared
//! graph cache; every timed round after that is served warm.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::seq::SliceRandom;
use rtlcheck_bench::serve::{ServeOptions, ServeSummary, Server};
use rtlcheck_core::Rtlcheck;
use rtlcheck_litmus::suite;
use rtlcheck_obs::json::Json;
use rtlcheck_obs::MetricsSummary;
use rtlcheck_obs::{Collector, NullCollector};
use rtlcheck_rtl::multi_vscale::MemoryImpl;
use rtlcheck_verif::{GraphCache, VerifyConfig};

use crate::stats;
use crate::workloads::{expected_rows, judge_row, stream, tapped, Expected, Flows, Load, Pass};

/// Server workers and client connections: the load never asks for more
/// threads than the two cores it was defined on.
const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
/// A request unanswered for this long counts as failed and ends the round.
const TIMEOUT: Duration = Duration::from_secs(60);
/// Round trips timed for the protocol floor.
const PINGS: usize = 50;

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        let _ = writer.set_nodelay(true);
        writer
            .set_read_timeout(Some(TIMEOUT))
            .map_err(|e| format!("setting a read timeout: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        let mut client = Client {
            reader,
            writer,
            next_id: 0,
        };
        let hello = client.read_frame()?;
        if hello.get("type").and_then(Json::as_str) != Some("hello") {
            return Err("the server did not greet".into());
        }
        Ok(client)
    }

    fn read_frame(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("the server closed the connection".into()),
            Ok(_) => Json::parse(line.trim_end()).map_err(|e| format!("unreadable frame: {e}")),
            Err(e) => Err(format!("no reply: {e}")),
        }
    }

    /// Sends one request and returns its terminal frame, skipping the
    /// stream frames that precede it.
    fn request(&mut self, fields: Vec<(&str, Json)>) -> Result<Json, String> {
        self.next_id += 1;
        let id = self.next_id;
        let mut all = vec![("id", Json::Uint(id))];
        all.extend(fields);
        let mut line = Json::obj(all).render();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("sending a request: {e}"))?;
        loop {
            let frame = self.read_frame()?;
            let terminal = matches!(
                frame.get("type").and_then(Json::as_str),
                Some("result" | "error")
            );
            if terminal && frame.get("id").and_then(Json::as_u64) == Some(id) {
                return Ok(frame);
            }
        }
    }

    fn check(&mut self, test: &str) -> Result<Json, String> {
        self.request(vec![
            ("kind", Json::Str("check".into())),
            ("test", Json::Str(test.into())),
            ("memory", Json::Str("fixed".into())),
            ("config", Json::Str("hybrid".into())),
        ])
    }
}

/// One request's outcome: the test, its latency, and its report row (or
/// what went wrong).
type Reply = (String, Duration, Result<Json, String>);

pub struct ServeLoad {
    addr: SocketAddr,
    server: Option<JoinHandle<ServeSummary>>,
    clients: Vec<Client>,
    /// Each connection's request order.
    orders: Vec<Vec<String>>,
    /// The report row of every test as the cold round returned it,
    /// without the test's name.
    cold_rows: BTreeMap<String, String>,
    expected: BTreeMap<String, Expected>,
    tool: Rtlcheck,
    /// Verification-problem fingerprints, taken only for tests whose reply
    /// names another test.
    problems: BTreeMap<String, (u64, u64)>,
    /// Replies whose row names another test with the same problem.
    misnamed: usize,
    /// The server's `stats` reply at the end of set-up: the traced run
    /// reports the counters' growth since, over warm rounds only.
    setup_stats: Json,
}

impl ServeLoad {
    /// Binds the server and runs the untimed round that warms its cache.
    pub fn start(seed: u64) -> Result<ServeLoad, String> {
        let server = Server::bind(ServeOptions {
            jobs: WORKERS,
            ..ServeOptions::default()
        })?;
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run(&NullCollector, &[]));
        let mut load = ServeLoad {
            addr,
            server: Some(handle),
            clients: Vec::new(),
            orders: Vec::new(),
            cold_rows: BTreeMap::new(),
            expected: expected_rows(MemoryImpl::Fixed),
            tool: Rtlcheck::new(MemoryImpl::Fixed),
            problems: BTreeMap::new(),
            misnamed: 0,
            setup_stats: Json::Null,
        };
        let names: Vec<String> = suite::names().iter().map(|n| n.to_string()).collect();
        for c in 0..CONNECTIONS {
            load.clients.push(Client::connect(addr)?);
            let mut order = names.clone();
            order.shuffle(&mut stream(seed, 10 + c as u64));
            load.orders.push(order);
        }
        let (_, cold) = load.round();
        let mut failures = Vec::new();
        for (test, _, reply) in cold {
            match reply.and_then(|row| load.unnamed(&test, &row)) {
                Ok(row) => {
                    let first = load
                        .cold_rows
                        .entry(test.clone())
                        .or_insert_with(|| row.clone());
                    if *first != row {
                        failures.push(format!("{test}: connections got different rows"));
                    }
                }
                Err(e) => failures.push(format!("{test}: {e}")),
            }
        }
        if let Some(first) = failures.first() {
            return Err(format!("warm-up round failed: {first}"));
        }
        load.setup_stats = load.clients[0].request(vec![("kind", Json::Str("stats".into()))])?;
        Ok(load)
    }

    /// The fingerprint of the problem `test` poses, taken once per test.
    fn problem(&mut self, test: &str) -> Option<(u64, u64)> {
        if !self.problems.contains_key(test) {
            let key = self.tool.problem_fingerprint(&suite::get(test)?);
            self.problems.insert(test.to_string(), (key.key, key.check));
        }
        self.problems.get(test).copied()
    }

    /// One closed-loop round: every connection sends its requests in
    /// order. Returns the round's wall time and every reply.
    fn round(&mut self) -> (Duration, Vec<Reply>) {
        let start = Instant::now();
        let replies = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&self.orders)
                .map(|(client, order)| {
                    scope.spawn(move || {
                        let mut out: Vec<Reply> = Vec::with_capacity(order.len());
                        for test in order {
                            let sent = Instant::now();
                            let reply = client.check(test).and_then(|frame| report_row(&frame));
                            let stop = reply.is_err();
                            out.push((test.clone(), sent.elapsed(), reply));
                            if stop {
                                break;
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client threads do not panic"))
                .collect::<Vec<_>>()
        });
        (start.elapsed(), replies)
    }

    /// The row rendered without its test name. A row may name another
    /// test only if that test poses the same verification problem: the
    /// server coalesces identical concurrent problems into one run and
    /// answers every waiter with the leader's row, name included.
    fn unnamed(&mut self, test: &str, row: &Json) -> Result<String, String> {
        let fields = row.as_obj().ok_or("the report row is not an object")?;
        let named = row.get("test").and_then(Json::as_str).unwrap_or("");
        if named != test {
            let theirs = self.problem(named);
            if theirs.is_none() || theirs != self.problem(test) {
                return Err(format!("the reply names {named}, a different problem"));
            }
            self.misnamed += 1;
        }
        let rest: Vec<_> = fields
            .iter()
            .filter(|(k, _)| k != "test")
            .cloned()
            .collect();
        Ok(Json::Obj(rest).render())
    }

    fn judge(&mut self, test: &str, row: &Json) -> Result<(), String> {
        let want = *self.expected.get(test).ok_or("no expected answer")?;
        let status = row.get("status").and_then(Json::as_str).unwrap_or("");
        let count = |k| row.get(k).and_then(Json::as_u64).unwrap_or(0) as usize;
        // `budget_limited` is the Hybrid config's cover budget running out
        // before the property proofs decide, as on the one-shot path.
        if !matches!(status, "violation" | "verified" | "budget_limited") {
            return Err(format!("status {status}"));
        }
        judge_row(
            status == "violation",
            count("proven"),
            count("properties"),
            &want,
        )?;
        let row = self.unnamed(test, row)?;
        let cold = self.cold_rows.get(test).map_or("none", String::as_str);
        if cold != row {
            return Err(format!("warm row {row} differs from the cold row {cold}"));
        }
        Ok(())
    }
}

/// The `report` row of a `check` result; an error frame is a failed
/// request.
fn report_row(frame: &Json) -> Result<Json, String> {
    if frame.get("type").and_then(Json::as_str) == Some("error") {
        let kind = frame.get("error").and_then(Json::as_str).unwrap_or("error");
        return Err(format!("server answered {kind}"));
    }
    frame
        .get("report")
        .cloned()
        .ok_or_else(|| "result without a report".to_string())
}

impl Load for ServeLoad {
    fn pass(&mut self, _collector: &dyn Collector) -> Pass {
        let (wall, replies) = self.round();
        let mut pass = Pass {
            wall,
            ..Pass::default()
        };
        pass.attempted = (self.orders.iter().map(Vec::len).sum::<usize>()) as u64;
        let answered = replies.len() as u64;
        for (test, latency, reply) in replies {
            pass.latencies.push(latency);
            if let Err(e) = reply.and_then(|row| self.judge(&test, &row)) {
                pass.fail(format!("{test}: {e}"));
            }
        }
        if answered < pass.attempted {
            pass.failed += pass.attempted - answered;
            pass.problems.push("a connection stopped early".into());
        }
        pass
    }

    /// One connection's requests as the server's workers serve them warm,
    /// from a cache filled by the same library call the workers make.
    fn flows(&self) -> Flows {
        let tests: Vec<_> = self.orders[0]
            .iter()
            .map(|name| suite::get(name).expect("the orders name suite tests"))
            .collect();
        let cache = Box::new(GraphCache::in_memory());
        let config = VerifyConfig::hybrid();
        let ((), _, cold) = tapped(&NullCollector, |sinks| {
            for test in &tests {
                self.tool.check_test_cached(test, &config, &cache, sinks);
            }
        });
        Flows::Warm {
            memory: MemoryImpl::Fixed,
            tests,
            cache,
            cold,
        }
    }

    /// The protocol floor, and the server's counters over the rounds run
    /// since set-up, all of them warm.
    fn extras(&mut self, _metrics: &MetricsSummary) -> Vec<(String, f64)> {
        let client = &mut self.clients[0];
        let mut pings = Vec::with_capacity(PINGS);
        for _ in 0..PINGS {
            let sent = Instant::now();
            if client
                .request(vec![("kind", Json::Str("ping".into()))])
                .is_err()
            {
                return Vec::new();
            }
            pings.push(sent.elapsed().as_secs_f64() * 1e3);
        }
        let mut out = vec![
            ("serve.ping_ms".to_string(), stats::median(&pings)),
            ("serve.misnamed_replies".to_string(), self.misnamed as f64),
        ];
        let Ok(now) = client.request(vec![("kind", Json::Str("stats".into()))]) else {
            return out;
        };
        let get = |stats: &Json, group: &str, key: &str| {
            stats
                .get(group)
                .and_then(|g| g.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0) as f64
        };
        let grown =
            |group: &str, key: &str| get(&now, group, key) - get(&self.setup_stats, group, key);
        let requests = grown("graph_cache", "requests");
        if requests > 0.0 {
            let hits = grown("graph_cache", "hits") + grown("graph_cache", "disk_hits");
            out.push(("serve.cache_hit_ratio".into(), hits / requests));
        }
        out.push(("serve.graph_requests".into(), requests));
        for key in ["coalesced", "rejected_overload"] {
            out.push((format!("serve.{key}"), grown("serve", key)));
        }
        out
    }
}

impl Drop for ServeLoad {
    /// Drains the server and waits for it. A server that cannot be reached
    /// is left to end with the process rather than waited on forever; the
    /// round results already say that it misbehaved.
    fn drop(&mut self) {
        let shutdown = || vec![("kind", Json::Str("shutdown".into()))];
        let drained = self
            .clients
            .first_mut()
            .is_some_and(|c| c.request(shutdown()).is_ok())
            || Client::connect(self.addr).is_ok_and(|mut c| c.request(shutdown()).is_ok());
        self.clients.clear();
        if let Some(handle) = self.server.take().filter(|_| drained) {
            let _ = handle.join();
        }
    }
}
