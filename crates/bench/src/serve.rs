//! The verification server: a long-running TCP daemon that keeps one
//! process-wide [`GraphCache`] warm across many clients' jobs.
//!
//! Every other entry point in this crate (suite, mutate, fuzz, bench) is a
//! one-shot CLI that pays cold-start — design builds, graph construction —
//! on every invocation. `rtlcheck serve` amortises
//! that cost: it accepts `check` / `suite` / `mutate` / `fuzz` jobs over a
//! line-oriented JSON protocol, schedules them onto a deterministic worker
//! pool with per-job priorities and state budgets, and streams the jobs'
//! `obs` events back as response frames, all against a single shared
//! graph cache that stays hot between requests.
//!
//! ## Protocol (`rtlcheck-serve/1`)
//!
//! One JSON object per `\n`-terminated line, in both directions
//! ([`rtlcheck_obs::json`] — no external dependencies). On connect the
//! server sends a `hello` frame; after that every non-empty request line
//! receives exactly one **terminal** frame (`result` or `error`),
//! preceded by zero or more `counter` / `event` stream frames replayed
//! from the job's instrumentation. Requests carry an `id` the server
//! echoes verbatim on every frame it emits for that request.
//!
//! Request kinds: `check` (one litmus test — a built-in suite name via
//! `test` or raw litmus source via `litmus`), `suite` (a list of built-in
//! tests), `mutate` (a mutation campaign), `fuzz` (a fuzzing campaign),
//! plus `ping`, `stats`, and `shutdown`. Common options: `priority`
//! (0–9, higher first, default 5), `events` (stream frames on/off,
//! default on), `max_states` (clamps every engine and cover budget — the
//! per-job state budget).
//!
//! ## Determinism
//!
//! The per-connection response payload is byte-identical across worker
//! counts, client arrival orders, and warm-vs-cold cache states:
//!
//! * each job runs against a private [`BufferCollector`]; its stream is
//!   replayed into response frames only after the job finishes, exactly
//!   like the suite runner's flat-work-list replay;
//! * frames carry only the *schedule- and cache-invariant* subset of the
//!   stream — spans (wall-clock durations) and the `graph.*` /
//!   `graph_cache.*` / `monitor.*` counter families (functions of cache
//!   state, not of the job) are filtered out;
//! * a per-connection sequencer holds completed frames back until every
//!   earlier request on that connection has flushed, so responses arrive
//!   in request order no matter which worker finished first.
//!
//! Telemetry that is *inherently* schedule-dependent (queue depths, cache
//! hit rates, coalescing counts) is exposed only through the `stats`
//! request and the server's own `--metrics` stream, never in job frames.
//!
//! ## Coalescing and admission control
//!
//! Concurrent jobs with the same fingerprint — for `check` jobs the
//! [`Rtlcheck::problem_fingerprint`] problem identity plus the engine
//! configuration and the test name (the report row carries the name, so
//! differently-named tests that ground to one problem run separately,
//! sharing only the cached graph) — share a single engine run: followers
//! attach as waiters and receive the same frames under their own `id`s. The
//! pending queue is bounded (`queue_cap`); jobs beyond the bound receive
//! a structured `overloaded` error with queue-depth metadata instead of
//! queueing without limit. A `shutdown` request drains: no new jobs are
//! admitted, in-flight jobs finish and flush, then the shutdown response
//! is delivered and the accept loop exits.

use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::io::{BufRead as _, BufReader, ErrorKind, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use rtlcheck_core::{CoverOutcome, Rtlcheck, TestReport};
use rtlcheck_litmus::{parse as parse_litmus, suite, LitmusTest};
use rtlcheck_obs::json::Json;
use rtlcheck_obs::progress::UNIT_DONE;
use rtlcheck_obs::{
    attrs, span, Attrs, BufferCollector, Collector, MultiCollector, SpanId, TrackSink,
};
use rtlcheck_rtl::multi_vscale::MemoryImpl;
use rtlcheck_rtl::mutate::CatalogTarget;
use rtlcheck_verif::{GraphCache, VerifyConfig};

use crate::fuzz::{run_fuzz, FuzzOptions};
use crate::mutation::{run_campaign, CampaignOptions};
use crate::{parse_config, parse_memory};

/// Protocol identifier sent in the `hello` frame.
pub const PROTOCOL: &str = "rtlcheck-serve/1";

/// Server parameters.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing jobs.
    pub jobs: usize,
    /// Admission bound: jobs beyond this many *pending* (not yet running)
    /// are rejected with an `overloaded` error.
    pub queue_cap: usize,
    /// Largest accepted request line, in bytes; longer lines are
    /// discarded and answered with an `oversized_frame` error.
    pub max_frame: usize,
    /// In-memory snapshot bound of the shared cache — a long-running
    /// server must not grow without limit.
    pub cache_capacity: usize,
    /// Keep every job's full instrumentation stream and replay it (in
    /// admission order) into the server's collector at drain — what the
    /// server's `--events` / `--metrics` flags consume.
    pub keep_streams: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            jobs: 1,
            queue_cap: 64,
            max_frame: 1 << 20,
            cache_capacity: 256,
            keep_streams: false,
        }
    }
}

/// End-of-run totals, also reported as `serve.*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Request frames received (including malformed ones).
    pub frames: u64,
    /// Jobs admitted to the queue (coalesced followers not included).
    pub jobs: u64,
    /// Jobs executed to completion.
    pub completed: u64,
    /// Jobs served by attaching to an identical in-flight job.
    pub coalesced: u64,
    /// Jobs rejected because the pending queue was full.
    pub rejected_overload: u64,
    /// Malformed / invalid request frames answered with `bad_request`.
    pub protocol_errors: u64,
    /// Response deliveries dropped because the client had disconnected.
    pub disconnects: u64,
    /// Largest pending-queue depth observed at admission.
    pub queue_peak: u64,
}

#[derive(Debug, Default)]
struct ServeCounters {
    connections: AtomicU64,
    frames: AtomicU64,
    jobs: AtomicU64,
    completed: AtomicU64,
    coalesced: AtomicU64,
    rejected_overload: AtomicU64,
    protocol_errors: AtomicU64,
    disconnects: AtomicU64,
    queue_peak: AtomicU64,
}

impl ServeCounters {
    fn summary(&self) -> ServeSummary {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServeSummary {
            connections: get(&self.connections),
            frames: get(&self.frames),
            jobs: get(&self.jobs),
            completed: get(&self.completed),
            coalesced: get(&self.coalesced),
            rejected_overload: get(&self.rejected_overload),
            protocol_errors: get(&self.protocol_errors),
            disconnects: get(&self.disconnects),
            queue_peak: get(&self.queue_peak),
        }
    }

    fn report_to(&self, collector: &dyn Collector) {
        let s = self.summary();
        collector.counter("serve.connections", s.connections, attrs![]);
        collector.counter("serve.frames", s.frames, attrs![]);
        collector.counter("serve.jobs", s.jobs, attrs![]);
        collector.counter("serve.completed", s.completed, attrs![]);
        collector.counter("serve.coalesced", s.coalesced, attrs![]);
        collector.counter("serve.rejected_overload", s.rejected_overload, attrs![]);
        collector.counter("serve.protocol_errors", s.protocol_errors, attrs![]);
        collector.counter("serve.disconnects", s.disconnects, attrs![]);
        collector.counter("serve.queue_peak", s.queue_peak, attrs![]);
    }
}

fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Job specifications
// ---------------------------------------------------------------------------

/// A parsed, validated job body.
#[derive(Debug, Clone)]
enum JobSpec {
    Check {
        memory: MemoryImpl,
        config: VerifyConfig,
        test: LitmusTest,
    },
    Suite {
        memory: MemoryImpl,
        config: VerifyConfig,
        tests: Vec<LitmusTest>,
    },
    Mutate {
        options: CampaignOptions,
        config: VerifyConfig,
    },
    Fuzz {
        options: FuzzOptions,
        config: VerifyConfig,
    },
}

impl JobSpec {
    fn kind(&self) -> &'static str {
        match self {
            JobSpec::Check { .. } => "check",
            JobSpec::Suite { .. } => "suite",
            JobSpec::Mutate { .. } => "mutate",
            JobSpec::Fuzz { .. } => "fuzz",
        }
    }
}

/// Job identity for coalescing. For `check` jobs the last two words are
/// the [`Rtlcheck::problem_fingerprint`] key/check pair; the first word
/// hashes everything else that can change the response: job kind, memory,
/// engine budgets, and the test name, which the report row carries.
/// Two differently named tests that ground to the same verification problem
/// therefore run separately, each answered under its own name, while sharing
/// the cached graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Fp(u64, u64, u64);

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Computes a job's coalescing fingerprint. Request parsing admits only
/// `check` tests that fit the design ([`Rtlcheck::admit`]); the caller
/// still wraps this in `catch_unwind`, as the problem fingerprint builds
/// the design from a client's litmus source.
fn fingerprint(spec: &JobSpec) -> Fp {
    match spec {
        JobSpec::Check {
            memory,
            config,
            test,
        } => {
            let ctx = format!("check|{memory:?}|{config:?}|{}", test.name());
            let key = Rtlcheck::new(*memory).problem_fingerprint(test);
            Fp(fnv1a(ctx.as_bytes()), key.key, key.check)
        }
        JobSpec::Suite {
            memory,
            config,
            tests,
        } => {
            let names: Vec<&str> = tests.iter().map(LitmusTest::name).collect();
            let ctx = format!("suite|{memory:?}|{config:?}|{names:?}");
            Fp(fnv1a(ctx.as_bytes()), 0, 1)
        }
        JobSpec::Mutate { options, config } => {
            let ctx = format!("mutate|{options:?}|{config:?}");
            Fp(fnv1a(ctx.as_bytes()), 0, 2)
        }
        JobSpec::Fuzz { options, config } => {
            let ctx = format!("fuzz|{options:?}|{config:?}");
            Fp(fnv1a(ctx.as_bytes()), 0, 3)
        }
    }
}

// ---------------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum RequestBody {
    Job(Box<JobSpec>),
    Ping,
    Stats,
    Shutdown,
}

#[derive(Debug)]
struct Request {
    id: Json,
    priority: u8,
    events: bool,
    body: RequestBody,
}

fn get_str<'a>(obj: &'a Json, key: &str) -> Result<Option<&'a str>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s)),
        Some(_) => Err(format!("`{key}` must be a string")),
    }
}

fn get_u64(obj: &Json, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or(format!("`{key}` must be an unsigned integer")),
    }
}

fn get_bool(obj: &Json, key: &str) -> Result<Option<bool>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(format!("`{key}` must be a boolean")),
    }
}

fn get_names(obj: &Json, key: &str) -> Result<Option<Vec<String>>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Arr(items)) => {
            let mut names = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    Json::Str(s) => names.push(s.clone()),
                    _ => return Err(format!("`{key}` must be an array of strings")),
                }
            }
            Ok(Some(names))
        }
        Some(_) => Err(format!("`{key}` must be an array of strings")),
    }
}

/// The common `memory` / `config` / `max_states` job options.
/// `max_states` is the per-job state budget: it clamps every engine's
/// budget and the cover budget, matching the CLI's budget-exhaustion
/// (`budget_limited`) semantics at a job-chosen scale.
fn parse_flow_options(obj: &Json) -> Result<(MemoryImpl, VerifyConfig), String> {
    let memory = match get_str(obj, "memory")? {
        Some(v) => parse_memory(v)?,
        None => MemoryImpl::Fixed,
    };
    let mut config = match get_str(obj, "config")? {
        Some(v) => parse_config(v)?,
        None => VerifyConfig::quick(),
    };
    if let Some(budget) = get_u64(obj, "max_states")? {
        let budget = usize::try_from(budget).unwrap_or(usize::MAX).max(1);
        for engine in &mut config.engines {
            engine.max_states = engine.max_states.min(budget);
        }
        config.cover_max_states = config.cover_max_states.min(budget);
    }
    Ok((memory, config))
}

fn parse_request(value: &Json) -> Result<Request, (Json, String)> {
    let id = value.get("id").cloned().unwrap_or(Json::Null);
    let fail = |msg: String| (id.clone(), msg);
    if value.as_obj().is_none() {
        return Err(fail("request frame must be a JSON object".into()));
    }
    // Unknown fields are otherwise ignored; an old client's `backend` must
    // not fall back silently.
    if value.get("backend").is_some() {
        return Err(fail(
            "the `backend` option is retired: every check runs on the explicit state graph".into(),
        ));
    }
    let kind = get_str(value, "kind")
        .map_err(&fail)?
        .ok_or_else(|| fail("request needs a `kind` field".into()))?
        .to_string();
    let priority = match get_u64(value, "priority").map_err(&fail)? {
        Some(p) if p <= 9 => p as u8,
        Some(p) => return Err(fail(format!("`priority` must be 0..=9, got {p}"))),
        None => 5,
    };
    let events = get_bool(value, "events").map_err(&fail)?.unwrap_or(true);
    let body = match kind.as_str() {
        "ping" => RequestBody::Ping,
        "stats" => RequestBody::Stats,
        "shutdown" => RequestBody::Shutdown,
        "check" => {
            let (memory, config) = parse_flow_options(value).map_err(&fail)?;
            let test = match (
                get_str(value, "test").map_err(&fail)?,
                get_str(value, "litmus").map_err(&fail)?,
            ) {
                (Some(name), None) => {
                    suite::get(name).ok_or_else(|| fail(format!("unknown suite test `{name}`")))?
                }
                (None, Some(src)) => {
                    parse_litmus(src).map_err(|e| fail(format!("litmus source: {e}")))?
                }
                (None, None) => {
                    return Err(fail("check needs a `test` name or `litmus` source".into()))
                }
                (Some(_), Some(_)) => {
                    return Err(fail("check takes `test` or `litmus`, not both".into()))
                }
            };
            Rtlcheck::admit(&test).map_err(|e| fail(e.to_string()))?;
            RequestBody::Job(Box::new(JobSpec::Check {
                memory,
                config,
                test,
            }))
        }
        "suite" => {
            let (memory, config) = parse_flow_options(value).map_err(&fail)?;
            let tests = match get_names(value, "only").map_err(&fail)? {
                Some(names) if names.is_empty() => {
                    return Err(fail("`only` selected no tests".into()))
                }
                Some(names) => crate::suite_tests(&names).map_err(&fail)?,
                None => suite::all(),
            };
            RequestBody::Job(Box::new(JobSpec::Suite {
                memory,
                config,
                tests,
            }))
        }
        "mutate" => {
            let (_, config) = parse_flow_options(value).map_err(&fail)?;
            let target = match get_str(value, "design").map_err(&fail)? {
                Some(v) => CatalogTarget::parse(v).ok_or_else(|| {
                    fail(format!(
                        "unknown design `{v}` (expected multi_vscale, five_stage, or tso)"
                    ))
                })?,
                None => CatalogTarget::MultiVscale,
            };
            let mut options = CampaignOptions::new(target);
            options.mutants = get_names(value, "mutants").map_err(&fail)?;
            options.tests = get_names(value, "only").map_err(&fail)?;
            RequestBody::Job(Box::new(JobSpec::Mutate { options, config }))
        }
        "fuzz" => {
            let (memory, config) = parse_flow_options(value).map_err(&fail)?;
            let mut options = FuzzOptions::new(memory);
            if let Some(count) = get_u64(value, "count").map_err(&fail)? {
                if count == 0 {
                    return Err(fail("`count` must be positive".into()));
                }
                options.count = usize::try_from(count).unwrap_or(usize::MAX);
            }
            if let Some(seed) = get_u64(value, "seed").map_err(&fail)? {
                options.seed = seed;
            }
            if let Some(min) = get_u64(value, "min_len").map_err(&fail)? {
                options.min_len = usize::try_from(min).unwrap_or(usize::MAX);
            }
            if let Some(max) = get_u64(value, "max_len").map_err(&fail)? {
                options.max_len = usize::try_from(max).unwrap_or(usize::MAX);
            }
            if options.min_len < 2 || options.min_len > options.max_len {
                return Err(fail(format!(
                    "invalid length range {}..={} (need 2 <= min <= max)",
                    options.min_len, options.max_len
                )));
            }
            if let Some(budget) = get_u64(value, "escalate").map_err(&fail)? {
                options.escalate_budget = Some(usize::try_from(budget).unwrap_or(usize::MAX));
            }
            RequestBody::Job(Box::new(JobSpec::Fuzz { options, config }))
        }
        other => return Err(fail(format!("unknown job kind `{other}`"))),
    };
    Ok(Request {
        id,
        priority,
        events,
        body,
    })
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

type Fields = Vec<(String, Json)>;

fn field(key: &str, value: Json) -> (String, Json) {
    (key.to_string(), value)
}

/// One response frame, minus the per-waiter `id`.
#[derive(Debug, Clone)]
enum Frame {
    /// A replayed `counter` / `event` — dropped for waiters that asked
    /// `events: false`.
    Stream(Fields),
    /// The request's single `result` or `error` frame.
    Terminal(Fields),
}

impl Frame {
    fn fields(&self) -> &Fields {
        match self {
            Frame::Stream(f) | Frame::Terminal(f) => f,
        }
    }
}

fn render_frame(id: &Json, fields: &Fields) -> String {
    let mut all = Vec::with_capacity(fields.len() + 1);
    all.push(("id".to_string(), id.clone()));
    all.extend(fields.iter().cloned());
    let mut line = Json::Obj(all).render();
    line.push('\n');
    line
}

fn error_fields(error: &str, message: &str, extra: Fields) -> Fields {
    let mut fields = vec![
        field("type", Json::Str("error".into())),
        field("error", Json::Str(error.into())),
        field("message", Json::Str(message.into())),
    ];
    fields.extend(extra);
    fields
}

fn result_fields(kind: &str, status: &str, body: Fields) -> Fields {
    let mut fields = vec![
        field("type", Json::Str("result".into())),
        field("kind", Json::Str(kind.into())),
        field("status", Json::Str(status.into())),
    ];
    fields.extend(body);
    fields
}

/// Counter/event families whose values depend on cache state or on the
/// process's history rather than on the job alone — excluded from
/// response frames so payloads stay byte-identical warm vs cold.
/// `monitor.*` is in the list because assumption-monitor attempts are
/// memoized with the graph's lazily-computed rows: a warm graph reports
/// zero new attempts where a cold build reports thousands.
const NONDETERMINISTIC_PREFIXES: &[&str] = &["graph.", "graph_cache.", "monitor."];

fn frame_deterministic(name: &str) -> bool {
    !NONDETERMINISTIC_PREFIXES
        .iter()
        .any(|p| name.starts_with(p))
}

fn attrs_json(attrs: Attrs) -> Json {
    Json::Obj(
        attrs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_json()))
            .collect(),
    )
}

/// Converts a job's replayed instrumentation into `Stream` frames,
/// keeping only the deterministic subset (no spans — durations are
/// wall-clock — and no cache-state-dependent counter families).
#[derive(Default)]
struct FrameSink {
    frames: std::cell::RefCell<Vec<Frame>>,
}

impl FrameSink {
    fn into_frames(self) -> Vec<Frame> {
        self.frames.into_inner()
    }
}

impl Collector for FrameSink {
    fn counter(&self, name: &str, value: u64, attrs: Attrs) {
        if !frame_deterministic(name) {
            return;
        }
        let mut fields = vec![
            field("type", Json::Str("counter".into())),
            field("name", Json::Str(name.into())),
            field("value", Json::Uint(value)),
        ];
        if !attrs.is_empty() {
            fields.push(field("attrs", attrs_json(attrs)));
        }
        self.frames.borrow_mut().push(Frame::Stream(fields));
    }

    fn event(&self, name: &str, attrs: Attrs) {
        if !frame_deterministic(name) {
            return;
        }
        let mut fields = vec![
            field("type", Json::Str("event".into())),
            field("name", Json::Str(name.into())),
        ];
        if !attrs.is_empty() {
            fields.push(field("attrs", attrs_json(attrs)));
        }
        self.frames.borrow_mut().push(Frame::Stream(fields));
    }
}

// ---------------------------------------------------------------------------
// Job execution
// ---------------------------------------------------------------------------

/// A report's protocol status. A flow whose covering-trace search ran
/// out of state budget is `budget_limited` — the same classification the
/// mutation campaign gives budget-exhausted mutants — because without the
/// cover outcome the flow can certify neither verdict. Bounded property
/// proofs still count as `verified`, matching the CLI and Figure 13.
fn report_status(report: &TestReport) -> &'static str {
    if report.bug_found() {
        "violation"
    } else if matches!(report.cover, CoverOutcome::Inconclusive) {
        "budget_limited"
    } else if report.verified() {
        "verified"
    } else {
        "vacuous"
    }
}

fn report_row(report: &TestReport) -> Json {
    Json::obj(vec![
        ("test", Json::Str(report.test.clone())),
        ("config", Json::Str(report.config.clone())),
        ("status", Json::Str(report_status(report).into())),
        (
            "by_assumptions",
            Json::Bool(report.verified_by_assumptions()),
        ),
        ("proven", Json::Uint(report.num_proven() as u64)),
        ("properties", Json::Uint(report.properties.len() as u64)),
        (
            "bounded",
            Json::Arr(
                report
                    .bounded_depths()
                    .into_iter()
                    .map(|d| Json::Uint(d as u64))
                    .collect(),
            ),
        ),
        ("vacuous", Json::Bool(report.vacuous)),
    ])
}

/// Runs one job against the shared cache, reporting instrumentation to
/// `collector` (a per-job buffer plus the worker's live tracks). Returns
/// the terminal frame's `(status, body)`.
fn execute(
    spec: &JobSpec,
    cache: &GraphCache,
    collector: &dyn Collector,
) -> Result<(String, Fields), String> {
    match spec {
        JobSpec::Check {
            memory,
            config,
            test,
        } => {
            let tool = Rtlcheck::new(*memory);
            let report = tool.check_test_cached(test, config, cache, collector);
            Ok((
                report_status(&report).to_string(),
                vec![field("report", report_row(&report))],
            ))
        }
        JobSpec::Suite {
            memory,
            config,
            tests,
        } => {
            let tool = Rtlcheck::new(*memory);
            let mut rows = Vec::with_capacity(tests.len());
            let mut violations = 0u64;
            let mut inconclusive = 0u64;
            for test in tests {
                let report = tool.check_test_cached(test, config, cache, collector);
                match report_status(&report) {
                    "violation" => violations += 1,
                    "budget_limited" => inconclusive += 1,
                    _ => {}
                }
                rows.push(report_row(&report));
            }
            let status = if violations > 0 {
                "violation"
            } else if inconclusive > 0 {
                "budget_limited"
            } else {
                "verified"
            };
            Ok((
                status.to_string(),
                vec![
                    field("violations", Json::Uint(violations)),
                    field("rows", Json::Arr(rows)),
                ],
            ))
        }
        JobSpec::Mutate { options, config } => {
            let report = run_campaign(options, config, collector, Some(cache))?;
            let status = if report.killed() > 0 {
                "ok"
            } else {
                "no_kills"
            };
            Ok((status.to_string(), vec![field("report", report.to_json())]))
        }
        JobSpec::Fuzz { options, config } => {
            let report = run_fuzz(options, config, collector, Some(cache))?;
            let status = if report.violations() > 0 {
                "violations"
            } else if report.disagreements() > 0 {
                "disagreements"
            } else {
                "ok"
            };
            Ok((status.to_string(), vec![field("report", report.to_json())]))
        }
    }
}

// ---------------------------------------------------------------------------
// Connections and the per-connection sequencer
// ---------------------------------------------------------------------------

/// The write half of a connection plus its response sequencer: frames for
/// request `seq` are held until every earlier request on the connection
/// has flushed, so response order always matches request order — the
/// replay-in-input-order argument, applied to a socket.
#[derive(Debug)]
struct ConnHandle {
    out: Mutex<ConnOut>,
}

#[derive(Debug)]
struct ConnOut {
    stream: TcpStream,
    next: u64,
    ready: BTreeMap<u64, String>,
    dead: bool,
}

impl ConnHandle {
    fn new(stream: TcpStream) -> ConnHandle {
        ConnHandle {
            out: Mutex::new(ConnOut {
                stream,
                next: 0,
                ready: BTreeMap::new(),
                dead: false,
            }),
        }
    }

    /// Writes `text` immediately, before any sequenced frame (the `hello`
    /// banner); only valid before the first `submit`.
    fn write_direct(&self, text: &str) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        if !out.dead && out.stream.write_all(text.as_bytes()).is_err() {
            out.dead = true;
        }
    }

    /// Queues the complete response payload for request `seq` and flushes
    /// every payload that is now in order.
    fn submit(&self, seq: u64, payload: String, counters: &ServeCounters) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        out.ready.insert(seq, payload);
        while let Some(payload) = {
            let next = out.next;
            out.ready.remove(&next)
        } {
            out.next += 1;
            if out.dead {
                continue;
            }
            if out.stream.write_all(payload.as_bytes()).is_err() {
                out.dead = true;
                bump(&counters.disconnects);
            }
        }
    }

    fn close(&self) {
        let out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = out.stream.shutdown(Shutdown::Both);
    }
}

// ---------------------------------------------------------------------------
// Queue
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Waiter {
    conn: Arc<ConnHandle>,
    id: Json,
    seq: u64,
    events: bool,
}

#[derive(Debug)]
struct Entry {
    fp: Fp,
    spec: Option<JobSpec>,
    waiters: Vec<Waiter>,
}

#[derive(Debug, PartialEq, Eq)]
struct PendingRef {
    priority: u8,
    arrival: u64,
    entry: u64,
}

impl Ord for PendingRef {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first, then earlier arrival.
        self.priority
            .cmp(&other.priority)
            .then(other.arrival.cmp(&self.arrival))
    }
}

impl PartialOrd for PendingRef {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Default)]
struct QueueState {
    pending: BinaryHeap<PendingRef>,
    index: HashMap<Fp, u64>,
    entries: HashMap<u64, Entry>,
    running: usize,
    draining: bool,
    next_entry: u64,
    next_arrival: u64,
    shutdown_waiters: Vec<Waiter>,
    conns: Vec<Arc<ConnHandle>>,
    kept: Vec<(u64, BufferCollector)>,
}

struct Shared {
    opts: ServeOptions,
    cache: GraphCache,
    queue: Mutex<QueueState>,
    work: Condvar,
    counters: ServeCounters,
    stopping: AtomicBool,
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// The bound, not-yet-running server. [`Server::run`] blocks until a
/// `shutdown` request drains the queue.
pub struct Server {
    listener: TcpListener,
    local: SocketAddr,
    shared: Shared,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local", &self.local)
            .finish()
    }
}

impl Server {
    /// Binds the listener and builds the shared warm cache. Jobs are not
    /// accepted until [`Server::run`].
    pub fn bind(opts: ServeOptions) -> Result<Server, String> {
        if opts.jobs == 0 {
            return Err("server needs at least one worker".into());
        }
        let listener =
            TcpListener::bind(&opts.addr).map_err(|e| format!("binding {}: {e}", opts.addr))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("resolving bound address: {e}"))?;
        let cache = GraphCache::in_memory().with_capacity(opts.cache_capacity);
        Ok(Server {
            listener,
            local,
            shared: Shared {
                opts,
                cache,
                queue: Mutex::new(QueueState::default()),
                work: Condvar::new(),
                counters: ServeCounters::default(),
                stopping: AtomicBool::new(false),
            },
        })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Accepts connections and serves jobs until a `shutdown` request
    /// drains the queue. Job instrumentation goes to `collector` only
    /// with [`ServeOptions::keep_streams`] (replayed in admission order at
    /// drain); the `serve.*` and `graph_cache.*` totals are always
    /// reported at the end. `live` sinks get real-time per-worker and
    /// per-connection tracks, exactly like the campaign runners.
    pub fn run(&self, collector: &dyn Collector, live: &[&dyn TrackSink]) -> ServeSummary {
        let shared = &self.shared;
        let _ = self.listener.set_nonblocking(true);
        std::thread::scope(|scope| {
            for w in 0..shared.opts.jobs {
                scope.spawn(move || worker_loop(shared, w as u64, live));
            }
            let mut next_conn: u64 = 0;
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        next_conn += 1;
                        bump(&shared.counters.connections);
                        let _ = stream.set_nodelay(true);
                        match stream.try_clone() {
                            Ok(write_half) => {
                                let handle = Arc::new(ConnHandle::new(write_half));
                                {
                                    let mut q =
                                        shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                                    q.conns.push(Arc::clone(&handle));
                                }
                                let conn_id = next_conn;
                                scope.spawn(move || {
                                    reader_loop(shared, conn_id, handle, stream, live)
                                });
                            }
                            Err(_) => drop(stream),
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(_) => {}
                }
                {
                    let q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                    if q.draining && q.pending.is_empty() && q.running == 0 {
                        break;
                    }
                }
                std::thread::sleep(Duration::from_millis(15));
            }
            // Drained: answer the shutdown request(s), stop the workers,
            // and close every connection so reader threads see EOF.
            let (waiters, conns) = {
                let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                (
                    std::mem::take(&mut q.shutdown_waiters),
                    std::mem::take(&mut q.conns),
                )
            };
            shared.stopping.store(true, Ordering::SeqCst);
            shared.work.notify_all();
            let fields = result_fields("shutdown", "drained", Vec::new());
            for w in waiters {
                w.conn
                    .submit(w.seq, render_frame(&w.id, &fields), &shared.counters);
            }
            for conn in conns {
                conn.close();
            }
        });
        let mut kept = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut q.kept)
        };
        kept.sort_by_key(|(arrival, _)| *arrival);
        for (_, buf) in kept {
            buf.replay_into(collector);
        }
        shared.counters.report_to(collector);
        shared.cache.report_to(collector);
        shared.counters.summary()
    }
}

// ---------------------------------------------------------------------------
// Worker loop
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Shared, worker: u64, live: &[&dyn TrackSink]) {
    loop {
        let (entry_id, arrival, spec) = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(p) = q.pending.pop() {
                    let entry = q.entries.get_mut(&p.entry).expect("pending entry exists");
                    let spec = entry.spec.take().expect("pending job has a spec");
                    q.running += 1;
                    break (p.entry, p.arrival, spec);
                }
                let (guard, _) = shared
                    .work
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
        };

        // Run the job into a private buffer plus the worker's live tracks
        // (real schedule, real timestamps — the `--trace-out` view).
        let buf = BufferCollector::new();
        let tracks: Vec<Box<dyn Collector + '_>> =
            live.iter().map(|s| s.track(1 + worker)).collect();
        let mut sinks: Vec<&dyn Collector> = vec![&buf];
        sinks.extend(tracks.iter().map(|b| &**b));
        let fan = MultiCollector::new(sinks);
        let kind = spec.kind();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _guard = span(&fan, "serve_job", attrs!["kind" => kind]);
            execute(&spec, &shared.cache, &fan)
        }));
        for t in &tracks {
            t.event(UNIT_DONE, attrs!["kind" => kind]);
        }
        drop(tracks);

        // Replay the buffer into response frames (and a kept copy for the
        // server's own collector, when observability is on).
        let sink = FrameSink::default();
        let keep = shared.opts.keep_streams.then(BufferCollector::new);
        {
            let mut sinks: Vec<&dyn Collector> = vec![&sink];
            if let Some(k) = &keep {
                sinks.push(k);
            }
            let fan = MultiCollector::new(sinks);
            buf.replay_into(&fan);
        }
        let mut frames = sink.into_frames();
        frames.push(match outcome {
            Ok(Ok((status, body))) => Frame::Terminal(result_fields(kind, &status, body)),
            Ok(Err(msg)) => Frame::Terminal(error_fields("bad_request", &msg, Vec::new())),
            Err(_) => Frame::Terminal(error_fields(
                "internal",
                &format!("{kind} job panicked; see server log"),
                Vec::new(),
            )),
        });

        // Deliver to every waiter (the leader and any coalesced
        // followers), then retire the entry.
        let waiters = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            let entry = q.entries.remove(&entry_id).expect("running entry exists");
            q.index.remove(&entry.fp);
            if let Some(k) = keep {
                q.kept.push((arrival, k));
            }
            entry.waiters
        };
        for waiter in waiters {
            let payload: String = frames
                .iter()
                .filter(|f| waiter.events || matches!(f, Frame::Terminal(_)))
                .map(|f| render_frame(&waiter.id, f.fields()))
                .collect();
            waiter.conn.submit(waiter.seq, payload, &shared.counters);
        }
        bump(&shared.counters.completed);
        {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.running -= 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Reader loop
// ---------------------------------------------------------------------------

enum FrameRead {
    Line(Vec<u8>),
    Oversized,
    Closed,
}

/// Reads one `\n`-terminated frame with a hard size cap, polling the
/// stop flag on read timeouts so drained servers release their readers.
/// A line longer than `max_frame` is discarded (through its newline) and
/// reported as [`FrameRead::Oversized`].
fn read_frame(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    max_frame: usize,
    stopping: &AtomicBool,
) -> FrameRead {
    let mut oversized = false;
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).take(pos).collect();
            return if oversized {
                FrameRead::Oversized
            } else {
                FrameRead::Line(line)
            };
        }
        if buf.len() > max_frame {
            oversized = true;
            buf.clear();
        }
        match stream.read(&mut chunk) {
            Ok(0) => return FrameRead::Closed,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if stopping.load(Ordering::SeqCst) {
                    return FrameRead::Closed;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return FrameRead::Closed,
        }
    }
}

fn reader_loop(
    shared: &Shared,
    conn_id: u64,
    handle: Arc<ConnHandle>,
    mut stream: TcpStream,
    live: &[&dyn TrackSink],
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    // Per-connection live track, after the worker tracks: connection
    // lifecycle and request arrivals with real timestamps.
    let tracks: Vec<Box<dyn Collector + '_>> = live
        .iter()
        .map(|s| s.track(1 + shared.opts.jobs as u64 + conn_id))
        .collect();
    for t in &tracks {
        t.event("serve.connection", attrs!["conn" => conn_id]);
    }
    handle.write_direct(&render_hello());
    let mut seq: u64 = 0;
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match read_frame(
            &mut stream,
            &mut buf,
            shared.opts.max_frame,
            &shared.stopping,
        ) {
            FrameRead::Closed => break,
            FrameRead::Oversized => {
                bump(&shared.counters.frames);
                bump(&shared.counters.protocol_errors);
                let fields = error_fields(
                    "oversized_frame",
                    &format!(
                        "request line exceeds the {}-byte frame limit",
                        shared.opts.max_frame
                    ),
                    Vec::new(),
                );
                handle.submit(seq, render_frame(&Json::Null, &fields), &shared.counters);
                seq += 1;
            }
            FrameRead::Line(line) => {
                if line.iter().all(|b| b.is_ascii_whitespace()) {
                    continue;
                }
                bump(&shared.counters.frames);
                for t in &tracks {
                    t.event("serve.request", attrs!["conn" => conn_id, "seq" => seq]);
                }
                handle_line(shared, &handle, seq, &line);
                seq += 1;
            }
        }
    }
    for t in &tracks {
        t.event("serve.connection_closed", attrs!["conn" => conn_id]);
    }
}

fn render_hello() -> String {
    let mut line = Json::obj(vec![
        ("type", Json::Str("hello".into())),
        ("proto", Json::Str(PROTOCOL.into())),
    ])
    .render();
    line.push('\n');
    line
}

/// Parses and admits one request line; always answers with exactly one
/// terminal frame (now, for protocol errors and inline kinds, or on job
/// completion via the sequencer).
fn handle_line(shared: &Shared, handle: &Arc<ConnHandle>, seq: u64, line: &[u8]) {
    let reject = |id: &Json, error: &str, message: &str, extra: Fields| {
        let fields = error_fields(error, message, extra);
        handle.submit(seq, render_frame(id, &fields), &shared.counters);
    };
    let text = match std::str::from_utf8(line) {
        Ok(t) => t,
        Err(_) => {
            bump(&shared.counters.protocol_errors);
            reject(
                &Json::Null,
                "bad_request",
                "request frame is not valid UTF-8",
                Vec::new(),
            );
            return;
        }
    };
    let value = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => {
            bump(&shared.counters.protocol_errors);
            reject(
                &Json::Null,
                "bad_request",
                &format!("malformed JSON: {e}"),
                Vec::new(),
            );
            return;
        }
    };
    let request = match parse_request(&value) {
        Ok(r) => r,
        Err((id, msg)) => {
            bump(&shared.counters.protocol_errors);
            reject(&id, "bad_request", &msg, Vec::new());
            return;
        }
    };
    match request.body {
        RequestBody::Ping => {
            let fields = result_fields("ping", "ok", Vec::new());
            handle.submit(seq, render_frame(&request.id, &fields), &shared.counters);
        }
        RequestBody::Stats => {
            let fields = result_fields("stats", "ok", stats_body(shared));
            handle.submit(seq, render_frame(&request.id, &fields), &shared.counters);
        }
        RequestBody::Shutdown => {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.draining = true;
            q.shutdown_waiters.push(Waiter {
                conn: Arc::clone(handle),
                id: request.id,
                seq,
                events: false,
            });
        }
        RequestBody::Job(spec) => {
            // The fingerprint grounds the problem (design build included)
            // from client input; contain any assertion it still hits.
            let fp = match catch_unwind(AssertUnwindSafe(|| fingerprint(&spec))) {
                Ok(fp) => fp,
                Err(_) => {
                    bump(&shared.counters.protocol_errors);
                    reject(
                        &request.id,
                        "bad_request",
                        "job rejected: the design for this program cannot be built",
                        Vec::new(),
                    );
                    return;
                }
            };
            let waiter = Waiter {
                conn: Arc::clone(handle),
                id: request.id.clone(),
                seq,
                events: request.events,
            };
            let rejection = {
                let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                if q.draining {
                    Some((
                        "shutting_down",
                        "server is draining".to_string(),
                        Vec::new(),
                    ))
                } else if let Some(&eid) = q.index.get(&fp) {
                    // Identical problem already pending or running: attach
                    // as a waiter and share its single engine run.
                    q.entries
                        .get_mut(&eid)
                        .expect("indexed entry exists")
                        .waiters
                        .push(waiter);
                    bump(&shared.counters.coalesced);
                    shared.work.notify_one();
                    None
                } else if q.pending.len() >= shared.opts.queue_cap {
                    let depth = q.pending.len() as u64;
                    Some((
                        "overloaded",
                        format!(
                            "pending queue is full ({depth}/{} jobs)",
                            shared.opts.queue_cap
                        ),
                        vec![
                            field("queue_depth", Json::Uint(depth)),
                            field("queue_cap", Json::Uint(shared.opts.queue_cap as u64)),
                        ],
                    ))
                } else {
                    let eid = q.next_entry;
                    q.next_entry += 1;
                    let arrival = q.next_arrival;
                    q.next_arrival += 1;
                    q.entries.insert(
                        eid,
                        Entry {
                            fp,
                            spec: Some(*spec),
                            waiters: vec![waiter],
                        },
                    );
                    q.index.insert(fp, eid);
                    q.pending.push(PendingRef {
                        priority: request.priority,
                        arrival,
                        entry: eid,
                    });
                    bump(&shared.counters.jobs);
                    let depth = q.pending.len() as u64;
                    shared
                        .counters
                        .queue_peak
                        .fetch_max(depth, Ordering::Relaxed);
                    shared.work.notify_one();
                    None
                }
            };
            if let Some((error, message, extra)) = rejection {
                if error == "overloaded" {
                    bump(&shared.counters.rejected_overload);
                }
                reject(&request.id, error, &message, extra);
            }
        }
    }
}

/// The `stats` response body: a point-in-time snapshot of the server's
/// telemetry. Deliberately *not* part of job responses — queue depths,
/// hit rates, and coalescing counts depend on scheduling and cache
/// history, and job payloads must stay byte-identical.
fn stats_body(shared: &Shared) -> Fields {
    let s = shared.counters.summary();
    let (queue_depth, running) = {
        let q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        (q.pending.len() as u64, q.running as u64)
    };
    vec![
        field(
            "serve",
            Json::obj(vec![
                ("connections", Json::Uint(s.connections)),
                ("frames", Json::Uint(s.frames)),
                ("jobs", Json::Uint(s.jobs)),
                ("completed", Json::Uint(s.completed)),
                ("coalesced", Json::Uint(s.coalesced)),
                ("rejected_overload", Json::Uint(s.rejected_overload)),
                ("protocol_errors", Json::Uint(s.protocol_errors)),
                ("disconnects", Json::Uint(s.disconnects)),
                ("queue_peak", Json::Uint(s.queue_peak)),
                ("queue_depth", Json::Uint(queue_depth)),
                ("running", Json::Uint(running)),
                ("queue_cap", Json::Uint(shared.opts.queue_cap as u64)),
                ("workers", Json::Uint(shared.opts.jobs as u64)),
            ]),
        ),
        field("graph_cache", shared.cache.stats().to_json()),
    ]
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// What [`client_run`] collected: every response line in arrival order,
/// and how many were `error` frames.
#[derive(Debug, Clone, Default)]
pub struct ClientOutcome {
    /// Raw response lines, exactly as the server sent them.
    pub lines: Vec<String>,
    /// How many of them were `error` frames.
    pub errors: usize,
}

/// The `rtlcheck connect` client: sends every non-empty `batch` line as a
/// request (appending a `shutdown` request when asked), then reads until
/// each request has its terminal frame. Returns the raw response lines —
/// the byte-diffable payload CI compares across runs.
pub fn client_run(
    addr: &str,
    batch: &[String],
    shutdown: bool,
    timeout: Duration,
) -> Result<ClientOutcome, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("setting read timeout: {e}"))?;
    let mut payload = String::new();
    let mut expected = 0usize;
    for line in batch {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        payload.push_str(line);
        payload.push('\n');
        expected += 1;
    }
    if shutdown {
        payload.push_str("{\"id\":\"shutdown\",\"kind\":\"shutdown\"}\n");
        expected += 1;
    }
    (&stream)
        .write_all(payload.as_bytes())
        .map_err(|e| format!("sending batch to {addr}: {e}"))?;
    let mut reader = BufReader::new(&stream);
    let mut outcome = ClientOutcome::default();
    let mut terminal = 0usize;
    while terminal < expected {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                let line = line.trim_end();
                if line.is_empty() {
                    continue;
                }
                if let Ok(v) = Json::parse(line) {
                    match v.get("type").and_then(Json::as_str) {
                        Some("result") => terminal += 1,
                        Some("error") => {
                            terminal += 1;
                            outcome.errors += 1;
                        }
                        _ => {}
                    }
                }
                outcome.lines.push(line.to_string());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Err(format!(
                    "timed out after {timeout:?} waiting for responses \
                     ({terminal}/{expected} terminal frames received)"
                ));
            }
            Err(e) => return Err(format!("reading from {addr}: {e}")),
        }
    }
    Ok(outcome)
}

// Keep the unused-import lint honest: SpanId is part of the Collector
// surface FrameSink chooses not to implement (spans are dropped).
const _: fn(SpanId) = |_| {};

#[cfg(test)]
mod tests {
    use super::*;
    use rtlcheck_obs::NullCollector;

    fn spec_for(name: &str) -> JobSpec {
        JobSpec::Check {
            memory: MemoryImpl::Fixed,
            config: VerifyConfig::quick(),
            test: suite::get(name).unwrap(),
        }
    }

    #[test]
    fn fingerprints_separate_configs_but_not_job_order() {
        let a = fingerprint(&spec_for("mp"));
        let b = fingerprint(&spec_for("mp"));
        assert_eq!(a, b);
        let c = fingerprint(&spec_for("sb"));
        assert_ne!(a, c);
        let tight = JobSpec::Check {
            memory: MemoryImpl::Fixed,
            config: {
                let mut c = VerifyConfig::quick();
                for e in &mut c.engines {
                    e.max_states = 10;
                }
                c
            },
            test: suite::get("mp").unwrap(),
        };
        assert_ne!(a, fingerprint(&tight), "budgets are part of job identity");
    }

    #[test]
    fn pending_refs_order_by_priority_then_arrival() {
        let mut heap = BinaryHeap::new();
        heap.push(PendingRef {
            priority: 5,
            arrival: 0,
            entry: 0,
        });
        heap.push(PendingRef {
            priority: 9,
            arrival: 2,
            entry: 1,
        });
        heap.push(PendingRef {
            priority: 5,
            arrival: 1,
            entry: 2,
        });
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop()).map(|p| p.entry).collect();
        assert_eq!(order, vec![1, 0, 2]);
    }

    #[test]
    fn frame_filter_drops_cache_dependent_families() {
        let sink = FrameSink::default();
        sink.counter("cover.states", 7, attrs![]);
        sink.counter("graph_cache.hits", 3, attrs![]);
        sink.counter("graph.nodes", 9, attrs![]);
        sink.counter("monitor.attempts", 11, attrs![]);
        sink.event("verdict.proven", attrs!["property" => "p0"]);
        sink.event("graph_cache.key_collision", attrs![]);
        let frames = sink.into_frames();
        assert_eq!(frames.len(), 2);
        let names: Vec<&str> = frames
            .iter()
            .map(|f| {
                f.fields()
                    .iter()
                    .find(|(k, _)| k == "name")
                    .and_then(|(_, v)| v.as_str())
                    .unwrap()
            })
            .collect();
        assert_eq!(names, vec!["cover.states", "verdict.proven"]);
    }

    #[test]
    fn parse_request_rejects_bad_shapes() {
        let cases = [
            ("{\"kind\":\"warp\"}", "unknown job kind"),
            ("{\"id\":1}", "needs a `kind`"),
            ("{\"kind\":\"check\"}", "`test` name or `litmus` source"),
            (
                "{\"kind\":\"check\",\"test\":\"mp\",\"priority\":12}",
                "priority",
            ),
            (
                "{\"kind\":\"check\",\"test\":\"nope\"}",
                "unknown suite test",
            ),
            ("{\"kind\":\"suite\",\"only\":[1]}", "array of strings"),
            (
                "{\"kind\":\"suite\",\"config\":\"frobnicate\"}",
                "unknown config `frobnicate`",
            ),
            (
                "{\"kind\":\"check\",\"test\":\"mp\",\"memory\":\"frobnicate\"}",
                "unknown memory implementation `frobnicate`",
            ),
        ];
        for (src, needle) in cases {
            let v = Json::parse(src).unwrap();
            let err = parse_request(&v).expect_err(src).1;
            assert!(err.contains(needle), "{src}: {err}");
        }
    }

    #[test]
    fn budget_clamp_yields_budget_limited_status() {
        let v = Json::parse("{\"kind\":\"check\",\"test\":\"mp\",\"max_states\":3}").unwrap();
        let req = parse_request(&v).unwrap();
        let RequestBody::Job(spec) = req.body else {
            panic!("expected job")
        };
        let cache = GraphCache::in_memory();
        let (status, _) = execute(&spec, &cache, &NullCollector).unwrap();
        assert_eq!(status, "budget_limited");
    }
}
