//! The `rtlcheck` command-line tool.
//!
//! ```text
//! rtlcheck check <test.litmus | suite-test-name> [--memory fixed|buggy|tso]
//!                [--config quick|hybrid|full-proof] [--trace] [--vcd <path>]
//!                [--graph-cache <dir>] [--events <out.jsonl>] [--metrics <out.json>]
//! rtlcheck emit-sva <test.litmus | name> [--memory ...]
//! rtlcheck emit-verilog <test.litmus | name> [--memory ...]
//! rtlcheck axiomatic <test.litmus | name> [--memory ...] [--dot]
//! rtlcheck suite [--memory ...] [--config ...] [--jobs N] [--only a,b,c]
//!                [--graph-cache <dir>] [--json <out.json>]
//!                [--events <out.jsonl>] [--metrics <out.json>]
//! rtlcheck mutate [--design multi_vscale|five_stage|tso] [--config ...]
//!                 [--jobs N] [--only a,b,c] [--mutants a,b,c]
//!                 [--graph-cache <dir>] [--json <out.json>]
//!                 [--events <out.jsonl>] [--metrics <out.json>]
//! rtlcheck fuzz [--count N] [--seed S] [--memory ...] [--config ...]
//!               [--jobs N] [--len MIN..MAX] [--escalate N]
//!               [--graph-cache <dir>] [--json <out.json>]
//! rtlcheck profile <metrics.json>
//! rtlcheck list
//! ```
//!
//! `--events` streams every pipeline span, counter, and event as one JSON
//! object per line; `--metrics` aggregates them (per-phase latency
//! histograms, counter totals, slowest properties) into a summary that
//! `rtlcheck profile` renders. `suite --jobs N` checks tests on N worker
//! threads; output, results, and merged metrics are identical to a
//! sequential run (only wall-clock time changes). `--graph-cache DIR`
//! persists each test's warm state graph to DIR and reloads it on later
//! runs, skipping the graph-build phase; stale or corrupt cache files are
//! detected and fall back to a cold build.
//!
//! `mutate` runs the mutation campaign: every catalogued mutant of the
//! chosen design is checked against the litmus suite and classified as
//! killed, survived, or budget-limited; the report (text on stdout, JSON
//! with `--json`) carries the per-mutant × per-axiom kill matrix and is
//! byte-identical across `--jobs` values.
//!
//! `fuzz` runs the streaming diy fuzzing campaign: seeded random cycles
//! are deduplicated by canonical signature, triaged by the polynomial
//! SC/TSO oracle, and only oracle-unresolved or budgeted shapes escalate
//! to the full RTL engine; like the other campaigns its report is
//! byte-identical across `--jobs` values.

use std::io::{BufWriter, Write as _};
use std::process::ExitCode;

use rtlcheck::core::{CoverOutcome, Rtlcheck};
use rtlcheck::litmus::{suite, LitmusTest};
use rtlcheck::obs::{
    Collector, JsonlCollector, MetricsCollector, MetricsSummary, MultiCollector, ProgressSink,
    TraceCollector, TrackSink,
};
use rtlcheck::prelude::*;
use rtlcheck::uhb::solve;
use rtlcheck::uspec::ground::{ground, DataMode};
use rtlcheck::verif::{GraphCache, Incremental, PropertyVerdict};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage:
  rtlcheck check <test> [--memory fixed|buggy|tso] [--config quick|hybrid|full-proof] [--trace] [--vcd <path>]
                 [--graph-cache <dir>]
                 [--events <out.jsonl>] [--metrics <out.json>] [--trace-out <out.json>]
  rtlcheck emit-sva <test> [--memory ...]
  rtlcheck emit-verilog <test> [--memory ...]
  rtlcheck axiomatic <test> [--memory ...] [--dot]
  rtlcheck suite [--memory ...] [--config ...] [--jobs N] [--only a,b,c]
                 [--graph-cache <dir>] [--json <out.json>]
                 [--events <out.jsonl>] [--metrics <out.json>]
                 [--trace-out <out.json>] [--progress]
  rtlcheck mutate [--design multi_vscale|five_stage|tso] [--config ...] [--jobs N]
                 [--only a,b,c] [--mutants a,b,c] [--graph-cache <dir>]
                 [--incremental[=off|on|validate]] [--json <out.json>]
                 [--events <out.jsonl>] [--metrics <out.json>]
                 [--trace-out <out.json>] [--progress]
  rtlcheck fuzz [--count N] [--seed S] [--memory fixed|buggy|tso] [--config ...]
                 [--jobs N] [--len MIN..MAX] [--escalate N]
                 [--graph-cache <dir>] [--json <out.json>]
                 [--events <out.jsonl>] [--metrics <out.json>]
                 [--trace-out <out.json>] [--progress]
  rtlcheck bench [--workload suite,mutate,mutate-cold,check] [--config a,b]
                 [--jobs 1,8] [--only a,b,c] [--iterations N] [--warmup N]
                 [--graph-cache <dir>] [--json <out.json>]
                 [--baseline <bench.json>] [--tolerance PCT]
  rtlcheck serve [--addr HOST:PORT] [--jobs N] [--queue N] [--graph-cache <dir>]
                 [--cache-capacity N] [--max-frame BYTES]
                 [--events <out.jsonl>] [--metrics <out.json>]
                 [--trace-out <out.json>] [--progress]
  rtlcheck connect <addr> [--batch FILE|-] [--shutdown] [--out FILE] [--timeout SECS]
  rtlcheck profile <metrics.json>
  rtlcheck profile --diff <a.json> <b.json>
  rtlcheck list

<test> is a path to a .litmus file or the name of a built-in suite test.
--events streams spans/counters/events as JSON lines; --metrics writes an
aggregated summary which `rtlcheck profile` renders as a report.
--trace-out writes a Chrome trace-event / Perfetto JSON timeline with one
track per worker; --progress renders a live stderr ticker. Neither changes
the report or metrics streams.
--jobs runs suite tests on N worker threads (deterministic output);
--only restricts the suite to a comma-separated list of test names.
--graph-cache persists warm state graphs to <dir> and reloads them on
later runs (corrupt or stale files fall back to a cold build).
`mutate` checks every catalogued mutant of --design against the suite and
reports the mutation score; --mutants restricts the mutant set and --json
writes the full report (kill matrix, survivors) as a JSON artifact.
--incremental (default on) splices each mutant's state graph from the
baseline core, re-simulating only the mutation's dirty cones — output is
byte-identical to --incremental=off (cold builds); =validate additionally
re-simulates every spliced row and asserts equality.
`suite --json` writes the per-test rows as a JSON artifact.
`fuzz` runs a seeded diy litmus fuzzing campaign: --count random cycles are
generated, deduplicated by rotation/reflection-invariant signature, triaged
by a polynomial SC/TSO oracle, and the shapes the oracle cannot settle (or
that --escalate budgets in) are escalated to the full RTL engine; the
report carries the axiom exercise matrix and is byte-identical across
--jobs values. --len bounds the cycle length (default 3..6).
`bench` runs warmup + N timed iterations of each workload case (the cross
product of the comma-separated lists) and writes an `rtlcheck-bench/1`
document; with --baseline it exits non-zero when a case's median regresses
past --tolerance percent (default 25). The `mutate` workload runs the
campaign incrementally; `mutate-cold` is the same campaign with
--incremental=off (the before/after pair for splice speedups).
`profile --diff` compares two metrics files: per-counter deltas and
histogram shifts.
`serve` runs the long-lived verification server: a TCP daemon accepting
newline-delimited JSON job requests (check/suite/mutate/fuzz, plus
ping/stats/shutdown) against one shared warm graph cache, coalescing
identical in-flight problems and bounding the pending queue (--queue,
default 64; excess jobs get structured `overloaded` rejections). It
prints the bound address on startup, drains on a `shutdown` request, and
exits 0. `connect` is the matching client: it sends each line of --batch
(a file, or `-` for stdin) as one request, waits for every response, and
prints the received frames verbatim (exit 1 if any was an error frame).";

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".into());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "list" => {
            for name in suite::names() {
                println!("{name}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "check" => check(rest),
        "emit-sva" => {
            let (test, memory, _) = common_args(rest, true)?;
            Rtlcheck::fit(&test).map_err(|e| e.to_string())?;
            print!("{}", Rtlcheck::new(memory).emit_sva(&test));
            Ok(ExitCode::SUCCESS)
        }
        "emit-verilog" => {
            let (test, memory, _) = common_args(rest, true)?;
            Rtlcheck::fit(&test).map_err(|e| e.to_string())?;
            let mv = Rtlcheck::new(memory).build_design(&test);
            print!("{}", rtlcheck::rtl::verilog::emit(&mv.design));
            Ok(ExitCode::SUCCESS)
        }
        "axiomatic" => axiomatic(rest),
        "suite" => suite_cmd(rest),
        "mutate" => mutate_cmd(rest),
        "fuzz" => fuzz_cmd(rest),
        "bench" => bench_cmd(rest),
        "serve" => serve_cmd(rest),
        "connect" => connect_cmd(rest),
        "profile" => profile(rest),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn parse_memory(v: &str) -> Result<MemoryImpl, String> {
    match v {
        "fixed" => Ok(MemoryImpl::Fixed),
        "buggy" => Ok(MemoryImpl::Buggy),
        "tso" => Ok(MemoryImpl::Tso),
        other => Err(format!("unknown memory implementation `{other}`")),
    }
}

fn parse_config(v: &str) -> Result<VerifyConfig, String> {
    match v {
        "quick" => Ok(VerifyConfig::quick()),
        "hybrid" => Ok(VerifyConfig::hybrid()),
        "full-proof" | "full_proof" => Ok(VerifyConfig::full_proof()),
        other => Err(format!("unknown config `{other}`")),
    }
}

/// Parses `[<test>] [--memory M] [--config C] [--trace|--dot]`; returns the
/// test (if `need_test`), memory, and the flag words.
fn common_args(
    args: &[String],
    need_test: bool,
) -> Result<(LitmusTest, MemoryImpl, Vec<String>), String> {
    let mut test = None;
    let mut memory = MemoryImpl::Fixed;
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--memory" => {
                let v = it.next().ok_or("--memory needs a value")?;
                memory = parse_memory(v)?;
            }
            "--config" => {
                let v = it.next().ok_or("--config needs a value")?;
                flags.push(format!("--config={v}"));
            }
            "--vcd" => {
                let v = it.next().ok_or("--vcd needs a path")?;
                flags.push(format!("--vcd={v}"));
            }
            "--events" => {
                let v = it.next().ok_or("--events needs a path")?;
                flags.push(format!("--events={v}"));
            }
            "--metrics" => {
                let v = it.next().ok_or("--metrics needs a path")?;
                flags.push(format!("--metrics={v}"));
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a count")?;
                let _: usize = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("--jobs needs a positive integer, got `{v}`"))?;
                flags.push(format!("--jobs={v}"));
            }
            "--only" => {
                let v = it
                    .next()
                    .ok_or("--only needs a comma-separated test list")?;
                flags.push(format!("--only={v}"));
            }
            "--graph-cache" => {
                let v = it.next().ok_or("--graph-cache needs a directory")?;
                flags.push(format!("--graph-cache={v}"));
            }
            "--json" => {
                let v = it.next().ok_or("--json needs a path")?;
                flags.push(format!("--json={v}"));
            }
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out needs a path")?;
                flags.push(format!("--trace-out={v}"));
            }
            f @ ("--trace" | "--dot" | "--progress") => flags.push(f.to_string()),
            f if f.starts_with("--") => return Err(format!("unknown flag `{f}`")),
            positional => {
                if test.is_some() {
                    return Err(format!("unexpected argument `{positional}`"));
                }
                test = Some(load_test(positional)?);
            }
        }
    }
    let test = match (test, need_test) {
        (Some(t), _) => t,
        (None, false) => suite::get("mp").expect("mp exists"),
        (None, true) => return Err("missing <test> argument".into()),
    };
    Ok((test, memory, flags))
}

fn flag_config(flags: &[String]) -> Result<VerifyConfig, String> {
    for f in flags {
        if let Some(v) = f.strip_prefix("--config=") {
            return parse_config(v);
        }
    }
    Ok(VerifyConfig::quick())
}

/// Builds the on-disk graph cache if `--graph-cache DIR` was given.
fn flag_graph_cache(flags: &[String]) -> Result<Option<GraphCache>, String> {
    match flags.iter().find_map(|f| f.strip_prefix("--graph-cache=")) {
        Some(dir) => GraphCache::with_dir(dir)
            .map(Some)
            .map_err(|e| format!("creating graph cache directory `{dir}`: {e}")),
        None => Ok(None),
    }
}

/// The `--events` / `--metrics` / `--trace-out` sinks of one CLI
/// invocation.
///
/// The first two feed from the *deterministic* stream (buffered and
/// replayed in input order under `--jobs N`); the Chrome trace is a *live*
/// side-channel ([`TrackSink`]) attached to the worker threads directly,
/// because a timeline is only meaningful with real timestamps and the real
/// parallel schedule.
struct Observability {
    jsonl: Option<JsonlCollector<BufWriter<std::fs::File>>>,
    metrics: Option<(MetricsCollector, String)>,
    trace: Option<(TraceCollector, String)>,
}

impl Observability {
    fn from_flags(flags: &[String]) -> Result<Observability, String> {
        let jsonl = match flags.iter().find_map(|f| f.strip_prefix("--events=")) {
            Some(path) => {
                let file =
                    std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
                Some(JsonlCollector::new(BufWriter::new(file)))
            }
            None => None,
        };
        let metrics = flags
            .iter()
            .find_map(|f| f.strip_prefix("--metrics="))
            .map(|path| (MetricsCollector::new(), path.to_string()));
        let trace = flags
            .iter()
            .find_map(|f| f.strip_prefix("--trace-out="))
            .map(|path| (TraceCollector::new(), path.to_string()));
        Ok(Observability {
            jsonl,
            metrics,
            trace,
        })
    }

    /// The fan-out collector over the deterministic sinks (a no-op when
    /// none).
    fn collector(&self) -> MultiCollector<'_> {
        let mut sinks: Vec<&dyn Collector> = Vec::new();
        if let Some(j) = &self.jsonl {
            sinks.push(j);
        }
        if let Some((m, _)) = &self.metrics {
            sinks.push(m);
        }
        MultiCollector::new(sinks)
    }

    /// The live side-channel sinks workers attach per-track.
    fn live_sinks(&self) -> Vec<&dyn TrackSink> {
        self.trace
            .iter()
            .map(|(t, _)| t as &dyn TrackSink)
            .collect()
    }

    /// Flushes the event stream and writes the metrics summary and trace
    /// timeline files.
    fn finish(self) -> Result<(), String> {
        if let Some(j) = self.jsonl {
            let mut w = j.finish().map_err(|e| format!("writing events: {e}"))?;
            w.flush().map_err(|e| format!("writing events: {e}"))?;
        }
        if let Some((m, path)) = self.metrics {
            let text = m.summary().to_json().pretty();
            std::fs::write(&path, text + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        }
        if let Some((t, path)) = self.trace {
            std::fs::write(&path, t.render() + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        }
        Ok(())
    }
}

/// Builds the `--progress` ticker when the flag is present; `total` is the
/// expected number of work units (0 when unknown).
fn flag_progress(flags: &[String], label: &str, total: u64) -> Option<ProgressSink> {
    flags
        .iter()
        .any(|f| f == "--progress")
        .then(|| ProgressSink::new(label, total))
}

fn load_test(arg: &str) -> Result<LitmusTest, String> {
    if let Some(t) = suite::get(arg) {
        return Ok(t);
    }
    let src = std::fs::read_to_string(arg)
        .map_err(|e| format!("`{arg}` is not a suite test and could not be read: {e}"))?;
    rtlcheck::litmus::parse(&src).map_err(|e| format!("{arg}: {e}"))
}

fn check(args: &[String]) -> Result<ExitCode, String> {
    let (test, memory, flags) = common_args(args, true)?;
    Rtlcheck::admit(&test).map_err(|e| e.to_string())?;
    let config = flag_config(&flags)?;
    let obs = Observability::from_flags(&flags)?;
    let cache = flag_graph_cache(&flags)?;
    let tool = Rtlcheck::new(memory);
    let report = {
        let collector = obs.collector();
        // Live sinks (the trace timeline) get a direct track: `check` is
        // single-threaded, so everything lands on the main track.
        let live = obs.live_sinks();
        let tracks: Vec<Box<dyn Collector + '_>> = live.iter().map(|s| s.track(0)).collect();
        let mut sinks: Vec<&dyn Collector> = vec![&collector];
        sinks.extend(tracks.iter().map(|b| &**b));
        let fan = MultiCollector::new(sinks);
        match &cache {
            Some(cache) => {
                let report = tool.check_test_cached(&test, &config, cache, &fan);
                cache.report_to(&fan);
                report
            }
            None => tool.check_test_observed(&test, &config, &fan),
        }
    };
    obs.finish()?;
    println!("{report}");
    if flags.iter().any(|f| f == "--trace") {
        print_explore_stats(&report);
        let mv = tool.build_design(&test);
        let signals: Vec<String> = mv
            .design
            .signals()
            .filter(|(_, s)| {
                s.name.contains("PC_WB")
                    || s.name.contains("load_data")
                    || s.name.starts_with("mem_")
                    || s.name == "arbiter_grant"
            })
            .map(|(_, s)| s.name.clone())
            .collect();
        let names: Vec<&str> = signals.iter().map(String::as_str).collect();
        if let CoverOutcome::BugWitness(trace) = &report.cover {
            println!("\ncovering trace:\n{}", trace.render(&mv.design, &names));
        }
        if let Some((name, trace)) = report.first_counterexample() {
            println!(
                "\ncounterexample for {name}:\n{}",
                trace.render(&mv.design, &names)
            );
        }
    }
    if let Some(path) = flags.iter().find_map(|f| f.strip_prefix("--vcd=")) {
        let mv = tool.build_design(&test);
        let trace = report
            .first_counterexample()
            .map(|(_, t)| t)
            .or(match &report.cover {
                CoverOutcome::BugWitness(t) => Some(t.as_ref()),
                _ => None,
            });
        match trace {
            Some(t) => {
                std::fs::write(path, rtlcheck::rtl::vcd::emit(&mv.design, t))
                    .map_err(|e| format!("writing {path}: {e}"))?;
                println!("\nVCD written to {path}");
            }
            None => println!("\nno violating trace to dump (test verified)"),
        }
    }
    Ok(if report.bug_found() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The `--trace` exploration table: per-phase/per-property states,
/// transitions, assumption pruning, and completed depth — the same numbers
/// the `--metrics` counters aggregate.
fn print_explore_stats(report: &TestReport) {
    println!("\nexploration statistics:");
    println!(
        "  {:<28} {:<12} {:>8} {:>12} {:>8} {:>6} {:>12}",
        "phase/property", "verdict", "states", "transitions", "pruned", "depth", "time"
    );
    let c = report.cover_stats;
    let cover_verdict = match &report.cover {
        CoverOutcome::VerifiedUnreachable => "unreachable",
        CoverOutcome::BugWitness(_) => "covered",
        CoverOutcome::Inconclusive => "unknown",
    };
    println!(
        "  {:<28} {:<12} {:>8} {:>12} {:>8} {:>6} {:>12}",
        "cover",
        cover_verdict,
        c.states,
        c.transitions,
        c.pruned_by_assumptions,
        c.depth_completed,
        format!("{:.2?}", report.cover_elapsed),
    );
    for p in &report.properties {
        let s = p.stats();
        let verdict = match &p.verdict {
            PropertyVerdict::Proven { .. } if p.vacuously_proven() => "VACUOUS".to_string(),
            PropertyVerdict::Proven { .. } => "proven".to_string(),
            PropertyVerdict::Bounded { depth, .. } => format!("bounded@{depth}"),
            PropertyVerdict::Falsified { .. } => "FALSIFIED".to_string(),
        };
        println!(
            "  {:<28} {:<12} {:>8} {:>12} {:>8} {:>6} {:>12}",
            p.name,
            verdict,
            s.states,
            s.transitions,
            s.pruned_by_assumptions,
            s.depth_completed,
            format!("{:.2?}", p.elapsed),
        );
    }
    let t = report.total_stats();
    println!(
        "  total: {} states, {} transitions, {} pruned by assumptions",
        t.states, t.transitions, t.pruned_by_assumptions
    );
}

/// The `mutate` subcommand: run the mutation campaign on one design's
/// mutant catalog. Own parser — unlike the other subcommands it takes no
/// `<test>` positional and selects a whole design instead.
fn mutate_cmd(args: &[String]) -> Result<ExitCode, String> {
    use rtlcheck::bench::mutation::{run_campaign_live, CampaignOptions};
    use rtlcheck::rtl::mutate::{catalog, CatalogTarget};

    let mut options = CampaignOptions::new(CatalogTarget::MultiVscale);
    let mut config = VerifyConfig::quick();
    let mut json_path: Option<String> = None;
    // `--graph-cache` / `--events` / `--metrics` reuse the shared helpers,
    // which take the `--flag=value` words `common_args` produces.
    let mut shared_flags = Vec::new();
    let split_list = |v: &str| -> Vec<String> {
        v.split(',')
            .map(str::trim)
            .filter(|n| !n.is_empty())
            .map(String::from)
            .collect()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--design" => {
                let v = it.next().ok_or("--design needs a value")?;
                options.target = CatalogTarget::parse(v).ok_or(format!(
                    "unknown design `{v}` (expected multi_vscale, five_stage, or tso)"
                ))?;
            }
            "--config" => {
                let v = it.next().ok_or("--config needs a value")?;
                config = parse_config(v)?;
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a count")?;
                options.jobs = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("--jobs needs a positive integer, got `{v}`"))?;
            }
            "--only" => {
                let v = it
                    .next()
                    .ok_or("--only needs a comma-separated test list")?;
                options.tests = Some(split_list(v));
            }
            "--mutants" => {
                let v = it
                    .next()
                    .ok_or("--mutants needs a comma-separated mutant list")?;
                options.mutants = Some(split_list(v));
            }
            "--json" => {
                let v = it.next().ok_or("--json needs a path")?;
                json_path = Some(v.clone());
            }
            "--graph-cache" => {
                let v = it.next().ok_or("--graph-cache needs a directory")?;
                shared_flags.push(format!("--graph-cache={v}"));
            }
            "--events" => {
                let v = it.next().ok_or("--events needs a path")?;
                shared_flags.push(format!("--events={v}"));
            }
            "--metrics" => {
                let v = it.next().ok_or("--metrics needs a path")?;
                shared_flags.push(format!("--metrics={v}"));
            }
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out needs a path")?;
                shared_flags.push(format!("--trace-out={v}"));
            }
            "--progress" => shared_flags.push("--progress".to_string()),
            "--incremental" => options.incremental = Incremental::On,
            other if other.starts_with("--incremental=") => {
                let v = &other["--incremental=".len()..];
                options.incremental = match v {
                    "on" => Incremental::On,
                    "off" => Incremental::Off,
                    "validate" => Incremental::Validate,
                    _ => {
                        return Err(format!(
                            "unknown --incremental value `{v}` (expected on, off, or validate)"
                        ))
                    }
                };
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }

    let cache = flag_graph_cache(&shared_flags)?;
    let obs = Observability::from_flags(&shared_flags)?;
    let collector = obs.collector();
    // A campaign runs every selected test once on the baseline and once per
    // selected mutant — that product is the progress denominator.
    let n_tests = options
        .tests
        .as_ref()
        .map_or(suite::names().len(), Vec::len);
    let n_mutants = options
        .mutants
        .as_ref()
        .map_or(catalog(options.target).len(), Vec::len);
    let progress = flag_progress(&shared_flags, "mutate", ((1 + n_mutants) * n_tests) as u64);
    let mut live: Vec<&dyn TrackSink> = obs.live_sinks();
    if let Some(p) = &progress {
        live.push(p);
    }
    let report = run_campaign_live(&options, &config, &collector, cache.as_ref(), &live)?;
    if let Some(p) = &progress {
        p.finish();
    }
    drop(collector);
    obs.finish()?;
    print!("{}", report.render());
    if let Some(path) = &json_path {
        let text = report.to_json().pretty();
        std::fs::write(path, text + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        println!("\nJSON report written to {path}");
    }
    // A campaign that kills nothing means the property set detected none of
    // the injected bugs — fail so CI smoke runs catch it.
    Ok(if report.killed() == 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The `fuzz` subcommand: run the streaming diy fuzzing campaign — seeded
/// cycle generation, signature dedup, polynomial oracle triage, and
/// engine escalation for the shapes the oracle cannot settle. Own parser:
/// like `mutate` it takes no `<test>` positional.
fn fuzz_cmd(args: &[String]) -> Result<ExitCode, String> {
    use rtlcheck::bench::fuzz::{run_fuzz_live, FuzzOptions};

    let mut options = FuzzOptions::new(MemoryImpl::Fixed);
    let mut config = VerifyConfig::quick();
    let mut json_path: Option<String> = None;
    let mut shared_flags = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--count" => {
                let v = it.next().ok_or("--count needs a number")?;
                options.count = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("--count needs a positive integer, got `{v}`"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a number")?;
                options.seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs an unsigned integer, got `{v}`"))?;
            }
            "--memory" => {
                let v = it.next().ok_or("--memory needs a value")?;
                options.memory = parse_memory(v)?;
            }
            "--config" => {
                let v = it.next().ok_or("--config needs a value")?;
                config = parse_config(v)?;
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a count")?;
                options.jobs = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("--jobs needs a positive integer, got `{v}`"))?;
            }
            "--len" => {
                let v = it.next().ok_or("--len needs a range like 3..6")?;
                let (lo, hi) = v
                    .split_once("..")
                    .ok_or(format!("--len needs MIN..MAX, got `{v}`"))?;
                options.min_len = lo
                    .parse()
                    .map_err(|_| format!("--len minimum must be an integer, got `{lo}`"))?;
                options.max_len = hi
                    .parse()
                    .map_err(|_| format!("--len maximum must be an integer, got `{hi}`"))?;
                if options.min_len < 2 || options.min_len > options.max_len {
                    return Err(format!("invalid --len range `{v}` (need 2 <= min <= max)"));
                }
            }
            "--escalate" => {
                let v = it.next().ok_or("--escalate needs a number")?;
                options.escalate_budget = Some(
                    v.parse()
                        .map_err(|_| format!("--escalate needs an unsigned integer, got `{v}`"))?,
                );
            }
            "--json" => {
                let v = it.next().ok_or("--json needs a path")?;
                json_path = Some(v.clone());
            }
            "--graph-cache" => {
                let v = it.next().ok_or("--graph-cache needs a directory")?;
                shared_flags.push(format!("--graph-cache={v}"));
            }
            "--events" => {
                let v = it.next().ok_or("--events needs a path")?;
                shared_flags.push(format!("--events={v}"));
            }
            "--metrics" => {
                let v = it.next().ok_or("--metrics needs a path")?;
                shared_flags.push(format!("--metrics={v}"));
            }
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out needs a path")?;
                shared_flags.push(format!("--trace-out={v}"));
            }
            "--progress" => shared_flags.push("--progress".to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }

    let cache = flag_graph_cache(&shared_flags)?;
    let obs = Observability::from_flags(&shared_flags)?;
    let collector = obs.collector();
    // The engine-escalation bucket count is only known after triage, so the
    // progress denominator is unknown upfront.
    let progress = flag_progress(&shared_flags, "fuzz", 0);
    let mut live: Vec<&dyn TrackSink> = obs.live_sinks();
    if let Some(p) = &progress {
        live.push(p);
    }
    let report = run_fuzz_live(&options, &config, &collector, cache.as_ref(), &live)?;
    if let Some(p) = &progress {
        p.finish();
    }
    drop(collector);
    obs.finish()?;
    print!("{}", report.render());
    if let Some(path) = &json_path {
        let text = report.to_json().pretty();
        std::fs::write(path, text + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        println!("\nJSON report written to {path}");
    }
    // A model-level violation is always a failure. An oracle/engine
    // disagreement is a failure on correct memories; on `--memory buggy` it
    // is the expected signal (the engine sees the injected bug the ideal
    // model forbids).
    let disagreement_failure = report.disagreements() > 0 && options.memory != MemoryImpl::Buggy;
    Ok(if report.violations() > 0 || disagreement_failure {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The `serve` subcommand: run the verification server until a client's
/// `shutdown` request drains the queue. Own parser: the server has no
/// `<test>` positional and owns its cache handle for the whole process
/// lifetime (the warm-cache point of the daemon).
fn serve_cmd(args: &[String]) -> Result<ExitCode, String> {
    use rtlcheck::bench::serve::{ServeOptions, Server};

    let mut opts = ServeOptions::default();
    let mut shared_flags = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                let v = it.next().ok_or("--addr needs a HOST:PORT value")?;
                opts.addr = v.clone();
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a count")?;
                opts.jobs = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("--jobs needs a positive integer, got `{v}`"))?;
            }
            "--queue" => {
                let v = it.next().ok_or("--queue needs a count")?;
                opts.queue_cap = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("--queue needs a positive integer, got `{v}`"))?;
            }
            "--cache-capacity" => {
                let v = it.next().ok_or("--cache-capacity needs a count")?;
                opts.cache_capacity = v.parse().ok().filter(|&n| n >= 1).ok_or(format!(
                    "--cache-capacity needs a positive integer, got `{v}`"
                ))?;
            }
            "--max-frame" => {
                let v = it.next().ok_or("--max-frame needs a byte count")?;
                opts.max_frame = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 64)
                    .ok_or(format!("--max-frame needs an integer >= 64, got `{v}`"))?;
            }
            "--graph-cache" => {
                let v = it.next().ok_or("--graph-cache needs a directory")?;
                opts.cache_dir = Some(v.clone());
            }
            "--events" => {
                let v = it.next().ok_or("--events needs a path")?;
                shared_flags.push(format!("--events={v}"));
            }
            "--metrics" => {
                let v = it.next().ok_or("--metrics needs a path")?;
                shared_flags.push(format!("--metrics={v}"));
            }
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out needs a path")?;
                shared_flags.push(format!("--trace-out={v}"));
            }
            "--progress" => shared_flags.push("--progress".to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }

    let obs = Observability::from_flags(&shared_flags)?;
    // `--events` / `--metrics` consume the jobs' deterministic streams,
    // which the server only retains (and replays, in admission order, at
    // drain) when asked.
    opts.keep_streams = shared_flags
        .iter()
        .any(|f| f.starts_with("--events=") || f.starts_with("--metrics="));
    let server = Server::bind(opts.clone()).map_err(|e| format!("serve: {e}"))?;
    // The startup line is the machine-readable contract tests and CI parse
    // the bound (possibly ephemeral) port from — flush before blocking.
    println!(
        "rtlcheck serve: listening on {} ({} worker(s), queue {})",
        server.local_addr(),
        opts.jobs,
        opts.queue_cap
    );
    std::io::stdout()
        .flush()
        .map_err(|e| format!("flushing stdout: {e}"))?;
    let summary = {
        let collector = obs.collector();
        // Job completions arrive in schedule order, so the progress
        // denominator is unknown upfront.
        let progress = flag_progress(&shared_flags, "serve", 0);
        let mut live: Vec<&dyn TrackSink> = obs.live_sinks();
        if let Some(p) = &progress {
            live.push(p);
        }
        let summary = server.run(&collector, &live);
        if let Some(p) = &progress {
            p.finish();
        }
        summary
    };
    obs.finish()?;
    println!(
        "rtlcheck serve: drained after {} connection(s), {} job(s) \
         ({} completed, {} coalesced), {} overloaded, {} protocol error(s)",
        summary.connections,
        summary.jobs,
        summary.completed,
        summary.coalesced,
        summary.rejected_overload,
        summary.protocol_errors
    );
    Ok(ExitCode::SUCCESS)
}

/// The `connect` subcommand: the batch client for a running server. Sends
/// each non-empty line of `--batch` as one request, prints every received
/// frame verbatim (stdout, or `--out` for CI byte-diffing), and exits
/// non-zero if any response was an error frame.
fn connect_cmd(args: &[String]) -> Result<ExitCode, String> {
    use rtlcheck::bench::serve::client_run;

    let mut addr: Option<String> = None;
    let mut batch_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut shutdown = false;
    let mut timeout = std::time::Duration::from_secs(300);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--batch" => {
                let v = it.next().ok_or("--batch needs a file path (or `-`)")?;
                batch_path = Some(v.clone());
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a path")?;
                out_path = Some(v.clone());
            }
            "--timeout" => {
                let v = it.next().ok_or("--timeout needs seconds")?;
                let secs: u64 = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("--timeout needs a positive integer, got `{v}`"))?;
                timeout = std::time::Duration::from_secs(secs);
            }
            "--shutdown" => shutdown = true,
            f if f.starts_with("--") => return Err(format!("unknown flag `{f}`")),
            positional => {
                if addr.is_some() {
                    return Err(format!("unexpected argument `{positional}`"));
                }
                addr = Some(positional.to_string());
            }
        }
    }
    let addr = addr.ok_or("missing <addr> argument")?;
    let batch: Vec<String> = match batch_path.as_deref() {
        Some("-") => {
            let mut text = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut text)
                .map_err(|e| format!("reading stdin: {e}"))?;
            text.lines().map(String::from).collect()
        }
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))?
            .lines()
            .map(String::from)
            .collect(),
        None => Vec::new(),
    };
    if batch.iter().all(|l| l.trim().is_empty()) && !shutdown {
        return Err("nothing to send (empty --batch and no --shutdown)".into());
    }
    // Runtime failures (connection refused, timeouts) are operational, not
    // usage errors: report and exit 1 without the usage text.
    let outcome = match client_run(&addr, &batch, shutdown, timeout) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("connect: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let mut rendered = outcome.lines.join("\n");
    if !rendered.is_empty() {
        rendered.push('\n');
    }
    match &out_path {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("writing {path}: {e}"))?
        }
        None => print!("{rendered}"),
    }
    Ok(if outcome.errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The `bench` subcommand: warmup + timed iterations over the cross
/// product of `--workload` × `--config` × `--jobs`, phase
/// breakdowns from the obs metrics, and optional `--baseline` regression
/// gating. Structurally it is a thin CLI over [`rtlcheck::bench::bench`]:
/// the harness owns timing/statistics, this function owns case
/// enumeration and the per-workload iteration closures.
fn bench_cmd(args: &[String]) -> Result<ExitCode, String> {
    use rtlcheck::bench::bench::{
        regressions, render_comparison, run_case, BenchReport, CaseKey, SCHEMA,
    };
    use rtlcheck::bench::mutation::{run_campaign, CampaignOptions};
    use rtlcheck::rtl::mutate::CatalogTarget;

    let split_list = |v: &str| -> Vec<String> {
        v.split(',')
            .map(str::trim)
            .filter(|n| !n.is_empty())
            .map(String::from)
            .collect()
    };
    let mut workloads = vec!["suite".to_string()];
    let mut configs = vec!["quick".to_string()];
    let mut jobs_list = vec![1usize];
    let mut only: Option<Vec<String>> = None;
    let mut iterations = 3usize;
    let mut warmup = 1usize;
    let mut cache_flags = Vec::new();
    let mut json_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut tolerance = 25.0f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => {
                let v = it.next().ok_or("--workload needs a comma-separated list")?;
                workloads = split_list(v);
            }
            "--config" => {
                let v = it.next().ok_or("--config needs a comma-separated list")?;
                configs = split_list(v);
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a comma-separated list")?;
                jobs_list = Vec::new();
                for n in split_list(v) {
                    jobs_list.push(
                        n.parse()
                            .ok()
                            .filter(|&j| j >= 1)
                            .ok_or(format!("--jobs needs positive integers, got `{n}`"))?,
                    );
                }
            }
            "--only" => {
                let v = it
                    .next()
                    .ok_or("--only needs a comma-separated test list")?;
                only = Some(split_list(v));
            }
            "--iterations" => {
                let v = it.next().ok_or("--iterations needs a count")?;
                iterations = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("--iterations needs a positive integer, got `{v}`"))?;
            }
            "--warmup" => {
                let v = it.next().ok_or("--warmup needs a count")?;
                warmup = v
                    .parse()
                    .map_err(|_| format!("--warmup needs an integer, got `{v}`"))?;
            }
            "--graph-cache" => {
                let v = it.next().ok_or("--graph-cache needs a directory")?;
                cache_flags.push(format!("--graph-cache={v}"));
            }
            "--json" => {
                let v = it.next().ok_or("--json needs a path")?;
                json_path = Some(v.clone());
            }
            "--baseline" => {
                let v = it.next().ok_or("--baseline needs a bench.json path")?;
                baseline_path = Some(v.clone());
            }
            "--tolerance" => {
                let v = it.next().ok_or("--tolerance needs a percentage")?;
                tolerance = v
                    .parse()
                    .ok()
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .ok_or(format!("--tolerance needs a percentage, got `{v}`"))?;
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if workloads.is_empty() || configs.is_empty() || jobs_list.is_empty() {
        return Err("empty --workload/--config/--jobs list".into());
    }

    // Resolve everything up front so a typo fails before minutes of timing.
    let tests: Vec<LitmusTest> = match &only {
        Some(names) => {
            let mut picked = Vec::new();
            for name in names {
                picked.push(suite::get(name).ok_or(format!("unknown suite test `{name}`"))?);
            }
            picked
        }
        None => suite::all(),
    };
    for w in &workloads {
        if !matches!(w.as_str(), "suite" | "mutate" | "mutate-cold" | "check") {
            return Err(format!(
                "unknown workload `{w}` (expected suite, mutate, mutate-cold, or check)"
            ));
        }
    }
    let configs = configs
        .iter()
        .map(|name| Ok((name, parse_config(name)?)))
        .collect::<Result<Vec<_>, String>>()?;
    let cache = flag_graph_cache(&cache_flags)?;

    let mut report = BenchReport::default();
    for workload in &workloads {
        for (config_name, config) in &configs {
            for &jobs in &jobs_list {
                let key = CaseKey {
                    workload: workload.clone(),
                    config: config_name.to_string(),
                    jobs,
                    graph_cache: cache.is_some(),
                };
                eprintln!(
                    "bench: {} ({warmup} warmup + {iterations} timed)",
                    key.label()
                );
                let case = match workload.as_str() {
                    "suite" => {
                        let tool = Rtlcheck::new(MemoryImpl::Fixed);
                        run_case(key, warmup, iterations, |metrics| {
                            rtlcheck::bench::check_tests(
                                &tool,
                                &tests,
                                config,
                                jobs,
                                metrics,
                                cache.as_ref(),
                                &[],
                            );
                        })
                    }
                    "check" => {
                        let tool = Rtlcheck::new(MemoryImpl::Fixed);
                        let test = &tests[0];
                        run_case(key, warmup, iterations, |metrics| match &cache {
                            Some(cache) => {
                                tool.check_test_cached(test, config, cache, metrics);
                            }
                            None => {
                                tool.check_test_observed(test, config, metrics);
                            }
                        })
                    }
                    "mutate" | "mutate-cold" => {
                        let mut options = CampaignOptions::new(CatalogTarget::MultiVscale);
                        options.jobs = jobs;
                        options.tests = only.clone();
                        options.incremental = if workload == "mutate" {
                            Incremental::On
                        } else {
                            Incremental::Off
                        };
                        run_case(key, warmup, iterations, |metrics| {
                            run_campaign(&options, config, metrics, cache.as_ref())
                                .expect("bench selections pre-validated");
                        })
                    }
                    _ => unreachable!("workloads validated above"),
                };
                report.cases.push(case);
            }
        }
    }

    print!("{}", report.render());
    if let Some(path) = &json_path {
        let text = report.to_json().pretty();
        std::fs::write(path, text + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        println!("\nbench JSON written to {path}");
    }
    if let Some(path) = &baseline_path {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        let baseline = match BenchReport::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {path}: {e} (expected a `{SCHEMA}` document, from bench --json)");
                return Ok(ExitCode::FAILURE);
            }
        };
        print!("\n{}", render_comparison(&report, &baseline, tolerance));
        if !regressions(&report, &baseline, tolerance).is_empty() {
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn profile(args: &[String]) -> Result<ExitCode, String> {
    if args.first().map(String::as_str) == Some("--diff") {
        let [a, b] = match &args[1..] {
            [a, b] => [a, b],
            _ => return Err("profile --diff needs exactly two <metrics.json> paths".into()),
        };
        let (sa, sb) = match (load_metrics(a), load_metrics(b)) {
            (Ok(sa), Ok(sb)) => (sa, sb),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        println!("{}", sa.render_diff(&sb, a, b).trim_end());
        return Ok(ExitCode::SUCCESS);
    }
    let path = args.first().ok_or("profile needs a <metrics.json> path")?;
    if let Some(extra) = args.get(1) {
        return Err(format!("unexpected argument `{extra}`"));
    }
    match load_metrics(path) {
        Ok(summary) => {
            println!("{}", summary.render().trim_end());
            Ok(ExitCode::SUCCESS)
        }
        // Bad *input files* are a runtime failure (one-line diagnostic,
        // exit 1), not a usage error (exit 2 + usage text).
        Err(e) => {
            eprintln!("error: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// Reads and parses a `rtlcheck-metrics/1` summary, mapping every failure
/// mode (unreadable, empty, malformed, wrong schema) to a one-line message
/// that names the file and the expected schema.
fn load_metrics(path: &str) -> Result<MetricsSummary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if text.trim().is_empty() {
        return Err(format!(
            "{path}: empty file (expected a `rtlcheck-metrics/1` summary, from --metrics)"
        ));
    }
    MetricsSummary::parse(&text).map_err(|e| {
        format!("{path}: {e} (expected a `rtlcheck-metrics/1` summary, from --metrics)")
    })
}

fn axiomatic(args: &[String]) -> Result<ExitCode, String> {
    let (test, memory, flags) = common_args(args, true)?;
    let spec = match memory {
        MemoryImpl::Tso => rtlcheck::uspec::multi_vscale_tso::spec(),
        _ => multi_vscale_spec(),
    };
    let grounded = ground(&spec, &test, DataMode::Outcome).map_err(|e| e.to_string())?;
    let result = solve::solve(&grounded);
    if result.is_forbidden() {
        println!(
            "{}: outcome FORBIDDEN microarchitecturally (all µhb graphs cyclic; {} branches explored)",
            test.name(),
            result.stats().branches
        );
    } else {
        println!("{}: outcome OBSERVABLE microarchitecturally", test.name());
        if flags.iter().any(|f| f == "--dot") {
            if let Some(w) = result.witness() {
                println!("{}", w.to_dot(Some((&test, &spec))));
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn suite_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (_, memory, flags) = common_args(args, false)?;
    let config = flag_config(&flags)?;
    let jobs = match flags.iter().find_map(|f| f.strip_prefix("--jobs=")) {
        Some(v) => v.parse::<usize>().map_err(|e| format!("--jobs: {e}"))?,
        None => 1,
    };
    let tests = match flags.iter().find_map(|f| f.strip_prefix("--only=")) {
        Some(list) => {
            let mut tests = Vec::new();
            for name in list.split(',').map(str::trim).filter(|n| !n.is_empty()) {
                tests.push(suite::get(name).ok_or(format!("unknown suite test `{name}`"))?);
            }
            if tests.is_empty() {
                return Err("--only selected no tests".into());
            }
            tests
        }
        None => suite::all(),
    };
    let cache = flag_graph_cache(&flags)?;
    let obs = Observability::from_flags(&flags)?;
    let collector = obs.collector();
    let progress = flag_progress(&flags, "suite", tests.len() as u64);
    let mut live: Vec<&dyn TrackSink> = obs.live_sinks();
    if let Some(p) = &progress {
        live.push(p);
    }
    let tool = Rtlcheck::new(memory);
    let reports = rtlcheck::bench::check_tests(
        &tool,
        &tests,
        &config,
        jobs,
        &collector,
        cache.as_ref(),
        &live,
    );
    if let Some(p) = &progress {
        p.finish();
    }
    let mut violations = 0;
    for report in &reports {
        let status = if report.bug_found() {
            violations += 1;
            "VIOLATION"
        } else if report.verified_by_assumptions() {
            "verified (assumptions)"
        } else if report.verified() {
            "verified"
        } else {
            "inconclusive"
        };
        println!(
            "{:<12} {:<24} {:>3}/{:<3} proven  {:>10.2?}",
            report.test,
            status,
            report.num_proven(),
            report.properties.len(),
            report.runtime_to_verification()
        );
        let vacuous_props = report.vacuous_properties();
        if report.vacuous {
            println!("             WARNING: contradictory assumptions — vacuous verification");
        } else if !vacuous_props.is_empty() {
            println!(
                "             WARNING: {} propert{} proven vacuously: {}",
                vacuous_props.len(),
                if vacuous_props.len() == 1 { "y" } else { "ies" },
                vacuous_props.join(", "),
            );
        }
    }
    println!("\n{violations} violations");
    if let Some(path) = flags.iter().find_map(|f| f.strip_prefix("--json=")) {
        let results = rtlcheck::bench::SuiteResults {
            config: config.name.clone(),
            rows: reports
                .iter()
                .map(rtlcheck::bench::TestRow::from_report)
                .collect(),
        };
        let text = results.to_json().pretty();
        std::fs::write(path, text + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        println!("JSON report written to {path}");
    }
    drop(collector);
    obs.finish()?;
    Ok(if violations > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
