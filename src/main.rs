//! The `rtlcheck` command-line tool.
//!
//! [`USAGE`] is the synopsis: every subcommand with the flags it takes,
//! printed with every usage error. Each subcommand but `profile` hands its
//! flag table to one parser ([`parse`]), which rejects an unlisted flag, a
//! repeated flag and a stray positional argument before any work runs.
//!
//! `--events` streams every pipeline span, counter, and event as one JSON
//! object per line; `--metrics` aggregates them (per-phase latency
//! histograms, counter totals, slowest properties) into a summary that
//! `rtlcheck profile` renders. `--jobs N` runs the work on N worker
//! threads; reports, results, and merged metrics are identical to a
//! sequential run (only wall-clock time changes).
//!
//! `mutate` runs the mutation campaign: every catalogued mutant of the
//! chosen design is checked against the litmus suite and classified as
//! killed, survived, or budget-limited; the report (text on stdout, JSON
//! with `--json`) carries the per-mutant × per-axiom kill matrix.
//!
//! `fuzz` runs the streaming diy fuzzing campaign: seeded random cycles
//! are deduplicated by canonical signature, triaged by the polynomial
//! SC/TSO oracle, and only oracle-unresolved or budgeted shapes escalate
//! to the full RTL engine.

use std::io::{BufWriter, ErrorKind, Write};
use std::process::ExitCode;
use std::str::FromStr;

use rtlcheck::bench::{parse_config, parse_memory};
use rtlcheck::core::{CoverOutcome, Rtlcheck};
use rtlcheck::litmus::{suite, LitmusTest};
use rtlcheck::obs::{
    Collector, JsonlCollector, MetricsCollector, MetricsSummary, MultiCollector, ProgressSink,
    TraceCollector, TrackSink,
};
use rtlcheck::prelude::*;
use rtlcheck::uhb::solve;
use rtlcheck::uspec::ground::{ground, DataMode};
use rtlcheck::verif::PropertyVerdict;

/// Exit status when stdout's reader has gone away: 128 + SIGPIPE, what a
/// shell reports for a writer killed by a closed pipe, so a `pipefail`
/// script never reads a cut-short run as a pass.
const CLOSED_STDOUT: u8 = 141;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = std::io::stdout().lock();
    let result = run(&args, &mut out).and_then(|code| {
        out.flush()?;
        Ok(code)
    });
    match result {
        Ok(code) => code,
        Err(Failure::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Stdout(e)) if e.kind() == ErrorKind::BrokenPipe => {
            ExitCode::from(CLOSED_STDOUT)
        }
        Err(Failure::Stdout(e)) => {
            eprintln!("error: writing stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Why a subcommand stopped before its exit code.
enum Failure {
    /// Bad arguments or input: exit 2 with the usage text.
    Usage(String),
    /// Writing to stdout failed. Only stdout writes propagate a bare
    /// `io::Error`; every file operation maps its error to a message.
    Stdout(std::io::Error),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Usage(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Usage(msg.to_string())
    }
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Self {
        Failure::Stdout(e)
    }
}

const USAGE: &str = "\
usage:
  rtlcheck check <test> [--memory fixed|buggy|tso] [--config quick|hybrid|full-proof] [--trace] [--vcd <path>]
                 [--events <out.jsonl>] [--metrics <out.json>] [--trace-out <out.json>]
  rtlcheck emit-sva <test> [--memory ...]
  rtlcheck emit-verilog <test> [--memory ...]
  rtlcheck axiomatic <test> [--memory ...] [--dot]
  rtlcheck suite [--memory ...] [--config ...] [--jobs N] [--only a,b,c]
                 [--json <out.json>] [--events <out.jsonl>] [--metrics <out.json>]
                 [--trace-out <out.json>] [--progress]
  rtlcheck mutate [--design multi_vscale|five_stage|tso] [--config ...] [--jobs N]
                 [--only a,b,c] [--mutants a,b,c] [--json <out.json>]
                 [--events <out.jsonl>] [--metrics <out.json>]
                 [--trace-out <out.json>] [--progress]
  rtlcheck fuzz [--count N] [--seed S] [--memory fixed|buggy|tso] [--config ...]
                 [--jobs N] [--len MIN..MAX] [--escalate N] [--json <out.json>]
                 [--events <out.jsonl>] [--metrics <out.json>]
                 [--trace-out <out.json>] [--progress]
  rtlcheck serve [--addr HOST:PORT] [--jobs N] [--queue N]
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
`mutate` checks every catalogued mutant of --design against the suite and
reports the mutation score; --mutants restricts the mutant set and --json
writes the full report (kill matrix, survivors) as a JSON artifact.
`suite --json` writes the per-test rows as a JSON artifact.
`fuzz` runs a seeded diy litmus fuzzing campaign: --count random cycles are
generated, deduplicated by rotation/reflection-invariant signature, triaged
by a polynomial SC/TSO oracle, and the shapes the oracle cannot settle (or
that --escalate budgets in) are escalated to the full RTL engine; the
report carries the axiom exercise matrix and is byte-identical across
--jobs values. --len bounds the cycle length (default 3..6).
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

/// A flag of some subcommand's [`USAGE`] line: its name and, for a flag
/// that takes a value, what the value is (worded for the error when it is
/// missing); `None` marks a switch.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Flag(&'static str, Option<&'static str>);

const MEMORY: Flag = Flag("--memory", Some("a value"));
const CONFIG: Flag = Flag("--config", Some("a value"));
const TRACE: Flag = Flag("--trace", None);
const VCD: Flag = Flag("--vcd", Some("a path"));
const DOT: Flag = Flag("--dot", None);
const JOBS: Flag = Flag("--jobs", Some("a count"));
const ONLY: Flag = Flag("--only", Some("a comma-separated test list"));
const JSON: Flag = Flag("--json", Some("a path"));
const EVENTS: Flag = Flag("--events", Some("a path"));
const METRICS: Flag = Flag("--metrics", Some("a path"));
const TRACE_OUT: Flag = Flag("--trace-out", Some("a path"));
const PROGRESS: Flag = Flag("--progress", None);
const DESIGN: Flag = Flag("--design", Some("a value"));
const MUTANTS: Flag = Flag("--mutants", Some("a comma-separated mutant list"));
const COUNT: Flag = Flag("--count", Some("a number"));
const SEED: Flag = Flag("--seed", Some("a number"));
const LEN: Flag = Flag("--len", Some("a range like 3..6"));
const ESCALATE: Flag = Flag("--escalate", Some("a number"));
const ADDR: Flag = Flag("--addr", Some("a HOST:PORT value"));
const QUEUE: Flag = Flag("--queue", Some("a count"));
const CACHE_CAPACITY: Flag = Flag("--cache-capacity", Some("a count"));
const MAX_FRAME: Flag = Flag("--max-frame", Some("a byte count"));
const BATCH: Flag = Flag("--batch", Some("a file path (or `-`)"));
const OUT: Flag = Flag("--out", Some("a path"));
const TIMEOUT: Flag = Flag("--timeout", Some("seconds"));
const SHUTDOWN: Flag = Flag("--shutdown", None);

const POSITIVE: &str = "a positive integer";
const UNSIGNED: &str = "an unsigned integer";

/// One subcommand's arguments, checked against its flag table by
/// [`parse`].
struct Args<'a> {
    /// The positional argument (empty when the subcommand takes none).
    positional: &'a str,
    /// Each flag given, with its value if it takes one.
    given: Vec<(Flag, &'a str)>,
}

/// Parses a subcommand's arguments against the flags its [`USAGE`] line
/// lists. `positional` names its one required positional argument, or is
/// `None` when it takes none. Each flag may be given once, a flag outside
/// `flags` is an error, as is any other argument, and no two output flags
/// may name one file.
fn parse<'a>(
    args: &'a [String],
    positional: Option<&str>,
    flags: &[Flag],
) -> Result<Args<'a>, String> {
    let mut parsed = Args {
        positional: "",
        given: Vec::new(),
    };
    let mut seen_positional = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a.starts_with("--") {
            let flag = *flags
                .iter()
                .find(|f| f.0 == a)
                .ok_or(format!("unknown flag `{a}`"))?;
            if parsed.has(flag) {
                return Err(format!("flag `{a}` given twice"));
            }
            let value = match flag.1 {
                Some(what) => it.next().ok_or(format!("{a} needs {what}"))?,
                None => "",
            };
            parsed.given.push((flag, value));
        } else if positional.is_some() && !seen_positional {
            parsed.positional = a;
            seen_positional = true;
        } else {
            return Err(format!("unexpected argument `{a}`"));
        }
    }
    if let (Some(name), false) = (positional, seen_positional) {
        return Err(format!("missing {name} argument"));
    }
    // Each output file is written through its own handle, so two flags
    // naming one file would interleave their bytes.
    let outputs = [EVENTS, METRICS, TRACE_OUT, JSON];
    for (i, a) in outputs.iter().enumerate() {
        let Some(path) = parsed.value(*a) else {
            continue;
        };
        if let Some(b) = outputs[i + 1..]
            .iter()
            .find(|b| parsed.value(**b) == Some(path))
        {
            return Err(format!("{} and {} both name `{path}`", a.0, b.0));
        }
    }
    Ok(parsed)
}

impl<'a> Args<'a> {
    /// Whether `flag` was given.
    fn has(&self, flag: Flag) -> bool {
        self.given.iter().any(|(f, _)| *f == flag)
    }

    /// The value of `flag`, if given.
    fn value(&self, flag: Flag) -> Option<&'a str> {
        self.given.iter().find(|(f, _)| *f == flag).map(|(_, v)| *v)
    }

    /// `--memory`, fixed by default.
    fn memory(&self) -> Result<MemoryImpl, String> {
        self.value(MEMORY)
            .map_or(Ok(MemoryImpl::Fixed), parse_memory)
    }

    /// `--config`, quick by default.
    fn config(&self) -> Result<VerifyConfig, String> {
        self.value(CONFIG)
            .map_or(Ok(VerifyConfig::quick()), parse_config)
    }

    /// `--jobs`, one by default.
    fn jobs(&self) -> Result<usize, String> {
        Ok(self.number(JOBS, 1, POSITIVE)?.unwrap_or(1))
    }

    /// The number `flag` carries, if given: at least `min`, as `what` says.
    fn number<T: FromStr + PartialOrd>(
        &self,
        flag: Flag,
        min: T,
        what: &str,
    ) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .ok()
                    .filter(|n| *n >= min)
                    .ok_or(format!("{} needs {what}, got `{v}`", flag.0))
            })
            .transpose()
    }

    /// The comma-separated names `flag` carries, if given, blanks dropped.
    fn list(&self, flag: Flag) -> Option<Vec<String>> {
        self.value(flag).map(|v| {
            v.split(',')
                .map(str::trim)
                .filter(|n| !n.is_empty())
                .map(String::from)
                .collect()
        })
    }
}

fn run(args: &[String], out: &mut dyn Write) -> Result<ExitCode, Failure> {
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".into());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "list" => {
            parse(rest, None, &[])?;
            for name in suite::names() {
                writeln!(out, "{name}")?;
            }
            Ok(ExitCode::SUCCESS)
        }
        "check" => check(rest, out),
        "emit-sva" | "emit-verilog" => {
            let args = parse(rest, Some("<test>"), &[MEMORY])?;
            let test = load_test(args.positional)?;
            let tool = Rtlcheck::new(args.memory()?);
            Rtlcheck::fit(&test).map_err(|e| e.to_string())?;
            if cmd == "emit-sva" {
                write!(out, "{}", tool.emit_sva(&test))?;
            } else {
                let mv = tool.build_design(&test);
                write!(out, "{}", rtlcheck::rtl::verilog::emit(&mv.design))?;
            }
            Ok(ExitCode::SUCCESS)
        }
        "axiomatic" => axiomatic(rest, out),
        "suite" => suite_cmd(rest, out),
        "mutate" => mutate_cmd(rest, out),
        "fuzz" => fuzz_cmd(rest, out),
        "serve" => serve_cmd(rest, out),
        "connect" => connect_cmd(rest, out),
        "profile" => profile(rest, out),
        other => Err(format!("unknown subcommand `{other}`").into()),
    }
}

/// An output file that is written once, at the end of a run. It is created
/// when the flags are read, so a bad path fails before any work runs.
struct Output {
    path: String,
    file: std::fs::File,
}

impl Output {
    fn create(path: &str) -> Result<Output, String> {
        let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        Ok(Output {
            path: path.to_string(),
            file,
        })
    }

    /// Creates the file `flag` names, if given.
    fn open(args: &Args, flag: Flag) -> Result<Option<Output>, String> {
        args.value(flag).map(Output::create).transpose()
    }

    /// Writes `text` and a final newline.
    fn write(&mut self, text: String) -> Result<(), String> {
        self.file
            .write_all((text + "\n").as_bytes())
            .map_err(|e| format!("writing {}: {e}", self.path))
    }
}

/// The `--events` / `--metrics` / `--trace-out` / `--progress` sinks of
/// one CLI invocation.
///
/// The first two feed from the *deterministic* stream (buffered and
/// replayed in input order under `--jobs N`); the Chrome trace and the
/// progress ticker are *live* side-channels ([`TrackSink`]) attached to the
/// worker threads directly, because a timeline or a ticker is only
/// meaningful with real timestamps and the real parallel schedule.
struct Observability {
    jsonl: Option<JsonlCollector<BufWriter<std::fs::File>>>,
    metrics: Option<(MetricsCollector, Output)>,
    trace: Option<(TraceCollector, Output)>,
    progress: Option<ProgressSink>,
}

impl Observability {
    /// Opens the sinks `args` asks for, creating their files now. `label`
    /// and `total` (the expected work units, 0 when unknown) set up the
    /// `--progress` ticker.
    fn open(args: &Args, label: &str, total: u64) -> Result<Observability, String> {
        Ok(Observability {
            jsonl: Output::open(args, EVENTS)?.map(|o| JsonlCollector::new(BufWriter::new(o.file))),
            metrics: Output::open(args, METRICS)?.map(|o| (MetricsCollector::new(), o)),
            trace: Output::open(args, TRACE_OUT)?.map(|o| (TraceCollector::new(), o)),
            progress: args.has(PROGRESS).then(|| ProgressSink::new(label, total)),
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
        let mut sinks: Vec<&dyn TrackSink> = Vec::new();
        if let Some((t, _)) = &self.trace {
            sinks.push(t);
        }
        if let Some(p) = &self.progress {
            sinks.push(p);
        }
        sinks
    }

    /// Renders the ticker's last line, flushes the event stream, and
    /// writes the metrics summary and trace timeline files.
    fn finish(self) -> Result<(), String> {
        if let Some(p) = &self.progress {
            p.finish();
        }
        if let Some(j) = self.jsonl {
            let mut w = j.finish().map_err(|e| format!("writing events: {e}"))?;
            w.flush().map_err(|e| format!("writing events: {e}"))?;
        }
        if let Some((m, mut file)) = self.metrics {
            file.write(m.summary().to_json().pretty())?;
        }
        if let Some((t, mut file)) = self.trace {
            file.write(t.render())?;
        }
        Ok(())
    }
}

fn load_test(arg: &str) -> Result<LitmusTest, String> {
    if let Some(t) = suite::get(arg) {
        return Ok(t);
    }
    let src = std::fs::read_to_string(arg)
        .map_err(|e| format!("`{arg}` is not a suite test and could not be read: {e}"))?;
    rtlcheck::litmus::parse(&src).map_err(|e| format!("{arg}: {e}"))
}

fn check(args: &[String], out: &mut dyn Write) -> Result<ExitCode, Failure> {
    let args = parse(
        args,
        Some("<test>"),
        &[MEMORY, CONFIG, TRACE, VCD, EVENTS, METRICS, TRACE_OUT],
    )?;
    let test = load_test(args.positional)?;
    let memory = args.memory()?;
    Rtlcheck::admit(&test).map_err(|e| e.to_string())?;
    let config = args.config()?;
    let obs = Observability::open(&args, "check", 0)?;
    let tool = Rtlcheck::new(memory);
    let report = {
        let collector = obs.collector();
        // Live sinks (the trace timeline) get a direct track: `check` is
        // single-threaded, so everything lands on the main track.
        let live = obs.live_sinks();
        let tracks: Vec<Box<dyn Collector + '_>> = live.iter().map(|s| s.track(0)).collect();
        let mut sinks: Vec<&dyn Collector> = vec![&collector];
        sinks.extend(tracks.iter().map(|b| &**b));
        tool.check_test_observed(&test, &config, &MultiCollector::new(sinks))
    };
    obs.finish()?;
    writeln!(out, "{report}")?;
    if args.has(TRACE) {
        print_explore_stats(&report, out)?;
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
            writeln!(
                out,
                "\ncovering trace:\n{}",
                trace.render(&mv.design, &names)
            )?;
        }
        if let Some((name, trace)) = report.first_counterexample() {
            writeln!(
                out,
                "\ncounterexample for {name}:\n{}",
                trace.render(&mv.design, &names)
            )?;
        }
    }
    if let Some(path) = args.value(VCD) {
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
                writeln!(out, "\nVCD written to {path}")?;
            }
            None => writeln!(out, "\nno violating trace to dump (test verified)")?,
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
fn print_explore_stats(report: &TestReport, out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(out, "\nexploration statistics:")?;
    writeln!(
        out,
        "  {:<28} {:<12} {:>8} {:>12} {:>8} {:>6} {:>12}",
        "phase/property", "verdict", "states", "transitions", "pruned", "depth", "time"
    )?;
    let c = report.cover_stats;
    let cover_verdict = match &report.cover {
        CoverOutcome::VerifiedUnreachable => "unreachable",
        CoverOutcome::BugWitness(_) => "covered",
        CoverOutcome::Inconclusive => "unknown",
    };
    writeln!(
        out,
        "  {:<28} {:<12} {:>8} {:>12} {:>8} {:>6} {:>12}",
        "cover",
        cover_verdict,
        c.states,
        c.transitions,
        c.pruned_by_assumptions,
        c.depth_completed,
        format!("{:.2?}", report.cover_elapsed),
    )?;
    for p in &report.properties {
        let s = p.stats();
        let verdict = match &p.verdict {
            PropertyVerdict::Proven { .. } if p.vacuously_proven() => "VACUOUS".to_string(),
            PropertyVerdict::Proven { .. } => "proven".to_string(),
            PropertyVerdict::Bounded { depth, .. } => format!("bounded@{depth}"),
            PropertyVerdict::Falsified { .. } => "FALSIFIED".to_string(),
        };
        writeln!(
            out,
            "  {:<28} {:<12} {:>8} {:>12} {:>8} {:>6} {:>12}",
            p.name,
            verdict,
            s.states,
            s.transitions,
            s.pruned_by_assumptions,
            s.depth_completed,
            format!("{:.2?}", p.elapsed),
        )?;
    }
    let t = report.total_stats();
    writeln!(
        out,
        "  total: {} states, {} transitions, {} pruned by assumptions",
        t.states, t.transitions, t.pruned_by_assumptions
    )?;
    Ok(())
}

/// The `mutate` subcommand: run the mutation campaign on one design's
/// mutant catalog.
fn mutate_cmd(args: &[String], out: &mut dyn Write) -> Result<ExitCode, Failure> {
    use rtlcheck::bench::mutation::{run_campaign_live, select, CampaignOptions};
    use rtlcheck::rtl::mutate::CatalogTarget;

    let args = parse(
        args,
        None,
        &[
            DESIGN, CONFIG, JOBS, ONLY, MUTANTS, JSON, EVENTS, METRICS, TRACE_OUT, PROGRESS,
        ],
    )?;
    let target = match args.value(DESIGN) {
        Some(v) => CatalogTarget::parse(v).ok_or(format!(
            "unknown design `{v}` (expected multi_vscale, five_stage, or tso)"
        ))?,
        None => CatalogTarget::MultiVscale,
    };
    let mut options = CampaignOptions::new(target);
    let config = args.config()?;
    options.jobs = args.jobs()?;
    options.tests = args.list(ONLY);
    options.mutants = args.list(MUTANTS);
    // A campaign runs every selected test once on the baseline and once per
    // selected mutant — that product is the progress denominator. Resolving
    // the names first also rejects a bad selection before any output file
    // exists.
    let (tests, mutants) = select(&options)?;
    let obs = Observability::open(&args, "mutate", ((1 + mutants.len()) * tests.len()) as u64)?;
    let mut json = Output::open(&args, JSON)?;
    let report = run_campaign_live(&options, &config, &obs.collector(), None, &obs.live_sinks())?;
    obs.finish()?;
    write!(out, "{}", report.render())?;
    if let Some(json) = &mut json {
        json.write(report.to_json().pretty())?;
        writeln!(out, "\nJSON report written to {}", json.path)?;
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
/// engine escalation for the shapes the oracle cannot settle.
fn fuzz_cmd(args: &[String], out: &mut dyn Write) -> Result<ExitCode, Failure> {
    use rtlcheck::bench::fuzz::{run_fuzz_live, FuzzOptions};

    let args = parse(
        args,
        None,
        &[
            COUNT, SEED, MEMORY, CONFIG, JOBS, LEN, ESCALATE, JSON, EVENTS, METRICS, TRACE_OUT,
            PROGRESS,
        ],
    )?;
    let mut options = FuzzOptions::new(args.memory()?);
    options.count = args.number(COUNT, 1, POSITIVE)?.unwrap_or(options.count);
    options.seed = args.number(SEED, 0, UNSIGNED)?.unwrap_or(options.seed);
    options.jobs = args.jobs()?;
    options.escalate_budget = args.number(ESCALATE, 0, UNSIGNED)?;
    if let Some(v) = args.value(LEN) {
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
            return Err(format!("invalid --len range `{v}` (need 2 <= min <= max)").into());
        }
    }
    let config = args.config()?;
    // The engine-escalation bucket count is only known after triage, so the
    // progress denominator is unknown upfront.
    let obs = Observability::open(&args, "fuzz", 0)?;
    let mut json = Output::open(&args, JSON)?;
    let report = run_fuzz_live(&options, &config, &obs.collector(), None, &obs.live_sinks())?;
    obs.finish()?;
    write!(out, "{}", report.render())?;
    if let Some(json) = &mut json {
        json.write(report.to_json().pretty())?;
        writeln!(out, "\nJSON report written to {}", json.path)?;
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
/// `shutdown` request drains the queue. The server owns its cache handle
/// for the whole process lifetime (the warm-cache point of the daemon).
fn serve_cmd(args: &[String], out: &mut dyn Write) -> Result<ExitCode, Failure> {
    use rtlcheck::bench::serve::{ServeOptions, Server};

    let args = parse(
        args,
        None,
        &[
            ADDR,
            JOBS,
            QUEUE,
            CACHE_CAPACITY,
            MAX_FRAME,
            EVENTS,
            METRICS,
            TRACE_OUT,
            PROGRESS,
        ],
    )?;
    let mut opts = ServeOptions::default();
    if let Some(addr) = args.value(ADDR) {
        opts.addr = addr.to_string();
    }
    opts.jobs = args.jobs()?;
    opts.queue_cap = args.number(QUEUE, 1, POSITIVE)?.unwrap_or(opts.queue_cap);
    opts.cache_capacity = args
        .number(CACHE_CAPACITY, 1, POSITIVE)?
        .unwrap_or(opts.cache_capacity);
    opts.max_frame = args
        .number(MAX_FRAME, 64, "an integer >= 64")?
        .unwrap_or(opts.max_frame);
    // `--events` / `--metrics` consume the jobs' deterministic streams,
    // which the server only retains (and replays, in admission order, at
    // drain) when asked.
    opts.keep_streams = args.has(EVENTS) || args.has(METRICS);
    // Binding first rejects a bad address before any output file exists.
    let server = Server::bind(opts.clone()).map_err(|e| format!("serve: {e}"))?;
    // Job completions arrive in schedule order, so the progress
    // denominator is unknown upfront.
    let obs = Observability::open(&args, "serve", 0)?;
    // The startup line is the machine-readable contract tests and CI parse
    // the bound (possibly ephemeral) port from — flush before blocking.
    writeln!(
        out,
        "rtlcheck serve: listening on {} ({} worker(s), queue {})",
        server.local_addr(),
        opts.jobs,
        opts.queue_cap
    )?;
    out.flush()?;
    let summary = server.run(&obs.collector(), &obs.live_sinks());
    obs.finish()?;
    writeln!(
        out,
        "rtlcheck serve: drained after {} connection(s), {} job(s) \
         ({} completed, {} coalesced), {} overloaded, {} protocol error(s)",
        summary.connections,
        summary.jobs,
        summary.completed,
        summary.coalesced,
        summary.rejected_overload,
        summary.protocol_errors
    )?;
    Ok(ExitCode::SUCCESS)
}

/// The `connect` subcommand: the batch client for a running server. Sends
/// each non-empty line of `--batch` as one request, prints every received
/// frame verbatim (stdout, or `--out` for CI byte-diffing), and exits
/// non-zero if any response was an error frame.
fn connect_cmd(args: &[String], out: &mut dyn Write) -> Result<ExitCode, Failure> {
    use rtlcheck::bench::serve::client_run;

    let args = parse(args, Some("<addr>"), &[BATCH, SHUTDOWN, OUT, TIMEOUT])?;
    let shutdown = args.has(SHUTDOWN);
    let timeout = std::time::Duration::from_secs(args.number(TIMEOUT, 1, POSITIVE)?.unwrap_or(300));
    let batch: Vec<String> = match args.value(BATCH) {
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
    let outcome = match client_run(args.positional, &batch, shutdown, timeout) {
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
    match args.value(OUT) {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("writing {path}: {e}"))?
        }
        None => write!(out, "{rendered}")?,
    }
    Ok(if outcome.errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn profile(args: &[String], out: &mut dyn Write) -> Result<ExitCode, Failure> {
    // `--diff`, its only flag, comes first; every other argument is a path.
    let diff = args.first().is_some_and(|a| a == "--diff");
    if let Some(f) = args[usize::from(diff)..]
        .iter()
        .find(|a| a.starts_with("--"))
    {
        return Err(format!("unknown flag `{f}`").into());
    }
    if diff {
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
        writeln!(out, "{}", sa.render_diff(&sb, a, b).trim_end())?;
        return Ok(ExitCode::SUCCESS);
    }
    let path = args.first().ok_or("profile needs a <metrics.json> path")?;
    if let Some(extra) = args.get(1) {
        return Err(format!("unexpected argument `{extra}`").into());
    }
    match load_metrics(path) {
        Ok(summary) => {
            writeln!(out, "{}", summary.render().trim_end())?;
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

fn axiomatic(args: &[String], out: &mut dyn Write) -> Result<ExitCode, Failure> {
    let args = parse(args, Some("<test>"), &[MEMORY, DOT])?;
    let test = load_test(args.positional)?;
    let spec = match args.memory()? {
        MemoryImpl::Tso => rtlcheck::uspec::multi_vscale_tso::spec(),
        _ => multi_vscale_spec(),
    };
    let grounded = ground(&spec, &test, DataMode::Outcome).map_err(|e| e.to_string())?;
    let result = solve::solve(&grounded);
    if result.is_forbidden() {
        writeln!(
            out,
            "{}: outcome FORBIDDEN microarchitecturally (all µhb graphs cyclic; {} branches explored)",
            test.name(),
            result.stats().branches
        )?;
    } else {
        writeln!(
            out,
            "{}: outcome OBSERVABLE microarchitecturally",
            test.name()
        )?;
        if args.has(DOT) {
            if let Some(w) = result.witness() {
                writeln!(out, "{}", w.to_dot(Some((&test, &spec))))?;
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn suite_cmd(args: &[String], out: &mut dyn Write) -> Result<ExitCode, Failure> {
    let args = parse(
        args,
        None,
        &[
            MEMORY, CONFIG, JOBS, ONLY, JSON, EVENTS, METRICS, TRACE_OUT, PROGRESS,
        ],
    )?;
    let memory = args.memory()?;
    let config = args.config()?;
    let jobs = args.jobs()?;
    let tests = match args.list(ONLY) {
        Some(names) => {
            let tests = rtlcheck::bench::suite_tests(&names)?;
            if tests.is_empty() {
                return Err("--only selected no tests".into());
            }
            tests
        }
        None => suite::all(),
    };
    let obs = Observability::open(&args, "suite", tests.len() as u64)?;
    let mut json = Output::open(&args, JSON)?;
    let tool = Rtlcheck::new(memory);
    let reports = rtlcheck::bench::check_tests(
        &tool,
        &tests,
        &config,
        jobs,
        &obs.collector(),
        &obs.live_sinks(),
    );
    obs.finish()?;
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
        writeln!(
            out,
            "{:<12} {:<24} {:>3}/{:<3} proven  {:>10.2?}",
            report.test,
            status,
            report.num_proven(),
            report.properties.len(),
            report.runtime_to_verification()
        )?;
        let vacuous_props = report.vacuous_properties();
        if report.vacuous {
            writeln!(
                out,
                "             WARNING: contradictory assumptions — vacuous verification"
            )?;
        } else if !vacuous_props.is_empty() {
            writeln!(
                out,
                "             WARNING: {} propert{} proven vacuously: {}",
                vacuous_props.len(),
                if vacuous_props.len() == 1 { "y" } else { "ies" },
                vacuous_props.join(", "),
            )?;
        }
    }
    writeln!(out, "\n{violations} violations")?;
    if let Some(json) = &mut json {
        let results = rtlcheck::bench::SuiteResults {
            config: config.name.clone(),
            rows: reports
                .iter()
                .map(rtlcheck::bench::TestRow::from_report)
                .collect(),
        };
        json.write(results.to_json().pretty())?;
        writeln!(out, "JSON report written to {}", json.path)?;
    }
    Ok(if violations > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
