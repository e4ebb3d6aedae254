//! The rtlcheck benchmark.
//!
//! ```text
//! rtlcheck-benchmark --workload W --seed N --seconds S --trace 0|1
//! rtlcheck-benchmark run   [--seed N] [--out DIR]
//! rtlcheck-benchmark trace [--seed N] [--out DIR]
//! rtlcheck-benchmark compare DIR_A DIR_B
//! ```
//!
//! The first form runs one workload and prints every metric by name and
//! unit, then, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. It exits 1 when any operation
//! failed its known-answer check. `run` and `trace` run every workload for
//! `run_seconds`, one at a time, each in a child process of its own, and
//! keep each child's result under `--out`. `compare` applies the bounds in
//! `BENCHMARK.json` to two directories of such results.

mod compare;
mod layers;
mod runner;
mod serve;
mod spec;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use rtlcheck_obs::json::Json;

use crate::runner::Outcome;
use crate::spec::{Spec, WORKLOADS};

const USAGE: &str = "usage:
  rtlcheck-benchmark --workload W --seed N --seconds S --trace 0|1
  rtlcheck-benchmark run   [--seed N] [--out DIR]
  rtlcheck-benchmark trace [--seed N] [--out DIR]
  rtlcheck-benchmark compare DIR_A DIR_B";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..], false),
        Some("trace") => run_all(&args[1..], true),
        Some("compare") => compare::main(&args[1..]),
        _ => run_one(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

/// Reads `--flag value` pairs; every flag must be one of `known`.
fn flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument `{flag}`"));
        }
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        out.push((flag.clone(), value.clone()));
    }
    Ok(out)
}

fn value<'a>(flags: &'a [(String, String)], flag: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(f, _)| f == flag)
        .map(|(_, v)| v.as_str())
}

fn parse<T: std::str::FromStr>(text: &str, what: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("invalid {what} `{text}`"))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let workload = value(&f, "--workload").ok_or("`--workload` is required")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed: u64 = parse(value(&f, "--seed").ok_or("`--seed` is required")?, "seed")?;
    let seconds: f64 = parse(
        value(&f, "--seconds").ok_or("`--seconds` is required")?,
        "seconds",
    )?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("`--seconds` must be positive".into());
    }
    let trace = match value(&f, "--trace").ok_or("`--trace` is required")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("`--trace` takes 0 or 1, not `{other}`")),
    };
    let outcome = runner::run(workload, seed, seconds, trace)?;
    println!(
        "# workload {workload}, seed {seed}, {seconds} s, trace {}, nproc {}",
        u8::from(trace),
        nproc()
    );
    print!("{}", render_human(&outcome));
    println!("extras {}", extras_json(&outcome).render());
    println!("{}", result_json(&outcome).render());
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn render_human(outcome: &Outcome) -> String {
    let mut out = String::new();
    for (name, unit, value) in &outcome.metrics {
        out.push_str(&format!("{name} = {value} {unit}\n"));
    }
    for (name, value) in &outcome.extras {
        out.push_str(&format!("extra {name} = {value}\n"));
    }
    for note in &outcome.notes {
        out.push_str(&format!("note {note}\n"));
    }
    out.push_str(&format!(
        "operations: {} attempted, {} failed\n",
        outcome.attempted, outcome.failed
    ));
    out
}

fn extras_json(outcome: &Outcome) -> Json {
    Json::obj(
        outcome
            .extras
            .iter()
            .map(|(name, v)| (name.clone(), Json::Num(*v)))
            .collect(),
    )
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(outcome: &Outcome) -> Json {
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            (
                name.to_string(),
                Json::obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Uint(outcome.attempted)),
        ("failed", Json::Uint(outcome.failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// `run` / `trace`: every workload in turn, each in its own child process,
/// each child's result kept as `<out>/<workload>.seed<N>.json`.
fn run_all(args: &[String], trace: bool) -> Result<ExitCode, String> {
    let f = flags(args, &["--seed", "--out"])?;
    let seed: u64 = parse(value(&f, "--seed").unwrap_or("2017"), "seed")?;
    let seconds = Spec::load().run_seconds;
    let default_out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(if trace { "trace" } else { "run" });
    let out = value(&f, "--out").map_or(default_out, PathBuf::from);
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let nproc = nproc();
    println!("# seed {seed}, {seconds} s per workload, nproc {nproc}");
    let mut all_ok = true;
    for &workload in WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting the {workload} run: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        let result = lines.last().and_then(|l| Json::parse(l).ok());
        let extras = lines
            .iter()
            .find_map(|l| l.strip_prefix("extras "))
            .and_then(|l| Json::parse(l).ok());
        all_ok &= child.status.success();
        println!("## {workload} (exit {})", child.status.code().unwrap_or(-1));
        for line in lines
            .iter()
            .filter(|l| !l.starts_with("extras ") && !l.starts_with('{'))
        {
            println!("{line}");
        }
        let Some(result) = result else {
            all_ok = false;
            continue;
        };
        let record = Json::obj(vec![
            ("workload", Json::Str(workload.to_string())),
            ("seed", Json::Uint(seed)),
            ("seconds", Json::Uint(seconds)),
            ("trace", Json::Bool(trace)),
            ("nproc", Json::Uint(nproc as u64)),
            ("result", result),
            ("extras", extras.unwrap_or(Json::Obj(Vec::new()))),
        ]);
        let path = out.join(format!("{workload}.seed{seed}.json"));
        std::fs::write(&path, record.pretty() + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
