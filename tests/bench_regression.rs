//! Integration tests for `rtlcheck bench`: the harness emits a valid
//! `rtlcheck-bench/1` document, and `--baseline` gating passes against a
//! freshly self-generated baseline but fails once that baseline is
//! doctored to claim every timed run took 1 µs, or that the run fetched
//! one edge fewer (work counters gate at 0%).
//!
//! Baselines are machine-dependent, so the test never compares against a
//! checked-in file — it generates its own on the same machine moments
//! earlier, which makes the "no regression" leg robust and the doctored
//! leg deterministic.

use std::process::Command;

use rtlcheck::bench::bench::BenchReport;
use rtlcheck::obs::json::Json;

fn rtlcheck(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rtlcheck"))
        .args(args)
        .output()
        .expect("the rtlcheck binary runs")
}

#[test]
fn bench_emits_schema_document_and_gates_on_doctored_baseline() {
    let dir = std::env::temp_dir().join(format!("rtlcheck-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("base.json");

    // Tiny scope: one test, quick config, two timed iterations.
    let scope = [
        "bench",
        "--only",
        "mp",
        "--config",
        "quick",
        "--iterations",
        "2",
        "--warmup",
        "0",
    ];
    let mut args = scope.to_vec();
    args.extend(["--json", baseline.to_str().unwrap()]);
    let out = rtlcheck(&args);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("RTLCheck benchmark"), "{stdout}");
    assert!(stdout.contains("suite/quick/explicit/jobs=1"), "{stdout}");

    // The artifact is a valid rtlcheck-bench/1 document with phase rows.
    let text = std::fs::read_to_string(&baseline).unwrap();
    let report = BenchReport::parse(&text).expect("bench JSON parses");
    assert_eq!(report.cases.len(), 1);
    assert_eq!(report.cases[0].times_us.len(), 2);
    assert!(report.cases[0].median_us() > 0);
    assert!(
        report.cases[0]
            .phases
            .iter()
            .any(|p| p.name == "check_test"),
        "{:?}",
        report.cases[0].phases
    );
    assert!(report.nproc.is_some_and(|n| n > 0), "{text}");
    let lookups = report.cases[0]
        .work("graph.lookups")
        .expect("the case records its edge lookups");
    assert!(lookups > 0, "{text}");
    assert!(report.cases[0].work("graph.rows_built").is_some(), "{text}");

    // Same workload vs its own fresh baseline, generous tolerance: passes.
    let mut args = scope.to_vec();
    args.extend([
        "--baseline",
        baseline.to_str().unwrap(),
        "--tolerance",
        "400",
    ]);
    let out = rtlcheck(&args);
    assert!(out.status.success(), "clean baseline comparison: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Baseline comparison"), "{stdout}");
    assert!(
        stdout.contains("1 case(s) compared, 0 regression(s)"),
        "{stdout}"
    );
    assert!(stdout.contains("graph.lookups"), "{stdout}");

    // Doctor the baseline to one edge lookup fewer than the deterministic
    // count: the same run must regress, whatever the time tolerance.
    let fewer = dir.join("fewer-lookups.json");
    let doctored = text.replace(
        &format!("\"graph.lookups\": {lookups}"),
        &format!("\"graph.lookups\": {}", lookups - 1),
    );
    assert_ne!(doctored, text, "the document names graph.lookups");
    std::fs::write(&fewer, doctored).unwrap();
    let mut args = scope.to_vec();
    args.extend(["--baseline", fewer.to_str().unwrap(), "--tolerance", "400"]);
    let out = rtlcheck(&args);
    assert_eq!(out.status.code(), Some(1), "doctored lookups: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(stdout.contains("1 regression(s)"), "{stdout}");

    // Doctor the baseline to 1 µs per run, far below any real run of this
    // scope: the same run must now regress, however slow the baseline run
    // itself happened to be.
    let doctored = dir.join("doctored.json");
    let doc = Json::parse(&text).unwrap();
    let fast = doctor_times(&doc);
    std::fs::write(&doctored, fast.pretty()).unwrap();
    let mut args = scope.to_vec();
    args.extend([
        "--baseline",
        doctored.to_str().unwrap(),
        "--tolerance",
        "50",
    ]);
    let out = rtlcheck(&args);
    assert_eq!(out.status.code(), Some(1), "doctored baseline: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("REGRESSED"), "{stdout}");

    // A broken baseline file is a one-line diagnostic naming the schema.
    let broken = dir.join("broken.json");
    std::fs::write(&broken, r#"{"schema":"other/9"}"#).unwrap();
    let mut args = scope.to_vec();
    args.extend(["--baseline", broken.to_str().unwrap()]);
    let out = rtlcheck(&args);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("rtlcheck-bench/1"), "{err}");
    assert!(!err.contains("usage:"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Returns the document with every `times_us` entry (and the derived
/// stats) set to 1 µs — a baseline no real run can come within 50% of.
fn doctor_times(doc: &Json) -> Json {
    match doc {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .map(|(k, v)| {
                    let v = match (k.as_str(), v) {
                        ("times_us", Json::Arr(ts)) => {
                            Json::Arr(ts.iter().map(|_| Json::Uint(1)).collect())
                        }
                        ("min_us" | "median_us" | "max_us", _) => Json::Uint(1),
                        _ => doctor_times(v),
                    };
                    (k.clone(), v)
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(doctor_times).collect()),
        other => other.clone(),
    }
}
