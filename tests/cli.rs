//! Integration tests for the `rtlcheck` command-line tool.

use std::process::Command;

fn rtlcheck(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rtlcheck"))
        .args(args)
        .output()
        .expect("the rtlcheck binary runs")
}

#[test]
fn list_names_all_suite_tests() {
    let out = rtlcheck(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 56);
    assert!(stdout.lines().any(|l| l == "mp"));
    assert!(stdout.lines().any(|l| l == "co-iriw"));
}

#[test]
fn check_verifies_and_sets_exit_code() {
    let out = rtlcheck(&["check", "mp"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("verified"), "{stdout}");

    let out = rtlcheck(&["check", "mp", "--memory", "buggy"]);
    assert_eq!(out.status.code(), Some(1), "violations exit nonzero");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("VIOLATION"), "{stdout}");
}

#[test]
fn check_accepts_litmus_files_and_writes_vcd() {
    let dir = std::env::temp_dir().join(format!("rtlcheck-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let litmus = dir.join("t.litmus");
    std::fs::write(
        &litmus,
        "test t\n{ x = 0; y = 0; }\ncore 0 { st x, 1; st y, 1; }\n\
         core 1 { r1 = ld y; r2 = ld x; }\nforbid ( 1:r1 = 1 /\\ 1:r2 = 0 )",
    )
    .unwrap();
    let vcd = dir.join("t.vcd");
    let out = rtlcheck(&[
        "check",
        litmus.to_str().unwrap(),
        "--memory",
        "buggy",
        "--vcd",
        vcd.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let vcd_text = std::fs::read_to_string(&vcd).expect("VCD written");
    assert!(vcd_text.contains("$enddefinitions $end"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A litmus test the four-core design cannot hold is a usage error, not a
/// panic: every command that builds the design exits 2, naming the test
/// and the limit it exceeds.
#[test]
fn tests_beyond_the_design_exit_2_naming_the_limit() {
    let dir = std::env::temp_dir().join(format!("rtlcheck-cli-fit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let five_threads: String = (1..=5)
        .map(|c| format!("core {} {{ st x, {c}; }}\n", c - 1))
        .collect();
    let cases = [
        (
            "five.litmus",
            format!("test five\n{{ x = 0; }}\n{five_threads}forbid ( x = 0 )"),
            "test `five` needs 5 cores but the design has 4",
        ),
        (
            "long.litmus",
            format!(
                "test long\n{{ x = 0; }}\ncore 0 {{ {}}}\nforbid ( x = 0 )",
                "st x, 1; ".repeat(16)
            ),
            "thread 0 of `long` has 16 instructions but the per-core PC window holds 15",
        ),
        (
            "wide.litmus",
            format!(
                "test wide\n{{ {}}}\ncore 0 {{ st l256, 1; }}\nforbid ( l0 = 1 )",
                (0..257).map(|l| format!("l{l} = 0; ")).collect::<String>()
            ),
            "test `wide` has 257 memory locations but the design addresses 256",
        ),
    ];
    for (file, source, limit) in cases {
        let path = dir.join(file);
        std::fs::write(&path, source).unwrap();
        for cmd in ["check", "emit-sva", "emit-verilog"] {
            let out = rtlcheck(&[cmd, path.to_str().unwrap()]);
            assert_eq!(out.status.code(), Some(2), "{cmd} {file}: {out:?}");
            let err = String::from_utf8(out.stderr).unwrap();
            assert!(err.contains(limit), "{cmd} {file}: {err}");
            assert!(!err.contains("panicked"), "{cmd} {file}: {err}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An integer literal past 32 bits is a parse error naming its line: the
/// tools must not wrap it and analyse a different test.
#[test]
fn integers_past_32_bits_exit_2_instead_of_wrapping() {
    let dir = std::env::temp_dir().join(format!("rtlcheck-cli-int-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases = [
        (
            "value.litmus",
            "test mp-wide\n{ x = 0; y = 0; }\ncore 0 { st x, 4294967297; st y, 1; }\n\
             core 1 { r1 = ld y; r2 = ld x; }\nforbid ( 1:r1 = 1 /\\ 1:r2 = 1 )",
            "line 3: integer `4294967297` does not fit in 32 bits",
        ),
        (
            "core.litmus",
            "test core-wide\n{ x = 0; }\ncore 4294967296 { st x, 1; }\nforbid ( x = 0 )",
            "line 3: integer `4294967296` does not fit in 32 bits",
        ),
    ];
    for (file, source, reason) in cases {
        let path = dir.join(file);
        std::fs::write(&path, source).unwrap();
        for cmd in ["check", "axiomatic"] {
            let out = rtlcheck(&[cmd, path.to_str().unwrap()]);
            assert_eq!(out.status.code(), Some(2), "{cmd} {file}: {out:?}");
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(!stdout.contains("VIOLATION"), "{cmd} {file}: {stdout}");
            let err = String::from_utf8(out.stderr).unwrap();
            assert!(err.contains(reason), "{cmd} {file}: {err}");
            assert!(!err.contains("panicked"), "{cmd} {file}: {err}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The RTL flow checks forbidden outcomes only, so `check` refuses a
/// `permit` test instead of reporting its observable outcome as a
/// violation; `axiomatic` still decides it.
#[test]
fn check_rejects_permit_conditions_that_axiomatic_accepts() {
    let dir = std::env::temp_dir().join(format!("rtlcheck-cli-permit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let litmus = dir.join("mp-11.litmus");
    std::fs::write(
        &litmus,
        "test mp-11\n{ x = 0; y = 0; }\ncore 0 { st x, 1; st y, 1; }\n\
         core 1 { r1 = ld y; r2 = ld x; }\npermit ( 1:r1 = 1 /\\ 1:r2 = 1 )",
    )
    .unwrap();
    let path = litmus.to_str().unwrap();

    let out = rtlcheck(&["check", path, "--config", "hybrid"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(!String::from_utf8(out.stdout).unwrap().contains("VIOLATION"));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("test `mp-11` has a `permit` condition"),
        "{err}"
    );

    let out = rtlcheck(&["axiomatic", path]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("OBSERVABLE"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn emit_subcommands_produce_artifacts() {
    let out = rtlcheck(&["emit-sva", "mp"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("assert property"), "{text}");

    let out = rtlcheck(&["emit-verilog", "mp", "--memory", "tso"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("module multi_vscale_tso"), "{text}");
    assert!(text.contains("endmodule"), "{text}");
}

#[test]
fn axiomatic_subcommand_reports_verdicts() {
    let out = rtlcheck(&["axiomatic", "sb"]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("FORBIDDEN"));

    let out = rtlcheck(&["axiomatic", "sb", "--memory", "tso", "--dot"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("OBSERVABLE"), "{text}");
    assert!(text.contains("digraph"), "{text}");
}

#[test]
fn suite_subset_runs_in_parallel_with_metrics() {
    let dir = std::env::temp_dir().join(format!("rtlcheck-suite-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("suite.json");
    let out = rtlcheck(&[
        "suite",
        "--only",
        "mp,sb",
        "--jobs",
        "2",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("mp"), "{stdout}");
    assert!(stdout.contains("sb"), "{stdout}");
    assert!(stdout.contains("0 violations"), "{stdout}");
    assert!(
        !stdout.contains("WARNING"),
        "vacuous proof in suite smoke: {stdout}"
    );

    // The metrics file must show the shared-graph engine split, including
    // the edge-reuse counters, via `rtlcheck profile`.
    let out = rtlcheck(&["profile", metrics.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let profile = String::from_utf8(out.stdout).unwrap();
    assert!(profile.contains("Engine split"), "{profile}");
    assert!(profile.contains("graph reuse"), "{profile}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_exits_2_with_usage_text() {
    for args in [
        &[][..],
        &["frobnicate"][..],
        &["check"][..],
        &["check", "nonexistent-test"][..],
        &["suite", "--only", "mp", "--jobs", "zero"][..],
        &["suite", "--only", "not-a-test"][..],
        &["profile", "--diff", "only-one.json"][..],
        &["check", "mp", "--backend", "composed"][..],
        &["suite", "--only", "mp", "--backend", "composed"][..],
        &["mutate", "--backend", "composed"][..],
        &["fuzz", "--backend", "composed"][..],
        // `--backend` is retired: even its former default is unknown.
        &["check", "mp", "--backend", "explicit"][..],
    ] {
        let out = rtlcheck(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("usage:"), "{err}");
    }

    // Retired flags are unknown: the on-disk graph cache's `--graph-cache`
    // on every subcommand that took it, and `mutate --incremental` in
    // each of its former spellings (every mutant graph is built cold).
    for (flag, args) in [
        ("--graph-cache", &["check", "mp", "--graph-cache", "gc"][..]),
        (
            "--graph-cache",
            &["suite", "--only", "mp", "--graph-cache", "gc"][..],
        ),
        (
            "--graph-cache",
            &["mutate", "--only", "mp", "--graph-cache", "gc"][..],
        ),
        (
            "--graph-cache",
            &["fuzz", "--count", "10", "--graph-cache", "gc"][..],
        ),
        ("--graph-cache", &["serve", "--graph-cache", "gc"][..]),
        (
            "--incremental",
            &["mutate", "--only", "mp", "--incremental"][..],
        ),
        (
            "--incremental=off",
            &["mutate", "--only", "mp", "--incremental=off"][..],
        ),
        (
            "--incremental=validate",
            &["mutate", "--only", "mp", "--incremental=validate"][..],
        ),
    ] {
        let out = rtlcheck(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: work ran: {out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: {err}"
        );
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }

    // Unknown names fail before any work runs: the retired `bench`
    // subcommand (timing lives in the `benchmark/` package), and bad
    // config and memory names.
    for (args, message) in [
        (&["bench"][..], "unknown subcommand `bench`"),
        (
            &["suite", "--config", "frobnicate"][..],
            "unknown config `frobnicate`",
        ),
        (
            &["check", "mp", "--memory", "frobnicate"][..],
            "unknown memory implementation `frobnicate`",
        ),
    ] {
        let out = rtlcheck(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: work ran: {out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(message), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }

    // An empty selection is a usage error, not a campaign of nothing.
    let out = rtlcheck(&["mutate", "--only", "mp", "--mutants", ""]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "work ran: {out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("no mutants selected"), "{err}");
    assert!(err.contains("usage:"), "{err}");
}

/// Each subcommand takes exactly the flags its usage line lists, each
/// once, and only the positional it names. Anything else, an output path
/// that cannot be created, two outputs naming one file, a `mutate`
/// selection that names nothing or an unknown test, and a `serve` address
/// that cannot be bound are usage errors before any work runs. The rows run
/// in an empty directory, which must stay empty.
#[test]
fn unlisted_repeated_and_stray_arguments_exit_2_before_any_work() {
    let dir = std::env::temp_dir().join(format!("rtlcheck-cli-strict-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (args, message) in [
        (
            &["emit-sva", "mp", "--config", "quick"][..],
            "unknown flag `--config`",
        ),
        (
            &["emit-verilog", "mp", "--jobs", "2"][..],
            "unknown flag `--jobs`",
        ),
        (
            &["axiomatic", "mp", "--config", "quick"][..],
            "unknown flag `--config`",
        ),
        (
            &["check", "mp", "--json", "r.json"][..],
            "unknown flag `--json`",
        ),
        (
            &["check", "mp", "--progress"][..],
            "unknown flag `--progress`",
        ),
        (&["suite", "--vcd", "v.vcd"][..], "unknown flag `--vcd`"),
        (&["list", "--json", "x"][..], "unknown flag `--json`"),
        (
            &["mutate", "--memory", "buggy"][..],
            "unknown flag `--memory`",
        ),
        (&["fuzz", "--only", "mp"][..], "unknown flag `--only`"),
        (
            &["serve", "--config", "quick"][..],
            "unknown flag `--config`",
        ),
        (
            &["connect", "127.0.0.1:1", "--json", "r.json"][..],
            "unknown flag `--json`",
        ),
        (
            &["check", "mp", "--config", "quick", "--config", "hybrid"][..],
            "flag `--config` given twice",
        ),
        (
            &["mutate", "--jobs", "1", "--jobs", "2"][..],
            "flag `--jobs` given twice",
        ),
        (&["suite", "mp"][..], "unexpected argument `mp`"),
        (&["profile", "--json", "x"][..], "unknown flag `--json`"),
        (
            &["profile", "--diff", "a.json", "--json"][..],
            "unknown flag `--json`",
        ),
        (
            &["suite", "--only", "mp", "--metrics", "missing/m.json"][..],
            "creating missing/m.json",
        ),
        (
            &["suite", "--only", "mp", "--trace-out", "missing/t.json"][..],
            "creating missing/t.json",
        ),
        (
            &["suite", "--only", "mp", "--json", "missing/j.json"][..],
            "creating missing/j.json",
        ),
        (
            &[
                "suite",
                "--only",
                "mp",
                "--metrics",
                "m.json",
                "--json",
                "m.json",
            ][..],
            "--metrics and --json both name `m.json`",
        ),
        (
            &[
                "mutate",
                "--only",
                "mp",
                "--mutants",
                "",
                "--json",
                "j.json",
                "--events",
                "e.jsonl",
            ][..],
            "no mutants selected",
        ),
        (
            &["mutate", "--only", "mp,zz", "--json", "j.json"][..],
            "unknown litmus test `zz`",
        ),
        (
            &["serve", "--addr", "127.0.0.1:99999", "--events", "e.jsonl"][..],
            "invalid port value",
        ),
        (
            &[
                "connect",
                "127.0.0.1:99999",
                "--shutdown",
                "--out",
                "missing/r.txt",
            ][..],
            "creating missing/r.txt",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_rtlcheck"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("the rtlcheck binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: work ran: {out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(message), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(left.is_empty(), "files written: {left:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A test or mutant named twice in a list is a usage error naming it,
/// before any work runs: it would otherwise be checked, listed and scored
/// twice.
#[test]
fn repeated_names_exit_2_instead_of_double_counting() {
    for (args, message) in [
        (
            &["suite", "--only", "mp,sb,mp"][..],
            "duplicate suite test `mp`",
        ),
        (
            &[
                "mutate",
                "--only",
                "mp,mp",
                "--mutants",
                "store_drop_when_busy",
            ][..],
            "duplicate litmus test `mp`",
        ),
        (
            &[
                "mutate",
                "--only",
                "mp",
                "--mutants",
                "store_drop_when_busy,store_drop_when_busy",
            ][..],
            "duplicate mutant `store_drop_when_busy`",
        ),
    ] {
        let out = rtlcheck(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: work ran: {out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(message), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
}

/// `--jobs 0` is a usage error everywhere a worker pool exists: zero
/// workers would deadlock the pool, so every parser rejects it with the
/// same one-line error before any work starts.
#[test]
fn jobs_zero_is_rejected_by_every_worker_pool_command() {
    for args in [
        &["suite", "--only", "mp", "--jobs", "0"][..],
        &["mutate", "--jobs", "0"][..],
        &["fuzz", "--jobs", "0"][..],
        &["serve", "--jobs", "0"][..],
    ] {
        let out = rtlcheck(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains("--jobs needs a positive integer, got `0`"),
            "{args:?}: {err}"
        );
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
}

#[test]
fn serve_and_connect_round_trip_a_batch() {
    use std::io::BufRead as _;

    let dir = std::env::temp_dir().join(format!("rtlcheck-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let batch = dir.join("batch.jsonl");
    std::fs::write(
        &batch,
        "{\"id\":1,\"kind\":\"ping\"}\n{\"id\":2,\"kind\":\"check\",\"test\":\"mp\",\"events\":false}\n",
    )
    .unwrap();

    let mut server = std::process::Command::new(env!("CARGO_BIN_EXE_rtlcheck"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("server starts");
    // The startup line is the parseable contract: grab the bound port.
    let mut stdout = std::io::BufReader::new(server.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .unwrap_or_else(|| panic!("unparseable banner: {banner}"))
        .to_string();

    let out = rtlcheck(&["connect", &addr, "--batch", batch.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("\"proto\":\"rtlcheck-serve/1\""), "{text}");
    assert!(
        text.contains("{\"id\":2,\"type\":\"result\",\"kind\":\"check\",\"status\":\"verified\""),
        "{text}"
    );

    // An error frame (unknown kind) makes the client exit nonzero.
    std::fs::write(&batch, "{\"id\":3,\"kind\":\"warp\"}\n").unwrap();
    let out = rtlcheck(&["connect", &addr, "--batch", batch.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("\"error\":\"bad_request\""),);

    // Graceful drain: `--shutdown` ends the server with exit 0.
    let out = rtlcheck(&["connect", &addr, "--shutdown"]);
    assert!(out.status.success(), "{out:?}");
    let status = server.wait().expect("server exits");
    assert!(status.success(), "server must drain to exit 0: {status:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A bad *input file* to `profile` is a runtime failure, not a usage
/// error: one line on stderr naming the file and the expected schema,
/// exit 1, no usage dump.
#[test]
fn profile_diagnoses_empty_malformed_and_wrong_schema_files() {
    let dir = std::env::temp_dir().join(format!("rtlcheck-profile-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases = [
        ("empty.json", "   \n", "empty file"),
        ("malformed.json", "not json {", "invalid metrics document"),
        (
            "schema.json",
            r#"{"schema":"other/9"}"#,
            "unknown schema `other/9`",
        ),
    ];
    for (file, contents, expect) in cases {
        let path = dir.join(file);
        std::fs::write(&path, contents).unwrap();
        let out = rtlcheck(&["profile", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{file}: {out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(err.trim_end().lines().count(), 1, "{file}: one line: {err}");
        assert!(
            err.contains(path.to_str().unwrap()),
            "{file}: names file: {err}"
        );
        assert!(err.contains(expect), "{file}: {err}");
        assert!(
            err.contains("rtlcheck-metrics/1"),
            "{file}: names schema: {err}"
        );
        assert!(!err.contains("usage:"), "{file}: no usage dump: {err}");
    }
    // A missing file gets the same treatment.
    let gone = dir.join("gone.json");
    let out = rtlcheck(&["profile", gone.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains(gone.to_str().unwrap()), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A closed stdout ends the run quietly with 141 (128 + SIGPIPE, what a
/// shell reports for a writer killed by a closed pipe), never a panic. The
/// child's stdout is a pipe whose reader is gone before it starts, so the
/// first write fails.
#[test]
fn closed_stdout_exits_141_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("rtlcheck-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("m.json");
    let metrics = metrics.to_str().unwrap();
    let out = rtlcheck(&["check", "mp", "--metrics", metrics]);
    assert!(out.status.success(), "{out:?}");

    for args in [
        &["list"][..],
        &["profile", metrics][..],
        &["suite", "--only", "mp"][..],
    ] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_rtlcheck"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("the rtlcheck binary runs");
        assert_eq!(out.status.code(), Some(141), "{args:?}: {out:?}");
        assert!(out.stderr.is_empty(), "{args:?}: {out:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_diff_renders_deltas_between_two_runs() {
    let dir = std::env::temp_dir().join(format!("rtlcheck-diff-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    for (path, only) in [(&a, "mp"), (&b, "mp,sb")] {
        let out = rtlcheck(&["suite", "--only", only, "--metrics", path.to_str().unwrap()]);
        assert!(out.status.success(), "{out:?}");
    }
    let out = rtlcheck(&[
        "profile",
        "--diff",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("RTLCheck profile diff"), "{text}");
    assert!(text.contains(a.to_str().unwrap()), "{text}");
    assert!(text.contains("Histogram shifts"), "{text}");
    assert!(text.contains("%"), "{text}");

    // Diff against a broken file reuses the one-line diagnostics.
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{").unwrap();
    let out = rtlcheck(&[
        "profile",
        "--diff",
        a.to_str().unwrap(),
        bad.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("rtlcheck-metrics/1"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Diffing runs of *different subcommands* leaves whole counter families
/// one-sided (a suite run has no `fuzz.*` counters and vice versa). The
/// diff must render those as labelled `+new` / `-gone` rows and exit 0 —
/// never crash or reduce the asymmetry to an unexplained dash.
#[test]
fn profile_diff_labels_one_sided_counter_families() {
    let dir = std::env::temp_dir().join(format!("rtlcheck-diff-sided-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (suite, fuzz) = (dir.join("suite.json"), dir.join("fuzz.json"));
    let out = rtlcheck(&[
        "suite",
        "--only",
        "mp",
        "--metrics",
        suite.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let out = rtlcheck(&[
        "fuzz",
        "--count",
        "2",
        "--seed",
        "3",
        "--metrics",
        fuzz.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");

    // suite -> fuzz: the fuzz family appears.
    let out = rtlcheck(&[
        "profile",
        "--diff",
        suite.to_str().unwrap(),
        fuzz.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("fuzz.requested"), "{text}");
    assert!(text.contains("+new"), "{text}");

    // fuzz -> suite: the same family is gone.
    let out = rtlcheck(&[
        "profile",
        "--diff",
        fuzz.to_str().unwrap(),
        suite.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("-gone"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}
