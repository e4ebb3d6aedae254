//! One run of one workload: set-up, the passes that fill the run's
//! seconds, the known-answer checks, and the metrics.

use std::time::{Duration, Instant};

use rtlcheck_obs::{MetricsCollector, MetricsSummary};
use rtlcheck_obs::{NullCollector, TraceCollector};
use rtlcheck_verif::VerifyConfig;

use crate::layers::{self, Layers};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, samples_beyond, supports_percentile};
use crate::workloads::{self, FlowTap, Flows, Load, Pass};

/// The tail percentile reported for operation latency. A run takes passes
/// until ten samples lie beyond it: two passes on a 56-test workload.
const TAIL: f64 = 90.0;
/// Set-up is repeated at least this often, and until this much time has
/// gone: a set-up of a few milliseconds is otherwise measured inside one
/// burst of interference, or while the process's memory is still cold.
const SETUP_REPS: usize = 3;
const SETUP_TIME: Duration = Duration::from_secs(1);
const SETUP_MAX_REPS: usize = 1000;
/// At most this many failed operations are described in the output.
const SHOWN_PROBLEMS: usize = 10;

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)`, in the order `BENCHMARK.json` declares them.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Layer numbers beyond the declared ones, and deterministic counts.
    pub extras: Vec<(String, f64)>,
    pub notes: Vec<String>,
}

impl Outcome {
    fn absorb(&mut self, pass: &Pass) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        self.problems(&pass.problems);
    }

    fn problems(&mut self, problems: &[String]) {
        let room = SHOWN_PROBLEMS.saturating_sub(self.notes.len());
        self.notes
            .extend(problems.iter().take(room).map(|p| format!("FAILED {p}")));
    }

    /// Fills `metrics` from `values`, which must name exactly the declared
    /// metrics of `declared`.
    fn declare(&mut self, declared: &[(&'static str, &'static str)], values: &[(&str, f64)]) {
        assert_eq!(
            values.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            declared.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            "a run measures exactly the metrics BENCHMARK.json declares"
        );
        self.metrics = declared
            .iter()
            .zip(values)
            .map(|(&(name, unit), &(_, value))| (name, unit, value))
            .collect();
    }
}

pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    if trace {
        traced(workload, seed, seconds)
    } else {
        measured(workload, seed, seconds)
    }
}

/// Runs `body` until the next run would likely end past `seconds` (at
/// least once).
fn repeat<T>(seconds: f64, mut body: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let t = Instant::now();
        out.push(body());
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > seconds {
            return out;
        }
    }
}

/// Prepares the workload several times; returns the median set-up time
/// and the last prepared workload.
fn set_up(workload: &str, seed: u64) -> Result<(f64, Box<dyn Load>), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut load = None;
    while times.len() < SETUP_REPS
        || (started.elapsed() < SETUP_TIME && times.len() < SETUP_MAX_REPS)
    {
        drop(load.take());
        let t = Instant::now();
        load = Some(workloads::prepare(workload, seed)?);
        times.push(t.elapsed().as_secs_f64());
    }
    let load = load.expect("set-up ran at least once");
    Ok((median(&times), load))
}

/// The end-to-end run: no tracing, only the program's own `check_test`
/// spans and verdict events are read.
///
/// Latencies are percentiles over every operation of every pass. `wall_s`
/// is the fastest pass: other processes on the machine only ever slow a
/// pass down. A mutate-mvs pass takes most of a run, so there it is the
/// run's single pass.
fn measured(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (setup_s, mut load) = set_up(workload, seed)?;
    let mut passes = repeat(seconds, || load.pass(&NullCollector));
    if passes[0].latencies.is_empty() {
        return Err("the run timed no operation".into());
    }
    let samples = |passes: &[Pass]| passes.iter().map(|p| p.latencies.len()).sum::<usize>();
    while !supports_percentile(samples(&passes), TAIL) {
        passes.push(load.pass(&NullCollector));
    }
    drop(load);

    let mut outcome = Outcome::default();
    for pass in &passes {
        outcome.absorb(pass);
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.latencies)
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    let shown: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    outcome.notes.push(format!(
        "pass walls {} s; {} latency samples, {} beyond p{TAIL}",
        shown.join(" "),
        latencies.len(),
        samples_beyond(latencies.len(), TAIL),
    ));
    outcome.declare(
        END_TO_END,
        &[
            (
                "wall_s",
                walls.iter().copied().fold(f64::INFINITY, f64::min),
            ),
            ("latency_p50_ms", percentile(&latencies, 50.0)),
            ("latency_p90_ms", percentile(&latencies, TAIL)),
            ("setup_s", setup_s),
            ("peak_rss_mb", peak_rss_mb()?),
        ],
    );
    Ok(outcome)
}

/// The flows the traced pass is checked against: what the program reported
/// on the untraced pass, or, for the server, on the cold run that filled
/// the cache the warm flows read.
fn reference<'a>(flows: &'a Flows, untraced: &'a Pass) -> &'a [FlowTap] {
    match flows {
        Flows::Warm { cold, .. } => cold,
        _ => &untraced.flows,
    }
}

/// One untraced pass, the traced decomposition of the same flows, and the
/// same pass once more with the program's metrics collector attached.
struct Triplet {
    untraced: Pass,
    layers: Layers,
    observed: Pass,
    metrics: MetricsSummary,
}

/// The per-layer run: triplets until the run's seconds are spent, each
/// layer time the median over triplets. Counts are identical across
/// triplets and across runs of one seed.
///
/// On serve-warm the passes are warm rounds, and the decomposition is one
/// connection's requests served warm; the server ignores the metrics
/// collector, so its `obs.overhead_ratio` compares two warm rounds.
fn traced(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut load = workloads::prepare(workload, seed)?;
    let config = VerifyConfig::hybrid();
    let sink = TraceCollector::new();
    let flows = load.flows();
    let triplets = repeat(seconds, || {
        let untraced = load.pass(&NullCollector);
        let layers = layers::decompose(&flows, &config, &sink);
        let collector = MetricsCollector::new();
        let observed = load.pass(&collector);
        Triplet {
            untraced,
            layers,
            observed,
            metrics: collector.summary(),
        }
    });
    let mut outcome = Outcome::default();
    let last = triplets.last().expect("at least one triplet");
    outcome.extras = load.extras(&last.metrics);
    drop(load);

    for t in &triplets {
        outcome.absorb(&t.untraced);
        outcome.absorb(&t.observed);
        outcome.attempted += t.layers.signatures.len() as u64;
        outcome.failed += t.layers.problems.len() as u64;
        outcome.problems(&t.layers.problems);
        let lazy: Vec<&String> = reference(&flows, &t.untraced)
            .iter()
            .map(|f| &f.signature)
            .collect();
        let eager: Vec<&String> = t.layers.signatures.iter().collect();
        if lazy != eager {
            let differ = lazy.len().abs_diff(eager.len())
                + lazy.iter().zip(&eager).filter(|(a, b)| a != b).count();
            outcome.failed += differ as u64;
            outcome.problems(&[format!(
                "{differ} flows differ between the lazy and the traced pass"
            )]);
        }
    }

    let med = |f: &dyn Fn(&Triplet) -> f64| median(&triplets.iter().map(f).collect::<Vec<_>>());
    let layers = &last.layers;
    let count = |name: &str| layers.get(name) as f64;
    outcome.declare(
        PER_LAYER,
        &[
            (
                "core.design_build_s",
                med(&|t| t.layers.time("core.design_build")),
            ),
            (
                "core.assume_gen_s",
                med(&|t| t.layers.time("core.assume_gen")),
            ),
            (
                "core.assert_gen_s",
                med(&|t| t.layers.time("core.assert_gen")),
            ),
            (
                "verif.row_build_s",
                med(&|t| t.layers.time("verif.row_build")),
            ),
            ("verif.rows", count("verif.rows")),
            ("verif.walk_s", med(&|t| t.layers.time("verif.walk"))),
            ("verif.walk_lookups", count("verif.walk_lookups")),
            ("verif.walk_states", count("verif.walk_states")),
            (
                "verif.walk_ns_per_lookup",
                med(&|t| {
                    t.layers.time("verif.walk") * 1e9 / t.layers.get("verif.walk_lookups") as f64
                }),
            ),
            ("rtl.sim_step_s", med(&|t| t.layers.time("rtl.sim_step"))),
            (
                "rtl.sim_ns_per_step",
                med(&|t| {
                    t.layers.time("rtl.sim_step") * 1e9 / t.layers.get("rtl.sim_steps") as f64
                }),
            ),
            (
                "obs.overhead_ratio",
                med(&|t| ratio(t.observed.wall, t.untraced.wall)),
            ),
            ("layers.coverage_ratio", med(&|t| t.layers.coverage())),
            (
                "trace.overhead_ratio",
                med(&|t| ratio(t.layers.wall, t.untraced.wall)),
            ),
        ],
    );

    // Everything else the decomposition measured, by layer.
    let declared: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    for layer in layers.times.keys().chain(layers.side.keys()) {
        let name = format!("{layer}_s");
        if !declared.contains(&name.as_str()) {
            outcome.extras.push((name, med(&|t| t.layers.time(layer))));
        }
    }
    for (name, value) in &layers.counts {
        if !declared.contains(name) {
            outcome.extras.push((name.to_string(), *value as f64));
        }
    }
    let lazy = reference(&flows, &last.untraced);
    let flow_s = |flows: &[FlowTap]| -> f64 { flows.iter().map(|f| f.latency.as_secs_f64()).sum() };
    let mut more = vec![
        ("verif.lazy_rows", lazy.iter().map(|f| f.rows as f64).sum()),
        (
            "trace.row_mismatches",
            lazy.iter()
                .zip(&layers.rows)
                .filter(|(f, &r)| f.rows != r)
                .count() as f64,
        ),
        ("trace.triplets", triplets.len() as f64),
    ];
    match &flows {
        Flows::Campaign { tests, .. } => {
            let (base, mutants) = lazy.split_at(tests.len().min(lazy.len()));
            more.push(("mutate.baseline_s", flow_s(base)));
            more.push(("mutate.mutant_s", flow_s(mutants)));
            more.push(("mutate.units", lazy.len() as f64));
        }
        Flows::Fuzz(_) => more.push(("fuzz.escalation_s", flow_s(lazy))),
        Flows::Tests { .. } | Flows::Warm { .. } => {}
    }
    outcome
        .extras
        .extend(more.into_iter().map(|(name, v)| (name.to_string(), v)));

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}-seed{seed}.trace.json"));
    std::fs::create_dir_all(path.parent().expect("the trace path has a directory"))
        .and_then(|()| std::fs::write(&path, sink.render()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    outcome
        .notes
        .push(format!("spans written to {}", path.display()));
    Ok(outcome)
}

fn ratio(a: Duration, b: Duration) -> f64 {
    a.as_secs_f64() / b.as_secs_f64()
}

/// The process's peak resident set size (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}
