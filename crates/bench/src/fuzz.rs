//! The fuzzing campaign: generate litmus tests from random critical
//! cycles by the hundred-thousand, dedup them by canonical cycle shape,
//! triage every unique shape with the polynomial consistency oracle, and
//! escalate the interesting survivors to the full RTL engine.
//!
//! Roy et al.'s polynomial-time MCM checking and QED's litmus-free
//! validation argue the same division of labour this module implements:
//! an `O(n·log n)` axiomatic check ([`rtlcheck_litmus::oracle`]) settles
//! the overwhelming majority of generated outcomes, and the expensive
//! NFA-walk engine runs only on shapes that are *novel* (high-frequency
//! representatives), *undecided* (the oracle returned
//! [`Verdict::Unknown`]), or *alarming* (an SC-observable outcome from a
//! generator whose every product must be SC-forbidden — a generator
//! soundness violation).
//!
//! ## Pipeline
//!
//! 1. **Generate** — a seeded loop over [`diy::random_cycle`] /
//!    [`diy::generate`] samples `count` cycles of length
//!    `min_len..=max_len`.
//! 2. **Dedup** — each cycle canonicalises to its
//!    [`diy::CycleSignature`] (rotation/reflection-invariant); only the
//!    first spelling of a shape is kept, later hits just bump its count.
//! 3. **Triage** — the oracle checks every unique shape under SC and
//!    under the design's model, and names the axioms a forbidden outcome
//!    exercises (the kill-matrix analogue: dropping the axiom flips the
//!    verdict).
//! 4. **Escalate** — mandatory escalations (unknown / violation) plus the
//!    most frequent remaining shapes, up to the escalation budget, each
//!    run the full engine once. Distinct shapes generate distinct
//!    programs, so no two escalations share a verification problem.
//!
//! ## Determinism
//!
//! Generation and triage are sequential and seeded; the engine phase runs
//! on the suite runner's pool ([`crate::run_pool`]) over the escalated
//! shapes in first-seen order, whose per-unit collector streams are
//! replayed in input order,
//! and the campaign's `fuzz.*` counters are emitted after all replays.
//! The report carries no timing data, so its text and JSON renderings
//! are byte-identical across `--jobs` values and with or without a graph
//! cache.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtlcheck_core::{Rtlcheck, TestReport};
use rtlcheck_litmus::diy::{self, CycleSignature, Edge};
use rtlcheck_litmus::oracle::{self, Model, Verdict};
use rtlcheck_litmus::LitmusTest;
use rtlcheck_obs::json::Json;
use rtlcheck_obs::{attrs, Collector, TrackSink};
use rtlcheck_rtl::isa::MAX_THREAD_LEN;
use rtlcheck_rtl::multi_vscale::{MemoryImpl, NUM_CORES};
use rtlcheck_verif::{GraphCache, VerifyConfig};

/// The cores of the Multi-V-scale design. Shapes with more threads, or
/// with a thread longer than [`MAX_THREAD_LEN`] instructions, are triaged
/// by the oracle but cannot be escalated.
pub const MAX_DESIGN_CORES: usize = NUM_CORES;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// How many cycles to sample.
    pub count: usize,
    /// RNG seed; same seed, same campaign.
    pub seed: u64,
    /// The design variant escalations run against; also selects the
    /// oracle's design model ([`Model::Tso`] for [`MemoryImpl::Tso`],
    /// [`Model::Sc`] otherwise).
    pub memory: MemoryImpl,
    /// Worker threads for the engine phase (≤ 1 runs inline).
    pub jobs: usize,
    /// Smallest cycle length sampled.
    pub min_len: usize,
    /// Largest cycle length sampled.
    pub max_len: usize,
    /// Engine escalations beyond the mandatory ones (unknown verdicts and
    /// generator violations always escalate). `None` means a tenth of the
    /// unique shapes, at least one.
    pub escalate_budget: Option<usize>,
}

impl FuzzOptions {
    /// Default campaign on `memory`: 10k samples of length 3..=6, seed 0,
    /// sequential, automatic escalation budget.
    pub fn new(memory: MemoryImpl) -> Self {
        FuzzOptions {
            count: 10_000,
            seed: 0,
            memory,
            jobs: 1,
            min_len: 3,
            max_len: 6,
            escalate_budget: None,
        }
    }

    /// The oracle model matching the design variant.
    pub fn model(&self) -> Model {
        match self.memory {
            MemoryImpl::Tso => Model::Tso,
            MemoryImpl::Buggy | MemoryImpl::Fixed => Model::Sc,
        }
    }
}

/// Why a shape was (or was not) handed to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Escalation {
    /// Triage settled it; the budget did not reach it.
    OracleOnly,
    /// The oracle returned [`Verdict::Unknown`] under the design model.
    Unknown,
    /// The shape is SC-observable — every diy product must be
    /// SC-forbidden, so this is a generator soundness violation.
    Violation,
    /// Escalated as a high-frequency representative within the budget.
    Budget,
    /// The test does not fit the design ([`Rtlcheck::fit`]); not
    /// escalatable.
    BeyondDesign,
}

impl Escalation {
    /// Stable lower-snake label (reports and JSON).
    pub fn label(self) -> &'static str {
        match self {
            Escalation::OracleOnly => "oracle_only",
            Escalation::Unknown => "unknown",
            Escalation::Violation => "violation",
            Escalation::Budget => "budget",
            Escalation::BeyondDesign => "beyond_design",
        }
    }

    fn escalates(self) -> bool {
        matches!(
            self,
            Escalation::Unknown | Escalation::Violation | Escalation::Budget
        )
    }
}

/// One unique shape's campaign result.
#[derive(Debug, Clone)]
pub struct ShapeResult {
    /// Canonical cycle, diy-style (`"PodWR Fre PodWR Fre"`).
    pub signature: String,
    /// Classic litmus name when the shape is a well-known one.
    pub known_name: Option<&'static str>,
    /// Cycle length.
    pub len: usize,
    /// Cores the generated test needs.
    pub cores: usize,
    /// How many sampled cycles canonicalised to this shape.
    pub count: usize,
    /// Oracle verdict under SC.
    pub sc_verdict: Verdict,
    /// Oracle verdict under the design model.
    pub design_verdict: Verdict,
    /// Axioms the (forbidden) outcome exercises under the design model.
    pub axioms: Vec<&'static str>,
    /// Why the shape did or did not escalate.
    pub escalation: Escalation,
    /// Engine verdict (`bug` / `clean` / `inconclusive`) when escalated.
    pub engine: Option<&'static str>,
    /// Oracle/engine agreement when escalated: `agree`, `disagree`,
    /// `resolved` (the engine settled an unknown), or `inconclusive`.
    pub agreement: Option<&'static str>,
}

/// The campaign's aggregate result.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// RNG seed.
    pub seed: u64,
    /// Cycles requested.
    pub requested: usize,
    /// Design variant label.
    pub memory: String,
    /// Oracle design model.
    pub model: Model,
    /// Verification configuration name.
    pub config: String,
    /// Sampled length range, inclusive.
    pub len_range: (usize, usize),
    /// Cycles that failed to sample (no well-formed cycle found).
    pub sample_failures: usize,
    /// Cycles that mapped to an already-seen shape.
    pub duplicates: usize,
    /// The effective escalation budget (mandatory escalations excluded).
    pub escalate_budget: usize,
    /// Unique shapes, in first-seen order.
    pub shapes: Vec<ShapeResult>,
    /// Axiom columns of the exercise matrix (the design model's axioms).
    pub axioms: Vec<&'static str>,
}

impl FuzzReport {
    /// Cycles that sampled and generated successfully.
    pub fn generated(&self) -> usize {
        self.requested - self.sample_failures
    }

    /// Shapes the oracle fully decided (no `Unknown` under either model).
    pub fn oracle_resolved(&self) -> usize {
        self.shapes
            .iter()
            .filter(|s| s.sc_verdict != Verdict::Unknown && s.design_verdict != Verdict::Unknown)
            .count()
    }

    /// [`oracle_resolved`](Self::oracle_resolved) as a percentage of the
    /// unique shapes.
    pub fn oracle_resolved_pct(&self) -> f64 {
        100.0 * self.oracle_resolved() as f64 / self.shapes.len().max(1) as f64
    }

    /// Duplicates as a percentage of generated tests.
    pub fn dedup_pct(&self) -> f64 {
        100.0 * self.duplicates as f64 / self.generated().max(1) as f64
    }

    fn design_verdicts(&self, v: Verdict) -> usize {
        self.shapes.iter().filter(|s| s.design_verdict == v).count()
    }

    /// Shapes handed to the engine.
    pub fn escalated(&self) -> usize {
        self.shapes
            .iter()
            .filter(|s| s.escalation.escalates())
            .count()
    }

    /// Shapes too wide for the design (never escalatable).
    pub fn beyond_design(&self) -> usize {
        self.shapes
            .iter()
            .filter(|s| s.escalation == Escalation::BeyondDesign)
            .count()
    }

    /// Generator soundness violations (SC-observable shapes). Must be
    /// zero; anything else is a diy bug.
    pub fn violations(&self) -> usize {
        self.shapes
            .iter()
            .filter(|s| s.sc_verdict == Verdict::Observable)
            .count()
    }

    fn agreement_count(&self, which: &str) -> usize {
        self.shapes
            .iter()
            .filter(|s| s.agreement == Some(which))
            .count()
    }

    /// Escalated shapes whose engine verdict confirmed the oracle's.
    pub fn agreements(&self) -> usize {
        self.agreement_count("agree")
    }

    /// Escalated shapes whose engine verdict contradicted the oracle's.
    pub fn disagreements(&self) -> usize {
        self.agreement_count("disagree")
    }

    /// Escalated shapes the engine could not decide within budget.
    pub fn engine_inconclusive(&self) -> usize {
        self.agreement_count("inconclusive")
    }

    /// How many shapes exercise each axiom of the design model — the
    /// exercise matrix marginals, in [`FuzzReport::axioms`] order.
    pub fn axiom_exercise_counts(&self) -> Vec<(&'static str, usize)> {
        self.axioms
            .iter()
            .map(|&a| {
                let shapes = self.shapes.iter().filter(|s| s.axioms.contains(&a)).count();
                (a, shapes)
            })
            .collect()
    }

    /// Axioms no generated shape exercises — where the campaign's
    /// coverage of the model is blind.
    pub fn weakest_axioms(&self) -> Vec<&'static str> {
        self.axiom_exercise_counts()
            .into_iter()
            .filter(|&(_, n)| n == 0)
            .map(|(a, _)| a)
            .collect()
    }

    /// Shapes sorted by frequency (descending), first-seen order breaking
    /// ties.
    fn by_frequency(&self) -> Vec<&ShapeResult> {
        let mut order: Vec<(usize, &ShapeResult)> = self.shapes.iter().enumerate().collect();
        order.sort_by(|(ia, a), (ib, b)| b.count.cmp(&a.count).then(ia.cmp(ib)));
        order.into_iter().map(|(_, s)| s).collect()
    }

    /// Renders the text report. Contains no timing data, so the output is
    /// byte-identical across job counts.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        const TOP: usize = 20;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Fuzz campaign: memory {}, model {} (seed {}, {} cycles requested, config {})",
            self.memory,
            self.model.label(),
            self.seed,
            self.requested,
            self.config
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "  generated  {} tests, lengths {}..={} ({} sampling failures)",
            self.generated(),
            self.len_range.0,
            self.len_range.1,
            self.sample_failures
        );
        let _ = writeln!(
            out,
            "  unique     {} shapes ({} duplicates, {:.2}% dedup)",
            self.shapes.len(),
            self.duplicates,
            self.dedup_pct()
        );
        let _ = writeln!(
            out,
            "  oracle     {}/{} resolved ({:.1}%): {} forbidden, {} observable, {} unknown under {}",
            self.oracle_resolved(),
            self.shapes.len(),
            self.oracle_resolved_pct(),
            self.design_verdicts(Verdict::Forbidden),
            self.design_verdicts(Verdict::Observable),
            self.design_verdicts(Verdict::Unknown),
            self.model.label()
        );
        let _ = writeln!(
            out,
            "  escalated  {} shapes (budget {}): {} agree, {} disagree, {} inconclusive",
            self.escalated(),
            self.escalate_budget,
            self.agreements(),
            self.disagreements(),
            self.engine_inconclusive()
        );
        let wide = self
            .shapes
            .iter()
            .filter(|s| s.escalation == Escalation::BeyondDesign && s.cores > MAX_DESIGN_CORES)
            .count();
        if wide > 0 {
            let _ = writeln!(
                out,
                "  beyond     {wide} shapes need more than {MAX_DESIGN_CORES} cores (oracle-only)"
            );
        }
        if self.beyond_design() > wide {
            let _ = writeln!(
                out,
                "  beyond     {} shapes have a thread longer than {MAX_THREAD_LEN} \
                 instructions (oracle-only)",
                self.beyond_design() - wide
            );
        }
        if self.violations() > 0 {
            let _ = writeln!(
                out,
                "  VIOLATION  {} SC-observable shapes — diy generator soundness bug",
                self.violations()
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "Shapes (by frequency):");
        let _ = writeln!(
            out,
            "  {:>7}  {:<3} {:<5} {:<10} {:<10} {:<7} shape",
            "count",
            "len",
            "cores",
            "sc",
            self.model.label(),
            "engine"
        );
        let ranked = self.by_frequency();
        for s in ranked.iter().take(TOP) {
            let name = s.known_name.map(|n| format!(" ({n})")).unwrap_or_default();
            let _ = writeln!(
                out,
                "  {:>7}  {:<3} {:<5} {:<10} {:<10} {:<7} {}{}",
                s.count,
                s.len,
                s.cores,
                s.sc_verdict.label(),
                s.design_verdict.label(),
                s.engine.unwrap_or("-"),
                s.signature,
                name
            );
        }
        if ranked.len() > TOP {
            let _ = writeln!(out, "  ... and {} more shapes", ranked.len() - TOP);
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Axiom exercise matrix (shapes exercising each {} axiom):",
            self.model.label()
        );
        let width = self
            .axioms
            .iter()
            .map(|a| a.len())
            .max()
            .unwrap_or(5)
            .max(5);
        for (axiom, n) in self.axiom_exercise_counts() {
            let mark = if n == 0 { "  <- weakest" } else { "" };
            let _ = writeln!(out, "  {axiom:<width$} {n}{mark}");
        }
        out
    }

    /// Serializes the report as JSON (same content as [`render`], same
    /// determinism guarantee).
    ///
    /// [`render`]: FuzzReport::render
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seed", Json::Num(self.seed as f64)),
            ("requested", Json::Num(self.requested as f64)),
            ("memory", Json::Str(self.memory.clone())),
            ("model", Json::Str(self.model.label().to_string())),
            ("config", Json::Str(self.config.clone())),
            ("min_len", Json::Num(self.len_range.0 as f64)),
            ("max_len", Json::Num(self.len_range.1 as f64)),
            ("generated", Json::Num(self.generated() as f64)),
            ("sample_failures", Json::Num(self.sample_failures as f64)),
            ("duplicates", Json::Num(self.duplicates as f64)),
            ("dedup_pct", Json::Num(self.dedup_pct())),
            ("unique_shapes", Json::Num(self.shapes.len() as f64)),
            ("oracle_resolved", Json::Num(self.oracle_resolved() as f64)),
            ("oracle_resolved_pct", Json::Num(self.oracle_resolved_pct())),
            ("escalate_budget", Json::Num(self.escalate_budget as f64)),
            ("escalated", Json::Num(self.escalated() as f64)),
            ("beyond_design", Json::Num(self.beyond_design() as f64)),
            ("violations", Json::Num(self.violations() as f64)),
            ("agreements", Json::Num(self.agreements() as f64)),
            ("disagreements", Json::Num(self.disagreements() as f64)),
            (
                "engine_inconclusive",
                Json::Num(self.engine_inconclusive() as f64),
            ),
            (
                "shapes",
                Json::Arr(
                    self.by_frequency()
                        .into_iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("signature", Json::Str(s.signature.clone())),
                                (
                                    "known_name",
                                    match s.known_name {
                                        Some(n) => Json::Str(n.to_string()),
                                        None => Json::Null,
                                    },
                                ),
                                ("len", Json::Num(s.len as f64)),
                                ("cores", Json::Num(s.cores as f64)),
                                ("count", Json::Num(s.count as f64)),
                                ("sc", Json::Str(s.sc_verdict.label().to_string())),
                                ("design", Json::Str(s.design_verdict.label().to_string())),
                                (
                                    "axioms",
                                    Json::Arr(
                                        s.axioms.iter().map(|a| Json::Str(a.to_string())).collect(),
                                    ),
                                ),
                                ("escalation", Json::Str(s.escalation.label().to_string())),
                                (
                                    "engine",
                                    match s.engine {
                                        Some(e) => Json::Str(e.to_string()),
                                        None => Json::Null,
                                    },
                                ),
                                (
                                    "agreement",
                                    match s.agreement {
                                        Some(a) => Json::Str(a.to_string()),
                                        None => Json::Null,
                                    },
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "axiom_exercise",
                Json::obj(
                    self.axiom_exercise_counts()
                        .into_iter()
                        .map(|(a, n)| (a, Json::Num(n as f64)))
                        .collect(),
                ),
            ),
            (
                "weakest_axioms",
                Json::Arr(
                    self.weakest_axioms()
                        .into_iter()
                        .map(|a| Json::Str(a.to_string()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// One unique shape during the campaign, before classification.
struct Shape {
    signature: CycleSignature,
    cycle: Vec<Edge>,
    test: LitmusTest,
    count: usize,
}

fn memory_label(memory: MemoryImpl) -> &'static str {
    match memory {
        MemoryImpl::Buggy => "buggy",
        MemoryImpl::Fixed => "fixed",
        MemoryImpl::Tso => "tso",
    }
}

fn engine_label(report: &TestReport) -> &'static str {
    if report.bug_found() {
        "bug"
    } else if report.verified() {
        "clean"
    } else {
        "inconclusive"
    }
}

/// How triage routes a shape before the budget is spent: a shape that
/// does not fit the design never escalates, while generator violations
/// and unknown design verdicts always do.
fn triage(test: &LitmusTest, sc_verdict: Verdict, design_verdict: Verdict) -> Escalation {
    if Rtlcheck::fit(test).is_err() {
        Escalation::BeyondDesign
    } else if sc_verdict == Verdict::Observable {
        Escalation::Violation
    } else if design_verdict == Verdict::Unknown {
        Escalation::Unknown
    } else {
        Escalation::OracleOnly
    }
}

/// Runs the fuzzing campaign.
///
/// See the module docs for the pipeline; the observability stream into
/// `collector` is deterministic across job counts (engine-phase
/// instrumentation is buffered per escalated shape and replayed in input
/// order, campaign counters follow all replays).
///
/// # Errors
///
/// Returns an error for empty or inverted parameter ranges.
///
/// # Panics
///
/// Panics if a sampled cycle fails to generate — [`diy::random_cycle`]
/// only returns cycles that [`diy::generate`] accepts.
pub fn run_fuzz(
    options: &FuzzOptions,
    config: &VerifyConfig,
    collector: &dyn Collector,
    cache: Option<&GraphCache>,
) -> Result<FuzzReport, String> {
    run_fuzz_live(options, config, collector, cache, &[])
}

/// [`run_fuzz`] plus live side-channel sinks ([`TrackSink`]): engine
/// workers additionally report through their own live tracks as shapes
/// complete (real timestamps, real schedule — what `--trace-out` and
/// `--progress` consume), marking each finished shape with a
/// [`UNIT_DONE`](rtlcheck_obs::progress::UNIT_DONE) event on the live
/// tracks **only**. The deterministic stream into `collector` is
/// byte-identical with or without live sinks.
pub fn run_fuzz_live(
    options: &FuzzOptions,
    config: &VerifyConfig,
    collector: &dyn Collector,
    cache: Option<&GraphCache>,
    live: &[&dyn TrackSink],
) -> Result<FuzzReport, String> {
    if options.count == 0 {
        return Err("fuzz campaign needs a positive --count".into());
    }
    if options.min_len < 2 || options.min_len > options.max_len {
        return Err(format!(
            "invalid length range {}..={} (need 2 <= min <= max)",
            options.min_len, options.max_len
        ));
    }
    let model = options.model();

    // Phase 1+2: seeded generation and shape dedup, strictly sequential.
    let mut rng = StdRng::seed_from_u64(options.seed);
    let span = options.max_len - options.min_len + 1;
    let mut shapes: Vec<Shape> = Vec::new();
    let mut index: HashMap<CycleSignature, usize> = HashMap::new();
    let mut sample_failures = 0usize;
    let mut duplicates = 0usize;
    for _ in 0..options.count {
        let len = options.min_len + rng.gen_index(span);
        let cycle = match diy::random_cycle(&mut rng, len) {
            Ok(cycle) => cycle,
            Err(_) => {
                sample_failures += 1;
                continue;
            }
        };
        let signature = CycleSignature::of(&cycle);
        match index.get(&signature) {
            Some(&i) => {
                shapes[i].count += 1;
                duplicates += 1;
            }
            None => {
                let name = format!("fz{:04}", shapes.len());
                let test = diy::generate(&name, &cycle)
                    .expect("random_cycle only returns generate-accepted cycles");
                index.insert(signature.clone(), shapes.len());
                shapes.push(Shape {
                    signature,
                    cycle,
                    test,
                    count: 1,
                });
            }
        }
    }

    // Phase 3: oracle triage of every unique shape.
    let mut results: Vec<ShapeResult> = shapes
        .iter()
        .map(|s| {
            let sc_verdict = oracle::check(&s.test, Model::Sc);
            let design_verdict = match model {
                Model::Sc => sc_verdict,
                Model::Tso => oracle::check(&s.test, Model::Tso),
            };
            let axioms = if design_verdict == Verdict::Forbidden {
                oracle::exercised_axioms(&s.test, model)
            } else {
                Vec::new()
            };
            ShapeResult {
                signature: s.signature.to_string(),
                known_name: s.signature.known_name(),
                len: s.cycle.len(),
                cores: s.test.num_cores(),
                count: s.count,
                sc_verdict,
                design_verdict,
                axioms,
                escalation: Escalation::OracleOnly,
                engine: None,
                agreement: None,
            }
        })
        .collect();

    // Phase 4a: pick the escalation set. Mandatory: unknown verdicts and
    // generator violations. Then the most frequent remaining shapes fill
    // the budget (ties broken by first-seen order). Shapes that do not fit
    // the design can never escalate.
    let budget = options
        .escalate_budget
        .unwrap_or_else(|| (results.len() / 10).max(1));
    for (r, s) in results.iter_mut().zip(&shapes) {
        r.escalation = triage(&s.test, r.sc_verdict, r.design_verdict);
    }
    let mut ranked: Vec<usize> = (0..results.len()).collect();
    ranked.sort_by(|&a, &b| results[b].count.cmp(&results[a].count).then(a.cmp(&b)));
    let mut remaining = budget;
    for i in ranked {
        if remaining == 0 {
            break;
        }
        if results[i].escalation == Escalation::OracleOnly {
            results[i].escalation = Escalation::Budget;
            remaining -= 1;
        }
    }

    // Phase 4b: one engine flow per escalated shape, on the suite
    // runner's deterministic pool.
    let escalated: Vec<usize> = (0..results.len())
        .filter(|&i| results[i].escalation.escalates())
        .collect();
    let tool = Rtlcheck::new(options.memory);
    let reports = crate::run_pool(
        escalated.len(),
        options.jobs,
        collector,
        live,
        |u| ("shape", escalated[u].into()),
        |u, sink| {
            let test = &shapes[escalated[u]].test;
            match cache {
                Some(cache) => tool.check_test_cached(test, config, cache, sink),
                None => tool.check_test_observed(test, config, sink),
            }
        },
    );
    if let Some(cache) = cache {
        cache.report_to(collector);
    }

    // Fold engine verdicts back into the shapes.
    for (&i, report) in escalated.iter().zip(&reports) {
        let r = &mut results[i];
        let engine = engine_label(report);
        r.engine = Some(engine);
        r.agreement = Some(match (engine, r.design_verdict) {
            ("inconclusive", _) => "inconclusive",
            (_, Verdict::Unknown) => "resolved",
            ("bug", Verdict::Observable) | ("clean", Verdict::Forbidden) => "agree",
            _ => "disagree",
        });
    }

    let report = FuzzReport {
        seed: options.seed,
        requested: options.count,
        memory: memory_label(options.memory).to_string(),
        model,
        config: config.name.clone(),
        len_range: (options.min_len, options.max_len),
        sample_failures,
        duplicates,
        escalate_budget: budget,
        shapes: results,
        axioms: model.axioms().to_vec(),
    };

    // Campaign counters and per-escalation events, in fixed order — after
    // all replays, so the stream is scheduling-independent.
    let mem = &report.memory;
    collector.counter(
        "fuzz.requested",
        report.requested as u64,
        attrs!["memory" => mem],
    );
    collector.counter(
        "fuzz.generated",
        report.generated() as u64,
        attrs!["memory" => mem],
    );
    collector.counter(
        "fuzz.sample_failures",
        report.sample_failures as u64,
        attrs!["memory" => mem],
    );
    collector.counter(
        "fuzz.duplicates",
        report.duplicates as u64,
        attrs!["memory" => mem],
    );
    collector.counter(
        "fuzz.shapes",
        report.shapes.len() as u64,
        attrs!["memory" => mem],
    );
    collector.counter(
        "fuzz.oracle_resolved",
        report.oracle_resolved() as u64,
        attrs!["memory" => mem],
    );
    collector.counter(
        "fuzz.escalated",
        report.escalated() as u64,
        attrs!["memory" => mem],
    );
    collector.counter(
        "fuzz.agreements",
        report.agreements() as u64,
        attrs!["memory" => mem],
    );
    collector.counter(
        "fuzz.disagreements",
        report.disagreements() as u64,
        attrs!["memory" => mem],
    );
    collector.counter(
        "fuzz.violations",
        report.violations() as u64,
        attrs!["memory" => mem],
    );
    for s in report.shapes.iter().filter(|s| s.escalation.escalates()) {
        collector.event(
            "escalation",
            attrs![
                "shape" => &s.signature,
                "reason" => s.escalation.label(),
                "engine" => s.engine.unwrap_or("-"),
                "agreement" => s.agreement.unwrap_or("-")
            ],
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(signature: &str, count: usize, verdict: Verdict) -> ShapeResult {
        ShapeResult {
            signature: signature.into(),
            known_name: None,
            len: 4,
            cores: 2,
            count,
            sc_verdict: Verdict::Forbidden,
            design_verdict: verdict,
            axioms: if verdict == Verdict::Forbidden {
                vec!["po", "fr"]
            } else {
                Vec::new()
            },
            escalation: Escalation::OracleOnly,
            engine: None,
            agreement: None,
        }
    }

    fn sample() -> FuzzReport {
        let mut escalated = shape("PodWR Fre PodWR Fre", 40, Verdict::Forbidden);
        escalated.known_name = Some("sb");
        escalated.escalation = Escalation::Budget;
        escalated.engine = Some("clean");
        escalated.agreement = Some("agree");
        FuzzReport {
            seed: 7,
            requested: 100,
            memory: "fixed".into(),
            model: Model::Sc,
            config: "T".into(),
            len_range: (3, 6),
            sample_failures: 2,
            duplicates: 96,
            escalate_budget: 1,
            shapes: vec![
                escalated,
                shape("PodWW Rfe PodRR Fre", 58, Verdict::Forbidden),
            ],
            axioms: vec!["po", "rf", "co", "fr"],
        }
    }

    /// A diy shape within the design's four cores whose first thread has
    /// 16 instructions, one past the PC window, stays with the oracle even
    /// when its verdict would make escalation mandatory.
    #[test]
    fn shape_with_a_sixteen_instruction_thread_is_beyond_design() {
        let mut cycle = vec![Edge::PodWW; 14];
        cycle.extend([Edge::PodWR, Edge::Fre, Edge::PodWR, Edge::Fre]);
        let test = diy::generate("long", &cycle).unwrap();
        assert_eq!(test.num_cores(), 2);
        assert_eq!(test.threads()[0].len(), 16);
        for verdict in [Verdict::Forbidden, Verdict::Unknown] {
            assert_eq!(
                triage(&test, Verdict::Forbidden, verdict),
                Escalation::BeyondDesign
            );
        }
        assert_eq!(
            triage(&test, Verdict::Observable, Verdict::Observable),
            Escalation::BeyondDesign
        );
        let mut report = sample();
        report.shapes[1].escalation = Escalation::BeyondDesign;
        let text = report.render();
        assert!(
            text.contains("1 shapes have a thread longer than 15 instructions"),
            "{text}"
        );
        assert!(!text.contains("cores (oracle-only)"), "{text}");
    }

    #[test]
    fn report_arithmetic() {
        let r = sample();
        assert_eq!(r.generated(), 98);
        assert_eq!(r.oracle_resolved(), 2);
        assert!((r.oracle_resolved_pct() - 100.0).abs() < 1e-9);
        assert_eq!(r.escalated(), 1);
        assert_eq!(r.agreements(), 1);
        assert_eq!(r.disagreements(), 0);
        assert_eq!(r.violations(), 0);
        assert_eq!(r.weakest_axioms(), vec!["rf", "co"]);
    }

    #[test]
    fn render_is_timing_free_and_names_known_shapes() {
        let text = sample().render();
        assert!(text.contains("2/2 resolved (100.0%)"), "{text}");
        assert!(text.contains("(sb)"), "{text}");
        assert!(text.contains("<- weakest"), "{text}");
        assert!(
            text.contains("escalated  1 shapes (budget 1): 1 agree, 0 disagree, 0 inconclusive"),
            "{text}"
        );
        assert!(!text.to_lowercase().contains("elapsed"), "{text}");
    }

    #[test]
    fn json_round_trips_core_counts() {
        let text = sample().to_json().render();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("unique_shapes").and_then(Json::as_u64), Some(2));
        assert_eq!(parsed.get("disagreements").and_then(Json::as_u64), Some(0));
        assert!(text.contains("\"known_name\":\"sb\""), "{text}");
        assert!(!text.contains("bucket"), "{text}");
    }

    /// A tiny end-to-end campaign: deterministic across job counts, all
    /// escalations agree with the oracle on the fixed design.
    #[test]
    fn small_campaign_is_deterministic_and_agrees() {
        let mut options = FuzzOptions::new(MemoryImpl::Fixed);
        options.count = 200;
        options.seed = 0xF0;
        let config = VerifyConfig::quick();
        let a = run_fuzz(&options, &config, &rtlcheck_obs::NullCollector, None).unwrap();
        options.jobs = 4;
        let b = run_fuzz(&options, &config, &rtlcheck_obs::NullCollector, None).unwrap();
        assert_eq!(a.render(), b.render());
        assert_eq!(a.to_json().render(), b.to_json().render());
        assert!(a.duplicates > 0, "200 samples must collide");
        assert_eq!(a.disagreements(), 0, "{}", a.render());
        assert_eq!(a.violations(), 0, "{}", a.render());
    }
}
