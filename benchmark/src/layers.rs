//! The traced pass: the workload's verification flows split into the
//! layers they pass through, timed from outside around each call into a
//! layer's public functions.
//!
//! One flow is what `Rtlcheck::check_test` does, taken apart: design build
//! (`core`), assumption and assertion generation (`core`), the state graph
//! built eagerly to completion (`verif` row build, `StateGraph::build`
//! under an unbounded full engine), then the cover search and every
//! property walk on that prebuilt graph (`verif` walk). The lazy flow
//! builds exactly the rows its walks touch; the eager build builds every
//! reachable row, and the benchmark reports both counts so a difference
//! shows. Two measurements sit beside the pass and are not part of its
//! wall time: `Simulator::step` on every (row, input) of the finished graph
//! (`rtl`), and `verif::replay` of every counterexample.
//!
//! A warm server request is taken apart the same way, with the calls a
//! server worker makes on a cache hit: the coalescing fingerprint taken at
//! admission (`core`), then the flow with `GraphCache::build_graph`
//! restoring the graph from the cached snapshot in place of the row build.
//!
//! Each layer call is also recorded as a span (name, start, end and its
//! parent's name) through the `rtlcheck_obs` trace writer.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtlcheck_bench::fuzz::{FuzzOptions, MAX_DESIGN_CORES};
use rtlcheck_core::{assert_gen, assume, AssertionOptions, Rtlcheck};
use rtlcheck_litmus::diy::{self, CycleSignature};
use rtlcheck_litmus::oracle::{self, Model, Verdict};
use rtlcheck_litmus::LitmusTest;
use rtlcheck_obs::{attrs, span, Collector};
use rtlcheck_rtl::multi_vscale::MemoryImpl;
use rtlcheck_rtl::mutate::Mutation;
use rtlcheck_rtl::sim::Simulator;
use rtlcheck_rtl::ConeSet;
use rtlcheck_verif::{
    check_cover_on_graph, verify_property_on_graph, Backend, CoreSnapshot, CoverVerdict, Engine,
    GraphCache, PropertyVerdict, StateGraph, VerifyConfig,
};

use crate::workloads::{confirmed, problem_of, uspec_for, Flows};

/// Layer times and work counts of one traced pass.
#[derive(Debug, Default)]
pub struct Layers {
    /// Wall time of the traced pass, without the side measurements.
    pub wall: Duration,
    /// Time inside each layer's calls during the pass.
    pub times: BTreeMap<&'static str, Duration>,
    /// Measurements taken beside the pass (`rtl.sim_step`, `verif.replay`).
    pub side: BTreeMap<&'static str, Duration>,
    /// Work counts; identical on every run of the same inputs.
    pub counts: BTreeMap<&'static str, u64>,
    /// Per flow, in flow order: cover outcome and property verdicts, in
    /// the format of the untraced pass's [`crate::workloads::FlowTap`].
    pub signatures: Vec<String>,
    /// Per flow, in flow order: rows the eager build materialised.
    pub rows: Vec<u64>,
    /// Failed checks: unconfirmed counterexamples, and shapes whose
    /// engine verdict disagrees with the oracle.
    pub problems: Vec<String>,
}

impl Layers {
    fn add_time(&mut self, layer: &'static str, d: Duration) {
        *self.times.entry(layer).or_default() += d;
    }

    fn add_side(&mut self, layer: &'static str, d: Duration) {
        *self.side.entry(layer).or_default() += d;
    }

    fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    pub fn time(&self, layer: &str) -> f64 {
        self.times
            .get(layer)
            .or_else(|| self.side.get(layer))
            .map_or(0.0, Duration::as_secs_f64)
    }

    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// The share of the pass's wall time its layers account for.
    pub fn coverage(&self) -> f64 {
        let covered: Duration = self.times.values().sum();
        covered.as_secs_f64() / self.wall.as_secs_f64()
    }
}

/// Runs `f` as one call into `layer`: timed, and recorded as a span.
fn timed<T>(
    layers: &mut Layers,
    sink: &dyn Collector,
    layer: &'static str,
    parent: &str,
    f: impl FnOnce() -> T,
) -> T {
    let guard = span(sink, layer, attrs!["parent" => parent]);
    let start = Instant::now();
    let out = f();
    layers.add_time(layer, start.elapsed());
    guard.finish();
    out
}

/// The traced pass over `flows`, recording spans into `sink`.
pub fn decompose(flows: &Flows, config: &VerifyConfig, sink: &dyn Collector) -> Layers {
    let mut layers = Layers::default();
    let start = Instant::now();
    let mut side = Duration::ZERO;
    match flows {
        Flows::Tests { memory, tests } => {
            let tracer = Tracer::new(*memory, config, sink);
            for test in tests {
                side += tracer.flow(&mut layers, test, Splice::None).side;
            }
        }
        Flows::Campaign { tests, mutants } => {
            let tracer = Tracer::new(MemoryImpl::Fixed, config, sink);
            let mut baselines = Vec::with_capacity(tests.len());
            for test in tests {
                let flow = tracer.flow(&mut layers, test, Splice::Publish);
                side += flow.side;
                baselines.push(flow.snapshot.expect("baseline flows publish their core"));
            }
            for mutant in mutants {
                for (test, base) in tests.iter().zip(&baselines) {
                    let splice = Splice::From(mutant, Arc::clone(base));
                    side += tracer.flow(&mut layers, test, splice).side;
                }
            }
        }
        Flows::Fuzz(options) => {
            side += fuzz(&mut layers, options, config, sink);
        }
        Flows::Warm {
            memory,
            tests,
            cache,
            ..
        } => {
            let tracer = Tracer::new(*memory, config, sink);
            for test in tests {
                side += tracer.flow(&mut layers, test, Splice::Cached(cache)).side;
            }
        }
    }
    layers.wall = start.elapsed() - side;
    layers
}

/// How a flow's graph relates to a mutation campaign's baseline.
enum Splice<'a> {
    /// A one-shot check.
    None,
    /// A baseline flow: its final core is published for the mutants, as
    /// the campaign's graph cache does.
    Publish,
    /// A mutant flow: the design is mutated after it is built, and its
    /// graph is spliced from the baseline core where the mutation allows.
    From(&'a Mutation, Arc<CoreSnapshot>),
    /// A warm server request: the graph comes from a cache that holds it.
    Cached(&'a GraphCache),
}

struct FlowResult {
    /// Time spent in side measurements.
    side: Duration,
    snapshot: Option<Arc<CoreSnapshot>>,
    bug: bool,
    inconclusive: bool,
}

struct Tracer<'a> {
    tool: Rtlcheck,
    spec: rtlcheck_uspec::Spec,
    config: &'a VerifyConfig,
    sink: &'a dyn Collector,
}

impl<'a> Tracer<'a> {
    fn new(memory: MemoryImpl, config: &'a VerifyConfig, sink: &'a dyn Collector) -> Self {
        Tracer {
            tool: Rtlcheck::new(memory),
            spec: uspec_for(memory),
            config,
            sink,
        }
    }

    fn flow(&self, layers: &mut Layers, test: &LitmusTest, splice: Splice<'_>) -> FlowResult {
        let sink = self.sink;
        let mutant = match &splice {
            Splice::From(m, _) => m.name.as_str(),
            _ => "",
        };
        let flow_span = span(
            sink,
            "flow",
            attrs!["test" => test.name(), "mutant" => mutant],
        );
        if let Splice::Cached(_) = splice {
            timed(layers, sink, "core.coalescing_fingerprint", "flow", || {
                self.tool.coalescing_fingerprint(test)
            });
        }
        let (mv, baseline) = timed(layers, sink, "core.design_build", "flow", || {
            let mut mv = self.tool.build_design(test);
            let mut baseline = None;
            if let Splice::From(m, _) = &splice {
                baseline = Some(mv.design.clone());
                mv.design = m.apply(&mv.design).expect("catalog mutations apply");
            }
            (mv, baseline)
        });
        let assumptions = timed(layers, sink, "core.assume_gen", "flow", || {
            assume::generate(&mv, test)
        });
        let assertions = timed(layers, sink, "core.assert_gen", "flow", || {
            assert_gen::generate(&self.spec, &mv, test, AssertionOptions::paper())
                .expect("the Multi-V-scale µspec is synthesizable")
        });
        layers.count("core.properties", assertions.len() as u64);
        let problem = problem_of(&mv.design, &assumptions);
        let props: Vec<_> = assertions.iter().map(|a| &a.directive.prop).collect();

        let unbounded = Engine::full(usize::MAX);
        let graph = timed(layers, sink, "verif.row_build", "flow", || {
            let reused = match (&splice, &baseline) {
                (Splice::Cached(cache), _) => {
                    Some(cache.build_graph(&problem, &props, unbounded).0)
                }
                (Splice::From(_, core), Some(base)) => {
                    ConeSet::diff(base, &mv.design).and_then(|dirty| {
                        StateGraph::splice(
                            &problem,
                            props.iter().copied(),
                            Arc::clone(core),
                            &dirty,
                            unbounded,
                            false,
                        )
                    })
                }
                _ => None,
            };
            reused.unwrap_or_else(|| StateGraph::build(&problem, props.iter().copied(), unbounded))
        });
        let built = graph.stats();
        layers.rows.push(built.nodes as u64);
        layers.count("verif.rows", built.nodes as u64);
        layers.count("verif.edges", built.edges);
        layers.count("verif.pruned_edges", built.pruned_edges);

        let (cover, verdicts) = timed(layers, sink, "verif.walk", "flow", || {
            let cover = check_cover_on_graph(&graph, self.config.cover_engine());
            let verdicts: Vec<PropertyVerdict> = props
                .iter()
                .map(|p| verify_property_on_graph(&graph, p, self.config))
                .collect();
            (cover, verdicts)
        });
        let walked = graph.stats();
        layers.count("verif.walk_lookups", walked.lookups);
        layers.count("verif.walk_row_builds", (walked.nodes - built.nodes) as u64);
        let states =
            cover.stats().states + verdicts.iter().map(|v| v.stats().states).sum::<usize>();
        let transitions =
            cover.stats().transitions + verdicts.iter().map(|v| v.stats().transitions).sum::<u64>();
        layers.count("verif.walk_states", states as u64);
        layers.count("verif.walk_transitions", transitions);
        layers.signatures.push(signature(&cover, &verdicts));

        let snapshot = match splice {
            Splice::None | Splice::Cached(_) => None,
            Splice::Publish | Splice::From(..) => {
                Some(timed(layers, sink, "verif.snapshot", "flow", || {
                    Arc::new(graph.snapshot())
                }))
            }
        };
        flow_span.finish();

        // Side measurements: not part of what check_test does.
        let side_start = Instant::now();
        let sim_span = span(sink, "rtl.sim_step", attrs!["parent" => "flow"]);
        let sim = Simulator::new(&mv.design);
        let nodes: Vec<_> = (0..walked.nodes as u32)
            .map(|n| graph.node_state(n))
            .collect();
        let inputs: Vec<_> = (0..graph.num_inputs())
            .map(|c| graph.class_input(0, c))
            .collect();
        let steps = Instant::now();
        for state in &nodes {
            for input in &inputs {
                black_box(sim.step(black_box(state), input));
            }
        }
        layers.add_side("rtl.sim_step", steps.elapsed());
        layers.count("rtl.sim_steps", (nodes.len() * inputs.len()) as u64);
        sim_span.finish();

        let replay_span = span(sink, "verif.replay", attrs!["parent" => "flow"]);
        let replays = Instant::now();
        for (a, verdict) in assertions.iter().zip(&verdicts) {
            if let PropertyVerdict::Falsified { trace, .. } = verdict {
                layers.count("verif.replayed_traces", 1);
                if !confirmed(&problem, a, trace) {
                    layers.problems.push(format!(
                        "{}: counterexample of {} does not replay",
                        test.name(),
                        a.directive.name
                    ));
                }
            }
        }
        layers.add_side("verif.replay", replays.elapsed());
        replay_span.finish();

        let bug = matches!(cover, CoverVerdict::Covered(..))
            || verdicts.iter().any(PropertyVerdict::is_falsified);
        FlowResult {
            side: side_start.elapsed(),
            snapshot,
            bug,
            // Neither a bug nor verified: the assumptions admitted no
            // execution at all (a vacuous report).
            inconclusive: !bug && cover.stats().vacuous(),
        }
    }
}

/// The verdict signature the program's own events would spell.
fn signature(cover: &CoverVerdict, verdicts: &[PropertyVerdict]) -> String {
    let mut s = String::from(match cover {
        CoverVerdict::Unreachable(_) => "unreachable:",
        CoverVerdict::Covered(..) => "covered:",
        CoverVerdict::Unknown(_) => "unknown:",
    });
    for v in verdicts {
        s.push_str(match v {
            PropertyVerdict::Proven { .. } => "proven,",
            PropertyVerdict::Bounded { .. } => "bounded,",
            PropertyVerdict::Falsified { .. } => "falsified,",
        });
    }
    s
}

/// The fuzzing campaign of `rtlcheck_bench::fuzz::run_fuzz`, step by step:
/// sampling, canonicalisation and generation per cycle (`litmus`), the
/// oracle per unique shape (`litmus`), fingerprint bucketing (`core`), and
/// one decomposed flow per escalated bucket. Returns the side time.
fn fuzz(
    layers: &mut Layers,
    options: &FuzzOptions,
    config: &VerifyConfig,
    sink: &dyn Collector,
) -> Duration {
    let campaign = span(sink, "fuzz", attrs!["seed" => options.seed]);
    // Per-cycle calls are too many to span one by one: each loop is one
    // span, and the layer totals add up the per-call times.
    let sampling = span(sink, "litmus.sampling_loop", attrs!["parent" => "fuzz"]);
    let mut rng = StdRng::seed_from_u64(options.seed);
    let lengths = options.max_len - options.min_len + 1;
    let mut index: HashMap<CycleSignature, usize> = HashMap::new();
    let mut shapes: Vec<(LitmusTest, usize)> = Vec::new();
    let (mut sample, mut canon, mut generate) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for _ in 0..options.count {
        let len = options.min_len + rng.gen_index(lengths);
        let t = Instant::now();
        let cycle = diy::random_cycle(&mut rng, len);
        sample += t.elapsed();
        let Ok(cycle) = cycle else {
            layers.count("litmus.sample_failures", 1);
            continue;
        };
        let t = Instant::now();
        let signature = CycleSignature::of(&cycle);
        canon += t.elapsed();
        if let Some(&i) = index.get(&signature) {
            shapes[i].1 += 1;
            continue;
        }
        let t = Instant::now();
        let test = diy::generate(&format!("fz{:04}", shapes.len()), &cycle)
            .expect("random_cycle only returns generate-accepted cycles");
        generate += t.elapsed();
        index.insert(signature, shapes.len());
        shapes.push((test, 1));
    }
    sampling.finish();
    layers.add_time("litmus.sample", sample);
    layers.add_time("litmus.canon", canon);
    layers.add_time("litmus.generate", generate);
    layers.count("litmus.cycles", options.count as u64);
    layers.count("litmus.unique_shapes", shapes.len() as u64);

    let verdicts: Vec<Verdict> = timed(layers, sink, "litmus.oracle", "fuzz", || {
        shapes
            .iter()
            .map(|(test, _)| {
                let v = oracle::check(test, Model::Sc);
                if v == Verdict::Forbidden {
                    black_box(oracle::exercised_axioms(test, Model::Sc));
                }
                v
            })
            .collect()
    });

    // Escalation: mandatory shapes, then the most frequent up to the budget.
    let budget = options
        .escalate_budget
        .unwrap_or((shapes.len() / 10).max(1));
    let mandatory =
        |i: usize| shapes[i].0.num_cores() <= MAX_DESIGN_CORES && verdicts[i] != Verdict::Forbidden;
    let mut escalated: Vec<bool> = (0..shapes.len()).map(mandatory).collect();
    let mut ranked: Vec<usize> = (0..shapes.len()).collect();
    ranked.sort_by(|&a, &b| shapes[b].1.cmp(&shapes[a].1).then(a.cmp(&b)));
    let mut remaining = budget;
    for i in ranked {
        if remaining == 0 {
            break;
        }
        if !escalated[i] && shapes[i].0.num_cores() <= MAX_DESIGN_CORES {
            escalated[i] = true;
            remaining -= 1;
        }
    }

    let tracer = Tracer::new(options.memory, config, sink);
    let mut buckets: Vec<Vec<usize>> = Vec::new();
    let mut bucket_of: HashMap<(u64, u64), usize> = HashMap::new();
    for i in (0..shapes.len()).filter(|&i| escalated[i]) {
        let key = timed(layers, sink, "core.fingerprint", "fuzz", || {
            tracer.tool.problem_fingerprint(&shapes[i].0)
        });
        let b = *bucket_of.entry((key.key, key.check)).or_insert_with(|| {
            buckets.push(Vec::new());
            buckets.len() - 1
        });
        buckets[b].push(i);
    }
    layers.count("fuzz.escalations", buckets.len() as u64);
    let mut side = Duration::ZERO;
    for bucket in &buckets {
        let flow = tracer.flow(layers, &shapes[bucket[0]].0, Splice::None);
        side += flow.side;
        for &i in bucket {
            let agree = match verdicts[i] {
                _ if flow.inconclusive => false,
                Verdict::Observable => flow.bug,
                Verdict::Forbidden => !flow.bug,
                Verdict::Unknown => true,
            };
            if !agree {
                layers.problems.push(format!(
                    "fuzz shape {}: engine and oracle disagree",
                    shapes[i].0.name()
                ));
            }
        }
    }
    campaign.finish();
    side
}
