//! The benchmark's definition.
//!
//! `BENCHMARK.json` at the repository root names the workloads and the
//! metrics with their units and bounds. The constants below are what this
//! program measures and prints; a self-test keeps the two identical in both
//! directions, and every result line is built from these lists, so a run
//! can neither omit a declared metric nor print an undeclared one.

use rtlcheck_obs::json::Json;

/// The benchmark definition, as checked in.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The workloads, in the order `run` executes them.
pub const WORKLOADS: &[&str] = &[
    "suite-fixed",
    "suite-buggy",
    "mutate-mvs",
    "fuzz-sc",
    "serve-warm",
];

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.design_build_s", "s"),
    ("core.assume_gen_s", "s"),
    ("core.assert_gen_s", "s"),
    ("verif.row_build_s", "s"),
    ("verif.rows", "count"),
    ("verif.walk_s", "s"),
    ("verif.walk_lookups", "count"),
    ("verif.walk_states", "count"),
    ("verif.walk_ns_per_lookup", "ns"),
    ("rtl.sim_step_s", "s"),
    ("rtl.sim_ns_per_step", "ns"),
    ("obs.overhead_ratio", "ratio"),
    ("layers.coverage_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// The share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Spec {
    /// The checked-in definition.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid (pinned by the self-tests)")
    }

    pub fn parse(src: &str) -> Result<Spec, String> {
        let doc = Json::parse(src).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .ok_or("`run_seconds` must be a whole number")?;
        let workloads = list(&doc, "workloads")?
            .iter()
            .map(|w| Ok((field(w, "name")?, field(w, "why")?)))
            .collect::<Result<_, String>>()?;
        Ok(Spec {
            run_seconds,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }
}

fn list<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("`{key}` must be a list"))
}

fn field(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("`{key}` must be a string"))
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricDef>, String> {
    list(doc, key)?
        .iter()
        .map(|m| {
            let better = field(m, "better")?;
            if better != "lower" && better != "higher" {
                return Err(format!("`better` must be lower or higher, got `{better}`"));
            }
            Ok(MetricDef {
                name: field(m, "name")?,
                unit: field(m, "unit")?,
                higher_is_better: better == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric or workload name: a letter or digit, then at most 63 letters,
    /// digits, `_`, `.` or `-`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn declared(defs: &[MetricDef]) -> Vec<(&str, &str)> {
        defs.iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect()
    }

    #[test]
    fn emitted_metrics_match_benchmark_json_both_ways() {
        let spec = Spec::load();
        assert_eq!(declared(&spec.end_to_end), END_TO_END);
        assert_eq!(declared(&spec.per_layer), PER_LAYER);
        let names: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn bounds_and_directions_are_within_the_contract() {
        let spec = Spec::load();
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
            // Every end-to-end metric is a cost.
            assert!(!m.higher_is_better, "{}", m.name);
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!(setup.unit, "s");
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!((1..=60).contains(&spec.run_seconds));
    }

    #[test]
    fn names_units_and_reasons_use_the_allowed_characters() {
        let spec = Spec::load();
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in &spec.workloads {
            assert!(valid_name(name), "{name}");
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{name}"
            );
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(valid_unit(&m.unit), "{}", m.unit);
            assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
        }
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }

    #[test]
    fn charset_rules() {
        assert!(valid_name("verif.walk_ns_per_lookup"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("_hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MB"));
        assert!(!valid_unit("") && !valid_unit("per second") && !valid_unit(&"s".repeat(17)));
    }
}
