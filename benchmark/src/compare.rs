//! `compare A B`: applies the bounds in `BENCHMARK.json` to two directories
//! of result files written by `run` / `trace`.
//!
//! For every end-to-end metric on every workload it prints each side's
//! median and quartiles and a verdict:
//!
//! * `ok` — B's median is no worse than A's by more than the bound;
//! * `REGRESSION` — it is worse by more than the bound;
//! * `unresolved` — either side's spread (interquartile range over
//!   median) exceeds the bound, so the medians cannot be compared, unless
//!   every run of B reads better than every run of A (`better`).
//!
//! Per-layer counts (unit `count`) are deterministic: for every workload
//! and seed present on both sides they must be identical.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use rtlcheck_obs::json::Json;

use crate::spec::{MetricDef, Spec};
use crate::stats::{quartiles, spread};

/// One result file: its workload, seed, trace flag and metric values.
#[derive(Debug)]
struct Record {
    workload: String,
    seed: u64,
    trace: bool,
    metrics: BTreeMap<String, f64>,
}

fn load(dir: &Path) -> Result<Vec<Record>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut records = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        records.push(record(&doc).ok_or_else(|| format!("{}: not a result file", path.display()))?);
    }
    Ok(records)
}

fn record(doc: &Json) -> Option<Record> {
    let metrics = doc.get("result")?.get("metrics")?.as_obj()?;
    Some(Record {
        workload: doc.get("workload")?.as_str()?.to_string(),
        seed: doc.get("seed")?.as_u64()?,
        trace: doc.get("trace")?.as_bool()?,
        metrics: metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// The verdict on one metric of one workload.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Better,
    Regression,
    Unresolved,
}

/// Compares B's runs against A's under `def`'s bound.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = def.bound.unwrap_or(0.0);
    let worse = |x: f64, y: f64| if def.higher_is_better { x < y } else { x > y };
    let (_, ma, _) = quartiles(a);
    let (_, mb, _) = quartiles(b);
    let loss = if def.higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    if spread(a) > bound || spread(b) > bound {
        let all_better = b.iter().all(|&y| a.iter().all(|&x| worse(x, y)));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if loss > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two result directories".into());
    };
    let (a, b) = (load(Path::new(a))?, load(Path::new(b))?);
    let spec = Spec::load();
    let mut failures = 0;

    println!(
        "{:<12} {:<16} {:>28} {:>28} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change"
    );
    for (workload, _) in &spec.workloads {
        for def in &spec.end_to_end {
            let values = |side: &[Record]| -> Vec<f64> {
                side.iter()
                    .filter(|r| !r.trace && &r.workload == workload)
                    .filter_map(|r| r.metrics.get(&def.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&a), values(&b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(def, &va, &vb);
            failures += usize::from(verdict == Verdict::Regression);
            let cell = |v: &[f64]| {
                let (q1, q2, q3) = quartiles(v);
                format!("{q2:.4} [{q1:.4}, {q3:.4}] ({})", v.len())
            };
            let change = (quartiles(&vb).1 / quartiles(&va).1 - 1.0) * 100.0;
            println!(
                "{workload:<12} {:<16} {:>28} {:>28} {change:>+7.1}%  {verdict:?}",
                def.name,
                cell(&va),
                cell(&vb)
            );
        }
    }

    let counts: Vec<&MetricDef> = spec
        .per_layer
        .iter()
        .filter(|m| m.unit == "count")
        .collect();
    let traced = |side: &[Record]| -> BTreeMap<(String, u64), BTreeMap<String, f64>> {
        side.iter()
            .filter(|r| r.trace)
            .map(|r| ((r.workload.clone(), r.seed), r.metrics.clone()))
            .collect()
    };
    let (ta, tb) = (traced(&a), traced(&b));
    let mut compared = 0;
    for (key, ma) in &ta {
        let Some(mb) = tb.get(key) else { continue };
        for def in &counts {
            compared += 1;
            if ma.get(&def.name) != mb.get(&def.name) {
                failures += 1;
                println!(
                    "COUNT MISMATCH {} seed {}: {} is {:?} in A, {:?} in B",
                    key.0,
                    key.1,
                    def.name,
                    ma.get(&def.name),
                    mb.get(&def.name)
                );
            }
        }
    }
    println!("{compared} deterministic counts compared");
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(bound: f64, higher_is_better: bool) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "s".into(),
            higher_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let same = [1.01, 1.00, 1.00, 0.99, 1.01];
        let slower = [1.20, 1.21, 1.19, 1.20, 1.22];
        assert_eq!(judge(&def(0.1, false), &a, &same), Verdict::Ok);
        assert_eq!(judge(&def(0.1, false), &a, &slower), Verdict::Regression);
        // For a higher-is-better metric the same numbers are a gain.
        assert_eq!(judge(&def(0.1, true), &a, &slower), Verdict::Ok);
        assert_eq!(judge(&def(0.1, true), &slower, &a), Verdict::Regression);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [1.0, 1.5, 0.7, 1.2, 0.9];
        let steady = [1.0, 1.01, 0.99, 1.0, 1.0];
        assert_eq!(
            judge(&def(0.1, false), &noisy, &steady),
            Verdict::Unresolved
        );
        let fast = [0.5, 0.51, 0.49, 0.5, 0.5];
        assert_eq!(judge(&def(0.1, false), &noisy, &fast), Verdict::Better);
    }
}
