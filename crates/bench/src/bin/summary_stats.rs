//! Regenerates the §7.2 aggregate statistics: proven-property percentages,
//! average bounded-proof depths, assumption-fast-path counts, and runtimes.

use rtlcheck_bench::run_suite;
use rtlcheck_obs::NullCollector;
use rtlcheck_rtl::multi_vscale::MemoryImpl;
use rtlcheck_verif::VerifyConfig;

fn main() {
    println!("§7.2 summary statistics (fixed Multi-V-scale, 56-test suite)\n");
    println!(
        "{:<28} {:>12} {:>12} {:>16}",
        "metric", "Hybrid", "Full_Proof", "paper (H / FP)"
    );
    let run = |config| run_suite(MemoryImpl::Fixed, &config, 1, &NullCollector);
    let hybrid = run(VerifyConfig::hybrid());
    let full = run(VerifyConfig::full_proof());
    let row = |name: &str, h: String, f: String, paper: &str| {
        println!("{name:<28} {h:>12} {f:>12} {paper:>16}");
    };
    row(
        "properties proven (overall)",
        format!("{:.1}%", hybrid.overall_proven_pct()),
        format!("{:.1}%", full.overall_proven_pct()),
        "81% / 89%",
    );
    row(
        "properties proven (per test)",
        format!("{:.1}%", hybrid.mean_per_test_proven_pct()),
        format!("{:.1}%", full.mean_per_test_proven_pct()),
        "81% / 90%",
    );
    row(
        "avg bounded-proof depth",
        hybrid
            .mean_bound()
            .map_or("-".into(), |b| format!("{b:.1}")),
        full.mean_bound().map_or("-".into(), |b| format!("{b:.1}")),
        "43 / 22 cycles",
    );
    row(
        "tests verified by assumptions",
        format!("{}/56", hybrid.num_by_assumptions()),
        format!("{}/56", full.num_by_assumptions()),
        "22 / 22",
    );
    row(
        "mean runtime per test",
        format!("{:.2}ms", hybrid.mean_runtime().as_secs_f64() * 1e3),
        format!("{:.2}ms", full.mean_runtime().as_secs_f64() * 1e3),
        "6.2h / 6.2h",
    );
    row(
        "violations on fixed design",
        hybrid
            .rows
            .iter()
            .filter(|r| r.violated)
            .count()
            .to_string(),
        full.rows.iter().filter(|r| r.violated).count().to_string(),
        "0 / 0",
    );
    let props = hybrid.rows.iter().map(|r| r.total).sum::<usize>();
    println!("\ntotal properties generated: {props} across 56 tests");
}
