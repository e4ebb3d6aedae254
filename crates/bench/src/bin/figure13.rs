//! Regenerates Figure 13: runtime to verification for all 56 litmus tests
//! under both configurations, on the fixed Multi-V-scale design.
//!
//! Pass `--json <path>` to also dump the rows as JSON.

use rtlcheck_bench::{bar_chart, run_suite};
use rtlcheck_obs::NullCollector;
use rtlcheck_rtl::multi_vscale::MemoryImpl;
use rtlcheck_verif::VerifyConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let run = |config| run_suite(MemoryImpl::Fixed, &config, 1, &NullCollector);
    let hybrid = run(VerifyConfig::hybrid());
    let full = run(VerifyConfig::full_proof());

    println!("Figure 13: runtime to verification (fixed Multi-V-scale, 56 tests)\n");
    println!(
        "{:<12} {:>14} {:>14}   (verified-by-assumptions marked *)",
        "test", "Hybrid", "Full_Proof"
    );
    for (h, f) in hybrid.rows.iter().zip(&full.rows) {
        assert_eq!(h.test, f.test);
        println!(
            "{:<12} {:>12.3}ms{} {:>12.3}ms{}",
            h.test,
            h.runtime.as_secs_f64() * 1e3,
            if h.by_assumptions { "*" } else { " " },
            f.runtime.as_secs_f64() * 1e3,
            if f.by_assumptions { "*" } else { " " },
        );
    }
    println!(
        "\nMean runtime: Hybrid {:.3}ms, Full_Proof {:.3}ms (paper: 6.2h per test for both)",
        hybrid.mean_runtime().as_secs_f64() * 1e3,
        full.mean_runtime().as_secs_f64() * 1e3
    );
    println!(
        "Total runtime: Hybrid {:.3}s, Full_Proof {:.3}s (paper: 1733h / 1390h CPU)",
        hybrid.total_runtime().as_secs_f64(),
        full.total_runtime().as_secs_f64()
    );

    let items: Vec<(String, f64)> = hybrid
        .rows
        .iter()
        .map(|r| (r.test.clone(), r.runtime.as_secs_f64() * 1e3))
        .collect();
    println!(
        "\nHybrid runtime profile (ms):\n{}",
        bar_chart(&items, 50, "ms")
    );

    if let Some(path) = json_path {
        let all = rtlcheck_bench::Json::Arr(
            hybrid
                .rows
                .iter()
                .chain(&full.rows)
                .map(|r| r.to_json())
                .collect(),
        );
        std::fs::write(&path, all.pretty() + "\n").expect("write JSON output");
        println!("rows written to {path}");
    }
}
