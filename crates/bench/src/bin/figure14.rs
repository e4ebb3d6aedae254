//! Regenerates Figure 14: percentage of fully proven properties for all 56
//! litmus tests under both configurations.

use rtlcheck_bench::run_suite;
use rtlcheck_obs::NullCollector;
use rtlcheck_rtl::multi_vscale::MemoryImpl;
use rtlcheck_verif::VerifyConfig;

fn main() {
    let run = |config| run_suite(MemoryImpl::Fixed, &config, 1, &NullCollector);
    let hybrid = run(VerifyConfig::hybrid());
    let full = run(VerifyConfig::full_proof());

    println!("Figure 14: % fully proven properties (fixed Multi-V-scale, 56 tests)\n");
    println!(
        "{:<12} {:>8} {:>11} {:>7}",
        "test", "Hybrid", "Full_Proof", "#props"
    );
    for (h, f) in hybrid.rows.iter().zip(&full.rows) {
        println!(
            "{:<12} {:>7.1}% {:>10.1}% {:>7}",
            h.test,
            h.proven_pct(),
            f.proven_pct(),
            h.total
        );
    }
    println!(
        "\nPer-test mean:  Hybrid {:.1}%  Full_Proof {:.1}%   (paper: 81% / 90%)",
        hybrid.mean_per_test_proven_pct(),
        full.mean_per_test_proven_pct()
    );
    println!(
        "Overall:        Hybrid {:.1}%  Full_Proof {:.1}%   (paper: 81% / 89%)",
        hybrid.overall_proven_pct(),
        full.overall_proven_pct()
    );
}
