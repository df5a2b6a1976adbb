//! `repro` — regenerate every table and figure of the IceClave paper.
//!
//! Usage:
//!
//! ```text
//! repro [artifact...]
//!
//! artifacts: table1 fig5 fig8 table5 table6 fig11 fig12 fig13 fig14
//!            fig15 fig16 fig17 fig18 energy ablation_counter_cache
//!            (default: all)
//! env: ICECLAVE_SCALE_MIB=<n>   functional scale per workload (default 8)
//!      ICECLAVE_CSV_DIR=<path>  additionally write each artifact as CSV
//! ```

use std::time::Instant;

use iceclave_bench::{banner, bench_config};
use iceclave_experiments::figures;

fn main() {
    let requested: Vec<String> = std::env::args().skip(1).collect();
    let cfg = bench_config();
    let mut ran = 0;
    for (name, generate) in figures::ALL {
        if !requested.is_empty() && !requested.iter().any(|r| r == name) {
            continue;
        }
        banner(name);
        let start = Instant::now();
        let report = generate(&cfg);
        println!("{report}");
        println!("  [generated in {:.1}s]\n", start.elapsed().as_secs_f64());
        if let Ok(dir) = std::env::var("ICECLAVE_CSV_DIR") {
            let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
            if let Err(e) = std::fs::write(&path, report.table.to_csv()) {
                eprintln!("could not write {}: {e}", path.display());
            }
        }
        ran += 1;
    }
    if ran == 0 {
        eprintln!(
            "unknown artifact(s) {:?}; available: {:?}",
            requested,
            figures::ALL.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
        std::process::exit(2);
    }
}
