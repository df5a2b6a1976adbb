//! `repro` — regenerate every table and figure of the IceClave paper.
//!
//! Usage:
//!
//! ```text
//! repro [--json <path>] [artifact...]
//!
//! artifacts: table1 fig5 fig8 table5 table6 fig11 fig12 fig13 fig14
//!            fig15 fig16 fig17 fig18 energy ablation_counter_cache
//!            (default: all)
//! --json <path>  also write the paper-fidelity report of the artifacts
//!                that ran (bench id `paper`; CI gates it against
//!                baselines/BENCH_paper.json)
//! env: ICECLAVE_SCALE_MIB=<n>   functional scale per workload (default 8)
//!      ICECLAVE_CSV_DIR=<path>  additionally write each artifact as CSV
//! ```
//!
//! The paper-fidelity report gates two kinds of metric per artifact, so
//! a change that moves any reproduced number fails `check_regression`
//! instead of landing silently:
//!
//! * `<artifact>.<slug>` for each headline summary value, where the
//!   slug is the summary label up to ` (paper`. Direction `either`
//!   with a 1e-9 relative band, which only absorbs last-ulp `ln`/`exp`
//!   differences between hosts.
//! * `<artifact>.table_digest`: the FxHash of the table's CSV, masked
//!   to 52 bits so it round-trips exactly through the JSON number.
//!   Direction `either`, tolerance 0: any changed cell fails.
//!
//! The report records the scale in its config (`scale_mib`), so a run
//! at another scale fails the fingerprint check rather than comparing
//! incomparable numbers.

use std::hash::Hasher;
use std::time::Instant;

use iceclave_bench::{banner, bench_config};
use iceclave_experiments::figures::{self, FigureReport};
use iceclave_obs::{BenchReport, Direction};
use iceclave_types::FxHasher;

/// Relative band of the summary metrics.
const SUMMARY_TOL: f64 = 1e-9;

/// The table digest keeps the low 52 bits: every such integer is an
/// exact `f64`, so the JSON value compares bit-for-bit.
const DIGEST_MASK: u64 = (1 << 52) - 1;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut json: Option<String> = None;
    let mut requested: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        if arg == "--json" {
            let Some(path) = args.next() else {
                eprintln!("usage: repro [--json <path>] [artifact...]");
                std::process::exit(2);
            };
            json = Some(path);
        } else {
            requested.push(arg);
        }
    }
    let cfg = bench_config();
    let mut report =
        BenchReport::new("paper").config("scale_mib", cfg.functional_bytes.as_bytes() >> 20);
    let all_start = Instant::now();
    let mut ran = 0;
    for (name, generate) in figures::ALL {
        if !requested.is_empty() && !requested.iter().any(|r| r == name) {
            continue;
        }
        banner(name);
        let start = Instant::now();
        let figure = generate(&cfg);
        println!("{figure}");
        println!("  [generated in {:.1}s]\n", start.elapsed().as_secs_f64());
        if let Ok(dir) = std::env::var("ICECLAVE_CSV_DIR") {
            let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
            if let Err(e) = std::fs::write(&path, figure.table.to_csv()) {
                eprintln!("could not write {}: {e}", path.display());
            }
        }
        push_gated(&mut report, name, &figure);
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
    let Some(path) = json else { return };
    for (i, metric) in report.metrics.iter().enumerate() {
        assert!(
            report.metrics[..i].iter().all(|m| m.name != metric.name),
            "two summaries share the metric name {:?}",
            metric.name
        );
    }
    println!(
        "{ran} artifacts, {} gated metrics in {:.1}s",
        report.metrics.len(),
        all_start.elapsed().as_secs_f64()
    );
    if let Err(e) = std::fs::write(&path, report.to_json()) {
        eprintln!("could not write paper-fidelity report {path}: {e}");
        std::process::exit(1);
    }
    println!("paper-fidelity report written to {path}");
}

/// Adds `figure`'s gated metrics to the paper-fidelity report: one per
/// summary value and one digest of its table.
fn push_gated(report: &mut BenchReport, name: &str, figure: &FigureReport) {
    for (label, value) in &figure.summary {
        assert!(value.is_finite(), "{name}: summary {label:?} is {value}");
        report.push_metric(
            format!("{name}.{}", slug(label)),
            "value",
            *value,
            Direction::Either,
            SUMMARY_TOL,
            true,
        );
    }
    let mut digest = FxHasher::default();
    digest.write(figure.table.to_csv().as_bytes());
    report.push_metric(
        format!("{name}.table_digest"),
        "fxhash52",
        (digest.finish() & DIGEST_MASK) as f64,
        Direction::Either,
        0.0,
        true,
    );
}

/// The metric-name slug of a summary label: the text before
/// ` (paper`, lower-cased, with each run of other characters turned
/// into one `_`.
fn slug(label: &str) -> String {
    let head = label.split(" (paper").next().unwrap_or(label);
    let mut out = String::with_capacity(head.len());
    for c in head.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.is_empty() && !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_end_matches('_').to_string()
}
