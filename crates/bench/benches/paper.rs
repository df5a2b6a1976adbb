//! The paper-fidelity gate: regenerates every artifact of
//! [`figures::ALL`] (the list `repro` prints) and emits
//! `BENCH_paper.json` (override the path with the `BENCH_PAPER_JSON`
//! environment variable), so a change that moves any reproduced number
//! fails `check_regression` instead of landing silently.
//!
//! Two kinds of gated metric per artifact:
//!
//! * `<artifact>.<slug>` for each headline summary value, where the
//!   slug is the summary label up to ` (paper`. Direction `either`
//!   with a 1e-9 relative band, which only absorbs last-ulp `ln`/`exp`
//!   differences between hosts.
//! * `<artifact>.table_digest`: the FxHash of the table's CSV, masked
//!   to 52 bits so it round-trips exactly through the JSON number.
//!   Direction `either`, tolerance 0: any changed cell fails.
//!
//! The run uses `repro`'s scale ([`iceclave_bench::bench_config`],
//! 8 MiB unless `ICECLAVE_SCALE_MIB` says otherwise) and records it in
//! the report config, so a run at another scale fails the fingerprint
//! check rather than comparing incomparable numbers.

use std::hash::Hasher;
use std::time::Instant;

use iceclave_experiments::figures;
use iceclave_obs::{BenchReport, Direction};
use iceclave_types::FxHasher;

/// Relative band of the summary metrics.
const SUMMARY_TOL: f64 = 1e-9;

/// The table digest keeps the low 52 bits: every such integer is an
/// exact `f64`, so the JSON value compares bit-for-bit.
const DIGEST_MASK: u64 = (1 << 52) - 1;

fn main() {
    let cfg = iceclave_bench::bench_config();
    let mut report =
        BenchReport::new("paper").config("scale_mib", cfg.functional_bytes.as_bytes() >> 20);
    let start = Instant::now();
    for (name, generate) in figures::ALL {
        iceclave_bench::banner(name);
        let figure = generate(&cfg);
        println!("{figure}");
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
    for (i, metric) in report.metrics.iter().enumerate() {
        assert!(
            report.metrics[..i].iter().all(|m| m.name != metric.name),
            "two summaries share the metric name {:?}",
            metric.name
        );
    }
    println!(
        "{} artifacts, {} gated metrics in {:.1}s",
        figures::ALL.len(),
        report.metrics.len(),
        start.elapsed().as_secs_f64()
    );
    match report.write_default("BENCH_PAPER_JSON", "BENCH_paper.json") {
        Ok(path) => println!("paper-fidelity report written to {path}"),
        Err(e) => eprintln!("could not write paper-fidelity report: {e}"),
    }
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
