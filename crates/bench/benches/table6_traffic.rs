//! Regenerates the paper's table6 (`iceclave_experiments::figures::table6`;
//! `repro table6` prints the same artifact).
//! Runs as a `harness = false` bench target so `cargo bench`
//! reproduces the artifact.

fn main() {
    iceclave_bench::banner("table6");
    println!(
        "{}",
        iceclave_experiments::figures::table6(&iceclave_bench::bench_config())
    );
}
