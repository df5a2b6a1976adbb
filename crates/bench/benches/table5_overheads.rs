//! Regenerates the paper's table5 (`iceclave_experiments::figures::table5`;
//! `repro table5` prints the same artifact).
//! Runs as a `harness = false` bench target so `cargo bench`
//! reproduces the artifact.

fn main() {
    iceclave_bench::banner("table5");
    println!(
        "{}",
        iceclave_experiments::figures::table5(&iceclave_bench::bench_config())
    );
}
