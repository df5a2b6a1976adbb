//! Regenerates the paper's fig17 (`iceclave_experiments::figures::fig17`;
//! `repro fig17` prints the same artifact).
//! Runs as a `harness = false` bench target so `cargo bench`
//! reproduces the artifact.

fn main() {
    iceclave_bench::banner("fig17");
    println!(
        "{}",
        iceclave_experiments::figures::fig17(&iceclave_bench::bench_config())
    );
}
