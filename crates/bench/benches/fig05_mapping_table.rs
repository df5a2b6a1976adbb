//! Regenerates the paper's fig5 (`iceclave_experiments::figures::fig5`;
//! `repro fig5` prints the same artifact).
//! Runs as a `harness = false` bench target so `cargo bench`
//! reproduces the artifact.

fn main() {
    iceclave_bench::banner("fig5");
    println!(
        "{}",
        iceclave_experiments::figures::fig5(&iceclave_bench::bench_config())
    );
}
