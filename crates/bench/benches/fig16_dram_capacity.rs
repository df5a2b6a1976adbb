//! Regenerates the paper's fig16 (`iceclave_experiments::figures::fig16`;
//! `repro fig16` prints the same artifact).
//! Runs as a `harness = false` bench target so `cargo bench`
//! reproduces the artifact.

fn main() {
    iceclave_bench::banner("fig16");
    println!(
        "{}",
        iceclave_experiments::figures::fig16(&iceclave_bench::bench_config())
    );
}
