//! Regenerates the paper's fig15 (`iceclave_experiments::figures::fig15`;
//! `repro fig15` prints the same artifact).
//! Runs as a `harness = false` bench target so `cargo bench`
//! reproduces the artifact.

fn main() {
    iceclave_bench::banner("fig15");
    println!(
        "{}",
        iceclave_experiments::figures::fig15(&iceclave_bench::bench_config())
    );
}
