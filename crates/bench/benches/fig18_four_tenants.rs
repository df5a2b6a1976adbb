//! Regenerates the paper's fig18 (`iceclave_experiments::figures::fig18`;
//! `repro fig18` prints the same artifact).
//! Runs as a `harness = false` bench target so `cargo bench`
//! reproduces the artifact.

fn main() {
    iceclave_bench::banner("fig18");
    println!(
        "{}",
        iceclave_experiments::figures::fig18(&iceclave_bench::bench_config())
    );
}
