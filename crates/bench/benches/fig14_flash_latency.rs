//! Regenerates the paper's fig14 (`iceclave_experiments::figures::fig14`;
//! `repro fig14` prints the same artifact).
//! Runs as a `harness = false` bench target so `cargo bench`
//! reproduces the artifact.

fn main() {
    iceclave_bench::banner("fig14");
    println!(
        "{}",
        iceclave_experiments::figures::fig14(&iceclave_bench::bench_config())
    );
}
