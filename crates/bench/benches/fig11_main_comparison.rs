//! Regenerates the paper's fig11 (`iceclave_experiments::figures::fig11`;
//! `repro fig11` prints the same artifact).
//! Runs as a `harness = false` bench target so `cargo bench`
//! reproduces the artifact.

fn main() {
    iceclave_bench::banner("fig11");
    println!(
        "{}",
        iceclave_experiments::figures::fig11(&iceclave_bench::bench_config())
    );
}
