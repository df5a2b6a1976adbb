//! Regenerates the paper's fig8 (`iceclave_experiments::figures::fig8`;
//! `repro fig8` prints the same artifact).
//! Runs as a `harness = false` bench target so `cargo bench`
//! reproduces the artifact.

fn main() {
    iceclave_bench::banner("fig8");
    println!(
        "{}",
        iceclave_experiments::figures::fig8(&iceclave_bench::bench_config())
    );
}
