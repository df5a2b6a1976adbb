//! Regenerates the derived energy comparison
//! (`iceclave_experiments::figures::energy_table`; `repro energy` prints
//! the same artifact).
//! Runs as a `harness = false` bench target so `cargo bench`
//! reproduces the artifact.

fn main() {
    iceclave_bench::banner("energy");
    println!(
        "{}",
        iceclave_experiments::figures::energy_table(&iceclave_bench::bench_config())
    );
}
