//! Shared plumbing for the benchmark harness.
//!
//! The `repro` binary regenerates every table and figure of the paper
//! by calling into [`iceclave_experiments::figures`] (`repro
//! <artifact>` prints one); `repro --json <path>` also writes the gated
//! paper-fidelity report (`BENCH_paper.json`). The `benches/` targets
//! are plain programs that write the other gated `BENCH_*.json`
//! reports. This crate only holds the scale configuration they share.

#![warn(missing_docs)]

use iceclave_types::ByteSize;
use iceclave_workloads::WorkloadConfig;

/// The workload scale used by the benchmark harness.
///
/// Defaults to 8 MiB of functional data per workload (modeling the
/// paper's 32 GiB — the `iceclave_workloads` crate docs explain the two
/// scales). Override with the `ICECLAVE_SCALE_MIB` environment
/// variable; 32 MiB gives tighter numbers at ~4x the runtime.
pub fn bench_config() -> WorkloadConfig {
    let mib = std::env::var("ICECLAVE_SCALE_MIB")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(8)
        .clamp(1, 512);
    WorkloadConfig {
        functional_bytes: ByteSize::from_mib(mib),
        ..WorkloadConfig::bench()
    }
}

/// Prints the standard banner for one regenerated artifact.
pub fn banner(name: &str) {
    let cfg = bench_config();
    println!(
        "### {name} — functional scale {}, modeling {} ###\n",
        cfg.functional_bytes, cfg.modeled_bytes
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_8mib() {
        // (Assumes the env var is unset in the test environment.)
        if std::env::var("ICECLAVE_SCALE_MIB").is_err() {
            assert_eq!(bench_config().functional_bytes, ByteSize::from_mib(8));
        }
    }
}
