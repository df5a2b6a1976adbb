//! Experiment pipelines reproducing every table and figure of the
//! IceClave evaluation (§6).
//!
//! The executor ([`run()`](run::run)) replays a workload's instrumented batches
//! against one of the execution modes of §6.1. Every mode runs the same
//! loop on the same device pipeline; the mode picks the configuration
//! ([`Mode::ssd_config`]):
//!
//! * [`Mode::Host`] — data streams over one shared PCIe link into host
//!   DRAM and the host CPU computes; commits go back over the link.
//! * [`Mode::HostSgx`] — the same, computed inside an SGX-style enclave
//!   (split-counter MEE on every host DRAM access, enclave transition
//!   and EPC paging costs).
//! * [`Mode::Isc`] — in-storage computing without a TEE (the insecure
//!   baseline).
//! * [`Mode::IceClave`] — the full system: protected mapping table,
//!   ID-bit checks, stream cipher, hybrid-counter MEE.
//! * Ablations: [`Mode::IceClaveMapSecure`] (Figure 5) and
//!   [`Mode::IceClaveSc64`] (Figure 8).
//!
//! [`figures`] exposes one function per table/figure returning
//! structured rows; the `repro` binary of the `iceclave_bench` crate
//! prints them in the paper's format, each with its headline numbers.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod capacity;
pub mod energy;
pub mod fairness;
pub mod figures;
pub mod modes;
pub mod multitenant;
pub mod report;
pub mod run;

pub use capacity::CapacityModel;
pub use energy::{Activity, EnergyBreakdown, EnergyModel};
pub use fairness::{jain, p99, run_duel, DuelOutcome};
pub use modes::{Mode, Overrides};
pub use run::{run, RunResult};
