//! Observability layer for the IceClave reproduction.
//!
//! Three pillars, one crate:
//!
//! 1. **Ticket op-log capture** ([`trace`]): a [`TraceCapture`] observer
//!    installed on the executor's completion queue — the single point
//!    every retirement already passes — encodes each retired ticket
//!    (tenant, kind, page set, per-stage latency breakdown, per-page
//!    status, and the fault activity charged to it) into a compact,
//!    versioned, append-only binary [`TraceLog`], which stores nothing
//!    but that byte stream. With capture off the executor pays one
//!    `Option` branch per retirement.
//! 2. **Replay driver** ([`replay()`]): feeds a captured log back through
//!    any [`ReplayTarget`] (implemented by `iceclave_core::IceClave`
//!    over `submit_batch_async`/`submit_write_batch_async`) in paced
//!    (original inter-arrival gaps) or as-fast-as-possible mode —
//!    turning any run into a reusable workload artifact.
//! 3. **Unified bench reports + gates** ([`report`]): every bench emits
//!    one [`BenchReport`] JSON schema (bench id, config fingerprint,
//!    metrics with units, directions and tolerance bands); the
//!    `check_regression` binary diffs candidate reports against the
//!    known-good baselines committed under `baselines/` and fails CI on
//!    deltas outside tolerance.
//!
//! The crate depends only on `iceclave_types` and `iceclave_exec`, so
//! capture sits below `iceclave_core` (which installs it) and the
//! replay driver stays generic over the device it drives.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::unwrap_used)]

pub mod json;
pub mod replay;
pub mod report;
pub mod trace;

pub use replay::{replay, ReplayError, ReplayMode, ReplayOutcome, ReplayTarget};
pub use report::{BenchReport, Direction, GateViolation, Metric, Percentiles};
pub use trace::{PageTrace, TraceCapture, TraceError, TraceLog, TraceRecord, TRACE_VERSION};
