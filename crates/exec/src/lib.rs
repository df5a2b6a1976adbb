//! Event-driven batch executor with a completion-queue API.
//!
//! The simulator expresses every contended hardware unit — per-channel
//! flash buses and dies, per-lane cipher engines, the DRAM behind the
//! MEE, the secure monitor — as a *resource timeline*
//! ([`iceclave_sim::Resource`]). Acquired straight from a batch call,
//! those timelines fill in **call order**: one TEE's whole batch books
//! every stage before the next call sees the device, so two TEEs'
//! batches serialize at call granularity even though the stages
//! themselves overlap.
//!
//! This crate supplies the missing arbiter. An [`Executor`] holds a
//! deterministic event heap of *stage events*; each event acquires
//! exactly one stage's resource for one page (or one batch-level phase)
//! at the simulated time it actually becomes ready, then schedules its
//! successor. Acquisition order thus becomes **time order**: while
//! TEE A's pages occupy channels 0–3, TEE B's pages stream through
//! channels 4–15 and the decrypt lanes concurrently, exactly as a real
//! device's command queues interleave in-flight requests.
//!
//! The crate is deliberately mechanism-only — it knows nothing about
//! the FTL, MEE, or TEEs. `iceclave_core` implements the
//! [`StageMachine`] trait over its components and exposes the
//! user-facing API (`IceClave::submit_batch_async`,
//! `submit_write_batch_async`, `poll_completions`, and `wait_batch`,
//! which runs one ticket to its close).
//!
//! # Determinism
//!
//! * Stage events fire in ascending simulated time; events due at the
//!   same tick fire in *(virtual time, ticket id, page index)* order
//!   ([`iceclave_sim::KeyedEventQueue`]). The virtual-time component
//!   carries the channel arbiter's fair-queueing start tags
//!   ([`Executor::schedule_weighted`]); plain [`Executor::schedule`]
//!   uses virtual time 0, which leaves the *(ticket id, page index)*
//!   tie order.
//! * Completions drain from the [`CompletionQueue`] in the order its
//!   module documentation specifies (the single source of truth for
//!   the drain-order contract, quoted by the regression tests).
//! * Two identical submission sequences therefore produce identical
//!   event traces and identical completion sequences.
//!
//! # In-flight ordering contract
//!
//! Like a real device queue, tickets in flight together have **no
//! ordering guarantees between each other**: access control and
//! address translation snapshot at submission, and programs of
//! different tickets land in stage-completion order. Submitters that
//! need read-your-write (or write-after-write) ordering against an
//! earlier ticket drain that ticket first — a caller that waits on each
//! ticket before submitting the next is sequentially consistent.
//!
//! # Examples
//!
//! See the [`Executor`] and [`CompletionQueue`] docs for mechanism
//! examples, and `iceclave_core` for the full pipeline.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::unwrap_used)]

pub mod completion;
pub mod executor;
pub mod power;

pub use completion::{CompletionQueue, RetireObserver, DRAIN_ORDER_CONTRACT};
pub use executor::{Executor, StageEvent, StageMachine};
pub use power::{PowerLossInjector, PowerLossPlan};
