//! Discrete-event simulation kernel for the IceClave reproduction.
//!
//! The full-system simulator in the paper is gem5 + SimpleSSD + USIMM.
//! This crate provides the two timing primitives that our Rust
//! re-implementation of that stack is built on:
//!
//! * [`Resource`] / [`ResourcePool`] — *resource timelines*. Every
//!   contended hardware unit (flash die, channel bus, DRAM bank, SSD core,
//!   cipher engine) is modelled as a server with a `next_free` time;
//!   serving a request at `arrival` returns the span
//!   `max(arrival, next_free) .. + service`. Composing timelines across
//!   components yields queueing delay and cross-tenant interference
//!   without a full event-driven core model.
//! * [`KeyedEventQueue`] — a deterministic time-ordered queue with a
//!   caller-supplied same-tick order, backing the `iceclave_exec`
//!   batch executor.
//!
//! [`stats`] adds the latency histogram behind the reports' tail
//! percentiles, and [`rng`] provides deterministically seeded random
//! number generation so every experiment is reproducible bit-for-bit.
//!
//! # Examples
//!
//! ```
//! use iceclave_sim::Resource;
//! use iceclave_types::{SimDuration, SimTime};
//!
//! let mut bus = Resource::new("channel-bus");
//! let a = bus.acquire(SimTime::ZERO, SimDuration::from_micros(7));
//! let b = bus.acquire(SimTime::ZERO, SimDuration::from_micros(7));
//! assert_eq!(a.end, SimTime::ZERO + SimDuration::from_micros(7));
//! // The second request queues behind the first.
//! assert_eq!(b.start, a.end);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod resource;
pub mod rng;
pub mod stats;

pub use event::KeyedEventQueue;
pub use resource::{Resource, ResourcePool, ServiceSpan};
pub use rng::SimRng;
pub use stats::Histogram;
