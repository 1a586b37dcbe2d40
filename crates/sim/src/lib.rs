//! # bcp-sim — deterministic discrete-event simulation engine
//!
//! The foundation of the BCP reproduction: a virtual clock with nanosecond
//! resolution, a totally-ordered event queue, a platform-stable PRNG, and the
//! statistics collectors the experiment harness needs (Welford mean/variance,
//! Student-t 95% confidence intervals, figure series).
//!
//! Determinism is the design constraint that shapes everything here:
//!
//! * events pop in `(time, causal depth, content key)` order
//!   ([`keyed::ShardQueue`]), a total order every shard count replays
//!   identically; a model on one queue may give every event the same
//!   key, and its ties then fall to insertion order,
//! * randomness comes from an in-crate xoshiro256★★ ([`rng::Rng`]) whose
//!   stream is bit-stable across platforms and releases,
//! * time is integer nanoseconds ([`time::SimTime`]), so no float drift,
//! * maps keyed by ids the simulator makes hash with a fixed hasher
//!   ([`hash::FastMap`]), so their layout repeats from run to run.
//!
//! For multi-core single-run scaling, [`conservative`] executes a
//! partitioned model under conservative-lookahead windows with results
//! bit-identical to the sequential key order for any shard or thread
//! count; [`threads::worker_count`] sizes every worker pool in the
//! process (override with `BCP_THREADS`).
//!
//! # Examples
//!
//! A tiny Poisson arrival loop on one queue:
//!
//! ```
//! use bcp_sim::prelude::*;
//!
//! struct Arrival;
//! impl Keyed for Arrival {
//!     fn ord(&self) -> u128 {
//!         0
//!     }
//! }
//!
//! let mut queue = ShardQueue::new();
//! let mut rng = Rng::new(42);
//! queue.schedule(SimTime::ZERO, Arrival);
//! let mut arrivals = 0u32;
//! while let Some((key, Arrival)) = queue.pop_due(SimTime::from_secs(60)) {
//!     arrivals += 1;
//!     let gap = SimDuration::from_secs_f64(rng.exponential(1.0));
//!     queue.schedule(key.time + gap, Arrival);
//! }
//! assert!(arrivals > 30 && arrivals < 120);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod conservative;
pub mod hash;
pub mod json;
pub mod keyed;
pub mod persist;
pub mod rng;
pub mod stats;
pub mod threads;
pub mod time;
pub mod trace;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::keyed::{Keyed, ShardQueue};
    pub use crate::rng::Rng;
    pub use crate::stats::{mean_ci95, Series, Welford};
    pub use crate::time::{SimDuration, SimTime};
}

pub use rng::Rng;
pub use time::{SimDuration, SimTime};
