//! # simcore — deterministic simulation primitives
//!
//! This crate is the foundation of the `netsched` workspace. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — a totally ordered simulated clock with
//!   nanosecond resolution stored as `u64` ticks (no floating point drift in
//!   time comparisons).
//! * [`rng`] — a seedable, splittable pseudo-random number generator family
//!   (SplitMix64 for seeding, Xoshiro256** for streams) with the usual
//!   distributions (uniform, normal, exponential) so every experiment in the
//!   workspace is reproducible from a single `u64` seed.
//! * [`stats`] — an online mean/variance/min/max accumulator (Welford).
//! * [`parallel`] — a small scoped-thread fork/join helper used to run
//!   independent simulation replications and to train tree ensembles in
//!   parallel while keeping results deterministic (ordered reduction).

#![warn(missing_docs)]

pub mod parallel;
pub mod rng;
pub mod stats;
pub mod time;

pub use rng::{Rng, SplitMix64, Xoshiro256StarStar};
pub use stats::OnlineStats;
pub use time::{SimDuration, SimTime};
