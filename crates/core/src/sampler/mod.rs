//! The three sampler drivers and their shared engine.
//!
//! All drivers execute the *staged* algorithm: within one iteration, every
//! `phi` update reads the state as of the iteration's start, updates are
//! applied together at the stage boundary, and the `theta` update then
//! reads the fresh `pi` (the barrier structure of paper §III-C). The
//! sequential driver is the reference; the parallel and distributed
//! drivers must reproduce its chain.

pub mod distributed;
pub mod parallel;
pub mod sequential;
pub mod threaded;

mod driver;
mod engine;
pub(crate) mod worker;

pub(crate) use engine::Engine;
