//! # sentinel-profiler — tensor-level dynamic profiling
//!
//! Implements the paper's Section III profiling framework over the simulated
//! substrate:
//!
//! * [`ProfilingPolicy`] is the profiling step as a policy: page-aligned
//!   per-tensor allocation in slow memory while the OS layer counts
//!   main-memory accesses through poison faults; when the profiled step
//!   ends it builds a [`ProfileReport`] with per-tensor access counts,
//!   sizes, lifetimes and per-layer timings. [`Profiler`] runs it on a
//!   fresh memory system.
//! * [`characterize`] turns a profile into the Observation 1–2 statistics
//!   (small/short-lived tensor fractions, hotness histogram).
//! * [`analyze_false_sharing`] reruns profiling under TensorFlow-style
//!   packed allocation and quantifies Observation 3: cold tensor bytes that
//!   page-level profiling hides inside hotter pages.
//!
//! Sentinel's runtime (the `sentinel-core` crate) profiles through the same
//! [`ProfilingPolicy`]: it forwards its hooks to the recorder until the
//! profiled step ends, then plans data reorganization and migration from
//! the recorder's [`ProfileReport`].

mod characterize;
mod falseshare;
mod profile;
mod run;

pub use characterize::{characterize, Characterization, HotBucket};
pub use falseshare::{analyze_false_sharing, FalseSharingReport};
pub use profile::{ProfileReport, TensorDelta, TensorProfile};
pub use run::{Profiler, ProfilingPolicy};
