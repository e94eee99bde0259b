//! Zero-dependency runtime utilities shared by every Sentinel crate.
//!
//! The build environment has no registry access, so the workspace is
//! hermetic by policy: anything that would normally come from an external
//! crate lives here instead. Six small subsystems:
//!
//! - [`rng`] — seeded SplitMix64 / xoshiro256** pseudo-random numbers
//!   (replaces `rand` for the deterministic GA search and test generators),
//! - [`json`] — a JSON value, writer and parser plus the derive-free
//!   [`ToJson`] trait (replaces `serde`/`serde_json` for experiment and
//!   report output),
//! - [`prop`] — a deterministic property-test harness with seeded case
//!   generation and input minimization on failure (replaces `proptest`),
//! - [`pool`] — a scoped thread pool with ordered result collection and
//!   panic propagation (replaces `rayon`-style `par_map` for the parallel
//!   experiment runner; honors `SENTINEL_JOBS`),
//! - [`fault`] — a deterministic, seeded fault-injection engine (profiles,
//!   draw guards and monotone counters; honors `SENTINEL_FAULT_SEED` /
//!   `SENTINEL_FAULT_PROFILE`),
//! - [`trace`] — a buffered structured-trace recorder (spans, instants,
//!   counters) with a Chrome `trace_event` JSON exporter (replaces
//!   `tracing`-style telemetry; honors `SENTINEL_TRACE`).

pub mod fault;
pub mod json;
pub mod pool;
pub mod prop;
pub mod rng;
pub mod trace;

pub use fault::{
    derive_seed, fault_env, FaultCounters, FaultInjector, FaultParseError, FaultProfile,
    FAULT_PROFILE_KEYS,
};
pub use json::{Json, JsonError, JsonErrorKind, ToJson, MAX_DEPTH};
pub use trace::{trace_env, Trace, TraceEvent, TraceHandle, TraceLevel, TraceTrack};
pub use pool::{default_jobs, par_map, set_default_jobs, Pool};
pub use prop::{check, no_shrink, shrink_u64, shrink_usize, shrink_vec, PropConfig};
pub use rng::{Rng, SplitMix64};
