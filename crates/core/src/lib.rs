//! # sentinel-core — the Sentinel runtime
//!
//! The paper's primary contribution, implemented as a
//! [`sentinel_dnn::MemoryManager`] policy plus supporting machinery:
//!
//! * [`SentinelPolicy`] — the full runtime: a profiling phase (page-aligned
//!   allocation + poison-fault counting, Section III) run through the
//!   profiler's own recorder ([`sentinel_profiler::ProfilingPolicy`]), so
//!   the plan comes from the same profile a standalone
//!   [`sentinel_profiler::Profiler`] reports; data reorganization
//!   into lifetime/hotness pools ([`ReorgPlan`], Section IV-B), a reserved
//!   fast-memory region for short-lived tensors (Section IV-C), and
//!   adaptive layer-based migration with prefetch/evict per interval and
//!   Case 1/2/3 handling including the test-and-trial algorithm
//!   (Section IV-D).
//! * [`solve_mil`] / [`IntervalPlan`] — the migration-interval solver
//!   implementing Equations 1 and 2, as a near-linear per-candidate tensor
//!   sweep (the original range-query solver survives as
//!   [`solve_mil_reference`], pinned byte-identical by the
//!   planner-equivalence suite).
//! * [`Schedule`] — the static per-layer access index the migration engine
//!   plans against, stored as flattened CSR arrays (defined in
//!   `sentinel-dnn`, next to the graph it indexes, and re-exported here),
//!   and the plan-time per-interval working-set table ([`IntervalSets`]).
//! * [`SentinelConfig`] — feature switches, including the Figure 13
//!   ablations ([`Ablation`]) and the GPU variant (Section V).
//! * [`SentinelRuntime`] — one-call orchestration: profile, reorganize,
//!   train, report.
//! * [`SentinelConfig::with_adaptive`] — the optional drift-adaptive
//!   control loop: online drift detection ([`DriftDetector`]) over the
//!   fault/stall counters, incremental re-profiling of divergent layers,
//!   and plan re-solve with graceful degradation (off by default;
//!   byte-transparent when off).
//!
//! See [`SentinelRuntime`] for a runnable example.

mod adapt;
mod cluster;
mod config;
mod dynamic;
mod error;
mod interval;
mod policy;
mod reorg;
mod runtime;
mod schedule;

pub use adapt::{AdaptReport, AdaptWarning, DriftDetector, DriftVerdict};
pub use cluster::{
    percentile_ns, weighted_max_min, ClusterEvent, ClusterEventKind, ClusterOutcome,
    ClusterScheduler, JobSpec, TenantReport,
};
pub use config::{Ablation, Case3Policy, SentinelConfig};
pub use dynamic::{DataflowTracker, DynamicOutcome, DynamicRuntime, MAX_BUCKETS};
pub use error::SentinelError;
pub use interval::{solve_mil, solve_mil_reference, IntervalPlan, MilCandidate, MilSolution};
pub use policy::{EvictedTensor, SentinelPolicy, SentinelStats};
pub use reorg::{HotClass, ReorgPlan};
pub use runtime::{fast_sized_for, RunEvent, SentinelOutcome, SentinelRuntime};
pub use schedule::IntervalSets;
pub use sentinel_dnn::Schedule;
