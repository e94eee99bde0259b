//! # sentinel-dnn — DNN dataflow substrate
//!
//! The paper integrates Sentinel into TensorFlow v1.14; this crate is the
//! stand-in training framework. It provides:
//!
//! * [`Graph`] / [`GraphBuilder`] — a dataflow graph of [`Op`]s over
//!   [`Tensor`]s, organized into [`Layer`]s (the paper's `add_layer()`
//!   annotation unit). Tensor live ranges are derived statically from op
//!   references, which gives every policy access to alloc/free events
//!   exactly as TensorFlow's allocator hooks would.
//! * [`SegmentAllocator`] — a pooled, first-fit virtual-memory allocator.
//!   Packed pools reproduce TensorFlow-style sub-page sharing (and hence
//!   page-level false sharing); page-aligned pools implement the paper's
//!   profiling-phase allocation where page counts become tensor counts;
//!   pool keys let Sentinel co-allocate tensors with similar lifetime and
//!   hotness while guaranteeing isolation between groups.
//! * [`Schedule`] — the static reference index over one step: each tensor's
//!   reference layers and each layer's long-lived tensors, in CSR arrays.
//!   Sentinel (`sentinel-core`) and the baselines plan against the same one.
//! * [`MemoryManager`] — the policy trait every memory-management system
//!   (Sentinel and all baselines) implements.
//! * [`Executor`] — the discrete-event training-step engine: it allocates
//!   tensors at first use, times every access against the
//!   [`sentinel_mem::MemorySystem`], charges analytic compute time, frees
//!   dead tensors and invokes policy hooks at step/layer/op/access
//!   boundaries.
//!
//! See the [`Executor`] docs for a runnable end-to-end example.

mod alloc;
mod ctx;
mod error;
mod executor;
mod graph;
mod manager;
mod op;
mod report;
mod schedule;
mod tensor;

pub use alloc::{Allocation, PoolSpec, SegmentAllocator, PACKED_ALIGN};
pub use ctx::ExecCtx;
pub use error::{ExecError, GraphError};
pub use executor::Executor;
pub use graph::{Graph, GraphBuilder, Layer, OpBuilder};
pub use manager::{MemoryManager, SingleTier};
pub use op::{Op, OpKind, Operand};
pub use report::{IntervalRecord, StepBreakdown, StepReport, TrainReport};
pub use schedule::Schedule;
pub use tensor::{OpRef, Tensor, TensorId, TensorKind};
