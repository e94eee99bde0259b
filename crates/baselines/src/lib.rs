//! # sentinel-baselines — the paper's comparison systems
//!
//! Faithful mechanism-level implementations of every system Sentinel is
//! evaluated against, each as a [`sentinel_dnn::MemoryManager`] over the
//! same simulated heterogeneous memory — so every comparison isolates the
//! *policy*:
//!
//! | Baseline | Mechanism |
//! |---|---|
//! | [`FirstTouchNuma`] | fast until full, then slow; no migration |
//! | [`MemoryMode`] | DRAM as a hardware 8-way set-associative page cache on virtual pages over PMM |
//! | [`Ial`] | FIFO active list; promote on second touch, synchronous copies |
//! | [`AutoTm`] | static-profile greedy-ILP placement; inbound moves exposed |
//! | [`UnifiedMemory`] | on-demand faulting with LRU eviction |
//! | [`Vdnn`] | offload/prefetch of convolution inputs only |
//! | [`SwapAdvisor`] | seeded genetic algorithm over swap plans |
//! | [`Capuchin`] | dynamic-profiled swap + recomputation |
//!
//! [`Baseline`] + [`run_baseline`] provide a uniform harness, and
//! [`PolicyTraits`] encodes the paper's qualitative Table I.

mod autotm;
mod capuchin;
mod common;
mod harness;
mod ial;
mod memory_mode;
mod numa;
mod swapadvisor;
mod um;
mod vdnn;

pub use autotm::AutoTm;
pub use capuchin::Capuchin;
pub use common::{conv_input_activations, has_conv, StaticProfile};
pub use harness::{run_baseline, Baseline, PolicyTraits};
pub use ial::Ial;
pub use memory_mode::MemoryMode;
pub use numa::FirstTouchNuma;
pub use swapadvisor::SwapAdvisor;
pub use um::UnifiedMemory;
pub use vdnn::Vdnn;
