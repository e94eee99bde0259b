//! # Sentinel — umbrella crate
//!
//! A faithful, from-scratch Rust reproduction of *Sentinel: Efficient Tensor
//! Migration and Allocation on Heterogeneous Memory Systems for Deep
//! Learning* (HPCA 2021).
//!
//! This crate re-exports the whole workspace so downstream users can depend on
//! a single crate:
//!
//! * [`mem`] — the heterogeneous-memory substrate: simulated clock, memory
//!   tiers, page tables with poison-bit profiling, a dual-channel migration
//!   engine, NUMA first-touch and Memory-Mode page caching.
//! * [`dnn`] — the deep-learning runtime substrate: tensors, operations with
//!   an analytic cost model, dataflow graphs, allocators and the
//!   training-step executor.
//! * [`models`] — a model zoo (ResNet, BERT, LSTM, MobileNet, DCGAN) that
//!   builds realistic training graphs at parameterized depth and batch size.
//! * [`profiler`] — tensor-level dynamic profiling (Section III of the
//!   paper) plus the characterization analyses behind Observations 1–3.
//! * [`core`] — the Sentinel runtime itself: data reorganization,
//!   short-lived tensor reservation, the migration-interval solver and the
//!   adaptive layer-based migration algorithm, including the GPU variant.
//! * [`baselines`] — the eight comparison systems from the paper's
//!   evaluation (IAL, AutoTM, vDNN, SwapAdvisor, Capuchin, UM, first-touch
//!   NUMA and Memory Mode).
//! * [`bench`](mod@bench) — the experiment registry regenerating every table and
//!   figure of the paper, runnable serially or on a worker pool.
//! * [`serve`] — the `sentineld` daemon: a framed JSON-over-TCP wire
//!   protocol serving placement-plan queries and live-streamed simulation
//!   runs (binaries `sentineld` and `sentinel_query`).
//! * [`util`] — zero-dependency runtime utilities (seeded RNG, JSON,
//!   property-test harness, scoped thread pool).
//!
//! ## Quickstart
//!
//! ```
//! use sentinel::core::{fast_sized_for, SentinelConfig, SentinelRuntime};
//! use sentinel::mem::HmConfig;
//! use sentinel::models::{ModelSpec, ModelZoo};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build a small ResNet training graph.
//! let graph = ModelZoo::build(&ModelSpec::resnet(20, 8).with_scale(4))?;
//!
//! // A heterogeneous memory with fast memory sized at 20% of peak demand.
//! let hm = fast_sized_for(HmConfig::optane_like(), &graph, 0.2);
//!
//! // Run Sentinel: profile one step, reorganize, then train with migration.
//! let runtime = SentinelRuntime::new(SentinelConfig::default(), hm);
//! let outcome = runtime.train(&graph, 8)?;
//! assert_eq!(outcome.steps_executed, 8);
//! # Ok(())
//! # }
//! ```

pub use sentinel_baselines as baselines;
pub use sentinel_bench as bench;
pub use sentinel_core as core;
pub use sentinel_dnn as dnn;
pub use sentinel_mem as mem;
pub use sentinel_models as models;
pub use sentinel_profiler as profiler;
pub use sentinel_serve as serve;
pub use sentinel_util as util;
