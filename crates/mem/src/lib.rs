//! # sentinel-mem — heterogeneous-memory substrate
//!
//! This crate is the "hardware + OS" layer of the Sentinel reproduction. The
//! paper runs on two real heterogeneous-memory (HM) platforms — DDR4 + Intel
//! Optane DC PMM on CPU, and V100 HBM + host DRAM on GPU — and patches the
//! Linux kernel to profile page accesses by poisoning PTE bit 51. None of
//! that hardware is available here, so this crate provides a deterministic,
//! discrete-time simulation of the same mechanisms:
//!
//! * [`HmConfig`] / [`TierSpec`] — platform descriptions (Table II of the
//!   paper ships as the [`HmConfig::optane_like`] and [`HmConfig::gpu_like`]
//!   presets).
//! * [`MemorySystem`] — a two-tier page-granular memory: virtual page
//!   reservation, map/unmap with per-tier capacity accounting, timed accesses
//!   with a cache filter in front (so profiled counts are *main-memory*
//!   accesses, exactly like the paper's OS-level profiling), and a
//!   dual-channel [`MigrationEngine`] that models `move_pages()` with
//!   bandwidth and overlap semantics.
//! * [`PageAccessMap`] — the software analogue of PTE poisoning's fault
//!   handler: every main-memory access to a poisoned page raises a
//!   simulated protection fault, which is counted on its page in this map,
//!   charged a fault overhead, and re-poisons the page.
//! * [`MemoryModeCache`] — Optane "Memory Mode", where DRAM acts as a
//!   set-associative hardware-managed cache in front of PMM (one of the
//!   paper's baselines).
//!
//! Time is simulated in nanoseconds ([`Ns`]); nothing in this crate touches
//! wall-clock time, so every run is reproducible.
//!
//! ## Example
//!
//! ```
//! use sentinel_mem::{AccessKind, HmConfig, MemorySystem, Tier};
//!
//! # fn main() -> Result<(), sentinel_mem::MemError> {
//! let mut mem = MemorySystem::new(HmConfig::testing());
//! let range = mem.reserve(4); // four virtual pages
//! mem.map(range, Tier::Fast, 0)?;
//!
//! // A timed read of 8 KiB spanning the range.
//! let report = mem.access(range, 8192, AccessKind::Read, 0);
//! assert!(report.elapsed_ns > 0);
//!
//! // Migrate it to slow memory; the ticket tells us when the copy lands.
//! let ticket = mem.migrate(range, Tier::Slow, report.elapsed_ns)?;
//! mem.poll(ticket.ready_at);
//! assert_eq!(mem.tier_of(range.first), Some(Tier::Slow));
//! # Ok(())
//! # }
//! ```

mod cache;
mod config;
mod error;
mod memmode;
mod migrate;
mod page;
mod profiler;
mod stats;
mod system;
mod table;
mod tier;

pub use cache::{CacheFilter, CacheFilterSpec, CacheOutcome, RangeProbe};
pub use config::{HmConfig, TierSpec};
pub use error::MemError;
pub use memmode::{MemoryModeCache, MemoryModeSpec, MemoryModeStats};
pub use migrate::{Direction, InFlight, MigrationEngine, MigrationTicket};
pub use page::{pages_for_bytes, PageRange, PAGE_SIZE_DEFAULT};
pub use profiler::PageAccessMap;
pub use stats::{BandwidthSample, MemStats, StatsTimeline};
pub use system::{AccessKind, AccessReport, MemorySystem, SanitizerMode};
// Re-exported so the fault hooks' types are nameable without a direct
// sentinel-util dependency.
pub use sentinel_util::fault::{FaultCounters, FaultInjector, FaultProfile};
// Likewise for the structured-trace hooks.
pub use sentinel_util::trace::{Trace, TraceEvent, TraceHandle, TraceLevel, TraceTrack};
pub use table::{PageState, PageTable, Pte, PteRun, PteRuns};
pub use tier::Tier;

/// Simulated time in nanoseconds.
pub type Ns = u64;

/// One second in [`Ns`].
pub const SECOND: Ns = 1_000_000_000;

/// One millisecond in [`Ns`].
pub const MILLISECOND: Ns = 1_000_000;

/// One microsecond in [`Ns`].
pub const MICROSECOND: Ns = 1_000;
