//! # sentinel-bench — the paper's evaluation, regenerated
//!
//! One function per table and figure of the paper's evaluation section
//! (Sections III and VII). Each returns an [`ExpResult`] holding both a
//! rendered markdown section and machine-readable JSON, and the
//! `run_experiments` binary assembles them into `EXPERIMENTS.md` +
//! `results/*.json`:
//!
//! ```text
//! cargo run -p sentinel-bench --release --bin run_experiments            # full
//! cargo run -p sentinel-bench --release --bin run_experiments -- --fast # quick
//! ```
//!
//! Absolute numbers come from the simulated platforms of
//! [`sentinel_mem::HmConfig`]; what is expected to match the paper is the
//! *shape* of each result — who wins, by roughly what factor, and where the
//! crossovers fall. See `EXPERIMENTS.md` for the paper-vs-measured record.

pub mod experiments {
    //! Table and figure generators.
    pub mod ablations;
    pub mod adaptive;
    pub mod chaos;
    pub mod characterization;
    pub mod cluster;
    pub mod figures_cpu;
    pub mod figures_gpu;
    pub mod tables;
}
pub mod harness;

pub use harness::{ExpConfig, ExpResult};

/// An experiment's generator: runs it under a config and returns its result.
type Generator = fn(&ExpConfig) -> ExpResult;

/// Every experiment in presentation order, as `(id, generator)` pairs so
/// callers can filter before paying for a run.
///
/// The `chaos` experiment joins the registry only when `SENTINEL_FAULT_SEED`
/// is set, so pristine regenerations of `results/` and
/// `EXPERIMENTS_GENERATED.md` are byte-identical with or without the
/// fault-injection subsystem compiled in.
#[must_use]
pub fn experiment_registry() -> Vec<(&'static str, Generator)> {
    use experiments::*;
    let mut registry: Vec<(&'static str, Generator)> = vec![
        ("table1", tables::table1),
        ("table2", tables::table2),
        ("fig1", characterization::fig1_anatomy),
        ("obs", characterization::observations),
        ("fig5", figures_cpu::fig5),
        ("fig7", figures_cpu::fig7),
        ("fig8", figures_cpu::fig8),
        ("fig9", figures_cpu::fig9),
        ("fig10", figures_cpu::fig10),
        ("fig11", figures_cpu::fig11),
        ("table3", tables::table3),
        ("table4", tables::table4),
        ("table5", tables::table5),
        ("fig12", figures_gpu::fig12),
        ("fig13", figures_gpu::fig13),
        ("ablations", ablations::ablations),
        ("cluster", cluster::cluster),
        ("adaptive", adaptive::adaptive),
    ];
    if std::env::var("SENTINEL_FAULT_SEED").is_ok() {
        registry.push(("chaos", chaos::chaos));
    }
    registry
}
