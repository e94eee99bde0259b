//! Uniform harness over every baseline (and the single-tier references).

use crate::autotm::AutoTm;
use crate::capuchin::Capuchin;
use crate::ial::Ial;
use crate::memory_mode::MemoryMode;
use crate::numa::FirstTouchNuma;
use crate::swapadvisor::SwapAdvisor;
use crate::um::UnifiedMemory;
use crate::vdnn::Vdnn;
use sentinel_dnn::{ExecError, Executor, Graph, MemoryManager, SingleTier, TrainReport};
use sentinel_mem::{HmConfig, MemorySystem};

/// Every comparison system of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// Everything in slow memory (normalization baseline of Figure 7).
    SlowOnly,
    /// Everything in fast memory (the red line of Figure 7).
    FastOnly,
    /// First-touch NUMA allocation.
    FirstTouch,
    /// Optane Memory Mode (DRAM as hardware cache).
    MemoryModeCache,
    /// Improved active list (\[19\]).
    Ial,
    /// AutoTM (\[7\]).
    AutoTm,
    /// CUDA Unified Memory (\[37\]).
    UnifiedMemory,
    /// vDNN (\[6\]) — convolution models only.
    Vdnn,
    /// SwapAdvisor (\[8\]).
    SwapAdvisor,
    /// Capuchin (\[9\]).
    Capuchin,
}

impl Baseline {
    /// All baselines, in the order the paper introduces them.
    #[must_use]
    pub fn all() -> Vec<Baseline> {
        vec![
            Baseline::SlowOnly,
            Baseline::FastOnly,
            Baseline::FirstTouch,
            Baseline::MemoryModeCache,
            Baseline::Ial,
            Baseline::AutoTm,
            Baseline::UnifiedMemory,
            Baseline::Vdnn,
            Baseline::SwapAdvisor,
            Baseline::Capuchin,
        ]
    }

    /// Short name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Baseline::SlowOnly => "slow-only",
            Baseline::FastOnly => "fast-only",
            Baseline::FirstTouch => "first-touch",
            Baseline::MemoryModeCache => "memory-mode",
            Baseline::Ial => "ial",
            Baseline::AutoTm => "autotm",
            Baseline::UnifiedMemory => "um",
            Baseline::Vdnn => "vdnn",
            Baseline::SwapAdvisor => "swapadvisor",
            Baseline::Capuchin => "capuchin",
        }
    }

    /// Instantiate the policy for a graph/platform, or `None` when the
    /// baseline cannot handle the model (vDNN without convolutions).
    #[must_use]
    pub fn make(&self, graph: &Graph, cfg: &HmConfig) -> Option<Box<dyn MemoryManager>> {
        Some(match self {
            Baseline::SlowOnly => Box::new(SingleTier::slow()),
            Baseline::FastOnly => Box::new(SingleTier::fast()),
            Baseline::FirstTouch => Box::new(FirstTouchNuma::new()),
            Baseline::MemoryModeCache => Box::new(MemoryMode::new()),
            Baseline::Ial => Box::new(Ial::new()),
            Baseline::AutoTm => Box::new(AutoTm::new()),
            Baseline::UnifiedMemory => Box::new(UnifiedMemory::new()),
            Baseline::Vdnn => Box::new(Vdnn::for_graph(graph)?),
            Baseline::SwapAdvisor => Box::new(SwapAdvisor::plan_for(
                graph,
                cfg.fast.capacity_bytes,
                cfg.promote_bw_bytes_per_ns,
            )),
            Baseline::Capuchin => Box::new(Capuchin::new()),
        })
    }

    /// Qualitative feature flags (the rows of the paper's Table I).
    #[must_use]
    pub fn traits(&self) -> PolicyTraits {
        match self {
            Baseline::Vdnn => PolicyTraits {
                dynamic_profiling: false,
                minimizes_fast_memory: false,
                graph_agnostic: false,
                counts_memory_accesses: false,
                avoids_false_sharing: false,
            },
            Baseline::AutoTm => PolicyTraits {
                dynamic_profiling: false,
                minimizes_fast_memory: true,
                graph_agnostic: true,
                counts_memory_accesses: false,
                avoids_false_sharing: false,
            },
            Baseline::SwapAdvisor => PolicyTraits {
                dynamic_profiling: true,
                minimizes_fast_memory: false,
                graph_agnostic: true,
                counts_memory_accesses: false,
                avoids_false_sharing: false,
            },
            Baseline::Capuchin => PolicyTraits {
                dynamic_profiling: true,
                minimizes_fast_memory: true,
                graph_agnostic: true,
                counts_memory_accesses: false,
                avoids_false_sharing: false,
            },
            _ => PolicyTraits {
                dynamic_profiling: false,
                minimizes_fast_memory: false,
                graph_agnostic: true,
                counts_memory_accesses: false,
                avoids_false_sharing: false,
            },
        }
    }
}

/// The Table-I qualitative comparison axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyTraits {
    /// Profiles the running workload rather than a static model.
    pub dynamic_profiling: bool,
    /// Actively minimizes fast-memory consumption across all tensors.
    pub minimizes_fast_memory: bool,
    /// Needs no DNN domain knowledge.
    pub graph_agnostic: bool,
    /// Counts memory accesses (vs just operand references).
    pub counts_memory_accesses: bool,
    /// Avoids page-level false sharing.
    pub avoids_false_sharing: bool,
}

impl PolicyTraits {
    /// Sentinel's row of Table I: everything.
    #[must_use]
    pub fn sentinel() -> Self {
        PolicyTraits {
            dynamic_profiling: true,
            minimizes_fast_memory: true,
            graph_agnostic: true,
            counts_memory_accesses: true,
            avoids_false_sharing: true,
        }
    }
}

/// Run a baseline on `graph` for `steps`; `Ok(None)` when not applicable.
///
/// # Errors
///
/// Propagates [`ExecError`] from execution.
pub fn run_baseline(
    baseline: Baseline,
    graph: &Graph,
    cfg: &HmConfig,
    steps: usize,
) -> Result<Option<TrainReport>, ExecError> {
    let Some(mut policy) = baseline.make(graph, cfg) else {
        return Ok(None);
    };
    let mem = MemorySystem::new(cfg.clone());
    let mut exec = Executor::new(graph, mem);
    let report = exec.run(policy.as_mut(), steps)?;
    Ok(Some(report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_models::{ModelSpec, ModelZoo};

    #[test]
    fn every_baseline_runs_on_a_cnn() {
        let g = ModelZoo::build(&ModelSpec::resnet(20, 4).with_scale(4)).unwrap();
        let cfg = HmConfig::optane_like()
            .without_cache()
            .with_fast_capacity(g.peak_live_bytes() / 4);
        for b in Baseline::all() {
            let r = run_baseline(b, &g, &cfg, 3).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            let r = r.unwrap_or_else(|| panic!("{} not applicable to a CNN", b.name()));
            assert_eq!(r.steps_executed(), 3, "{}", b.name());
            assert!(r.steady_step_ns() > 0, "{}", b.name());
        }
    }

    #[test]
    fn vdnn_is_skipped_for_lstm() {
        let g = ModelZoo::build(&ModelSpec::lstm(2).with_scale(8)).unwrap();
        let cfg = HmConfig::optane_like().without_cache();
        assert!(run_baseline(Baseline::Vdnn, &g, &cfg, 2).unwrap().is_none());
    }

    #[test]
    fn sentinel_traits_dominate_table1() {
        let s = PolicyTraits::sentinel();
        assert!(s.dynamic_profiling && s.counts_memory_accesses && s.avoids_false_sharing);
        for b in Baseline::all() {
            let t = b.traits();
            assert!(!t.counts_memory_accesses, "{} should not count accesses", b.name());
            assert!(!t.avoids_false_sharing, "{}", b.name());
        }
    }

    #[test]
    fn ordering_on_constrained_memory_matches_paper_shape() {
        // Fast-only < Sentinel-class policies < IAL-class < slow-only in
        // step time. Here we check the baseline-only portion: fast-only is
        // fastest, slow-only is slowest.
        let g = ModelZoo::build(&ModelSpec::resnet(32, 8).with_scale(4)).unwrap();
        let cfg = HmConfig::optane_like()
            .without_cache()
            .with_fast_capacity(g.peak_live_bytes() / 5);
        let fast_cfg = HmConfig::optane_like().without_cache();
        let fast = run_baseline(Baseline::FastOnly, &g, &fast_cfg, 3).unwrap().unwrap();
        let slow = run_baseline(Baseline::SlowOnly, &g, &cfg, 3).unwrap().unwrap();
        let ial = run_baseline(Baseline::Ial, &g, &cfg, 3).unwrap().unwrap();
        let autotm = run_baseline(Baseline::AutoTm, &g, &cfg, 3).unwrap().unwrap();
        assert!(fast.steady_step_ns() < autotm.steady_step_ns());
        assert!(autotm.steady_step_ns() < slow.steady_step_ns());
        assert!(ial.steady_step_ns() < slow.steady_step_ns());
    }
}

impl sentinel_util::ToJson for Baseline {
    fn to_json(&self) -> sentinel_util::Json {
        sentinel_util::Json::Str(self.name().to_owned())
    }
}

sentinel_util::impl_to_json!(PolicyTraits {
    dynamic_profiling,
    minimizes_fast_memory,
    graph_agnostic,
    counts_memory_accesses,
    avoids_false_sharing,
});
