//! Optane Memory Mode: DRAM as a hardware-managed cache over PMM.
//!
//! All application pages live in PMM; the fast tier is invisible to software
//! and serves as an 8-way set-associative page cache on virtual pages (see
//! [`sentinel_mem::MemoryModeCache`]). No runtime placement decisions exist
//! — which is the point of the baseline.

use sentinel_dnn::{ExecCtx, MemoryManager, Tensor};
use sentinel_mem::{MemoryModeSpec, Tier};

/// The Memory-Mode baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoryMode;

impl MemoryMode {
    /// A new Memory-Mode policy.
    #[must_use]
    pub fn new() -> Self {
        MemoryMode
    }
}

impl MemoryManager for MemoryMode {
    fn name(&self) -> &str {
        "memory-mode"
    }

    fn on_train_begin(&mut self, ctx: &mut ExecCtx<'_>) {
        let spec = MemoryModeSpec::from_config(ctx.mem().config());
        ctx.mem_mut().enable_memory_mode(spec);
    }

    fn tier_for(&mut self, _tensor: &Tensor, _ctx: &ExecCtx<'_>) -> Tier {
        Tier::Slow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_dnn::{Executor, SingleTier};
    use sentinel_mem::{HmConfig, MemorySystem};
    use sentinel_models::{ModelSpec, ModelZoo};

    #[test]
    fn memory_mode_beats_slow_only_when_cache_is_big() {
        let g = ModelZoo::build(&ModelSpec::resnet(20, 4).with_scale(4)).unwrap();
        // DRAM cache larger than the working set: nearly everything hits.
        let cfg = HmConfig::optane_like().without_cache();
        let mm = Executor::new(&g, MemorySystem::new(cfg.clone()))
            .run(&mut MemoryMode::new(), 3)
            .unwrap();
        let slow = Executor::new(&g, MemorySystem::new(cfg))
            .run(&mut SingleTier::slow(), 3)
            .unwrap();
        assert!(mm.steady_step_ns() < slow.steady_step_ns());
    }

    #[test]
    fn small_cache_degrades_memory_mode() {
        let g = ModelZoo::build(&ModelSpec::resnet(32, 8).with_scale(4)).unwrap();
        let big = HmConfig::optane_like().without_cache();
        let small = big.clone().with_fast_capacity(g.peak_live_bytes() / 20);
        let fast_big = Executor::new(&g, MemorySystem::new(big))
            .run(&mut MemoryMode::new(), 3)
            .unwrap();
        let fast_small = Executor::new(&g, MemorySystem::new(small))
            .run(&mut MemoryMode::new(), 3)
            .unwrap();
        assert!(fast_small.steady_step_ns() > fast_big.steady_step_ns());
    }

    #[test]
    fn cache_stats_are_exposed() {
        let g = ModelZoo::build(&ModelSpec::resnet(20, 2).with_scale(8)).unwrap();
        let cfg = HmConfig::optane_like().without_cache();
        let mut exec = Executor::new(&g, MemorySystem::new(cfg));
        exec.run(&mut MemoryMode::new(), 2).unwrap();
        let stats = exec.ctx().mem().memory_mode_stats().unwrap();
        assert!(stats.hits + stats.misses > 0);
    }
}
