//! UM — CUDA Unified Memory ([37]): on-demand page migration.
//!
//! No profiling, no planning: a tensor is faulted into fast (device) memory
//! the moment it is touched there, evicting least-recently-used residents
//! when full. Every fault and copy sits on the critical path, which is why
//! the paper measures Sentinel 1.1–7.8× faster.

use sentinel_dnn::{ExecCtx, MemoryManager, TensorId};
use sentinel_mem::{pages_for_bytes, AccessKind, Tier};

/// The Unified-Memory baseline policy.
#[derive(Debug, Default)]
pub struct UnifiedMemory {
    /// Per-tensor last-touch tick for LRU eviction.
    last_touch: Vec<u64>,
    tick: u64,
}

impl UnifiedMemory {
    /// A new UM policy.
    #[must_use]
    pub fn new() -> Self {
        UnifiedMemory::default()
    }

    fn evict_lru(&mut self, exclude: TensorId, ctx: &mut ExecCtx<'_>) -> bool {
        let victim = ctx
            .graph()
            .tensors()
            .iter()
            .map(|t| t.id)
            .filter(|&t| t != exclude && ctx.is_live(t))
            .filter(|&t| ctx.tensor_bytes_in(t, Tier::Fast) > 0)
            .min_by_key(|&t| self.last_touch[t.index()]);
        let Some(victim) = victim else { return false };
        match ctx.migrate_tensor_urgent(victim, Tier::Slow) {
            Ok(Some(ready)) => {
                ctx.stall_until(ready);
                true
            }
            _ => false,
        }
    }
}

impl MemoryManager for UnifiedMemory {
    fn name(&self) -> &str {
        "um"
    }

    fn on_train_begin(&mut self, ctx: &mut ExecCtx<'_>) {
        self.last_touch = vec![0; ctx.graph().num_tensors()];
    }

    fn before_access(&mut self, tensor: TensorId, _kind: AccessKind, ctx: &mut ExecCtx<'_>) {
        self.tick += 1;
        if tensor.index() < self.last_touch.len() {
            self.last_touch[tensor.index()] = self.tick;
        }
        if !ctx.is_live(tensor) || ctx.tensor_bytes_in(tensor, Tier::Slow) == 0 {
            return;
        }
        // GPU page fault: make room, then copy in — all synchronous.
        let page_size = ctx.mem().page_size();
        let needed = pages_for_bytes(ctx.tensor_bytes_in(tensor, Tier::Slow), page_size);
        let mut guard = 0;
        while ctx.mem().free_pages(Tier::Fast) < needed && guard < 100_000 {
            if !self.evict_lru(tensor, ctx) {
                return; // cannot make room; serve from slow
            }
            guard += 1;
        }
        let fault_cost = ctx.mem().config().fault_overhead_ns;
        if let Ok(Some(ready)) = ctx.migrate_tensor_urgent(tensor, Tier::Fast) {
            ctx.stall_until(ready + fault_cost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_dnn::{Executor, SingleTier};
    use sentinel_mem::{HmConfig, MemorySystem};
    use sentinel_models::{ModelSpec, ModelZoo};

    fn graph() -> sentinel_dnn::Graph {
        ModelZoo::build(&ModelSpec::resnet(32, 8).with_scale(4)).unwrap()
    }

    fn cfg(g: &sentinel_dnn::Graph) -> HmConfig {
        HmConfig::gpu_like().without_cache().with_fast_capacity(g.peak_live_bytes() / 5)
    }

    #[test]
    fn um_faults_everything_to_fast() {
        let g = graph();
        let mut exec = Executor::new(&g, MemorySystem::new(cfg(&g)));
        let r = exec.run(&mut UnifiedMemory::new(), 3).unwrap();
        let last = r.steps.last().unwrap();
        assert!(last.migrated_bytes() > 0);
        assert!(last.breakdown.stall_ns > 0, "UM copies are synchronous");
    }

    #[test]
    fn um_beats_running_from_host_memory() {
        let g = graph();
        let c = cfg(&g);
        let um = Executor::new(&g, MemorySystem::new(c.clone()))
            .run(&mut UnifiedMemory::new(), 3)
            .unwrap();
        let slow = Executor::new(&g, MemorySystem::new(c)).run(&mut SingleTier::slow(), 3).unwrap();
        assert!(um.steady_step_ns() < slow.steady_step_ns());
    }
}
