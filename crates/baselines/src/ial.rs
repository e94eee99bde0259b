//! IAL — the "improved active list" CPU baseline ([19] in the paper).
//!
//! An OS-style page-management scheme: tensors are promoted to fast memory
//! once they prove themselves active (a second touch while resident in slow
//! memory), and a FIFO active list supplies demotion victims when fast
//! memory fills. Migrations happen on the access path and are therefore
//! exposed to the critical path — one of the two reasons the paper measures
//! IAL ~37% behind Sentinel (the other being page-level false sharing,
//! which IAL inherits from the packed allocator).

use sentinel_dnn::{ExecCtx, MemoryManager, TensorId};
use sentinel_mem::{pages_for_bytes, AccessKind, Tier};
use std::collections::VecDeque;

/// Accesses in slow memory before a tensor is promoted.
const PROMOTE_THRESHOLD: u32 = 2;
/// Kernel-style migration throttle: at most this multiple of the fast-tier
/// capacity may be promoted per training step (NUMA balancing rate-limits
/// page migration the same way).
const STEP_BUDGET_FACTOR: u64 = 2;

/// The IAL baseline policy.
#[derive(Debug, Default)]
pub struct Ial {
    /// FIFO of fast-resident tensors (promotion order).
    active: VecDeque<TensorId>,
    /// Per-tensor touch counter while slow-resident.
    touches: Vec<u32>,
    /// Bytes promoted during the current step (throttled).
    promoted_this_step: u64,
}

impl Ial {
    /// A new IAL policy.
    #[must_use]
    pub fn new() -> Self {
        Ial::default()
    }

    fn demote_one(&mut self, ctx: &mut ExecCtx<'_>) -> bool {
        while let Some(victim) = self.active.pop_front() {
            if !ctx.is_live(victim) || ctx.tensor_bytes_in(victim, Tier::Fast) == 0 {
                continue; // stale entry
            }
            if let Ok(Some(ready)) = ctx.migrate_tensor(victim, Tier::Slow) {
                ctx.stall_until(ready);
                return true;
            }
        }
        false
    }

    fn promote(&mut self, t: TensorId, ctx: &mut ExecCtx<'_>) {
        let page_size = ctx.mem().page_size();
        let slow_bytes = ctx.tensor_bytes_in(t, Tier::Slow);
        let needed = pages_for_bytes(slow_bytes, page_size);
        if needed > ctx.mem().config().fast_pages() / 2 {
            return; // never promote tensors that would monopolize fast memory
        }
        let budget = STEP_BUDGET_FACTOR * ctx.mem().config().fast.capacity_bytes;
        if self.promoted_this_step + slow_bytes > budget {
            return; // rate limit reached for this step
        }
        self.promoted_this_step += slow_bytes;
        let mut guard = 0;
        while ctx.mem().free_pages(Tier::Fast) < needed && guard < 10_000 {
            if !self.demote_one(ctx) {
                return; // nothing left to demote
            }
            guard += 1;
        }
        if let Ok(Some(ready)) = ctx.migrate_tensor(t, Tier::Fast) {
            // Kernel-style migration: the faulting access waits for the copy.
            ctx.stall_until(ready);
            self.active.push_back(t);
            self.touches[t.index()] = 0;
        }
    }
}

impl MemoryManager for Ial {
    fn name(&self) -> &str {
        "ial"
    }

    fn on_train_begin(&mut self, ctx: &mut ExecCtx<'_>) {
        self.touches = vec![0; ctx.graph().num_tensors()];
    }

    fn on_step_begin(&mut self, _ctx: &mut ExecCtx<'_>) {
        self.promoted_this_step = 0;
    }

    fn on_alloc(&mut self, tensor: TensorId, ctx: &mut ExecCtx<'_>) {
        if ctx.tensor_bytes_in(tensor, Tier::Fast) > 0 {
            self.active.push_back(tensor);
        }
    }

    fn before_access(&mut self, tensor: TensorId, _kind: AccessKind, ctx: &mut ExecCtx<'_>) {
        if !ctx.is_live(tensor) || ctx.tensor_bytes_in(tensor, Tier::Slow) == 0 {
            return;
        }
        self.touches[tensor.index()] += 1;
        if self.touches[tensor.index()] >= PROMOTE_THRESHOLD {
            self.promote(tensor, ctx);
        }
    }

    fn on_free(&mut self, tensor: TensorId, _ctx: &mut ExecCtx<'_>) {
        self.touches[tensor.index()] = 0;
        // Active-list entry is removed lazily in demote_one.
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

    fn constrained_cfg(g: &sentinel_dnn::Graph) -> HmConfig {
        HmConfig::optane_like().without_cache().with_fast_capacity(g.peak_live_bytes() / 5)
    }

    #[test]
    fn ial_runs_and_migrates() {
        let g = graph();
        let cfg = constrained_cfg(&g);
        let mut exec = Executor::new(&g, MemorySystem::new(cfg));
        let r = exec.run(&mut Ial::new(), 4).unwrap();
        assert!(r.steps.last().unwrap().migrated_bytes() > 0);
    }

    #[test]
    fn ial_beats_slow_only() {
        let g = graph();
        let cfg = constrained_cfg(&g);
        let ial = Executor::new(&g, MemorySystem::new(cfg.clone())).run(&mut Ial::new(), 4).unwrap();
        let slow = Executor::new(&g, MemorySystem::new(cfg)).run(&mut SingleTier::slow(), 4).unwrap();
        assert!(ial.steady_step_ns() < slow.steady_step_ns());
    }

    #[test]
    fn ial_exposes_migration_as_stall() {
        let g = graph();
        let cfg = constrained_cfg(&g);
        let mut exec = Executor::new(&g, MemorySystem::new(cfg));
        let r = exec.run(&mut Ial::new(), 4).unwrap();
        let steady = &r.steps[r.steps.len() - 1];
        assert!(steady.breakdown.stall_ns > 0, "IAL migration should stall the critical path");
    }
}
