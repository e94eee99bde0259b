//! The memory-management policy interface and reference policies.

use crate::alloc::PoolSpec;
use crate::ctx::ExecCtx;
use crate::tensor::{OpRef, Tensor, TensorId};
use sentinel_mem::{pages_for_bytes, AccessKind, Tier};

/// A heterogeneous-memory management policy.
///
/// The [`crate::Executor`] drives one training run and calls back into the
/// policy at every decision point: where to place a new tensor
/// ([`MemoryManager::tier_for`]), which pool it allocates from — and hence
/// which tensors it may share pages with ([`MemoryManager::pool_for`]) —
/// plus hooks at step/layer/op/access boundaries where the policy may issue
/// migrations, stall for copies, or re-place tensors through the context.
///
/// Sentinel, all eight baselines, and the trivial single-tier references are
/// implementations of this trait, so every comparison in the evaluation is a
/// pure policy comparison over identical simulated hardware.
#[allow(unused_variables)]
pub trait MemoryManager {
    /// Short policy name used in reports (e.g. `"sentinel"`, `"ial"`).
    fn name(&self) -> &str;

    /// Called once before any allocation.
    fn on_train_begin(&mut self, ctx: &mut ExecCtx<'_>) {}

    /// Called at the start of every training step.
    fn on_step_begin(&mut self, ctx: &mut ExecCtx<'_>) {}

    /// Pool (page-sharing group) for a tensor about to be allocated.
    fn pool_for(&mut self, tensor: &Tensor, ctx: &ExecCtx<'_>) -> PoolSpec {
        PoolSpec::default_packed()
    }

    /// Tier for the newly populated pages of a tensor about to be allocated.
    /// The default is fast memory when the whole tensor fits in the free
    /// fast pages, slow memory otherwise.
    fn tier_for(&mut self, tensor: &Tensor, ctx: &ExecCtx<'_>) -> Tier {
        let pages = pages_for_bytes(tensor.bytes, ctx.mem().page_size());
        if pages <= ctx.mem().free_pages(Tier::Fast) {
            Tier::Fast
        } else {
            Tier::Slow
        }
    }

    /// Called after a tensor is successfully allocated.
    fn on_alloc(&mut self, tensor: TensorId, ctx: &mut ExecCtx<'_>) {}

    /// Called when an allocation into `tier` fails for lack of space.
    /// Return `true` after making room (e.g. by synchronously demoting
    /// pages) to have the executor retry; `false` to overflow to the other
    /// tier.
    fn on_capacity_pressure(&mut self, tier: Tier, needed_pages: u64, ctx: &mut ExecCtx<'_>) -> bool {
        false
    }

    /// Called before the first op of every layer.
    fn before_layer(&mut self, layer: usize, ctx: &mut ExecCtx<'_>) {}

    /// Called after the last op of every layer.
    fn after_layer(&mut self, layer: usize, ctx: &mut ExecCtx<'_>) {}

    /// Called before each op executes (outputs are already allocated).
    fn before_op(&mut self, at: OpRef, ctx: &mut ExecCtx<'_>) {}

    /// Called after each op executes (before its dead tensors are freed).
    fn after_op(&mut self, at: OpRef, ctx: &mut ExecCtx<'_>) {}

    /// Called immediately before the executor touches `tensor`.
    /// On-demand policies (UM) fault pages in here.
    fn before_access(&mut self, tensor: TensorId, kind: AccessKind, ctx: &mut ExecCtx<'_>) {}

    /// Called just before a dead tensor's memory is released.
    fn on_free(&mut self, tensor: TensorId, ctx: &mut ExecCtx<'_>) {}

    /// Called at the end of every training step.
    fn on_step_end(&mut self, ctx: &mut ExecCtx<'_>) {}

    /// Drain the per-interval migration ledger for the step that just
    /// ended. Invoked by the executor only while tracing is enabled, after
    /// the step's final poll and before its stats snapshot, so a
    /// ledger-keeping policy can close its last open interval against the
    /// final counter values. Policies that do not track intervals (every
    /// baseline) keep the empty default.
    fn step_ledger(&mut self, ctx: &ExecCtx<'_>) -> Vec<crate::IntervalRecord> {
        Vec::new()
    }

    /// Drain human-readable warnings raised during the step that just ended
    /// (e.g. an adaptive policy's degraded re-solve). Invoked by the
    /// executor after the step's final poll, every step — unlike
    /// [`MemoryManager::step_ledger`] this is not gated on tracing, so a
    /// degraded run surfaces its warnings even in plain reports. Policies
    /// with nothing to report keep the empty default.
    fn step_warnings(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Called once after the last step.
    fn on_train_end(&mut self, ctx: &mut ExecCtx<'_>) {}
}

/// Reference policy: place everything in one tier, never migrate.
///
/// `SingleTier::fast()` is the paper's "fast memory-only" upper bound (the
/// red line of Figure 7); `SingleTier::slow()` is the "slow memory-only"
/// baseline every speedup is normalized against.
#[derive(Debug, Clone, Copy)]
pub struct SingleTier {
    tier: Tier,
    label: &'static str,
}

impl SingleTier {
    /// Everything in fast memory.
    #[must_use]
    pub fn fast() -> Self {
        SingleTier { tier: Tier::Fast, label: "fast-only" }
    }

    /// Everything in slow memory.
    #[must_use]
    pub fn slow() -> Self {
        SingleTier { tier: Tier::Slow, label: "slow-only" }
    }

    /// The tier used.
    #[must_use]
    pub fn tier(&self) -> Tier {
        self.tier
    }
}

impl MemoryManager for SingleTier {
    fn name(&self) -> &str {
        self.label
    }

    fn tier_for(&mut self, _tensor: &Tensor, _ctx: &ExecCtx<'_>) -> Tier {
        self.tier
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_tier_constructors() {
        assert_eq!(SingleTier::fast().tier(), Tier::Fast);
        assert_eq!(SingleTier::slow().tier(), Tier::Slow);
        assert_eq!(SingleTier::fast().name(), "fast-only");
        assert_eq!(SingleTier::slow().name(), "slow-only");
    }

    #[test]
    fn trait_defaults_are_benign() {
        // A policy implementing only `name` compiles and uses defaults.
        struct Minimal;
        impl MemoryManager for Minimal {
            fn name(&self) -> &str {
                "minimal"
            }
        }
        let mut m = Minimal;
        assert_eq!(m.name(), "minimal");
        let t = Tensor {
            id: TensorId(0),
            name: "t".into(),
            bytes: 1,
            kind: crate::TensorKind::Temporary,
            first_ref: None,
            last_ref: None,
        };
        // Default pool/tier choices.
        let g = {
            let mut b = crate::GraphBuilder::new("g", 1);
            let x = b.tensor("x", 1, crate::TensorKind::Input);
            b.begin_layer("l");
            b.op("o", crate::OpKind::Other, 1).reads(&[x]).push();
            b.finish().unwrap()
        };
        let ctx = ExecCtx::new(&g, sentinel_mem::MemorySystem::new(sentinel_mem::HmConfig::testing()));
        assert_eq!(m.pool_for(&t, &ctx), PoolSpec::default_packed());
        assert_eq!(m.tier_for(&t, &ctx), Tier::Fast);
    }
}
