//! AutoTM ([7]): static-profile, ILP-planned tensor placement.
//!
//! AutoTM profiles operator times at compile time and solves an ILP that
//! assigns each tensor a (possibly windowed) residence in fast memory. We
//! approximate the ILP with the classic greedy relaxation: tensors are
//! ranked by static access density (references per byte — *reference*
//! counts, since static profiling cannot see the cache hierarchy) and
//! admitted into fast memory while every layer of their live span has
//! budget. Planned movements execute at layer boundaries; inbound moves are
//! synchronous — the paper's stated weakness: "all tensor movements in
//! AutoTM between fast and slow memories are exposed to the critical path".

use crate::common::{ensure_resident_sync, StaticProfile};
use sentinel_dnn::{ExecCtx, MemoryManager, Schedule, Tensor, TensorId};
use sentinel_mem::{pages_for_bytes, AccessKind, Ns, Tier};

/// Fraction of fast memory the planner budgets (headroom for fragmentation).
const PLAN_BUDGET: f64 = 0.9;
/// A planned-fast tensor idle for more than this many layers is moved out.
const IDLE_LAYERS: usize = 2;

/// The AutoTM baseline policy.
#[derive(Debug, Default)]
pub struct AutoTm {
    schedule: Option<Schedule>,
    /// Whether the plan assigns each tensor to fast memory.
    assigned_fast: Vec<bool>,
    /// layer → planned-fast tensors referenced in that layer.
    by_layer: Vec<Vec<TensorId>>,
    current_layer: usize,
}

impl AutoTm {
    /// A new AutoTM policy.
    #[must_use]
    pub fn new() -> Self {
        AutoTm::default()
    }

    fn plan(&mut self, ctx: &ExecCtx<'_>) {
        let graph = ctx.graph();
        let profile = StaticProfile::new(graph);
        let schedule = Schedule::new(graph);
        let num_layers = graph.num_layers();
        let budget = (ctx.mem().config().fast.capacity_bytes as f64 * PLAN_BUDGET) as u64;

        // Greedy knapsack by reference density.
        let mut order: Vec<TensorId> = graph.tensors().iter().map(|t| t.id).collect();
        order.sort_by(|&a, &b| {
            let da = profile.ref_counts[a.index()] as f64 / graph.tensor(a).bytes as f64;
            let db = profile.ref_counts[b.index()] as f64 / graph.tensor(b).bytes as f64;
            db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal)
        });

        let mut per_layer_bytes = vec![0u64; num_layers];
        let mut assigned = vec![false; graph.num_tensors()];
        for t in order {
            let layers = schedule.layers_of(t);
            let (Some(&first), Some(&last)) = (layers.first(), layers.last()) else { continue };
            let bytes = graph.tensor(t).bytes;
            if (first..=last).all(|l| per_layer_bytes[l] + bytes <= budget) {
                for layer_bytes in &mut per_layer_bytes[first..=last] {
                    *layer_bytes += bytes;
                }
                assigned[t.index()] = true;
            }
        }

        let mut by_layer = vec![Vec::new(); num_layers];
        for (i, &is_fast) in assigned.iter().enumerate() {
            if is_fast {
                let t = TensorId(i as u32);
                for &l in schedule.layers_of(t) {
                    by_layer[l].push(t);
                }
            }
        }
        self.assigned_fast = assigned;
        self.by_layer = by_layer;
        self.schedule = Some(schedule);
    }
}

impl MemoryManager for AutoTm {
    fn name(&self) -> &str {
        "autotm"
    }

    fn on_train_begin(&mut self, ctx: &mut ExecCtx<'_>) {
        self.plan(ctx);
    }

    fn tier_for(&mut self, tensor: &Tensor, ctx: &ExecCtx<'_>) -> Tier {
        let pages = pages_for_bytes(tensor.bytes, ctx.mem().page_size());
        if self.assigned_fast[tensor.id.index()] && pages <= ctx.mem().free_pages(Tier::Fast) {
            Tier::Fast
        } else {
            Tier::Slow
        }
    }

    fn before_layer(&mut self, layer: usize, ctx: &mut ExecCtx<'_>) {
        self.current_layer = layer;
        // Planned inbound movements execute at the layer boundary and are
        // synchronous — the paper's stated AutoTM weakness ("all tensor
        // movements in AutoTM ... are exposed to the critical path").
        let movers: Vec<TensorId> = self.by_layer[layer]
            .iter()
            .copied()
            .filter(|&t| ctx.is_live(t) && ctx.tensor_bytes_in(t, Tier::Slow) > 0)
            .collect();
        let mut latest: Option<Ns> = None;
        for t in movers {
            if let Ok(Some(ready)) = ctx.migrate_tensor(t, Tier::Fast) {
                latest = Some(latest.map_or(ready, |l: Ns| l.max(ready)));
            }
        }
        if let Some(ready) = latest {
            ctx.stall_until(ready);
        }
    }

    fn before_access(&mut self, tensor: TensorId, _kind: AccessKind, ctx: &mut ExecCtx<'_>) {
        // On the GPU platform even plan-slow tensors must be faulted into
        // device memory before the kernel touches them.
        if ctx.mem().config().slow_directly_accessible {
            return;
        }
        if ctx.is_live(tensor) && ctx.tensor_bytes_in(tensor, Tier::Slow) > 0 {
            if let Some(schedule) = self.schedule.as_ref() {
                ensure_resident_sync(ctx, tensor, schedule, self.current_layer);
            }
        }
    }

    fn after_layer(&mut self, layer: usize, ctx: &mut ExecCtx<'_>) {
        let Some(schedule) = self.schedule.as_ref() else { return };
        let idle: Vec<TensorId> = self.by_layer[layer]
            .iter()
            .copied()
            .filter(|&t| ctx.is_live(t) && ctx.tensor_bytes_in(t, Tier::Fast) > 0)
            .filter(|&t| match schedule.next_use(t, layer + 1) {
                None => true,
                Some(n) => n > layer + IDLE_LAYERS,
            })
            .collect();
        for t in idle {
            let _ = ctx.migrate_tensor(t, Tier::Slow); // outbound is asynchronous
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
        HmConfig::optane_like().without_cache().with_fast_capacity(g.peak_live_bytes() / 5)
    }

    #[test]
    fn autotm_plans_within_budget() {
        let g = graph();
        let mem = MemorySystem::new(cfg(&g));
        let mut exec = Executor::new(&g, mem);
        let mut p = AutoTm::new();
        exec.train_begin(&mut p).unwrap();
        let assigned: usize = p.assigned_fast.iter().filter(|&&b| b).count();
        assert!(assigned > 0, "plan should admit some tensors");
        assert!(assigned < g.num_tensors(), "plan cannot admit everything at 20% fast");
    }

    #[test]
    fn autotm_beats_slow_only() {
        let g = graph();
        let c = cfg(&g);
        let autotm =
            Executor::new(&g, MemorySystem::new(c.clone())).run(&mut AutoTm::new(), 4).unwrap();
        let slow =
            Executor::new(&g, MemorySystem::new(c)).run(&mut SingleTier::slow(), 4).unwrap();
        assert!(autotm.steady_step_ns() < slow.steady_step_ns());
    }

    #[test]
    fn autotm_movements_stall_the_pipeline() {
        let g = graph();
        let mut exec = Executor::new(&g, MemorySystem::new(cfg(&g)));
        let r = exec.run(&mut AutoTm::new(), 4).unwrap();
        assert!(r.steps.last().unwrap().breakdown.stall_ns > 0);
    }
}
