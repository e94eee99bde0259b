//! Capuchin ([9]): dynamic-profiled swap + recomputation.
//!
//! Capuchin observes the access pattern during the first training step, then
//! for each long-lived tensor with a forward→backward gap decides between
//! *swapping* (evict after forward use, prefetch before backward use) and
//! *recomputing* (free immediately and re-run the producing operator when
//! the backward pass needs it). Swaps overlap with compute; when the
//! transfer cannot be hidden in the gap, Capuchin prefers recomputation —
//! whose cost (≈11% of step time in the paper's Figure 13) Sentinel avoids
//! entirely.

use crate::common::{ensure_resident_sync, StaticProfile};
use sentinel_dnn::{ExecCtx, Graph, MemoryManager, PoolSpec, Schedule, TensorId};
use sentinel_mem::{AccessKind, Ns, Tier};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    Keep,
    Swap,
    Recompute,
}

/// The Capuchin baseline policy.
#[derive(Debug)]
pub struct Capuchin {
    decisions: Vec<Decision>,
    profile: Option<StaticProfile>,
    schedule: Option<Schedule>,
    /// Measured per-layer times from the first (profiling) step.
    layer_times: Vec<Ns>,
    layer_mark: Ns,
    planned: bool,
    current_layer: usize,
}

impl Capuchin {
    /// A new Capuchin policy.
    #[must_use]
    pub fn new() -> Self {
        Capuchin {
            decisions: Vec::new(),
            profile: None,
            schedule: None,
            layer_times: Vec::new(),
            layer_mark: 0,
            planned: false,
            current_layer: 0,
        }
    }

    fn plan(&mut self, graph: &Graph, ctx: &ExecCtx<'_>) {
        let profile = self.profile.as_ref().expect("profiled before planning");
        let schedule = self.schedule.as_ref().expect("indexed before planning");
        let bw = ctx.mem().config().promote_bw_bytes_per_ns;
        let throughput = ctx.mem().config().compute_flops_per_ns;
        let mut decisions = vec![Decision::Keep; graph.num_tensors()];
        for t in graph.tensors() {
            if t.preallocated() || t.is_short_lived() || t.bytes < 4096 {
                continue;
            }
            let layers = schedule.layers_of(t.id);
            let (Some(&first), Some(&last)) = (layers.first(), layers.last()) else { continue };
            if last <= first + 2 {
                continue; // no useful gap
            }
            // The first (observation) step runs mostly from slow memory, so
            // measured layer times overstate steady-state gaps; apply a
            // conservative haircut before comparing with the transfer time.
            let gap_time: Ns = self.layer_times[first + 1..last].iter().sum::<Ns>() / 4;
            let transfer = (2.0 * t.bytes as f64 / bw) as Ns;
            let recompute = (profile.producer_flops(graph, t.id) as f64 / throughput) as Ns;
            decisions[t.id.index()] = if transfer <= gap_time {
                Decision::Swap
            } else if recompute < transfer {
                Decision::Recompute
            } else {
                Decision::Swap
            };
        }
        self.decisions = decisions;
        self.planned = true;
    }
}

impl Default for Capuchin {
    fn default() -> Self {
        Capuchin::new()
    }
}

impl MemoryManager for Capuchin {
    fn name(&self) -> &str {
        "capuchin"
    }

    fn on_train_begin(&mut self, ctx: &mut ExecCtx<'_>) {
        self.profile = Some(StaticProfile::new(ctx.graph()));
        self.schedule = Some(Schedule::new(ctx.graph()));
        self.decisions = vec![Decision::Keep; ctx.graph().num_tensors()];
    }

    fn before_layer(&mut self, layer: usize, ctx: &mut ExecCtx<'_>) {
        self.layer_mark = ctx.now();
        self.current_layer = layer;
        if !self.planned {
            return;
        }
        // Prefetch swapped tensors a few layers ahead of their use, sized so
        // the PCIe channel can keep up (Capuchin schedules swap-ins at
        // measured trigger points).
        let Some(schedule) = self.schedule.as_ref() else { return };
        let movers: Vec<TensorId> = (0..self.decisions.len())
            .filter(|&i| self.decisions[i] == Decision::Swap)
            .map(|i| TensorId(i as u32))
            .filter(|&t| ctx.is_live(t) && ctx.tensor_bytes_in(t, Tier::Slow) > 0)
            .filter(|&t| matches!(schedule.next_use(t, layer), Some(n) if n <= layer + 4))
            .collect();
        for t in movers {
            let _ = ctx.migrate_tensor(t, Tier::Fast);
        }
    }

    fn after_layer(&mut self, layer: usize, ctx: &mut ExecCtx<'_>) {
        if !self.planned {
            // Profiling step: record layer times.
            self.layer_times.push(ctx.now() - self.layer_mark);
            return;
        }
        let Some(schedule) = self.schedule.as_ref() else { return };
        // Swap out / discard tensors that entered their gap.
        let mut to_swap = Vec::new();
        let mut to_drop = Vec::new();
        for (i, d) in self.decisions.iter().enumerate() {
            let t = TensorId(i as u32);
            if !ctx.is_live(t) {
                continue;
            }
            // Demote only tensors idle beyond the prefetch horizon, so a
            // swap-out is never immediately undone by the next swap-in.
            let in_gap = match schedule.next_use(t, layer + 1) {
                None => false, // dead soon anyway
                Some(n) => n > layer + 5,
            };
            if !in_gap {
                continue;
            }
            match d {
                Decision::Swap if ctx.tensor_bytes_in(t, Tier::Fast) > 0 => to_swap.push(t),
                Decision::Recompute => to_drop.push(t),
                _ => {}
            }
        }
        for t in to_swap {
            let _ = ctx.migrate_tensor(t, Tier::Slow);
        }
        for t in to_drop {
            let _ = ctx.release(t);
        }
    }

    fn before_access(&mut self, tensor: TensorId, _kind: AccessKind, ctx: &mut ExecCtx<'_>) {
        if !self.planned {
            return;
        }
        match self.decisions[tensor.index()] {
            Decision::Recompute if !ctx.is_live(tensor) => {
                // Re-materialize: allocate and charge the producer's FLOPs.
                let flops = self
                    .profile
                    .as_ref()
                    .map(|p| p.producer_flops(ctx.graph(), tensor))
                    .unwrap_or(0);
                let _ = ctx.allocate_with(tensor, PoolSpec::default_packed(), Tier::Fast)
                    .or_else(|_| ctx.allocate_with(tensor, PoolSpec::default_packed(), Tier::Slow));
                ctx.charge_recompute(flops);
            }
            _ if ctx.is_live(tensor) && ctx.tensor_bytes_in(tensor, Tier::Slow) > 0 => {
                // Late swap-in or unplanned resident: demand-fault it in.
                if let Some(schedule) = self.schedule.as_ref() {
                    ensure_resident_sync(ctx, tensor, schedule, self.current_layer);
                }
            }
            _ => {}
        }
    }

    fn on_step_end(&mut self, ctx: &mut ExecCtx<'_>) {
        if !self.planned {
            let graph = ctx.graph();
            self.plan(graph, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_dnn::{Executor, SingleTier};
    use sentinel_mem::{HmConfig, MemorySystem};
    use sentinel_models::{ModelSpec, ModelZoo};

    fn graph() -> Graph {
        ModelZoo::build(&ModelSpec::resnet(32, 8).with_scale(4)).unwrap()
    }

    fn cfg(g: &Graph) -> HmConfig {
        HmConfig::gpu_like().without_cache().with_fast_capacity(g.peak_live_bytes() / 4)
    }

    #[test]
    fn capuchin_plans_after_first_step() {
        let g = graph();
        let mut exec = Executor::new(&g, MemorySystem::new(cfg(&g)));
        let mut p = Capuchin::new();
        exec.run_step(&mut p).unwrap();
        assert!(p.planned);
        let swaps = p.decisions.iter().filter(|&&d| d == Decision::Swap).count();
        assert!(swaps > 0, "expected some swap decisions");
    }

    #[test]
    fn capuchin_runs_and_beats_slow_only() {
        let g = graph();
        let c = cfg(&g);
        let cap =
            Executor::new(&g, MemorySystem::new(c.clone())).run(&mut Capuchin::new(), 4).unwrap();
        let slow =
            Executor::new(&g, MemorySystem::new(c)).run(&mut SingleTier::slow(), 4).unwrap();
        assert!(cap.steady_step_ns() < slow.steady_step_ns());
    }

    #[test]
    fn recompute_decisions_can_occur_under_pressure() {
        let g = graph();
        // Starve the transfer bandwidth so swapping cannot hide in gaps.
        let mut c = cfg(&g);
        c.promote_bw_bytes_per_ns = 0.01;
        c.demote_bw_bytes_per_ns = 0.01;
        let mut exec = Executor::new(&g, MemorySystem::new(c));
        let mut p = Capuchin::new();
        exec.run_step(&mut p).unwrap();
        let recomputes = p.decisions.iter().filter(|&&d| d == Decision::Recompute).count();
        assert!(recomputes > 0, "starved bandwidth should force recomputation");
        // And the recompute cost shows up in the breakdown.
        let r = exec.run_step(&mut p).unwrap();
        assert!(r.breakdown.recompute_ns > 0);
    }
}
