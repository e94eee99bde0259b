//! SwapAdvisor ([8]): genetic-algorithm search over swap plans.
//!
//! SwapAdvisor explores which tensors to swap between device and host with a
//! genetic algorithm over a simulator-based fitness function. We reproduce
//! the mechanism at tensor granularity: the genome selects a subset of
//! long-lived tensors to swap out during their forward→backward gap; the
//! fitness estimates step time from (a) fast-memory overflow penalties and
//! (b) transfer exposure versus the time available in the gap. The search is
//! deterministic (seeded). As in the paper, the plan optimizes training time
//! rather than memory minimization, so it swaps less aggressively than
//! Sentinel.

use crate::common::ensure_resident_sync;
use sentinel_util::{Pool, Rng};
use sentinel_dnn::{ExecCtx, Graph, MemoryManager, Schedule, TensorId};
use sentinel_mem::{AccessKind, Tier};

const POPULATION: usize = 16;
const GENERATIONS: usize = 20;
const MUTATION: f64 = 0.05;
const SEED: u64 = 42;

/// A candidate tensor the GA may decide to swap.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    t: TensorId,
    bytes: u64,
    first: usize,
    last: usize,
}

/// The SwapAdvisor baseline policy.
#[derive(Debug)]
pub struct SwapAdvisor {
    candidates: Vec<Candidate>,
    /// Chosen plan: per candidate, swap or not.
    plan: Vec<bool>,
    swap: Vec<bool>,
    schedule: Schedule,
    current_layer: usize,
}

impl SwapAdvisor {
    /// Build SwapAdvisor for `graph`, running the GA against `fast_bytes`
    /// of device memory and `bw` bytes/ns of transfer bandwidth. The GA
    /// fans candidate evaluation out on an environment-sized pool
    /// ([`Pool::from_env`]); see [`SwapAdvisor::plan_for_with_pool`] for
    /// the determinism contract.
    #[must_use]
    pub fn plan_for(graph: &Graph, fast_bytes: u64, bw: f64) -> Self {
        SwapAdvisor::plan_for_with_pool(graph, fast_bytes, bw, Pool::from_env())
    }

    /// [`SwapAdvisor::plan_for`] with an explicit worker pool for the GA's
    /// per-candidate evaluation and breeding. The search is seeded and each
    /// child is bred on an RNG stream forked off the main seed *before* the
    /// fan-out, so the chosen plan is identical at any worker count.
    #[must_use]
    pub fn plan_for_with_pool(graph: &Graph, fast_bytes: u64, bw: f64, pool: Pool) -> Self {
        let schedule = Schedule::new(graph);
        let candidates: Vec<Candidate> = graph
            .tensors()
            .iter()
            .filter(|t| !t.is_short_lived() && !t.preallocated())
            .filter_map(|t| {
                let layers = schedule.layers_of(t.id);
                let (first, last) = (*layers.first()?, *layers.last()?);
                // Worth swapping only with a real gap and at least a page.
                (last > first + 2 && t.bytes >= 4096).then_some(Candidate {
                    t: t.id,
                    bytes: t.bytes,
                    first,
                    last,
                })
            })
            .collect();

        let plan = ga_search(graph, &candidates, fast_bytes, bw, pool);
        let mut swap = vec![false; graph.num_tensors()];
        for (c, &s) in candidates.iter().zip(&plan) {
            if s {
                swap[c.t.index()] = true;
            }
        }
        SwapAdvisor { candidates, plan, swap, schedule, current_layer: 0 }
    }

    /// Number of tensors the plan swaps.
    #[must_use]
    pub fn swapped_count(&self) -> usize {
        self.plan.iter().filter(|&&s| s).count()
    }
}

/// Estimated cost of a genome (lower is better).
fn fitness(graph: &Graph, candidates: &[Candidate], genome: &[bool], fast_bytes: u64, bw: f64) -> f64 {
    let num_layers = graph.num_layers();
    // Fast-memory demand per layer if the plan is followed.
    let mut demand = vec![0f64; num_layers];
    for t in graph.tensors() {
        if let Some((first, last)) = t.layer_span() {
            for d in demand.iter_mut().take(last + 1).skip(first) {
                *d += t.bytes as f64;
            }
        }
    }
    let mut transfer_exposure = 0f64;
    for (c, &s) in candidates.iter().zip(genome) {
        if !s {
            continue;
        }
        // Swapped out during the gap: free its bytes there.
        for d in demand.iter_mut().take(c.last).skip(c.first + 1) {
            *d -= c.bytes as f64;
        }
        // Transfer both ways; assume one layer of overlap each way.
        let per_layer_overlap = 2.0e6; // ns, coarse uniform estimate
        transfer_exposure += (2.0 * c.bytes as f64 / bw - 2.0 * per_layer_overlap).max(0.0);
    }
    // Overflow beyond device memory is charged at a slow-access premium.
    let overflow: f64 = demand.iter().map(|&d| (d - fast_bytes as f64).max(0.0)).sum();
    overflow * 0.5 + transfer_exposure
}

/// Seeded GA over swap plans. Both hot fan-outs run on `pool`: fitness is a
/// pure function of the genome, so per-candidate evaluation parallelizes
/// as-is, and each child of a generation is bred from an RNG stream forked
/// off the main seed serially *before* the fan-out — the stream a child
/// sees depends only on its index, never on worker interleaving, keeping
/// the search seed-deterministic at any worker count.
fn ga_search(
    graph: &Graph,
    candidates: &[Candidate],
    fast_bytes: u64,
    bw: f64,
    pool: Pool,
) -> Vec<bool> {
    let n = candidates.len();
    if n == 0 {
        return Vec::new();
    }
    let mut rng = Rng::seed_from_u64(SEED);
    let mut population: Vec<Vec<bool>> =
        (0..POPULATION).map(|_| (0..n).map(|_| rng.gen_bool(0.5)).collect()).collect();

    let mut best = population[0].clone();
    let mut best_cost = fitness(graph, candidates, &best, fast_bytes, bw);
    for _ in 0..GENERATIONS {
        let costs: Vec<f64> = pool.par_map((0..POPULATION).collect(), |p| {
            fitness(graph, candidates, &population[p], fast_bytes, bw)
        });
        for (g, &c) in population.iter().zip(&costs) {
            if c < best_cost {
                best_cost = c;
                best = g.clone();
            }
        }
        // Tournament selection + uniform crossover + mutation, one forked
        // stream per child.
        let streams: Vec<Rng> = (0..POPULATION).map(|_| rng.fork()).collect();
        population = pool.par_map(streams, |mut rng| {
            let pick = |rng: &mut Rng| {
                let a = rng.gen_usize(0, POPULATION);
                let b = rng.gen_usize(0, POPULATION);
                if costs[a] <= costs[b] {
                    a
                } else {
                    b
                }
            };
            let (pa, pb) = (pick(&mut rng), pick(&mut rng));
            (0..n)
                .map(|i| {
                    let gene = if rng.gen_bool(0.5) { population[pa][i] } else { population[pb][i] };
                    if rng.gen_bool(MUTATION) {
                        !gene
                    } else {
                        gene
                    }
                })
                .collect()
        });
    }
    best
}

impl MemoryManager for SwapAdvisor {
    fn name(&self) -> &str {
        "swapadvisor"
    }

    fn before_layer(&mut self, layer: usize, ctx: &mut ExecCtx<'_>) {
        self.current_layer = layer;
        // Swap-in two layers ahead of the backward use.
        let movers: Vec<TensorId> = (0..self.swap.len())
            .filter(|&i| self.swap[i])
            .map(|i| TensorId(i as u32))
            .filter(|&t| ctx.is_live(t) && ctx.tensor_bytes_in(t, Tier::Slow) > 0)
            .filter(|&t| matches!(self.schedule.next_use(t, layer), Some(n) if n <= layer + 2))
            .collect();
        for t in movers {
            let _ = ctx.migrate_tensor(t, Tier::Fast);
        }
    }

    fn after_layer(&mut self, layer: usize, ctx: &mut ExecCtx<'_>) {
        // Swap-out inside the gap — but never within the swap-in horizon,
        // which would undo the incoming transfer.
        let victims: Vec<TensorId> = self
            .candidates
            .iter()
            .zip(&self.plan)
            .filter(|&(_, &s)| s)
            .map(|(c, _)| c)
            .filter(|c| layer >= c.first && layer + 1 < c.last)
            .map(|c| c.t)
            .filter(|&t| self.schedule.next_use(t, layer + 1).is_none_or(|n| n > layer + 3))
            .filter(|&t| ctx.is_live(t) && ctx.tensor_bytes_in(t, Tier::Fast) > 0)
            .collect();
        for t in victims {
            let _ = ctx.migrate_tensor(t, Tier::Slow);
        }
    }

    fn before_access(&mut self, tensor: TensorId, _kind: AccessKind, ctx: &mut ExecCtx<'_>) {
        if !ctx.is_live(tensor) || ctx.tensor_bytes_in(tensor, Tier::Slow) == 0 {
            return;
        }
        if self.swap[tensor.index()] {
            // Wait for a late planned swap-in before falling back to a
            // demand fault.
            if let Some(pages) = ctx.placement(tensor).map(|a| a.pages) {
                if let Some(ready) = ctx.mem().range_ready_at(pages) {
                    ctx.stall_until(ready);
                }
            }
        }
        if ctx.tensor_bytes_in(tensor, Tier::Slow) > 0 {
            ensure_resident_sync(ctx, tensor, &self.schedule, self.current_layer);
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

    #[test]
    fn ga_is_deterministic() {
        let g = graph();
        let a = SwapAdvisor::plan_for(&g, g.peak_live_bytes() / 5, 12.0);
        let b = SwapAdvisor::plan_for(&g, g.peak_live_bytes() / 5, 12.0);
        assert_eq!(a.plan, b.plan);
    }

    #[test]
    fn ga_plan_is_independent_of_worker_count() {
        let g = graph();
        let fast = g.peak_live_bytes() / 5;
        let serial = SwapAdvisor::plan_for_with_pool(&g, fast, 12.0, sentinel_util::Pool::new(1));
        for workers in [2, 4, 7] {
            let parallel =
                SwapAdvisor::plan_for_with_pool(&g, fast, 12.0, sentinel_util::Pool::new(workers));
            assert_eq!(serial.plan, parallel.plan, "{workers} workers changed the GA plan");
        }
    }

    #[test]
    fn tight_memory_swaps_more() {
        let g = graph();
        let tight = SwapAdvisor::plan_for(&g, g.peak_live_bytes() / 10, 12.0);
        let roomy = SwapAdvisor::plan_for(&g, g.peak_live_bytes() * 2, 12.0);
        assert!(tight.swapped_count() >= roomy.swapped_count());
        assert!(tight.swapped_count() > 0);
    }

    #[test]
    fn swapadvisor_beats_slow_only() {
        let g = graph();
        let cfg = HmConfig::gpu_like().without_cache().with_fast_capacity(g.peak_live_bytes() / 4);
        let mut p = SwapAdvisor::plan_for(&g, cfg.fast.capacity_bytes, cfg.promote_bw_bytes_per_ns);
        let sa = Executor::new(&g, MemorySystem::new(cfg.clone())).run(&mut p, 4).unwrap();
        let slow =
            Executor::new(&g, MemorySystem::new(cfg)).run(&mut SingleTier::slow(), 4).unwrap();
        assert!(sa.steady_step_ns() < slow.steady_step_ns());
    }
}
