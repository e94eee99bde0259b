//! The profiling run: one training step with page-aligned allocation and
//! poison-fault access counting.
//!
//! This reproduces the paper's profiling phase end to end: the runtime makes
//! every allocation page-aligned ("each memory page has only one tensor"),
//! the OS counts page accesses by poisoning PTEs, and because of the
//! alignment those page counts *are* tensor counts. Profiling runs entirely
//! in slow memory and therefore "does not increase the consumption of fast
//! memory" (Section III-A).

use crate::profile::{ProfileReport, TensorProfile};
use sentinel_dnn::{ExecCtx, ExecError, Executor, Graph, MemoryManager, PoolSpec, Tensor, TensorId};
use sentinel_mem::{HmConfig, MemorySystem, Ns, PageRange, Tier};

/// The profiling step as a policy: page-aligned per-tensor pools, slow-tier
/// placement and per-layer timing marks. Steps before the profiled one run
/// the same way, unprofiled (warmup); the profiled step runs under
/// poison-fault counting and its end builds the [`ProfileReport`].
///
/// [`Profiler::profile`] drives it alone; Sentinel's runtime forwards its
/// own hooks to it until the report is ready.
#[derive(Debug)]
pub struct ProfilingPolicy {
    /// Index of the step to profile.
    step: usize,
    pages_of: Vec<Option<PageRange>>,
    layer_start: (Ns, Ns),
    layer_times: Vec<Ns>,
    /// Clock at the start of the profiled step, while it runs.
    step_start: Option<Ns>,
    report: Option<ProfileReport>,
}

impl ProfilingPolicy {
    /// A recorder that profiles step `step` (0-based); earlier steps are
    /// unprofiled warmup.
    #[must_use]
    pub fn new(step: usize) -> Self {
        ProfilingPolicy {
            step,
            pages_of: Vec::new(),
            layer_start: (0, 0),
            layer_times: Vec::new(),
            step_start: None,
            report: None,
        }
    }

    /// The report, once the profiled step has ended. Take-once.
    pub fn take_report(&mut self) -> Option<ProfileReport> {
        self.report.take()
    }
}

impl MemoryManager for ProfilingPolicy {
    fn name(&self) -> &str {
        "profiling"
    }

    fn on_train_begin(&mut self, ctx: &mut ExecCtx<'_>) {
        self.pages_of = vec![None; ctx.graph().num_tensors()];
    }

    fn on_step_begin(&mut self, ctx: &mut ExecCtx<'_>) {
        if ctx.step() == self.step {
            self.step_start = Some(ctx.now());
            ctx.mem_mut().start_profiling();
        }
    }

    fn pool_for(&mut self, tensor: &Tensor, _ctx: &ExecCtx<'_>) -> PoolSpec {
        // One page-aligned pool per tensor: no page is ever shared and no
        // page is ever reused by a different tensor, so per-page fault counts
        // attribute uniquely.
        PoolSpec::page_aligned(u64::from(tensor.id.0) + 1)
    }

    fn tier_for(&mut self, _tensor: &Tensor, _ctx: &ExecCtx<'_>) -> Tier {
        Tier::Slow
    }

    fn on_alloc(&mut self, tensor: TensorId, ctx: &mut ExecCtx<'_>) {
        self.pages_of[tensor.index()] = ctx.placement(tensor).map(|a| a.pages);
    }

    fn before_layer(&mut self, _layer: usize, ctx: &mut ExecCtx<'_>) {
        if self.step_start.is_some() {
            self.layer_start = (ctx.now(), ctx.breakdown().profiling_fault_ns);
        }
    }

    fn after_layer(&mut self, _layer: usize, ctx: &mut ExecCtx<'_>) {
        if self.step_start.is_some() {
            let wall = ctx.now() - self.layer_start.0;
            let fault = ctx.breakdown().profiling_fault_ns - self.layer_start.1;
            self.layer_times.push(wall.saturating_sub(fault));
        }
    }

    fn on_step_end(&mut self, ctx: &mut ExecCtx<'_>) {
        let Some(start) = self.step_start.take() else { return };
        let profiling_step_ns = ctx.now() - start;
        let map = ctx.mem_mut().stop_profiling();
        let graph = ctx.graph();
        let tensors = graph
            .tensors()
            .iter()
            .map(|t| {
                let pages = self.pages_of[t.id.index()];
                let page_faults = pages.map_or(0, |r| map.count_range(r));
                let page_count = pages.map_or(0, |r| r.count);
                TensorProfile {
                    id: t.id,
                    bytes: t.bytes,
                    kind: t.kind,
                    short_lived: t.is_short_lived(),
                    layer_span: t.layer_span(),
                    mm_accesses: page_faults.div_ceil(page_count.max(1)),
                    page_faults,
                    pages: page_count,
                }
            })
            .collect();
        let layer_times_ns = std::mem::take(&mut self.layer_times);
        self.report = Some(ProfileReport {
            model: graph.name().to_owned(),
            page_size: ctx.mem().page_size(),
            tensors,
            layer_time_prefix: ProfileReport::prefix_sums(&layer_times_ns),
            layer_times_ns,
            profiling_step_ns,
            faults: map.total(),
            peak_short_lived_bytes: graph.peak_short_lived_bytes(),
            peak_live_bytes: graph.peak_live_bytes(),
        });
    }
}

/// Profiling runner: profiles the first training step on a fresh memory
/// system of the given platform.
///
/// ```
/// use sentinel_models::{ModelSpec, ModelZoo};
/// use sentinel_profiler::Profiler;
/// use sentinel_mem::HmConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = ModelZoo::build(&ModelSpec::resnet(20, 4).with_scale(4))?;
/// let report = Profiler::new(HmConfig::optane_like()).profile(&graph)?;
/// assert_eq!(report.tensors.len(), graph.num_tensors());
/// assert!(report.faults > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Profiler {
    cfg: HmConfig,
}

impl Profiler {
    /// A profiler for the given platform.
    #[must_use]
    pub fn new(cfg: HmConfig) -> Self {
        Profiler { cfg }
    }

    /// Profile one training step of `graph`.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] if the graph cannot execute (e.g. slow
    /// memory smaller than the model's peak footprint).
    pub fn profile(&self, graph: &Graph) -> Result<ProfileReport, ExecError> {
        let mut exec = Executor::new(graph, MemorySystem::new(self.cfg.clone()));
        let mut policy = ProfilingPolicy::new(0);
        exec.run_step(&mut policy)?;
        Ok(policy.take_report().expect("the profiled step builds its report"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_models::{ModelSpec, ModelZoo};

    fn small_graph() -> Graph {
        ModelZoo::build(&ModelSpec::resnet(20, 4).with_scale(4)).unwrap()
    }

    #[test]
    fn profiling_counts_every_layer() {
        let g = small_graph();
        let r = Profiler::new(HmConfig::testing().with_slow_capacity(1 << 30)).profile(&g).unwrap();
        assert_eq!(r.layer_times_ns.len(), g.num_layers());
        assert!(r.layer_times_ns.iter().all(|&t| t > 0));
    }

    #[test]
    fn every_used_tensor_gets_counted() {
        let g = small_graph();
        let r = Profiler::new(HmConfig::testing().with_slow_capacity(1 << 30)).profile(&g).unwrap();
        // Without a cache filter every referenced tensor has accesses.
        let uncounted = r.tensors.iter().filter(|t| t.mm_accesses == 0).count();
        assert_eq!(uncounted, 0, "{uncounted} tensors with zero accesses");
        assert_eq!(r.faults, r.total_page_faults());
    }

    #[test]
    fn cache_filter_reduces_counts_for_small_tensors() {
        let g = small_graph();
        let no_cache = Profiler::new(HmConfig::optane_like().without_cache()).profile(&g).unwrap();
        let cached = Profiler::new(HmConfig::optane_like()).profile(&g).unwrap();
        assert!(cached.total_page_faults() < no_cache.total_page_faults());
    }

    #[test]
    fn access_counts_are_skewed() {
        // Observation 2: uneven distribution of hot and cold tensors. The
        // scaled-down test model fits in the cache filter, which would hide
        // the skew, so profile without it (full-size runs keep it on).
        let g = ModelZoo::build(&ModelSpec::lstm(4).with_scale(8)).unwrap();
        let r = Profiler::new(HmConfig::optane_like().without_cache()).profile(&g).unwrap();
        let order = r.hot_order();
        let hottest = r.tensor(order[0]).mm_accesses;
        let coldest = r.tensor(*order.last().unwrap()).mm_accesses;
        assert!(hottest >= 10 * (coldest + 1), "hottest {hottest}, coldest {coldest}");
    }

    #[test]
    fn warmup_steps_do_not_change_counts_much() {
        let g = small_graph();
        let cfg = HmConfig::testing().with_slow_capacity(1 << 30);
        let direct = Profiler::new(cfg.clone()).profile(&g).unwrap();
        // Two unprofiled warmup steps, then the profiled one.
        let mut exec = Executor::new(&g, MemorySystem::new(cfg));
        let mut policy = ProfilingPolicy::new(2);
        for _ in 0..3 {
            exec.run_step(&mut policy).unwrap();
        }
        let warmed = policy.take_report().unwrap();
        assert_eq!(direct.total_page_faults(), warmed.total_page_faults());
    }

    #[test]
    fn profiling_stays_out_of_fast_memory() {
        let g = small_graph();
        let cfg = HmConfig::testing().with_slow_capacity(1 << 30);
        let mem = MemorySystem::new(cfg);
        let mut exec = Executor::new(&g, mem);
        let mut policy = ProfilingPolicy::new(0);
        exec.run_step(&mut policy).unwrap();
        assert_eq!(exec.ctx().mem().used_pages(Tier::Fast), 0);
    }
}
