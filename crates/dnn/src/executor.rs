//! The training-step executor.
//!
//! Drives the dataflow graph over the simulated memory system under a
//! [`MemoryManager`] policy: allocates tensors at first use, times every
//! operand access, charges compute, frees tensors after their last use and
//! invokes the policy hooks at each boundary.

use crate::ctx::ExecCtx;
use crate::error::ExecError;
use crate::graph::Graph;
use crate::manager::MemoryManager;
use crate::report::{StepReport, TrainReport};
use crate::tensor::{OpRef, TensorId};
use sentinel_mem::{AccessKind, MemError, MemorySystem, Tier, TraceTrack};
use sentinel_util::Json;

/// Number of allocation retries after capacity-pressure handling before the
/// executor overflows to the other tier.
const PRESSURE_RETRIES: usize = 4;

/// Executes training steps of one graph against one memory system.
///
/// ```
/// use sentinel_dnn::{Executor, GraphBuilder, OpKind, SingleTier, TensorKind};
/// use sentinel_mem::{HmConfig, MemorySystem};
///
/// # fn main() -> Result<(), sentinel_dnn::ExecError> {
/// let mut b = GraphBuilder::new("tiny", 1);
/// let x = b.tensor("x", 4096, TensorKind::Input);
/// let y = b.tensor("y", 4096, TensorKind::Activation);
/// b.begin_layer("l0");
/// b.op("f", OpKind::Other, 1000).reads(&[x]).writes(&[y]).push();
/// let graph = b.finish().expect("valid graph");
///
/// let mem = MemorySystem::new(HmConfig::testing());
/// let mut exec = Executor::new(&graph, mem);
/// let mut policy = SingleTier::slow();
/// let report = exec.run(&mut policy, 3)?;
/// assert_eq!(report.steps_executed(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Executor<'g> {
    ctx: ExecCtx<'g>,
    started: bool,
    steps_run: usize,
}

impl<'g> Executor<'g> {
    /// Build an executor for `graph` over `mem`.
    #[must_use]
    pub fn new(graph: &'g Graph, mem: MemorySystem) -> Self {
        Executor { ctx: ExecCtx::new(graph, mem), started: false, steps_run: 0 }
    }

    /// The execution context (clock, memory, placements).
    #[must_use]
    pub fn ctx(&self) -> &ExecCtx<'g> {
        &self.ctx
    }

    /// Mutable execution context, for orchestration layers (e.g. Sentinel's
    /// runtime switching profiling on and off between steps).
    #[must_use]
    pub fn ctx_mut(&mut self) -> &mut ExecCtx<'g> {
        &mut self.ctx
    }

    /// Consume the executor, returning the memory system for inspection.
    #[must_use]
    pub fn into_mem(self) -> MemorySystem {
        self.ctx.into_mem()
    }

    /// Run `steps` training steps, returning the aggregated report.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] from allocation or policy actions.
    pub fn run(&mut self, policy: &mut dyn MemoryManager, steps: usize) -> Result<TrainReport, ExecError> {
        let mut report = TrainReport {
            model: self.ctx.graph().name().to_owned(),
            policy: policy.name().to_owned(),
            batch: self.ctx.graph().batch(),
            steps: Vec::with_capacity(steps),
        };
        for _ in 0..steps {
            report.steps.push(self.run_step(policy)?);
        }
        policy.on_train_end(&mut self.ctx);
        Ok(report)
    }

    /// Allocate preallocated tensors (weights, inputs, optimizer state) and
    /// fire `on_train_begin`. Called automatically by the first step.
    ///
    /// # Errors
    ///
    /// [`ExecError::OutOfMemory`] if neither tier can hold a tensor.
    pub fn train_begin(&mut self, policy: &mut dyn MemoryManager) -> Result<(), ExecError> {
        if self.started {
            return Ok(());
        }
        self.started = true;
        policy.on_train_begin(&mut self.ctx);
        let prealloc: Vec<TensorId> =
            self.ctx.graph().preallocated().map(|t| t.id).collect();
        for t in prealloc {
            self.allocate(policy, t)?;
        }
        Ok(())
    }

    /// Execute one training step under `policy`.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] from allocation or policy actions, and
    /// surfaces any residency-sanitizer violation latched during the step
    /// as [`ExecError::Mem`] with [`sentinel_mem::MemError::InvariantViolation`].
    pub fn run_step(&mut self, policy: &mut dyn MemoryManager) -> Result<StepReport, ExecError> {
        self.train_begin(policy)?;
        let step = self.steps_run;
        self.ctx.begin_step(step);
        let start_ns = self.ctx.now();
        let stats_before = self.ctx.mem().stats().clone();
        let faults_before = self.ctx.mem().fault_counters();

        let tracer = self.ctx.mem().tracer().clone();
        policy.on_step_begin(&mut self.ctx);
        let num_layers = self.ctx.graph().num_layers();
        for li in 0..num_layers {
            let layer_start_ns = self.ctx.now();
            policy.before_layer(li, &mut self.ctx);
            let num_ops = self.ctx.graph().layers()[li].ops.len();
            for oi in 0..num_ops {
                let at = OpRef { layer: li, op: oi };
                self.run_op(policy, at)?;
            }
            policy.after_layer(li, &mut self.ctx);
            if tracer.full() {
                tracer.span(
                    TraceTrack::Steps,
                    "exec",
                    self.ctx.graph().layers()[li].name.clone(),
                    layer_start_ns,
                    self.ctx.now() - layer_start_ns,
                    vec![("layer", Json::U64(li as u64))],
                );
            }
        }
        policy.on_step_end(&mut self.ctx);
        self.ctx.poll();
        if let Some(violation) = self.ctx.mem().sanitizer_violation() {
            return Err(ExecError::Mem(violation.clone()));
        }
        // Drained after the final poll so the ledger's last record covers
        // completions applied there, and before the stats snapshot below so
        // per-step ledger sums reconcile with the report deltas exactly.
        let intervals =
            if tracer.enabled() { policy.step_ledger(&self.ctx) } else { Vec::new() };
        let warnings = policy.step_warnings();
        if tracer.enabled() {
            tracer.span(
                TraceTrack::Steps,
                "exec",
                format!("step {step}"),
                start_ns,
                self.ctx.now() - start_ns,
                vec![("step", Json::U64(step as u64))],
            );
        }

        self.steps_run += 1;
        let stats_after = self.ctx.mem().stats().clone();
        let breakdown = self.ctx.take_breakdown();
        Ok(StepReport {
            step,
            duration_ns: self.ctx.now() - start_ns,
            breakdown,
            promoted_bytes: stats_after.promoted_bytes - stats_before.promoted_bytes,
            demoted_bytes: stats_after.demoted_bytes - stats_before.demoted_bytes,
            fast_accesses: stats_after.mm_accesses[Tier::Fast.index()]
                - stats_before.mm_accesses[Tier::Fast.index()],
            slow_accesses: stats_after.mm_accesses[Tier::Slow.index()]
                - stats_before.mm_accesses[Tier::Slow.index()],
            faults: stats_after.profiling_faults - stats_before.profiling_faults,
            peak_fast_pages: stats_after.peak_mapped_pages[Tier::Fast.index()],
            peak_total_pages: stats_after.peak_mapped_pages[Tier::Fast.index()]
                + stats_after.peak_mapped_pages[Tier::Slow.index()],
            fault: self.ctx.mem().fault_counters().delta(&faults_before),
            intervals,
            warnings,
        })
    }

    fn run_op(&mut self, policy: &mut dyn MemoryManager, at: OpRef) -> Result<(), ExecError> {
        // The graph outlives the context borrow, so the op's operands are
        // walked in place while the context is mutated.
        let graph = self.ctx.graph();
        let op = &graph.layers()[at.layer].ops[at.op];

        // Allocate outputs (and op-internal temporaries) on first use.
        for o in &op.writes {
            if !self.ctx.is_live(o.tensor) {
                self.allocate(policy, o.tensor)?;
            }
        }
        policy.before_op(at, &mut self.ctx);

        for o in &op.reads {
            policy.before_access(o.tensor, AccessKind::Read, &mut self.ctx);
            if !self.ctx.is_live(o.tensor) {
                // A policy dropped it (recompute flow) and failed to restore.
                return Err(ExecError::NotAllocated { tensor: o.tensor });
            }
            for _ in 0..o.passes {
                self.ctx.access_tensor(o.tensor, AccessKind::Read)?;
            }
        }
        self.ctx.charge_compute(op.flops);
        for o in &op.writes {
            policy.before_access(o.tensor, AccessKind::Write, &mut self.ctx);
            for _ in 0..o.passes {
                self.ctx.access_tensor(o.tensor, AccessKind::Write)?;
            }
        }
        policy.after_op(at, &mut self.ctx);

        // Free tensors whose last reference this op was. A tensor the op
        // names twice is released at its first sighting; at the second it
        // is no longer live.
        for t in op.referenced() {
            let tensor = graph.tensor(t);
            if tensor.last_ref == Some(at) && !tensor.preallocated() && self.ctx.is_live(t) {
                policy.on_free(t, &mut self.ctx);
                if self.ctx.is_live(t) {
                    self.ctx.release(t)?;
                }
            }
        }
        Ok(())
    }

    fn allocate(&mut self, policy: &mut dyn MemoryManager, t: TensorId) -> Result<(), ExecError> {
        let tensor = self.ctx.graph().tensor(t);
        let spec = policy.pool_for(tensor, &self.ctx);
        let mut tier = policy.tier_for(tensor, &self.ctx);
        let mut tried_other = false;
        let mut retries = 0;
        loop {
            match self.ctx.allocate_with(t, spec, tier) {
                Ok(()) => {
                    policy.on_alloc(t, &mut self.ctx);
                    return Ok(());
                }
                Err(ExecError::Mem(MemError::CapacityExceeded { requested_pages, .. })) => {
                    if retries < PRESSURE_RETRIES
                        && policy.on_capacity_pressure(tier, requested_pages, &mut self.ctx)
                    {
                        retries += 1;
                        continue;
                    }
                    if !tried_other {
                        tried_other = true;
                        retries = 0;
                        tier = tier.other();
                        continue;
                    }
                    return Err(ExecError::OutOfMemory { tensor: t, bytes: tensor.bytes });
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::manager::SingleTier;
    use crate::tensor::TensorKind;
    use crate::OpKind;
    use sentinel_mem::HmConfig;

    /// Two-layer graph: fwd produces an activation + temp, bwd consumes it.
    fn graph() -> Graph {
        let mut b = GraphBuilder::new("g", 2);
        let w = b.tensor("w", 4096, TensorKind::Weight);
        let x = b.tensor("x", 8192, TensorKind::Input);
        let tmp = b.tensor("tmp", 1024, TensorKind::Temporary);
        let act = b.tensor("act", 8192, TensorKind::Activation);
        let grad = b.tensor("grad", 4096, TensorKind::WeightGrad);
        b.begin_layer("fwd");
        b.op("pad", OpKind::Pad, 100).reads(&[x]).writes(&[tmp]).push();
        b.op("conv", OpKind::Conv2d, 10_000).reads(&[w, tmp]).writes(&[act]).push();
        b.begin_layer("bwd");
        b.op("dconv", OpKind::Conv2d, 20_000).reads(&[w, act]).writes(&[grad]).push();
        b.op("upd", OpKind::WeightUpdate, 100).reads(&[grad]).writes(&[w]).push();
        b.finish().unwrap()
    }

    fn mem() -> MemorySystem {
        MemorySystem::new(HmConfig::testing())
    }

    #[test]
    fn run_produces_per_step_reports() {
        let g = graph();
        let mut e = Executor::new(&g, mem());
        let mut p = SingleTier::slow();
        let r = e.run(&mut p, 4).unwrap();
        assert_eq!(r.steps_executed(), 4);
        assert!(r.steps.iter().all(|s| s.duration_ns > 0));
        assert_eq!(r.policy, "slow-only");
        assert_eq!(r.model, "g");
    }

    #[test]
    fn steps_are_deterministic_and_stable() {
        let g = graph();
        let mut e = Executor::new(&g, mem());
        let mut p = SingleTier::slow();
        let r = e.run(&mut p, 3).unwrap();
        // After warmup, steps repeat exactly (same graph, same placements).
        assert_eq!(r.steps[1].duration_ns, r.steps[2].duration_ns);

        let mut e2 = Executor::new(&g, mem());
        let r2 = e2.run(&mut SingleTier::slow(), 3).unwrap();
        assert_eq!(r.steps, r2.steps);
    }

    #[test]
    fn fast_only_beats_slow_only() {
        let g = graph();
        let fast = Executor::new(&g, mem()).run(&mut SingleTier::fast(), 3).unwrap();
        let slow = Executor::new(&g, mem()).run(&mut SingleTier::slow(), 3).unwrap();
        assert!(fast.steady_step_ns() < slow.steady_step_ns());
    }

    #[test]
    fn runtime_tensors_are_freed_after_last_use() {
        let g = graph();
        let mut e = Executor::new(&g, mem());
        let mut p = SingleTier::slow();
        e.run(&mut p, 2).unwrap();
        // After a full step only preallocated tensors remain live.
        assert!(e.ctx().is_live(TensorId(0))); // weight
        assert!(e.ctx().is_live(TensorId(1))); // input
        assert!(!e.ctx().is_live(TensorId(2))); // temp
        assert!(!e.ctx().is_live(TensorId(3))); // activation
        assert!(!e.ctx().is_live(TensorId(4))); // gradient
    }

    #[test]
    fn overflow_to_other_tier_when_full() {
        // Fast tier: 16 pages = 64 KiB. Graph needs ~26 KiB; shrink fast to
        // 2 pages to force overflow.
        let g = graph();
        let cfg = HmConfig::testing().with_fast_capacity(2 * 4096);
        let mut e = Executor::new(&g, MemorySystem::new(cfg));
        let mut p = SingleTier::fast();
        let r = e.run(&mut p, 2).unwrap();
        assert_eq!(r.steps_executed(), 2);
        // Some accesses must have landed in slow memory.
        assert!(r.steps[1].slow_accesses > 0);
    }

    #[test]
    fn out_of_memory_when_both_tiers_full() {
        let g = graph();
        let cfg = HmConfig::testing().with_fast_capacity(4096).with_slow_capacity(4096);
        let mut e = Executor::new(&g, MemorySystem::new(cfg));
        let mut p = SingleTier::fast();
        let err = e.run(&mut p, 1);
        assert!(matches!(err, Err(ExecError::OutOfMemory { .. })));
    }

    #[test]
    fn compute_time_is_charged() {
        let g = graph();
        let mut e = Executor::new(&g, mem());
        let mut p = SingleTier::fast();
        let r = e.run(&mut p, 1).unwrap();
        // 30 200 flops at 1 flop/ns.
        assert_eq!(r.steps[0].breakdown.compute_ns, 30_200);
    }

    #[test]
    fn policy_hooks_fire_in_order() {
        #[derive(Default)]
        struct Recorder {
            events: Vec<String>,
        }
        impl MemoryManager for Recorder {
            fn name(&self) -> &str {
                "recorder"
            }
            fn on_train_begin(&mut self, _ctx: &mut ExecCtx<'_>) {
                self.events.push("train_begin".into());
            }
            fn on_step_begin(&mut self, _ctx: &mut ExecCtx<'_>) {
                self.events.push("step_begin".into());
            }
            fn before_layer(&mut self, layer: usize, _ctx: &mut ExecCtx<'_>) {
                self.events.push(format!("layer{layer}"));
            }
            fn tier_for(&mut self, _t: &crate::Tensor, _ctx: &ExecCtx<'_>) -> Tier {
                Tier::Slow
            }
            fn on_step_end(&mut self, _ctx: &mut ExecCtx<'_>) {
                self.events.push("step_end".into());
            }
        }
        let g = graph();
        let mut e = Executor::new(&g, mem());
        let mut p = Recorder::default();
        e.run_step(&mut p).unwrap();
        assert_eq!(p.events, vec!["train_begin", "step_begin", "layer0", "layer1", "step_end"]);
    }
}
