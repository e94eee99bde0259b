//! The Sentinel memory-management policy.
//!
//! One [`SentinelPolicy`] drives a whole training run through three phases:
//! optional unprofiled warmup steps, one profiling step (page-aligned
//! allocation in slow memory + poison-fault counting), and managed steps in
//! which tensors are co-allocated by lifetime/hotness group, short-lived
//! tensors live in a reserved fast-memory region, and long-lived tensors are
//! migrated per the adaptive layer-based interval plan of Section IV-D. The
//! first two phases are the profiler's own [`ProfilingPolicy`]: the policy
//! forwards its hooks to it and plans from the report it builds.

use crate::adapt::{
    AdaptReport, AdaptState, AdaptWarning, DriftVerdict, Observation, PendingObservation,
    MAX_RESOLVES_PER_RUN,
};
use crate::config::{Case3Policy, SentinelConfig};
use crate::error::SentinelError;
use crate::interval::{solve_mil, IntervalPlan, MilSolution};
use crate::reorg::ReorgPlan;
use crate::schedule::IntervalSets;
use sentinel_dnn::{ExecCtx, IntervalRecord, MemoryManager, PoolSpec, Schedule, Tensor, TensorId};
use sentinel_mem::{pages_for_bytes, Ns, PageRange, SanitizerMode, Tier, TraceTrack};
use sentinel_profiler::{ProfileReport, ProfilingPolicy, TensorDelta};
use sentinel_util::Json;
use std::collections::{HashMap, HashSet};

/// Counters describing one Sentinel run (Table III / IV material).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SentinelStats {
    /// Migration interval length chosen by the solver (or override).
    pub mil: usize,
    /// Case-2 occurrences: prefetch blocked by lack of fast-memory space.
    pub case2_events: u64,
    /// Case-3 occurrences: an interval started before its prefetch finished.
    pub case3_events: u64,
    /// Training steps that carried a test-and-trial measurement.
    pub trial_steps: u64,
    /// Steps used for profiling (always 1) plus warmup.
    pub profiling_steps: u64,
    /// Fast-memory pages reserved for short-lived tensors.
    pub reserve_pages: u64,
    /// Stall time attributed to Case-3 waits at interval boundaries.
    pub stall_case3_ns: u64,
    /// Stall time attributed to demand faults (GPU platform).
    pub stall_fault_ns: u64,
    /// Stall time attributed to capacity-pressure evictions.
    pub stall_pressure_ns: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Choice {
    Wait,
    Leave,
}

#[derive(Debug, Clone, Copy, Default)]
struct Case3State {
    wait_cost: Option<Ns>,
    leave_cost: Option<Ns>,
    decided: Option<Choice>,
}

impl Case3State {
    fn next_choice(&self) -> (Choice, bool) {
        if let Some(c) = self.decided {
            return (c, false);
        }
        if self.wait_cost.is_none() {
            (Choice::Wait, true)
        } else {
            (Choice::Leave, true)
        }
    }

    fn record(&mut self, choice: Choice, cost: Ns) {
        match choice {
            Choice::Wait => self.wait_cost = Some(cost),
            Choice::Leave => self.leave_cost = Some(cost),
        }
        if let (Some(w), Some(l)) = (self.wait_cost, self.leave_cost) {
            self.decided = Some(if w <= l { Choice::Wait } else { Choice::Leave });
        }
    }
}

/// An interval ledger record still being accumulated: the record plus the
/// counter values snapshotted when it opened, so closing it can turn the
/// monotone run-level counters into per-interval deltas.
#[derive(Debug, Clone)]
struct OpenInterval {
    rec: IntervalRecord,
    promoted0: u64,
    demoted0: u64,
    retries0: u64,
    abandoned0: u64,
    stall_case3_0: Ns,
}

/// One victim of a quota-driven cold demotion
/// ([`SentinelPolicy::demote_cold_for_quota`]), with the evidence that it
/// was cold when taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedTensor {
    /// The demoted tensor.
    pub tensor: TensorId,
    /// Fast pages it occupied when demoted.
    pub pages: u64,
    /// Its next use as an absolute layer index (cyclic, from layer 0);
    /// `None` if the schedule never sees it again.
    pub next_use: Option<usize>,
    /// First layer *after* the upcoming interval: victims are cold because
    /// `next_use` is `None` or at/beyond this boundary.
    pub boundary: usize,
}

/// The Sentinel runtime as a [`MemoryManager`] policy.
#[derive(Debug)]
pub struct SentinelPolicy {
    cfg: SentinelConfig,
    /// The profiling-step recorder every hook defers to through warmup and
    /// the profiling step; `None` once its report is taken and the policy
    /// manages memory itself.
    profiling: Option<ProfilingPolicy>,
    // Managed-phase state (built at the end of the profiling step).
    schedule: Option<Schedule>,
    profile: Option<ProfileReport>,
    reorg: Option<ReorgPlan>,
    plan: Option<IntervalPlan>,
    /// Plan-time per-interval working-set table, built and swapped
    /// together with `plan`.
    interval_sets: Option<IntervalSets>,
    mil_solution: Option<MilSolution>,
    live_short_bytes: u64,
    /// Per-tensor flag: a short-lived tensor allocated entirely in fast
    /// memory, which the policy promises never to migrate (paper: the
    /// short-lived reserve region is static). Checked at free.
    short_fast: Vec<bool>,
    /// First policy-level invariant violation (latched, like the memory
    /// sanitizer's): a short-lived reserve-region tensor found partly in
    /// slow memory when freed.
    violation: Option<String>,
    // Case bookkeeping.
    case3_states: HashMap<usize, Case3State>,
    /// Active interval measurement: (interval, start time, trial choice).
    interval_mark: Option<(usize, Ns, Option<Choice>)>,
    trial_step_flag: bool,
    current_layer_hint: usize,
    stats: SentinelStats,
    // Interval-ledger state, maintained only while the memory system's
    // tracer is enabled (the ledger feeds the step report and the trace).
    ledger: Vec<IntervalRecord>,
    open_interval: Option<OpenInterval>,
    /// Intervals whose prefetch was blocked by space before they opened
    /// (lookahead prefetch targets the *next* interval), pending Case-2
    /// classification.
    case2_pending: HashSet<usize>,
    /// Typed error latched by the interval solver (the profiling hook
    /// cannot return a `Result`); surfaced by `SentinelRuntime::train`.
    solver_error: Option<SentinelError>,
    /// The drift-adaptive control loop (`None` unless `cfg.adaptive` is
    /// set; with it `None` every adaptive code path is skipped and the
    /// policy runs byte-identically to the static build).
    adapt: Option<AdaptState>,
}

impl SentinelPolicy {
    /// Build a policy from a configuration.
    #[must_use]
    pub fn new(cfg: SentinelConfig) -> Self {
        let adapt = cfg.adaptive.then(AdaptState::new);
        SentinelPolicy {
            profiling: Some(ProfilingPolicy::new(cfg.profile_warmup)),
            cfg,
            schedule: None,
            profile: None,
            reorg: None,
            plan: None,
            interval_sets: None,
            mil_solution: None,
            live_short_bytes: 0,
            short_fast: Vec::new(),
            violation: None,
            case3_states: HashMap::new(),
            interval_mark: None,
            trial_step_flag: false,
            current_layer_hint: 0,
            stats: SentinelStats::default(),
            ledger: Vec::new(),
            open_interval: None,
            case2_pending: HashSet::new(),
            solver_error: None,
            adapt,
        }
    }

    /// Run counters (valid after the profiling step).
    #[must_use]
    pub fn stats(&self) -> SentinelStats {
        self.stats
    }

    /// The profile collected by the profiling step, if finished.
    #[must_use]
    pub fn profile(&self) -> Option<&ProfileReport> {
        self.profile.as_ref()
    }

    /// The interval-solver diagnostics, if solved.
    #[must_use]
    pub fn mil_solution(&self) -> Option<&MilSolution> {
        self.mil_solution.as_ref()
    }

    /// The first policy-level invariant violation found, if any (a
    /// short-lived reserve-region tensor that was migrated to slow memory).
    #[must_use]
    pub fn violation(&self) -> Option<&str> {
        self.violation.as_deref()
    }

    /// The typed error the interval solver latched during profiling, if any
    /// (the profiling hook cannot return a `Result`). Take-once.
    pub fn take_solver_error(&mut self) -> Option<SentinelError> {
        self.solver_error.take()
    }

    /// The adaptation-loop counters, if the adaptive loop is enabled.
    #[must_use]
    pub fn adapt_report(&self) -> Option<&AdaptReport> {
        self.adapt.as_ref().map(|a| &a.report)
    }

    // ------------------------------------------------------------- helpers

    fn free_for_long_pages(&self, ctx: &ExecCtx<'_>) -> u64 {
        let live_short_pages = pages_for_bytes(self.live_short_bytes, ctx.mem().page_size());
        let reserve_unused = self.stats.reserve_pages.saturating_sub(live_short_pages);
        ctx.mem().free_pages(Tier::Fast).saturating_sub(reserve_unused)
    }

    fn tensor_pages(&self, t: &Tensor, page_size: u64) -> u64 {
        pages_for_bytes(t.bytes, page_size)
    }

    /// Prefetch the long-lived tensors interval `k` (cyclic) will use,
    /// hottest first, within the fast-memory budget.
    fn prefetch_for_interval(&mut self, k: usize, ctx: &mut ExecCtx<'_>) {
        let (Some(plan), Some(sets)) = (self.plan.as_ref(), self.interval_sets.as_ref()) else {
            return;
        };
        let k = k % plan.num_intervals();
        let (s, e) = (plan.start_layer(k), plan.end_layer(k));
        // Working set in migration order, hot-first ordering baked in at
        // plan time. The live/slow-resident filter runs inside the loop,
        // which is equivalent to filtering first because migrating one
        // tensor never changes another's liveness or slow-tier residency.
        let tensors = sets.prefetch_order(k);
        let demand_only = self.adapt.as_ref().map(|a| &a.demand_only);
        let page_size = ctx.mem().page_size();
        let mut budget = self.free_for_long_pages(ctx);
        // Time budget: never queue more copy work than roughly two intervals
        // of execution can hide — otherwise the channel builds a standing
        // backlog and every prefetch lands after its interval has passed.
        // Estimated from interval compute (profiled layer times are inflated
        // by slow-memory residence during the profiling step).
        let interval_flops: u64 =
            ctx.graph().layers()[s..e].iter().flat_map(|l| &l.ops).map(|o| o.flops).sum();
        let interval_ns =
            (interval_flops as f64 / ctx.mem().config().compute_flops_per_ns) as Ns;
        let backlog_ns = ctx.mem().channel_free_at(Tier::Fast).saturating_sub(ctx.now());
        // Floor of 10 ms keeps the channel fed in bandwidth-bound regimes
        // (where interval compute alone could never hide the transfers).
        let time_budget_ns = (2 * interval_ns).max(10_000_000).saturating_sub(backlog_ns);
        let bw = ctx.mem().config().promote_bw_bytes_per_ns;
        let mut byte_budget = (time_budget_ns as f64 * bw) as u64;
        let mut blocked = false;
        for &t in tensors {
            if !ctx.is_live(t) {
                continue;
            }
            // Tensors degraded by a failed adaptation stay demand-paged.
            if demand_only.is_some_and(|d| d.contains(&t)) {
                continue;
            }
            let bytes = ctx.tensor_bytes_in(t, Tier::Slow);
            if bytes == 0 {
                continue;
            }
            let pages = pages_for_bytes(bytes, page_size);
            if pages > budget || bytes > byte_budget {
                blocked = true;
                continue; // hottest-first: try to fit smaller, colder tensors
            }
            if ctx.migrate_tensor(t, Tier::Fast).is_ok() {
                budget = budget.saturating_sub(pages);
                byte_budget = byte_budget.saturating_sub(bytes);
            }
        }
        if blocked {
            self.stats.case2_events += 1;
            if ctx.mem().tracer().enabled() {
                ctx.mem().tracer().instant(
                    TraceTrack::Intervals,
                    "interval",
                    "prefetch_blocked",
                    ctx.now(),
                    vec![("interval", Json::U64(k as u64))],
                );
                self.ledger_mark_case2(k);
            }
        }
    }

    /// Resolve Case 3 at the start of interval `k`: promotes still in
    /// flight from the previous interval's prefetch.
    ///
    /// The boundary is Case 1 iff the promote channel has drained by now
    /// (`ready_at <= now`): a copy landing exactly on the boundary belongs
    /// to the closing interval, so the boundary observes it as resident.
    fn handle_case3(&mut self, k: usize, ctx: &mut ExecCtx<'_>) {
        let ready = ctx.mem().channel_free_at(Tier::Fast);
        let case1 = ready <= ctx.now();
        // Boundary-time invariant validation (read-only; the sampled
        // event-driven sanitizer covers the hot path).
        if ctx.mem().sanitizer_mode() != SanitizerMode::Off && self.violation.is_none() {
            if let Err(e) = ctx.mem().check_invariants() {
                self.violation = Some(format!("boundary sanitizer: {e}"));
            }
        }
        if let Some(adapt) = self.adapt.as_mut() {
            adapt.report.boundary_checks += 1;
            if !case1 {
                adapt.report.boundary_misses += 1;
            }
        }
        if case1 {
            return; // Case 1: everything landed in time.
        }
        self.stats.case3_events += 1;
        if ctx.mem().tracer().enabled() {
            ctx.mem().tracer().instant(
                TraceTrack::Intervals,
                "interval",
                "case3",
                ctx.now(),
                vec![
                    ("interval", Json::U64(k as u64)),
                    ("pending_until", Json::U64(ready)),
                ],
            );
            if let Some(open) = self.open_interval.as_mut() {
                open.rec.case = 3;
            }
        }
        let choice = match self.cfg.case3 {
            Case3Policy::DemandWait => return, // per-tensor waits in before_access
            Case3Policy::AlwaysWait => (Choice::Wait, false),
            Case3Policy::AlwaysLeave => (Choice::Leave, false),
            Case3Policy::TestAndTrial => {
                let state = self.case3_states.entry(k).or_default();
                state.next_choice()
            }
        };
        let (choice, is_trial) = choice;
        if is_trial {
            self.trial_step_flag = true;
        }
        if let Some(open) = self.open_interval.as_mut() {
            open.rec.choice = match choice {
                Choice::Wait => "wait".to_owned(),
                Choice::Leave => "leave".to_owned(),
            };
        }
        match choice {
            Choice::Wait => {
                let before = ctx.now();
                ctx.stall_until(ready);
                self.stats.stall_case3_ns += ctx.now() - before;
            }
            Choice::Leave => {
                let now = ctx.now();
                ctx.mem_mut().cancel_pending_migrations(now);
            }
        }
        if let Some(mark) = self.interval_mark.as_mut() {
            // The upcoming interval runs under `choice`; remember for record.
            mark.2 = if is_trial { Some(choice) } else { None };
        }
    }

    /// Close the measurement of the interval that just ended.
    fn close_interval_measurement(&mut self, now: Ns) {
        if let Some((k, start, Some(choice))) = self.interval_mark.take() {
            let cost = now - start;
            self.case3_states.entry(k).or_default().record(choice, cost);
        } else {
            self.interval_mark = None;
        }
    }

    /// Evict fast-resident long-lived tensors whose next use lies beyond the
    /// lookahead window ending at absolute layer `boundary`.
    fn evict_after_layer(&mut self, layer: usize, boundary: usize, ctx: &mut ExecCtx<'_>) {
        // Keep the demote channel from building a standing backlog: pages
        // only free at copy completion, so queueing more evictions than the
        // channel can absorb starves allocation instead of helping it.
        let demote_backlog = ctx.mem().channel_free_at(Tier::Slow).saturating_sub(ctx.now());
        let layer_flops: u64 =
            ctx.graph().layers()[layer].ops.iter().map(|o| o.flops).sum();
        let layer_ns = (layer_flops as f64 / ctx.mem().config().compute_flops_per_ns) as Ns;
        if demote_backlog > 4 * layer_ns.max(1_000_000) {
            return;
        }
        let Some(schedule) = self.schedule.as_ref() else { return };
        // Direct CSR-slice iteration: no candidate Vec. Filtering inline is
        // equivalent — demoting one tensor never changes another's liveness.
        for &t in schedule.long_tensors_in_layer(layer) {
            if !ctx.is_live(t) {
                continue;
            }
            let next = schedule.next_use_cyclic(t, layer + 1);
            let evict = match next {
                None => true,
                Some(n) => n > boundary,
            };
            if evict && ctx.tensor_bytes_in(t, Tier::Fast) > 0 {
                let _ = ctx.migrate_tensor(t, Tier::Slow);
            }
        }
    }

    /// Demote fast-resident long-lived tensors (farthest next use first)
    /// until `pages` pages can be freed, then wait for the copies.
    fn evict_for_pages(&self, exclude: TensorId, pages: u64, current_layer: usize, ctx: &mut ExecCtx<'_>) {
        let Some(schedule) = self.schedule.as_ref() else { return };
        ctx.demote_farthest_first(pages, |t| {
            (!t.is_short_lived() && t.id != exclude)
                .then(|| schedule.next_use_cyclic(t.id, current_layer).unwrap_or(usize::MAX))
        });
    }

    // ------------------------------------------- multi-tenant quota support

    /// Demote *cold* fast-resident long-lived tensors — farthest next use
    /// first, never one the upcoming interval will touch — until `pages`
    /// fast pages are freed, then wait for the copies. The cluster arbiter
    /// calls this between steps when it shrinks a tenant's fast-tier quota
    /// below current usage (the paper's Case-3 "leave it in slow memory"
    /// degradation, applied from outside). Returns the victims with the
    /// coldness evidence (`next_use` versus the interval `boundary`) so a
    /// harness can audit that no working-set tensor was taken. No-op during
    /// the profiling phase, where no schedule exists yet.
    pub fn demote_cold_for_quota(
        &mut self,
        pages: u64,
        ctx: &mut ExecCtx<'_>,
    ) -> Vec<EvictedTensor> {
        let (Some(plan), Some(schedule)) = (self.plan.as_ref(), self.schedule.as_ref()) else {
            return Vec::new();
        };
        // Between steps the next layer to execute is 0; its interval is the
        // working set the demotion must exclude.
        let boundary = plan.end_layer(plan.interval_of(0));
        let demoted = ctx.demote_farthest_first(pages, |t| {
            if t.is_short_lived() {
                return None;
            }
            // Cold only: the upcoming interval must not lose residency.
            match schedule.next_use_cyclic(t.id, 0) {
                Some(n) if n < boundary => None,
                next => Some(next.unwrap_or(usize::MAX)),
            }
        });
        demoted
            .into_iter()
            .map(|(tensor, pages)| EvictedTensor {
                tensor,
                pages,
                next_use: schedule.next_use_cyclic(tensor, 0),
                boundary,
            })
            .collect()
    }

    // ----------------------------------------------------- interval ledger

    /// Close the open ledger record against the current counter values,
    /// emit its trace span and push it onto the step ledger. Counter deltas
    /// are exact because records are opened and closed at the same program
    /// points (interval boundaries and the step's final poll), so per-step
    /// ledger sums reconcile with the step report's own counter deltas.
    fn ledger_close(&mut self, ctx: &ExecCtx<'_>) {
        let Some(mut open) = self.open_interval.take() else { return };
        let stats = ctx.mem().stats();
        let faults = ctx.mem().fault_counters();
        open.rec.end_ns = ctx.now();
        open.rec.promoted_bytes = stats.promoted_bytes - open.promoted0;
        open.rec.demoted_bytes = stats.demoted_bytes - open.demoted0;
        open.rec.migration_retries = faults.migration_retries - open.retries0;
        open.rec.abandoned_migrations = faults.abandoned_migrations - open.abandoned0;
        open.rec.stall_case3_ns = self.stats.stall_case3_ns - open.stall_case3_0;
        let rec = open.rec;
        ctx.mem().tracer().span(
            TraceTrack::Intervals,
            "interval",
            format!("interval {}", rec.interval),
            rec.start_ns,
            rec.end_ns.saturating_sub(rec.start_ns),
            vec![
                ("interval", Json::U64(rec.interval as u64)),
                ("case", Json::U64(u64::from(rec.case))),
                ("choice", Json::Str(rec.choice.clone())),
                ("promoted_bytes", Json::U64(rec.promoted_bytes)),
                ("demoted_bytes", Json::U64(rec.demoted_bytes)),
                ("migration_retries", Json::U64(rec.migration_retries)),
                ("abandoned_migrations", Json::U64(rec.abandoned_migrations)),
                ("stall_case3_ns", Json::U64(rec.stall_case3_ns)),
            ],
        );
        self.ledger.push(rec);
    }

    /// Open a ledger record for interval `k` starting now. The caller has
    /// just closed the previous record at the same instant, so coverage of
    /// a managed step is contiguous from layer 0 to the step's final poll.
    fn ledger_open(&mut self, k: usize, ctx: &ExecCtx<'_>) {
        let Some(plan) = self.plan.as_ref() else { return };
        let stats = ctx.mem().stats();
        let faults = ctx.mem().fault_counters();
        // A lookahead prefetch for this interval may have been blocked for
        // space while the previous interval was still open (Case 2).
        let case = if self.case2_pending.remove(&k) { 2 } else { 1 };
        self.open_interval = Some(OpenInterval {
            rec: IntervalRecord {
                interval: k,
                start_layer: plan.start_layer(k),
                end_layer: plan.end_layer(k),
                case,
                choice: String::new(),
                start_ns: ctx.now(),
                end_ns: ctx.now(),
                promoted_bytes: 0,
                demoted_bytes: 0,
                migration_retries: 0,
                abandoned_migrations: 0,
                stall_case3_ns: 0,
            },
            promoted0: stats.promoted_bytes,
            demoted0: stats.demoted_bytes,
            retries0: faults.migration_retries,
            abandoned0: faults.abandoned_migrations,
            stall_case3_0: self.stats.stall_case3_ns,
        });
    }

    /// Mark the ledger consequence of a space-blocked prefetch for
    /// (normalized) interval `target`: Case 2 on the open record if it is
    /// the target, otherwise pending for when the target opens.
    fn ledger_mark_case2(&mut self, target: usize) {
        match self.open_interval.as_mut() {
            Some(open) if open.rec.interval == target => {
                // Case 3 outranks Case 2 (the interval already started
                // while migrations were in flight).
                if open.rec.case == 1 {
                    open.rec.case = 2;
                }
            }
            _ => {
                self.case2_pending.insert(target);
            }
        }
    }

    /// Build the managed-phase plans from the profiling step's report.
    fn finish_profiling(&mut self, profile: ProfileReport, ctx: &mut ExecCtx<'_>) {
        let graph = ctx.graph();
        let schedule = Schedule::new(graph);
        let page_size = ctx.mem().page_size();
        let fast_bytes = ctx.mem().config().fast.capacity_bytes;
        self.stats.reserve_pages = if self.cfg.reserve_short_lived {
            // The reservation is reused as short-lived tensors come and go
            // (Section IV-C), so it only needs the peak *concurrent*
            // short-lived footprint, plus page-rounding headroom; clamped to
            // half of fast memory as a safety valve for tiny configurations.
            let raw = pages_for_bytes(graph.peak_short_lived_concurrent_bytes(), page_size);
            (raw + raw / 4 + 16).min(pages_for_bytes(fast_bytes, page_size) / 2)
        } else {
            0
        };
        let reserve_bytes = self.stats.reserve_pages * page_size;

        let solution = match solve_mil(
            graph,
            &schedule,
            &profile,
            fast_bytes,
            reserve_bytes,
            ctx.mem().config().promote_bw_bytes_per_ns,
        ) {
            Ok(solution) => solution,
            Err(e) => {
                // The profiling hook cannot return a `Result`: latch the
                // typed error for `SentinelRuntime::train` to surface, and
                // degrade to the minimal plan so the step can wind down.
                self.solver_error = Some(e);
                MilSolution { mil: 1, candidates: Vec::new() }
            }
        };
        self.reorg = Some(ReorgPlan::new(&profile));
        self.profile = Some(profile);
        self.schedule = Some(schedule);
        self.install_plan(solution, graph.num_layers());
        self.stats.profiling_steps = self.cfg.profile_warmup as u64 + 1;

        // GPU mode: synchronize the pinned-memory profiling copies with the
        // device copies — a one-time cost of copying preallocated tensors.
        if self.cfg.gpu {
            let bytes = graph.preallocated_bytes();
            let bw = ctx.mem().config().promote_bw_bytes_per_ns;
            let sync_ns = (bytes as f64 / bw.max(1e-9)).ceil() as Ns;
            let target = ctx.now() + sync_ns;
            ctx.stall_until(target);
        }

        // Warm fast memory for the first managed interval.
        self.prefetch_for_interval(0, ctx);
    }

    // ------------------------------------------------ adaptive control loop

    /// Managed-step entry for the adaptive loop: snapshot the per-step
    /// drift signals, zero the per-layer slow-access counts, and arm any
    /// pending incremental re-profile before the step's first access.
    fn adapt_step_begin(&mut self, ctx: &mut ExecCtx<'_>) {
        let stall_total = self.stats.stall_case3_ns + self.stats.stall_fault_ns;
        let Some(adapt) = self.adapt.as_mut() else { return };
        adapt.step_slow0 = ctx.mem().stats().mm_accesses[Tier::Slow.index()];
        adapt.step_stall0 = stall_total;
        adapt.layer_slow.clear();
        adapt.layer_slow.resize(ctx.graph().num_layers(), 0);
        let Some(pending) = adapt.pending.take() else { return };
        // Poison the targets already resident; ones (re)allocated later in
        // the step are poisoned by `on_alloc` as they arrive.
        let mut ranges = HashMap::new();
        let mut poison: Vec<PageRange> = Vec::new();
        for &t in &pending.tensors {
            if let Some(a) = ctx.placement(t) {
                ranges.insert(t, a.pages);
                poison.push(a.pages);
            }
        }
        ctx.mem_mut().start_profiling_ranges(&poison);
        adapt.observing = Some(Observation {
            layers: pending.layers.iter().copied().collect(),
            tensors: pending.tensors,
            ranges,
            finalized: HashMap::new(),
            layer_mark: None,
            layer_times: Vec::new(),
        });
        adapt.report.observation_steps += 1;
    }

    /// Managed-step exit for the adaptive loop: either close the running
    /// observation (merge + re-solve), or feed the detectors and decide
    /// whether to schedule one.
    fn adapt_step_end(&mut self, ctx: &mut ExecCtx<'_>) {
        if self.adapt.as_ref().is_some_and(|a| a.observing.is_some()) {
            self.finish_observation(ctx);
            return;
        }
        let stall_total = self.stats.stall_case3_ns + self.stats.stall_fault_ns;
        let num_layers = ctx.graph().num_layers();
        let Some(adapt) = self.adapt.as_mut() else { return };
        let slow = ctx.mem().stats().mm_accesses[Tier::Slow.index()] - adapt.step_slow0;
        let stall = stall_total - adapt.step_stall0;
        let slow_v = adapt.slow_detector.observe(slow as f64);
        let stall_v = adapt.stall_detector.observe(stall as f64);
        let drifted = matches!(slow_v, DriftVerdict::Drifted { .. })
            || matches!(stall_v, DriftVerdict::Drifted { .. });
        if !drifted {
            adapt.drift_handled = false;
            if adapt.layer_baseline.is_none() {
                // First calm step under the current plan: its per-layer
                // traffic is the localizer's reference.
                adapt.layer_baseline = Some(adapt.layer_slow.clone());
            }
            return;
        }
        if adapt.drift_handled {
            return; // one action per excursion
        }
        adapt.drift_handled = true;
        adapt.report.drift_events += 1;
        if adapt.resolves >= MAX_RESOLVES_PER_RUN {
            if !adapt.limit_warned {
                adapt.limit_warned = true;
                adapt.warn(&AdaptWarning::ResolveLimitReached { limit: MAX_RESOLVES_PER_RUN });
            }
            return;
        }
        let (layers, full) = adapt.divergent_layers(Some(&adapt.layer_slow), num_layers);
        let mut tensors: Vec<TensorId> = match self.schedule.as_ref() {
            Some(schedule) if full => schedule.long_tensor_ids().to_vec(),
            Some(schedule) => layers
                .iter()
                .flat_map(|&l| schedule.long_tensors_in_layer(l).iter().copied())
                .collect(),
            None => Vec::new(),
        };
        tensors.sort_unstable();
        tensors.dedup();
        if tensors.is_empty() {
            adapt.warn(&AdaptWarning::ReprofileFault {
                detail: "no long-lived tensors to observe".to_owned(),
            });
            return;
        }
        adapt.pending = Some(PendingObservation { layers, tensors });
    }

    /// Close the observation step: merge the measured deltas into the
    /// profile and re-solve the plan on the result.
    fn finish_observation(&mut self, ctx: &mut ExecCtx<'_>) {
        let map = ctx.mem_mut().stop_profiling();
        let Some(adapt) = self.adapt.as_mut() else { return };
        let Some(obs) = adapt.observing.take() else { return };
        let mut deltas: Vec<TensorDelta> = Vec::new();
        for &t in &obs.tensors {
            if let Some(&(page_faults, pages)) = obs.finalized.get(&t) {
                deltas.push(TensorDelta { id: t, page_faults, pages });
            } else if let Some(&range) = obs.ranges.get(&t) {
                deltas
                    .push(TensorDelta { id: t, page_faults: map.count_range(range), pages: range.count });
            }
        }
        if deltas.is_empty() {
            adapt.degrade_observation(&obs.tensors, "observation saw no resident pages");
            return;
        }
        let Some(profile) = self.profile.as_mut() else { return };
        profile.merge_observation(&deltas, &obs.layer_times);
        self.resolve_plan(&obs.tensors, ctx);
    }

    /// Install the plan for the solved (or overridden) interval length:
    /// the plan, its per-interval working-set table and the solver
    /// diagnostics. One pass over the plan builds the table, so every
    /// boundary of every managed step reads its slices instead of
    /// re-querying the schedule.
    fn install_plan(&mut self, solution: MilSolution, num_layers: usize) {
        let (Some(schedule), Some(profile)) = (self.schedule.as_ref(), self.profile.as_ref()) else {
            unreachable!("a plan is installed only after the profiling step");
        };
        let layers = num_layers.max(1);
        let mil = self.cfg.mil_override.unwrap_or(solution.mil).min(layers).max(1);
        let plan = IntervalPlan::new(mil, layers);
        let hot = self.cfg.hot_first.then_some(profile);
        self.interval_sets = Some(IntervalSets::build(schedule, &plan, hot));
        self.plan = Some(plan);
        self.stats.mil = mil;
        self.mil_solution = Some(solution);
    }

    /// Re-run the interval solver on the merged profile and swap the new
    /// plan in at this step boundary; on failure keep the old plan and
    /// degrade the divergent tensors to demand paging.
    fn resolve_plan(&mut self, divergent: &[TensorId], ctx: &mut ExecCtx<'_>) {
        let graph = ctx.graph();
        // Solve against what admission control will actually grant: a
        // co-tenant quota caps the allocatable fast tier below the
        // configured capacity, and a plan sized for the configured tier
        // would chase space that no longer exists. Without a quota this is
        // exactly the initial solve's capacity, and the reserve clamp is a
        // no-op (the initial reserve is already at most half the tier).
        let page_size = ctx.mem().page_size();
        let fast_bytes = ctx.mem().effective_fast_capacity_bytes();
        self.stats.reserve_pages = self.stats.reserve_pages.min(pages_for_bytes(fast_bytes, page_size) / 2);
        let reserve_bytes = self.stats.reserve_pages * page_size;
        let bw = ctx.mem().effective_promote_bw_bytes_per_ns();
        let (Some(schedule), Some(profile)) = (self.schedule.as_ref(), self.profile.as_ref()) else {
            return;
        };
        match solve_mil(graph, schedule, profile, fast_bytes, reserve_bytes, bw) {
            Ok(solution) => {
                // Reconcile in-flight work queued for the outgoing plan.
                let now = ctx.now();
                ctx.mem_mut().cancel_pending_migrations(now);
                self.install_plan(solution, graph.num_layers());
                self.case3_states.clear();
                self.case2_pending.clear();
                self.interval_mark = None;
                if let Some(adapt) = self.adapt.as_mut() {
                    adapt.resolves += 1;
                    adapt.report.resolves += 1;
                    adapt.demand_only.clear();
                    adapt.report.degraded_tensors = 0;
                    // Recalibrate against the new plan's steady state.
                    adapt.slow_detector.reset();
                    adapt.stall_detector.reset();
                    adapt.layer_baseline = None;
                    adapt.drift_handled = false;
                }
                // Warm fast memory for the new plan's first interval (the
                // next step starts at layer 0).
                self.prefetch_for_interval(0, ctx);
            }
            Err(e) => {
                let warning = match e {
                    SentinelError::ZeroMigrationBudget { fast_bytes, reserve_bytes } => {
                        AdaptWarning::ResolveZeroBudget { fast_bytes, reserve_bytes }
                    }
                    other => AdaptWarning::ResolveFailed { detail: other.to_string() },
                };
                if let Some(adapt) = self.adapt.as_mut() {
                    adapt.warn(&warning);
                    adapt.demand_only.extend(divergent.iter().copied());
                    adapt.report.degraded_tensors = adapt.demand_only.len() as u64;
                }
            }
        }
    }
}

impl MemoryManager for SentinelPolicy {
    fn name(&self) -> &str {
        if self.cfg.gpu {
            "sentinel-gpu"
        } else {
            "sentinel"
        }
    }

    fn on_train_begin(&mut self, ctx: &mut ExecCtx<'_>) {
        if let Some(recorder) = self.profiling.as_mut() {
            recorder.on_train_begin(ctx);
        }
        self.short_fast = vec![false; ctx.graph().num_tensors()];
    }

    fn on_step_begin(&mut self, ctx: &mut ExecCtx<'_>) {
        self.trial_step_flag = false;
        if let Some(recorder) = self.profiling.as_mut() {
            recorder.on_step_begin(ctx);
        } else if self.adapt.is_some() {
            self.adapt_step_begin(ctx);
        }
    }

    fn pool_for(&mut self, tensor: &Tensor, ctx: &ExecCtx<'_>) -> PoolSpec {
        if let Some(recorder) = self.profiling.as_mut() {
            return recorder.pool_for(tensor, ctx);
        }
        match self.reorg.as_ref() {
            Some(reorg) if self.cfg.coallocate => reorg.pool_for(tensor),
            // Without co-allocation everything shares one packed pool. A
            // missing reorg plan is unreachable in a healthy run (the
            // managed phase is entered by finish_profiling, which builds
            // it); degrade to packed pooling instead of aborting.
            _ => PoolSpec::default_packed(),
        }
    }

    fn tier_for(&mut self, tensor: &Tensor, ctx: &ExecCtx<'_>) -> Tier {
        if let Some(recorder) = self.profiling.as_mut() {
            return recorder.tier_for(tensor, ctx);
        }
        if tensor.is_short_lived() && self.cfg.reserve_short_lived {
            return Tier::Fast;
        }
        let pages = self.tensor_pages(tensor, ctx.mem().page_size());
        if pages <= self.free_for_long_pages(ctx) {
            Tier::Fast
        } else {
            Tier::Slow
        }
    }

    fn on_alloc(&mut self, tensor: TensorId, ctx: &mut ExecCtx<'_>) {
        if let Some(recorder) = self.profiling.as_mut() {
            recorder.on_alloc(tensor, ctx);
            return;
        }
        let t = ctx.tensor(tensor);
        // A watched tensor (re)allocated mid-observation: poison its fresh
        // mapping so its accesses keep reaching the fault counter.
        if let Some(adapt) = self.adapt.as_mut() {
            if let Some(obs) = adapt.observing.as_mut() {
                if obs.tensors.binary_search(&tensor).is_ok() {
                    if let Some(range) = ctx.placement(tensor).map(|a| a.pages) {
                        obs.ranges.insert(tensor, range);
                        ctx.mem_mut().poison_range(range);
                    }
                }
            }
        }
        if t.is_short_lived() {
            self.live_short_bytes += t.bytes;
            // Sanitizer bookkeeping: a short-lived tensor that starts fully
            // fast-resident must still be fully fast-resident when freed
            // (the reserve region is never migrated). Only checked while the
            // memory-level sanitizer is on, so release runs pay nothing.
            if ctx.mem().sanitizer_mode() != SanitizerMode::Off
                && ctx.tensor_bytes_in(tensor, Tier::Slow) == 0
            {
                if let Some(flag) = self.short_fast.get_mut(tensor.index()) {
                    *flag = true;
                }
            }
        }
    }

    fn on_free(&mut self, tensor: TensorId, ctx: &mut ExecCtx<'_>) {
        if self.profiling.is_some() {
            return;
        }
        // A watched tensor dying mid-observation: finalize its fault count
        // now, before the pool reuses (and re-faults) its pages.
        if let Some(adapt) = self.adapt.as_mut() {
            if let Some(obs) = adapt.observing.as_mut() {
                if let Some(range) = obs.ranges.remove(&tensor) {
                    let faults = ctx.mem().profiler().map_or(0, |p| p.count_range(range));
                    obs.finalized.insert(tensor, (faults, range.count));
                }
            }
        }
        let t = ctx.tensor(tensor);
        if t.is_short_lived() {
            self.live_short_bytes = self.live_short_bytes.saturating_sub(t.bytes);
            if self.short_fast.get(tensor.index()).copied().unwrap_or(false) {
                self.short_fast[tensor.index()] = false;
                let slow = ctx.tensor_bytes_in(tensor, Tier::Slow);
                if slow > 0 && self.violation.is_none() {
                    self.violation = Some(format!(
                        "short-lived tensor {tensor} had {slow} bytes in slow memory at free"
                    ));
                }
            }
        }
    }

    fn on_capacity_pressure(&mut self, tier: Tier, needed_pages: u64, ctx: &mut ExecCtx<'_>) -> bool {
        if tier != Tier::Fast || self.profiling.is_some() {
            return false;
        }
        // Demote the long-lived fast-resident tensors with the farthest next
        // use (counted from step start) until enough pages are freed, then
        // wait for the copies: frames free only once a copy lands.
        let Some(schedule) = self.schedule.as_ref() else { return false };
        let before = ctx.now();
        let demoted = ctx.demote_farthest_first(needed_pages, |t| {
            (!t.is_short_lived()).then(|| schedule.next_use_cyclic(t.id, 0).unwrap_or(usize::MAX))
        });
        self.stats.stall_pressure_ns += ctx.now() - before;
        !demoted.is_empty()
    }

    fn before_access(&mut self, tensor: TensorId, _kind: sentinel_mem::AccessKind, ctx: &mut ExecCtx<'_>) {
        // GPU platform: compute cannot read host memory in place, so any
        // tensor still (partly) in slow memory when touched must be faulted
        // into device memory first — evicting the farthest-needed residents.
        if self.profiling.is_some()
            || ctx.mem().config().slow_directly_accessible
            || !ctx.is_live(tensor)
            || ctx.tensor_bytes_in(tensor, Tier::Slow) == 0
        {
            return;
        }
        let fault_start = ctx.now();
        // If this tensor's own pages are mid-copy, either wait (when the
        // copy lands sooner than an urgent one could) or preempt the queued
        // batch and fault the pages in on the urgent lane.
        if let Some(a) = ctx.placement(tensor) {
            let pages = a.pages;
            if let Some(ready) = ctx.mem().range_ready_at(pages) {
                let bw = ctx.mem().config().promote_bw_bytes_per_ns;
                let setup = ctx.mem().config().migration_setup_ns;
                let self_copy_ns =
                    setup + (pages.bytes(ctx.mem().page_size()) as f64 / bw) as Ns;
                if ready <= ctx.now() + self_copy_ns {
                    ctx.stall_until(ready);
                } else {
                    let now = ctx.now();
                    ctx.mem_mut().cancel_overlapping(pages, now);
                }
            }
        }
        if ctx.tensor_bytes_in(tensor, Tier::Slow) == 0 {
            self.stats.stall_fault_ns += ctx.now() - fault_start;
            return;
        }
        let page_size = ctx.mem().page_size();
        let needed = pages_for_bytes(ctx.tensor_bytes_in(tensor, Tier::Slow), page_size);
        if ctx.mem().free_pages(Tier::Fast) < needed {
            let missing = needed - ctx.mem().free_pages(Tier::Fast);
            let current = self.current_layer_hint;
            self.evict_for_pages(tensor, missing, current, ctx);
        }
        if let Ok(Some(ready)) = ctx.migrate_tensor_urgent(tensor, Tier::Fast) {
            ctx.stall_until(ready);
        }
        self.stats.stall_fault_ns += ctx.now() - fault_start;
    }

    fn before_layer(&mut self, layer: usize, ctx: &mut ExecCtx<'_>) {
        self.current_layer_hint = layer;
        if let Some(recorder) = self.profiling.as_mut() {
            recorder.before_layer(layer, ctx);
            return;
        }
        if let Some(adapt) = self.adapt.as_mut() {
            // Only the layer's ops access memory, so the counter's rise until
            // `after_layer` is this layer's slow-memory traffic.
            adapt.layer_slow0 = ctx.mem().stats().mm_accesses[Tier::Slow.index()];
            if let Some(obs) = adapt.observing.as_mut() {
                if obs.layers.contains(&layer) {
                    obs.layer_mark = Some((layer, ctx.now(), ctx.breakdown().profiling_fault_ns));
                }
            }
        }
        let Some(plan) = self.plan.as_ref() else { return };
        if !plan.is_interval_start(layer) {
            return;
        }
        let k = plan.interval_of(layer);
        let lookahead = self.cfg.lookahead;
        if ctx.mem().tracer().enabled() {
            // Close the previous record and open the new one against the
            // same pre-poll counter snapshot, so the ledger stays contiguous
            // (completions applied by the poll below land in the new record).
            self.ledger_close(ctx);
            self.ledger_open(k, ctx);
        }
        self.close_interval_measurement(ctx.now());
        ctx.poll();
        self.interval_mark = Some((k, ctx.now(), None));
        self.handle_case3(k, ctx);
        let target = if lookahead { k + 1 } else { k };
        self.prefetch_for_interval(target, ctx);
        if !lookahead {
            // Direct migration: the fetched tensors are needed *now*, so the
            // copy time is fully exposed.
            let ready = ctx.mem().channel_free_at(Tier::Fast);
            ctx.stall_until(ready);
        }
    }

    fn after_layer(&mut self, layer: usize, ctx: &mut ExecCtx<'_>) {
        if let Some(recorder) = self.profiling.as_mut() {
            recorder.after_layer(layer, ctx);
            return;
        }
        if let Some(adapt) = self.adapt.as_mut() {
            let slow = ctx.mem().stats().mm_accesses[Tier::Slow.index()];
            adapt.layer_slow[layer] += slow - adapt.layer_slow0;
            if let Some(obs) = adapt.observing.as_mut() {
                if let Some((l, t0, f0)) = obs.layer_mark.take() {
                    if l == layer {
                        let wall = ctx.now() - t0;
                        let fault = ctx.breakdown().profiling_fault_ns - f0;
                        obs.layer_times.push((l, wall.saturating_sub(fault)));
                    } else {
                        obs.layer_mark = Some((l, t0, f0));
                    }
                }
            }
        }
        let (Some(plan), Some(sets)) = (self.plan.as_ref(), self.interval_sets.as_ref()) else {
            return;
        };
        let k = plan.interval_of(layer);
        let window = if self.cfg.lookahead { k + 2 } else { k + 1 };
        let boundary = window * plan.mil;
        // Eviction exists to make room for the upcoming prefetch (Section
        // IV-D); when free space already covers the next interval's demand,
        // moving tensors out only wastes bandwidth.
        let next = (k + 1) % plan.num_intervals();
        let demand: u64 = sets
            .sorted(next)
            .iter()
            .filter(|&&t| ctx.is_live(t))
            .map(|&t| ctx.tensor_bytes_in(t, Tier::Slow))
            .sum();
        let free_bytes = self.free_for_long_pages(ctx) * ctx.mem().page_size();
        if free_bytes < demand {
            self.evict_after_layer(layer, boundary, ctx);
        }
    }

    fn on_step_end(&mut self, ctx: &mut ExecCtx<'_>) {
        if let Some(recorder) = self.profiling.as_mut() {
            recorder.on_step_end(ctx);
            if let Some(profile) = recorder.take_report() {
                self.profiling = None;
                self.finish_profiling(profile, ctx);
            }
            return;
        }
        self.close_interval_measurement(ctx.now());
        if self.trial_step_flag {
            self.stats.trial_steps += 1;
        }
        if self.adapt.is_some() {
            self.adapt_step_end(ctx);
        }
    }

    fn step_warnings(&mut self) -> Vec<String> {
        self.adapt.as_mut().map(|a| std::mem::take(&mut a.step_warnings)).unwrap_or_default()
    }

    fn step_ledger(&mut self, ctx: &ExecCtx<'_>) -> Vec<IntervalRecord> {
        // Close the tail record against the post-step counters (the
        // executor calls this after the step's final poll, before its
        // stats snapshot) and hand the step's records over. A blocked
        // lookahead prefetch for next step's first interval stays pending.
        self.ledger_close(ctx);
        std::mem::take(&mut self.ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case3_state_machine_tries_both_then_decides() {
        let mut s = Case3State::default();
        let (c1, t1) = s.next_choice();
        assert_eq!((c1, t1), (Choice::Wait, true));
        s.record(Choice::Wait, 100);
        let (c2, t2) = s.next_choice();
        assert_eq!((c2, t2), (Choice::Leave, true));
        s.record(Choice::Leave, 50);
        let (c3, t3) = s.next_choice();
        assert_eq!((c3, t3), (Choice::Leave, false));
    }

    #[test]
    fn case3_prefers_waiting_on_tie() {
        let mut s = Case3State::default();
        s.record(Choice::Wait, 100);
        s.record(Choice::Leave, 100);
        assert_eq!(s.decided, Some(Choice::Wait));
    }

    #[test]
    fn policy_name_reflects_mode() {
        assert_eq!(SentinelPolicy::new(SentinelConfig::default()).name(), "sentinel");
        assert_eq!(SentinelPolicy::new(SentinelConfig::gpu()).name(), "sentinel-gpu");
    }

    /// The capacity-loss scenario of the bench `adaptive` experiment with
    /// the adaptive loop on: from step 6 of 16 a quota keeps half the fast
    /// tier. `before_step` edits the loop's state before every step; the
    /// degradation rungs with no outside trigger start from it. Returns
    /// every step report and the final adaptation report.
    fn capacity_loss_run(
        mut before_step: impl FnMut(&mut AdaptState),
    ) -> (Vec<sentinel_dnn::StepReport>, AdaptReport) {
        use sentinel_models::{ModelSpec, ModelZoo};
        let graph = ModelZoo::build(&ModelSpec::resnet(32, 64).with_scale(4)).unwrap();
        let hm = crate::fast_sized_for(sentinel_mem::HmConfig::optane_like(), &graph, 0.2);
        let quota_pages = hm.fast.capacity_bytes / hm.page_size / 2;
        let mut exec = sentinel_dnn::Executor::new(&graph, sentinel_mem::MemorySystem::new(hm));
        let mut policy = SentinelPolicy::new(SentinelConfig::default().with_adaptive());
        let mut reports = Vec::new();
        for step in 0..16 {
            if step == 6 {
                exec.ctx_mut().mem_mut().set_fast_quota_pages(Some(quota_pages));
                let excess = exec.ctx().mem().fast_quota_excess_pages();
                policy.demote_cold_for_quota(excess, exec.ctx_mut());
            }
            before_step(policy.adapt.as_mut().expect("adaptive loop is on"));
            reports.push(exec.run_step(&mut policy).expect("degraded run completes"));
        }
        assert!(policy.take_solver_error().is_none(), "no solver error may escape");
        assert!(policy.violation().is_none(), "no residency violation");
        (reports, policy.adapt_report().cloned().expect("adaptive loop is on"))
    }

    fn warnings_of(reports: &[sentinel_dnn::StepReport]) -> Vec<String> {
        reports.iter().flat_map(|r| r.warnings.iter().cloned()).collect()
    }

    #[test]
    fn forced_reprofile_fault_degrades_to_demand_paging_and_survives() {
        // Every scheduled observation fails before it is armed, as a
        // profiling fault would.
        let (reports, adapt) = capacity_loss_run(|adapt| {
            if let Some(pending) = adapt.pending.take() {
                adapt.degrade_observation(&pending.tensors, "forced re-profile fault");
            }
        });
        assert_eq!(reports.len(), 16, "the run stays alive on the old plan");
        assert!(adapt.drift_events >= 1, "{adapt:?}");
        assert_eq!(adapt.resolves, 0, "a faulted observation must not feed a re-solve");
        assert!(adapt.degraded_tensors > 0, "targets degrade to demand paging: {adapt:?}");
        let warnings = warnings_of(&reports);
        assert!(
            warnings.iter().any(|w| w.contains("re-profile failed")),
            "typed warning surfaced in the step report: {warnings:?}"
        );
        // The latched report carries the same warnings.
        assert!(adapt.warnings.iter().any(|w| w.contains("re-profile failed")), "{adapt:?}");
    }

    #[test]
    fn resolve_budget_exhaustion_latches_a_warning_instead_of_oscillating() {
        // The run has already spent its re-solve budget.
        let (reports, adapt) = capacity_loss_run(|adapt| adapt.resolves = MAX_RESOLVES_PER_RUN);
        assert_eq!(reports.len(), 16);
        assert!(adapt.drift_events >= 1, "{adapt:?}");
        assert_eq!(adapt.resolves, 0, "{adapt:?}");
        assert_eq!(adapt.observation_steps, 0, "no budget, no observation step: {adapt:?}");
        let warnings = warnings_of(&reports);
        let limit = warnings.iter().filter(|w| w.contains("re-solve budget")).count();
        assert_eq!(limit, 1, "one typed warning in the step reports: {warnings:?}");
    }
}

sentinel_util::impl_to_json!(SentinelStats {
    mil,
    case2_events,
    case3_events,
    trial_steps,
    profiling_steps,
    reserve_pages,
    stall_case3_ns,
    stall_fault_ns,
    stall_pressure_ns,
});
