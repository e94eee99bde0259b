//! Multi-tenant cluster scheduler: many training jobs, one heterogeneous
//! memory fleet.
//!
//! One [`ClusterScheduler`] run multiplexes N concurrent Sentinel training
//! jobs over a shared fast-tier capacity. Each tenant owns a full simulator
//! stack — its own [`MemorySystem`], [`Executor`] and [`SentinelPolicy`] —
//! sized to the *fleet's* fast capacity but capped by a per-tenant page
//! quota ([`MemorySystem::set_fast_quota_pages`]). An admission controller
//! feeds jobs from an open-loop arrival trace; a fairness policy (weighted
//! max-min over fast-tier pages) arbitrates contention; under pressure the
//! scheduler demotes a tenant's *cold* tensors (the paper's Case-3
//! "leave it in slow memory" degradation, applied from outside via
//! [`SentinelPolicy::demote_cold_for_quota`]) and admits waiters as
//! capacity releases.
//!
//! ## Determinism contract
//!
//! The scheduler runs a serial discrete-event loop over a private min-heap:
//! job arrivals and per-job step completions interleave on one cluster clock
//! in `(at, kind, seq)` order. A step end outranks an arrival at the same
//! instant, so a release and an arrival colliding on the clock admit the
//! newcomer against the post-release fleet state; events of one kind at one
//! instant fire in scheduling order. Steps are simulated
//! eagerly when scheduled, so **quota and lane-share changes take effect
//! only at the owning job's next step boundary** — a quota computed while a
//! tenant is mid-step lands before its next step begins, never inside one.
//! Everything is a pure function of the job specs: replays are
//! byte-identical, and a single-job cluster is byte-identical to
//! [`SentinelRuntime::train`](crate::SentinelRuntime::train).
//!
//! ## Capacity safety
//!
//! The fleet's fast tier is real hardware: the sum of tenant fast-tier
//! usage must never exceed it. The scheduler maintains a per-tenant
//! *reservation* `reserved = max(applied quota, current fast usage)` and
//! the induction invariant `Σ reserved ≤ fleet pages`: admission grants
//! only from `fleet − Σ reserved`, quota *growth* applies only up to that
//! headroom, and quota *shrink* releases reservation only after the
//! boundary demotion completes. A tenant may transiently sit above a
//! freshly shrunk quota (insufficient cold bytes to demote); the episode is
//! explicitly reported as a [`ClusterEventKind::QuotaBreach`] and never
//! counted as released capacity.

use crate::config::SentinelConfig;
use crate::error::SentinelError;
use crate::policy::SentinelPolicy;
use sentinel_dnn::{Executor, Graph, MemoryManager, TensorId, TrainReport};
use sentinel_mem::{
    pages_for_bytes, FaultCounters, FaultInjector, FaultProfile, HmConfig, MemorySystem, Ns, Tier,
};
use sentinel_util::{Json, ToJson};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Minimum fraction of a job's peak footprint that must be allocatable
/// before it is admitted; arrivals that cannot get it wait (FIFO) until
/// capacity releases. `Run::min_pages` also floors it at 1 MiB.
const MIN_QUOTA_FRAC: f64 = 0.1;

/// One job of the arrival trace.
#[derive(Debug, Clone)]
pub struct JobSpec<'g> {
    /// Tenant name (reporting only).
    pub name: String,
    /// The training graph (built once by the caller; the scheduler borrows
    /// it for the run).
    pub graph: &'g Graph,
    /// Cluster time at which the job arrives.
    pub arrival_ns: Ns,
    /// Training steps to run (profiling step included).
    pub steps: usize,
    /// Fairness weight (≥ 1): quota and lane shares are proportional.
    pub weight: u64,
    /// Per-tenant deterministic fault injection, if any. Counters are
    /// accounted to this tenant only — each tenant owns its memory system.
    pub fault: Option<(FaultProfile, u64)>,
}

impl<'g> JobSpec<'g> {
    /// A weight-1, fault-free job.
    #[must_use]
    pub fn new(name: &str, graph: &'g Graph, arrival_ns: Ns, steps: usize) -> Self {
        JobSpec { name: name.to_owned(), graph, arrival_ns, steps, weight: 1, fault: None }
    }

    /// Replace the fairness weight (clamped to at least 1).
    #[must_use]
    pub fn with_weight(mut self, weight: u64) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Arm this tenant with deterministic fault injection.
    #[must_use]
    pub fn with_fault(mut self, profile: FaultProfile, seed: u64) -> Self {
        self.fault = Some((profile, seed));
        self
    }
}

/// What happened at one point of the cluster run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterEventKind {
    /// The job arrived (open-loop trace).
    Arrival,
    /// The job was admitted with an initial quota.
    Admitted {
        /// Fast-tier pages granted at admission.
        quota_pages: u64,
    },
    /// The job can never be admitted (its admission floor exceeds the
    /// fleet's entire fast tier).
    Rejected,
    /// A recomputed quota took effect at the job's step boundary.
    QuotaApplied {
        /// Quota before.
        from: u64,
        /// Quota after.
        to: u64,
    },
    /// The job's fast usage exceeded a freshly shrunk quota — the
    /// explicitly-reported transient the capacity-safety argument allows.
    QuotaBreach {
        /// Fast pages used at detection.
        used: u64,
        /// The quota in force.
        quota: u64,
    },
    /// A cold tensor was demoted to repay a quota shrink.
    Evicted {
        /// The demoted tensor.
        tensor: TensorId,
        /// Fast pages it held.
        pages: u64,
        /// Its next scheduled use (absolute layer, cyclic), if any.
        next_use: Option<usize>,
        /// First layer after the upcoming interval: cold means
        /// `next_use` is `None` or `>= boundary`.
        boundary: usize,
    },
    /// The job finished one training step.
    StepEnd {
        /// Step index (0-based, profiling included).
        step: usize,
        /// Simulated step duration.
        duration_ns: Ns,
    },
    /// The job ran all its steps and released its quota.
    Completed,
}

/// One entry of the cluster event log, with the fleet-accounting snapshot
/// the invariant suite audits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterEvent {
    /// Cluster time of the event.
    pub at: Ns,
    /// Job the event concerns.
    pub job: usize,
    /// What happened.
    pub kind: ClusterEventKind,
    /// Σ over active tenants of `max(applied quota, fast usage)` after the
    /// event — the reservation the capacity argument bounds by the fleet.
    pub fleet_reserved_pages: u64,
    /// Σ over active tenants of mapped fast pages after the event.
    pub fleet_used_pages: u64,
    /// This job's mapped fast pages after the event (0 if not active).
    pub job_used_pages: u64,
    /// This job's applied quota after the event (0 if not active).
    pub job_quota_pages: u64,
    /// Whether this job is in an explicitly-reported transient breach
    /// (usage above a freshly shrunk quota) after the event.
    pub transient_breach: bool,
}

/// Per-tenant outcome of a cluster run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Job index in the trace.
    pub job: usize,
    /// Tenant name.
    pub name: String,
    /// Model (graph) name.
    pub model: String,
    /// Fairness weight.
    pub weight: u64,
    /// Arrival time.
    pub arrival_ns: Ns,
    /// Admission time (`None` if rejected).
    pub admitted_ns: Option<Ns>,
    /// Completion time (`None` if rejected).
    pub completed_ns: Option<Ns>,
    /// Queueing delay: admission − arrival.
    pub wait_ns: Ns,
    /// Steps executed.
    pub steps: usize,
    /// Per-step durations in execution order (what p50/p99 reconcile
    /// against).
    pub step_ns: Vec<Ns>,
    /// Median step latency (nearest-rank over `step_ns`).
    pub p50_step_ns: Ns,
    /// Tail step latency (nearest-rank over `step_ns`).
    pub p99_step_ns: Ns,
    /// Cold tensors demoted from under this tenant by quota pressure.
    pub evictions: u64,
    /// Fast pages those demotions released.
    pub evicted_pages: u64,
    /// Transient over-quota episodes reported for this tenant.
    pub quota_breaches: u64,
    /// Applied quota when the job finished (pages).
    pub final_quota_pages: u64,
    /// This tenant's fault-injection activity — counters live in the
    /// tenant's own memory system, so tenant A's faults can never leak
    /// into tenant B's report.
    pub fault: FaultCounters,
    /// The full per-step training report.
    pub report: TrainReport,
}

/// Outcome of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Per-tenant reports, in job order.
    pub tenants: Vec<TenantReport>,
    /// Jobs admitted.
    pub admissions: u64,
    /// Cold-tensor demotions forced by quota pressure, fleet-wide.
    pub evictions: u64,
    /// Transient quota breaches reported, fleet-wide.
    pub quota_breaches: u64,
    /// Jobs rejected (admission floor above the whole fleet).
    pub rejected: u64,
    /// Cluster time at which the last tenant finished.
    pub makespan_ns: Ns,
    /// The shared fleet fast-tier capacity in pages.
    pub fleet_fast_pages: u64,
    /// Full event log (in-memory only; not serialized).
    pub events: Vec<ClusterEvent>,
}

// --------------------------------------------------------------- serializers

/// `fault` is omitted when all-zero and `admitted_ns`/`completed_ns` are
/// JSON nulls when absent, mirroring the step-report idiom so pristine
/// outputs stay byte-stable as features land.
impl ToJson for TenantReport {
    fn to_json(&self) -> Json {
        let mut obj = vec![
            ("job".to_owned(), Json::U64(self.job as u64)),
            ("name".to_owned(), Json::Str(self.name.clone())),
            ("model".to_owned(), Json::Str(self.model.clone())),
            ("weight".to_owned(), Json::U64(self.weight)),
            ("arrival_ns".to_owned(), Json::U64(self.arrival_ns)),
            ("admitted_ns".to_owned(), self.admitted_ns.map_or(Json::Null, Json::U64)),
            ("completed_ns".to_owned(), self.completed_ns.map_or(Json::Null, Json::U64)),
            ("wait_ns".to_owned(), Json::U64(self.wait_ns)),
            ("steps".to_owned(), Json::U64(self.steps as u64)),
            ("step_ns".to_owned(), Json::Arr(self.step_ns.iter().map(|&d| Json::U64(d)).collect())),
            ("p50_step_ns".to_owned(), Json::U64(self.p50_step_ns)),
            ("p99_step_ns".to_owned(), Json::U64(self.p99_step_ns)),
            ("evictions".to_owned(), Json::U64(self.evictions)),
            ("evicted_pages".to_owned(), Json::U64(self.evicted_pages)),
            ("quota_breaches".to_owned(), Json::U64(self.quota_breaches)),
            ("final_quota_pages".to_owned(), Json::U64(self.final_quota_pages)),
        ];
        if !self.fault.is_zero() {
            obj.push(("fault".to_owned(), self.fault.to_json()));
        }
        Json::Obj(obj)
    }
}

impl ToJson for ClusterOutcome {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("fleet_fast_pages".to_owned(), Json::U64(self.fleet_fast_pages)),
            ("admissions".to_owned(), Json::U64(self.admissions)),
            ("evictions".to_owned(), Json::U64(self.evictions)),
            ("quota_breaches".to_owned(), Json::U64(self.quota_breaches)),
            ("rejected".to_owned(), Json::U64(self.rejected)),
            ("makespan_ns".to_owned(), Json::U64(self.makespan_ns)),
            ("tenants".to_owned(), Json::Arr(self.tenants.iter().map(ToJson::to_json).collect())),
        ])
    }
}

// ------------------------------------------------------------------ helpers

/// Nearest-rank percentile over an ascending-sorted slice (`p` in 0..=100).
#[must_use]
pub fn percentile_ns(sorted: &[Ns], p: u64) -> Ns {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = ((p * n).div_ceil(100)).max(1);
    sorted[(rank - 1) as usize]
}

/// Split `amount` pages in proportion to `weights`, each share rounded
/// down, then give the rounding remainder one page at a time to the lowest
/// indexes.
fn split_by_weight(amount: u64, weights: &[u64]) -> Vec<u64> {
    let wsum: u128 = weights.iter().map(|&w| u128::from(w)).sum::<u128>().max(1);
    let mut shares: Vec<u64> =
        weights.iter().map(|&w| (u128::from(amount) * u128::from(w) / wsum) as u64).collect();
    let leftover = amount - shares.iter().sum::<u64>();
    for s in shares.iter_mut().take(usize::try_from(leftover).unwrap_or(usize::MAX)) {
        *s += 1;
    }
    shares
}

/// Weighted max-min (water-filling) allocation of `total` pages across
/// `(weight, demand)` pairs: repeatedly split the remainder proportionally
/// to weight among unsatisfied tenants, capping each at its demand, until
/// nothing moves. Integer-exact and deterministic: rounding remainders go
/// to the lowest indexes.
#[must_use]
pub fn weighted_max_min(total: u64, jobs: &[(u64, u64)]) -> Vec<u64> {
    let mut alloc = vec![0u64; jobs.len()];
    let mut remaining = total;
    loop {
        let unsat: Vec<usize> =
            (0..jobs.len()).filter(|&i| alloc[i] < jobs[i].1).collect();
        if unsat.is_empty() || remaining == 0 {
            break;
        }
        let weights: Vec<u64> = unsat.iter().map(|&i| jobs[i].0).collect();
        let shares = split_by_weight(remaining, &weights);
        let mut progressed = false;
        for (k, &i) in unsat.iter().enumerate() {
            let give = shares[k].min(jobs[i].1 - alloc[i]);
            if give > 0 {
                alloc[i] += give;
                remaining -= give;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    alloc
}

/// Work-conserving targets: [`weighted_max_min`], then the residual (the
/// part of `total` left once every demand is met) distributed by weight.
/// Handing out the residual is what lets a lone tenant own the whole fleet,
/// which keeps a single-job cluster byte-identical to the plain runtime (an
/// unowned remainder would change `free_pages` and with it the policy's
/// planning).
fn filled_targets(total: u64, jobs: &[(u64, u64)]) -> Vec<u64> {
    let mut alloc = weighted_max_min(total, jobs);
    let residual = total - alloc.iter().sum::<u64>();
    let weights: Vec<u64> = jobs.iter().map(|j| j.0).collect();
    for (a, e) in alloc.iter_mut().zip(split_by_weight(residual, &weights)) {
        *a += e;
    }
    alloc
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a.max(1)
    } else {
        gcd(b, a % b)
    }
}

// ------------------------------------------------------------------- driver

/// A tenant currently running on the fleet.
struct ActiveJob<'g> {
    exec: Executor<'g>,
    policy: SentinelPolicy,
    /// Cluster time of the tenant's local clock zero (its admission time).
    offset: Ns,
    /// One step report per completed step, in order.
    report: TrainReport,
    /// Applied fast-tier quota (pages) — what the memory system enforces.
    applied_quota: u64,
    /// Target quota from the latest recompute; applied at the next step
    /// boundary.
    pending_quota: u64,
    /// `max(applied_quota, fast usage)` at the last boundary: this job's
    /// share of the fleet the capacity argument counts.
    reserved: u64,
    /// Migration lane share to apply at the next boundary.
    pending_share: (u64, u64),
    applied_share: (u64, u64),
    evictions: u64,
    evicted_pages: u64,
    breaches: u64,
    admitted_ns: Ns,
}

/// A scheduled cluster event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Due {
    /// Job `job` finishes step `step` (0-based, profiling included).
    StepEnd { job: usize, step: usize },
    /// Job `job` arrives (open-loop trace).
    Arrival { job: usize },
}

impl Due {
    /// Same-instant firing rank, lowest first: a step end releases capacity
    /// before an arrival at the same instant tries to claim it.
    fn rank(self) -> u8 {
        match self {
            Due::StepEnd { .. } => 0,
            Due::Arrival { .. } => 1,
        }
    }
}

enum Slot<'g> {
    /// Not yet arrived or waiting for admission.
    Idle,
    Active(Box<ActiveJob<'g>>),
    Done(TenantReport),
    Rejected(TenantReport),
}

/// The cluster scheduler. Build one for the fleet platform, then
/// [`run`](ClusterScheduler::run) an arrival trace. Every tenant runs
/// Sentinel with [`SentinelConfig::default`].
///
/// ```
/// use sentinel_core::{ClusterScheduler, JobSpec};
/// use sentinel_mem::HmConfig;
/// use sentinel_models::{ModelSpec, ModelZoo};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = ModelZoo::build(&ModelSpec::resnet(20, 4).with_scale(4))?;
/// let hm = HmConfig::optane_like()
///     .without_cache()
///     .with_fast_capacity(graph.peak_live_bytes() / 2);
/// let jobs = vec![
///     JobSpec::new("a", &graph, 0, 6),
///     JobSpec::new("b", &graph, 1_000_000, 6).with_weight(2),
/// ];
/// let outcome = ClusterScheduler::new(hm).run(&jobs)?;
/// assert_eq!(outcome.admissions, 2);
/// assert!(outcome.tenants.iter().all(|t| t.completed_ns.is_some()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ClusterScheduler {
    /// The fleet platform. `hm.fast.capacity_bytes` is the *shared* fleet
    /// fast-tier capacity every quota is carved from.
    hm: HmConfig,
}

impl ClusterScheduler {
    /// Build a scheduler for the given fleet platform.
    #[must_use]
    pub fn new(hm: HmConfig) -> Self {
        ClusterScheduler { hm }
    }

    /// The fleet's fast-tier capacity in pages.
    #[must_use]
    pub fn fleet_fast_pages(&self) -> u64 {
        self.hm.fast.capacity_pages(self.hm.page_size)
    }

    /// Run the arrival trace to completion.
    ///
    /// # Errors
    ///
    /// Propagates the first tenant's [`SentinelError`] (execution failure,
    /// policy invariant violation or solver error), identically to the
    /// single-runtime path.
    pub fn run<'g>(&self, jobs: &[JobSpec<'g>]) -> Result<ClusterOutcome, SentinelError> {
        Run::new(&self.hm, jobs).drive()
    }
}

/// One in-flight cluster run: the scheduler state machine.
struct Run<'a, 'g> {
    hm: &'a HmConfig,
    jobs: &'a [JobSpec<'g>],
    fleet_pages: u64,
    slots: Vec<Slot<'g>>,
    /// Waiting-room FIFO of arrived, unadmitted job indexes.
    waiting: Vec<usize>,
    /// Pending events, min-first by `(at, rank, seq)`: events of one kind
    /// at one instant fire in scheduling order.
    queue: BinaryHeap<Reverse<(Ns, u8, u64, Due)>>,
    next_seq: u64,
    events: Vec<ClusterEvent>,
    admissions: u64,
    rejected: u64,
    makespan_ns: Ns,
}

impl<'a, 'g> Run<'a, 'g> {
    fn new(hm: &'a HmConfig, jobs: &'a [JobSpec<'g>]) -> Self {
        Run {
            hm,
            jobs,
            fleet_pages: hm.fast.capacity_pages(hm.page_size),
            slots: (0..jobs.len()).map(|_| Slot::Idle).collect(),
            waiting: Vec::new(),
            queue: BinaryHeap::new(),
            next_seq: 0,
            events: Vec::new(),
            admissions: 0,
            rejected: 0,
            makespan_ns: 0,
        }
    }

    /// Fast-tier pages the job would use if it could: its peak footprint.
    fn demand_pages(&self, job: usize) -> u64 {
        pages_for_bytes(self.jobs[job].graph.peak_live_bytes(), self.hm.page_size)
    }

    /// Admission floor: [`MIN_QUOTA_FRAC`] of the demand, at least 1 MiB
    /// (the same floor [`fast_sized_for`](crate::fast_sized_for) applies).
    fn min_pages(&self, job: usize) -> u64 {
        let spec = &self.jobs[job];
        let floor_bytes = (spec.graph.peak_live_bytes() as f64 * MIN_QUOTA_FRAC).ceil();
        pages_for_bytes((floor_bytes as u64).max(1 << 20), self.hm.page_size)
    }

    fn active_indexes(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&i| matches!(self.slots[i], Slot::Active(_)))
            .collect()
    }

    fn fleet_reserved(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| if let Slot::Active(a) = s { a.reserved } else { 0 })
            .sum()
    }

    fn fleet_used(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| {
                if let Slot::Active(a) = s {
                    a.exec.ctx().mem().used_pages(Tier::Fast)
                } else {
                    0
                }
            })
            .sum()
    }

    fn log(&mut self, at: Ns, job: usize, kind: ClusterEventKind) {
        let (job_used, job_quota, breach) = match &self.slots[job] {
            Slot::Active(a) => {
                let used = a.exec.ctx().mem().used_pages(Tier::Fast);
                (used, a.applied_quota, used > a.applied_quota)
            }
            _ => (0, 0, false),
        };
        self.events.push(ClusterEvent {
            at,
            job,
            kind,
            fleet_reserved_pages: self.fleet_reserved(),
            fleet_used_pages: self.fleet_used(),
            job_used_pages: job_used,
            job_quota_pages: job_quota,
            transient_breach: breach,
        });
    }

    // ---------------------------------------------------------- event loop

    fn schedule(&mut self, at: Ns, due: Due) {
        self.queue.push(Reverse((at, due.rank(), self.next_seq, due)));
        self.next_seq += 1;
    }

    fn drive(mut self) -> Result<ClusterOutcome, SentinelError> {
        for (job, spec) in self.jobs.iter().enumerate() {
            self.schedule(spec.arrival_ns, Due::Arrival { job });
        }
        while let Some(Reverse((at, _, _, due))) = self.queue.pop() {
            match due {
                Due::Arrival { job } => {
                    self.log(at, job, ClusterEventKind::Arrival);
                    self.waiting.push(job);
                    self.retarget_quotas();
                    self.try_admissions(at)?;
                }
                Due::StepEnd { job, step } => self.on_step_end(at, job, step)?,
            }
        }
        let tenants: Vec<TenantReport> = self
            .slots
            .into_iter()
            .map(|s| match s {
                Slot::Done(r) | Slot::Rejected(r) => r,
                Slot::Idle | Slot::Active(_) => {
                    unreachable!("job neither completed nor rejected after the queue drained")
                }
            })
            .collect();
        let evictions = tenants.iter().map(|t| t.evictions).sum();
        let quota_breaches = tenants.iter().map(|t| t.quota_breaches).sum();
        Ok(ClusterOutcome {
            admissions: self.admissions,
            evictions,
            quota_breaches,
            rejected: self.rejected,
            makespan_ns: self.makespan_ns,
            fleet_fast_pages: self.fleet_pages,
            events: self.events,
            tenants,
        })
    }

    /// Recompute target quotas for the active set (plus the head waiter,
    /// whose pressure incumbents must start repaying even before it can be
    /// admitted) and stage them as pending boundary updates.
    fn retarget_quotas(&mut self) {
        let mut members = self.active_indexes();
        if let Some(&head) = self.waiting.first() {
            members.push(head);
        }
        let demands: Vec<(u64, u64)> =
            members.iter().map(|&i| (self.jobs[i].weight, self.demand_pages(i))).collect();
        let targets = filled_targets(self.fleet_pages, &demands);
        let total_weight: u64 = members.iter().map(|&i| self.jobs[i].weight).sum();
        for (k, &i) in members.iter().enumerate() {
            // Never retarget an incumbent below its admission floor: the
            // floors of the active set summed to at most the fleet when
            // each was admitted, so they stay jointly feasible.
            let floor = self.min_pages(i);
            if let Slot::Active(a) = &mut self.slots[i] {
                a.pending_quota = targets[k].max(floor).max(1);
                let w = self.jobs[i].weight;
                let g = gcd(w, total_weight);
                a.pending_share = (w / g, total_weight / g);
            }
        }
    }

    /// Admit waiters FIFO while the head fits; stop at the first that
    /// does not (later arrivals never jump the queue).
    fn try_admissions(&mut self, now: Ns) -> Result<(), SentinelError> {
        while let Some(&job) = self.waiting.first() {
            let min = self.min_pages(job);
            // A structurally impossible admission is a rejection, not an
            // eternal wait: the floor exceeds the whole fleet.
            if min > self.fleet_pages {
                self.waiting.remove(0);
                self.rejected += 1;
                let report = self.rejected_report(job);
                self.slots[job] = Slot::Rejected(report);
                self.log(now, job, ClusterEventKind::Rejected);
                continue;
            }
            let headroom = self.fleet_pages - self.fleet_reserved();
            let mut members = self.active_indexes();
            members.push(job);
            let demands: Vec<(u64, u64)> =
                members.iter().map(|&i| (self.jobs[i].weight, self.demand_pages(i))).collect();
            let target =
                *filled_targets(self.fleet_pages, &demands).last().expect("candidate is a member");
            let grant = target.min(headroom);
            if grant < min {
                break; // Head of the queue must wait; FIFO blocks the rest.
            }
            self.waiting.remove(0);
            self.admit(now, job, grant)?;
            self.retarget_quotas();
        }
        Ok(())
    }

    fn admit(&mut self, now: Ns, job: usize, quota: u64) -> Result<(), SentinelError> {
        let spec = &self.jobs[job];
        let mut mem = MemorySystem::new(self.hm.clone());
        if let Some((profile, seed)) = &spec.fault {
            mem.set_fault_injector(FaultInjector::new(*profile, *seed));
        }
        // A quota covering the whole fleet is no quota at all — the `None`
        // path keeps a sole tenant byte-identical to the single runtime.
        if quota < self.fleet_pages {
            mem.set_fast_quota_pages(Some(quota));
        }
        let exec = Executor::new(spec.graph, mem);
        let policy = SentinelPolicy::new(SentinelConfig::default());
        let report = TrainReport {
            model: spec.graph.name().to_owned(),
            policy: policy.name().to_owned(),
            batch: spec.graph.batch(),
            steps: Vec::with_capacity(spec.steps),
        };
        self.slots[job] = Slot::Active(Box::new(ActiveJob {
            exec,
            policy,
            offset: now,
            report,
            applied_quota: quota,
            pending_quota: quota,
            reserved: quota,
            pending_share: (1, 1),
            applied_share: (1, 1),
            evictions: 0,
            evicted_pages: 0,
            breaches: 0,
            admitted_ns: now,
        }));
        self.admissions += 1;
        self.log(now, job, ClusterEventKind::Admitted { quota_pages: quota });
        self.run_one_step(job)
    }

    /// Execute the job's next step eagerly and schedule its completion on
    /// the cluster clock.
    fn run_one_step(&mut self, job: usize) -> Result<(), SentinelError> {
        let Slot::Active(a) = &mut self.slots[job] else {
            unreachable!("stepping an inactive job")
        };
        let step = a.report.steps.len();
        let sr = a.exec.run_step(&mut a.policy)?;
        a.report.steps.push(sr);
        let end = a.offset + a.exec.ctx().now();
        self.schedule(end, Due::StepEnd { job, step });
        Ok(())
    }

    fn on_step_end(&mut self, now: Ns, job: usize, step: usize) -> Result<(), SentinelError> {
        let duration_ns = {
            let Slot::Active(a) = &self.slots[job] else {
                unreachable!("step end for an inactive job")
            };
            a.report.steps[step].duration_ns
        };
        self.log(now, job, ClusterEventKind::StepEnd { step, duration_ns });
        let finished = {
            let Slot::Active(a) = &self.slots[job] else { unreachable!() };
            a.report.steps.len() >= self.jobs[job].steps
        };
        if finished {
            self.complete(now, job)?;
            self.retarget_quotas();
            self.try_admissions(now)?;
            return Ok(());
        }
        self.apply_boundary_updates(now, job);
        self.run_one_step(job)?;
        // A shrink just released reservation: the head waiter may now fit.
        self.try_admissions(now)
    }

    /// Apply the pending quota and lane share at the job's step boundary:
    /// shrinks demote cold tensors and may report a transient breach;
    /// grows take only what the fleet headroom allows and stay pending for
    /// the rest.
    fn apply_boundary_updates(&mut self, now: Ns, job: usize) {
        let headroom = self.fleet_pages - self.fleet_reserved();
        let mut evicted = Vec::new();
        let mut breach: Option<(u64, u64)> = None;
        let mut applied: Option<(u64, u64)> = None;
        {
            let Slot::Active(a) = &mut self.slots[job] else { unreachable!() };
            if a.pending_share != a.applied_share {
                let (num, den) = a.pending_share;
                a.exec.ctx_mut().mem_mut().set_migration_lane_share(num, den);
                a.applied_share = a.pending_share;
            }
            if a.pending_quota != a.applied_quota {
                let from = a.applied_quota;
                let to = if a.pending_quota < a.applied_quota {
                    a.pending_quota
                } else {
                    // Grow only into free fleet headroom; the rest stays
                    // pending for a later boundary.
                    a.pending_quota.min(a.applied_quota + headroom)
                };
                if to != from {
                    a.applied_quota = to;
                    let quota =
                        if to < self.fleet_pages { Some(to) } else { None };
                    a.exec.ctx_mut().mem_mut().set_fast_quota_pages(quota);
                    applied = Some((from, to));
                }
                let used = a.exec.ctx().mem().used_pages(Tier::Fast);
                if used > a.applied_quota {
                    breach = Some((used, a.applied_quota));
                    a.breaches += 1;
                    let excess = used - a.applied_quota;
                    let victims = a.policy.demote_cold_for_quota(excess, a.exec.ctx_mut());
                    a.evictions += victims.len() as u64;
                    a.evicted_pages += victims.iter().map(|v| v.pages).sum::<u64>();
                    evicted = victims;
                }
            }
            let used = a.exec.ctx().mem().used_pages(Tier::Fast);
            a.reserved = a.applied_quota.max(used);
        }
        if let Some((from, to)) = applied {
            self.log(now, job, ClusterEventKind::QuotaApplied { from, to });
        }
        if let Some((used, quota)) = breach {
            self.log(now, job, ClusterEventKind::QuotaBreach { used, quota });
        }
        for v in evicted {
            self.log(
                now,
                job,
                ClusterEventKind::Evicted {
                    tensor: v.tensor,
                    pages: v.pages,
                    next_use: v.next_use,
                    boundary: v.boundary,
                },
            );
        }
    }

    fn complete(&mut self, now: Ns, job: usize) -> Result<(), SentinelError> {
        let slot = std::mem::replace(&mut self.slots[job], Slot::Idle);
        let Slot::Active(mut a) = slot else { unreachable!() };
        a.policy.on_train_end(a.exec.ctx_mut());
        if let Some(e) = a.policy.take_solver_error() {
            return Err(e);
        }
        if let Some(detail) = a.policy.violation() {
            return Err(SentinelError::Invariant { detail: detail.to_string() });
        }
        let fault = a.exec.ctx().mem().fault_counters();
        let step_ns: Vec<Ns> = a.report.steps.iter().map(|s| s.duration_ns).collect();
        let mut sorted = step_ns.clone();
        sorted.sort_unstable();
        let spec = &self.jobs[job];
        let report = TenantReport {
            job,
            name: spec.name.clone(),
            model: spec.graph.name().to_owned(),
            weight: spec.weight,
            arrival_ns: spec.arrival_ns,
            admitted_ns: Some(a.admitted_ns),
            completed_ns: Some(now),
            wait_ns: a.admitted_ns - spec.arrival_ns,
            steps: a.report.steps.len(),
            p50_step_ns: percentile_ns(&sorted, 50),
            p99_step_ns: percentile_ns(&sorted, 99),
            step_ns,
            evictions: a.evictions,
            evicted_pages: a.evicted_pages,
            quota_breaches: a.breaches,
            final_quota_pages: a.applied_quota,
            fault,
            report: a.report,
        };
        self.makespan_ns = self.makespan_ns.max(now);
        self.slots[job] = Slot::Done(report);
        self.log(now, job, ClusterEventKind::Completed);
        Ok(())
    }

    fn rejected_report(&self, job: usize) -> TenantReport {
        let spec = &self.jobs[job];
        TenantReport {
            job,
            name: spec.name.clone(),
            model: spec.graph.name().to_owned(),
            weight: spec.weight,
            arrival_ns: spec.arrival_ns,
            admitted_ns: None,
            completed_ns: None,
            wait_ns: 0,
            steps: 0,
            step_ns: Vec::new(),
            p50_step_ns: 0,
            p99_step_ns: 0,
            evictions: 0,
            evicted_pages: 0,
            quota_breaches: 0,
            final_quota_pages: 0,
            fault: FaultCounters::default(),
            report: TrainReport {
                model: spec.graph.name().to_owned(),
                policy: "sentinel".to_owned(),
                batch: spec.graph.batch(),
                steps: Vec::new(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{fast_sized_for, SentinelRuntime};
    use sentinel_models::{ModelSpec, ModelZoo};

    fn graph() -> Graph {
        ModelZoo::build(&ModelSpec::resnet(20, 4).with_scale(4)).unwrap()
    }

    fn fleet_for(graphs: &[&Graph], frac: f64) -> HmConfig {
        let peak: u64 = graphs.iter().map(|g| g.peak_live_bytes()).sum();
        let bytes = ((peak as f64 * frac).ceil() as u64).max(1 << 20);
        HmConfig::optane_like().without_cache().with_fast_capacity(bytes)
    }

    #[test]
    fn max_min_respects_weights_and_demands() {
        // Equal weights, ample capacity: everyone gets their demand.
        assert_eq!(weighted_max_min(100, &[(1, 30), (1, 20)]), vec![30, 20]);
        // Contended, equal weights: split evenly.
        assert_eq!(weighted_max_min(100, &[(1, 90), (1, 90)]), vec![50, 50]);
        // Weight 2:1 under contention.
        assert_eq!(weighted_max_min(90, &[(2, 90), (1, 90)]), vec![60, 30]);
        // Slack from a small demand refills the big one.
        assert_eq!(weighted_max_min(100, &[(1, 10), (1, 95)]), vec![10, 90]);
        // Conservation: never hands out more than the total.
        let alloc = weighted_max_min(7, &[(3, 100), (2, 100), (2, 100)]);
        assert_eq!(alloc.iter().sum::<u64>(), 7);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        assert_eq!(percentile_ns(&[], 50), 0);
        assert_eq!(percentile_ns(&[7], 50), 7);
        assert_eq!(percentile_ns(&[7], 99), 7);
        assert_eq!(percentile_ns(&[1, 2, 3, 4], 50), 2);
        assert_eq!(percentile_ns(&[1, 2, 3, 4], 99), 4);
    }

    #[test]
    fn single_tenant_cluster_matches_the_single_runtime() {
        let g = graph();
        // Under pressure (fast < peak) and with room to spare (fast > peak):
        // work-conserving quotas hand a lone tenant the whole fleet either
        // way, so both cases must match the plain runtime.
        for frac in [0.2, 2.0] {
            let hm = fast_sized_for(HmConfig::optane_like().without_cache(), &g, frac);
            let solo = SentinelRuntime::new(SentinelConfig::default(), hm.clone())
                .train(&g, 6)
                .unwrap();
            let outcome = ClusterScheduler::new(hm).run(&[JobSpec::new("solo", &g, 0, 6)])
                .unwrap();
            assert_eq!(outcome.admissions, 1);
            assert_eq!(outcome.evictions, 0);
            assert_eq!(outcome.tenants[0].report.steps, solo.report.steps);
        }
    }

    #[test]
    fn contended_fleet_evicts_and_completes_everyone() {
        let g1 = graph();
        let g2 = ModelZoo::build(&ModelSpec::mobilenet(4).with_scale(4)).unwrap();
        let hm = fleet_for(&[&g1, &g2], 0.25);
        let jobs = vec![
            JobSpec::new("a", &g1, 0, 6).with_weight(2),
            JobSpec::new("b", &g2, 500_000, 6),
        ];
        let outcome = ClusterScheduler::new(hm).run(&jobs).unwrap();
        assert_eq!(outcome.admissions, 2);
        for t in &outcome.tenants {
            assert!(t.completed_ns.is_some(), "tenant {} did not finish", t.name);
            assert_eq!(t.steps, 6);
        }
        // Reservation never exceeds the fleet at any event.
        for e in &outcome.events {
            assert!(e.fleet_reserved_pages <= outcome.fleet_fast_pages);
            assert!(e.fleet_used_pages <= outcome.fleet_fast_pages);
        }
    }

    #[test]
    fn step_end_fires_before_an_arrival_at_the_same_instant() {
        let g = graph();
        let hm = fleet_for(&[&g, &g], 0.25);
        // A non-final step-end instant of job A, read from its solo log.
        let solo = ClusterScheduler::new(hm.clone()).run(&[JobSpec::new("a", &g, 0, 6)]).unwrap();
        let tie = solo
            .events
            .iter()
            .find(|e| matches!(e.kind, ClusterEventKind::StepEnd { step: 1, .. }))
            .expect("A ends step 1")
            .at;
        let jobs = [JobSpec::new("a", &g, 0, 6), JobSpec::new("b", &g, tie, 6)];
        let outcome = ClusterScheduler::new(hm).run(&jobs).unwrap();
        let at_tie = |job: usize, kind: fn(&ClusterEventKind) -> bool| {
            outcome.events.iter().position(|e| e.at == tie && e.job == job && kind(&e.kind))
        };
        let step_end = at_tie(0, |k| matches!(k, ClusterEventKind::StepEnd { step: 1, .. }))
            .expect("A's step 1 still ends at the tie");
        let arrival =
            at_tie(1, |k| *k == ClusterEventKind::Arrival).expect("B arrives at the tie");
        assert!(step_end < arrival, "B's arrival was logged before A's step end");
        // A passed its boundary before B arrived, so no quota shrink could
        // make room for B at that instant.
        assert_eq!(at_tie(1, |k| matches!(k, ClusterEventKind::Admitted { .. })), None);
        assert!(outcome.tenants[1].admitted_ns.is_some_and(|t| t > tie));
    }

    #[test]
    fn same_instant_arrivals_are_logged_in_job_order() {
        let g = graph();
        let hm = fleet_for(&[&g, &g, &g], 0.25);
        let jobs = [
            JobSpec::new("a", &g, 5_000, 2),
            JobSpec::new("b", &g, 5_000, 2),
            JobSpec::new("c", &g, 5_000, 2),
        ];
        let outcome = ClusterScheduler::new(hm).run(&jobs).unwrap();
        let arrivals: Vec<(Ns, usize)> = outcome
            .events
            .iter()
            .filter(|e| e.kind == ClusterEventKind::Arrival)
            .map(|e| (e.at, e.job))
            .collect();
        assert_eq!(arrivals, vec![(5_000, 0), (5_000, 1), (5_000, 2)]);
    }

    #[test]
    fn impossible_admission_floor_is_rejected_not_hung() {
        let g = graph();
        // A fleet below the 1 MiB floor every admission needs.
        let hm = HmConfig::optane_like().without_cache().with_fast_capacity(1 << 19);
        let outcome = ClusterScheduler::new(hm).run(&[JobSpec::new("big", &g, 0, 4)]).unwrap();
        assert_eq!(outcome.rejected, 1);
        assert_eq!(outcome.admissions, 0);
        assert!(outcome.tenants[0].admitted_ns.is_none());
    }
}
