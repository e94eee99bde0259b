//! Adaptation experiment: a co-tenant arrives mid-run.
//!
//! Halfway through training a co-tenant claims half the fast tier (a page
//! quota, the same lever the cluster arbiter uses). Static Sentinel keeps
//! executing a plan solved for the full machine — in particular its
//! short-lived reservation, sized at half the *configured* tier, now
//! swallows the entire quota, so the long-lived hot set is starved out of
//! fast memory indefinitely. The drift-adaptive loop
//! (`sentinel_core::adapt`) detects the slow-access surge, re-profiles for
//! one step, and re-solves against the *effective* capacity (re-clamping
//! the reservation with it), recovering to the oracle: a run on a machine
//! that was post-change-sized from the start. Fully deterministic (no
//! fault seeds), so the experiment is part of the committed goldens.

use crate::harness::{ExpConfig, ExpResult};
use sentinel_core::{fast_sized_for, SentinelConfig, SentinelPolicy};
use sentinel_dnn::Executor;
use sentinel_mem::{HmConfig, MemorySystem};
use sentinel_models::{ModelSpec, ModelZoo};

/// Fast tier sized to this fraction of the model's peak footprint.
const FAST_FRACTION: f64 = 0.2;
/// The quota keeps this fraction (1/2) of the fast tier after the arrival
/// — exactly the size of the stale plan's short-lived reservation, the
/// regime where keeping the old plan hurts most.
const QUOTA_NUM: u64 = 1;
const QUOTA_DEN: u64 = 2;
/// Steps executed after the co-tenant arrives (enough for the EWMA to
/// converge on the new level and trip, plus one observation step and a
/// fully recovered tail).
const POST_STEPS: usize = 10;
/// The recovered tail the post-change step time is averaged over.
const TAIL: usize = 4;

/// Which arm of the experiment a run belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Static plan, co-tenant arrival at the phase step.
    Static,
    /// Drift-adaptive loop on, same arrival.
    Adaptive,
    /// A machine that is post-change-sized from step 0 (the re-profiled
    /// optimum the adaptive run should approach).
    Oracle,
}

impl Variant {
    fn label(self) -> &'static str {
        match self {
            Variant::Static => "static",
            Variant::Adaptive => "adaptive",
            Variant::Oracle => "oracle",
        }
    }
}

/// One arm's measured curve and adaptation activity.
#[derive(Debug, Clone)]
pub struct VariantRun {
    /// Arm name (`static` / `adaptive` / `oracle`).
    pub variant: String,
    /// Mean managed-step time before the arrival (profiling step excluded).
    pub pre_change_step_ns: u64,
    /// Mean step time over the last `TAIL` steps after the arrival.
    pub post_change_step_ns: u64,
    /// Worst single step after the arrival (the detection + re-plan spike).
    pub worst_post_step_ns: u64,
    /// Drift excursions the adaptive loop saw (0 for the other arms).
    pub drift_events: u64,
    /// Incremental re-profiling steps spent.
    pub observation_steps: u64,
    /// Successful plan re-solves.
    pub resolves: u64,
    /// Policy warnings surfaced in step reports (0 on a clean recovery).
    pub warnings: u64,
    /// Full per-step duration curve (profiling step first).
    pub step_ns: Vec<u64>,
}

sentinel_util::impl_to_json!(VariantRun {
    variant,
    pre_change_step_ns,
    post_change_step_ns,
    worst_post_step_ns,
    drift_events,
    observation_steps,
    resolves,
    warnings,
    step_ns
});

/// Drive one arm: train `pre_steps` steps, let the co-tenant arrive
/// (except for the oracle, which starts on the shrunk machine), train
/// `POST_STEPS` more. Exposed so tests can assert the recovery claim on
/// the same machinery the figure uses.
#[must_use]
pub fn run_variant(spec: &ModelSpec, variant: Variant, pre_steps: usize) -> VariantRun {
    let graph = ModelZoo::build(spec).expect("model builds");
    let full = fast_sized_for(HmConfig::optane_like(), &graph, FAST_FRACTION);
    let fast_pages = full.fast.capacity_bytes / full.page_size;
    let quota_pages = (fast_pages * QUOTA_NUM / QUOTA_DEN).max(1);
    let mut hm = full;
    if variant == Variant::Oracle {
        hm.fast.capacity_bytes = quota_pages * hm.page_size;
    }
    let cfg = match variant {
        Variant::Adaptive => SentinelConfig::default().with_adaptive(),
        _ => SentinelConfig::default(),
    };
    let mut exec = Executor::new(&graph, MemorySystem::new(hm));
    let mut policy = SentinelPolicy::new(cfg);
    let mut step_ns = Vec::new();
    let mut warnings = 0u64;
    for step in 0..pre_steps + POST_STEPS {
        if step == pre_steps && variant != Variant::Oracle {
            exec.ctx_mut().mem_mut().set_fast_quota_pages(Some(quota_pages));
            let excess = exec.ctx().mem().fast_quota_excess_pages();
            policy.demote_cold_for_quota(excess, exec.ctx_mut());
        }
        let report = exec.run_step(&mut policy).expect("adaptation run completes");
        warnings += report.warnings.len() as u64;
        step_ns.push(report.duration_ns);
    }
    if let Some(e) = policy.take_solver_error() {
        panic!("adaptation run hit a solver error: {e}");
    }
    if let Some(v) = policy.violation() {
        panic!("adaptation run broke a residency invariant: {v}");
    }
    let adapt = policy.adapt_report();
    let mean = |s: &[u64]| (s.iter().sum::<u64>() / s.len().max(1) as u64).max(1);
    let post = &step_ns[step_ns.len() - TAIL..];
    VariantRun {
        variant: variant.label().to_owned(),
        pre_change_step_ns: mean(&step_ns[1..pre_steps]),
        post_change_step_ns: mean(post),
        worst_post_step_ns: *post.iter().max().expect("tail is non-empty"),
        drift_events: adapt.map_or(0, |a| a.drift_events),
        observation_steps: adapt.map_or(0, |a| a.observation_steps),
        resolves: adapt.map_or(0, |a| a.resolves),
        warnings,
        step_ns,
    }
}

/// Static vs drift-adaptive Sentinel across a mid-run co-tenant arrival,
/// with the shrunk-machine oracle as the recovery target.
pub fn adaptive(cfg: &ExpConfig) -> ExpResult {
    let spec = ModelSpec::resnet(32, 64).with_scale(cfg.scale());
    let pre_steps = cfg.steps();
    let arms = [Variant::Static, Variant::Adaptive, Variant::Oracle];
    let rows: Vec<VariantRun> =
        cfg.pool().par_map(arms.to_vec(), |v| run_variant(&spec, v, pre_steps));
    let oracle_post = rows[2].post_change_step_ns as f64;
    let mut md = format!(
        "{} at fast = {:.0}% of peak; from step {} a co-tenant caps the job \
         at a {}/{} fast-tier quota. Post-change step time is the mean of \
         the last {} steps.\n\n\
         | variant | pre step (ns) | post step (ns) | post vs oracle | drift | re-profiles | re-solves | warnings |\n\
         |---|---|---|---|---|---|---|---|\n",
        spec.name(),
        FAST_FRACTION * 100.0,
        pre_steps,
        QUOTA_NUM,
        QUOTA_DEN,
        TAIL,
    );
    for r in &rows {
        md.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
            r.variant,
            r.pre_change_step_ns,
            r.post_change_step_ns,
            crate::harness::fx(r.post_change_step_ns as f64 / oracle_post),
            r.drift_events,
            r.observation_steps,
            r.resolves,
            r.warnings,
        ));
    }
    ExpResult::new("adaptive", "Adaptation: a co-tenant arrives mid-run", md, &rows)
}
