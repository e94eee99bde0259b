//! The degradation ladder of the adaptive control loop: when the re-solve
//! finds no migration budget, the run must stay alive on the old plan with
//! a typed warning in the step report — never a panic and never a silent
//! wrong answer.
//!
//! Both runs use the mid-run capacity-loss scenario the bench `adaptive`
//! experiment uses. Losing the whole fast tier is what makes the re-solve
//! fail for real. The other rungs (a failed observation, a spent re-solve
//! budget) have no such outside trigger; `sentinel-core`'s own policy unit
//! tests drive them through the policy's adaptive state.

use sentinel_core::{fast_sized_for, AdaptReport, SentinelConfig, SentinelPolicy, SentinelStats};
use sentinel_dnn::{Executor, StepReport};
use sentinel_mem::{HmConfig, MemorySystem};
use sentinel_models::{ModelSpec, ModelZoo};

const PRE_STEPS: usize = 6;
const TOTAL_STEPS: usize = 16;

/// What one capacity-loss run leaves behind.
struct Run {
    reports: Vec<StepReport>,
    adapt: AdaptReport,
    stats: SentinelStats,
    /// The fast-tier quota imposed from step `PRE_STEPS` on.
    quota_pages: u64,
}

/// Drive the capacity-loss scenario with the adaptive loop on: from step
/// `PRE_STEPS` the fast tier keeps `quota_of(tier pages)` pages. Returns
/// every step report, the final adaptation report and counters.
fn drive(quota_of: fn(u64) -> u64) -> Run {
    let spec = ModelSpec::resnet(32, 64).with_scale(4);
    let graph = ModelZoo::build(&spec).unwrap();
    let hm = fast_sized_for(HmConfig::optane_like(), &graph, 0.2);
    let quota_pages = quota_of(hm.fast.capacity_bytes / hm.page_size);
    let mut exec = Executor::new(&graph, MemorySystem::new(hm));
    let mut policy = SentinelPolicy::new(SentinelConfig::default().with_adaptive());
    let mut reports = Vec::new();
    for step in 0..TOTAL_STEPS {
        if step == PRE_STEPS {
            exec.ctx_mut().mem_mut().set_fast_quota_pages(Some(quota_pages));
            let excess = exec.ctx().mem().fast_quota_excess_pages();
            policy.demote_cold_for_quota(excess, exec.ctx_mut());
        }
        reports.push(exec.run_step(&mut policy).expect("degraded run completes"));
    }
    assert!(policy.take_solver_error().is_none(), "no solver error may escape");
    assert!(policy.violation().is_none(), "no residency violation");
    let adapt = policy.adapt_report().cloned().expect("adaptive loop was on");
    Run { reports, adapt, stats: policy.stats(), quota_pages }
}

/// Collect every warning surfaced through the step reports.
fn step_warnings(reports: &[StepReport]) -> Vec<String> {
    reports.iter().flat_map(|r| r.warnings.iter().cloned()).collect()
}

#[test]
fn healthy_loop_recovers_without_warnings() {
    let Run { reports, adapt, stats, quota_pages } = drive(|pages| pages / 2);
    assert_eq!(reports.len(), TOTAL_STEPS);
    assert!(adapt.drift_events >= 1);
    assert_eq!(adapt.resolves, 1, "{adapt:?}");
    assert_eq!(adapt.degraded_tensors, 0, "{adapt:?}");
    assert!(step_warnings(&reports).is_empty(), "clean recovery raises no warnings");
    // The initial reservation is clamped to half the full tier; the re-solve
    // clamps it to half the quota, and the counters report the one in force.
    assert_eq!(stats.reserve_pages, quota_pages / 2, "{stats:?}");
}

#[test]
fn forced_zero_budget_resolve_keeps_the_old_plan_and_survives() {
    // A quota of zero pages leaves the re-solve no fast memory at all.
    let Run { reports, adapt, .. } = drive(|_| 0);
    assert_eq!(reports.len(), TOTAL_STEPS, "the run stays alive on the old plan");
    assert!(adapt.observation_steps >= 1, "the observation step itself succeeded: {adapt:?}");
    assert_eq!(adapt.resolves, 0, "a zero-budget solve must not swap a plan in");
    assert!(adapt.degraded_tensors > 0, "{adapt:?}");
    let warnings = step_warnings(&reports);
    assert!(
        warnings.iter().any(|w| w.contains("zero migration budget")),
        "typed warning surfaced in the step report: {warnings:?}"
    );
    assert!(adapt.warnings.iter().any(|w| w.contains("zero migration budget")), "{adapt:?}");
}
