//! Property-based invariants of the multi-tenant cluster scheduler:
//! randomized arrival traces × fleet sizes × fault profiles, audited at
//! every logged event.
//!
//! At *every* event of every generated run:
//!
//! * Σ per-tenant fast-tier pages never exceeds the fleet's fast capacity
//!   (and neither does the reservation total backing that argument),
//! * no tenant sits above its applied quota except during an
//!   explicitly-reported transient breach,
//! * every eviction victim is cold — its next scheduled use lies at or
//!   beyond the interval boundary the demotion was planned against,
//!
//! and at the end of every run: every admitted job completed, the
//! fleet-wide counters reconcile with the per-tenant ones, p50/p99 are
//! recomputable from the raw per-step latencies, and fault counters only
//! ever appear on tenants that were actually armed.
//!
//! Defaults to a fast case count; set `SENTINEL_PROP_CASES` (and
//! `SENTINEL_PROP_SEED`) for a full sweep.

use std::sync::OnceLock;

use sentinel::core::{percentile_ns, ClusterEventKind, ClusterOutcome, ClusterScheduler, JobSpec};
use sentinel::dnn::Graph;
use sentinel::mem::{FaultProfile, HmConfig};
use sentinel::models::{ModelSpec, ModelZoo};
use sentinel::util::prop::PropConfig;
use sentinel::util::{prop_assert, prop_assert_eq, Rng};

#[derive(Debug, Clone)]
struct TenantGen {
    model: usize,
    weight: u64,
    arrival_ns: u64,
    steps: usize,
    /// `Some((heavy, seed))` arms the tenant's private fault injector.
    fault: Option<(bool, u64)>,
}

#[derive(Debug, Clone)]
struct Scenario {
    tenants: Vec<TenantGen>,
    /// Fleet fast capacity as a percentage of the tenants' summed peaks.
    fleet_pct: u64,
}

/// The model pool, built once: graphs are immutable and shared by borrow.
fn graphs() -> &'static Vec<Graph> {
    static GRAPHS: OnceLock<Vec<Graph>> = OnceLock::new();
    GRAPHS.get_or_init(|| {
        [
            ModelSpec::resnet(20, 4).with_scale(4),
            ModelSpec::mobilenet(4).with_scale(4),
            ModelSpec::lstm(8).with_scale(4),
        ]
        .iter()
        .map(|spec| ModelZoo::build(spec).expect("model builds"))
        .collect()
    })
}

fn gen_scenario(rng: &mut Rng) -> Scenario {
    let n = rng.gen_usize(2, 5);
    let mut at = 0u64;
    let tenants = (0..n)
        .map(|i| {
            if i > 0 {
                at += rng.gen_range(0, 600_000_000);
            }
            TenantGen {
                model: rng.gen_usize(0, graphs().len()),
                weight: rng.gen_range(1, 4),
                arrival_ns: at,
                steps: rng.gen_usize(2, 5),
                fault: rng
                    .gen_bool(0.25)
                    .then(|| (rng.gen_bool(0.5), rng.next_u64())),
            }
        })
        .collect();
    Scenario { tenants, fleet_pct: *rng.choose(&[12, 20, 35, 60]) }
}

/// Shrink toward fewer tenants, fewer steps, no faults.
fn shrink_scenario(s: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    if s.tenants.len() > 1 {
        for i in 0..s.tenants.len() {
            let mut t = s.clone();
            t.tenants.remove(i);
            out.push(t);
        }
    }
    for i in 0..s.tenants.len() {
        if s.tenants[i].steps > 1 {
            let mut t = s.clone();
            t.tenants[i].steps -= 1;
            out.push(t);
        }
        if s.tenants[i].fault.is_some() {
            let mut t = s.clone();
            t.tenants[i].fault = None;
            out.push(t);
        }
        if s.tenants[i].arrival_ns > 0 {
            let mut t = s.clone();
            t.tenants[i].arrival_ns /= 2;
            out.push(t);
        }
    }
    out
}

fn run_scenario(s: &Scenario) -> ClusterOutcome {
    let pool = graphs();
    let jobs: Vec<JobSpec<'_>> = s
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut job = JobSpec::new(
                &format!("t{i}"),
                &pool[t.model],
                t.arrival_ns,
                t.steps,
            )
            .with_weight(t.weight);
            if let Some((heavy, seed)) = t.fault {
                let profile =
                    if heavy { FaultProfile::heavy() } else { FaultProfile::light() };
                job = job.with_fault(profile, seed);
            }
            job
        })
        .collect();
    let peak: u64 = jobs.iter().map(|j| j.graph.peak_live_bytes()).sum();
    let fleet_bytes = ((peak * s.fleet_pct) / 100).max(1 << 20);
    let hm = HmConfig::optane_like().without_cache().with_fast_capacity(fleet_bytes);
    ClusterScheduler::new(hm).run(&jobs).expect("cluster run completes")
}

#[test]
fn cluster_invariants_hold_on_random_traces() {
    let mut cfg = PropConfig::from_env();
    if std::env::var("SENTINEL_PROP_CASES").is_err() {
        // Each case is a whole cluster simulation; keep the default pass
        // quick and let the env opt into the full sweep.
        cfg = cfg.with_cases(10);
    }
    cfg.run(
        "cluster_invariants_hold_on_random_traces",
        gen_scenario,
        shrink_scenario,
        |s| {
            let outcome = run_scenario(s);

            // -- event-level invariants ------------------------------------
            for e in &outcome.events {
                prop_assert!(
                    e.fleet_used_pages <= outcome.fleet_fast_pages,
                    "fleet fast usage {} exceeds capacity {} at {:?}",
                    e.fleet_used_pages,
                    outcome.fleet_fast_pages,
                    e
                );
                prop_assert!(
                    e.fleet_reserved_pages <= outcome.fleet_fast_pages,
                    "fleet reservation {} exceeds capacity {} at {:?}",
                    e.fleet_reserved_pages,
                    outcome.fleet_fast_pages,
                    e
                );
                if !e.transient_breach {
                    prop_assert!(
                        e.job_used_pages <= e.job_quota_pages,
                        "tenant above quota without a reported breach at {:?}",
                        e
                    );
                }
                if let ClusterEventKind::Evicted { next_use, boundary, pages, .. } = &e.kind {
                    prop_assert!(*pages > 0, "eviction of a pageless tensor at {:?}", e);
                    prop_assert!(
                        next_use.is_none() || next_use.unwrap() >= *boundary,
                        "eviction victim was hot: next use {:?} before boundary {} at {:?}",
                        next_use,
                        boundary,
                        e
                    );
                }
            }

            // -- run-level invariants --------------------------------------
            let admitted: Vec<usize> = outcome
                .events
                .iter()
                .filter_map(|e| {
                    matches!(e.kind, ClusterEventKind::Admitted { .. }).then_some(e.job)
                })
                .collect();
            for &job in &admitted {
                prop_assert!(
                    outcome
                        .events
                        .iter()
                        .any(|e| e.job == job && e.kind == ClusterEventKind::Completed),
                    "admitted job {job} never completed"
                );
            }
            prop_assert_eq!(outcome.admissions as usize, admitted.len());
            prop_assert_eq!(
                outcome.admissions + outcome.rejected,
                s.tenants.len() as u64,
                "every job must end admitted or rejected"
            );
            let evicted_events = outcome
                .events
                .iter()
                .filter(|e| matches!(e.kind, ClusterEventKind::Evicted { .. }))
                .count() as u64;
            prop_assert_eq!(outcome.evictions, evicted_events);

            // -- per-tenant reconciliation ---------------------------------
            let mut evictions = 0;
            let mut breaches = 0;
            for (i, t) in outcome.tenants.iter().enumerate() {
                prop_assert_eq!(t.job, i);
                evictions += t.evictions;
                breaches += t.quota_breaches;
                if t.completed_ns.is_some() {
                    prop_assert_eq!(t.steps, s.tenants[i].steps);
                    prop_assert_eq!(t.step_ns.len(), t.steps);
                    let mut sorted = t.step_ns.clone();
                    sorted.sort_unstable();
                    prop_assert_eq!(t.p50_step_ns, percentile_ns(&sorted, 50));
                    prop_assert_eq!(t.p99_step_ns, percentile_ns(&sorted, 99));
                    let (Some(adm), Some(done)) = (t.admitted_ns, t.completed_ns) else {
                        unreachable!()
                    };
                    prop_assert!(adm >= t.arrival_ns);
                    prop_assert_eq!(t.wait_ns, adm - t.arrival_ns);
                    prop_assert!(done >= adm);
                    prop_assert!(done <= outcome.makespan_ns);
                } else {
                    prop_assert_eq!(t.steps, 0, "rejected tenant ran steps");
                }
                // Fault attribution is structural: only armed tenants may
                // report fault activity.
                if s.tenants[i].fault.is_none() {
                    prop_assert!(
                        t.fault.is_zero(),
                        "tenant {i} reports fault counters but was never armed: {:?}",
                        t.fault
                    );
                }
            }
            prop_assert_eq!(outcome.evictions, evictions);
            prop_assert_eq!(outcome.quota_breaches, breaches);
            Ok(())
        },
    );
}

/// Replaying any random scenario is byte-identical — determinism is not
/// just a fixed-seed special case.
#[test]
fn random_scenarios_replay_identically() {
    use sentinel::util::ToJson;
    let mut cfg = PropConfig::from_env();
    if std::env::var("SENTINEL_PROP_CASES").is_err() {
        cfg = cfg.with_cases(4);
    }
    cfg.run(
        "random_scenarios_replay_identically",
        gen_scenario,
        shrink_scenario,
        |s| {
            let a = run_scenario(s).to_json().to_pretty_string();
            let b = run_scenario(s).to_json().to_pretty_string();
            prop_assert_eq!(a, b, "replay diverged");
            Ok(())
        },
    );
}
