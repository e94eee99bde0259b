//! The cluster scheduler's determinism contract, locked down byte-for-byte:
//!
//! * a fixed-seed cluster run serializes identically across `--jobs 1` and
//!   `--jobs 4` and across back-to-back replays,
//! * a single-job cluster is byte-identical to the plain
//!   [`SentinelRuntime`](sentinel::core::SentinelRuntime) path (the
//!   scheduler is transparent when there is nothing to arbitrate),
//! * faults injected into tenant A are counted in A's report only.

use sentinel::bench::{experiment_registry, ExpConfig};
use sentinel::core::{fast_sized_for, ClusterScheduler, JobSpec, SentinelConfig, SentinelRuntime};
use sentinel::mem::{FaultProfile, HmConfig};
use sentinel::models::{ModelSpec, ModelZoo};
use sentinel::util::ToJson;

/// Render the `cluster` experiment to its on-disk JSON bytes at a given
/// worker count, exactly as `run_experiments --jobs N` would.
fn render_cluster(jobs: usize) -> String {
    let (_, generator) = experiment_registry()
        .into_iter()
        .find(|(id, _)| *id == "cluster")
        .expect("cluster experiment is registered");
    sentinel::util::set_default_jobs(jobs);
    let result = generator(&ExpConfig::new(true).with_jobs(jobs));
    sentinel::util::set_default_jobs(0);
    result.to_json().to_pretty_string()
}

#[test]
fn cluster_experiment_is_byte_identical_at_any_job_count() {
    let serial = render_cluster(1);
    let parallel = render_cluster(4);
    assert_eq!(serial, parallel, "cluster result changed between --jobs 1 and --jobs 4");
}

#[test]
fn cluster_replay_is_byte_identical() {
    let graph = ModelZoo::build(&ModelSpec::resnet(20, 4).with_scale(4)).unwrap();
    let small = ModelZoo::build(&ModelSpec::mobilenet(4).with_scale(4)).unwrap();
    let peak = graph.peak_live_bytes() + small.peak_live_bytes();
    let hm = HmConfig::optane_like().without_cache().with_fast_capacity(peak / 4);
    let jobs = vec![
        JobSpec::new("a", &graph, 0, 5).with_weight(2),
        JobSpec::new("b", &small, 40_000_000, 5),
        JobSpec::new("c", &graph, 90_000_000, 4).with_fault(FaultProfile::light(), 0xBEEF),
    ];
    let run = || {
        ClusterScheduler::new(hm.clone())
            .run(&jobs)
            .expect("cluster run completes")
            .to_json()
            .to_pretty_string()
    };
    assert_eq!(run(), run(), "replaying the same trace produced different bytes");
}

/// A one-job cluster must be invisible: same per-step reports, same fault
/// counters, same simulated clock as the single-runtime path — compared on
/// serialized bytes, under pressure and with fast capacity to spare.
#[test]
fn single_job_cluster_is_transparent() {
    let graph = ModelZoo::build(&ModelSpec::resnet(20, 4).with_scale(4)).unwrap();
    for frac in [0.2, 2.0] {
        let hm = fast_sized_for(HmConfig::optane_like().without_cache(), &graph, frac);
        let solo = SentinelRuntime::new(SentinelConfig::default(), hm.clone())
            .train(&graph, 6)
            .expect("solo run completes");
        let outcome = ClusterScheduler::new(hm)
            .run(&[JobSpec::new("solo", &graph, 0, 6)])
            .expect("cluster run completes");
        let tenant = &outcome.tenants[0];
        assert_eq!(
            tenant.report.to_json().to_pretty_string(),
            solo.report.to_json().to_pretty_string(),
            "per-step report diverged from the single runtime at frac {frac}"
        );
        assert_eq!(tenant.fault, solo.fault_counters);
        assert_eq!(outcome.evictions, 0);
        assert_eq!(outcome.quota_breaches, 0);
    }
}

/// Each tenant owns its memory system, so fault counters are structural:
/// heavy faults injected into tenant A show up in A's report and never in
/// B's. (B's timing may still move: A's faults shift A's step boundaries,
/// and with them when the max-min quotas retarget.)
#[test]
fn faults_in_one_tenant_never_leak_into_another() {
    let big = ModelZoo::build(&ModelSpec::resnet(20, 4).with_scale(4)).unwrap();
    let peak = big.peak_live_bytes();
    let hm = HmConfig::optane_like().without_cache().with_fast_capacity(peak / 2);
    let a = JobSpec::new("a", &big, 0, 5).with_fault(FaultProfile::heavy(), 0xFA17);
    let jobs = vec![a, JobSpec::new("b", &big, 0, 5)];
    let outcome = ClusterScheduler::new(hm).run(&jobs).expect("cluster run completes");
    assert!(
        !outcome.tenants[0].fault.is_zero(),
        "heavy profile injected nothing into tenant A"
    );
    assert!(outcome.tenants[1].fault.is_zero(), "tenant B reported someone else's faults");
}
