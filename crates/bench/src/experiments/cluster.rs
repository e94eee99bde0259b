//! Cluster experiment: N tenants sharing one heterogeneous memory fleet.
//!
//! A seeded open-loop arrival trace of mixed models is multiplexed over a
//! fleet whose fast tier holds only a fraction of the tenants' summed peak
//! footprints, so admission, weighted max-min quotas and cold-tensor
//! demotion all engage. Reports per-tenant queueing delay and p50/p99 step
//! latency next to the fleet-wide admission/eviction/breach counters.

use crate::harness::{ExpConfig, ExpResult};
use sentinel_core::{ClusterScheduler, JobSpec, SentinelConfig, SentinelRuntime};
use sentinel_dnn::Graph;
use sentinel_mem::{HmConfig, Ns};
use sentinel_models::{ModelSpec, ModelZoo};
use sentinel_util::Rng;

/// Jobs in the arrival trace: one per model of the rotation.
const TENANTS: usize = 3;

/// Seed of the arrival jitter.
const ARRIVAL_SEED: u64 = 0xC1A5;

/// The model rotation tenants draw from, biggest-first: the incumbent
/// fills the fast tier while alone, so later arrivals force a quota shrink
/// below its live usage and the cold-demotion path engages.
fn model_rotation(cfg: &ExpConfig) -> Vec<ModelSpec> {
    let s = cfg.scale();
    vec![
        ModelSpec::lstm(8).with_scale(s),
        ModelSpec::resnet(20, 4).with_scale(s),
        ModelSpec::mobilenet(4).with_scale(s),
    ]
}

/// Calibrate the arrival scale against the incumbent: a solo 2-step probe
/// at fleet capacity returns (profiling step, first trained step) durations.
/// The cluster grants a lone tenant the whole fleet (work-conserving), so
/// the probe reproduces tenant 0's first interval boundaries exactly — at
/// any model scale, not just the fast-mode one.
fn calibrate(graph: &Graph, hm: &HmConfig) -> (Ns, Ns) {
    let outcome = SentinelRuntime::new(SentinelConfig::default(), hm.clone())
        .train(graph, 2)
        .expect("calibration probe completes");
    let profiling = outcome.report.steps[0].duration_ns;
    let trained = outcome.report.steps[1].duration_ns.max(1);
    (profiling, trained)
}

/// Build the deterministic arrival trace over pre-built graphs.
fn trace(graphs: &[Graph], steps: usize, profiling_ns: Ns, step_ns: Ns) -> Vec<JobSpec<'_>> {
    let mut rng = Rng::seed_from_u64(ARRIVAL_SEED);
    // Weight rotation 1:2:2 — tenant 0 is a batch tenant that warms up
    // alone; the later arrivals are premium, so the fairness retarget
    // drives the incumbent *below* its live fast usage.
    let weights = [1u64, 2, 2];
    // Later arrivals land just after the incumbent's profiling step, packed
    // with seeded jitter inside its first trained steps, so the incumbent
    // is warm (fast tier populated) when each quota shrink lands — that is
    // what forces the transient breach and cold demotion.
    let mut at: Ns = profiling_ns + step_ns / 4;
    (0..TENANTS)
        .map(|i| {
            let arrival = if i == 0 {
                0
            } else {
                at += rng.gen_range(0, step_ns / 8 + 1);
                let a = at;
                at += step_ns / 8;
                a
            };
            JobSpec::new(
                &format!("tenant{i}"),
                &graphs[i % graphs.len()],
                arrival,
                steps,
            )
            .with_weight(weights[i % weights.len()])
        })
        .collect()
}

/// Cluster sweep: seeded mixed-model arrival trace under quota pressure.
pub fn cluster(cfg: &ExpConfig) -> ExpResult {
    let specs = model_rotation(cfg);
    let graphs: Vec<Graph> = (0..TENANTS)
        .map(|i| ModelZoo::build(&specs[i % specs.len()]).expect("model builds"))
        .collect();
    // Fast tier sized to ~25% of the summed peaks: every tenant fits alone,
    // the set does not — admission and demotion must arbitrate.
    let peak: u64 = graphs.iter().map(Graph::peak_live_bytes).sum();
    let fleet_bytes = ((peak as f64 * 0.25).ceil() as u64).max(1 << 20);
    let hm = HmConfig::optane_like().without_cache().with_fast_capacity(fleet_bytes);
    let (profiling_ns, step_ns) = calibrate(&graphs[0], &hm);
    let jobs = trace(&graphs, cfg.steps(), profiling_ns, step_ns);
    let outcome = ClusterScheduler::new(hm).run(&jobs).expect("cluster run completes");

    // The admission floor is the scheduler's: 10% of a job's peak footprint.
    let mut md = format!(
        "Fleet fast tier: {} pages; {} tenants, arrival seed {ARRIVAL_SEED:#x}, \
         admission floor 0.1.\n\n\
         | tenant | model | weight | arrival (ns) | wait (ns) | p50 step (ns) | p99 step (ns) | evictions | breaches |\n\
         |---|---|---|---|---|---|---|---|---|\n",
        outcome.fleet_fast_pages,
        jobs.len(),
    );
    for t in &outcome.tenants {
        md.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            t.name,
            t.model,
            t.weight,
            t.arrival_ns,
            t.wait_ns,
            t.p50_step_ns,
            t.p99_step_ns,
            t.evictions,
            t.quota_breaches,
        ));
    }
    md.push_str(&format!(
        "\nFleet: {} admitted, {} rejected, {} evictions, {} quota breaches, makespan {} ns.\n",
        outcome.admissions,
        outcome.rejected,
        outcome.evictions,
        outcome.quota_breaches,
        outcome.makespan_ns,
    ));
    ExpResult::new(
        "cluster",
        "Cluster: multi-tenant scheduling over one fleet",
        md,
        &outcome,
    )
}
