//! Sentinel plans from the profiler's own profiling step: the profile a
//! training run records equals a standalone profiling run of the same
//! graph on the same platform, field for field, with and without warmup.

use sentinel_core::{fast_sized_for, SentinelConfig, SentinelRuntime};
use sentinel_dnn::{Executor, Graph};
use sentinel_mem::{HmConfig, MemorySystem};
use sentinel_models::{ModelSpec, ModelZoo};
use sentinel_profiler::{ProfileReport, Profiler, ProfilingPolicy};

/// What `Profiler::profile` does, after `warmup` unprofiled steps.
fn standalone_profile(hm: &HmConfig, graph: &Graph, warmup: usize) -> ProfileReport {
    let mut exec = Executor::new(graph, MemorySystem::new(hm.clone()));
    let mut policy = ProfilingPolicy::new(warmup);
    for _ in 0..=warmup {
        exec.run_step(&mut policy).unwrap();
    }
    policy.take_report().expect("the profiled step builds its report")
}

#[test]
fn runtime_profile_equals_the_standalone_profiler() {
    // The five Figure 7 models.
    let models = [
        ModelSpec::resnet(32, 64),
        ModelSpec::bert_base(8),
        ModelSpec::lstm(32),
        ModelSpec::mobilenet(16),
        ModelSpec::dcgan(64),
    ];
    let platforms = [
        ("optane", HmConfig::optane_like(), SentinelConfig::default()),
        ("optane without cache", HmConfig::optane_like().without_cache(), SentinelConfig::default()),
        ("gpu", HmConfig::gpu_like(), SentinelConfig::gpu()),
    ];
    for spec in models {
        let graph = ModelZoo::build(&spec.with_scale(4)).unwrap();
        for (platform, hm, cfg) in &platforms {
            let hm = fast_sized_for(hm.clone(), &graph, 0.2);
            for warmup in [0, 2] {
                let cfg = SentinelConfig { profile_warmup: warmup, ..cfg.clone() };
                let run = SentinelRuntime::new(cfg, hm.clone()).train(&graph, warmup + 1).unwrap();
                let standalone = standalone_profile(&hm, &graph, warmup);
                if warmup == 0 {
                    assert_eq!(Profiler::new(hm.clone()).profile(&graph).unwrap(), standalone);
                }
                assert_eq!(
                    run.profile.as_ref(),
                    Some(&standalone),
                    "{} on {platform}, warmup {warmup}",
                    graph.name()
                );
            }
        }
    }
}
