//! Byte-transparency of the adaptive control loop: with
//! `SentinelConfig::adaptive` unset nothing changes (the committed goldens
//! pin that), and even with the loop *enabled*, a run that never drifts is
//! byte-identical to a static run — the detector only observes until a
//! verdict trips.

use sentinel_core::{fast_sized_for, SentinelConfig, SentinelRuntime};
use sentinel_mem::HmConfig;
use sentinel_models::{ModelSpec, ModelZoo};
use sentinel_util::ToJson;

#[test]
fn becalmed_adaptive_loop_is_byte_transparent() {
    let spec = ModelSpec::resnet(32, 64).with_scale(4);
    let graph = ModelZoo::build(&spec).unwrap();
    let hm = fast_sized_for(HmConfig::optane_like(), &graph, 0.2);
    let off = SentinelRuntime::new(SentinelConfig::default(), hm.clone())
        .train(&graph, 8)
        .unwrap();
    let on = SentinelRuntime::new(SentinelConfig::default().with_adaptive(), hm)
        .train(&graph, 8)
        .unwrap();

    // The full per-step record — durations, breakdowns, migration counters,
    // warnings — is byte-identical: a calm detector never perturbs the run.
    assert_eq!(
        off.report.to_json().to_string(),
        on.report.to_json().to_string(),
        "enabling a calm adaptive loop changed the run"
    );
    assert_eq!(off.stats.mil, on.stats.mil);

    // The outcome surfaces the loop's (idle) activity only when enabled.
    assert!(off.adapt.is_none());
    let a = on.adapt.expect("adaptive outcome present when enabled");
    assert_eq!((a.drift_events, a.observation_steps, a.resolves), (0, 0, 0), "{a:?}");
    assert!(a.warnings.is_empty(), "{a:?}");
    assert!(a.boundary_checks > 0, "the detector did sample boundaries: {a:?}");
}
