//! Golden-shape tests: run the fast-mode figure/table generators and assert
//! the qualitative shapes documented in DESIGN.md §5 and EXPERIMENTS.md, so a
//! policy regression fails a test instead of silently bending a figure.
//!
//! These deliberately assert *shapes* (orderings, bounds, flatness) with
//! tolerance rather than golden numbers: the numeric values shift whenever a
//! cost model is retuned, but the paper's qualitative claims must not.

use sentinel::bench::{experiment_registry, ExpConfig};
use sentinel::util::{Json, ToJson};

/// Run one experiment in fast mode and return its serialized `data` payload.
fn run(id: &str) -> Json {
    let (_, generator) = experiment_registry()
        .into_iter()
        .find(|(known, _)| *known == id)
        .unwrap_or_else(|| panic!("unknown experiment id {id}"));
    let result = generator(&ExpConfig::new(true));
    let json = result.to_json();
    json.get("data").unwrap_or_else(|| panic!("{id}: no data payload")).clone()
}

/// Extract a numeric field, accepting any of the JSON number variants.
fn num(row: &Json, key: &str) -> f64 {
    match row.get(key) {
        Some(Json::F64(v)) => *v,
        Some(Json::U64(v)) => *v as f64,
        Some(Json::I64(v)) => *v as f64,
        other => panic!("field {key} is not a number: {other:?}"),
    }
}

/// Extract a nullable numeric field (`null` marks "n/a", e.g. vDNN on
/// models without convolution layers).
fn opt_num(row: &Json, key: &str) -> Option<f64> {
    match row.get(key) {
        Some(Json::Null) => None,
        _ => Some(num(row, key)),
    }
}

fn rows(data: &Json) -> &[Json] {
    match data {
        Json::Arr(rows) => rows,
        other => panic!("data is not an array: {other:?}"),
    }
}

/// Figure 7 (DESIGN §5): Sentinel at 20% fast memory approaches fast-only
/// performance and beats AutoTM, while IAL trails every other policy.
#[test]
fn fig7_sentinel_near_fast_only_and_ial_worst() {
    let data = run("fig7");
    let mut fast_sum = 0.0;
    let mut sentinel_sum = 0.0;
    for row in rows(&data) {
        let model = row.get("model").map(|m| m.to_string()).unwrap_or_default();
        let fast_only = num(row, "fast_only");
        let ial = num(row, "ial");
        let autotm = num(row, "autotm");
        let sentinel = num(row, "sentinel");

        for (name, v) in [("fast_only", fast_only), ("ial", ial), ("autotm", autotm), ("sentinel", sentinel)] {
            assert!(v >= 0.95, "{model}: {name} = {v:.3} is below slow-only parity");
        }
        assert!(ial <= autotm && ial <= sentinel, "{model}: IAL ({ial:.3}) should be the weakest policy");
        assert!(sentinel >= autotm, "{model}: Sentinel ({sentinel:.3}) should beat AutoTM ({autotm:.3})");
        assert!(sentinel <= fast_only * 1.001, "{model}: Sentinel ({sentinel:.3}) cannot beat fast-only ({fast_only:.3})");
        fast_sum += fast_only;
        sentinel_sum += sentinel;
    }
    assert!(
        sentinel_sum >= 0.75 * fast_sum,
        "Sentinel mean speedup ({:.3}) fell below 75% of fast-only ({:.3})",
        sentinel_sum / 5.0,
        fast_sum / 5.0
    );
}

/// Figure 10 (DESIGN §5): Sentinel's overhead over fast-only is bounded and
/// flat — already close to parity at 20% fast memory, no worse at 60%.
#[test]
fn fig10_overhead_is_bounded_and_shrinks_with_fast_size() {
    let data = run("fig10");
    for row in rows(&data) {
        let model = row.get("model").map(|m| m.to_string()).unwrap_or_default();
        let rel = match row.get("relative_to_fast_only") {
            Some(Json::Arr(vals)) => vals
                .iter()
                .map(|v| match v {
                    Json::F64(v) => *v,
                    Json::U64(v) => *v as f64,
                    other => panic!("{model}: non-numeric point {other:?}"),
                })
                .collect::<Vec<f64>>(),
            other => panic!("{model}: missing relative_to_fast_only: {other:?}"),
        };
        assert_eq!(rel.len(), 5, "{model}: expected points at 20..60%");
        for (i, v) in rel.iter().enumerate() {
            assert!(
                (0.95..=1.7).contains(v),
                "{model}: point {i} = {v:.3} outside the near-parity band [0.95, 1.7]"
            );
        }
        // Curve trends toward parity as fast memory grows...
        assert!(
            rel[4] <= rel[0] * 1.001,
            "{model}: overhead at 60% ({:.3}) exceeds overhead at 20% ({:.3})",
            rel[4],
            rel[0]
        );
        // ...and is flat from the start: 20% is within 25% of the 40% point.
        assert!(
            rel[0] <= rel[2] * 1.25,
            "{model}: overhead cliff between 20% ({:.3}) and 40% ({:.3})",
            rel[0],
            rel[2]
        );
    }
}

/// Figure 12 (EXPERIMENTS.md): across the GPU grid, vDNN is the weakest
/// policy, Sentinel-GPU tracks UM closely, stays ahead of Capuchin on
/// average and within 10% of the best-performing policy's mean.
#[test]
fn fig12_sentinel_gpu_competitive_and_vdnn_worst() {
    let data = run("fig12");
    let policies = ["vdnn", "autotm", "swapadvisor", "capuchin", "sentinel_gpu"];
    let mut sums = [0.0f64; 5];
    let mut counts = [0usize; 5];
    for row in rows(&data) {
        assert!((num(row, "um") - 1.0).abs() < 1e-9, "UM is the normalizer and must be 1.0");
        for (p, name) in policies.iter().enumerate() {
            if let Some(v) = opt_num(row, name) {
                assert!(v > 0.0 && v < 5.0, "{name} throughput {v:.3} is implausible");
                sums[p] += v;
                counts[p] += 1;
            }
        }
    }
    let mean = |p: usize| sums[p] / counts[p] as f64;
    let (vdnn, capuchin, sentinel) = (mean(0), mean(3), mean(4));
    let best = (0..5).map(mean).fold(f64::MIN, f64::max);
    for (p, policy) in policies.iter().enumerate().skip(1) {
        assert!(vdnn <= mean(p), "vDNN mean ({vdnn:.3}) should be the weakest, but beats {policy}");
    }
    assert!(sentinel >= capuchin, "Sentinel-GPU mean ({sentinel:.3}) fell behind Capuchin ({capuchin:.3})");
    assert!(sentinel >= 0.9 * best, "Sentinel-GPU mean ({sentinel:.3}) more than 10% behind the best policy ({best:.3})");
    assert!(sentinel >= 0.85, "Sentinel-GPU mean ({sentinel:.3}) fell well below UM parity");
}

/// Cluster experiment (DESIGN §12): the per-tenant report schema is stable
/// and the default 3-tenant trace exercises real contention — everyone is
/// admitted, at least one tenant queues, at least one cold-tensor eviction
/// repays a quota shrink, and p50/p99 reconcile with the raw step series.
#[test]
fn cluster_schema_and_contention_shape() {
    let data = run("cluster");
    assert!(num(&data, "fleet_fast_pages") > 0.0);
    assert_eq!(num(&data, "admissions"), 3.0, "default trace must admit all 3 tenants");
    assert_eq!(num(&data, "rejected"), 0.0);
    assert!(num(&data, "evictions") >= 1.0, "default trace must evict at least once");
    assert!(
        num(&data, "quota_breaches") >= 1.0,
        "an eviction implies a reported transient breach"
    );
    assert!(num(&data, "makespan_ns") > 0.0);

    let tenants = match data.get("tenants") {
        Some(Json::Arr(rows)) => rows.clone(),
        other => panic!("tenants is not an array: {other:?}"),
    };
    assert_eq!(tenants.len(), 3);
    let mut total_evictions = 0.0;
    let mut total_breaches = 0.0;
    let mut waited = 0;
    for (i, t) in tenants.iter().enumerate() {
        // Golden shape of the per-tenant report schema.
        assert_eq!(num(t, "job"), i as f64);
        for key in [
            "weight",
            "arrival_ns",
            "wait_ns",
            "steps",
            "p50_step_ns",
            "p99_step_ns",
            "evictions",
            "evicted_pages",
            "quota_breaches",
            "final_quota_pages",
        ] {
            assert!(num(t, key) >= 0.0, "tenant {i}: missing field {key}");
        }
        assert!(t.get("name").is_some() && t.get("model").is_some());
        let admitted = opt_num(t, "admitted_ns").expect("default trace admits everyone");
        let completed = opt_num(t, "completed_ns").expect("admitted tenants complete");
        assert!(completed > admitted, "tenant {i}: completion precedes admission");
        assert!(completed <= num(&data, "makespan_ns"));
        assert_eq!(num(t, "wait_ns"), admitted - num(t, "arrival_ns"));
        if num(t, "wait_ns") > 0.0 {
            waited += 1;
        }
        // p50/p99 reconcile with the raw per-step series (nearest rank).
        let steps = match t.get("step_ns") {
            Some(Json::Arr(vals)) => {
                vals.iter().map(num_val).collect::<Vec<f64>>()
            }
            other => panic!("tenant {i}: step_ns is not an array: {other:?}"),
        };
        assert_eq!(steps.len() as f64, num(t, "steps"));
        let mut sorted = steps.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = |p: usize| sorted[((p * sorted.len()).div_ceil(100)).max(1) - 1];
        assert_eq!(num(t, "p50_step_ns"), rank(50), "tenant {i}: p50 does not reconcile");
        assert_eq!(num(t, "p99_step_ns"), rank(99), "tenant {i}: p99 does not reconcile");
        total_evictions += num(t, "evictions");
        total_breaches += num(t, "quota_breaches");
    }
    assert_eq!(total_evictions, num(&data, "evictions"), "eviction counters must reconcile");
    assert_eq!(total_breaches, num(&data, "quota_breaches"), "breach counters must reconcile");
    assert!(waited >= 1, "default trace should make at least one tenant queue");
}

/// A bare JSON number (array element rather than object field).
fn num_val(v: &Json) -> f64 {
    match v {
        Json::F64(x) => *x,
        Json::U64(x) => *x as f64,
        Json::I64(x) => *x as f64,
        other => panic!("not a number: {other:?}"),
    }
}

/// Table V (DESIGN §5 / EXPERIMENTS.md): maximum trainable batch size obeys
/// the paper's ordering — Sentinel ≥ Capuchin ≥ AutoTM ≥ SwapAdvisor ≥
/// vDNN ≥ TensorFlow — with Sentinel strictly beating plain TensorFlow.
#[test]
fn table5_max_batch_ordering_holds() {
    let data = run("table5");
    for row in rows(&data) {
        let model = row.get("model").map(|m| m.to_string()).unwrap_or_default();
        let tf = num(row, "tensorflow");
        let sa = num(row, "swapadvisor");
        let autotm = num(row, "autotm");
        let capuchin = num(row, "capuchin");
        let sentinel = num(row, "sentinel");
        if let Some(vdnn) = opt_num(row, "vdnn") {
            assert!(sa >= vdnn, "{model}: SwapAdvisor ({sa}) below vDNN ({vdnn})");
            assert!(vdnn >= tf, "{model}: vDNN ({vdnn}) below TensorFlow ({tf})");
        }
        assert!(sentinel >= capuchin, "{model}: Sentinel ({sentinel}) below Capuchin ({capuchin})");
        assert!(capuchin >= autotm, "{model}: Capuchin ({capuchin}) below AutoTM ({autotm})");
        assert!(autotm >= sa, "{model}: AutoTM ({autotm}) below SwapAdvisor ({sa})");
        assert!(sa >= tf, "{model}: SwapAdvisor ({sa}) below TensorFlow ({tf})");
        assert!(sentinel > tf, "{model}: Sentinel ({sentinel}) does not extend TensorFlow's batch ({tf})");
    }
}

/// Adaptation experiment (DESIGN §14): the three-arm schema is stable, the
/// adaptive arm actually closes its loop (drift → one observation step →
/// one re-solve, no warnings), static stays measurably above the oracle
/// after the capacity loss, and adaptive recovers to near the oracle.
#[test]
fn adaptive_schema_and_recovery_shape() {
    let data = run("adaptive");
    let arms = rows(&data);
    assert_eq!(arms.len(), 3);
    for (arm, expected) in arms.iter().zip(["static", "adaptive", "oracle"]) {
        assert_eq!(
            arm.get("variant").map(|v| v.to_string()).unwrap_or_default(),
            format!("\"{expected}\"")
        );
        for key in [
            "pre_change_step_ns",
            "post_change_step_ns",
            "worst_post_step_ns",
            "drift_events",
            "observation_steps",
            "resolves",
            "warnings",
        ] {
            assert!(num(arm, key) >= 0.0, "{expected}: missing field {key}");
        }
        assert!(matches!(arm.get("step_ns"), Some(Json::Arr(v)) if !v.is_empty()));
    }
    let (stat, adap, orac) = (&arms[0], &arms[1], &arms[2]);
    assert_eq!(num(adap, "drift_events"), 1.0);
    assert_eq!(num(adap, "observation_steps"), 1.0);
    assert_eq!(num(adap, "resolves"), 1.0);
    for arm in [stat, orac] {
        assert_eq!(num(arm, "resolves"), 0.0, "only the adaptive arm may re-solve");
    }
    for arm in [stat, adap, orac] {
        assert_eq!(num(arm, "warnings"), 0.0, "no degradation warnings on the healthy path");
    }
    let oracle_post = num(orac, "post_change_step_ns");
    assert!(
        num(stat, "post_change_step_ns") > oracle_post * 1.05,
        "static must stay degraded versus the oracle"
    );
    assert!(
        num(adap, "post_change_step_ns") < oracle_post * 1.05,
        "adaptive must recover to within 5% of the oracle"
    );
    assert!(num(adap, "post_change_step_ns") < num(stat, "post_change_step_ns"));
}
