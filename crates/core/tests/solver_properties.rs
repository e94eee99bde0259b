//! Property tests for the interval plan and the Eq. 1/2 solver, on the
//! in-tree deterministic harness (`sentinel_util::prop`).

use sentinel_core::{solve_mil, IntervalPlan, Schedule};
use sentinel_mem::HmConfig;
use sentinel_models::{ModelSpec, ModelZoo};
use sentinel_profiler::Profiler;
use sentinel_util::prop::{check, shrink_usize};
use sentinel_util::{prop_assert, prop_assert_eq, Rng};

/// Shrink both coordinates of a (mil, layers) pair toward their lower bounds.
fn shrink_pair(mil_lo: usize, layers_lo: usize) -> impl Fn(&(usize, usize)) -> Vec<(usize, usize)> {
    move |&(mil, layers)| {
        let mut out: Vec<(usize, usize)> =
            shrink_usize(mil_lo)(&mil).into_iter().map(|m| (m, layers)).collect();
        out.extend(shrink_usize(layers_lo)(&layers).into_iter().map(|l| (mil, l)));
        out
    }
}

#[test]
fn interval_plan_partitions_layers_exactly() {
    check(
        "interval_plan_partitions_layers_exactly",
        |rng: &mut Rng| (rng.gen_usize(1, 40), rng.gen_usize(1, 120)),
        shrink_pair(1, 1),
        |&(mil, layers)| {
            let p = IntervalPlan::new(mil, layers);
            // Every layer belongs to exactly one interval, intervals tile the step.
            let mut covered = vec![false; layers];
            for k in 0..p.num_intervals() {
                let (s, e) = (p.start_layer(k), p.end_layer(k));
                prop_assert!(s < e || (s == e && k + 1 == p.num_intervals()));
                prop_assert!(e <= layers, "interval {} ends at {}, past the last layer", k, e);
                for (slot, l) in covered[s..e].iter_mut().zip(s..) {
                    prop_assert!(!*slot, "layer {} covered twice", l);
                    *slot = true;
                    prop_assert_eq!(p.interval_of(l), k);
                }
            }
            prop_assert!(covered.iter().all(|&c| c));
            // Interval starts are exactly the multiples of mil.
            for l in 0..layers {
                prop_assert_eq!(p.is_interval_start(l), l % p.mil == 0);
            }
            Ok(())
        },
    );
}

#[test]
fn plan_boundaries_are_monotone() {
    check(
        "plan_boundaries_are_monotone",
        |rng: &mut Rng| (rng.gen_usize(1, 20), rng.gen_usize(1, 80)),
        shrink_pair(1, 1),
        |&(mil, layers)| {
            let p = IntervalPlan::new(mil, layers);
            for k in 0..p.num_intervals() {
                prop_assert!(p.start_layer(k) <= p.end_layer(k));
                if k > 0 {
                    prop_assert_eq!(p.start_layer(k), p.end_layer(k - 1));
                }
            }
            prop_assert_eq!(p.end_layer(p.num_intervals() - 1), layers);
            Ok(())
        },
    );
}

#[test]
fn solver_respects_the_space_constraint() {
    let g = ModelZoo::build(&ModelSpec::resnet(32, 8).with_scale(4)).unwrap();
    let s = Schedule::new(&g);
    let p = Profiler::new(HmConfig::optane_like()).profile(&g).unwrap();
    for fraction in [10u64, 5, 3, 2] {
        let fast = g.peak_live_bytes() / fraction;
        let sol = solve_mil(&g, &s, &p, fast, fast / 10, 10.0).unwrap();
        // The chosen MIL is feasible (or the fallback 1 when nothing is).
        let chosen = sol.candidates.iter().find(|c| c.mil == sol.mil).unwrap();
        let any_feasible = sol.candidates.iter().any(|c| c.feasible);
        if any_feasible {
            assert!(chosen.feasible, "chosen MIL {} violates Eq. 1", sol.mil);
            assert!(chosen.tensor_bytes < fast - fast / 10);
        } else {
            assert_eq!(sol.mil, 1);
        }
    }
}

#[test]
fn solver_is_monotone_in_fast_size() {
    let g = ModelZoo::build(&ModelSpec::resnet(32, 8).with_scale(4)).unwrap();
    let s = Schedule::new(&g);
    let p = Profiler::new(HmConfig::optane_like()).profile(&g).unwrap();
    let mut prev = 0usize;
    for fraction in [5u64, 4, 3, 2, 1] {
        let fast = g.peak_live_bytes() / fraction;
        let sol = solve_mil(&g, &s, &p, fast, 0, 10.0).unwrap();
        assert!(sol.mil >= prev, "MIL shrank as fast memory grew");
        prev = sol.mil;
    }
}

#[test]
fn schedule_agrees_with_graph_liveness() {
    let g = ModelZoo::build(&ModelSpec::bert_base(2).with_scale(8)).unwrap();
    let s = Schedule::new(&g);
    for t in g.tensors() {
        let layers = s.layers_of(t.id);
        if let Some((first, last)) = t.layer_span() {
            assert_eq!(layers.first().copied(), Some(first), "{}", t.name);
            assert_eq!(layers.last().copied(), Some(last), "{}", t.name);
            // Sorted and in range.
            assert!(layers.windows(2).all(|w| w[0] < w[1]), "{}", t.name);
        } else {
            assert!(layers.is_empty());
        }
        // next_use_cyclic at any referenced layer returns that layer.
        for &l in layers {
            assert_eq!(s.next_use_cyclic(t.id, l), Some(l), "{}", t.name);
        }
    }
}
