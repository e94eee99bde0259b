//! Equivalence contract of the near-linear planner path.
//!
//! Two fast paths must match the range queries they replace:
//!
//! * [`solve_mil`] — the per-candidate tensor sweep — against
//!   [`solve_mil_reference`], the original per-interval range-query solver:
//!   full [`MilSolution`] equality, chosen `mil` and every candidate's
//!   diagnostics included, across the model zoo × fast-memory fractions ×
//!   short-lived reservations × bandwidths, plus identical typed errors on
//!   the zero-budget side.
//! * [`IntervalSets`], the plan-time working-set table the policy's
//!   boundary path reads, against [`Schedule::long_tensors_in`]: every
//!   interval's sorted set and hot-first prefetch order, for every model ×
//!   every MIL × hot ordering on and off.

use sentinel_core::{
    solve_mil, solve_mil_reference, IntervalPlan, IntervalSets, Schedule, SentinelError,
};
use sentinel_dnn::Graph;
use sentinel_mem::HmConfig;
use sentinel_models::{ModelSpec, ModelZoo};
use sentinel_profiler::{ProfileReport, Profiler};
use sentinel_util::prop::PropConfig;
use sentinel_util::{prop_assert, prop_assert_eq, Rng};
use std::cmp::Reverse;
use std::sync::OnceLock;

/// Scaled-down representatives of every model family in the zoo.
fn specs() -> Vec<ModelSpec> {
    vec![
        ModelSpec::resnet(20, 4).with_scale(4),
        ModelSpec::resnet(32, 8).with_scale(4),
        ModelSpec::mobilenet(4).with_scale(8),
        ModelSpec::lstm(4).with_scale(8),
        ModelSpec::dcgan(8).with_scale(8),
    ]
}

fn graphs() -> &'static Vec<Graph> {
    static GRAPHS: OnceLock<Vec<Graph>> = OnceLock::new();
    GRAPHS.get_or_init(|| specs().iter().map(|s| ModelZoo::build(s).unwrap()).collect())
}

/// One profile + schedule per model, shared across cases (profiling is the
/// expensive part; the solver inputs are immutable).
fn planner_inputs() -> &'static Vec<(Schedule, ProfileReport)> {
    static INPUTS: OnceLock<Vec<(Schedule, ProfileReport)>> = OnceLock::new();
    INPUTS.get_or_init(|| {
        graphs()
            .iter()
            .map(|g| {
                let s = Schedule::new(g);
                let p = Profiler::new(HmConfig::optane_like()).profile(g).unwrap();
                (s, p)
            })
            .collect()
    })
}

// ------------------------------------------------------------ solver sweep

#[derive(Clone, Debug)]
struct SolverCase {
    model: usize,
    /// Fast-tier size as a percentage of the model's peak footprint
    /// (0 exercises the degenerate zero-capacity error path).
    fraction_pct: u64,
    /// Reservation as a percentage of the fast size (values ≥ 100 exercise
    /// the zero-budget typed error).
    reserve_pct: u64,
    /// Promote bandwidth in hundredths of bytes/ns (0 stresses the
    /// divide-by-zero guard).
    bw_centi: u64,
}

fn gen_solver_case(rng: &mut Rng) -> SolverCase {
    SolverCase {
        model: rng.gen_usize(0, graphs().len()),
        fraction_pct: rng.gen_range(0, 121),
        reserve_pct: rng.gen_range(0, 111),
        bw_centi: rng.gen_range(0, 2001),
    }
}

fn shrink_solver_case(c: &SolverCase) -> Vec<SolverCase> {
    let mut out = Vec::new();
    if c.model != 0 {
        out.push(SolverCase { model: 0, ..c.clone() });
    }
    if c.reserve_pct != 0 {
        out.push(SolverCase { reserve_pct: 0, ..c.clone() });
    }
    if c.bw_centi != 500 {
        out.push(SolverCase { bw_centi: 500, ..c.clone() });
    }
    out
}

fn assert_solver_equivalent(c: &SolverCase) -> Result<(), String> {
    let g = &graphs()[c.model];
    let (schedule, profile) = &planner_inputs()[c.model];
    let fast = g.peak_live_bytes() * c.fraction_pct / 100;
    let reserve = fast * c.reserve_pct / 100;
    let bw = c.bw_centi as f64 / 100.0;
    let fast_sol = solve_mil(g, schedule, profile, fast, reserve, bw);
    let ref_sol = solve_mil_reference(g, schedule, profile, fast, reserve, bw);
    match (fast_sol, ref_sol) {
        (Ok(fast_sol), Ok(ref_sol)) => {
            prop_assert_eq!(fast_sol.mil, ref_sol.mil, "chosen mil diverged");
            prop_assert_eq!(
                fast_sol.candidates,
                ref_sol.candidates,
                "candidate diagnostics diverged"
            );
            Ok(())
        }
        (fast_sol, ref_sol) => {
            let (f, r) = (fast_sol.map(|_| ()), ref_sol.map(|_| ()));
            prop_assert!(
                matches!(
                    (&f, &r),
                    (
                        Err(SentinelError::ZeroMigrationBudget { .. }),
                        Err(SentinelError::ZeroMigrationBudget { .. })
                    )
                ),
                "solvers disagree on failure: sweep={f:?} reference={r:?}"
            );
            Ok(())
        }
    }
}

#[test]
fn mil_sweep_matches_the_range_query_reference() {
    let mut cfg = PropConfig::from_env();
    if std::env::var("SENTINEL_PROP_CASES").is_err() {
        cfg = cfg.with_cases(40);
    }
    cfg.run(
        "mil_sweep_matches_the_range_query_reference",
        gen_solver_case,
        shrink_solver_case,
        assert_solver_equivalent,
    );
}

// --------------------------------------------------- interval-set table

#[test]
fn interval_sets_match_the_range_query_at_every_mil() {
    for (g, (schedule, profile)) in graphs().iter().zip(planner_inputs()) {
        let layers = g.num_layers();
        for mil in 1..=layers {
            let plan = IntervalPlan::new(mil, layers);
            for hot in [None, Some(profile)] {
                let at = format!("{} mil {mil} hot {}", g.name(), hot.is_some());
                let sets = IntervalSets::build(schedule, &plan, hot);
                assert_eq!(sets.num_intervals(), plan.num_intervals(), "{at}");
                for k in 0..plan.num_intervals() {
                    let mut expect =
                        schedule.long_tensors_in(plan.start_layer(k), plan.end_layer(k));
                    assert_eq!(sets.sorted(k), expect.as_slice(), "{at} interval {k}");
                    if let Some(p) = hot {
                        expect.sort_by_key(|&t| Reverse(p.tensor(t).mm_accesses));
                    }
                    assert_eq!(sets.prefetch_order(k), expect.as_slice(), "{at} interval {k}");
                }
            }
        }
    }
}
