//! Equivalence contract of the near-linear planner path.
//!
//! Two fast paths must match the range queries they replace:
//!
//! * [`solve_mil`] — the offline sweep over the layers — against
//!   [`solve_mil_reference`], the original per-interval range-query solver:
//!   full [`MilSolution`] equality, chosen `mil` and every candidate's
//!   diagnostics included, across the model zoo and small random graphs ×
//!   fast-memory fractions × short-lived reservations × bandwidths, plus
//!   identical typed errors on the zero-budget side. The random graphs
//!   reach what no zoo model has: one- and two-layer steps, tensors never
//!   referenced, and preallocated tensors used only in layer 0 or in both
//!   the first and the last interval (the cyclic wrap).
//! * [`IntervalSets`], the plan-time working-set table the policy's
//!   boundary path reads, against [`Schedule::long_tensors_in`]: every
//!   interval's sorted set and hot-first prefetch order, for every model ×
//!   every MIL × hot ordering on and off.

use sentinel_core::{
    solve_mil, solve_mil_reference, IntervalPlan, IntervalSets, Schedule, SentinelError,
};
use sentinel_dnn::{Graph, GraphBuilder, OpKind, TensorKind};
use sentinel_mem::HmConfig;
use sentinel_models::{ModelSpec, ModelZoo};
use sentinel_profiler::{ProfileReport, Profiler, TensorProfile};
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

/// A small random graph: each tensor's kind, size and distinct ref layers
/// (empty: never referenced), plus the profiled per-layer times.
#[derive(Clone, Debug)]
struct RandomGraph {
    layers: usize,
    tensors: Vec<(TensorKind, u64, Vec<usize>)>,
    layer_ns: Vec<u64>,
    /// Leave `layer_time_prefix` empty, as a hand-built report may.
    no_prefix: bool,
}

const KINDS: [TensorKind; 7] = [
    TensorKind::Input,
    TensorKind::Weight,
    TensorKind::WeightGrad,
    TensorKind::OptimizerState,
    TensorKind::Activation,
    TensorKind::ActivationGrad,
    TensorKind::Temporary,
];

fn gen_random_graph(rng: &mut Rng) -> RandomGraph {
    let layers = rng.gen_usize(1, 25);
    let tensors = (0..rng.gen_usize(0, 31))
        .map(|_| {
            let kind = *rng.choose(&KINDS);
            let bytes = rng.gen_range(1, 1 << 16);
            let last = layers - 1;
            let mut refs: Vec<usize> = match rng.gen_usize(0, 6) {
                0 => Vec::new(),
                1 if kind.is_preallocated() => vec![0],
                2 if kind.is_preallocated() => {
                    // One ref in the first third and one in the last.
                    vec![rng.gen_usize(0, layers / 3 + 1), last - rng.gen_usize(0, layers / 3 + 1)]
                }
                _ => (0..rng.gen_usize(1, 5)).map(|_| rng.gen_usize(0, layers)).collect(),
            };
            refs.sort_unstable();
            refs.dedup();
            (kind, bytes, refs)
        })
        .collect();
    let layer_ns = if rng.gen_bool(0.1) {
        Vec::new()
    } else {
        (0..layers).map(|_| rng.gen_range(0, 5_000)).collect()
    };
    RandomGraph { layers, tensors, layer_ns, no_prefix: rng.gen_bool(0.2) }
}

impl RandomGraph {
    /// One op per layer: it writes the runtime tensors first used there
    /// and reads every other tensor the layer references.
    fn build(&self) -> (Graph, ProfileReport) {
        let mut b = GraphBuilder::new("random", 1);
        let ids: Vec<_> = self
            .tensors
            .iter()
            .enumerate()
            .map(|(i, &(kind, bytes, _))| b.tensor(format!("t{i}"), bytes, kind))
            .collect();
        for layer in 0..self.layers {
            b.begin_layer(format!("l{layer}"));
            let (mut reads, mut writes) = (Vec::new(), Vec::new());
            for (&id, (kind, _, refs)) in ids.iter().zip(&self.tensors) {
                if refs.contains(&layer) {
                    if !kind.is_preallocated() && refs[0] == layer {
                        writes.push(id);
                    } else {
                        reads.push(id);
                    }
                }
            }
            b.op(format!("op{layer}"), OpKind::Other, 1).reads(&reads).writes(&writes).push();
        }
        let g = b.finish().expect("random graphs are valid");
        let report = ProfileReport {
            model: g.name().to_owned(),
            page_size: 4096,
            tensors: g
                .tensors()
                .iter()
                .map(|t| TensorProfile {
                    id: t.id,
                    bytes: t.bytes,
                    kind: t.kind,
                    short_lived: t.is_short_lived(),
                    layer_span: t.layer_span(),
                    mm_accesses: 1,
                    page_faults: 1,
                    pages: 1,
                })
                .collect(),
            layer_time_prefix: if self.no_prefix {
                Vec::new()
            } else {
                ProfileReport::prefix_sums(&self.layer_ns)
            },
            layer_times_ns: self.layer_ns.clone(),
            profiling_step_ns: self.layer_ns.iter().sum(),
            faults: 0,
            peak_short_lived_bytes: g.peak_short_lived_bytes(),
            peak_live_bytes: g.peak_live_bytes(),
        };
        (g, report)
    }
}

#[derive(Clone, Debug)]
enum Subject {
    /// Index into [`specs`].
    Zoo(usize),
    Random(RandomGraph),
}

#[derive(Clone, Debug)]
struct SolverCase {
    subject: Subject,
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
    // About one case in ten draws a zoo model, as many as before random
    // graphs joined the suite.
    let subject = if rng.gen_bool(0.1) {
        Subject::Zoo(rng.gen_usize(0, graphs().len()))
    } else {
        Subject::Random(gen_random_graph(rng))
    };
    SolverCase {
        subject,
        fraction_pct: rng.gen_range(0, 121),
        reserve_pct: rng.gen_range(0, 111),
        bw_centi: rng.gen_range(0, 2001),
    }
}

fn shrink_solver_case(c: &SolverCase) -> Vec<SolverCase> {
    let mut out = Vec::new();
    match &c.subject {
        Subject::Zoo(0) => {}
        Subject::Zoo(_) => out.push(SolverCase { subject: Subject::Zoo(0), ..c.clone() }),
        Subject::Random(g) => {
            for i in 0..g.tensors.len() {
                let mut smaller = g.clone();
                smaller.tensors.remove(i);
                out.push(SolverCase { subject: Subject::Random(smaller), ..c.clone() });
            }
        }
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
    let built;
    let (g, schedule, profile) = match &c.subject {
        Subject::Zoo(model) => {
            let (schedule, profile) = &planner_inputs()[*model];
            (&graphs()[*model], schedule, profile)
        }
        Subject::Random(random) => {
            let (g, profile) = random.build();
            let schedule = Schedule::new(&g);
            built = (g, schedule, profile);
            (&built.0, &built.1, &built.2)
        }
    };
    let fast = g.peak_live_bytes() * c.fraction_pct / 100;
    let reserve = fast * c.reserve_pct / 100;
    let bw = c.bw_centi as f64 / 100.0;
    let fast_sol = solve_mil(g, schedule, profile, fast, reserve, bw);
    let ref_sol = solve_mil_reference(g, schedule, profile, fast, reserve, bw);
    match (fast_sol, ref_sol) {
        (Ok(fast_sol), Ok(ref_sol)) => {
            prop_assert_eq!(fast_sol, ref_sol, "solutions diverged");
            Ok(())
        }
        (fast_sol, ref_sol) => {
            let (f, r) = (fast_sol.map(|_| ()), ref_sol.map(|_| ()));
            let zero_budget = |e: &Result<(), SentinelError>| {
                matches!(
                    e,
                    Err(SentinelError::ZeroMigrationBudget { fast_bytes, reserve_bytes })
                        if *fast_bytes == fast && *reserve_bytes == reserve
                )
            };
            prop_assert!(
                zero_budget(&f) && zero_budget(&r),
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
        cfg = cfg.with_cases(400);
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
