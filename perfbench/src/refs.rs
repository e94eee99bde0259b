//! Reference outputs every workload is checked against.
//!
//! `refs.json` is generated from the library itself (`perfbench
//! --write-refs`) and compiled into the binary. A change that alters
//! simulated behaviour (a step report, a plan, a streamed trace, an
//! experiment's JSON) no longer matches, and every mismatching operation
//! counts as failed.

use crate::inputs::{self, TrainCase, DEEP_STEP_COUNTS, RUN_STEPS, ZOO_STEPS};
use crate::stats::digest;
use sentinel_core::RunEvent;
use sentinel_models::ModelSpec;
use sentinel_util::{derive_seed, Json, ToJson};

const EMBEDDED: &str = include_str!("../refs.json");

/// Fold one serialized event into a running trace digest.
pub fn chain(h: u64, text: &str) -> u64 {
    derive_seed(h, text)
}

pub struct Refs(Json);

impl Refs {
    /// Parse the compiled-in references.
    pub fn load() -> Refs {
        Refs(Json::parse(EMBEDDED).expect("refs.json is valid JSON"))
    }

    fn at(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(&self.0, |node, key| node.get(key))
    }

    fn item(&self, path: &[&str], index: usize) -> Option<&Json> {
        match self.at(path) {
            Some(Json::Arr(items)) => items.get(index),
            _ => None,
        }
    }

    /// Digest of step `index` of a train case's report.
    pub fn train_step(&self, case: &str, index: usize) -> Option<&str> {
        as_str(self.item(&["train", case, "steps"], index))
    }

    /// Simulated steady step time of a train case run for `steps` steps.
    pub fn train_steady_ns(&self, case: &str, steps: usize) -> Option<u64> {
        as_u64(self.at(&["train", case, "steady_step_ns", &steps.to_string()]))
    }

    /// `(mil, predicted_step_ns)` of a `plan` query.
    pub fn plan(&self, model: &str) -> Option<(u64, u64)> {
        as_u64(self.at(&["plans", model, "mil"])).zip(as_u64(self.at(&[
            "plans",
            model,
            "predicted_step_ns",
        ])))
    }

    /// Digest of step `index`'s report in a streamed run.
    pub fn run_step(&self, model: &str, index: usize) -> Option<&str> {
        as_str(self.item(&["runs", model, "steps"], index))
    }

    /// Trace events carried by step frame `index` of a streamed run.
    pub fn run_events(&self, model: &str, index: usize) -> Option<u64> {
        as_u64(self.item(&["runs", model, "events"], index))
    }

    /// Digest of a streamed run's whole reassembled trace.
    pub fn run_trace(&self, model: &str) -> Option<&str> {
        as_str(self.at(&["runs", model, "trace"]))
    }

    /// Digest of an experiment's result JSON.
    pub fn experiment(&self, id: &str) -> Option<&str> {
        as_str(self.at(&["experiments", id]))
    }
}

fn as_u64(v: Option<&Json>) -> Option<u64> {
    match v {
        Some(Json::U64(n)) => Some(*n),
        _ => None,
    }
}

fn as_str(v: Option<&Json>) -> Option<&str> {
    match v {
        Some(Json::Str(s)) => Some(s),
        _ => None,
    }
}

fn train_ref(case: &TrainCase, counts: &[usize]) -> Json {
    let (graph, runtime) = case.build();
    let max = counts
        .iter()
        .copied()
        .max()
        .expect("at least one step count");
    let outcome = runtime.train(&graph, max).expect("reference run succeeds");
    let steps = &outcome.report.steps;
    let steady = counts.iter().map(|&n| {
        let tail = &steps[n / 2..n];
        let ns = tail.iter().map(|s| s.duration_ns).sum::<u64>() / tail.len() as u64;
        (n.to_string(), Json::U64(ns))
    });
    Json::obj([
        (
            "steps",
            Json::arr(
                steps
                    .iter()
                    .map(|s| Json::Str(digest(&s.to_json().to_string()))),
            ),
        ),
        ("steady_step_ns", Json::obj(steady)),
        ("mil", Json::U64(outcome.stats.mil as u64)),
    ])
}

fn run_ref(spec: &ModelSpec) -> Json {
    let (graph, runtime) = inputs::wire_runtime(spec);
    let runtime = runtime.with_trace(sentinel_mem::TraceLevel::Full);
    let mut steps = Vec::new();
    let mut events = Vec::new();
    let mut trace = 0u64;
    let mut streamed = 0usize;
    let outcome = runtime
        .train_streamed(&graph, RUN_STEPS, |event| {
            if let RunEvent::Step {
                report,
                trace: slice,
                ..
            } = event
            {
                steps.push(Json::Str(digest(&report.to_json().to_string())));
                events.push(Json::U64(slice.len() as u64));
                streamed += slice.len();
                for e in slice {
                    trace = chain(trace, &e.to_json().to_string());
                }
            }
            true
        })
        .expect("reference run succeeds")
        .expect("observer never aborts");
    let full = outcome.trace.expect("tracing was on");
    for e in &full.events[streamed..] {
        trace = chain(trace, &e.to_json().to_string());
    }
    Json::obj([
        ("steps", Json::Arr(steps)),
        ("events", Json::Arr(events)),
        ("trace", Json::Str(format!("{trace:016x}"))),
    ])
}

/// Regenerate every reference from the library as it is now.
pub fn generate() -> Json {
    let mut train = Vec::new();
    for case in inputs::zoo_cases() {
        train.push((case.key.clone(), train_ref(&case, &[ZOO_STEPS])));
    }
    let deep = inputs::deep_case(DEEP_STEP_COUNTS[0]);
    train.push((deep.key.clone(), train_ref(&deep, &DEEP_STEP_COUNTS)));

    let plans = inputs::plan_specs().into_iter().map(|spec| {
        let (mil, predicted) = inputs::plan_in_process(&spec).expect("reference plan succeeds");
        (
            spec.name(),
            Json::obj([
                ("mil", Json::U64(mil)),
                ("predicted_step_ns", Json::U64(predicted)),
            ]),
        )
    });
    let run = inputs::run_spec();
    let experiments = sentinel_bench::experiment_registry()
        .into_iter()
        .map(|(id, generator)| {
            (
                id.to_owned(),
                Json::Str(digest(
                    &generator(&inputs::exp_config()).to_json().to_string(),
                )),
            )
        });
    Json::obj([
        ("train", Json::obj(train)),
        ("plans", Json::obj(plans)),
        ("runs", Json::obj([(run.name(), run_ref(&run))])),
        ("experiments", Json::obj(experiments)),
    ])
}
