//! The generated inputs of each workload.
//!
//! The simulator is deterministic and its cost depends on which models and
//! requests it runs, not on random data. So every workload runs a fixed,
//! balanced catalogue per round, and the seed draws the order of each
//! round (and, on `deep-plan`, which run gets which step count). Different
//! seeds give different inputs whose figures stay comparable.

use sentinel_bench::ExpConfig;
use sentinel_core::{fast_sized_for, SentinelConfig, SentinelRuntime};
use sentinel_dnn::Graph;
use sentinel_mem::HmConfig;
use sentinel_models::{ModelFamily, ModelSpec, ModelZoo};
use sentinel_util::{Json, Rng};

/// Fast tier as a share of each model's peak memory, as in the paper.
pub const FAST_FRACTION: f64 = 0.2;
/// Steps per fresh `zoo-steady` run: one profiling step, then managed.
pub const ZOO_STEPS: usize = 16;
/// Step counts of the fresh `deep-plan` runs; each round runs each once.
pub const DEEP_STEP_COUNTS: [usize; 3] = [3, 4, 5];
/// Steps of a `plan` query (the server's default).
pub const PLAN_STEPS: usize = 4;
/// Steps of a streamed `run` request.
pub const RUN_STEPS: usize = 6;
/// Each plan model is queried this many times per `sentineld-mix` round.
pub const PLAN_REPEATS: usize = 2;

/// One fresh Sentinel training run.
#[derive(Debug, Clone)]
pub struct TrainCase {
    /// Reference key: `<workload>/<model>`.
    pub key: String,
    pub spec: ModelSpec,
    /// Platform before the fast tier is sized to the model.
    pub machine: HmConfig,
    pub steps: usize,
}

impl TrainCase {
    /// Build the graph and the runtime (the set-up of one run).
    pub fn build(&self) -> (Graph, SentinelRuntime) {
        let graph = ModelZoo::build(&self.spec).expect("zoo model builds");
        let hm = fast_sized_for(self.machine.clone(), &graph, FAST_FRACTION);
        (graph, SentinelRuntime::new(SentinelConfig::default(), hm))
    }
}

/// The five Fig. 7 small-batch models at full width, optane-like with the
/// memory-side cache.
pub fn zoo_cases() -> Vec<TrainCase> {
    ExpConfig {
        fast: false,
        jobs: 1,
    }
    .small_batch_models()
    .into_iter()
    .map(|spec| TrainCase {
        key: format!("zoo/{}", spec.name()),
        spec,
        machine: HmConfig::optane_like(),
        steps: ZOO_STEPS,
    })
    .collect()
}

/// The 512-layer unrolled LSTM, no cache.
pub fn deep_case(steps: usize) -> TrainCase {
    let spec = ModelSpec {
        family: ModelFamily::Lstm {
            hidden: 1024,
            timesteps: 255,
        },
        batch: 4,
        scale: 16,
    };
    TrainCase {
        key: format!("deep/{}", spec.name()),
        spec,
        machine: HmConfig::optane_like().without_cache(),
        steps,
    }
}

/// The fast-mode Fig. 7 models, as the experiment runner trains them.
pub fn fig7_fast_cases() -> Vec<TrainCase> {
    exp_config()
        .small_batch_models()
        .into_iter()
        .map(|spec| TrainCase {
            key: format!("fig7/{}", spec.name()),
            spec,
            machine: HmConfig::optane_like(),
            steps: exp_config().steps(),
        })
        .collect()
}

/// `sentineld-mix` plan queries: the zoo models at scale 4.
pub fn plan_specs() -> Vec<ModelSpec> {
    exp_config().small_batch_models()
}

/// `sentineld-mix` streamed run: ResNet-32 at scale 4, batch 64.
pub fn run_spec() -> ModelSpec {
    ModelSpec::resnet(32, 64).with_scale(4)
}

/// The runtime the server builds for a wire request on the default
/// machine (optane-like, cache off) at [`FAST_FRACTION`].
pub fn wire_runtime(spec: &ModelSpec) -> (Graph, SentinelRuntime) {
    TrainCase {
        key: String::new(),
        spec: *spec,
        machine: HmConfig::optane_like().without_cache(),
        steps: PLAN_STEPS,
    }
    .build()
}

/// A `plan` answered in process: `(mil, predicted_step_ns)`.
pub fn plan_in_process(spec: &ModelSpec) -> Result<(u64, u64), sentinel_core::SentinelError> {
    let (graph, runtime) = wire_runtime(spec);
    let outcome = runtime.train(&graph, PLAN_STEPS)?;
    Ok((outcome.stats.mil as u64, outcome.report.steady_step_ns()))
}

fn wire_model(spec: &ModelSpec) -> Json {
    let (family, depth) = match spec.family {
        ModelFamily::ResNet { depth } => ("resnet", Some(depth)),
        ModelFamily::Bert { layers: 24, .. } => ("bert_large", None),
        ModelFamily::Bert { .. } => ("bert_base", None),
        ModelFamily::Lstm { .. } => ("lstm", None),
        ModelFamily::MobileNet => ("mobilenet", None),
        ModelFamily::Dcgan => ("dcgan", None),
    };
    let mut members = vec![
        ("family", Json::Str(family.into())),
        ("batch", Json::U64(u64::from(spec.batch))),
        ("scale", Json::U64(u64::from(spec.scale))),
    ];
    if let Some(depth) = depth {
        members.push(("depth", Json::U64(u64::from(depth))));
    }
    Json::obj(members)
}

fn machine() -> Json {
    Json::obj([
        ("preset", Json::Str("optane".into())),
        ("fast_fraction", Json::F64(FAST_FRACTION)),
    ])
}

pub fn plan_frame(spec: &ModelSpec) -> Json {
    Json::obj([
        ("type", Json::Str("plan".into())),
        ("model", wire_model(spec)),
        ("machine", machine()),
        ("steps", Json::U64(PLAN_STEPS as u64)),
    ])
}

pub fn run_frame(spec: &ModelSpec) -> Json {
    Json::obj([
        ("type", Json::Str("run".into())),
        ("model", wire_model(spec)),
        ("machine", machine()),
        ("steps", Json::U64(RUN_STEPS as u64)),
        ("trace", Json::Str("full".into())),
    ])
}

/// One request of a `sentineld-mix` round.
#[derive(Debug, Clone)]
pub enum Request {
    Plan(ModelSpec),
    Run(ModelSpec),
}

/// The balanced request catalogue of one `sentineld-mix` round.
pub fn mix_catalogue() -> Vec<Request> {
    let mut requests: Vec<Request> = Vec::new();
    for _ in 0..PLAN_REPEATS {
        requests.extend(plan_specs().into_iter().map(Request::Plan));
    }
    requests.push(Request::Run(run_spec()));
    requests
}

pub fn exp_config() -> ExpConfig {
    ExpConfig {
        fast: true,
        jobs: 1,
    }
}

/// The seeded order of one round: a permutation of `0..n`.
pub struct Order(Rng);

impl Order {
    pub fn new(seed: u64) -> Order {
        Order(Rng::seed_from_u64(seed))
    }

    pub fn next(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        self.0.shuffle(&mut order);
        order
    }
}
