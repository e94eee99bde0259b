//! The traced run: host time attributed to each layer.
//!
//! Kept apart from the end-to-end run because timing every policy hook
//! slows a step. Three parts:
//!
//! * the workload's own training runs, driven step by step through
//!   `Executor::run_step` over [`Timed`], a hook-timing wrapper around
//!   `SentinelPolicy`, next to untraced `SentinelRuntime::train` runs of
//!   the same inputs (their reports must be byte-identical) and standalone
//!   calls into the models, schedule, profiler and solver layers;
//! * one `sentineld-mix` round over loopback, whose frames are re-encoded
//!   and re-decoded through the codec;
//! * one pass over the experiment registry, timed per generator.
//!
//! Hook times include the `mem` calls the policy issues from its hooks.

use crate::inputs::{self, Order, TrainCase, FAST_FRACTION};
use crate::refs::Refs;
use crate::stats::{digest, median, ms, Tally};
use crate::workloads::{mix_round, timed_train, verify_train, with_server};
use sentinel_core::{
    fast_sized_for, solve_mil, Schedule, SentinelConfig, SentinelPolicy, SentinelRuntime,
};
use sentinel_dnn::{
    ExecCtx, Executor, Graph, IntervalRecord, MemoryManager, OpRef, PoolSpec, Tensor, TensorId,
    TrainReport,
};
use sentinel_mem::{AccessKind, HmConfig, MemorySystem, Tier};
use sentinel_models::ModelZoo;
use sentinel_profiler::Profiler;
use sentinel_serve::{read_frame, write_frame, MAX_FRAME_BYTES_DEFAULT};
use sentinel_util::ToJson;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Hook groups a [`Timed`] policy attributes its time to.
#[derive(Debug, Clone, Copy, Default)]
pub struct HookTime {
    /// `before_layer`/`after_layer`, step and train begin/end, ledger and
    /// warnings drains.
    pub boundary: Duration,
    /// `before_op`/`after_op`/`before_access`.
    pub access: Duration,
    /// `pool_for`/`tier_for`/`on_alloc`/`on_free`/`on_capacity_pressure`.
    pub placement: Duration,
    /// `on_step_end` alone (also counted in `boundary`).
    pub step_end: Duration,
    pub calls: u64,
}

impl HookTime {
    fn total(&self) -> Duration {
        self.boundary + self.access + self.placement
    }

    fn since(&self, before: &HookTime) -> HookTime {
        HookTime {
            boundary: self.boundary - before.boundary,
            access: self.access - before.access,
            placement: self.placement - before.placement,
            step_end: self.step_end - before.step_end,
            calls: self.calls - before.calls,
        }
    }
}

#[derive(Clone, Copy)]
enum Group {
    Boundary,
    Access,
    Placement,
}

/// A policy wrapper that times every hook and forwards it unchanged.
pub struct Timed<P> {
    pub inner: P,
    pub time: HookTime,
}

impl<P> Timed<P> {
    pub fn new(inner: P) -> Self {
        Timed {
            inner,
            time: HookTime::default(),
        }
    }

    fn timed<R>(&mut self, group: Group, hook: impl FnOnce(&mut P) -> R) -> R {
        let t = Instant::now();
        let r = hook(&mut self.inner);
        let dt = t.elapsed();
        match group {
            Group::Boundary => self.time.boundary += dt,
            Group::Access => self.time.access += dt,
            Group::Placement => self.time.placement += dt,
        }
        self.time.calls += 1;
        r
    }
}

impl<P: MemoryManager> MemoryManager for Timed<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_train_begin(&mut self, ctx: &mut ExecCtx<'_>) {
        self.timed(Group::Boundary, |p| p.on_train_begin(ctx));
    }
    fn on_step_begin(&mut self, ctx: &mut ExecCtx<'_>) {
        self.timed(Group::Boundary, |p| p.on_step_begin(ctx));
    }
    fn pool_for(&mut self, tensor: &Tensor, ctx: &ExecCtx<'_>) -> PoolSpec {
        self.timed(Group::Placement, |p| p.pool_for(tensor, ctx))
    }
    fn tier_for(&mut self, tensor: &Tensor, ctx: &ExecCtx<'_>) -> Tier {
        self.timed(Group::Placement, |p| p.tier_for(tensor, ctx))
    }
    fn on_alloc(&mut self, tensor: TensorId, ctx: &mut ExecCtx<'_>) {
        self.timed(Group::Placement, |p| p.on_alloc(tensor, ctx));
    }
    fn on_capacity_pressure(
        &mut self,
        tier: Tier,
        needed_pages: u64,
        ctx: &mut ExecCtx<'_>,
    ) -> bool {
        self.timed(Group::Placement, |p| {
            p.on_capacity_pressure(tier, needed_pages, ctx)
        })
    }
    fn before_layer(&mut self, layer: usize, ctx: &mut ExecCtx<'_>) {
        self.timed(Group::Boundary, |p| p.before_layer(layer, ctx));
    }
    fn after_layer(&mut self, layer: usize, ctx: &mut ExecCtx<'_>) {
        self.timed(Group::Boundary, |p| p.after_layer(layer, ctx));
    }
    fn before_op(&mut self, at: OpRef, ctx: &mut ExecCtx<'_>) {
        self.timed(Group::Access, |p| p.before_op(at, ctx));
    }
    fn after_op(&mut self, at: OpRef, ctx: &mut ExecCtx<'_>) {
        self.timed(Group::Access, |p| p.after_op(at, ctx));
    }
    fn before_access(&mut self, tensor: TensorId, kind: AccessKind, ctx: &mut ExecCtx<'_>) {
        self.timed(Group::Access, |p| p.before_access(tensor, kind, ctx));
    }
    fn on_free(&mut self, tensor: TensorId, ctx: &mut ExecCtx<'_>) {
        self.timed(Group::Placement, |p| p.on_free(tensor, ctx));
    }
    fn on_step_end(&mut self, ctx: &mut ExecCtx<'_>) {
        let before = self.time.boundary;
        self.timed(Group::Boundary, |p| p.on_step_end(ctx));
        self.time.step_end += self.time.boundary - before;
    }
    fn step_ledger(&mut self, ctx: &ExecCtx<'_>) -> Vec<IntervalRecord> {
        self.timed(Group::Boundary, |p| p.step_ledger(ctx))
    }
    fn step_warnings(&mut self) -> Vec<String> {
        self.timed(Group::Boundary, MemoryManager::step_warnings)
    }
    fn on_train_end(&mut self, ctx: &mut ExecCtx<'_>) {
        self.timed(Group::Boundary, |p| p.on_train_end(ctx));
    }
}

/// Host time of one timed, empty hook call: the cost the wrapper adds to
/// every hook, calibrated on this run.
fn clock_ns_per_call() -> f64 {
    struct Empty;
    impl MemoryManager for Empty {
        fn name(&self) -> &str {
            "empty"
        }
    }
    const CALLS: u32 = 200_000;
    let mut timed = Timed::new(Empty);
    let hook: &mut dyn MemoryManager = black_box(&mut timed);
    let t = Instant::now();
    for _ in 0..CALLS {
        black_box(hook.step_warnings());
    }
    t.elapsed().as_secs_f64() * 1e9 / f64::from(CALLS)
}

/// Sums over the managed (post-profiling) steps of the traced runs, and
/// per-run figures of the profiling side.
#[derive(Debug, Default)]
struct TrainLayers {
    managed_steps: u64,
    traced_ms: f64,
    untraced_ms: f64,
    hooks: HookTime,
    accesses: u64,
    cache_hits: u64,
    migrated_bytes: u64,
    profiling_faults: Vec<f64>,
    finish_profiling_ms: Vec<f64>,
    models_ms: Vec<f64>,
    schedule_ms: Vec<f64>,
    profile_ms: Vec<f64>,
    solve_ms: Vec<f64>,
}

/// `SentinelRuntime::train`, step by step over a [`Timed`] policy. The
/// memory system is set up exactly as the runtime does for a default,
/// untraced, fault-free run.
fn traced_train(
    graph: &Graph,
    hm: HmConfig,
    steps: usize,
    acc: &mut TrainLayers,
) -> Result<TrainReport, String> {
    let mut exec = Executor::new(graph, MemorySystem::new(hm));
    let mut policy = Timed::new(SentinelPolicy::new(SentinelConfig::default()));
    let mut report = TrainReport {
        model: graph.name().to_owned(),
        policy: policy.name().to_owned(),
        batch: graph.batch(),
        steps: Vec::with_capacity(steps),
    };
    for index in 0..steps {
        let hooks = policy.time;
        let stats = exec.ctx().mem().stats().clone();
        let t = Instant::now();
        let step = exec.run_step(&mut policy).map_err(|e| e.to_string())?;
        let dt = t.elapsed();
        let hooks = policy.time.since(&hooks);
        let after = exec.ctx().mem().stats();
        if index == 0 {
            acc.finish_profiling_ms.push(ms(hooks.step_end));
            acc.profiling_faults.push(step.faults as f64);
        } else {
            acc.managed_steps += 1;
            acc.traced_ms += ms(dt);
            acc.hooks.boundary += hooks.boundary;
            acc.hooks.access += hooks.access;
            acc.hooks.placement += hooks.placement;
            acc.hooks.calls += hooks.calls;
            let mm = |s: &sentinel_mem::MemStats| s.mm_accesses.iter().sum::<u64>() + s.cache_hits;
            acc.accesses += mm(after) - mm(&stats);
            acc.cache_hits += after.cache_hits - stats.cache_hits;
            acc.migrated_bytes += step.migrated_bytes();
        }
        report.steps.push(step);
    }
    policy.on_train_end(exec.ctx_mut());
    if let Some(e) = policy.inner.take_solver_error() {
        return Err(e.to_string());
    }
    Ok(report)
}

fn train_layers(cases: &[TrainCase], refs: &Refs, tally: &mut Tally) -> TrainLayers {
    let mut acc = TrainLayers::default();
    for case in cases {
        let t = Instant::now();
        let graph = ModelZoo::build(&case.spec).expect("zoo model builds");
        acc.models_ms.push(ms(t.elapsed()));
        let hm = fast_sized_for(case.machine.clone(), &graph, FAST_FRACTION);

        // The first untraced run warms up and is checked; the traced run
        // is compared with the second, which is timed after it.
        let runtime = SentinelRuntime::new(SentinelConfig::default(), hm.clone());
        let (outcome, _, _) = timed_train(&runtime, &graph, case.steps, None);
        if refs.train_step(&case.key, 0).is_some() {
            verify_train(case, &outcome, refs, tally);
        }
        let traced = traced_train(&graph, hm.clone(), case.steps, &mut acc);
        let (outcome, _, steps) = timed_train(&runtime, &graph, case.steps, None);
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                tally.error(format!("{}: {e}", case.key));
                continue;
            }
        };
        acc.untraced_ms += steps.iter().skip(1).map(|s| ms(s.to - s.from)).sum::<f64>();
        let same = traced.as_ref().map(|r| r.to_json().to_string());
        tally.check(
            same.as_ref() == Ok(&outcome.report.to_json().to_string()),
            || {
                format!(
                    "{}: traced reports differ from SentinelRuntime::train ({:?})",
                    case.key,
                    traced.err()
                )
            },
        );

        let t = Instant::now();
        let schedule = Schedule::new(&graph);
        acc.schedule_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let profiled = Profiler::new(hm.clone()).profile(&graph);
        acc.profile_ms.push(ms(t.elapsed()));
        tally.check(profiled.is_ok(), || {
            format!("{}: profiler failed", case.key)
        });

        let profile = outcome
            .profile
            .as_ref()
            .expect("Sentinel profiled the first step");
        let reserve_bytes = outcome.stats.reserve_pages * hm.page_size;
        let t = Instant::now();
        let solved = solve_mil(
            &graph,
            &schedule,
            profile,
            hm.fast.capacity_bytes,
            reserve_bytes,
            hm.promote_bw_bytes_per_ns,
        );
        acc.solve_ms.push(ms(t.elapsed()));
        let same = solved.map(|s| s.to_json().to_string()).ok();
        tally.check(
            same == outcome
                .mil_solution
                .as_ref()
                .map(|s| s.to_json().to_string()),
            || {
                format!(
                    "{}: standalone solve_mil differs from the run's plan",
                    case.key
                )
            },
        );
    }
    acc
}

/// Codec and server figures from one `sentineld-mix` round.
#[derive(Debug, Default)]
struct ServeLayers {
    encode_us: f64,
    decode_us: f64,
    kb_per_frame: f64,
    plan_overhead_ms: f64,
}

const CODEC_PASSES: usize = 5;

fn serve_layers(seed: u64, refs: &Refs, tally: &mut Tally) -> ServeLayers {
    let n = inputs::mix_catalogue().len();
    let order = Order::new(seed).next(n);
    let round = match with_server(|client| mix_round(client, &order, true, refs, tally)) {
        Ok((_, round)) => round,
        Err(e) => {
            tally.error(e);
            return ServeLayers::default();
        }
    };
    let mut out = ServeLayers::default();

    // Plan latency minus the same plan computed in process.
    let overhead: Vec<f64> = round
        .sent
        .iter()
        .filter_map(|sent| Some((sent.plan?, ms(sent.call.to - sent.call.from))))
        .map(|(spec, latency_ms)| {
            let t = Instant::now();
            let planned = inputs::plan_in_process(&spec);
            let local_ms = ms(t.elapsed());
            tally.check(planned.ok() == refs.plan(&spec.name()), || {
                format!("in-process plan {} differs from the reference", spec.name())
            });
            latency_ms - local_ms
        })
        .collect();
    out.plan_overhead_ms = overhead.iter().sum::<f64>() / overhead.len().max(1) as f64;

    // Re-encode and re-decode the streamed frames.
    let frames = &round.frames;
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut buf = Vec::new();
    let mut bytes = 0usize;
    for pass in 0..CODEC_PASSES {
        let (mut enc, mut dec) = (Duration::ZERO, Duration::ZERO);
        for frame in frames {
            buf.clear();
            let t = Instant::now();
            let written = write_frame(&mut buf, frame);
            enc += t.elapsed();
            let t = Instant::now();
            let decoded = read_frame(&mut buf.as_slice(), MAX_FRAME_BYTES_DEFAULT);
            dec += t.elapsed();
            if pass == 0 {
                bytes += buf.len();
                tally.check(
                    written.is_ok() && decoded.as_ref().ok() == Some(frame),
                    || "a step frame does not survive the codec round trip".to_owned(),
                );
            }
        }
        let per_frame = |d: Duration| d.as_secs_f64() * 1e6 / frames.len().max(1) as f64;
        encode.push(per_frame(enc));
        decode.push(per_frame(dec));
    }
    out.encode_us = median(&encode);
    out.decode_us = median(&decode);
    out.kb_per_frame = bytes as f64 / 1024.0 / frames.len().max(1) as f64;
    out
}

/// One pass over the experiment registry: seconds per generator id.
fn experiment_layers(seed: u64, refs: &Refs, tally: &mut Tally) -> Vec<(String, f64)> {
    sentinel_util::set_default_jobs(1);
    let registry = sentinel_bench::experiment_registry();
    let cfg = inputs::exp_config();
    let mut times: Vec<(String, f64)> = Vec::new();
    for i in Order::new(seed).next(registry.len()) {
        let (id, generator) = registry[i];
        let t = Instant::now();
        let result = generator(&cfg);
        times.push((id.to_owned(), t.elapsed().as_secs_f64()));
        let got = digest(&result.to_json().to_string());
        tally.check(refs.experiment(id) == Some(got.as_str()), || {
            format!("experiment {id}: {got}")
        });
    }
    times.sort_by(|a, b| a.0.cmp(&b.0));
    times
}

/// The training runs whose layers a workload's traced run attributes.
fn traced_cases(workload: &str) -> Vec<TrainCase> {
    match workload {
        "zoo-steady" => inputs::zoo_cases(),
        "deep-plan" => inputs::DEEP_STEP_COUNTS
            .iter()
            .map(|&n| inputs::deep_case(n))
            .collect(),
        "sentineld-mix" => inputs::plan_specs()
            .into_iter()
            .map(|spec| (spec, inputs::PLAN_STEPS))
            .chain([(inputs::run_spec(), inputs::RUN_STEPS)])
            .map(|(spec, steps)| TrainCase {
                key: format!("mix/{}", spec.name()),
                spec,
                machine: HmConfig::optane_like().without_cache(),
                steps,
            })
            .collect(),
        _ => inputs::fig7_fast_cases(),
    }
}

/// Every per-layer metric as `(name, value, unit)`.
pub fn run(
    workload: &str,
    seed: u64,
    refs: &Refs,
    tally: &mut Tally,
) -> Vec<(String, f64, &'static str)> {
    let clock_ns = clock_ns_per_call();
    let train = train_layers(&traced_cases(workload), refs, tally);
    let serve = serve_layers(seed, refs, tally);
    let experiments = experiment_layers(seed, refs, tally);

    let steps = train.managed_steps.max(1) as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let self_ms = train.traced_ms - ms(train.hooks.total());
    let mut m: Vec<(String, f64, &'static str)> = vec![
        ("executor.self_ms_per_step".into(), self_ms / steps, "ms"),
        (
            "mem.host_ns_per_access".into(),
            self_ms * 1e6 / train.accesses.max(1) as f64,
            "ns",
        ),
        (
            "mem.accesses_per_step".into(),
            train.accesses as f64 / steps,
            "count",
        ),
        (
            "mem.cache_hits_per_step".into(),
            train.cache_hits as f64 / steps,
            "count",
        ),
        (
            "mem.migrated_mb_per_step".into(),
            train.migrated_bytes as f64 / (1 << 20) as f64 / steps,
            "MiB",
        ),
        (
            "mem.profiling_faults".into(),
            mean(&train.profiling_faults),
            "count",
        ),
        (
            "policy.boundary_ms_per_step".into(),
            ms(train.hooks.boundary) / steps,
            "ms",
        ),
        (
            "policy.access_ms_per_step".into(),
            ms(train.hooks.access) / steps,
            "ms",
        ),
        (
            "policy.placement_ms_per_step".into(),
            ms(train.hooks.placement) / steps,
            "ms",
        ),
        (
            "policy.hook_calls_per_step".into(),
            train.hooks.calls as f64 / steps,
            "count",
        ),
        (
            "policy.finish_profiling_ms".into(),
            mean(&train.finish_profiling_ms),
            "ms",
        ),
        ("profiler.profile_ms".into(), mean(&train.profile_ms), "ms"),
        ("solver.solve_ms".into(), mean(&train.solve_ms), "ms"),
        ("schedule.build_ms".into(), mean(&train.schedule_ms), "ms"),
        ("models.build_ms".into(), mean(&train.models_ms), "ms"),
        ("codec.encode_us_per_frame".into(), serve.encode_us, "us"),
        ("codec.decode_us_per_frame".into(), serve.decode_us, "us"),
        ("codec.kb_per_frame".into(), serve.kb_per_frame, "KiB"),
        (
            "serve.plan_overhead_ms".into(),
            serve.plan_overhead_ms,
            "ms",
        ),
        (
            "trace.overhead_frac".into(),
            train.traced_ms / train.untraced_ms - 1.0,
            "frac",
        ),
        ("trace.clock_ns_per_call".into(), clock_ns, "ns"),
    ];
    m.extend(
        experiments
            .into_iter()
            .map(|(id, s)| (format!("exp.{id}_s"), s, "s")),
    );
    m
}
