//! End-to-end runs of the four workloads, tracing off.
//!
//! Each workload repeats a round of fixed, seeded work until the next
//! round would overrun `--seconds` (at least one round). Only calls into
//! the system are timed; checking their outputs against the references
//! happens between timed calls.

use crate::inputs::{self, Order, Request, TrainCase, DEEP_STEP_COUNTS, RUN_STEPS};
use crate::refs::{chain, Refs};
use crate::speed::{Span, Speed};
use crate::stats::{digest, median, Tally};
use sentinel_bench::experiment_registry;
use sentinel_core::{SentinelError, SentinelOutcome, SentinelRuntime};
use sentinel_dnn::Graph;
use sentinel_models::ModelSpec;
use sentinel_serve::{Client, ClientError, Server};
use sentinel_util::{Json, ToJson};
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run and its median reported.
pub const SETUP_REPEATS: usize = 15;
/// Every run makes at least this many rounds, so that `experiments-fast`,
/// whose round takes 9–12 s, always makes two in 25 s.
const MIN_ROUNDS: usize = 2;

/// One timed call into the system.
#[derive(Debug)]
pub struct Op {
    pub round: usize,
    pub call: Span,
    /// Latency samples it yields: steps of a run, or the call itself.
    pub samples: Vec<Span>,
    /// Units of throughput it completed (steps, frames or generators).
    pub units: u64,
}

/// What one end-to-end run measured.
pub struct EndToEnd {
    pub setup: Vec<Span>,
    pub ops: Vec<Op>,
    pub speed: Speed,
}

/// Figures of one run, raw or normalized to the reference host speed.
#[derive(Debug, Default)]
pub struct Summary {
    /// Median seconds of a set-up.
    pub setup_s: f64,
    /// Seconds of system calls in each round.
    pub round_s: Vec<f64>,
    /// Every latency sample, in ms.
    pub op_ms: Vec<f64>,
    /// Units completed, and the seconds of the calls that completed them.
    pub units: u64,
    pub unit_s: f64,
}

impl EndToEnd {
    fn new() -> EndToEnd {
        EndToEnd {
            setup: Vec::new(),
            ops: Vec::new(),
            speed: Speed::new(),
        }
    }

    /// Run `setup` [`SETUP_REPEATS`] times, timing the part `setup`
    /// reports as set-up, and keep the last result.
    fn set_up<T>(
        &mut self,
        mut setup: impl FnMut() -> Result<(Span, T), String>,
    ) -> Result<T, String> {
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            let (span, value) = setup()?;
            self.setup.push(span);
            last = Some(value);
        }
        self.speed.tick();
        Ok(last.expect("SETUP_REPEATS > 0"))
    }

    fn op(&mut self, op: Op) {
        self.ops.push(op);
        self.speed.tick();
    }

    /// Repeat `round` at least [`MIN_ROUNDS`] times, then until the next
    /// round would end after `seconds`.
    fn rounds(&mut self, seconds: f64, mut round: impl FnMut(&mut EndToEnd, usize)) {
        let start = Instant::now();
        for index in 0.. {
            let t = Instant::now();
            round(self, index);
            let next_ends = start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64();
            if index + 1 >= MIN_ROUNDS && next_ends > seconds {
                break;
            }
        }
    }

    /// Host seconds of every span, divided by the host's slowdown over it
    /// when `normalized`.
    pub fn summary(&self, normalized: bool) -> Summary {
        let speed = &self.speed;
        let secs = |s: &Span| speed.secs(s) / if normalized { speed.slowdown(s) } else { 1.0 };
        let setup: Vec<f64> = self.setup.iter().map(secs).collect();
        let mut out = Summary {
            setup_s: median(&setup),
            ..Summary::default()
        };
        for op in &self.ops {
            if out.round_s.len() <= op.round {
                out.round_s.resize(op.round + 1, 0.0);
            }
            let call = secs(&op.call);
            out.round_s[op.round] += call;
            out.op_ms.extend(op.samples.iter().map(|s| secs(s) * 1e3));
            if op.units > 0 {
                out.units += op.units;
                out.unit_s += call;
            }
        }
        out
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (Span, T) {
    let t = Instant::now();
    let value = f();
    (Span::since(t), value)
}

/// A fresh training run, timed as a whole and step by step: each step
/// runs from the call (or the previous step's callback) to its own
/// callback, so step 0, the profiling step, includes building the memory
/// system and the plan solve. With `speed`, a due probe is taken inside
/// the callback, outside every step's span.
pub fn timed_train(
    runtime: &SentinelRuntime,
    graph: &Graph,
    steps: usize,
    mut speed: Option<&mut Speed>,
) -> (Result<SentinelOutcome, SentinelError>, Span, Vec<Span>) {
    let mut spans = Vec::with_capacity(steps);
    let start = Instant::now();
    let mut last = start;
    let outcome = runtime.train_streamed(graph, steps, |_| {
        spans.push(Span::since(last));
        if let Some(speed) = speed.as_deref_mut() {
            speed.tick();
        }
        last = Instant::now();
        true
    });
    let call = Span::since(start);
    (
        outcome.map(|o| o.expect("observer never aborts")),
        call,
        spans,
    )
}

/// Check a train run's reports and steady step time against the references.
pub fn verify_train(
    case: &TrainCase,
    outcome: &Result<SentinelOutcome, SentinelError>,
    refs: &Refs,
    tally: &mut Tally,
) {
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => return tally.error(format!("{}: {e}", case.key)),
    };
    let steps = &outcome.report.steps;
    let bad_step = steps.iter().position(|s| {
        refs.train_step(&case.key, s.step) != Some(digest(&s.to_json().to_string()).as_str())
    });
    let steady = outcome.report.steady_step_ns();
    tally.check(
        steps.len() == case.steps
            && bad_step.is_none()
            && refs.train_steady_ns(&case.key, case.steps) == Some(steady),
        || {
            format!(
                "{} ({} steps): step {bad_step:?} or steady {steady} ns",
                case.key, case.steps
            )
        },
    );
}

fn zoo_steady(seed: u64, seconds: f64, tally: &mut Tally) -> Result<EndToEnd, String> {
    let mut e = EndToEnd::new();
    let cases = inputs::zoo_cases();
    let (refs, built) = e.set_up(|| {
        Ok(timed(|| {
            (
                Refs::load(),
                cases.iter().map(TrainCase::build).collect::<Vec<_>>(),
            )
        }))
    })?;
    let mut order = Order::new(seed);
    e.rounds(seconds, |e, round| {
        for i in order.next(cases.len()) {
            let (graph, runtime) = &built[i];
            let (outcome, call, steps) =
                timed_train(runtime, graph, cases[i].steps, Some(&mut e.speed));
            verify_train(&cases[i], &outcome, &refs, tally);
            let units = steps.len() as u64;
            e.op(Op {
                round,
                call,
                samples: steps.into_iter().skip(1).collect(),
                units,
            });
        }
    });
    Ok(e)
}

fn deep_plan(seed: u64, seconds: f64, tally: &mut Tally) -> Result<EndToEnd, String> {
    let mut e = EndToEnd::new();
    let (refs, (graph, runtime)) =
        e.set_up(|| Ok(timed(|| (Refs::load(), inputs::deep_case(0).build()))))?;
    let mut order = Order::new(seed);
    e.rounds(seconds, |e, round| {
        for i in order.next(DEEP_STEP_COUNTS.len()) {
            let case = inputs::deep_case(DEEP_STEP_COUNTS[i]);
            let (outcome, call, steps) = timed_train(&runtime, &graph, case.steps, None);
            verify_train(&case, &outcome, &refs, tally);
            let units = steps.len() as u64;
            e.op(Op {
                round,
                call,
                samples: steps.into_iter().take(1).collect(),
                units,
            });
        }
    });
    Ok(e)
}

/// Run `session` against an in-process server with one handler, over one
/// loopback client. Returns the set-up time (bind, spawn, connect, ping)
/// and the session's result; the server is shut down and joined before
/// this returns.
pub fn with_server<R>(session: impl FnOnce(&mut Client) -> R) -> Result<(Duration, R), String> {
    let t = Instant::now();
    let server = Server::bind("127.0.0.1:0", 1).map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    std::thread::scope(|s| {
        let handle = s.spawn(|| server.run());
        let result = Client::connect(addr).and_then(|mut client| {
            client.ping()?;
            let setup = t.elapsed();
            let result = session(&mut client);
            client.shutdown_server()?;
            Ok((setup, result))
        });
        server.request_shutdown();
        let joined = handle.join();
        match (result, joined) {
            (Ok(done), Ok(Ok(()))) => Ok(done),
            (Err(e), _) => Err(format!("client: {e}")),
            (_, Ok(Err(e))) => Err(format!("server: {e}")),
            (_, Err(_)) => Err("server thread panicked".into()),
        }
    })
}

/// One request of a `sentineld-mix` round, as the client saw it.
#[derive(Debug)]
pub struct Sent {
    pub call: Span,
    /// The model of a `plan` query; `None` for a streamed run.
    pub plan: Option<ModelSpec>,
    /// Step frames received.
    pub frames: u64,
}

/// What one `sentineld-mix` round observed.
#[derive(Debug, Default)]
pub struct MixRound {
    pub sent: Vec<Sent>,
    /// Step frames received, kept only when checking in full.
    pub frames: Vec<Json>,
}

/// Issue one round of requests in `order`. With `full`, every streamed
/// trace is reassembled and checked against the batch run's digest, and
/// the step frames are kept.
pub fn mix_round(
    client: &mut Client,
    order: &[usize],
    full: bool,
    refs: &Refs,
    tally: &mut Tally,
) -> MixRound {
    let catalogue = inputs::mix_catalogue();
    let mut out = MixRound::default();
    for &i in order {
        match &catalogue[i] {
            Request::Plan(spec) => {
                let frame = inputs::plan_frame(spec);
                let t = Instant::now();
                let reply = client.plan(&frame);
                out.sent.push(Sent {
                    call: Span::since(t),
                    plan: Some(*spec),
                    frames: 0,
                });
                verify_plan(spec, reply, refs, tally);
            }
            Request::Run(spec) => {
                let frame = inputs::run_frame(spec);
                let mut reports: Vec<Json> = Vec::with_capacity(RUN_STEPS);
                let mut events: Vec<usize> = Vec::with_capacity(RUN_STEPS);
                let mut trace = 0u64;
                let mut frames = Vec::new();
                let t = Instant::now();
                let complete = client.run_streamed(&frame, |step| {
                    reports.push(step.get("report").cloned().unwrap_or(Json::Null));
                    let slice = match step.get("trace") {
                        Some(Json::Arr(slice)) => slice.as_slice(),
                        _ => &[],
                    };
                    events.push(slice.len());
                    if full {
                        trace = slice.iter().fold(trace, |h, e| chain(h, &e.to_string()));
                        frames.push(step.clone());
                    }
                });
                out.sent.push(Sent {
                    call: Span::since(t),
                    plan: None,
                    frames: reports.len() as u64,
                });
                let complete = match complete {
                    Ok(complete) => complete,
                    Err(e) => {
                        tally.error(format!("run {}: {e}", spec.name()));
                        continue;
                    }
                };
                let name = spec.name();
                let bad_step = reports.iter().enumerate().position(|(k, r)| {
                    refs.run_step(&name, k) != Some(digest(&r.to_string()).as_str())
                        || refs.run_events(&name, k) != Some(events[k] as u64)
                });
                let trace_ok = !full || {
                    if let Some(Json::Arr(tail)) = complete.get("trace_tail") {
                        trace = tail.iter().fold(trace, |h, e| chain(h, &e.to_string()));
                    }
                    refs.run_trace(&name) == Some(format!("{trace:016x}").as_str())
                };
                tally.check(
                    reports.len() == RUN_STEPS && bad_step.is_none() && trace_ok,
                    || {
                        format!(
                            "run {name}: {} frames, step {bad_step:?}, trace ok {trace_ok}",
                            reports.len()
                        )
                    },
                );
                out.frames.extend(frames);
            }
        }
    }
    out
}

fn verify_plan(spec: &ModelSpec, reply: Result<Json, ClientError>, refs: &Refs, tally: &mut Tally) {
    let reply = match reply {
        Ok(reply) => reply,
        Err(e) => return tally.error(format!("plan {}: {e}", spec.name())),
    };
    let field = |key| match reply.get(key) {
        Some(Json::U64(n)) => Some(*n),
        _ => None,
    };
    let got = field("mil").zip(field("predicted_step_ns"));
    tally.check(got.is_some() && got == refs.plan(&spec.name()), || {
        format!("plan {}: (mil, predicted_step_ns) = {got:?}", spec.name())
    });
}

fn sentineld_mix(seed: u64, seconds: f64, tally: &mut Tally) -> Result<EndToEnd, String> {
    let mut e = EndToEnd::new();
    // Set-up: parse the references, bind the server, connect and ping.
    // The last repeat only parses; the measured session's own bind,
    // connect and ping complete it.
    let mut repeats = 0;
    let refs = e.set_up(|| {
        repeats += 1;
        let (parse, refs) = timed(Refs::load);
        if repeats == SETUP_REPEATS {
            return Ok((parse, refs));
        }
        let (setup, ()) = with_server(|_| ())?;
        Ok((
            Span {
                to: parse.to + setup,
                ..parse
            },
            refs,
        ))
    })?;
    let refs = &refs;
    let n = inputs::mix_catalogue().len();
    let mut order = Order::new(seed);
    let (setup, ()) = with_server(|client| {
        // A checked warm-up round: reassemble every streamed trace.
        let _ = mix_round(client, &order.next(n), true, refs, tally);
        e.rounds(seconds, |e, round| {
            for sent in mix_round(client, &order.next(n), false, refs, tally).sent {
                let samples = if sent.plan.is_some() {
                    vec![sent.call]
                } else {
                    Vec::new()
                };
                e.ops.push(Op {
                    round,
                    call: sent.call,
                    samples,
                    units: sent.frames,
                });
            }
            e.speed.tick();
        });
    })?;
    if let Some(last) = e.setup.last_mut() {
        last.to += setup;
    }
    Ok(e)
}

fn experiments_fast(seed: u64, seconds: f64, tally: &mut Tally) -> Result<EndToEnd, String> {
    let mut e = EndToEnd::new();
    let (refs, registry, cfg) = e.set_up(|| {
        Ok(timed(|| {
            sentinel_util::set_default_jobs(1);
            (Refs::load(), experiment_registry(), inputs::exp_config())
        }))
    })?;
    let mut order = Order::new(seed);
    // A generator runs for up to seconds: probe beside it.
    e.speed.background(true);
    e.rounds(seconds, |e, round| {
        for i in order.next(registry.len()) {
            let (id, generator) = registry[i];
            let t = Instant::now();
            let result = generator(&cfg);
            let call = Span::since(t);
            let got = digest(&result.to_json().to_string());
            tally.check(refs.experiment(id) == Some(got.as_str()), || {
                format!("experiment {id}: {got}")
            });
            e.ops.push(Op {
                round,
                call,
                samples: vec![call],
                units: 1,
            });
        }
    });
    e.speed.background(false);
    Ok(e)
}

/// Run `workload`; set-up includes parsing the reference outputs.
pub fn run(workload: &str, seed: u64, seconds: f64, tally: &mut Tally) -> Result<EndToEnd, String> {
    match workload {
        "zoo-steady" => zoo_steady(seed, seconds, tally),
        "deep-plan" => deep_plan(seed, seconds, tally),
        "sentineld-mix" => sentineld_mix(seed, seconds, tally),
        "experiments-fast" => experiments_fast(seed, seconds, tally),
        other => unreachable!("workload {other} was validated"),
    }
}
