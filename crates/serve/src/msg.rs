//! Request schemas, response builders and the wire error-code taxonomy.
//!
//! Requests are JSON objects with a `"type"` discriminator; DESIGN §15 is
//! the normative schema reference. Parsing is strict on what it reads
//! (wrong types and out-of-range values are `bad-request`) but tolerant of
//! unknown members, so clients can be newer than the daemon.

use crate::codec::WireError;
use sentinel_core::{Ablation, Case3Policy, SentinelConfig};
use sentinel_mem::{FaultProfile, HmConfig, TraceLevel};
use sentinel_models::ModelSpec;
use sentinel_util::{Json, JsonErrorKind};

/// A typed request failure, rendered to the client as an error frame
/// `{"type":"error","code":...,"message":...}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// Stable machine-readable code (see [`RequestError::CODES`]).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl RequestError {
    /// Every code the daemon can emit, in one place for the docs and tests.
    pub const CODES: [&'static str; 7] = [
        "invalid-json",
        "invalid-utf8",
        "oversized-frame",
        "too-deep",
        "truncated-frame",
        "bad-request",
        "run-failed",
    ];

    /// A `bad-request` schema violation.
    #[must_use]
    pub fn bad(message: impl Into<String>) -> RequestError {
        RequestError { code: "bad-request", message: message.into() }
    }

    /// A `run-failed` simulation/build failure.
    #[must_use]
    pub fn run_failed(message: impl Into<String>) -> RequestError {
        RequestError { code: "run-failed", message: message.into() }
    }

    /// Map a codec read failure to its wire code, or `None` for outcomes
    /// that are not reportable to this peer (clean close, idle, transport
    /// I/O failure).
    #[must_use]
    pub fn from_wire(err: &WireError) -> Option<RequestError> {
        match err {
            WireError::Closed | WireError::Idle | WireError::Io(_) => None,
            WireError::Truncated { got, want } => Some(RequestError {
                code: "truncated-frame",
                message: format!("frame truncated: got {got} of {want} bytes"),
            }),
            WireError::Oversized { len, max } => Some(RequestError {
                code: "oversized-frame",
                message: format!("frame of {len} bytes exceeds the {max}-byte limit"),
            }),
            WireError::Json(e) => Some(RequestError {
                code: match e.kind {
                    JsonErrorKind::Syntax => "invalid-json",
                    JsonErrorKind::InvalidUtf8 => "invalid-utf8",
                    JsonErrorKind::TooLarge => "oversized-frame",
                    JsonErrorKind::TooDeep => "too-deep",
                },
                message: e.to_string(),
            }),
        }
    }

    /// The error frame for this failure.
    #[must_use]
    pub fn to_frame(&self) -> Json {
        Json::obj([
            ("type", Json::Str("error".into())),
            ("code", Json::Str(self.code.into())),
            ("message", Json::Str(self.message.clone())),
        ])
    }
}

/// Specification of one simulation run (shared by `plan` and `run`).
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The model to build from the zoo.
    pub model: ModelSpec,
    /// The platform, fully resolved except for peak-relative fast sizing.
    pub machine: HmConfig,
    /// Fast tier sized as this fraction of the model's peak live bytes
    /// (overrides the machine's absolute fast capacity when set).
    pub fast_fraction: Option<f64>,
    /// Sentinel configuration.
    pub config: SentinelConfig,
    /// Training steps to execute.
    pub steps: usize,
    /// Trace recording level for streamed runs.
    pub trace: TraceLevel,
    /// Optional deterministic fault injection: profile and seed.
    pub fault: Option<(FaultProfile, u64)>,
}

/// One parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness probe; answered with `pong`.
    Ping,
    /// Placement-plan query; answered with one `plan` frame.
    Plan(RunSpec),
    /// Full streamed simulation; answered with `run_started`, one `step`
    /// frame per training step, then `run_complete`.
    Run(RunSpec),
    /// Graceful daemon shutdown; answered with `shutting_down`.
    Shutdown,
}

fn member<'a>(obj: &'a Json, key: &str) -> Option<&'a Json> {
    match obj.get(key) {
        Some(Json::Null) | None => None,
        Some(v) => Some(v),
    }
}

fn as_str<'a>(v: &'a Json, what: &str) -> Result<&'a str, RequestError> {
    match v {
        Json::Str(s) => Ok(s),
        other => Err(RequestError::bad(format!("{what} must be a string, got {other}"))),
    }
}

fn as_u64(v: &Json, what: &str) -> Result<u64, RequestError> {
    match v {
        Json::U64(n) => Ok(*n),
        other => Err(RequestError::bad(format!(
            "{what} must be a non-negative integer, got {other}"
        ))),
    }
}

fn as_bool(v: &Json, what: &str) -> Result<bool, RequestError> {
    match v {
        Json::Bool(b) => Ok(*b),
        other => Err(RequestError::bad(format!("{what} must be a boolean, got {other}"))),
    }
}

fn as_f64(v: &Json, what: &str) -> Result<f64, RequestError> {
    match v {
        Json::F64(x) => Ok(*x),
        Json::U64(n) => Ok(*n as f64),
        Json::I64(n) => Ok(*n as f64),
        other => Err(RequestError::bad(format!("{what} must be a number, got {other}"))),
    }
}

/// Parse `"model"`: `{"family": ..., "batch": ..., "depth"?, "scale"?}`.
fn parse_model(v: &Json) -> Result<ModelSpec, RequestError> {
    let family = member(v, "family")
        .ok_or_else(|| RequestError::bad("model.family is required"))
        .and_then(|f| as_str(f, "model.family"))?;
    let batch_u64 = match member(v, "batch") {
        Some(b) => as_u64(b, "model.batch")?,
        None => return Err(RequestError::bad("model.batch is required")),
    };
    let batch = u32::try_from(batch_u64)
        .map_err(|_| RequestError::bad("model.batch out of range"))?;
    if batch == 0 {
        return Err(RequestError::bad("model.batch must be positive"));
    }
    let depth = member(v, "depth").map(|d| as_u64(d, "model.depth")).transpose()?;
    let mut spec = match family {
        "resnet" => {
            let depth = depth.ok_or_else(|| RequestError::bad("model.depth is required for resnet"))?;
            let depth = u32::try_from(depth)
                .map_err(|_| RequestError::bad("model.depth out of range"))?;
            ModelSpec::resnet(depth, batch)
        }
        "bert_base" => ModelSpec::bert_base(batch),
        "bert_large" => ModelSpec::bert_large(batch),
        "lstm" => ModelSpec::lstm(batch),
        "mobilenet" => ModelSpec::mobilenet(batch),
        "dcgan" => ModelSpec::dcgan(batch),
        other => {
            return Err(RequestError::bad(format!(
                "unknown model.family {other:?} (expected resnet, bert_base, bert_large, \
                 lstm, mobilenet or dcgan)"
            )))
        }
    };
    if let Some(scale) = member(v, "scale") {
        let scale = u32::try_from(as_u64(scale, "model.scale")?)
            .map_err(|_| RequestError::bad("model.scale out of range"))?;
        if scale == 0 {
            return Err(RequestError::bad("model.scale must be positive"));
        }
        spec = spec.with_scale(scale);
    }
    Ok(spec)
}

/// Parse `"machine"`: preset plus capacity/cache overrides. Returns the
/// resolved config and the optional peak-relative fast sizing fraction
/// (which needs the built graph to resolve).
fn parse_machine(v: Option<&Json>) -> Result<(HmConfig, Option<f64>), RequestError> {
    let Some(v) = v else {
        return Ok((HmConfig::optane_like().without_cache(), None));
    };
    let preset = match member(v, "preset") {
        Some(p) => as_str(p, "machine.preset")?,
        None => "optane",
    };
    let mut hm = match preset {
        "optane" => HmConfig::optane_like(),
        "gpu" => HmConfig::gpu_like(),
        "testing" => HmConfig::testing(),
        other => {
            return Err(RequestError::bad(format!(
                "unknown machine.preset {other:?} (expected optane, gpu or testing)"
            )))
        }
    };
    // The cache filter defaults to off: plan queries and scaled-down test
    // models are dominated by it otherwise. `"cache": true` keeps the
    // preset's filter.
    let keep_cache = match member(v, "cache") {
        Some(c) => as_bool(c, "machine.cache")?,
        None => false,
    };
    if !keep_cache {
        hm = hm.without_cache();
    }
    if let Some(bytes) = member(v, "slow_capacity_bytes") {
        hm = hm.with_slow_capacity(as_u64(bytes, "machine.slow_capacity_bytes")?);
    }
    let fraction = member(v, "fast_fraction")
        .map(|f| as_f64(f, "machine.fast_fraction"))
        .transpose()?;
    if let Some(f) = fraction {
        if !(f.is_finite() && f > 0.0) {
            return Err(RequestError::bad("machine.fast_fraction must be positive and finite"));
        }
        if member(v, "fast_capacity_bytes").is_some() {
            return Err(RequestError::bad(
                "machine.fast_fraction and machine.fast_capacity_bytes are mutually exclusive",
            ));
        }
    } else if let Some(bytes) = member(v, "fast_capacity_bytes") {
        hm = hm.with_fast_capacity(as_u64(bytes, "machine.fast_capacity_bytes")?);
    }
    Ok((hm, fraction))
}

/// Parse `"config"`: a subset of [`SentinelConfig`] knobs over the default.
fn parse_config(v: Option<&Json>) -> Result<SentinelConfig, RequestError> {
    let Some(v) = v else { return Ok(SentinelConfig::default()) };
    let mut cfg = match member(v, "gpu") {
        Some(g) if as_bool(g, "config.gpu")? => SentinelConfig::gpu(),
        _ => SentinelConfig::default(),
    };
    if let Some(a) = member(v, "ablation") {
        let ablation = match as_str(a, "config.ablation")? {
            "direct" => Ablation::Direct,
            "interval" => Ablation::WithInterval,
            "full" => Ablation::Full,
            other => {
                return Err(RequestError::bad(format!(
                    "unknown config.ablation {other:?} (expected direct, interval or full)"
                )))
            }
        };
        cfg = cfg.with_ablation(ablation);
    }
    if let Some(m) = member(v, "mil") {
        let mil = as_u64(m, "config.mil")?;
        if mil == 0 {
            return Err(RequestError::bad("config.mil must be positive"));
        }
        cfg.mil_override = Some(mil as usize);
    }
    if let Some(w) = member(v, "profile_warmup") {
        cfg.profile_warmup = as_u64(w, "config.profile_warmup")? as usize;
    }
    if let Some(b) = member(v, "coallocate") {
        cfg.coallocate = as_bool(b, "config.coallocate")?;
    }
    if let Some(b) = member(v, "reserve_short_lived") {
        cfg.reserve_short_lived = as_bool(b, "config.reserve_short_lived")?;
    }
    if let Some(b) = member(v, "lookahead") {
        cfg.lookahead = as_bool(b, "config.lookahead")?;
    }
    if let Some(b) = member(v, "hot_first") {
        cfg.hot_first = as_bool(b, "config.hot_first")?;
    }
    if let Some(c) = member(v, "case3") {
        cfg.case3 = match as_str(c, "config.case3")? {
            "test_and_trial" => Case3Policy::TestAndTrial,
            "always_wait" => Case3Policy::AlwaysWait,
            "always_leave" => Case3Policy::AlwaysLeave,
            "demand_wait" => Case3Policy::DemandWait,
            other => {
                return Err(RequestError::bad(format!(
                    "unknown config.case3 {other:?} (expected test_and_trial, always_wait, \
                     always_leave or demand_wait)"
                )))
            }
        };
    }
    Ok(cfg)
}

/// Parse `"fault"`: `{"profile": <spec>, "seed": n}`.
fn parse_fault(v: Option<&Json>) -> Result<Option<(FaultProfile, u64)>, RequestError> {
    let Some(v) = v else { return Ok(None) };
    let spec = member(v, "profile")
        .ok_or_else(|| RequestError::bad("fault.profile is required"))
        .and_then(|p| as_str(p, "fault.profile"))?;
    let profile = FaultProfile::parse(spec)
        .map_err(|e| RequestError::bad(format!("bad fault.profile: {e}")))?;
    let seed = match member(v, "seed") {
        Some(s) => as_u64(s, "fault.seed")?,
        None => 0,
    };
    Ok(if profile.is_off() { None } else { Some((profile, seed)) })
}

fn parse_run_spec(v: &Json, default_steps: usize) -> Result<RunSpec, RequestError> {
    let model = member(v, "model")
        .ok_or_else(|| RequestError::bad("model is required"))
        .and_then(parse_model)?;
    let (machine, fast_fraction) = parse_machine(member(v, "machine"))?;
    let config = parse_config(member(v, "config"))?;
    let steps = match member(v, "steps") {
        Some(s) => {
            let steps = as_u64(s, "steps")?;
            if steps == 0 || steps > 10_000 {
                return Err(RequestError::bad("steps must be in 1..=10000"));
            }
            steps as usize
        }
        None => default_steps,
    };
    let trace = match member(v, "trace") {
        Some(t) => TraceLevel::parse(as_str(t, "trace")?)
            .map_err(|e| RequestError::bad(format!("bad trace level: {e}")))?,
        None => TraceLevel::Off,
    };
    let fault = parse_fault(member(v, "fault"))?;
    Ok(RunSpec { model, machine, fast_fraction, config, steps, trace, fault })
}

impl Request {
    /// Default step count for `plan` queries: enough for the profiling
    /// step and a couple of managed steps so steady-state time is measured.
    pub const PLAN_STEPS_DEFAULT: usize = 4;
    /// Default step count for `run` requests.
    pub const RUN_STEPS_DEFAULT: usize = 6;

    /// Parse one request frame.
    ///
    /// # Errors
    ///
    /// `bad-request` for schema violations (missing/ill-typed members,
    /// unknown discriminators or enum spellings, out-of-range values).
    pub fn parse(frame: &Json) -> Result<Request, RequestError> {
        let ty = member(frame, "type")
            .ok_or_else(|| RequestError::bad("request must carry a \"type\" member"))
            .and_then(|t| as_str(t, "type"))?;
        match ty {
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "plan" => Ok(Request::Plan(parse_run_spec(frame, Self::PLAN_STEPS_DEFAULT)?)),
            "run" => Ok(Request::Run(parse_run_spec(frame, Self::RUN_STEPS_DEFAULT)?)),
            other => Err(RequestError::bad(format!(
                "unknown request type {other:?} (expected ping, plan, run or shutdown)"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Request, RequestError> {
        Request::parse(&Json::parse(text).unwrap())
    }

    #[test]
    fn control_requests_parse() {
        assert!(matches!(parse(r#"{"type":"ping"}"#), Ok(Request::Ping)));
        assert!(matches!(parse(r#"{"type":"shutdown"}"#), Ok(Request::Shutdown)));
    }

    #[test]
    fn plan_request_resolves_model_machine_and_config() {
        let req = parse(
            r#"{"type":"plan",
                "model":{"family":"resnet","depth":32,"batch":8,"scale":4},
                "machine":{"preset":"optane","fast_fraction":0.2},
                "config":{"mil":3}}"#,
        )
        .unwrap();
        let Request::Plan(spec) = req else { panic!("expected Plan") };
        assert_eq!(spec.model.name(), ModelSpec::resnet(32, 8).with_scale(4).name());
        assert_eq!(spec.fast_fraction, Some(0.2));
        assert_eq!(spec.config.mil_override, Some(3));
        assert_eq!(spec.steps, Request::PLAN_STEPS_DEFAULT);
    }

    #[test]
    fn schema_violations_are_bad_requests() {
        for text in [
            r#"{"type":"warp"}"#,
            r#"{"no_type":true}"#,
            r#"{"type":"plan"}"#,
            r#"{"type":"plan","model":{"family":"resnet","batch":8}}"#,
            r#"{"type":"plan","model":{"family":"vgg","batch":8}}"#,
            r#"{"type":"run","model":{"family":"lstm","batch":0}}"#,
            r#"{"type":"run","model":{"family":"lstm","batch":8},"steps":0}"#,
            r#"{"type":"run","model":{"family":"lstm","batch":8},"machine":{"preset":"tpu"}}"#,
            r#"{"type":"run","model":{"family":"lstm","batch":8},
                "machine":{"fast_fraction":0.2,"fast_capacity_bytes":1024}}"#,
            r#"{"type":"run","model":{"family":"lstm","batch":8},"config":{"case3":"never"}}"#,
            r#"{"type":"run","model":{"family":"lstm","batch":8},"trace":"loud"}"#,
            r#"{"type":"run","model":{"family":"lstm","batch":8},"fault":{"profile":"wild"}}"#,
        ] {
            let err = parse(text).expect_err(text);
            assert_eq!(err.code, "bad-request", "{text}: {}", err.message);
        }
        // A bad level names the request's field, not an env var the client
        // never set.
        let err = parse(r#"{"type":"run","model":{"family":"lstm","batch":8},"trace":"loud"}"#)
            .expect_err("bad trace level");
        assert_eq!(
            err.message,
            r#"bad trace level: unknown level "loud" (expected off, summary or full)"#
        );
    }

    #[test]
    fn unknown_members_are_tolerated() {
        assert!(matches!(parse(r#"{"type":"ping","future":1}"#), Ok(Request::Ping)));
    }

    #[test]
    fn wire_errors_map_to_stable_codes() {
        use crate::codec::WireError;
        let cases: Vec<(WireError, &str)> = vec![
            (WireError::Truncated { got: 1, want: 4 }, "truncated-frame"),
            (WireError::Oversized { len: 9, max: 8 }, "oversized-frame"),
            (
                WireError::Json(sentinel_util::JsonError {
                    offset: 0,
                    message: "x".into(),
                    kind: JsonErrorKind::InvalidUtf8,
                }),
                "invalid-utf8",
            ),
        ];
        for (err, code) in cases {
            let mapped = RequestError::from_wire(&err).unwrap();
            assert_eq!(mapped.code, code);
            assert!(RequestError::CODES.contains(&mapped.code));
        }
        assert!(RequestError::from_wire(&WireError::Closed).is_none());
        assert!(RequestError::from_wire(&WireError::Idle).is_none());
    }
}
