//! Shared experiment infrastructure: configurations, runners, result types.

use sentinel_baselines::{run_baseline, Baseline};
use sentinel_core::{fast_sized_for, SentinelConfig, SentinelError, SentinelOutcome, SentinelRuntime};
use sentinel_dnn::{ExecError, TrainReport};
use sentinel_mem::HmConfig;
use sentinel_models::{ModelSpec, ModelZoo};
use sentinel_util::fault::{derive_seed, fault_env};
use sentinel_util::trace::trace_env;
use sentinel_util::{Json, Pool, ToJson};

/// Global experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Fast mode shrinks models (scale divisor) and step counts so the whole
    /// suite completes in well under a minute; full mode uses paper-like
    /// model sizes.
    pub fast: bool,
    /// Worker threads for inner parameter sweeps (Fig. 10 cells, the
    /// Fig. 12 grid, Table V's searches); 1 = serial. Parallelism is a
    /// wall-clock knob only: every sweep point owns its simulator state, so
    /// results are byte-identical at any job count.
    pub jobs: usize,
}

impl ExpConfig {
    /// A configuration with the environment-derived default job count
    /// (`SENTINEL_JOBS`, else available parallelism).
    #[must_use]
    pub fn new(fast: bool) -> Self {
        ExpConfig { fast, jobs: sentinel_util::default_jobs() }
    }

    /// Replace the inner-sweep job count (clamped to at least 1).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The pool experiments fan inner sweeps out on.
    #[must_use]
    pub fn pool(&self) -> Pool {
        Pool::new(self.jobs)
    }

    /// Scale divisor applied to model widths.
    #[must_use]
    pub fn scale(&self) -> u32 {
        if self.fast {
            4
        } else {
            1
        }
    }

    /// Training steps per measured run (profiling included).
    #[must_use]
    pub fn steps(&self) -> usize {
        if self.fast {
            6
        } else {
            8
        }
    }

    /// Baseline steps (no profiling phase needed).
    #[must_use]
    pub fn baseline_steps(&self) -> usize {
        if self.fast {
            3
        } else {
            4
        }
    }

    /// The small-batch CPU evaluation set (Figure 7 / Tables III–IV).
    #[must_use]
    pub fn small_batch_models(&self) -> Vec<ModelSpec> {
        let s = self.scale();
        vec![
            ModelSpec::resnet(32, 64).with_scale(s),
            ModelSpec::bert_base(8).with_scale(s),
            ModelSpec::lstm(32).with_scale(s),
            ModelSpec::mobilenet(16).with_scale(s),
            ModelSpec::dcgan(64).with_scale(s),
        ]
    }

    /// The large-batch CPU evaluation set (Figure 8).
    #[must_use]
    pub fn large_batch_models(&self) -> Vec<ModelSpec> {
        let s = self.scale() * 2; // keep the full suite tractable
        vec![
            ModelSpec::resnet(200, 16).with_scale(s),
            ModelSpec::bert_large(8).with_scale(s),
            ModelSpec::lstm(128).with_scale(s),
            ModelSpec::mobilenet(64).with_scale(s),
            ModelSpec::dcgan(128).with_scale(s),
        ]
    }

    /// The GPU evaluation set (Figure 12 / Table V) with three batch sizes
    /// each, smallest to largest.
    #[must_use]
    pub fn gpu_models(&self) -> Vec<(String, [ModelSpec; 3])> {
        let s = self.scale() * 2;
        vec![
            ("resnet50".into(), [
                ModelSpec::resnet(50, 8).with_scale(s),
                ModelSpec::resnet(50, 16).with_scale(s),
                ModelSpec::resnet(50, 32).with_scale(s),
            ]),
            ("bert-base".into(), [
                ModelSpec::bert_base(4).with_scale(s),
                ModelSpec::bert_base(8).with_scale(s),
                ModelSpec::bert_base(16).with_scale(s),
            ]),
            ("lstm".into(), [
                ModelSpec::lstm(32).with_scale(s),
                ModelSpec::lstm(64).with_scale(s),
                ModelSpec::lstm(128).with_scale(s),
            ]),
            ("mobilenet".into(), [
                ModelSpec::mobilenet(16).with_scale(s),
                ModelSpec::mobilenet(32).with_scale(s),
                ModelSpec::mobilenet(64).with_scale(s),
            ]),
            ("dcgan".into(), [
                ModelSpec::dcgan(32).with_scale(s),
                ModelSpec::dcgan(64).with_scale(s),
                ModelSpec::dcgan(128).with_scale(s),
            ]),
        ]
    }
}

/// One rendered experiment: a markdown section plus machine-readable data.
#[derive(Debug, Clone)]
pub struct ExpResult {
    /// Identifier, e.g. `"fig7"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Markdown body (table or series dump).
    pub markdown: String,
    /// Machine-readable payload.
    pub data: Json,
}

sentinel_util::impl_to_json!(ExpResult { id, title, markdown, data });

impl ExpResult {
    /// Assemble a result, serializing `data`.
    pub fn new<T: ToJson>(id: &str, title: &str, markdown: String, data: &T) -> Self {
        ExpResult {
            id: id.to_owned(),
            title: title.to_owned(),
            markdown,
            data: data.to_json(),
        }
    }
}

/// Arm `runtime` with the environment's fault profile, if one is configured
/// (`SENTINEL_FAULT_PROFILE` / `SENTINEL_FAULT_SEED`). Each run's injector
/// seed is derived from the base seed and a stable per-run `key`, so a sweep
/// stays byte-identical at any `--jobs` count: the schedule depends only on
/// what runs, never on when or where it runs. A malformed profile spec is a
/// hard error — silently running faultless would invalidate the experiment.
fn armed(runtime: SentinelRuntime, key: &str) -> SentinelRuntime {
    match fault_env() {
        Ok(Some((profile, seed))) => {
            runtime.with_fault_injection(profile, derive_seed(seed, key))
        }
        Ok(None) => runtime,
        Err(e) => panic!("invalid fault-injection environment: {e}"),
    }
}

/// Arm `runtime` with the environment's trace level (`SENTINEL_TRACE`).
/// Like [`armed`], a malformed spec is a hard error.
pub(crate) fn traced(runtime: SentinelRuntime) -> SentinelRuntime {
    match trace_env() {
        Ok(level) => runtime.with_trace(level),
        Err(e) => panic!("invalid tracing environment: {e}"),
    }
}

/// Write the run's trace (if one was recorded and `SENTINEL_TRACE_DIR` is
/// set) as `<slug>-<hash>.trace.json` in the Chrome `trace_event` format.
/// The name is a pure function of the run `key`, so file sets are identical
/// at any `--jobs` count.
pub(crate) fn write_trace(outcome: &SentinelOutcome, key: &str) {
    let (Some(trace), Ok(dir)) = (outcome.trace.as_ref(), std::env::var("SENTINEL_TRACE_DIR"))
    else {
        return;
    };
    let mut slug: String = key
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
        .collect();
    slug.truncate(60);
    let slug = slug.trim_matches('-');
    let name = format!("{slug}-{:016x}.trace.json", derive_seed(0, key));
    let path = std::path::Path::new(&dir).join(name);
    let text = trace.to_chrome_json().to_pretty_string();
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("warning: failed to write trace {}: {e}", path.display());
    }
}

/// Run Sentinel (CPU flavour) at the given fast fraction.
pub fn run_sentinel(
    spec: &ModelSpec,
    fraction: f64,
    steps: usize,
) -> Result<SentinelOutcome, SentinelError> {
    let graph = ModelZoo::build(spec).expect("model builds");
    let hm = fast_sized_for(HmConfig::optane_like(), &graph, fraction);
    let key = format!("cpu|{spec:?}|{fraction}|{steps}");
    let outcome =
        traced(armed(SentinelRuntime::new(SentinelConfig::default(), hm), &key))
            .train(&graph, steps)?;
    write_trace(&outcome, &key);
    Ok(outcome)
}

/// Run Sentinel with an explicit configuration and platform.
pub fn run_sentinel_with(
    spec: &ModelSpec,
    cfg: SentinelConfig,
    hm: HmConfig,
    fraction: f64,
    steps: usize,
) -> Result<SentinelOutcome, SentinelError> {
    let graph = ModelZoo::build(spec).expect("model builds");
    let hm = fast_sized_for(hm, &graph, fraction);
    let key = format!("with|{spec:?}|{cfg:?}|{fraction}|{steps}");
    let outcome = traced(armed(SentinelRuntime::new(cfg, hm), &key)).train(&graph, steps)?;
    write_trace(&outcome, &key);
    Ok(outcome)
}

/// Run a baseline at the given fast fraction on the Optane platform.
/// `Ok(None)` when the baseline does not apply to the model.
pub fn run_cpu_baseline(
    baseline: Baseline,
    spec: &ModelSpec,
    fraction: f64,
    steps: usize,
) -> Result<Option<TrainReport>, ExecError> {
    let graph = ModelZoo::build(spec).expect("model builds");
    let hm = fast_sized_for(HmConfig::optane_like(), &graph, fraction);
    run_baseline(baseline, &graph, &hm, steps)
}

/// Run a baseline on the GPU platform.
pub fn run_gpu_baseline(
    baseline: Baseline,
    spec: &ModelSpec,
    fraction: f64,
    steps: usize,
) -> Result<Option<TrainReport>, ExecError> {
    let graph = ModelZoo::build(spec).expect("model builds");
    let hm = fast_sized_for(HmConfig::gpu_like(), &graph, fraction);
    run_baseline(baseline, &graph, &hm, steps)
}

/// Format a floating-point speedup.
#[must_use]
pub fn fx(v: f64) -> String {
    format!("{v:.2}x")
}

/// Format bytes as MiB.
#[must_use]
pub fn mib(bytes: u64) -> String {
    format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
}
