//! The adaptive control loop: online drift detection, incremental
//! re-profiling and plan re-solve under workload phase changes.
//!
//! Sentinel's plan is built from **one** profiling step, so its quality is
//! hostage to that step staying representative. When the workload drifts —
//! a hot set rotating, effective bandwidth degrading, an input distribution
//! shifting the layer-time balance — the static plan keeps prefetching the
//! *old* working set while demand faults and Case-3 stalls climb. This
//! module closes the loop:
//!
//! 1. **Detect** ([`DriftDetector`]): per-step slow-memory traffic and stall
//!    time are smoothed with an EWMA and compared against a baseline frozen
//!    when the plan was (re)built. A ratio above `drift_threshold` for
//!    `trip_steps` consecutive steps trips the detector; hysteresis (the
//!    separate, lower `clear_threshold`) keeps it from chattering.
//! 2. **Localize + re-profile**: per-layer slow-access attribution (the
//!    memory system's cheap always-on counters) names the divergent layers;
//!    only their long-lived tensors are page-poisoned for **one**
//!    observation step, and the measured deltas are merged into the
//!    existing [`ProfileReport`]. Past `full_reprofile_fraction` of layers
//!    divergent, the incremental pass covers everything.
//! 3. **Re-solve + swap**: the MIL solver and interval-set table are re-run
//!    on the merged profile and the new plan is swapped in at the step
//!    boundary, reconciling in-flight migrations through the existing
//!    cancel/retry machinery. At most `max_resolves_per_run` swaps.
//! 4. **Degrade, never crash**: a failed observation (no resident pages, a
//!    forced fault) or a failed re-solve latches a typed [`AdaptWarning`],
//!    keeps the old plan, and drops the divergent tensors to demand paging.
//!
//! Everything here is gated on `SentinelConfig::adaptive`; with it `None`
//! the policy takes none of these paths and runs byte-identically to the
//! static build.

use sentinel_dnn::TensorId;
use sentinel_mem::{Ns, PageRange};
use std::collections::{HashMap, HashSet};

/// Tuning for the adaptive control loop (all thresholds unitless ratios
/// against the calibrated baseline unless noted).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptConfig {
    /// EWMA smoothing factor for the per-step drift signals (0 < α ≤ 1);
    /// larger reacts faster, smaller rides out single-step noise.
    pub ewma_alpha: f64,
    /// Smoothed-signal / baseline ratio at which the detector trips. The
    /// default (1.5) is deliberately lower than a "signal doubled"
    /// intuition: slow-tier access counts amplify capacity loss — a
    /// capacity cut that costs only a few percent of end-to-end step time
    /// shows up as a 1.5–2x rise in slow accesses, because most accesses
    /// still hit fast memory. Requiring `trip_steps` consecutive
    /// EWMA-smoothed excursions keeps the lower bar from chattering.
    pub drift_threshold: f64,
    /// Ratio below which a tripped detector clears (hysteresis; must be
    /// below `drift_threshold`).
    pub clear_threshold: f64,
    /// Consecutive above-threshold steps required to trip.
    pub trip_steps: usize,
    /// Absolute per-step signal floor below which the ratio is ignored —
    /// keeps a near-zero baseline from tripping on a handful of accesses.
    pub noise_floor: f64,
    /// Per-layer slow-access delta (absolute) below which a layer is never
    /// called divergent, regardless of ratio.
    pub layer_noise_floor: u64,
    /// Fraction of layers divergent at which the incremental re-profile
    /// widens to a full one.
    pub full_reprofile_fraction: f64,
    /// Hard cap on plan re-solves in one run; past it the policy warns once
    /// and stays on its current plan.
    pub max_resolves_per_run: usize,
    /// Test hook: make the next observation step fail as if profiling
    /// faulted, exercising the degradation ladder.
    #[doc(hidden)]
    pub force_reprofile_fault: bool,
    /// Test hook: make the next re-solve fail with a zero-migration-budget
    /// error, exercising the degradation ladder.
    #[doc(hidden)]
    pub force_zero_budget: bool,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            ewma_alpha: 0.5,
            drift_threshold: 1.5,
            clear_threshold: 1.25,
            trip_steps: 2,
            noise_floor: 64.0,
            layer_noise_floor: 16,
            full_reprofile_fraction: 0.5,
            max_resolves_per_run: 3,
            force_reprofile_fault: false,
            force_zero_budget: false,
        }
    }
}

/// What one [`DriftDetector::observe`] call concluded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftVerdict {
    /// Signal within threshold of the baseline.
    Calm,
    /// Above threshold, but not yet for `trip_steps` consecutive steps.
    Elevated {
        /// Smoothed-signal / baseline ratio.
        ratio: f64,
    },
    /// Tripped: sustained divergence from the baseline (stays `Drifted`
    /// until the ratio falls back under the clear threshold).
    Drifted {
        /// Smoothed-signal / baseline ratio.
        ratio: f64,
    },
}

/// Windowed-EWMA drift detector with hysteresis over one scalar signal.
///
/// The first observation calibrates the baseline (the profile-predicted
/// steady state: the first managed step runs under the fresh plan, so its
/// signal *is* the plan's prediction made measurable). The baseline then
/// stays frozen until [`DriftDetector::reset`] — deliberate: an adaptive
/// baseline would slowly absorb the very degradation being detected.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    alpha: f64,
    trip: f64,
    clear: f64,
    trip_steps: usize,
    noise_floor: f64,
    ewma: Option<f64>,
    baseline: Option<f64>,
    consecutive: usize,
    tripped: bool,
}

impl DriftDetector {
    /// A detector using `cfg`'s thresholds, with no calibrated baseline yet.
    #[must_use]
    pub fn new(cfg: &AdaptConfig) -> Self {
        DriftDetector {
            alpha: cfg.ewma_alpha,
            trip: cfg.drift_threshold,
            clear: cfg.clear_threshold,
            trip_steps: cfg.trip_steps,
            noise_floor: cfg.noise_floor,
            ewma: None,
            baseline: None,
            consecutive: 0,
            tripped: false,
        }
    }

    /// Feed one per-step signal sample; returns the current verdict.
    pub fn observe(&mut self, value: f64) -> DriftVerdict {
        let ewma = match self.ewma {
            Some(prev) => self.alpha * value + (1.0 - self.alpha) * prev,
            None => value,
        };
        self.ewma = Some(ewma);
        let Some(baseline) = self.baseline else {
            self.baseline = Some(ewma);
            return DriftVerdict::Calm;
        };
        // Ratio against the frozen baseline; a sub-floor signal is calm by
        // definition (nothing worth re-planning over is happening).
        let ratio = if ewma < self.noise_floor {
            1.0
        } else if baseline < self.noise_floor {
            // Baseline was quiet, signal is not: maximal drift.
            f64::INFINITY
        } else {
            ewma / baseline
        };
        if self.tripped {
            if ratio <= self.clear {
                self.tripped = false;
                self.consecutive = 0;
                return DriftVerdict::Calm;
            }
            return DriftVerdict::Drifted { ratio };
        }
        if ratio >= self.trip {
            self.consecutive += 1;
            if self.consecutive >= self.trip_steps {
                self.tripped = true;
                return DriftVerdict::Drifted { ratio };
            }
            return DriftVerdict::Elevated { ratio };
        }
        self.consecutive = 0;
        DriftVerdict::Calm
    }

    /// Drop the baseline and trip state (called after a plan swap: the next
    /// observation recalibrates against the new plan's steady state).
    pub fn reset(&mut self) {
        self.ewma = None;
        self.baseline = None;
        self.consecutive = 0;
        self.tripped = false;
    }

    /// The calibrated baseline, if any.
    #[must_use]
    pub fn baseline(&self) -> Option<f64> {
        self.baseline
    }
}

/// A typed warning raised when the adaptation loop degrades instead of
/// re-planning. Rendered into the step report's `warnings` field.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptWarning {
    /// The incremental re-profile could not observe (poisoning failed or
    /// found nothing to poison); the named tensors fall back to demand
    /// paging under the old plan.
    ReprofileFault {
        /// What went wrong.
        detail: String,
    },
    /// The re-solve on the merged profile failed with the solver's
    /// zero-migration-budget condition; the old plan stays live.
    ResolveZeroBudget {
        /// Fast-memory capacity the failed solve saw.
        fast_bytes: u64,
        /// Short-lived reservation the failed solve saw.
        reserve_bytes: u64,
    },
    /// The re-solve failed for another reason; the old plan stays live.
    ResolveFailed {
        /// The solver error, rendered.
        detail: String,
    },
    /// Drift persisted but the run already spent its re-solve budget.
    ResolveLimitReached {
        /// The configured `max_resolves_per_run`.
        limit: usize,
    },
}

impl std::fmt::Display for AdaptWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptWarning::ReprofileFault { detail } => {
                write!(f, "adapt: re-profile failed ({detail}); divergent tensors fall back to demand paging")
            }
            AdaptWarning::ResolveZeroBudget { fast_bytes, reserve_bytes } => write!(
                f,
                "adapt: re-solve found zero migration budget (fast {fast_bytes} B, reserve {reserve_bytes} B); keeping previous plan"
            ),
            AdaptWarning::ResolveFailed { detail } => {
                write!(f, "adapt: re-solve failed ({detail}); keeping previous plan")
            }
            AdaptWarning::ResolveLimitReached { limit } => {
                write!(f, "adapt: drift persists but the re-solve budget ({limit}) is spent; keeping previous plan")
            }
        }
    }
}

/// Counters describing the adaptation loop over one run, surfaced on
/// `SentinelOutcome` and in the adaptive benchmark rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdaptReport {
    /// Detector trips acted upon (each schedules one observation step).
    pub drift_events: u64,
    /// Steps run with incremental re-profiling poisoning active.
    pub observation_steps: u64,
    /// Plans re-solved and swapped in.
    pub resolves: u64,
    /// Tensors currently degraded to demand paging (post-run snapshot).
    pub degraded_tensors: u64,
    /// Interval boundaries at which the drift hook fired.
    pub boundary_checks: u64,
    /// Of those, boundaries that were not Case 1 (prefetch incomplete).
    pub boundary_misses: u64,
    /// Every warning raised, in order.
    pub warnings: Vec<String>,
}

sentinel_util::impl_to_json!(AdaptReport {
    drift_events,
    observation_steps,
    resolves,
    degraded_tensors,
    boundary_checks,
    boundary_misses,
    warnings,
});

/// An incremental re-profile decided at a step end, armed at the next step
/// begin (poisoning must start before the step's first access).
#[derive(Debug, Clone)]
pub(crate) struct PendingObservation {
    /// Divergent layers whose compute times the observation re-measures.
    pub(crate) layers: Vec<usize>,
    /// Long-lived tensors to poison and re-count (sorted, deduplicated).
    pub(crate) tensors: Vec<TensorId>,
}

/// A live observation step: selective poisoning is active and per-layer /
/// per-tensor measurements are accumulating.
#[derive(Debug)]
pub(crate) struct Observation {
    /// Layers whose wall-minus-fault time is being re-measured.
    pub(crate) layers: HashSet<usize>,
    /// Observation targets in deterministic (sorted) merge order.
    pub(crate) tensors: Vec<TensorId>,
    /// Current placement of each still-live target (updated on re-alloc).
    pub(crate) ranges: HashMap<TensorId, PageRange>,
    /// Fault/page counts finalized when a target was freed mid-step.
    pub(crate) finalized: HashMap<TensorId, (u64, u64)>,
    /// In-flight layer measurement: (layer, start ns, fault ns at start).
    pub(crate) layer_mark: Option<(usize, Ns, Ns)>,
    /// Completed layer measurements (layer, fault-free time).
    pub(crate) layer_times: Vec<(usize, Ns)>,
}

/// The policy-side state of the adaptation loop.
#[derive(Debug)]
pub(crate) struct AdaptState {
    pub(crate) cfg: AdaptConfig,
    /// Detector over per-step slow-memory accesses.
    pub(crate) slow_detector: DriftDetector,
    /// Detector over per-step stall time (Case-3 waits + demand faults).
    pub(crate) stall_detector: DriftDetector,
    /// Per-layer slow-access counts captured at the first calm managed
    /// step under the current plan; the divergence reference.
    pub(crate) layer_baseline: Option<Vec<u64>>,
    /// Slow-access counter at the current step's begin.
    pub(crate) step_slow0: u64,
    /// Slow-memory accesses of each layer in the current step: the drift
    /// localizer's evidence.
    pub(crate) layer_slow: Vec<u64>,
    /// Slow-access counter at the current layer's begin.
    pub(crate) layer_slow0: u64,
    /// Stall-time total at the current step's begin.
    pub(crate) step_stall0: Ns,
    /// Whether the current trip has already been acted on (hysteresis at
    /// the action level: one observation per excursion).
    pub(crate) drift_handled: bool,
    /// Observation decided but not yet armed.
    pub(crate) pending: Option<PendingObservation>,
    /// Observation currently running.
    pub(crate) observing: Option<Observation>,
    /// Plan re-solves performed so far.
    pub(crate) resolves: usize,
    /// Whether the resolve-budget warning was already raised.
    pub(crate) limit_warned: bool,
    /// Tensors degraded to demand paging (excluded from prefetch).
    pub(crate) demand_only: HashSet<TensorId>,
    /// Warnings raised since the last `step_warnings` drain.
    pub(crate) step_warnings: Vec<String>,
    /// Run-level counters.
    pub(crate) report: AdaptReport,
}

impl AdaptState {
    pub(crate) fn new(cfg: AdaptConfig) -> Self {
        let slow_detector = DriftDetector::new(&cfg);
        let stall_detector = DriftDetector::new(&cfg);
        AdaptState {
            cfg,
            slow_detector,
            stall_detector,
            layer_baseline: None,
            step_slow0: 0,
            layer_slow: Vec::new(),
            layer_slow0: 0,
            step_stall0: 0,
            drift_handled: false,
            pending: None,
            observing: None,
            resolves: 0,
            limit_warned: false,
            demand_only: HashSet::new(),
            step_warnings: Vec::new(),
            report: AdaptReport::default(),
        }
    }

    /// Raise a typed warning: queued for the step report and kept in the
    /// run-level report.
    pub(crate) fn warn(&mut self, w: &AdaptWarning) {
        let rendered = w.to_string();
        self.step_warnings.push(rendered.clone());
        self.report.warnings.push(rendered);
    }

    /// Degrade an observation attempt: the targets fall back to demand
    /// paging under the old plan.
    pub(crate) fn degrade_observation(&mut self, tensors: &[TensorId], detail: &str) {
        self.demand_only.extend(tensors.iter().copied());
        self.report.degraded_tensors = self.demand_only.len() as u64;
        self.warn(&AdaptWarning::ReprofileFault { detail: detail.to_owned() });
    }

    /// Layers whose live slow-access count diverged from the baseline, and
    /// whether the re-profile should widen to all layers. With no usable
    /// attribution the answer is conservatively "all".
    pub(crate) fn divergent_layers(
        &self,
        current: Option<&[u64]>,
        num_layers: usize,
    ) -> (Vec<usize>, bool) {
        let all = || ((0..num_layers).collect::<Vec<_>>(), true);
        let (Some(cur), Some(base)) = (current, self.layer_baseline.as_deref()) else {
            return all();
        };
        let mut divergent = Vec::new();
        for (layer, &now) in cur.iter().enumerate().take(num_layers) {
            let b = base.get(layer).copied().unwrap_or(0);
            let threshold = ((b as f64) * self.cfg.drift_threshold) as u64;
            if now > threshold.max(b + self.cfg.layer_noise_floor) {
                divergent.push(layer);
            }
        }
        // Global drift without a per-layer culprit (e.g. uniform bandwidth
        // degradation) still warrants a full refresh.
        if divergent.is_empty()
            || (divergent.len() as f64) >= self.cfg.full_reprofile_fraction * num_layers as f64
        {
            return all();
        }
        (divergent, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_util::ToJson;

    fn fast_cfg() -> AdaptConfig {
        // Thresholds pinned so these tests exercise detector *mechanics*
        // (calibration, trip counting, hysteresis) independent of the
        // shipped default sensitivity.
        AdaptConfig {
            trip_steps: 2,
            noise_floor: 1.0,
            drift_threshold: 2.0,
            clear_threshold: 1.25,
            ..AdaptConfig::default()
        }
    }

    #[test]
    fn detector_calibrates_then_trips_after_consecutive_excursions() {
        let mut d = DriftDetector::new(&fast_cfg());
        assert_eq!(d.observe(100.0), DriftVerdict::Calm); // calibrates
        assert_eq!(d.baseline(), Some(100.0));
        assert_eq!(d.observe(100.0), DriftVerdict::Calm);
        // One hot step is Elevated, not Drifted (trip_steps = 2)…
        assert!(matches!(d.observe(1_000.0), DriftVerdict::Elevated { .. }));
        // …the second consecutive one trips.
        assert!(matches!(d.observe(1_000.0), DriftVerdict::Drifted { .. }));
    }

    #[test]
    fn detector_hysteresis_holds_until_clear_threshold() {
        let mut d = DriftDetector::new(&fast_cfg());
        d.observe(100.0);
        d.observe(1_000.0);
        assert!(matches!(d.observe(1_000.0), DriftVerdict::Drifted { .. }));
        // Dropping below the trip threshold but above clear stays Drifted
        // (EWMA at this point is well above 125).
        assert!(matches!(d.observe(150.0), DriftVerdict::Drifted { .. }));
        // Sustained quiet decays the EWMA under clear_threshold × baseline.
        let mut verdict = d.observe(100.0);
        for _ in 0..8 {
            verdict = d.observe(100.0);
        }
        assert_eq!(verdict, DriftVerdict::Calm);
    }

    #[test]
    fn detector_interrupted_excursions_do_not_trip() {
        let mut d = DriftDetector::new(&fast_cfg());
        d.observe(100.0);
        // EWMA of (100, 400) = 250 → ratio 2.5: one hot step, Elevated.
        assert!(matches!(d.observe(400.0), DriftVerdict::Elevated { .. }));
        // A calm step decays the EWMA under threshold and resets the
        // consecutive counter…
        assert_eq!(d.observe(100.0), DriftVerdict::Calm);
        // …so the next excursion starts over at Elevated, not Drifted.
        assert!(matches!(d.observe(400.0), DriftVerdict::Elevated { .. }));
    }

    #[test]
    fn detector_noise_floor_mutes_quiet_signals() {
        let cfg = AdaptConfig { noise_floor: 64.0, trip_steps: 1, ..AdaptConfig::default() };
        let mut d = DriftDetector::new(&cfg);
        d.observe(2.0); // near-zero baseline
        // 10× the baseline but under the floor: still calm.
        assert_eq!(d.observe(20.0), DriftVerdict::Calm);
        // Above the floor against a sub-floor baseline: maximal drift.
        assert!(matches!(d.observe(500.0), DriftVerdict::Drifted { .. }));
    }

    #[test]
    fn detector_reset_recalibrates() {
        let mut d = DriftDetector::new(&fast_cfg());
        d.observe(100.0);
        d.observe(1_000.0);
        d.observe(1_000.0);
        d.reset();
        assert_eq!(d.baseline(), None);
        // First post-reset observation calibrates at the new steady state.
        assert_eq!(d.observe(1_000.0), DriftVerdict::Calm);
        assert_eq!(d.baseline(), Some(1_000.0));
        assert_eq!(d.observe(1_000.0), DriftVerdict::Calm);
    }

    #[test]
    fn divergent_layers_localize_or_widen() {
        let mut st = AdaptState::new(AdaptConfig {
            layer_noise_floor: 10,
            full_reprofile_fraction: 0.5,
            ..AdaptConfig::default()
        });
        st.layer_baseline = Some(vec![100, 100, 100, 100]);
        // One layer hot out of four: localized.
        let (layers, full) = st.divergent_layers(Some(&[100, 400, 100, 100]), 4);
        assert_eq!((layers, full), (vec![1], false));
        // Two of four (= the 0.5 fraction): widened to all.
        let (layers, full) = st.divergent_layers(Some(&[400, 400, 100, 100]), 4);
        assert_eq!((layers, full), (vec![0, 1, 2, 3], true));
        // Sub-floor absolute deltas never diverge even at a high ratio.
        st.layer_baseline = Some(vec![0, 0]);
        let (layers, full) = st.divergent_layers(Some(&[5, 5]), 2);
        assert_eq!((layers, full), (vec![0, 1], true)); // empty → widened
        // No attribution at all: conservatively full.
        let (layers, full) = st.divergent_layers(None, 3);
        assert_eq!((layers, full), (vec![0, 1, 2], true));
    }

    #[test]
    fn warnings_render_and_accumulate() {
        let mut st = AdaptState::new(AdaptConfig::default());
        st.warn(&AdaptWarning::ResolveZeroBudget { fast_bytes: 10, reserve_bytes: 20 });
        st.degrade_observation(&[TensorId(3), TensorId(4)], "boom");
        st.warn(&AdaptWarning::ResolveLimitReached { limit: 3 });
        st.warn(&AdaptWarning::ResolveFailed { detail: "solver exploded".into() });
        assert_eq!(st.report.warnings.len(), 4);
        assert_eq!(st.step_warnings, st.report.warnings);
        assert!(st.report.warnings[0].contains("zero migration budget"));
        assert!(st.report.warnings[1].contains("demand paging"));
        assert!(st.report.warnings[2].contains("budget (3) is spent"));
        assert!(st.report.warnings[3].contains("solver exploded"));
        assert_eq!(st.report.degraded_tensors, 2);
        assert!(st.demand_only.contains(&TensorId(3)));
    }

    #[test]
    fn adapt_report_serializes_all_fields() {
        let r = AdaptReport { drift_events: 2, warnings: vec!["w".to_owned()], ..AdaptReport::default() };
        let json = r.to_json().to_string();
        for key in [
            "drift_events",
            "observation_steps",
            "resolves",
            "degraded_tensors",
            "boundary_checks",
            "boundary_misses",
            "warnings",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
