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
//!    when the plan was (re)built. A ratio above `DRIFT_THRESHOLD` for
//!    `TRIP_STEPS` consecutive steps trips the detector; hysteresis (the
//!    separate, lower `CLEAR_THRESHOLD`) keeps it from chattering.
//! 2. **Localize + re-profile**: per-layer slow-access attribution (the
//!    memory system's cheap always-on counters) names the divergent layers;
//!    only their long-lived tensors are page-poisoned for **one**
//!    observation step, and the measured deltas are merged into the
//!    existing [`ProfileReport`]. Past `FULL_REPROFILE_FRACTION` of layers
//!    divergent, the incremental pass covers everything.
//! 3. **Re-solve + swap**: the MIL solver and interval-set table are re-run
//!    on the merged profile and the new plan is swapped in at the step
//!    boundary, reconciling in-flight migrations through the existing
//!    cancel/retry machinery. At most `MAX_RESOLVES_PER_RUN` swaps.
//! 4. **Degrade, never crash**: a failed observation (no resident pages)
//!    or a failed re-solve latches a typed [`AdaptWarning`], keeps the old
//!    plan, and drops the divergent tensors to demand paging.
//!
//! Everything here is gated on `SentinelConfig::adaptive`; with it `false`
//! the policy takes none of these paths and runs byte-identically to the
//! static build. The tuning is fixed: the constants below are the one
//! sensitivity every run uses (ratios are unitless, against the calibrated
//! baseline).

use sentinel_dnn::TensorId;
use sentinel_mem::{Ns, PageRange};
use std::collections::{HashMap, HashSet};

/// EWMA smoothing factor for the per-step drift signals (0 < α ≤ 1);
/// larger reacts faster, smaller rides out single-step noise.
const EWMA_ALPHA: f64 = 0.5;

/// Smoothed-signal / baseline ratio at which the detector trips. It is
/// deliberately lower than a "signal doubled" intuition: slow-tier access
/// counts amplify capacity loss — a capacity cut that costs only a few
/// percent of end-to-end step time shows up as a 1.5–2x rise in slow
/// accesses, because most accesses still hit fast memory. Requiring
/// [`TRIP_STEPS`] consecutive EWMA-smoothed excursions keeps the lower bar
/// from chattering.
const DRIFT_THRESHOLD: f64 = 1.5;

/// Ratio below which a tripped detector clears (hysteresis; below
/// [`DRIFT_THRESHOLD`]).
const CLEAR_THRESHOLD: f64 = 1.25;

/// Consecutive above-threshold steps required to trip.
const TRIP_STEPS: usize = 2;

/// Absolute per-step signal floor below which the ratio is ignored — keeps
/// a near-zero baseline from tripping on a handful of accesses.
const NOISE_FLOOR: f64 = 64.0;

/// Per-layer slow-access delta (absolute) below which a layer is never
/// called divergent, regardless of ratio.
const LAYER_NOISE_FLOOR: u64 = 16;

/// Fraction of layers divergent at which the incremental re-profile widens
/// to a full one.
const FULL_REPROFILE_FRACTION: f64 = 0.5;

/// Hard cap on plan re-solves in one run; past it the policy warns once and
/// stays on its current plan.
pub(crate) const MAX_RESOLVES_PER_RUN: usize = 3;

/// What one [`DriftDetector::observe`] call concluded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftVerdict {
    /// Signal within threshold of the baseline.
    Calm,
    /// Above threshold, but not yet for two consecutive steps.
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

/// Windowed-EWMA drift detector with hysteresis over one scalar signal, at
/// the adaptive loop's fixed sensitivity.
///
/// The first observation calibrates the baseline (the profile-predicted
/// steady state: the first managed step runs under the fresh plan, so its
/// signal *is* the plan's prediction made measurable). The baseline then
/// stays frozen until [`DriftDetector::reset`] — deliberate: an adaptive
/// baseline would slowly absorb the very degradation being detected.
#[derive(Debug, Clone, Default)]
pub struct DriftDetector {
    ewma: Option<f64>,
    baseline: Option<f64>,
    consecutive: usize,
    tripped: bool,
}

impl DriftDetector {
    /// A detector with no calibrated baseline yet.
    #[must_use]
    pub fn new() -> Self {
        DriftDetector::default()
    }

    /// Feed one per-step signal sample; returns the current verdict.
    pub fn observe(&mut self, value: f64) -> DriftVerdict {
        let ewma = match self.ewma {
            Some(prev) => EWMA_ALPHA * value + (1.0 - EWMA_ALPHA) * prev,
            None => value,
        };
        self.ewma = Some(ewma);
        let Some(baseline) = self.baseline else {
            self.baseline = Some(ewma);
            return DriftVerdict::Calm;
        };
        // Ratio against the frozen baseline; a sub-floor signal is calm by
        // definition (nothing worth re-planning over is happening).
        let ratio = if ewma < NOISE_FLOOR {
            1.0
        } else if baseline < NOISE_FLOOR {
            // Baseline was quiet, signal is not: maximal drift.
            f64::INFINITY
        } else {
            ewma / baseline
        };
        if self.tripped {
            if ratio <= CLEAR_THRESHOLD {
                self.tripped = false;
                self.consecutive = 0;
                return DriftVerdict::Calm;
            }
            return DriftVerdict::Drifted { ratio };
        }
        if ratio >= DRIFT_THRESHOLD {
            self.consecutive += 1;
            if self.consecutive >= TRIP_STEPS {
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
        /// The per-run re-solve cap.
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
    pub(crate) fn new() -> Self {
        AdaptState {
            slow_detector: DriftDetector::new(),
            stall_detector: DriftDetector::new(),
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
            let threshold = ((b as f64) * DRIFT_THRESHOLD) as u64;
            if now > threshold.max(b + LAYER_NOISE_FLOOR) {
                divergent.push(layer);
            }
        }
        // Global drift without a per-layer culprit (e.g. uniform bandwidth
        // degradation) still warrants a full refresh.
        if divergent.is_empty()
            || (divergent.len() as f64) >= FULL_REPROFILE_FRACTION * num_layers as f64
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

    // The signal values below sit on the shipped constants: baseline 100
    // (above the 64 noise floor), trip at ratio 1.5 for two steps, clear at
    // 1.25, and an EWMA that halves the distance to each sample.

    #[test]
    fn detector_calibrates_then_trips_after_consecutive_excursions() {
        let mut d = DriftDetector::new();
        assert_eq!(d.observe(100.0), DriftVerdict::Calm); // calibrates
        assert_eq!(d.baseline(), Some(100.0));
        assert_eq!(d.observe(100.0), DriftVerdict::Calm);
        // One hot step is Elevated, not Drifted (TRIP_STEPS = 2)…
        assert!(matches!(d.observe(1_000.0), DriftVerdict::Elevated { .. }));
        // …the second consecutive one trips.
        assert!(matches!(d.observe(1_000.0), DriftVerdict::Drifted { .. }));
    }

    #[test]
    fn detector_hysteresis_holds_until_clear_threshold() {
        let mut d = DriftDetector::new();
        d.observe(100.0);
        d.observe(1_000.0);
        assert!(matches!(d.observe(1_000.0), DriftVerdict::Drifted { .. })); // EWMA 775
        // Quiet steps decay the EWMA: 437.5, 268.75, 184.375…
        for _ in 0..3 {
            assert!(matches!(d.observe(100.0), DriftVerdict::Drifted { .. }));
        }
        // …then 142.1875: below the trip ratio but above the clear ratio, so
        // the tripped detector stays Drifted…
        let held = d.observe(100.0);
        assert!(
            matches!(held, DriftVerdict::Drifted { ratio }
                if ratio < DRIFT_THRESHOLD && ratio > CLEAR_THRESHOLD),
            "{held:?}"
        );
        // …and clears only at 121.09375, under CLEAR_THRESHOLD × baseline.
        assert_eq!(d.observe(100.0), DriftVerdict::Calm);
    }

    #[test]
    fn detector_interrupted_excursions_do_not_trip() {
        let mut d = DriftDetector::new();
        d.observe(100.0);
        // EWMA of (100, 250) = 175 → ratio 1.75: one hot step, Elevated.
        assert!(matches!(d.observe(250.0), DriftVerdict::Elevated { .. }));
        // A calm step decays the EWMA to 137.5, under the trip ratio, and
        // resets the consecutive counter…
        assert_eq!(d.observe(100.0), DriftVerdict::Calm);
        // …so the next excursion (EWMA 193.75) starts over at Elevated, not
        // Drifted.
        assert!(matches!(d.observe(250.0), DriftVerdict::Elevated { .. }));
    }

    #[test]
    fn detector_noise_floor_mutes_quiet_signals() {
        let mut d = DriftDetector::new();
        d.observe(2.0); // near-zero baseline
        // 10× the baseline but the EWMA (11) is under the floor: still calm.
        assert_eq!(d.observe(20.0), DriftVerdict::Calm);
        // Above the floor against a sub-floor baseline: maximal drift, which
        // still needs TRIP_STEPS consecutive steps to trip.
        let v = d.observe(500.0);
        assert!(matches!(v, DriftVerdict::Elevated { ratio } if ratio.is_infinite()), "{v:?}");
        let v = d.observe(500.0);
        assert!(matches!(v, DriftVerdict::Drifted { ratio } if ratio.is_infinite()), "{v:?}");
    }

    #[test]
    fn detector_reset_recalibrates() {
        let mut d = DriftDetector::new();
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
        let mut st = AdaptState::new();
        st.layer_baseline = Some(vec![100, 100, 100, 100]);
        // One layer hot out of four: localized.
        let (layers, full) = st.divergent_layers(Some(&[100, 400, 100, 100]), 4);
        assert_eq!((layers, full), (vec![1], false));
        // Two of four (= the 0.5 fraction): widened to all.
        let (layers, full) = st.divergent_layers(Some(&[400, 400, 100, 100]), 4);
        assert_eq!((layers, full), (vec![0, 1, 2, 3], true));
        // Sub-floor absolute deltas (under LAYER_NOISE_FLOOR = 16) never
        // diverge even at a high ratio.
        st.layer_baseline = Some(vec![0, 0]);
        let (layers, full) = st.divergent_layers(Some(&[15, 15]), 2);
        assert_eq!((layers, full), (vec![0, 1], true)); // empty → widened
        // No attribution at all: conservatively full.
        let (layers, full) = st.divergent_layers(None, 3);
        assert_eq!((layers, full), (vec![0, 1, 2], true));
    }

    #[test]
    fn warnings_render_and_accumulate() {
        let mut st = AdaptState::new();
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
