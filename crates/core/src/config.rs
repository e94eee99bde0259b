//! Sentinel runtime configuration and ablation switches.

/// How Sentinel resolves Case 3 — migrations that did not finish before the
/// interval that needs their tensors (Section IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Case3Policy {
    /// The paper's default on CPU: spend one step waiting for migration and
    /// one step leaving tensors in slow memory, measure both, keep the
    /// winner for the rest of training.
    TestAndTrial,
    /// Always stall until the migration completes (mandatory on GPU, where
    /// compute cannot read host memory at speed).
    AlwaysWait,
    /// Always abandon the pending migration and use tensors from slow memory.
    AlwaysLeave,
    /// Do nothing at the interval boundary; each access waits for *its own*
    /// tensor's copy (the event on its `cudaMemPrefetchAsync`). This is how
    /// the GPU variant realizes "wait for tensor migration to complete"
    /// without serializing the whole interval behind the transfer queue.
    DemandWait,
}

/// Feature-ablation level, matching the Figure 13 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// "Direct tensor migration": no migration interval (no lookahead — a
    /// tensor is fetched when the layer that uses it starts) and no
    /// short-lived space reservation.
    Direct,
    /// "w/ det. MI": the solver-chosen migration interval with lookahead
    /// prefetch, but still no space reservation.
    WithInterval,
    /// "w/ all": full Sentinel.
    Full,
}

/// Configuration of the Sentinel runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct SentinelConfig {
    /// Unprofiled warmup steps before the profiling step (the paper skips
    /// TensorFlow's first 10 hardware-detection steps).
    pub profile_warmup: usize,
    /// Co-allocate tensors by lifetime/hotness group (Section IV-B). When
    /// off, everything shares one packed pool as in stock TensorFlow.
    pub coallocate: bool,
    /// Reserve fast-memory space for short-lived tensors (Section IV-C).
    pub reserve_short_lived: bool,
    /// Prefetch for the *next* interval at each interval start. When off
    /// (the Figure 13 "direct" ablation), tensors are fetched at the start
    /// of the interval that uses them.
    pub lookahead: bool,
    /// Force a specific migration interval length instead of solving Eq. 1/2.
    pub mil_override: Option<usize>,
    /// Case-3 resolution policy.
    pub case3: Case3Policy,
    /// Migrate hottest tensors first (Section IV-D ordering). When off,
    /// prefetch in schedule (FIFO) order — an extra ablation.
    pub hot_first: bool,
    /// GPU mode: pinned-memory profiling with a one-time two-copy
    /// synchronization cost, and Case 3 forced to [`Case3Policy::AlwaysWait`].
    pub gpu: bool,
    /// Drift-adaptive control loop (`crate::adapt`): online drift
    /// detection, incremental re-profiling and plan re-solve. `false`
    /// (the default) runs the static policy byte-identically to builds
    /// without the feature. Excluded from the JSON serialization so the
    /// committed goldens — all produced with adaptation off — stay
    /// byte-stable.
    pub adaptive: bool,
}

impl Default for SentinelConfig {
    fn default() -> Self {
        SentinelConfig {
            profile_warmup: 0,
            coallocate: true,
            reserve_short_lived: true,
            lookahead: true,
            mil_override: None,
            case3: Case3Policy::TestAndTrial,
            hot_first: true,
            gpu: false,
            adaptive: false,
        }
    }
}

impl SentinelConfig {
    /// The GPU variant (Section V): pinned-memory profiling and always-wait
    /// Case-3 handling.
    #[must_use]
    pub fn gpu() -> Self {
        SentinelConfig { gpu: true, case3: Case3Policy::DemandWait, ..SentinelConfig::default() }
    }

    /// Apply a Figure-13 ablation level.
    #[must_use]
    pub fn with_ablation(mut self, ablation: Ablation) -> Self {
        match ablation {
            Ablation::Direct => {
                self.lookahead = false;
                self.reserve_short_lived = false;
                self.mil_override = Some(1);
            }
            Ablation::WithInterval => {
                self.lookahead = true;
                self.reserve_short_lived = false;
                self.mil_override = None;
            }
            Ablation::Full => {
                self.lookahead = true;
                self.reserve_short_lived = true;
                self.mil_override = None;
            }
        }
        self
    }

    /// Fix the migration interval length (Figure 5 sweeps).
    #[must_use]
    pub fn with_mil(mut self, mil: usize) -> Self {
        self.mil_override = Some(mil.max(1));
        self
    }

    /// Enable the drift-adaptive control loop.
    #[must_use]
    pub fn with_adaptive(mut self) -> Self {
        self.adaptive = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_featured() {
        let c = SentinelConfig::default();
        assert!(c.coallocate && c.reserve_short_lived && c.lookahead && c.hot_first);
        assert_eq!(c.case3, Case3Policy::TestAndTrial);
        assert!(!c.gpu);
    }

    #[test]
    fn gpu_forces_per_tensor_waiting() {
        let c = SentinelConfig::gpu();
        assert!(c.gpu);
        assert_eq!(c.case3, Case3Policy::DemandWait);
    }

    #[test]
    fn ablations_map_to_feature_sets() {
        let d = SentinelConfig::default().with_ablation(Ablation::Direct);
        assert!(!d.lookahead && !d.reserve_short_lived);
        assert_eq!(d.mil_override, Some(1));
        let m = SentinelConfig::default().with_ablation(Ablation::WithInterval);
        assert!(m.lookahead && !m.reserve_short_lived);
        assert_eq!(m.mil_override, None);
        let f = SentinelConfig::default().with_ablation(Ablation::Full);
        assert!(f.lookahead && f.reserve_short_lived);
    }

    #[test]
    fn mil_override_floors_at_one() {
        assert_eq!(SentinelConfig::default().with_mil(0).mil_override, Some(1));
    }

    #[test]
    fn adaptive_and_retry_default_off_and_stay_out_of_json() {
        use sentinel_util::ToJson;
        assert!(!SentinelConfig::default().adaptive);
        let on = SentinelConfig::default().with_adaptive();
        assert!(on.adaptive);
        // Golden stability: the knob does not appear in the serialized
        // config, and neither does the memory system's fixed retry policy.
        let json = on.to_json().to_string();
        assert!(!json.contains("adaptive") && !json.contains("retry"), "{json}");
    }
}

impl sentinel_util::ToJson for Case3Policy {
    fn to_json(&self) -> sentinel_util::Json {
        sentinel_util::Json::Str(format!("{self:?}"))
    }
}

impl sentinel_util::ToJson for Ablation {
    fn to_json(&self) -> sentinel_util::Json {
        sentinel_util::Json::Str(format!("{self:?}"))
    }
}

sentinel_util::impl_to_json!(SentinelConfig {
    profile_warmup,
    coallocate,
    reserve_short_lived,
    lookahead,
    mil_override,
    case3,
    hot_first,
    gpu,
});
