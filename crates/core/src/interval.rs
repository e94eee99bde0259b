//! The migration-interval solver (paper Equations 1 and 2).
//!
//! A training step is partitioned into equal-sized intervals of `MIL`
//! layers. Eq. 1 (space): the long-lived tensor bytes an interval needs
//! must fit in fast memory net of the short-lived reservation,
//! `Tensor(MIL) < S − RS`. Eq. 2 (goal): minimize the migration time
//! exposed on the critical path, `argmin (S − RS)/BW − T(MIL)`. Since the
//! first term does not depend on `MIL` and `T` grows with `MIL`, the
//! optimum is the *largest* interval still satisfying Eq. 1 — exactly the
//! interior optimum of the paper's Figure 5 (too short exposes migration,
//! too long violates space).
//!
//! Two solver implementations produce byte-identical [`MilSolution`]s:
//! [`solve_mil`] answers every candidate's per-interval sums from one
//! offline sweep over the layers (O((R + L·ln L)·log L) for `R` long-lived
//! refs), while [`solve_mil_reference`] keeps the original per-interval
//! range-query formulation (O(L²·t̄·log t̄)) as the pinned semantic
//! reference; the randomized suite
//! `crates/core/tests/planner_equivalence_prop.rs` holds them equal.

use crate::error::SentinelError;
use sentinel_dnn::{Graph, Schedule};
use sentinel_mem::Ns;
use sentinel_profiler::ProfileReport;

/// The chosen partition of a training step into migration intervals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalPlan {
    /// Migration interval length, in layers.
    pub mil: usize,
    /// Total layers in a step.
    pub num_layers: usize,
}

impl IntervalPlan {
    /// Build a plan with a given interval length.
    ///
    /// # Panics
    ///
    /// Panics if `mil` or `num_layers` is zero.
    #[must_use]
    pub fn new(mil: usize, num_layers: usize) -> Self {
        assert!(mil > 0 && num_layers > 0, "mil and num_layers must be positive");
        IntervalPlan { mil: mil.min(num_layers), num_layers }
    }

    /// Number of intervals in a step (last one may be short).
    #[must_use]
    pub fn num_intervals(&self) -> usize {
        self.num_layers.div_ceil(self.mil)
    }

    /// Interval containing `layer`. Layers at or past `num_layers` clamp to
    /// the last interval, so the result always indexes a real interval.
    #[must_use]
    pub fn interval_of(&self, layer: usize) -> usize {
        (layer / self.mil).min(self.num_intervals() - 1)
    }

    /// First layer of interval `k`.
    #[must_use]
    pub fn start_layer(&self, k: usize) -> usize {
        (k * self.mil).min(self.num_layers)
    }

    /// One-past-the-last layer of interval `k`.
    #[must_use]
    pub fn end_layer(&self, k: usize) -> usize {
        ((k + 1) * self.mil).min(self.num_layers)
    }

    /// Whether `layer` is the first layer of its interval.
    #[must_use]
    pub fn is_interval_start(&self, layer: usize) -> bool {
        layer.is_multiple_of(self.mil)
    }
}

/// Per-candidate diagnostics from the solver (useful for Figure 5 analyses).
#[derive(Debug, Clone, PartialEq)]
pub struct MilCandidate {
    /// Candidate interval length.
    pub mil: usize,
    /// Worst-case long-lived bytes any interval must hold (`Tensor(MIL)`).
    pub tensor_bytes: u64,
    /// Whether Eq. 1 holds: `tensor_bytes < S − RS`.
    pub feasible: bool,
    /// Estimated training time per interval (`T(MIL)`), ns.
    pub interval_time_ns: Ns,
    /// Eq. 2 objective: `(S − RS)/BW − T(MIL)` (may be negative).
    pub objective_ns: i128,
}

/// Solver output.
#[derive(Debug, Clone, PartialEq)]
pub struct MilSolution {
    /// Chosen interval length.
    pub mil: usize,
    /// All evaluated candidates, in increasing `mil` order.
    pub candidates: Vec<MilCandidate>,
}

/// Solve for the optimum migration interval length.
///
/// * `fast_bytes` — usable fast-memory size `S`.
/// * `reserve_bytes` — the short-lived reservation `RS` (0 when disabled).
/// * `promote_bw` — slow→fast migration bandwidth in bytes/ns.
///
/// Every candidate's per-interval working set and incoming-prefetch bytes
/// come from `IntervalSums`, one offline sweep over the layers, so the
/// cost is O((R + L·ln L)·log L) for `R` long-lived refs and `L` layers
/// rather than one pass over every long-lived tensor per candidate. A
/// tensor is *incoming* for interval `k` when `k` references it, it exists
/// before `k` starts (preallocated, or `k` is not the tensor's first
/// referencing interval — first refs are creations), and the cyclic
/// predecessor `k−1` does not reference it (so it was not left resident).
/// All sums are exact `u64` arithmetic, so the result is byte-identical to
/// [`solve_mil_reference`].
///
/// # Errors
///
/// [`SentinelError::ZeroMigrationBudget`] when `reserve_bytes >= fast_bytes`:
/// the migration budget `S − RS` is zero, so every candidate would silently
/// plan no promotions. (A *positive* budget that no candidate fits is a
/// legitimate outcome and falls back to `mil = 1`.)
pub fn solve_mil(
    graph: &Graph,
    schedule: &Schedule,
    profile: &ProfileReport,
    fast_bytes: u64,
    reserve_bytes: u64,
    promote_bw: f64,
) -> Result<MilSolution, SentinelError> {
    let num_layers = graph.num_layers().max(1);
    if reserve_bytes >= fast_bytes {
        return Err(SentinelError::ZeroMigrationBudget { fast_bytes, reserve_bytes });
    }
    let budget = fast_bytes - reserve_bytes;
    let migration_time = (budget as f64 / promote_bw.max(1e-9)) as i128;

    let sums = IntervalSums::sweep(graph, schedule, num_layers);
    let mut candidates = Vec::with_capacity(num_layers);
    for mil in 1..=num_layers {
        let plan = IntervalPlan::new(mil, num_layers);
        let tensor_bytes = sums.tensor_bytes(&plan);
        let interval_time_ns: Ns = if profile.layer_times_ns.is_empty() {
            0
        } else {
            // Worst case for exposure is the *shortest* interval.
            (0..plan.num_intervals())
                .map(|k| profile.time_for_layers(plan.start_layer(k), plan.end_layer(k)))
                .min()
                .unwrap_or(0)
        };
        candidates.push(MilCandidate {
            mil,
            tensor_bytes,
            feasible: tensor_bytes < budget,
            interval_time_ns,
            objective_ns: migration_time - i128::from(interval_time_ns),
        });
    }

    // Largest feasible MIL minimizes the Eq. 2 objective; fall back to 1.
    let mil = candidates.iter().filter(|c| c.feasible).map(|c| c.mil).max().unwrap_or(1);
    Ok(MilSolution { mil, candidates })
}

/// Every candidate's per-interval long-lived byte sums, from one sweep.
///
/// Each distinct `(tensor, layer)` reference of a long-lived tensor is a
/// point at `x = layer` whose key is the tensor's previous referencing
/// layer plus one (0 for its first reference). `Q(X, Y)` sums the bytes of
/// the points with `x < X` and `key <= Y`. For interval `[s, e)`:
///
/// * its working set counts each tensor at its first reference in the
///   interval, the one point with `key <= s`: `Q(e, s) − Q(s, s)`, where
///   `Q(s, s)` is a plain prefix sum over `x`;
/// * a tensor is prefetched into interval `k >= 1` when that point's
///   previous reference also precedes interval `k−1`, `key <= s − mil`,
///   and the point is not the reference that creates a runtime tensor:
///   `Q(e, s − mil) − Q(s, s − mil)` minus those creations, where
///   `Q(s, s − mil)` is interval `k−1`'s own `Q(e, s)`;
/// * interval 0 takes the preallocated tensors first used in it that the
///   last interval does not leave resident (none when it is the only one).
///
/// The sweep walks `X = 1..=L`, adds layer `X−1`'s points to a Fenwick tree
/// over `key`, and answers the queries of every interval that ends at `X`:
/// about `2·L·ln L` of them over all candidates.
struct IntervalSums {
    /// Slot of interval 0 of candidate `mil` is `base[mil − 1]`; interval
    /// `k` of it is `base[mil − 1] + k`.
    base: Vec<usize>,
    /// `Q(e, s)` per slot.
    own: Vec<u64>,
    /// `Q(e, s − mil)` per slot (unused at `k = 0`).
    from_prev: Vec<u64>,
    /// Incoming bytes of interval 0, per candidate.
    head: Vec<u64>,
    /// `refs_before[x]`: bytes of every point with `x' < x`.
    refs_before: Vec<u64>,
    /// `created_before[x]`: bytes of runtime tensors first referenced
    /// before layer `x`.
    created_before: Vec<u64>,
}

impl IntervalSums {
    fn sweep(graph: &Graph, schedule: &Schedule, layers: usize) -> Self {
        // Group every candidate's intervals by end layer (a counting sort),
        // so the sweep reaches each interval's queries at its end.
        let mut base = Vec::with_capacity(layers);
        let mut by_end = vec![0usize; layers + 2];
        let mut slots = 0;
        for mil in 1..=layers {
            base.push(slots);
            let n = layers.div_ceil(mil);
            slots += n;
            for k in 0..n {
                by_end[((k + 1) * mil).min(layers) + 1] += 1;
            }
        }
        for x in 1..by_end.len() {
            by_end[x] += by_end[x - 1];
        }
        let mut fill = by_end.clone();
        let mut ending: Vec<(usize, usize)> = vec![(0, 0); slots];
        for mil in 1..=layers {
            for k in 0..layers.div_ceil(mil) {
                let end = ((k + 1) * mil).min(layers);
                ending[fill[end]] = (mil, k);
                fill[end] += 1;
            }
        }

        let mut sums = IntervalSums {
            base,
            own: vec![0; slots],
            from_prev: vec![0; slots],
            head: vec![0; layers],
            refs_before: Vec::with_capacity(layers + 1),
            created_before: Vec::with_capacity(layers + 1),
        };
        sums.refs_before.push(0);
        sums.created_before.push(0);
        let mut by_key = Fenwick::new(layers);
        // Preallocated tensors seen so far, keyed by their last ref layer.
        let mut prealloc_by_last = Fenwick::new(layers);
        let mut last_seen = vec![usize::MAX; graph.num_tensors()];
        for x in 1..=layers {
            let layer = x - 1;
            let mut refs = sums.refs_before[layer];
            let mut created = sums.created_before[layer];
            for &t in schedule.long_tensors_in_layer(layer) {
                let tensor = graph.tensor(t);
                let prev = std::mem::replace(&mut last_seen[t.index()], layer);
                if prev != usize::MAX {
                    by_key.add(prev + 1, tensor.bytes);
                } else {
                    by_key.add(0, tensor.bytes);
                    if tensor.preallocated() {
                        let last = schedule.layers_of(t).last().copied().unwrap_or(layer);
                        prealloc_by_last.add(last, tensor.bytes);
                    } else {
                        created += tensor.bytes;
                    }
                }
                refs += tensor.bytes;
            }
            sums.refs_before.push(refs);
            sums.created_before.push(created);
            // Candidate `mil = x`: every preallocated tensor first used in
            // interval 0 has now been seen; the last interval starts at
            // `(n − 1)·mil` and keeps those it references resident.
            sums.head[x - 1] = prealloc_by_last.sum_below((layers.div_ceil(x) - 1) * x);
            for &(mil, k) in &ending[by_end[x]..by_end[x + 1]] {
                let (slot, start) = (sums.base[mil - 1] + k, k * mil);
                sums.own[slot] = by_key.sum_below(start + 1);
                if k > 0 {
                    sums.from_prev[slot] = by_key.sum_below(start - mil + 1);
                }
            }
        }
        sums
    }

    /// `Tensor(MIL)`: the largest sum, over intervals, of an interval's
    /// own working set plus the bytes being prefetched for the *next*
    /// (cyclically) interval during it.
    fn tensor_bytes(&self, plan: &IntervalPlan) -> u64 {
        let n = plan.num_intervals();
        let base = self.base[plan.mil - 1];
        let working_set = |k: usize| self.own[base + k] - self.refs_before[plan.start_layer(k)];
        let incoming = |k: usize| {
            if k == 0 {
                return self.head[plan.mil - 1];
            }
            let (start, end) = (plan.start_layer(k), plan.end_layer(k));
            self.from_prev[base + k]
                - self.own[base + k - 1]
                - (self.created_before[end] - self.created_before[start])
        };
        (0..n).map(|k| working_set(k) + incoming((k + 1) % n)).max().unwrap_or(0)
    }
}

/// A Fenwick (binary indexed) tree of byte sums over indices `0..=len`.
struct Fenwick(Vec<u64>);

impl Fenwick {
    fn new(len: usize) -> Self {
        Fenwick(vec![0; len + 2])
    }

    fn add(&mut self, index: usize, bytes: u64) {
        let mut i = index + 1;
        while i < self.0.len() {
            self.0[i] += bytes;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of the bytes at indices below `end`.
    fn sum_below(&self, end: usize) -> u64 {
        let (mut i, mut sum) = (end, 0);
        while i > 0 {
            sum += self.0[i];
            i &= i - 1;
        }
        sum
    }
}

/// The original per-interval range-query solver, preserved verbatim as the
/// semantic reference for [`solve_mil`]. For every candidate it issues
/// [`Schedule::long_tensors_in`] per interval (alloc + sort + dedup) and a
/// binary-searched membership probe per incoming tensor — O(L²·t̄·log t̄)
/// in total. Same signature, same errors, byte-identical output.
///
/// # Errors
///
/// [`SentinelError::ZeroMigrationBudget`] when `reserve_bytes >= fast_bytes`,
/// exactly as [`solve_mil`].
pub fn solve_mil_reference(
    graph: &Graph,
    schedule: &Schedule,
    profile: &ProfileReport,
    fast_bytes: u64,
    reserve_bytes: u64,
    promote_bw: f64,
) -> Result<MilSolution, SentinelError> {
    let num_layers = graph.num_layers().max(1);
    if reserve_bytes >= fast_bytes {
        return Err(SentinelError::ZeroMigrationBudget { fast_bytes, reserve_bytes });
    }
    let budget = fast_bytes - reserve_bytes;
    let migration_time = (budget as f64 / promote_bw.max(1e-9)) as i128;

    let mut candidates = Vec::with_capacity(num_layers);
    for mil in 1..=num_layers {
        let plan = IntervalPlan::new(mil, num_layers);
        // `Tensor(MIL)`: the fast-memory demand an interval puts on the
        // space constraint — its own long-lived working set (everything it
        // references must be fast-resident for full speed) plus the bytes
        // being prefetched for the *next* interval during its execution
        // (tensors that exist before the next interval starts and were not
        // already resident from this one).
        let n_int = plan.num_intervals();
        let working_set = |k: usize| -> u64 {
            schedule
                .long_tensors_in(plan.start_layer(k), plan.end_layer(k))
                .iter()
                .map(|&t| graph.tensor(t).bytes)
                .sum()
        };
        let incoming = |k: usize| -> u64 {
            let k = k % n_int;
            let start = plan.start_layer(k);
            let prev = (k + n_int - 1) % n_int;
            if prev == k {
                return 0;
            }
            let prev_set = schedule.long_tensors_in(plan.start_layer(prev), plan.end_layer(prev));
            schedule
                .long_tensors_in(start, plan.end_layer(k))
                .iter()
                .filter(|&&t| {
                    let tensor = graph.tensor(t);
                    tensor.preallocated()
                        || tensor.first_ref.map(|r| r.layer < start).unwrap_or(false)
                })
                .filter(|&&t| prev_set.binary_search(&t).is_err())
                .map(|&t| graph.tensor(t).bytes)
                .sum()
        };
        let tensor_bytes =
            (0..n_int).map(|k| working_set(k) + incoming(k + 1)).max().unwrap_or(0);
        let interval_time_ns: Ns = if profile.layer_times_ns.is_empty() {
            0
        } else {
            // Worst case for exposure is the *shortest* interval.
            (0..plan.num_intervals())
                .map(|k| profile.time_for_layers(plan.start_layer(k), plan.end_layer(k)))
                .min()
                .unwrap_or(0)
        };
        candidates.push(MilCandidate {
            mil,
            tensor_bytes,
            feasible: tensor_bytes < budget,
            interval_time_ns,
            objective_ns: migration_time - i128::from(interval_time_ns),
        });
    }

    // Largest feasible MIL minimizes the Eq. 2 objective; fall back to 1.
    let mil = candidates.iter().filter(|c| c.feasible).map(|c| c.mil).max().unwrap_or(1);
    Ok(MilSolution { mil, candidates })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_mem::HmConfig;
    use sentinel_models::{ModelSpec, ModelZoo};
    use sentinel_profiler::Profiler;

    #[test]
    fn plan_geometry() {
        let p = IntervalPlan::new(4, 10);
        assert_eq!(p.num_intervals(), 3);
        assert_eq!(p.start_layer(0), 0);
        assert_eq!(p.end_layer(0), 4);
        assert_eq!(p.end_layer(2), 10);
        assert_eq!(p.interval_of(7), 1);
        assert!(p.is_interval_start(8));
        assert!(!p.is_interval_start(9));
    }

    #[test]
    fn interval_of_clamps_out_of_range_layers() {
        let p = IntervalPlan::new(4, 10);
        // In-range layers are unaffected by the clamp.
        assert_eq!(p.interval_of(9), 2);
        // Layers at or past num_layers land in the last real interval.
        assert_eq!(p.interval_of(10), 2);
        assert_eq!(p.interval_of(11), 2);
        assert_eq!(p.interval_of(1000), 2);
        // Degenerate single-interval plan.
        let one = IntervalPlan::new(10, 10);
        assert_eq!(one.interval_of(10), 0);
        assert_eq!(one.interval_of(usize::MAX), 0);
    }

    #[test]
    fn plan_clamps_mil_to_layer_count() {
        let p = IntervalPlan::new(100, 10);
        assert_eq!(p.mil, 10);
        assert_eq!(p.num_intervals(), 1);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_mil_panics() {
        let _ = IntervalPlan::new(0, 10);
    }

    fn setup() -> (Graph, Schedule, ProfileReport) {
        let g = ModelZoo::build(&ModelSpec::resnet(32, 8).with_scale(4)).unwrap();
        let s = Schedule::new(&g);
        let p = Profiler::new(HmConfig::optane_like()).profile(&g).unwrap();
        (g, s, p)
    }

    #[test]
    fn smaller_fast_memory_gives_smaller_mil() {
        let (g, s, p) = setup();
        let peak = g.peak_live_bytes();
        let small = solve_mil(&g, &s, &p, peak / 10, 0, 5.0).unwrap();
        let large = solve_mil(&g, &s, &p, peak, 0, 5.0).unwrap();
        assert!(small.mil <= large.mil, "small {} vs large {}", small.mil, large.mil);
        assert!(small.mil >= 1);
    }

    #[test]
    fn tensor_bytes_grow_with_mil() {
        let (g, s, p) = setup();
        let sol = solve_mil(&g, &s, &p, g.peak_live_bytes(), 0, 5.0).unwrap();
        let first = sol.candidates.first().unwrap().tensor_bytes;
        let last = sol.candidates.last().unwrap().tensor_bytes;
        assert!(last >= first);
    }

    #[test]
    fn infeasible_everywhere_falls_back_to_one() {
        // A positive budget that no candidate fits is a legitimate plan:
        // fall back to mil = 1 rather than erroring.
        let (g, s, p) = setup();
        let sol = solve_mil(&g, &s, &p, 1, 0, 5.0).unwrap();
        assert_eq!(sol.mil, 1);
        assert!(sol.candidates.iter().all(|c| !c.feasible));
    }

    #[test]
    fn zero_budget_is_a_typed_error_on_both_sides_of_the_threshold() {
        let (g, s, p) = setup();
        let fast = g.peak_live_bytes() / 5;
        // reserve == fast and reserve > fast: budget is zero, typed error.
        for reserve in [fast, fast + 1] {
            match solve_mil(&g, &s, &p, fast, reserve, 5.0) {
                Err(SentinelError::ZeroMigrationBudget { fast_bytes, reserve_bytes }) => {
                    assert_eq!(fast_bytes, fast);
                    assert_eq!(reserve_bytes, reserve);
                }
                other => panic!("expected ZeroMigrationBudget, got {other:?}"),
            }
            assert!(matches!(
                solve_mil_reference(&g, &s, &p, fast, reserve, 5.0),
                Err(SentinelError::ZeroMigrationBudget { .. })
            ));
        }
        // One byte under the threshold solves (budget = 1 byte → mil = 1).
        let sol = solve_mil(&g, &s, &p, fast, fast - 1, 5.0).unwrap();
        assert_eq!(sol.mil, 1);
        // The degenerate no-memory case errors too (0 >= 0).
        assert!(matches!(
            solve_mil(&g, &s, &p, 0, 0, 5.0),
            Err(SentinelError::ZeroMigrationBudget { fast_bytes: 0, reserve_bytes: 0 })
        ));
    }

    #[test]
    fn reservation_tightens_the_constraint() {
        let (g, s, p) = setup();
        let fast = g.peak_live_bytes() / 5;
        let without = solve_mil(&g, &s, &p, fast, 0, 5.0).unwrap();
        let with = solve_mil(&g, &s, &p, fast, fast / 2, 5.0).unwrap();
        assert!(with.mil <= without.mil);
    }

    #[test]
    fn sweep_matches_reference_on_the_zoo_model() {
        let (g, s, p) = setup();
        let peak = g.peak_live_bytes();
        for (fast, reserve) in [(peak, 0), (peak / 5, 0), (peak / 5, peak / 20), (peak / 10, 0)] {
            let fast_sol = solve_mil(&g, &s, &p, fast, reserve, 5.0).unwrap();
            let ref_sol = solve_mil_reference(&g, &s, &p, fast, reserve, 5.0).unwrap();
            assert_eq!(fast_sol, ref_sol, "fast={fast} reserve={reserve}");
        }
    }
}

sentinel_util::impl_to_json!(IntervalPlan { mil, num_layers });
sentinel_util::impl_to_json!(MilCandidate { mil, tensor_bytes, feasible, interval_time_ns, objective_ns });
sentinel_util::impl_to_json!(MilSolution { mil, candidates });
