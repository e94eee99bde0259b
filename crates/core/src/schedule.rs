//! The plan-time per-interval working-set table built over the graph's
//! [`Schedule`] (which lives in `sentinel-dnn`).

use crate::interval::IntervalPlan;
use sentinel_dnn::{Schedule, TensorId};
use sentinel_profiler::ProfileReport;

/// Flattened per-interval working-set table, computed once at plan time.
///
/// For every interval of an [`IntervalPlan`] this stores the distinct
/// long-lived tensors the interval references, twice: in ascending-id order
/// (the order [`Schedule::long_tensors_in`] returns, consumed by the
/// boundary demand check and the cluster arbiter's working-set query) and in
/// prefetch order (hottest-first when the policy migrates hot tensors first,
/// identical to the sorted order otherwise). Both live in one contiguous
/// arena per ordering, so every steady-state interval boundary reads a
/// precomputed slice instead of re-running the alloc + sort + dedup range
/// query — the policy's boundary path does no per-boundary allocation.
#[derive(Debug, Clone)]
pub struct IntervalSets {
    /// Shared CSR offsets: interval `k` spans `offsets[k]..offsets[k+1]` in
    /// both arenas.
    offsets: Vec<usize>,
    /// Ascending-id working sets.
    sorted: Vec<TensorId>,
    /// Prefetch-order working sets (hottest first when enabled).
    prefetch: Vec<TensorId>,
}

impl IntervalSets {
    /// Precompute the working set of every interval in `plan`. Passing a
    /// profile as `hot` orders the prefetch arena hottest-first by
    /// `mm_accesses` (a stable sort, so the ascending-id order breaks ties).
    #[must_use]
    pub fn build(schedule: &Schedule, plan: &IntervalPlan, hot: Option<&ProfileReport>) -> Self {
        let n = plan.num_intervals();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut sorted = Vec::new();
        offsets.push(0);
        for k in 0..n {
            let set = schedule.long_tensors_in(plan.start_layer(k), plan.end_layer(k));
            sorted.extend_from_slice(&set);
            offsets.push(sorted.len());
        }
        let mut prefetch = sorted.clone();
        if let Some(profile) = hot {
            for k in 0..n {
                prefetch[offsets[k]..offsets[k + 1]]
                    .sort_by_key(|&t| std::cmp::Reverse(profile.tensor(t).mm_accesses));
            }
        }
        IntervalSets { offsets, sorted, prefetch }
    }

    /// Number of intervals covered by the table.
    #[must_use]
    pub fn num_intervals(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Interval `k`'s working set, ascending by id.
    #[must_use]
    pub fn sorted(&self, k: usize) -> &[TensorId] {
        &self.sorted[self.offsets[k]..self.offsets[k + 1]]
    }

    /// Interval `k`'s working set in prefetch order.
    #[must_use]
    pub fn prefetch_order(&self, k: usize) -> &[TensorId] {
        &self.prefetch[self.offsets[k]..self.offsets[k + 1]]
    }
}
