//! Static access schedule derived from the graph: which layers reference
//! which tensors, and when a tensor is next used.

use crate::interval::IntervalPlan;
use sentinel_dnn::{Graph, TensorId};
use sentinel_profiler::ProfileReport;

/// Per-tensor and per-layer reference index over one training step.
///
/// Training steps repeat identically (the paper's key exploitable property),
/// so "next use" is cyclic: a weight last touched in the backward pass is
/// next used at its first forward reference of the following step.
///
/// Both directions of the index are stored flattened in CSR form — one
/// contiguous value array plus an offsets array per axis — so the hot
/// queries ([`Schedule::layers_of`], [`Schedule::long_tensors_in_layer`])
/// are O(1) slice lookups with no per-call allocation, and the interval
/// solver sweeps every layer's long-lived list once for all candidates.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// CSR offsets into `ref_layers`: tensor `t`'s sorted distinct
    /// referencing layers are `ref_layers[ref_offsets[t]..ref_offsets[t+1]]`.
    ref_offsets: Vec<usize>,
    ref_layers: Vec<usize>,
    /// CSR offsets into `long_ids`: layer `l`'s sorted distinct long-lived
    /// (incl. preallocated) tensors are `long_ids[long_offsets[l]..long_offsets[l+1]]`.
    long_offsets: Vec<usize>,
    long_ids: Vec<TensorId>,
    /// Every long-lived tensor referenced anywhere in the step, ascending.
    long_tensors: Vec<TensorId>,
    num_layers: usize,
}

impl Schedule {
    /// Build the index for one graph.
    #[must_use]
    pub fn new(graph: &Graph) -> Self {
        let n = graph.num_tensors();
        let mut refs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut long_by_layer: Vec<Vec<TensorId>> = vec![Vec::new(); graph.num_layers()];
        for (li, layer) in graph.layers().iter().enumerate() {
            for op in &layer.ops {
                for t in op.referenced() {
                    let list = &mut refs[t.index()];
                    if list.last() != Some(&li) {
                        list.push(li);
                    }
                    if !graph.tensor(t).is_short_lived() {
                        let ll = &mut long_by_layer[li];
                        if ll.last() != Some(&t) {
                            ll.push(t);
                        }
                    }
                }
            }
        }
        for ll in &mut long_by_layer {
            ll.sort_unstable();
            ll.dedup();
        }
        // Flatten both axes into CSR.
        let mut ref_offsets = Vec::with_capacity(n + 1);
        let mut ref_layers = Vec::with_capacity(refs.iter().map(Vec::len).sum());
        ref_offsets.push(0);
        for list in &refs {
            ref_layers.extend_from_slice(list);
            ref_offsets.push(ref_layers.len());
        }
        let mut long_offsets = Vec::with_capacity(long_by_layer.len() + 1);
        let mut long_ids = Vec::with_capacity(long_by_layer.iter().map(Vec::len).sum());
        long_offsets.push(0);
        for ll in &long_by_layer {
            long_ids.extend_from_slice(ll);
            long_offsets.push(long_ids.len());
        }
        let mut long_tensors: Vec<TensorId> = long_ids.clone();
        long_tensors.sort_unstable();
        long_tensors.dedup();
        Schedule {
            ref_offsets,
            ref_layers,
            long_offsets,
            long_ids,
            long_tensors,
            num_layers: graph.num_layers(),
        }
    }

    /// Number of layers in the step.
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Sorted layers referencing `t` within one step.
    #[must_use]
    pub fn layers_of(&self, t: TensorId) -> &[usize] {
        &self.ref_layers[self.ref_offsets[t.index()]..self.ref_offsets[t.index() + 1]]
    }

    /// Long-lived tensors referenced in `layer`, ascending by id.
    #[must_use]
    pub fn long_tensors_in_layer(&self, layer: usize) -> &[TensorId] {
        &self.long_ids[self.long_offsets[layer]..self.long_offsets[layer + 1]]
    }

    /// Every long-lived tensor referenced anywhere in the step, ascending.
    #[must_use]
    pub fn long_tensor_ids(&self) -> &[TensorId] {
        &self.long_tensors
    }

    /// Distinct long-lived tensors referenced in the half-open layer range
    /// `[start, end)`, ascending by id.
    ///
    /// The range must not be inverted: callers pass interval boundaries
    /// ([`IntervalPlan::start_layer`] `<=` [`IntervalPlan::end_layer`] by
    /// construction), and an inverted range would silently alias the empty
    /// set. `end` past the last layer is fine and clamps.
    #[must_use]
    pub fn long_tensors_in(&self, start: usize, end: usize) -> Vec<TensorId> {
        debug_assert!(start <= end, "inverted layer range {start}..{end}");
        let end = end.min(self.num_layers);
        let start = start.min(end);
        let mut out: Vec<TensorId> =
            self.long_ids[self.long_offsets[start]..self.long_offsets[end]].to_vec();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The next layer (cyclically) at or after `layer` in which `t` is used.
    /// Values `>= num_layers` indicate "not until the next step": e.g.
    /// `num_layers + 3` means layer 3 of the following step. Returns `None`
    /// for tensors never referenced.
    #[must_use]
    pub fn next_use_cyclic(&self, t: TensorId, layer: usize) -> Option<usize> {
        let list = self.layers_of(t);
        if list.is_empty() {
            return None;
        }
        match list.iter().find(|&&l| l >= layer) {
            Some(&l) => Some(l),
            None => Some(list[0] + self.num_layers),
        }
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_dnn::{GraphBuilder, OpKind, TensorKind};

    fn graph() -> Graph {
        let mut b = GraphBuilder::new("g", 1);
        let w = b.tensor("w", 4096, TensorKind::Weight);
        let act = b.tensor("act", 4096, TensorKind::Activation);
        let tmp = b.tensor("tmp", 64, TensorKind::Temporary);
        b.begin_layer("l0");
        b.op("f", OpKind::Other, 1).reads(&[w]).writes(&[act, tmp]).push();
        b.op("g", OpKind::Other, 1).reads(&[tmp]).writes(&[act]).push();
        b.begin_layer("l1");
        b.op("h", OpKind::Other, 1).reads(&[act]).writes(&[act]).push();
        b.begin_layer("l2");
        b.op("i", OpKind::Other, 1).reads(&[act, w]).writes(&[w]).push();
        b.finish().unwrap()
    }

    #[test]
    fn refs_are_sorted_and_deduped() {
        let g = graph();
        let s = Schedule::new(&g);
        assert_eq!(s.layers_of(TensorId(0)), &[0, 2]); // w
        assert_eq!(s.layers_of(TensorId(1)), &[0, 1, 2]); // act
        assert_eq!(s.layers_of(TensorId(2)), &[0]); // tmp
    }

    #[test]
    fn long_by_layer_excludes_short_lived() {
        let g = graph();
        let s = Schedule::new(&g);
        assert_eq!(s.long_tensors_in_layer(0), &[TensorId(0), TensorId(1)]);
        assert_eq!(s.long_tensors_in(0, 3), vec![TensorId(0), TensorId(1)]);
        assert_eq!(s.long_tensors_in(1, 2), vec![TensorId(1)]);
    }

    #[test]
    fn long_tensor_ids_union_all_layers() {
        let g = graph();
        let s = Schedule::new(&g);
        assert_eq!(s.long_tensor_ids(), &[TensorId(0), TensorId(1)]);
    }

    #[test]
    fn long_tensors_in_clamps_past_the_last_layer() {
        let g = graph();
        let s = Schedule::new(&g);
        assert_eq!(s.long_tensors_in(0, 100), vec![TensorId(0), TensorId(1)]);
        assert_eq!(s.long_tensors_in(3, 3), Vec::<TensorId>::new());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "inverted layer range")]
    fn inverted_range_is_a_contract_violation() {
        let g = graph();
        let s = Schedule::new(&g);
        let _ = s.long_tensors_in(2, 1);
    }

    #[test]
    fn next_use_wraps_cyclically() {
        let g = graph();
        let s = Schedule::new(&g);
        assert_eq!(s.next_use_cyclic(TensorId(0), 0), Some(0));
        assert_eq!(s.next_use_cyclic(TensorId(0), 1), Some(2));
        // After layer 2, w is next used at layer 0 of the next step.
        assert_eq!(s.next_use_cyclic(TensorId(0), 3), Some(3));
        assert_eq!(s.next_use_cyclic(TensorId(2), 1), Some(0 + 3));
    }
}
