//! Static access schedule derived from the graph: which layers reference
//! which tensors, and when a tensor is next used.

use crate::graph::Graph;
use crate::tensor::TensorId;

/// Per-tensor and per-layer reference index over one training step.
///
/// The one reference index of the workspace: Sentinel's interval solver and
/// policy (`sentinel-core` re-exports it) and the baseline policies of
/// `sentinel-baselines` all read it. A tensor's reference layers are the
/// layers with an op that reads or writes it, each listed once.
///
/// Training steps repeat identically (the paper's key exploitable property),
/// so [`Schedule::next_use_cyclic`] wraps: a weight last touched in the
/// backward pass is next used at its first forward reference of the
/// following step. [`Schedule::next_use`] stays within the step.
///
/// Both directions of the index are stored flattened in CSR form — one
/// contiguous value array plus an offsets array per axis — so the hot
/// queries ([`Schedule::layers_of`], [`Schedule::long_tensors_in_layer`])
/// are O(1) slice lookups with no per-call allocation, and the interval
/// solver sweeps every layer's long-lived list once for all candidates.
/// [`Schedule::new`] counts each list's length first and then fills the
/// arrays in place, so a build allocates only the arrays it returns.
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

/// Call `visit(t, layer)` once per distinct `(tensor, layer)` reference,
/// in layer order: one marker per tensor holds the last layer it was seen
/// in, so a tensor named again within a layer is skipped.
fn for_each_distinct_ref(graph: &Graph, mut visit: impl FnMut(TensorId, usize)) {
    let mut last_seen = vec![usize::MAX; graph.num_tensors()];
    for (layer, l) in graph.layers().iter().enumerate() {
        for t in l.ops.iter().flat_map(|op| op.referenced()) {
            if last_seen[t.index()] != layer {
                last_seen[t.index()] = layer;
                visit(t, layer);
            }
        }
    }
}

/// Turn per-slot counts (in `offsets[1..]`, `offsets[0] == 0`) into CSR
/// offsets.
fn prefix_sum(offsets: &mut [usize]) {
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
}

impl Schedule {
    /// Build the index for one graph.
    #[must_use]
    pub fn new(graph: &Graph) -> Self {
        let (n, num_layers) = (graph.num_tensors(), graph.num_layers());
        // Count each tensor's reference layers, then fill them in layer
        // order, so every tensor's list comes out sorted.
        let mut ref_offsets = vec![0; n + 1];
        for_each_distinct_ref(graph, |t, _| ref_offsets[t.index() + 1] += 1);
        prefix_sum(&mut ref_offsets);
        let mut ref_layers = vec![0; ref_offsets[n]];
        let mut next = ref_offsets[..n].to_vec();
        for_each_distinct_ref(graph, |t, layer| {
            ref_layers[next[t.index()]] = layer;
            next[t.index()] += 1;
        });
        // The per-layer long-lived lists transpose the long-lived tensors'
        // lists; filling them in ascending tensor id sorts each layer's list.
        let long_tensors: Vec<TensorId> = graph
            .tensors()
            .iter()
            .filter(|t| !t.is_short_lived() && ref_offsets[t.id.index()] < ref_offsets[t.id.index() + 1])
            .map(|t| t.id)
            .collect();
        let layers_of = |t: TensorId| &ref_layers[ref_offsets[t.index()]..ref_offsets[t.index() + 1]];
        let mut long_offsets = vec![0; num_layers + 1];
        for &t in &long_tensors {
            for &layer in layers_of(t) {
                long_offsets[layer + 1] += 1;
            }
        }
        prefix_sum(&mut long_offsets);
        let mut long_ids = vec![TensorId(0); long_offsets[num_layers]];
        let mut next = long_offsets[..num_layers].to_vec();
        for &t in &long_tensors {
            for &layer in layers_of(t) {
                long_ids[next[layer]] = t;
                next[layer] += 1;
            }
        }
        Schedule { ref_offsets, ref_layers, long_offsets, long_ids, long_tensors, num_layers }
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
    /// The range must not be inverted: callers pass interval boundaries,
    /// whose start never exceeds their end, and an inverted range would
    /// silently alias the empty set. `end` past the last layer is fine and
    /// clamps.
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

    /// The first layer at or after `layer` in which `t` is used within this
    /// step, or `None` if it is not used again before the step ends.
    #[must_use]
    pub fn next_use(&self, t: TensorId, layer: usize) -> Option<usize> {
        let list = self.layers_of(t);
        list.get(list.partition_point(|&l| l < layer)).copied()
    }

    /// The next layer (cyclically) at or after `layer` in which `t` is used.
    /// Values `>= num_layers` indicate "not until the next step": e.g.
    /// `num_layers + 3` means layer 3 of the following step. Returns `None`
    /// for tensors never referenced.
    #[must_use]
    pub fn next_use_cyclic(&self, t: TensorId, layer: usize) -> Option<usize> {
        let first = *self.layers_of(t).first()?;
        Some(self.next_use(t, layer).unwrap_or(first + self.num_layers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, OpKind, TensorKind};

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
    fn next_use_stays_within_the_step() {
        let g = graph();
        let s = Schedule::new(&g);
        assert_eq!(s.next_use(TensorId(0), 0), Some(0));
        assert_eq!(s.next_use(TensorId(0), 1), Some(2));
        assert_eq!(s.next_use(TensorId(0), 3), None);
        assert_eq!(s.next_use(TensorId(2), 1), None);
    }

    #[test]
    fn next_use_wraps_cyclically() {
        let g = graph();
        let s = Schedule::new(&g);
        assert_eq!(s.next_use_cyclic(TensorId(0), 0), Some(0));
        assert_eq!(s.next_use_cyclic(TensorId(0), 1), Some(2));
        // After layer 2, w is next used at layer 0 of the next step.
        assert_eq!(s.next_use_cyclic(TensorId(0), 3), Some(3));
        // tmp is used only in layer 0: layer 0 of the next step is layer 3.
        assert_eq!(s.next_use_cyclic(TensorId(2), 1), Some(3));
    }
}
