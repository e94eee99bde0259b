//! Training graphs: layers of operations over tensors, with static liveness.

use crate::error::GraphError;
use crate::op::{Op, Operand};
use crate::tensor::{OpRef, Tensor, TensorId, TensorKind};

/// A named group of operations — the paper's unit of tensor management.
///
/// One "layer" here is one segment delimited by the paper's `add_layer()`
/// API call: a training step is the full flat sequence of layers (forward
/// layers followed by backward layers and the weight update).
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Debug name, e.g. `"res3b/fwd"` or `"res3b/bwd"`.
    pub name: String,
    /// Operations executed in order within the layer.
    pub ops: Vec<Op>,
}

/// A complete training-step graph for one model at one batch size.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    name: String,
    batch: usize,
    tensors: Vec<Tensor>,
    layers: Vec<Layer>,
}

impl Graph {
    /// Model name, e.g. `"resnet32"`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Batch size the graph was built for.
    #[must_use]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// All layers in execution order.
    #[must_use]
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers (the paper's migration-interval unit).
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Tensor metadata by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn tensor(&self, id: TensorId) -> &Tensor {
        &self.tensors[id.index()]
    }

    /// All tensors.
    #[must_use]
    pub fn tensors(&self) -> &[Tensor] {
        &self.tensors
    }

    /// Number of tensors.
    #[must_use]
    pub fn num_tensors(&self) -> usize {
        self.tensors.len()
    }

    /// Tensors allocated before the training loop (weights, inputs, …).
    pub fn preallocated(&self) -> impl Iterator<Item = &Tensor> + '_ {
        self.tensors.iter().filter(|t| t.preallocated())
    }

    /// Sum of all preallocated tensor bytes.
    #[must_use]
    pub fn preallocated_bytes(&self) -> u64 {
        self.preallocated().map(|t| t.bytes).sum()
    }

    /// Bytes of tensors live during `layer` (preallocated included).
    #[must_use]
    pub fn live_bytes_in_layer(&self, layer: usize) -> u64 {
        self.tensors.iter().filter(|t| t.live_in_layer(layer)).map(|t| t.bytes).sum()
    }

    /// Peak memory consumption of one training step: the maximum over layers
    /// of the live-tensor byte total. This is the paper's "peak memory
    /// consumption" used to size fast memory (e.g. 20% of peak).
    #[must_use]
    pub fn peak_live_bytes(&self) -> u64 {
        let layers = self.layers.len().max(1);
        let spans = self.tensors.iter().filter_map(|t| {
            let (first, last) = if t.preallocated() { (0, layers - 1) } else { t.layer_span()? };
            Some((first, last, t.bytes))
        });
        peak_overlap(layers, spans)
    }

    /// Peak bytes of *short-lived* tensors live in any single layer — the
    /// size Sentinel must reserve in fast memory (Section IV-C).
    #[must_use]
    pub fn peak_short_lived_bytes(&self) -> u64 {
        let spans = self.short_lived().filter_map(|t| {
            let (first, last) = t.layer_span()?;
            Some((first, last, t.bytes))
        });
        peak_overlap(self.layers.len().max(1), spans)
    }

    /// Peak *concurrent* bytes of short-lived tensors, at op granularity:
    /// a short-lived tensor occupies memory from its first to its last
    /// referencing op, and the reused reservation (Section IV-C) only needs
    /// to hold the maximum overlap — much less than the per-layer sum,
    /// because temporaries inside a layer are allocated and freed in
    /// sequence.
    #[must_use]
    pub fn peak_short_lived_concurrent_bytes(&self) -> u64 {
        // Ops are numbered in execution order: layer `l`'s first op is
        // `op_base[l]`.
        let mut op_base = Vec::with_capacity(self.layers.len());
        let mut ops = 0;
        for layer in &self.layers {
            op_base.push(ops);
            ops += layer.ops.len();
        }
        let linear = |at: OpRef| op_base[at.layer] + at.op;
        let spans = self.short_lived().filter_map(|t| {
            Some((linear(t.first_ref?), linear(t.last_ref?), t.bytes))
        });
        peak_overlap(ops, spans)
    }

    fn short_lived(&self) -> impl Iterator<Item = &Tensor> + '_ {
        self.tensors.iter().filter(|t| t.is_short_lived())
    }

    /// Largest single long-lived (or preallocated) tensor, in bytes. Together
    /// with [`Graph::peak_short_lived_bytes`] this gives the paper's lower
    /// bound on usable fast-memory size (Section IV-E).
    #[must_use]
    pub fn largest_long_lived_bytes(&self) -> u64 {
        self.tensors.iter().filter(|t| !t.is_short_lived()).map(|t| t.bytes).max().unwrap_or(0)
    }

    /// Total FLOPs of one training step.
    #[must_use]
    pub fn total_flops(&self) -> u64 {
        self.layers.iter().flat_map(|l| &l.ops).map(|o| o.flops).sum()
    }

    /// Total bytes referenced by one training step (passes included).
    #[must_use]
    pub fn total_bytes_touched(&self) -> u64 {
        self.layers
            .iter()
            .flat_map(|l| &l.ops)
            .map(|o| o.bytes_touched(|t| self.tensor(t).bytes))
            .sum()
    }
}

/// Incremental builder for [`Graph`].
///
/// ```
/// use sentinel_dnn::{GraphBuilder, OpKind, TensorKind};
///
/// # fn main() -> Result<(), sentinel_dnn::GraphError> {
/// let mut b = GraphBuilder::new("tiny", 4);
/// let w = b.tensor("w", 4096, TensorKind::Weight);
/// let x = b.tensor("x", 8192, TensorKind::Input);
/// let y = b.tensor("y", 8192, TensorKind::Activation);
///
/// b.begin_layer("fc/fwd");
/// b.op("fc", OpKind::MatMul, 1_000_000).reads(&[w, x]).writes(&[y]).push();
///
/// let g = b.finish()?;
/// assert_eq!(g.num_layers(), 1);
/// assert_eq!(g.tensor(y).layer_span(), Some((0, 0)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GraphBuilder {
    name: String,
    batch: usize,
    tensors: Vec<Tensor>,
    layers: Vec<Layer>,
}

impl GraphBuilder {
    /// Start building a graph for `name` at batch size `batch`.
    #[must_use]
    pub fn new(name: impl Into<String>, batch: usize) -> Self {
        GraphBuilder { name: name.into(), batch, tensors: Vec::new(), layers: Vec::new() }
    }

    /// Declare a tensor; its live range is derived from op references at
    /// [`GraphBuilder::finish`] time.
    pub fn tensor(&mut self, name: impl Into<String>, bytes: u64, kind: TensorKind) -> TensorId {
        let id = TensorId(self.tensors.len() as u32);
        self.tensors.push(Tensor { id, name: name.into(), bytes, kind, first_ref: None, last_ref: None });
        id
    }

    /// Open a new layer; subsequent ops are appended to it.
    pub fn begin_layer(&mut self, name: impl Into<String>) -> usize {
        self.layers.push(Layer { name: name.into(), ops: Vec::new() });
        self.layers.len() - 1
    }

    /// Start describing an op in the current layer (see [`OpBuilder`]).
    ///
    /// # Panics
    ///
    /// Panics if no layer has been opened.
    pub fn op(&mut self, name: impl Into<String>, kind: crate::OpKind, flops: u64) -> OpBuilder<'_> {
        assert!(!self.layers.is_empty(), "begin_layer must be called before op");
        OpBuilder {
            builder: self,
            op: Op { name: name.into(), kind, flops, reads: Vec::new(), writes: Vec::new() },
        }
    }

    /// Validate and seal the graph, computing tensor live ranges.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] when the graph is malformed: empty, a
    /// zero-sized tensor, an op referencing an undeclared tensor, or a
    /// runtime tensor read before it is written.
    pub fn finish(mut self) -> Result<Graph, GraphError> {
        if self.layers.is_empty() || self.layers.iter().all(|l| l.ops.is_empty()) {
            return Err(GraphError::Empty);
        }
        for t in &self.tensors {
            if t.bytes == 0 {
                return Err(GraphError::ZeroSizedTensor { tensor: t.id, name: t.name.clone() });
            }
        }
        let n = self.tensors.len();
        let mut written = vec![false; n];
        for (li, layer) in self.layers.iter().enumerate() {
            for (oi, op) in layer.ops.iter().enumerate() {
                let here = OpRef { layer: li, op: oi };
                for operand in &op.reads {
                    let idx = operand.tensor.index();
                    if idx >= n {
                        return Err(GraphError::UnknownTensor { tensor: operand.tensor, op: op.name.clone() });
                    }
                    if !written[idx] && !self.tensors[idx].preallocated() {
                        return Err(GraphError::ReadBeforeWrite {
                            tensor: operand.tensor,
                            name: self.tensors[idx].name.clone(),
                            op: op.name.clone(),
                        });
                    }
                    touch(&mut self.tensors[idx], here);
                }
                for operand in &op.writes {
                    let idx = operand.tensor.index();
                    if idx >= n {
                        return Err(GraphError::UnknownTensor { tensor: operand.tensor, op: op.name.clone() });
                    }
                    written[idx] = true;
                    touch(&mut self.tensors[idx], here);
                }
            }
        }
        Ok(Graph { name: self.name, batch: self.batch, tensors: self.tensors, layers: self.layers })
    }
}

/// The most bytes occupied at any one of the positions `0..len`, given
/// each occupant's inclusive `(first, last, bytes)` span: one pass adding
/// each occupant where it starts and removing it after it ends.
fn peak_overlap(len: usize, spans: impl Iterator<Item = (usize, usize, u64)>) -> u64 {
    let mut starts = vec![0u64; len];
    let mut ends = vec![0u64; len];
    for (first, last, bytes) in spans {
        starts[first] += bytes;
        ends[last] += bytes;
    }
    let (mut live, mut peak) = (0, 0);
    for (start, end) in starts.iter().zip(&ends) {
        live += start;
        peak = peak.max(live);
        live -= end;
    }
    peak
}

fn touch(t: &mut Tensor, at: OpRef) {
    if t.first_ref.is_none() {
        t.first_ref = Some(at);
    }
    t.last_ref = Some(at);
}

/// Fluent construction of one [`Op`]; created by [`GraphBuilder::op`].
#[derive(Debug)]
pub struct OpBuilder<'a> {
    builder: &'a mut GraphBuilder,
    op: Op,
}

impl<'a> OpBuilder<'a> {
    /// Add single-pass read operands.
    #[must_use]
    pub fn reads(mut self, tensors: &[TensorId]) -> Self {
        self.op.reads.extend(tensors.iter().copied().map(Operand::once));
        self
    }

    /// Add a read operand traversed `passes` times.
    #[must_use]
    pub fn reads_n(mut self, tensor: TensorId, passes: u32) -> Self {
        self.op.reads.push(Operand::with_passes(tensor, passes));
        self
    }

    /// Add single-pass write operands.
    #[must_use]
    pub fn writes(mut self, tensors: &[TensorId]) -> Self {
        self.op.writes.extend(tensors.iter().copied().map(Operand::once));
        self
    }

    /// Append the op to the current layer.
    pub fn push(self) {
        let layer = self.builder.layers.last_mut().expect("op requires an open layer");
        layer.ops.push(self.op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpKind;

    fn two_layer_graph() -> Graph {
        let mut b = GraphBuilder::new("g", 2);
        let w = b.tensor("w", 100, TensorKind::Weight);
        let x = b.tensor("x", 200, TensorKind::Input);
        let act = b.tensor("act", 300, TensorKind::Activation);
        let tmp = b.tensor("tmp", 50, TensorKind::Temporary);
        let grad = b.tensor("grad", 100, TensorKind::WeightGrad);

        b.begin_layer("fwd");
        b.op("pad", OpKind::Pad, 10).reads(&[x]).writes(&[tmp]).push();
        b.op("conv", OpKind::Conv2d, 1000).reads(&[w, tmp]).writes(&[act]).push();

        b.begin_layer("bwd");
        b.op("dconv", OpKind::Conv2d, 2000).reads(&[w, act]).writes(&[grad]).push();
        b.op("update", OpKind::WeightUpdate, 100).reads(&[grad]).writes(&[w]).push();

        b.finish().unwrap()
    }

    #[test]
    fn liveness_is_derived_from_references() {
        let g = two_layer_graph();
        let tmp = &g.tensors()[3];
        assert!(tmp.is_short_lived());
        assert_eq!(tmp.layer_span(), Some((0, 0)));
        let act = &g.tensors()[2];
        assert!(!act.is_short_lived());
        assert_eq!(act.layer_span(), Some((0, 1)));
    }

    #[test]
    fn peak_memory_counts_live_tensors() {
        let g = two_layer_graph();
        // Layer 0: w(100) + x(200) + act(300) + tmp(50) + prealloc grad? no —
        // grad is runtime (WeightGrad is not preallocated), live only layer 1.
        assert_eq!(g.live_bytes_in_layer(0), 650);
        assert_eq!(g.live_bytes_in_layer(1), 100 + 200 + 300 + 100);
        assert_eq!(g.peak_live_bytes(), 700);
        // tmp (50) in layer 0; grad (100) is also short-lived — written and
        // consumed within the bwd layer — so the layer-1 peak wins.
        assert_eq!(g.peak_short_lived_bytes(), 100);
        // tmp and grad never overlap at op granularity either.
        assert_eq!(g.peak_short_lived_concurrent_bytes(), 100);
    }

    #[test]
    fn read_before_write_is_rejected() {
        let mut b = GraphBuilder::new("bad", 1);
        let a = b.tensor("a", 10, TensorKind::Activation);
        b.begin_layer("l");
        b.op("use", OpKind::Other, 1).reads(&[a]).push();
        assert!(matches!(b.finish(), Err(GraphError::ReadBeforeWrite { .. })));
    }

    #[test]
    fn empty_graph_is_rejected() {
        let b = GraphBuilder::new("empty", 1);
        assert!(matches!(b.finish(), Err(GraphError::Empty)));
        let mut b2 = GraphBuilder::new("no-ops", 1);
        b2.begin_layer("l");
        assert!(matches!(b2.finish(), Err(GraphError::Empty)));
    }

    #[test]
    fn zero_sized_tensor_is_rejected() {
        let mut b = GraphBuilder::new("zero", 1);
        let t = b.tensor("z", 0, TensorKind::Temporary);
        b.begin_layer("l");
        b.op("w", OpKind::Other, 1).writes(&[t]).push();
        assert!(matches!(b.finish(), Err(GraphError::ZeroSizedTensor { .. })));
    }

    #[test]
    fn totals() {
        let g = two_layer_graph();
        assert_eq!(g.total_flops(), 3110);
        assert!(g.total_bytes_touched() > 0);
        assert_eq!(g.preallocated_bytes(), 300); // w + x
        assert_eq!(g.largest_long_lived_bytes(), 300); // act
    }
}

sentinel_util::impl_to_json!(Layer { name, ops });
sentinel_util::impl_to_json!(Graph { name, batch, tensors, layers });
