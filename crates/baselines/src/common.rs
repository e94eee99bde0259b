//! Shared helpers for baseline policies.

use sentinel_dnn::{Graph, OpRef, Schedule, TensorId};

/// Static (graph-derived) statistics baselines plan with. Unlike Sentinel's
/// dynamic profile, these are *reference* counts — they ignore the cache
/// hierarchy, which is precisely the inaccuracy the paper attributes to
/// static-profiling systems. Which layers reference a tensor, and when it is
/// next used, come from the graph's [`Schedule`], the index Sentinel plans
/// with too.
#[derive(Debug, Clone)]
pub struct StaticProfile {
    /// tensor → number of op references (passes included).
    pub ref_counts: Vec<u64>,
    /// tensor → producing op (first writer), for recomputation costing.
    pub producer: Vec<Option<OpRef>>,
}

impl StaticProfile {
    /// Build from a graph.
    #[must_use]
    pub fn new(graph: &Graph) -> Self {
        let n = graph.num_tensors();
        let mut ref_counts = vec![0u64; n];
        let mut producer: Vec<Option<OpRef>> = vec![None; n];
        for (li, layer) in graph.layers().iter().enumerate() {
            for (oi, op) in layer.ops.iter().enumerate() {
                for o in op.reads.iter().chain(op.writes.iter()) {
                    ref_counts[o.tensor.index()] += u64::from(o.passes);
                }
                for o in &op.writes {
                    if producer[o.tensor.index()].is_none() {
                        producer[o.tensor.index()] = Some(OpRef { layer: li, op: oi });
                    }
                }
            }
        }
        StaticProfile { ref_counts, producer }
    }

    /// FLOPs of the op that produces `t` (for recomputation cost), 0 if none.
    #[must_use]
    pub fn producer_flops(&self, graph: &Graph, t: TensorId) -> u64 {
        self.producer[t.index()]
            .map(|at| graph.layers()[at.layer].ops[at.op].flops)
            .unwrap_or(0)
    }
}

/// Synchronously fault `t` into fast memory, evicting fast-resident tensors
/// with the farthest next use within the step (per `schedule`) until it
/// fits. Returns `false` if residency
/// could not be established (the access is then served from slow memory).
///
/// This is the demand-paging fallback every GPU-side baseline needs: a
/// tensor its plan did not cover must still reach device memory before the
/// kernel can run, and the copy is synchronous.
pub fn ensure_resident_sync(
    ctx: &mut sentinel_dnn::ExecCtx<'_>,
    t: TensorId,
    schedule: &Schedule,
    current_layer: usize,
) -> bool {
    use sentinel_mem::{pages_for_bytes, Tier};
    if !ctx.is_live(t) {
        return false;
    }
    let needed = pages_for_bytes(ctx.tensor_bytes_in(t, Tier::Slow), ctx.mem().page_size());
    if needed == 0 {
        return true;
    }
    let free = ctx.mem().free_pages(Tier::Fast);
    if free < needed {
        ctx.demote_farthest_first(needed - free, |v| {
            (v.id != t).then(|| schedule.next_use(v.id, current_layer).unwrap_or(usize::MAX))
        });
    }
    match ctx.migrate_tensor_urgent(t, Tier::Fast) {
        Ok(Some(ready)) => {
            ctx.stall_until(ready);
            true
        }
        Ok(None) => true,
        Err(_) => false,
    }
}

/// Inputs of convolution ops that are *activations* — the tensors vDNN
/// offloads.
#[must_use]
pub fn conv_input_activations(graph: &Graph) -> Vec<TensorId> {
    let mut out = Vec::new();
    for layer in graph.layers() {
        for op in &layer.ops {
            if !op.kind.is_conv() {
                continue;
            }
            for o in &op.reads {
                let t = graph.tensor(o.tensor);
                if !t.preallocated() && !t.is_short_lived() && !out.contains(&o.tensor) {
                    out.push(o.tensor);
                }
            }
        }
    }
    out
}

/// Whether the graph contains any convolution at all (vDNN's applicability).
#[must_use]
pub fn has_conv(graph: &Graph) -> bool {
    graph.layers().iter().flat_map(|l| &l.ops).any(|o| o.kind.is_conv())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_models::{ModelSpec, ModelZoo};

    #[test]
    fn static_profile_counts_references() {
        let g = ModelZoo::build(&ModelSpec::resnet(20, 2).with_scale(8)).unwrap();
        let p = StaticProfile::new(&g);
        assert!(p.ref_counts.iter().sum::<u64>() > 0);
        // Every runtime tensor has a producer.
        for t in g.tensors().iter().filter(|t| !t.preallocated()) {
            assert!(p.producer[t.id.index()].is_some(), "{}", t.name);
        }
    }

    #[test]
    fn conv_inputs_found_for_cnns_only() {
        let cnn = ModelZoo::build(&ModelSpec::resnet(20, 2).with_scale(8)).unwrap();
        assert!(has_conv(&cnn));
        assert!(!conv_input_activations(&cnn).is_empty());

        let rnn = ModelZoo::build(&ModelSpec::lstm(2).with_scale(8)).unwrap();
        assert!(!has_conv(&rnn));
        assert!(conv_input_activations(&rnn).is_empty());
    }

    #[test]
    fn next_and_last_use() {
        let g = ModelZoo::build(&ModelSpec::resnet(20, 2).with_scale(8)).unwrap();
        let s = Schedule::new(&g);
        let act = g.tensors().iter().find(|t| t.name == "s0b0/a1").unwrap();
        let layers = s.layers_of(act.id);
        let (first, last) = (layers[0], *layers.last().unwrap());
        assert_eq!(s.next_use(act.id, 0), Some(first));
        assert!(last > first);
        assert_eq!(s.next_use(act.id, last + 1), None);
    }
}
