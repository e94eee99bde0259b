//! vDNN ([6]): domain-knowledge offload of convolution-layer inputs.
//!
//! vDNN only manages the input tensors of convolution layers: after a
//! forward conv consumes its input, the input is offloaded to host memory;
//! it is prefetched back one layer before its backward use. The paper's
//! criticisms, both reproduced here: (a) it cannot handle models without
//! convolutions (LSTM, BERT), and (b) it ignores per-layer time differences,
//! so prefetches are frequently late and the copy is exposed.

use crate::common::{conv_input_activations, ensure_resident_sync, has_conv};
use sentinel_dnn::{ExecCtx, Graph, MemoryManager, Schedule, TensorId};
use sentinel_mem::{AccessKind, Tier};

/// The vDNN baseline policy.
#[derive(Debug)]
pub struct Vdnn {
    offload: Vec<bool>,
    schedule: Option<Schedule>,
    current_layer: usize,
}

impl Vdnn {
    /// Build vDNN for `graph`; returns `None` for models without
    /// convolutions (the paper: "vDNN cannot work for LSTM and BERT").
    #[must_use]
    pub fn for_graph(graph: &Graph) -> Option<Self> {
        if !has_conv(graph) {
            return None;
        }
        let mut offload = vec![false; graph.num_tensors()];
        for t in conv_input_activations(graph) {
            offload[t.index()] = true;
        }
        Some(Vdnn { offload, schedule: None, current_layer: 0 })
    }
}

impl MemoryManager for Vdnn {
    fn name(&self) -> &str {
        "vdnn"
    }

    fn on_train_begin(&mut self, ctx: &mut ExecCtx<'_>) {
        self.schedule = Some(Schedule::new(ctx.graph()));
    }

    fn before_layer(&mut self, layer: usize, ctx: &mut ExecCtx<'_>) {
        self.current_layer = layer;
        // Prefetch offloaded inputs used in the *next* layer (fixed one-layer
        // lookahead, no performance model).
        let Some(schedule) = self.schedule.as_ref() else { return };
        let candidates: Vec<TensorId> = (0..self.offload.len())
            .filter(|&i| self.offload[i])
            .map(|i| TensorId(i as u32))
            .filter(|&t| ctx.is_live(t) && ctx.tensor_bytes_in(t, Tier::Slow) > 0)
            .filter(|&t| schedule.next_use(t, layer) == Some(layer + 1))
            .collect();
        for t in candidates {
            let _ = ctx.migrate_tensor(t, Tier::Fast); // asynchronous
        }
    }

    fn after_layer(&mut self, layer: usize, ctx: &mut ExecCtx<'_>) {
        // Offload conv inputs no longer needed by the next layer.
        let Some(schedule) = self.schedule.as_ref() else { return };
        let victims: Vec<TensorId> = (0..self.offload.len())
            .filter(|&i| self.offload[i])
            .map(|i| TensorId(i as u32))
            .filter(|&t| ctx.is_live(t) && ctx.tensor_bytes_in(t, Tier::Fast) > 0)
            .filter(|&t| match schedule.next_use(t, layer + 1) {
                None => true,
                Some(n) => n > layer + 3,
            })
            .collect();
        for t in victims {
            let _ = ctx.migrate_tensor(t, Tier::Slow);
        }
    }

    fn before_access(&mut self, tensor: TensorId, _kind: AccessKind, ctx: &mut ExecCtx<'_>) {
        // A late prefetch (or a miss) is paid synchronously; tensors vDNN's
        // plan does not cover are demand-faulted in like any GPU access.
        if ctx.is_live(tensor) && ctx.tensor_bytes_in(tensor, Tier::Slow) > 0 {
            if self.offload[tensor.index()] {
                if let Some(pages) = ctx.placement(tensor).map(|a| a.pages) {
                    if let Some(ready) = ctx.mem().range_ready_at(pages) {
                        ctx.stall_until(ready);
                    }
                }
            }
            if let Some(schedule) = self.schedule.as_ref() {
                ensure_resident_sync(ctx, tensor, schedule, self.current_layer);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_dnn::{Executor, SingleTier};
    use sentinel_mem::{HmConfig, MemorySystem};
    use sentinel_models::{ModelSpec, ModelZoo};

    #[test]
    fn vdnn_rejects_models_without_conv() {
        let lstm = ModelZoo::build(&ModelSpec::lstm(2).with_scale(8)).unwrap();
        assert!(Vdnn::for_graph(&lstm).is_none());
        let bert = ModelZoo::build(&ModelSpec::bert_base(2).with_scale(8)).unwrap();
        assert!(Vdnn::for_graph(&bert).is_none());
    }

    #[test]
    fn vdnn_offloads_and_restores_conv_inputs() {
        let g = ModelZoo::build(&ModelSpec::resnet(32, 8).with_scale(4)).unwrap();
        let cfg = HmConfig::gpu_like().without_cache().with_fast_capacity(g.peak_live_bytes() / 3);
        let mut exec = Executor::new(&g, MemorySystem::new(cfg));
        let mut p = Vdnn::for_graph(&g).unwrap();
        let r = exec.run(&mut p, 3).unwrap();
        assert!(r.steps.last().unwrap().demoted_bytes > 0);
        assert!(r.steps.last().unwrap().promoted_bytes > 0);
    }

    #[test]
    fn vdnn_beats_slow_only() {
        let g = ModelZoo::build(&ModelSpec::resnet(32, 8).with_scale(4)).unwrap();
        let cfg = HmConfig::gpu_like().without_cache().with_fast_capacity(g.peak_live_bytes() / 3);
        let v = Executor::new(&g, MemorySystem::new(cfg.clone()))
            .run(&mut Vdnn::for_graph(&g).unwrap(), 3)
            .unwrap();
        let slow =
            Executor::new(&g, MemorySystem::new(cfg)).run(&mut SingleTier::slow(), 3).unwrap();
        assert!(v.steady_step_ns() < slow.steady_step_ns());
    }
}
