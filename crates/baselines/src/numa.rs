//! First-touch NUMA placement: the default Linux policy on the Optane box.
//!
//! DRAM and PMM are two NUMA nodes; pages land on the "local" (fast) node
//! until it fills, then spill to the far node. Nothing ever migrates.

use sentinel_dnn::MemoryManager;

/// The first-touch NUMA baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstTouchNuma;

impl FirstTouchNuma {
    /// A new first-touch policy.
    #[must_use]
    pub fn new() -> Self {
        FirstTouchNuma
    }
}

impl MemoryManager for FirstTouchNuma {
    fn name(&self) -> &str {
        "first-touch"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_dnn::Executor;
    use sentinel_mem::{HmConfig, MemorySystem};
    use sentinel_models::{ModelSpec, ModelZoo};

    #[test]
    fn spills_to_slow_when_fast_fills() {
        let g = ModelZoo::build(&ModelSpec::resnet(32, 8).with_scale(4)).unwrap();
        let cfg = HmConfig::optane_like()
            .without_cache()
            .with_fast_capacity(g.peak_live_bytes() / 5);
        let mut exec = Executor::new(&g, MemorySystem::new(cfg));
        let r = exec.run(&mut FirstTouchNuma::new(), 3).unwrap();
        let last = r.steps.last().unwrap();
        assert!(last.fast_accesses > 0);
        assert!(last.slow_accesses > 0);
        assert_eq!(last.migrated_bytes(), 0, "first-touch never migrates");
    }

    #[test]
    fn everything_fast_when_it_fits() {
        let g = ModelZoo::build(&ModelSpec::resnet(20, 2).with_scale(8)).unwrap();
        let cfg = HmConfig::optane_like().without_cache();
        let mut exec = Executor::new(&g, MemorySystem::new(cfg));
        let r = exec.run(&mut FirstTouchNuma::new(), 2).unwrap();
        assert_eq!(r.steps.last().unwrap().slow_accesses, 0);
    }
}
