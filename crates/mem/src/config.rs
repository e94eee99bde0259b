//! Platform configuration: tier specifications and HM presets (paper Table II).

use crate::cache::CacheFilterSpec;
use crate::page::PAGE_SIZE_DEFAULT;
use crate::Ns;

/// Performance and capacity specification of one memory tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierSpec {
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Read latency per access in nanoseconds.
    pub read_latency_ns: Ns,
    /// Write latency per access in nanoseconds.
    pub write_latency_ns: Ns,
    /// Sustained read bandwidth in bytes per nanosecond (== GB/s).
    pub read_bw_bytes_per_ns: f64,
    /// Sustained write bandwidth in bytes per nanosecond (== GB/s).
    pub write_bw_bytes_per_ns: f64,
}

impl TierSpec {
    /// Time to move `bytes` for the given access kind, including latency.
    #[must_use]
    pub fn access_time_ns(&self, bytes: u64, write: bool) -> Ns {
        let (lat, bw) = if write {
            (self.write_latency_ns, self.write_bw_bytes_per_ns)
        } else {
            (self.read_latency_ns, self.read_bw_bytes_per_ns)
        };
        lat + (bytes as f64 / bw).ceil() as Ns
    }

    /// Capacity expressed in whole pages of `page_size` bytes.
    #[must_use]
    pub fn capacity_pages(&self, page_size: u64) -> u64 {
        self.capacity_bytes / page_size
    }
}

/// Full heterogeneous-memory platform configuration.
///
/// The presets correspond to the two platforms of the paper's Table II:
/// [`HmConfig::optane_like`] models DDR4 + Optane DC PMM in App-direct mode,
/// and [`HmConfig::gpu_like`] models V100 HBM2 + host DRAM over PCIe 3.0.
#[derive(Debug, Clone, PartialEq)]
pub struct HmConfig {
    /// Human-readable platform name.
    pub name: String,
    /// The fast tier (DRAM / HBM).
    pub fast: TierSpec,
    /// The slow tier (Optane / host DRAM).
    pub slow: TierSpec,
    /// Page size in bytes.
    pub page_size: u64,
    /// Migration bandwidth slow→fast in bytes per nanosecond (GB/s).
    pub promote_bw_bytes_per_ns: f64,
    /// Migration bandwidth fast→slow in bytes per nanosecond (GB/s).
    pub demote_bw_bytes_per_ns: f64,
    /// Fixed per-migration-batch software overhead (`move_pages()` syscall cost).
    pub migration_setup_ns: Ns,
    /// Cost of one simulated protection fault during profiling
    /// (fault + PTE poison + TLB flush).
    pub fault_overhead_ns: Ns,
    /// Whether compute can read/write the slow tier in place. True for the
    /// Optane platform (CPU loads reach PMM); false for the GPU platform,
    /// where kernels cannot stream from host memory at useful speed and
    /// every tensor must be migrated in before use.
    pub slow_directly_accessible: bool,
    /// Processor cache filter in front of main memory, if modelled.
    pub cache: Option<CacheFilterSpec>,
    /// Compute throughput in FLOPs per nanosecond (== GFLOP/s ×1e-0; 1.0 == 1 GFLOP/ms).
    pub compute_flops_per_ns: f64,
}

impl HmConfig {
    /// DDR4 (fast) + Optane DC PMM (slow) on CPU, App-direct mode.
    ///
    /// Numbers follow published Optane characterization: DRAM ~75/50 GB/s
    /// read/write, Optane ~30/10 GB/s, `move_pages()` achieving roughly
    /// 5 GB/s per migration thread. Capacities mirror the paper's testbed
    /// (192 GB DRAM, 1.5 TB PMM) but are rarely the binding constraint —
    /// experiments cap the *usable* fast size at a fraction of model peak.
    #[must_use]
    pub fn optane_like() -> Self {
        HmConfig {
            name: "optane-hm".to_owned(),
            fast: TierSpec {
                capacity_bytes: 192 << 30,
                read_latency_ns: 80,
                write_latency_ns: 80,
                read_bw_bytes_per_ns: 75.0,
                write_bw_bytes_per_ns: 50.0,
            },
            slow: TierSpec {
                capacity_bytes: 1536 << 30,
                read_latency_ns: 300,
                write_latency_ns: 100,
                read_bw_bytes_per_ns: 30.0,
                write_bw_bytes_per_ns: 10.0,
            },
            page_size: PAGE_SIZE_DEFAULT,
            promote_bw_bytes_per_ns: 12.0,
            demote_bw_bytes_per_ns: 12.0,
            migration_setup_ns: 2_000,
            fault_overhead_ns: 2_500,
            slow_directly_accessible: true,
            cache: Some(CacheFilterSpec::cpu_l3()),
            // Effective TensorFlow-on-CPU training throughput (not peak FP32):
            // keeps compute phases long enough that migration can hide under
            // them, as on the paper's testbed where steps take seconds.
            compute_flops_per_ns: 400.0,
        }
    }

    /// V100 HBM2 (fast) + host DRAM over PCIe 3.0 ×16 (slow).
    #[must_use]
    pub fn gpu_like() -> Self {
        HmConfig {
            name: "gpu-hm".to_owned(),
            fast: TierSpec {
                capacity_bytes: 16 << 30,
                read_latency_ns: 40,
                write_latency_ns: 40,
                read_bw_bytes_per_ns: 800.0,
                write_bw_bytes_per_ns: 800.0,
            },
            slow: TierSpec {
                // Host DRAM reached from the GPU over PCIe with fine-grained
                // accesses: transaction-bound, far below bulk-DMA bandwidth
                // (which is what the migration channels model). This is why
                // the paper's GPU variant must always wait for migration in
                // Case 3 — "accessing CPU memory is too slow".
                capacity_bytes: 384 << 30,
                read_latency_ns: 5_000,
                write_latency_ns: 5_000,
                read_bw_bytes_per_ns: 3.0,
                write_bw_bytes_per_ns: 3.0,
            },
            page_size: PAGE_SIZE_DEFAULT,
            promote_bw_bytes_per_ns: 12.0,
            demote_bw_bytes_per_ns: 12.0,
            migration_setup_ns: 5_000,
            fault_overhead_ns: 10_000, // GPU fault + host round-trip
            slow_directly_accessible: false,
            cache: Some(CacheFilterSpec::gpu_l2()),
            compute_flops_per_ns: 14_000.0, // ~14 TFLOP/s FP32
        }
    }

    /// A tiny configuration for unit tests: 16-page fast tier, 1024-page slow
    /// tier, no cache filter, page size 4 KiB.
    #[must_use]
    pub fn testing() -> Self {
        HmConfig {
            name: "testing".to_owned(),
            fast: TierSpec {
                capacity_bytes: 16 * PAGE_SIZE_DEFAULT,
                read_latency_ns: 10,
                write_latency_ns: 10,
                read_bw_bytes_per_ns: 10.0,
                write_bw_bytes_per_ns: 10.0,
            },
            slow: TierSpec {
                capacity_bytes: 1024 * PAGE_SIZE_DEFAULT,
                read_latency_ns: 100,
                write_latency_ns: 100,
                read_bw_bytes_per_ns: 1.0,
                write_bw_bytes_per_ns: 1.0,
            },
            page_size: PAGE_SIZE_DEFAULT,
            promote_bw_bytes_per_ns: 1.0,
            demote_bw_bytes_per_ns: 1.0,
            migration_setup_ns: 100,
            fault_overhead_ns: 50,
            slow_directly_accessible: true,
            cache: None,
            compute_flops_per_ns: 1.0,
        }
    }

    /// Override the fast-tier capacity, in bytes.
    #[must_use]
    pub fn with_fast_capacity(mut self, bytes: u64) -> Self {
        self.fast.capacity_bytes = bytes;
        self
    }

    /// Override the slow-tier capacity, in bytes.
    #[must_use]
    pub fn with_slow_capacity(mut self, bytes: u64) -> Self {
        self.slow.capacity_bytes = bytes;
        self
    }

    /// Disable the processor cache filter (all accesses hit main memory).
    #[must_use]
    pub fn without_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Tier spec lookup by tier.
    #[must_use]
    pub fn tier(&self, tier: crate::Tier) -> &TierSpec {
        match tier {
            crate::Tier::Fast => &self.fast,
            crate::Tier::Slow => &self.slow,
        }
    }

    /// Fast-tier capacity in pages.
    #[must_use]
    pub fn fast_pages(&self) -> u64 {
        self.fast.capacity_pages(self.page_size)
    }

    /// Slow-tier capacity in pages.
    #[must_use]
    pub fn slow_pages(&self) -> u64 {
        self.slow.capacity_pages(self.page_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tier;

    #[test]
    fn access_time_scales_with_bytes() {
        let spec = HmConfig::testing().slow;
        let t1 = spec.access_time_ns(4096, false);
        let t2 = spec.access_time_ns(8192, false);
        assert!(t2 > t1);
        assert_eq!(t1, 100 + 4096);
    }

    #[test]
    fn writes_use_write_path() {
        let spec = HmConfig::optane_like().slow;
        // Optane writes are slower per byte than reads.
        assert!(spec.access_time_ns(1 << 20, true) > spec.access_time_ns(1 << 20, false));
    }

    #[test]
    fn presets_are_sane() {
        for cfg in [HmConfig::optane_like(), HmConfig::gpu_like(), HmConfig::testing()] {
            assert!(cfg.fast.capacity_bytes < cfg.slow.capacity_bytes);
            assert!(cfg.fast.read_bw_bytes_per_ns > cfg.slow.read_bw_bytes_per_ns);
            assert!(cfg.page_size > 0);
            assert!(cfg.fast_pages() > 0);
        }
    }

    #[test]
    fn tier_lookup_matches_fields() {
        let cfg = HmConfig::testing();
        assert_eq!(cfg.tier(Tier::Fast), &cfg.fast);
        assert_eq!(cfg.tier(Tier::Slow), &cfg.slow);
    }

    #[test]
    fn builders_override_fields() {
        let cfg = HmConfig::testing().with_fast_capacity(1 << 20).with_slow_capacity(1 << 22).without_cache();
        assert_eq!(cfg.fast.capacity_bytes, 1 << 20);
        assert_eq!(cfg.slow.capacity_bytes, 1 << 22);
        assert!(cfg.cache.is_none());
    }
}

sentinel_util::impl_to_json!(TierSpec {
    capacity_bytes,
    read_latency_ns,
    write_latency_ns,
    read_bw_bytes_per_ns,
    write_bw_bytes_per_ns,
});

sentinel_util::impl_to_json!(HmConfig {
    name,
    fast,
    slow,
    page_size,
    promote_bw_bytes_per_ns,
    demote_bw_bytes_per_ns,
    migration_setup_ns,
    fault_overhead_ns,
    slow_directly_accessible,
    cache,
    compute_flops_per_ns,
});
