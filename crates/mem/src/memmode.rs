//! Optane "Memory Mode": DRAM as a hardware-managed cache in front of PMM.
//!
//! One of the paper's CPU baselines. In Memory Mode all application pages
//! live in PMM (slow) and the DRAM (fast) acts as an 8-way set-associative
//! (on virtual pages), page-granular, write-back cache managed entirely by
//! hardware — no OS or runtime placement control, which is exactly why it
//! loses to Sentinel on large models: cold pages evict hot ones through
//! conflict and capacity misses, and every miss pays PMM latency plus fill
//! traffic.
//!
//! The sets are laid out as the cache filter's ([`crate::CacheFilter`]) and
//! probed with the same routine: each holds its tags in recency order, least
//! recently used first, with empty slots at the front. Each slot also has a
//! dirty bit, which moves with its tag.

use crate::cache::{touch, EMPTY};
use crate::{HmConfig, Ns, PageRange};

/// Configuration for [`MemoryModeCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryModeSpec {
    /// DRAM cache capacity in pages (the usable fast-tier size).
    pub capacity_pages: u64,
    /// Ways per set. Real Memory Mode is direct-mapped on *physical*
    /// addresses; simulating on virtual page numbers makes direct mapping
    /// pathologically conflicty, so a small associativity stands in for the
    /// physical-address scrambling.
    pub ways: u64,
    /// Extra latency of the in-DRAM tag check on every access.
    pub tag_check_ns: Ns,
}

impl MemoryModeSpec {
    /// Build from an [`HmConfig`], using the whole fast tier as cache.
    #[must_use]
    pub fn from_config(cfg: &HmConfig) -> Self {
        MemoryModeSpec { capacity_pages: cfg.fast_pages().max(1), ways: 8, tag_check_ns: 10 }
    }

    /// Build with an explicit cache size in pages.
    #[must_use]
    pub fn with_capacity_pages(pages: u64) -> Self {
        MemoryModeSpec { capacity_pages: pages.max(1), ways: 1, tag_check_ns: 10 }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        (self.capacity_pages / self.ways.max(1)).max(1)
    }
}

/// Counters for the Memory-Mode cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryModeStats {
    /// DRAM cache hits.
    pub hits: u64,
    /// DRAM cache misses (each pays a PMM access + fill).
    pub misses: u64,
    /// Dirty victim write-backs to PMM.
    pub writebacks: u64,
}

/// Aggregate result of [`MemoryModeCache::access_run`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemoryModeRunAccess {
    /// Total time charged for the run.
    pub elapsed_ns: Ns,
    /// Pages whose payload was serviced by DRAM (hits + write misses).
    pub fast_pages: u64,
    /// Pages whose payload was serviced by PMM (read misses).
    pub slow_pages: u64,
    /// Dirty victims written back to PMM, one page each.
    pub writebacks: u64,
}

/// A set-associative page-granular DRAM cache over PMM.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryModeCache {
    spec: MemoryModeSpec,
    /// `sets × ways` tags; set `s` is `tags[s * ways..][..ways]`, in
    /// recency order (LRU first, empty slots at the front).
    tags: Vec<u64>,
    /// Whether the line in the same slot of `tags` is dirty; empty slots
    /// are clean.
    dirty: Vec<bool>,
    stats: MemoryModeStats,
}

impl MemoryModeCache {
    /// An empty cache.
    #[must_use]
    pub fn new(spec: MemoryModeSpec) -> Self {
        let slots = (spec.sets() * spec.ways.max(1)) as usize;
        MemoryModeCache {
            spec,
            tags: vec![EMPTY; slots],
            dirty: vec![false; slots],
            stats: MemoryModeStats::default(),
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn spec(&self) -> &MemoryModeSpec {
        &self.spec
    }

    /// Running counters.
    #[must_use]
    pub fn stats(&self) -> &MemoryModeStats {
        &self.stats
    }

    /// Access every page of a contiguous range in ascending order, each
    /// carrying `per_page` payload bytes; `write` marks the lines dirty.
    ///
    /// Timing model: tag check always; on a hit, DRAM service; on a read
    /// miss, a PMM fill of the whole page plus DRAM service; on a write miss
    /// the line is installed without a fill (write-allocate-no-fetch —
    /// tensor writes overwrite whole pages). A dirty victim is written back
    /// to PMM. Every hit, every miss and every write-back of a run costs the
    /// same, so the time is summed once per run.
    pub(crate) fn access_run(
        &mut self,
        range: PageRange,
        per_page: u64,
        write: bool,
        cfg: &HmConfig,
    ) -> MemoryModeRunAccess {
        let ways = self.spec.ways.max(1) as usize;
        let sets = self.spec.sets();
        let before = self.stats;
        for page in range.iter() {
            let base = (page % sets) as usize * ways;
            let hit = touch(&mut self.tags[base..base + ways], page);
            // The dirty bit of the slot `touch` vacated follows its tag: a
            // hit line keeps it, a dropped victim is written back if set.
            let dirty = &mut self.dirty[base..base + ways];
            let j = hit.unwrap_or(0);
            let was_dirty = dirty[j];
            dirty[j..].rotate_left(1);
            dirty[ways - 1] = write || (hit.is_some() && was_dirty);
            if hit.is_some() {
                self.stats.hits += 1;
            } else {
                self.stats.misses += 1;
                self.stats.writebacks += u64::from(was_dirty);
            }
        }
        let hits = self.stats.hits - before.hits;
        let misses = self.stats.misses - before.misses;
        let writebacks = self.stats.writebacks - before.writebacks;
        let tag_ns = self.spec.tag_check_ns;
        let hit_ns = tag_ns + cfg.fast.access_time_ns(per_page, write);
        let miss_ns = tag_ns
            + if write {
                cfg.fast.access_time_ns(per_page, true)
            } else {
                cfg.slow.access_time_ns(cfg.page_size, false) + cfg.fast.access_time_ns(per_page, false)
            };
        let writeback_ns = cfg.slow.access_time_ns(cfg.page_size, true);
        MemoryModeRunAccess {
            elapsed_ns: hits * hit_ns + misses * miss_ns + writebacks * writeback_ns,
            fast_pages: if write { hits + misses } else { hits },
            slow_pages: if write { 0 } else { misses },
            writebacks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HmConfig {
        HmConfig::testing()
    }

    fn cache(pages: u64) -> MemoryModeCache {
        MemoryModeCache::new(MemoryModeSpec::with_capacity_pages(pages))
    }

    /// Access one page carrying 100 payload bytes.
    fn access(m: &mut MemoryModeCache, page: u64, write: bool) -> MemoryModeRunAccess {
        m.access_run(PageRange::new(page, 1), 100, write, &cfg())
    }

    #[test]
    fn miss_then_hit() {
        let mut m = cache(4);
        let a = access(&mut m, 0, false);
        assert_eq!(a.slow_pages, 1);
        let b = access(&mut m, 0, false);
        assert_eq!(b.fast_pages, 1);
        assert!(b.elapsed_ns < a.elapsed_ns);
        assert_eq!(m.stats().hits, 1);
        assert_eq!(m.stats().misses, 1);
    }

    #[test]
    fn conflicting_pages_thrash() {
        let mut m = cache(4);
        // Pages 0 and 4 map to the same slot in a 4-page direct-mapped cache.
        access(&mut m, 0, false);
        access(&mut m, 4, false);
        let again = access(&mut m, 0, false);
        assert_eq!(again.slow_pages, 1);
        assert_eq!(m.stats().misses, 3);
    }

    #[test]
    fn dirty_victims_write_back() {
        let c = cfg();
        let mut m = cache(4);
        access(&mut m, 0, true); // dirty
        let evicting = access(&mut m, 4, false);
        assert_eq!(m.stats().writebacks, 1);
        assert_eq!(evicting.writebacks, 1);
        // Tag check, write-back, fill, then DRAM service.
        let want = 10
            + c.slow.access_time_ns(c.page_size, true)
            + c.slow.access_time_ns(c.page_size, false)
            + c.fast.access_time_ns(100, false);
        assert_eq!(evicting.elapsed_ns, want);
    }

    #[test]
    fn spec_from_config_uses_fast_tier() {
        let c = cfg();
        let spec = MemoryModeSpec::from_config(&c);
        assert_eq!(spec.capacity_pages, c.fast_pages());
    }
}

sentinel_util::impl_to_json!(MemoryModeSpec { capacity_pages, ways, tag_check_ns });
sentinel_util::impl_to_json!(MemoryModeStats { hits, misses, writebacks });
