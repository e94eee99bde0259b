//! Optane "Memory Mode": DRAM as a hardware-managed cache in front of PMM.
//!
//! One of the paper's CPU baselines. In Memory Mode all application pages
//! live in PMM (slow) and the DRAM (fast) acts as a direct-mapped,
//! page-granular, write-back cache managed entirely by hardware — no OS or
//! runtime placement control, which is exactly why it loses to Sentinel on
//! large models: cold pages evict hot ones through conflict and capacity
//! misses, and every miss pays PMM latency plus fill traffic.

use crate::{HmConfig, Ns, PageRange, Tier};

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

impl MemoryModeStats {
    /// Hit ratio in `[0, 1]`; zero when no accesses were made.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Slot {
    tag: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

/// Result of one Memory-Mode access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemoryModeAccess {
    /// Time charged for the access.
    pub elapsed_ns: Ns,
    /// Tier that serviced the payload bytes.
    pub serviced_by: Tier,
    /// Bytes of PMM fill traffic generated (page fill + write-back).
    pub slow_traffic_bytes: u64,
}

/// Aggregate result of a batched [`MemoryModeCache::access_run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MemoryModeRunAccess {
    /// Total time charged for the run.
    pub elapsed_ns: Ns,
    /// Pages whose payload was serviced by DRAM (hits + write misses).
    pub fast_pages: u64,
    /// Pages whose payload was serviced by PMM (read misses).
    pub slow_pages: u64,
    /// PMM fill/write-back traffic beyond the payload bytes, summed over
    /// pages exactly as the per-page path records it.
    pub extra_slow_traffic_bytes: u64,
}

/// A set-associative page-granular DRAM cache over PMM.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryModeCache {
    spec: MemoryModeSpec,
    slots: Vec<Slot>,
    stats: MemoryModeStats,
    tick: u64,
}

impl MemoryModeCache {
    /// An empty cache.
    #[must_use]
    pub fn new(spec: MemoryModeSpec) -> Self {
        MemoryModeCache {
            spec,
            slots: vec![Slot::default(); (spec.sets() * spec.ways.max(1)) as usize],
            stats: MemoryModeStats::default(),
            tick: 0,
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

    /// Access one page carrying `bytes` of payload; `write` marks it dirty.
    ///
    /// Timing model: tag check always; on hit, DRAM service; on a read miss,
    /// PMM fill of the whole page plus DRAM service; on a write miss the
    /// line is installed without a fill (write-allocate-no-fetch — tensor
    /// writes overwrite whole pages); dirty victims are written back to PMM.
    pub(crate) fn access(&mut self, page: u64, bytes: u64, write: bool, cfg: &HmConfig) -> MemoryModeAccess {
        self.tick += 1;
        let ways = self.spec.ways.max(1) as usize;
        let set = (page % self.spec.sets()) as usize;
        let base = set * ways;
        let slots = &mut self.slots[base..base + ways];
        let mut elapsed = self.spec.tag_check_ns;
        let mut slow_traffic = 0u64;

        if let Some(slot) = slots.iter_mut().find(|s| s.valid && s.tag == page) {
            self.stats.hits += 1;
            slot.stamp = self.tick;
            elapsed += cfg.fast.access_time_ns(bytes, write);
            if write {
                slot.dirty = true;
            }
            return MemoryModeAccess { elapsed_ns: elapsed, serviced_by: Tier::Fast, slow_traffic_bytes: bytes };
        }

        // Miss: pick LRU victim, write back if dirty, fill (reads only), serve.
        self.stats.misses += 1;
        let victim = &mut slots[victim_index(slots)];
        if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
            elapsed += cfg.slow.access_time_ns(cfg.page_size, true);
            slow_traffic += cfg.page_size;
        }
        if write {
            elapsed += cfg.fast.access_time_ns(bytes, true);
        } else {
            elapsed += cfg.slow.access_time_ns(cfg.page_size, false); // fill
            slow_traffic += cfg.page_size;
            elapsed += cfg.fast.access_time_ns(bytes, false);
        }
        *victim = Slot { tag: page, valid: true, dirty: write, stamp: self.tick };
        MemoryModeAccess {
            elapsed_ns: elapsed,
            serviced_by: if write { Tier::Fast } else { Tier::Slow },
            slow_traffic_bytes: slow_traffic,
        }
    }

    /// Access every page of a contiguous range carrying `per_page` payload
    /// bytes each, batched.
    ///
    /// Counters, timing and final cache state are identical to calling
    /// [`MemoryModeCache::access`] for each page in ascending order. Large
    /// ranges are resolved per set. The range's pages in a set are distinct,
    /// so once the set holds only lines this range touched, the rest of its
    /// pages are compulsory misses whose cost is uniform — except for the
    /// first eviction cycle, whose victims may be pre-existing dirty lines
    /// and are accounted individually.
    pub(crate) fn access_run(
        &mut self,
        range: PageRange,
        per_page: u64,
        write: bool,
        cfg: &HmConfig,
    ) -> MemoryModeRunAccess {
        let mut out = MemoryModeRunAccess::default();
        if range.is_empty() {
            return out;
        }
        let ways = self.spec.ways.max(1) as usize;
        if range.count < 2 * self.slots.len() as u64 {
            for p in range.iter() {
                let mm = self.access(p, per_page, write, cfg);
                out.elapsed_ns += mm.elapsed_ns;
                match mm.serviced_by {
                    Tier::Fast => out.fast_pages += 1,
                    Tier::Slow => out.slow_pages += 1,
                }
                if mm.slow_traffic_bytes > per_page {
                    out.extra_slow_traffic_bytes += mm.slow_traffic_bytes - per_page;
                }
            }
            return out;
        }

        let tick0 = self.tick;
        self.tick += range.count;
        let sets = self.spec.sets();
        let page_bytes = cfg.page_size;
        // Per-page costs, hoisted: every hit costs the same; miss costs
        // decompose into tag check + optional write-back + fill/serve.
        let tag_ns = self.spec.tag_check_ns;
        let hit_ns = tag_ns + cfg.fast.access_time_ns(per_page, write);
        let wb_ns = cfg.slow.access_time_ns(page_bytes, true);
        let serve_ns = if write {
            cfg.fast.access_time_ns(per_page, true)
        } else {
            cfg.slow.access_time_ns(page_bytes, false) + cfg.fast.access_time_ns(per_page, false)
        };
        let fill_traffic = if write { 0 } else { page_bytes };
        // Extra slow traffic charged per miss, by write-back presence.
        let extra_of = |wb: bool| -> u64 {
            let st = fill_traffic + if wb { page_bytes } else { 0 };
            if st > per_page {
                st - per_page
            } else {
                0
            }
        };

        let mut ours = vec![false; ways];
        let mut order: Vec<usize> = Vec::with_capacity(ways);
        for set in 0..sets {
            let offset = (set + sets - range.first % sets) % sets;
            let first_p = range.first + offset;
            if first_p >= range.end() {
                continue;
            }
            let k = (range.end() - first_p).div_ceil(sets);
            let base = set as usize * ways;
            let slots = &mut self.slots[base..base + ways];

            // Victim rotation order if every page were to miss: ascending
            // (valid, stamp) with ties broken by slot index, matching
            // `victim_index`. Probe `i` comes before the `i`-th eviction, so
            // a pre-existing line can hit only if its page's probe index is
            // at most its rank in this order. If no line qualifies, "every
            // page misses" is self-consistent (a first hit would have to
            // come after its own line's eviction), and the set skips the
            // per-page phase.
            order.clear();
            order.extend(0..ways);
            order.sort_by_key(|&j| victim_key(&slots[j]));
            let may_hit = order.iter().enumerate().any(|(r, &j)| {
                let l = &slots[j];
                l.valid
                    && first_p <= l.tag
                    && l.tag < range.end()
                    && (l.tag - first_p) / sets <= r as u64
            });

            // Phase 1: faithful per-page simulation until the set is wholly
            // owned by this range.
            let mut idx = 0u64;
            if may_hit {
                ours.fill(false);
                let mut ours_count = 0;
                while idx < k && ours_count < ways {
                    let p = first_p + idx * sets;
                    let stamp = tick0 + (p - range.first) + 1;
                    let j = match slots.iter().position(|s| s.valid && s.tag == p) {
                        Some(j) => {
                            self.stats.hits += 1;
                            slots[j].stamp = stamp;
                            if write {
                                slots[j].dirty = true;
                            }
                            out.elapsed_ns += hit_ns;
                            out.fast_pages += 1;
                            j
                        }
                        None => {
                            self.stats.misses += 1;
                            let j = victim_index(slots);
                            let wb = slots[j].valid && slots[j].dirty;
                            if wb {
                                self.stats.writebacks += 1;
                                out.elapsed_ns += wb_ns;
                            }
                            out.elapsed_ns += tag_ns + serve_ns;
                            out.extra_slow_traffic_bytes += extra_of(wb);
                            if write {
                                out.fast_pages += 1;
                            } else {
                                out.slow_pages += 1;
                            }
                            slots[j] = Slot { tag: p, valid: true, dirty: write, stamp };
                            j
                        }
                    };
                    if !ours[j] {
                        ours[j] = true;
                        ours_count += 1;
                    }
                    idx += 1;
                }
                // Phase 2's rotation starts from the stamps phase 1 left.
                order.clear();
                order.extend(0..ways);
                order.sort_by_key(|&j| victim_key(&slots[j]));
            }

            // Phase 2: the rest of the progression misses unconditionally.
            let m = k - idx;
            if m == 0 {
                continue;
            }
            self.stats.misses += m;
            // First eviction cycle: victims are the pre-existing/phase-1
            // survivors with their individual valid and dirty bits. Every
            // later victim is one of this range's own installs, dirty exactly
            // when the access writes.
            let first_cycle = m.min(ways as u64) as usize;
            let mut wb_count = order
                .iter()
                .take(first_cycle)
                .filter(|&&j| slots[j].valid && slots[j].dirty)
                .count() as u64;
            if write {
                wb_count += m - first_cycle as u64;
            }
            self.stats.writebacks += wb_count;
            out.elapsed_ns += m * (tag_ns + serve_ns) + wb_count * wb_ns;
            out.extra_slow_traffic_bytes +=
                wb_count * extra_of(true) + (m - wb_count) * extra_of(false);
            if write {
                out.fast_pages += m;
            } else {
                out.slow_pages += m;
            }
            for (r, &j) in order.iter().enumerate().take(first_cycle) {
                let r = r as u64;
                let i_last = r + (m - 1 - r) / ways as u64 * ways as u64;
                let p = first_p + (idx + i_last) * sets;
                slots[j] = Slot {
                    tag: p,
                    valid: true,
                    dirty: write,
                    stamp: tick0 + (p - range.first) + 1,
                };
            }
        }
        out
    }
}

/// Eviction priority of a slot: invalid slots (key 0) go first, then lowest
/// LRU stamp. Shared by `victim_index` and the batched path's rotation order
/// so the two cannot diverge.
fn victim_key(s: &Slot) -> u64 {
    if s.valid {
        s.stamp
    } else {
        0
    }
}

/// Eviction victim of a set: first slot minimising [`victim_key`] — shared
/// by the per-page and batched paths so their choices cannot diverge.
fn victim_index(slots: &[Slot]) -> usize {
    let mut best = 0;
    let mut best_key = victim_key(&slots[0]);
    for (j, s) in slots.iter().enumerate().skip(1) {
        let k = victim_key(s);
        if k < best_key {
            best = j;
            best_key = k;
        }
    }
    best
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

    #[test]
    fn miss_then_hit() {
        let c = cfg();
        let mut m = cache(4);
        let a = m.access(0, 100, false, &c);
        assert_eq!(a.serviced_by, Tier::Slow);
        let b = m.access(0, 100, false, &c);
        assert_eq!(b.serviced_by, Tier::Fast);
        assert!(b.elapsed_ns < a.elapsed_ns);
        assert_eq!(m.stats().hits, 1);
        assert_eq!(m.stats().misses, 1);
    }

    #[test]
    fn conflicting_pages_thrash() {
        let c = cfg();
        let mut m = cache(4);
        // Pages 0 and 4 map to the same slot in a 4-page direct-mapped cache.
        m.access(0, 100, false, &c);
        m.access(4, 100, false, &c);
        let again = m.access(0, 100, false, &c);
        assert_eq!(again.serviced_by, Tier::Slow);
        assert_eq!(m.stats().misses, 3);
    }

    #[test]
    fn dirty_victims_write_back() {
        let c = cfg();
        let mut m = cache(4);
        m.access(0, 100, true, &c); // dirty
        let evicting = m.access(4, 100, false, &c);
        assert_eq!(m.stats().writebacks, 1);
        // Fill + write-back traffic: two pages.
        assert_eq!(evicting.slow_traffic_bytes, 2 * c.page_size);
    }

    #[test]
    fn hit_ratio_reflects_counts() {
        let mut s = MemoryModeStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        s.hits = 3;
        s.misses = 1;
        assert!((s.hit_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn spec_from_config_uses_fast_tier() {
        let c = cfg();
        let spec = MemoryModeSpec::from_config(&c);
        assert_eq!(spec.capacity_pages, c.fast_pages());
    }

    /// Drive `range` per page on one cache and batched on a clone; the
    /// aggregate outcome and the full internal state must be identical.
    fn assert_run_equivalent(reference: &mut MemoryModeCache, range: PageRange, per: u64, write: bool) {
        let c = cfg();
        let mut batched = reference.clone();
        let mut want = MemoryModeRunAccess::default();
        for p in range.iter() {
            let mm = reference.access(p, per, write, &c);
            want.elapsed_ns += mm.elapsed_ns;
            match mm.serviced_by {
                Tier::Fast => want.fast_pages += 1,
                Tier::Slow => want.slow_pages += 1,
            }
            if mm.slow_traffic_bytes > per {
                want.extra_slow_traffic_bytes += mm.slow_traffic_bytes - per;
            }
        }
        let got = batched.access_run(range, per, write, &c);
        assert_eq!(got, want, "run outcome diverged for {range} write={write}");
        assert_eq!(&mut batched, reference, "cache state diverged for {range} write={write}");
    }

    #[test]
    fn access_run_matches_per_page_accesses() {
        for write in [false, true] {
            for ways in [1u64, 2] {
                let mut m = MemoryModeCache::new(MemoryModeSpec {
                    capacity_pages: 8,
                    ways,
                    tag_check_ns: 10,
                });
                // Warm with mixed dirtiness so phase-2's first eviction
                // cycle sees both clean and dirty pre-existing victims.
                let c = cfg();
                for p in [0u64, 3, 5, 9, 12] {
                    m.access(p, 100, p % 2 == 0, &c);
                }
                for range in [
                    PageRange::new(0, 3),
                    PageRange::new(2, 8),
                    PageRange::new(1, 40),
                    PageRange::new(0, 64),
                    PageRange::empty(),
                ] {
                    assert_run_equivalent(&mut m, range, 100, write);
                    assert_run_equivalent(&mut m, range, 2 * c.page_size, write);
                }
            }
        }
    }
}

sentinel_util::impl_to_json!(MemoryModeSpec { capacity_pages, ways, tag_check_ns });
sentinel_util::impl_to_json!(MemoryModeStats { hits, misses, writebacks });
