//! Processor cache filter.
//!
//! The paper's OS-level profiling counts accesses that reach *main memory*,
//! i.e. after filtering by the processor cache hierarchy (Section III-A:
//! "OS allows us to track memory accesses filtered by processor caches").
//! To reproduce that distinction without simulating a real cache hierarchy,
//! accesses pass through a page-granular set-associative LRU filter: hits are
//! served at cache speed and are invisible to the page-access profiler,
//! misses go to the backing tier and are counted.
//!
//! Each set is stored as its tags in recency order, least recently used
//! first, with empty slots as an [`EMPTY`] tag at the front: a hit moves its
//! tag to the back, and a miss drops the front tag and appends the page.
//! Memory Mode's DRAM cache ([`crate::MemoryModeCache`]) keeps its sets the
//! same way and probes them with the same `touch`.

use crate::{Ns, PageRange};

/// Configuration of the [`CacheFilter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheFilterSpec {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes; the filter tracks whole pages, so this is the
    /// page size it was built for.
    pub line_bytes: u64,
    /// Hit latency in nanoseconds.
    pub hit_latency_ns: Ns,
    /// Hit bandwidth in bytes per nanosecond.
    pub hit_bw_bytes_per_ns: f64,
}

impl CacheFilterSpec {
    /// A CPU last-level cache: 32 MiB, 16-way, 4 KiB page lines.
    #[must_use]
    pub fn cpu_l3() -> Self {
        CacheFilterSpec {
            capacity_bytes: 32 << 20,
            ways: 16,
            line_bytes: 4096,
            hit_latency_ns: 20,
            hit_bw_bytes_per_ns: 200.0,
        }
    }

    /// A GPU L2 cache: 6 MiB, 16-way, 4 KiB page lines.
    #[must_use]
    pub fn gpu_l2() -> Self {
        CacheFilterSpec {
            capacity_bytes: 6 << 20,
            ways: 16,
            line_bytes: 4096,
            hit_latency_ns: 10,
            hit_bw_bytes_per_ns: 2000.0,
        }
    }

    /// Number of sets implied by capacity, ways and line size.
    #[must_use]
    pub fn sets(&self) -> usize {
        let lines = (self.capacity_bytes / self.line_bytes).max(1) as usize;
        (lines / self.ways.max(1)).max(1)
    }
}

/// Result of probing the cache filter for one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The page was resident; the access never reaches main memory.
    Hit,
    /// The page was not resident; the access reaches main memory and the
    /// page is now cached.
    Miss,
}

/// Tag of an empty slot. No page carries it: a [`PageRange`] ends at or
/// below `u64::MAX`, so its pages lie below it.
pub(crate) const EMPTY: u64 = u64::MAX;

/// Outcome of a batched [`CacheFilter::probe_range`].
///
/// Equivalent to probing every page of the range in ascending order: the
/// counters and final cache state are identical, but each set the range
/// touches is resolved in one pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeProbe {
    /// Pages of the range that hit, in ascending order. Hits are bounded by
    /// the cache's line count, so this stays small even for huge ranges.
    pub hit_pages: Vec<u64>,
    /// Number of pages that missed (`range.count - hit_pages.len()`).
    pub misses: u64,
}

impl RangeProbe {
    /// Number of pages that hit.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hit_pages.len() as u64
    }
}

/// A page-granular set-associative LRU cache filter.
///
/// ```
/// use sentinel_mem::{CacheFilter, CacheFilterSpec, CacheOutcome};
///
/// let mut cache = CacheFilter::new(CacheFilterSpec::cpu_l3());
/// assert_eq!(cache.probe(42), CacheOutcome::Miss);
/// assert_eq!(cache.probe(42), CacheOutcome::Hit);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CacheFilter {
    spec: CacheFilterSpec,
    sets: usize,
    /// `sets × ways` tags; set `s` is `tags[s * ways..][..ways]`, in
    /// recency order (LRU first, [`EMPTY`] slots at the front).
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl CacheFilter {
    /// Build an empty cache for `spec`.
    #[must_use]
    pub fn new(spec: CacheFilterSpec) -> Self {
        let sets = spec.sets();
        CacheFilter { spec, sets, tags: vec![EMPTY; sets * spec.ways.max(1)], hits: 0, misses: 0 }
    }

    /// The configuration this cache was built from.
    #[must_use]
    pub fn spec(&self) -> &CacheFilterSpec {
        &self.spec
    }

    /// Probe (and update) the cache for a page, returning hit or miss.
    /// A miss installs the page, evicting the set's LRU victim.
    pub fn probe(&mut self, page: u64) -> CacheOutcome {
        debug_assert_ne!(page, EMPTY, "page u64::MAX is the empty-slot tag");
        let ways = self.spec.ways.max(1);
        let base = (page as usize) % self.sets * ways;
        if touch(&mut self.tags[base..base + ways], page).is_some() {
            self.hits += 1;
            CacheOutcome::Hit
        } else {
            self.misses += 1;
            CacheOutcome::Miss
        }
    }

    /// Probe every page of a contiguous range, batched.
    ///
    /// Counters and final cache state are identical to calling
    /// [`CacheFilter::probe`] for each page in ascending order, but each
    /// set the range touches is resolved in one O(ways) pass. The range's
    /// pages in a set are `p_i = p_0 + i·sets`, all distinct, so every probe
    /// moves a page the range has not touched yet to the MRU end, and every
    /// miss evicts from the LRU end. A line at rank `r` (LRU = 0) holding
    /// `p_i` is still cached at probe `i` iff the `i - a - h` misses before
    /// it have not evicted it, i.e. iff `i - a - h <= r - a`: `a` and `h`
    /// count the earlier hits on lines ranked below and above `r`, and each
    /// hit below `r` both saves a miss and takes a line out of the eviction
    /// order ahead of it. So it hits iff `i <= r + h`, and every other probe
    /// misses. The set ends as its lines outside the range, in order, then
    /// `p_0, p_1, …`, keeping the last `ways`: a line in the range that does
    /// not hit was evicted, so dropping it first changes nothing kept.
    pub fn probe_range(&mut self, range: PageRange) -> RangeProbe {
        let sets = self.sets as u64;
        let (q, rem) = (range.count / sets, range.count % sets);
        let mut out = RangeProbe::default();
        // Where sets hold several pages each, `(next, end)` of each set's
        // hits in `out.hit_pages`, for the merge below.
        let mut runs = Vec::new();
        for (t, set) in (0..).zip(self.touched_sets(range)) {
            let (p0, k) = (range.first + t, q + u64::from(t < rem));
            let first_hit = out.hit_pages.len();
            if k == 1 {
                if touch(set, p0).is_some() {
                    out.hit_pages.push(p0);
                }
            } else {
                resolve_set(set, p0, k, range.end() - p0, sets, &mut out.hit_pages);
            }
            if range.count > sets && out.hit_pages.len() > first_hit {
                runs.push((first_hit, out.hit_pages.len()));
            }
        }
        // Sets are visited in page order, so the hits are ascending unless
        // a set holds several pages. Then the pages below
        // `first + (i + 1)·sets` are those of index `i` or lower: round `i`
        // takes the index-`i` hit, if any, from every set in turn.
        if !runs.is_empty() {
            let n = out.hit_pages.len();
            let by_set = std::mem::replace(&mut out.hit_pages, Vec::with_capacity(n));
            let mut below = range.first;
            while !runs.is_empty() {
                below += sets;
                runs.retain_mut(|(next, end)| {
                    if by_set[*next] < below {
                        out.hit_pages.push(by_set[*next]);
                        *next += 1;
                    }
                    next < end
                });
            }
        }
        out.misses = range.count - out.hits();
        self.hits += out.hits();
        self.misses += out.misses;
        out
    }

    /// Invalidate a page (e.g. after it is unmapped or migrated).
    pub fn invalidate(&mut self, page: u64) {
        let ways = self.spec.ways.max(1);
        let base = (page as usize) % self.sets * ways;
        let set = &mut self.tags[base..base + ways];
        if let Some(j) = set.iter().position(|&t| t == page) {
            set[..=j].rotate_right(1);
            set[0] = EMPTY;
        }
    }

    /// Invalidate every page of a range, one pass per set it touches; the
    /// final state is that of [`CacheFilter::invalidate`] on each page.
    pub fn invalidate_range(&mut self, range: PageRange) {
        let ways = self.spec.ways.max(1);
        for set in self.touched_sets(range) {
            // Lines outside the range slide to the back in order; the slots
            // freed at the front become empty.
            let mut w = ways;
            for r in (0..ways).rev() {
                if !range.contains(set[r]) {
                    w -= 1;
                    set[w] = set[r];
                }
            }
            set[..w].fill(EMPTY);
        }
    }

    /// The sets `range` touches, in page order: the `t`-th holds the
    /// range's pages `range.first + t + i·sets`.
    fn touched_sets(&mut self, range: PageRange) -> impl Iterator<Item = &mut [u64]> {
        let ways = self.spec.ways.max(1);
        let first = (range.first % self.sets as u64) as usize;
        let (below, from) = self.tags.split_at_mut(first * ways);
        let touched = range.count.min(self.sets as u64) as usize;
        from.chunks_exact_mut(ways).chain(below.chunks_exact_mut(ways)).take(touched)
    }

    /// Drop all cached pages.
    pub fn flush(&mut self) {
        self.tags.fill(EMPTY);
    }

    /// Hits observed so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Time to serve `bytes` from the cache on a hit.
    #[must_use]
    pub fn hit_time_ns(&self, bytes: u64) -> Ns {
        self.spec.hit_latency_ns + (bytes as f64 / self.spec.hit_bw_bytes_per_ns).ceil() as Ns
    }
}

/// Probe the `k >= 2` pages `p_i = p0 + i·sets` of a range in their set,
/// by the rule on [`CacheFilter::probe_range`], appending the hits in
/// ascending order. `span` is `range.end() - p0`.
fn resolve_set(set: &mut [u64], p0: u64, k: u64, span: u64, sets: u64, hits: &mut Vec<u64>) {
    let ways = set.len();
    // A tag is in the range iff `tag - p0 < span`, wrapping: empty slots
    // and pages below `p0` wrap past it. A set holding none of the range
    // keeps its lines in place and only shifts below.
    if set.iter().fold(false, |any, &tag| any | (tag.wrapping_sub(p0) < span)) {
        // From the MRU end down: this set's hits so far are those ranked
        // above the line, kept descending, so `h` is the tail below its
        // page. Lines outside the range slide to the back.
        let first_hit = hits.len();
        let mut w = ways;
        for r in (0..ways).rev() {
            let tag = set[r];
            let off = tag.wrapping_sub(p0);
            if off >= span {
                w -= 1;
                set[w] = tag;
                continue;
            }
            let h = hits[first_hit..].iter().rev().take_while(|&&p| p < tag).count();
            if off <= (r + h) as u64 * sets {
                hits.insert(hits.len() - h, tag);
            }
        }
        hits[first_hit..].reverse();
    }
    let kept = ways - k.min(ways as u64) as usize;
    set.copy_within(ways - kept.., 0);
    let mut p = p0 + (k - (ways - kept) as u64) * sets;
    for slot in &mut set[kept..] {
        *slot = p;
        p += sets;
    }
}

/// Probe `page` in its set: a hit moves its tag to the MRU end and returns
/// the slot it left, so that per-slot state can rotate with the tags; a
/// miss drops the LRU tag in slot 0, appends the page and returns `None`.
/// Recently used tags sit at the back, so the search starts there.
pub(crate) fn touch(set: &mut [u64], page: u64) -> Option<usize> {
    let hit = set.iter().rposition(|&t| t == page);
    match hit {
        Some(j) => set[j..].rotate_left(1),
        None => {
            set.rotate_left(1);
            set[set.len() - 1] = page;
        }
    }
    hit
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CacheFilterSpec {
        // 4 lines total: 2 sets × 2 ways of 4 KiB lines.
        CacheFilterSpec {
            capacity_bytes: 4 * 4096,
            ways: 2,
            line_bytes: 4096,
            hit_latency_ns: 1,
            hit_bw_bytes_per_ns: 100.0,
        }
    }

    #[test]
    fn second_access_hits() {
        let mut c = CacheFilter::new(tiny_spec());
        assert_eq!(c.probe(7), CacheOutcome::Miss);
        assert_eq!(c.probe(7), CacheOutcome::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent_in_set() {
        let mut c = CacheFilter::new(tiny_spec());
        // Pages 0, 2, 4 map to set 0 (2 sets).
        c.probe(0);
        c.probe(2);
        c.probe(0); // refresh 0 → LRU victim is 2
        c.probe(4); // evicts 2
        assert_eq!(c.probe(0), CacheOutcome::Hit);
        assert_eq!(c.probe(2), CacheOutcome::Miss);
    }

    #[test]
    fn invalidate_forces_miss() {
        let mut c = CacheFilter::new(tiny_spec());
        c.probe(9);
        c.invalidate(9);
        assert_eq!(c.probe(9), CacheOutcome::Miss);
    }

    #[test]
    fn flush_clears_everything() {
        let mut c = CacheFilter::new(tiny_spec());
        for p in 0..4 {
            c.probe(p);
        }
        c.flush();
        for p in 0..4 {
            assert_eq!(c.probe(p), CacheOutcome::Miss);
        }
    }

    #[test]
    fn sets_computation_floors_to_one() {
        let spec = CacheFilterSpec { capacity_bytes: 4096, ways: 16, line_bytes: 4096, hit_latency_ns: 1, hit_bw_bytes_per_ns: 1.0 };
        assert_eq!(spec.sets(), 1);
    }

    #[test]
    fn hit_time_scales() {
        let c = CacheFilter::new(tiny_spec());
        assert_eq!(c.hit_time_ns(100), 2);
        assert!(c.hit_time_ns(10_000) > c.hit_time_ns(100));
    }

    /// Probe `range` page-by-page on one filter and batched on a clone; both
    /// counters and the full internal state must be identical.
    fn assert_probe_equivalent(reference: &mut CacheFilter, range: PageRange) {
        let mut batched = reference.clone();
        let mut ref_probe = RangeProbe::default();
        for p in range.iter() {
            match reference.probe(p) {
                CacheOutcome::Hit => ref_probe.hit_pages.push(p),
                CacheOutcome::Miss => ref_probe.misses += 1,
            }
        }
        let got = batched.probe_range(range);
        assert_eq!(got, ref_probe, "probe outcome diverged for {range}");
        assert_eq!(&mut batched, reference, "cache state diverged for {range}");
    }

    #[test]
    fn probe_range_matches_per_page_small_and_large() {
        // Warm the filter with a stride pattern, then probe ranges around,
        // inside and far beyond the 4-line capacity.
        for warm_stride in [1u64, 2, 3, 7] {
            let mut c = CacheFilter::new(tiny_spec());
            for i in 0..6 {
                c.probe(3 + i * warm_stride);
            }
            for range in [
                PageRange::new(0, 1),
                PageRange::new(2, 5),
                PageRange::new(0, 8),
                PageRange::new(1, 9),
                PageRange::new(3, 40),
                PageRange::new(0, 64),
                PageRange::new(5, 33),
                PageRange::empty(),
            ] {
                assert_probe_equivalent(&mut c, range);
            }
        }
    }

    #[test]
    fn probe_range_bypass_counts_compulsory_misses() {
        let mut c = CacheFilter::new(tiny_spec());
        // 64 cold pages over a 4-line cache: all miss, and afterwards the
        // last pages of each set progression are resident.
        let probe = c.probe_range(PageRange::new(0, 64));
        assert_eq!(probe.hits(), 0);
        assert_eq!(probe.misses, 64);
        assert_eq!(c.misses(), 64);
        // Re-probing the final pages hits (2 sets × 2 ways: 60..64).
        assert_eq!(c.probe(63), CacheOutcome::Hit);
        assert_eq!(c.probe(0), CacheOutcome::Miss);
    }

    #[test]
    fn invalidate_range_matches_per_page() {
        for count in [3u64, 8, 64] {
            let mut a = CacheFilter::new(tiny_spec());
            for p in 0..10 {
                a.probe(p);
            }
            let mut b = a.clone();
            a.invalidate_range(PageRange::new(2, count));
            for p in 2..2 + count {
                b.invalidate(p);
            }
            assert_eq!(a, b);
        }
    }
}

sentinel_util::impl_to_json!(CacheFilterSpec {
    capacity_bytes,
    ways,
    line_bytes,
    hit_latency_ns,
    hit_bw_bytes_per_ns,
});
