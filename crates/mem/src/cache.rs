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
use std::borrow::Cow;

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
    /// The pages of the range that hit, as maximal runs in ascending order.
    /// Hits are bounded by the cache's line count and mostly contiguous, so
    /// this stays short even for huge ranges.
    pub hit_runs: Vec<PageRange>,
    /// Number of pages that missed (the range's count minus
    /// [`RangeProbe::hits`]).
    pub misses: u64,
}

impl RangeProbe {
    /// Number of pages that hit.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hit_runs.iter().map(|run| run.count).sum()
    }
}

/// One call that changes the filter's tags, as the step memo records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    Probe(PageRange),
    Invalidate(PageRange),
    Flush,
}

/// One training step's calls and hits, replayed while later steps repeat it
/// (see [`CacheFilter::begin_step`]).
#[derive(Debug, Clone, Default)]
struct StepMemo {
    /// The tags when the recorded step began.
    start: Vec<u64>,
    /// The recorded calls in order, each with the end of its hit runs in
    /// `runs`.
    calls: Vec<(Call, usize)>,
    /// The hit runs of every recorded call, in call order.
    runs: Vec<PageRange>,
    /// While the current step replays the record, how many recorded calls
    /// it has made so far; the tags still hold `start`.
    replay: Option<usize>,
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
#[derive(Debug, Clone)]
pub struct CacheFilter {
    spec: CacheFilterSpec,
    sets: usize,
    /// `sets × ways` tags; set `s` is `tags[s * ways..][..ways]`, in
    /// recency order (LRU first, [`EMPTY`] slots at the front).
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
    /// `None` until the first [`CacheFilter::begin_step`].
    memo: Option<StepMemo>,
}

/// Filters are equal when their specs, counters and the tags their calls
/// so far produced are; the step memo is how they got there, not state.
impl PartialEq for CacheFilter {
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec
            && (self.hits, self.misses) == (other.hits, other.misses)
            && self.settled_tags() == other.settled_tags()
    }
}

impl CacheFilter {
    /// Build an empty cache for `spec`.
    #[must_use]
    pub fn new(spec: CacheFilterSpec) -> Self {
        let sets = spec.sets();
        CacheFilter { spec, sets, tags: vec![EMPTY; sets * spec.ways.max(1)], hits: 0, misses: 0, memo: None }
    }

    /// The configuration this cache was built from.
    #[must_use]
    pub fn spec(&self) -> &CacheFilterSpec {
        &self.spec
    }

    /// Mark the start of a training step.
    ///
    /// From the first step on, the filter records each step's calls and
    /// their hits. A step that starts from the tags the recorded step
    /// started from replays it: each call equal to the next recorded one
    /// gets the recorded hits, and the tags are not touched. At the first
    /// call that differs, the filter applies the replayed calls to the tags
    /// and computes from there on, recording as it goes.
    ///
    /// This is exact. A call's hits and the next tags are a function of the
    /// tags and the call, and replay starts only where a step ends in the
    /// state the recorded step started from. So the recorded calls, made
    /// again from that state, return the same hits and end in it again.
    /// Outcomes, counters and state are those of computing every call.
    pub fn begin_step(&mut self) {
        let memo = self.memo.get_or_insert_with(StepMemo::default);
        match memo.replay {
            Some(done) if done == memo.calls.len() => {
                memo.replay = Some(0);
                return;
            }
            Some(_) => self.materialize(),
            None => {}
        }
        let memo = self.memo.as_mut().expect("set above");
        if memo.start == self.tags {
            memo.replay = Some(0);
        } else {
            memo.start.clone_from(&self.tags);
            memo.calls.clear();
            memo.runs.clear();
        }
    }

    /// Probe (and update) the cache for a page, returning hit or miss.
    /// A miss installs the page, evicting the set's LRU victim.
    pub fn probe(&mut self, page: u64) -> CacheOutcome {
        debug_assert_ne!(page, EMPTY, "page u64::MAX is the empty-slot tag");
        let hit = if self.memo.is_some() {
            !self.call(Call::Probe(PageRange::new(page, 1))).is_empty()
        } else {
            let ways = self.spec.ways.max(1);
            let base = (page as usize) % self.sets * ways;
            touch(&mut self.tags[base..base + ways], page).is_some()
        };
        if hit {
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
        let hit_runs = self.call(Call::Probe(range));
        let hits: u64 = hit_runs.iter().map(|run| run.count).sum();
        self.hits += hits;
        self.misses += range.count - hits;
        RangeProbe { hit_runs, misses: range.count - hits }
    }

    /// Invalidate a page (e.g. after it is unmapped or migrated).
    pub fn invalidate(&mut self, page: u64) {
        if self.memo.is_some() {
            self.call(Call::Invalidate(PageRange::new(page, 1)));
            return;
        }
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
        self.call(Call::Invalidate(range));
    }

    /// Drop all cached pages.
    pub fn flush(&mut self) {
        self.call(Call::Flush);
    }

    /// Make `call`, returning its hit runs: from the step memo while the
    /// current step replays it, computed otherwise. Once steps are marked,
    /// a computed call is recorded.
    fn call(&mut self, call: Call) -> Vec<PageRange> {
        if let Some(memo) = &mut self.memo {
            if let Some(done) = memo.replay {
                let from = done.checked_sub(1).map_or(0, |prev| memo.calls[prev].1);
                if let Some(&(recorded, end)) = memo.calls.get(done) {
                    if recorded == call {
                        memo.replay = Some(done + 1);
                        return memo.runs[from..end].to_vec();
                    }
                }
                // The step leaves the record here: what it replayed is the
                // start of the step it now records.
                self.materialize();
                let memo = self.memo.as_mut().expect("replaying");
                memo.calls.truncate(done);
                memo.runs.truncate(from);
            }
        }
        let hit_runs = self.compute(call);
        if let Some(memo) = &mut self.memo {
            memo.calls.push((call, memo.runs.len() + hit_runs.len()));
            memo.runs.extend_from_slice(&hit_runs);
        }
        hit_runs
    }

    /// End a replay: apply the calls it replayed to the tags, which still
    /// hold the recorded step's start, leaving the counters alone. A replay
    /// that made every recorded call is already there, since the recorded
    /// step ends where it started.
    fn materialize(&mut self) {
        let Some(mut memo) = self.memo.take() else { return };
        if let Some(done) = memo.replay.take() {
            if done < memo.calls.len() {
                for &(call, _) in &memo.calls[..done] {
                    self.compute(call);
                }
            }
        }
        self.memo = Some(memo);
    }

    /// The tags the calls so far produced, materializing a clone during a
    /// replay.
    fn settled_tags(&self) -> Cow<'_, [u64]> {
        if self.memo.as_ref().is_some_and(|memo| memo.replay.is_some()) {
            let mut settled = self.clone();
            settled.materialize();
            settled.tags.into()
        } else {
            self.tags.as_slice().into()
        }
    }

    /// Apply `call` to the tags, returning its hit runs; the counters are
    /// left to the caller.
    fn compute(&mut self, call: Call) -> Vec<PageRange> {
        match call {
            Call::Probe(range) => self.resolve_range(range),
            Call::Invalidate(range) => {
                self.invalidate_sets(range);
                Vec::new()
            }
            Call::Flush => {
                self.tags.fill(EMPTY);
                Vec::new()
            }
        }
    }

    /// The tag updates and hit runs of [`CacheFilter::probe_range`].
    fn resolve_range(&mut self, range: PageRange) -> Vec<PageRange> {
        let sets = self.sets as u64;
        let (q, rem) = (range.count / sets, range.count % sets);
        let mut hit_pages = Vec::new();
        // Where sets hold several pages each, `(next, end)` of each set's
        // hits in `hit_pages`, for the merge below.
        let mut by_set = Vec::new();
        for (t, set) in (0..).zip(self.touched_sets(range)) {
            let (p0, k) = (range.first + t, q + u64::from(t < rem));
            let first_hit = hit_pages.len();
            if k == 1 {
                if touch(set, p0).is_some() {
                    hit_pages.push(p0);
                }
            } else {
                resolve_set(set, p0, k, range.end() - p0, sets, &mut hit_pages);
            }
            if range.count > sets && hit_pages.len() > first_hit {
                by_set.push((first_hit, hit_pages.len()));
            }
        }
        // Sets are visited in page order, so the hits are ascending unless
        // a set holds several pages. Then the pages below
        // `first + (i + 1)·sets` are those of index `i` or lower: round `i`
        // takes the index-`i` hit, if any, from every set in turn.
        let mut hit_runs = Vec::new();
        if by_set.is_empty() {
            for &page in &hit_pages {
                push_page(&mut hit_runs, page);
            }
        }
        let mut below = range.first;
        while !by_set.is_empty() {
            below += sets;
            by_set.retain_mut(|(next, end)| {
                if hit_pages[*next] < below {
                    push_page(&mut hit_runs, hit_pages[*next]);
                    *next += 1;
                }
                next < end
            });
        }
        hit_runs
    }

    /// The tag updates of [`CacheFilter::invalidate_range`].
    fn invalidate_sets(&mut self, range: PageRange) {
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

/// Append `page` to ascending hit runs, extending the last run if the page
/// follows it.
fn push_page(runs: &mut Vec<PageRange>, page: u64) {
    match runs.last_mut() {
        Some(run) if run.end() == page => run.count += 1,
        _ => runs.push(PageRange::new(page, 1)),
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
                CacheOutcome::Hit => push_page(&mut ref_probe.hit_runs, p),
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

    /// Make `call` through the public method a caller would use.
    fn make(c: &mut CacheFilter, call: Call) -> Vec<PageRange> {
        match call {
            Call::Probe(r) if r.count == 1 => match c.probe(r.first) {
                CacheOutcome::Hit => vec![r],
                CacheOutcome::Miss => Vec::new(),
            },
            Call::Probe(r) => c.probe_range(r).hit_runs,
            Call::Invalidate(r) if r.count == 1 => {
                c.invalidate(r.first);
                Vec::new()
            }
            Call::Invalidate(r) => {
                c.invalidate_range(r);
                Vec::new()
            }
            Call::Flush => {
                c.flush();
                Vec::new()
            }
        }
    }

    #[test]
    fn repeated_steps_replay_without_touching_the_tags() {
        let step = [
            Call::Probe(PageRange::new(0, 6)),
            Call::Probe(PageRange::new(1, 1)),
            Call::Invalidate(PageRange::new(5, 1)),
            Call::Probe(PageRange::new(3, 4)),
            Call::Invalidate(PageRange::new(8, 2)),
            Call::Probe(PageRange::new(9, 1)),
        ];
        let mut stepped = CacheFilter::new(tiny_spec());
        let mut plain = stepped.clone();
        for n in 0..4 {
            if n >= 3 {
                // The boundary finds the whole record replayed.
                let memo = stepped.memo.as_ref().expect("recording since step 0");
                assert_eq!(memo.replay, Some(memo.calls.len()), "step {n}");
            }
            stepped.begin_step();
            let start = stepped.tags.clone();
            for (i, &call) in step.iter().enumerate() {
                assert_eq!(make(&mut stepped, call), make(&mut plain, call), "step {n}, call {i}");
                if n >= 2 {
                    assert_eq!(stepped.tags, start, "step {n} wrote the tags at call {i}");
                    assert_eq!(stepped.memo.as_ref().and_then(|m| m.replay), Some(i + 1), "step {n}, call {i}");
                }
                assert_eq!(stepped, plain, "step {n}, call {i}");
            }
        }
        let memo = stepped.memo.as_ref().expect("recording");
        assert_eq!(memo.replay, Some(step.len()));
    }

    #[test]
    fn nothing_is_recorded_before_the_first_step() {
        let mut c = CacheFilter::new(tiny_spec());
        for _ in 0..2 {
            c.probe_range(PageRange::new(0, 6));
            c.invalidate(3);
            c.flush();
        }
        assert!(c.memo.is_none());
    }
}

sentinel_util::impl_to_json!(CacheFilterSpec {
    capacity_bytes,
    ways,
    line_bytes,
    hit_latency_ns,
    hit_bw_bytes_per_ns,
});
