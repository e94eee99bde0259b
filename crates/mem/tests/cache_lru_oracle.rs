//! The cache filter and Memory Mode's DRAM cache against an independent LRU
//! oracle.
//!
//! `CacheFilter::probe_range` resolves each set in closed form, and the
//! per-page `CacheFilter::probe` it must agree with shares the filter's
//! recency-ordered representation, so comparing the two alone cannot catch a
//! bug they share. Memory Mode's cache keeps its sets the same way and
//! probes them with the same routine. These properties replay random streams
//! over random geometries on each cache and on a textbook LRU written here —
//! a `Vec` per set, a hit moves its page to the back, a miss drops the front
//! of a full set and appends the page — and require identical outcomes and
//! counters at every step. For the filter the streams are probes,
//! invalidations and flushes, grouped into training steps that repeat with
//! small changes, so that the filter's step memo replays some of them; for
//! Memory Mode they are read and write ranges through `MemorySystem`, and
//! the oracle also keeps a dirty bit per line and counts each dirty line it
//! drops as a write-back.

use sentinel_mem::{
    AccessKind, AccessReport, CacheFilter, CacheFilterSpec, CacheOutcome, HmConfig,
    MemoryModeSpec, MemorySystem, PageRange, Tier,
};
use sentinel_util::prop::check;
use sentinel_util::{prop_assert, prop_assert_eq, Rng};

#[derive(Clone, Debug)]
enum Op {
    ProbeRange(PageRange),
    Probe(u64),
    InvalidateRange(PageRange),
    Invalidate(u64),
    Flush,
    /// A step boundary, marked on the memoizing filter only.
    BeginStep,
}

#[derive(Clone, Debug)]
struct Case {
    sets: usize,
    ways: usize,
    ops: Vec<Op>,
}

/// Textbook set-associative write-back LRU: each set lists its lines as
/// `(page, dirty)`, LRU first.
struct Lru {
    sets: Vec<Vec<(u64, bool)>>,
    ways: usize,
    hits: u64,
    misses: u64,
    /// Dirty lines dropped from a full set.
    writebacks: u64,
}

impl Lru {
    fn new(sets: usize, ways: usize) -> Self {
        Lru { sets: vec![Vec::new(); sets], ways, hits: 0, misses: 0, writebacks: 0 }
    }

    fn set_of(&mut self, page: u64) -> &mut Vec<(u64, bool)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(page % n) as usize]
    }

    /// Access `page`, returning whether it hit. A write leaves the line
    /// dirty; a read keeps a hit line's bit and installs a clean line.
    fn access(&mut self, page: u64, write: bool) -> bool {
        let ways = self.ways;
        let set = self.set_of(page);
        let mut dropped_dirty = false;
        let (hit, dirty) = match set.iter().position(|&(p, _)| p == page) {
            Some(j) => (true, set.remove(j).1),
            None => {
                if set.len() == ways {
                    dropped_dirty = set.remove(0).1;
                }
                (false, false)
            }
        };
        set.push((page, dirty || write));
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        self.writebacks += u64::from(dropped_dirty);
        hit
    }

    fn probe(&mut self, page: u64) -> bool {
        self.access(page, false)
    }

    fn invalidate(&mut self, page: u64) {
        self.set_of(page).retain(|&(p, _)| p != page);
    }

    fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }
}

fn spec(sets: usize, ways: usize) -> CacheFilterSpec {
    CacheFilterSpec {
        capacity_bytes: (sets * ways * 4096) as u64,
        ways,
        line_bytes: 4096,
        hit_latency_ns: 1,
        hit_bw_bytes_per_ns: 100.0,
    }
}

/// Pages come from a window of four times the line count, so ranges (up to
/// three times the line count) overlap and wrap around the sets; a third of
/// them restart at or just past an earlier start, repeating its pages.
fn gen_range(rng: &mut Rng, sets: usize, ways: usize, starts: &mut Vec<u64>) -> PageRange {
    let lines = (sets * ways) as u64;
    let first = if !starts.is_empty() && rng.gen_bool(0.3) {
        *rng.choose(starts) + rng.gen_range(0, sets as u64)
    } else {
        rng.gen_range(0, 4 * lines)
    };
    starts.push(first);
    PageRange::new(first, rng.gen_range(0, 3 * lines + 1))
}

/// One random call: a probe or invalidation of a range or a page, or a flush.
fn gen_call(rng: &mut Rng, sets: usize, ways: usize, starts: &mut Vec<u64>) -> Op {
    let range = gen_range(rng, sets, ways, starts);
    let first = range.first;
    match rng.gen_usize(0, 16) {
        0..=7 => Op::ProbeRange(range),
        8..=10 => Op::Probe(first),
        11..=12 => Op::InvalidateRange(range),
        13..=14 => Op::Invalidate(first),
        _ => Op::Flush,
    }
}

/// A few calls before the first step boundary, then one random step made
/// again and again: mostly verbatim, so that the memo replays it, otherwise
/// with one call changed, inserted or dropped, cut short, or with a flush or
/// an invalidation mid-step.
fn gen_case(rng: &mut Rng) -> Case {
    let sets = rng.gen_usize(1, 14);
    let ways = rng.gen_usize(1, 21);
    let mut starts = Vec::new();
    let mut ops: Vec<Op> = (0..rng.gen_usize(0, 6)).map(|_| gen_call(rng, sets, ways, &mut starts)).collect();
    let step: Vec<Op> = (0..rng.gen_usize(1, 13)).map(|_| gen_call(rng, sets, ways, &mut starts)).collect();
    for _ in 0..rng.gen_usize(1, 8) {
        let mut made = step.clone();
        let at = rng.gen_usize(0, made.len());
        match rng.gen_usize(0, 12) {
            0..=5 => {}
            6 => made[at] = gen_call(rng, sets, ways, &mut starts),
            7 => made.insert(at, gen_call(rng, sets, ways, &mut starts)),
            8 => {
                made.remove(at);
            }
            9 => made.truncate(at),
            10 => made.insert(at, Op::Flush),
            _ => {
                let range = gen_range(rng, sets, ways, &mut starts);
                made.insert(at, if rng.gen_bool(0.5) { Op::InvalidateRange(range) } else { Op::Invalidate(range.first) });
            }
        }
        ops.push(Op::BeginStep);
        ops.extend(made);
    }
    Case { sets, ways, ops }
}

/// Shrink by dropping ops, shortening ranges, and shrinking the geometry.
fn shrink_case(c: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    if c.ops.len() > 1 {
        for keep in [&c.ops[..c.ops.len() / 2], &c.ops[c.ops.len() / 2..]] {
            out.push(Case { ops: keep.to_vec(), ..c.clone() });
        }
        for i in 0..c.ops.len() {
            let mut t = c.clone();
            t.ops.remove(i);
            out.push(t);
        }
    }
    for i in 0..c.ops.len() {
        if let Op::ProbeRange(r) | Op::InvalidateRange(r) = &c.ops[i] {
            if r.count > 0 {
                let mut t = c.clone();
                let shorter = PageRange::new(r.first, r.count / 2);
                t.ops[i] = match c.ops[i] {
                    Op::ProbeRange(_) => Op::ProbeRange(shorter),
                    _ => Op::InvalidateRange(shorter),
                };
                out.push(t);
            }
        }
    }
    if c.sets > 1 {
        out.push(Case { sets: c.sets - 1, ..c.clone() });
    }
    if c.ways > 1 {
        out.push(Case { ways: c.ways - 1, ..c.clone() });
    }
    out
}

#[test]
fn cache_filter_matches_textbook_lru() {
    check("cache_filter_matches_textbook_lru", gen_case, shrink_case, |c| {
        let spec = spec(c.sets, c.ways);
        prop_assert_eq!(spec.sets(), c.sets);
        // `batched` takes the range calls and the step boundaries; `per_page`
        // replays the calls one page at a time, the way
        // `MemorySystem::access_per_page` does, and never hears of steps.
        let mut batched = CacheFilter::new(spec);
        let mut per_page = CacheFilter::new(spec);
        let mut lru = Lru::new(c.sets, c.ways);
        for (n, op) in c.ops.iter().enumerate() {
            match *op {
                Op::ProbeRange(range) => {
                    let got = batched.probe_range(range);
                    let want: Vec<u64> = range.iter().filter(|&p| lru.probe(p)).collect();
                    for p in range.iter() {
                        per_page.probe(p);
                    }
                    let maximal = got.hit_runs.windows(2).all(|w| w[0].end() < w[1].first);
                    prop_assert!(maximal && got.hit_runs.iter().all(|r| r.count > 0), "op {n}: hit runs of {range} are not maximal: {runs:?}", runs = got.hit_runs);
                    prop_assert_eq!(pages(&got.hit_runs), want, "op {n}: hits of {range}");
                    let misses = range.count - got.hits();
                    prop_assert_eq!(got.misses, misses, "op {n}: misses of {range}");
                }
                Op::Probe(p) => {
                    let want = if lru.probe(p) { CacheOutcome::Hit } else { CacheOutcome::Miss };
                    prop_assert_eq!(batched.probe(p), want, "op {n}: probe {p}");
                    per_page.probe(p);
                }
                Op::InvalidateRange(range) => {
                    batched.invalidate_range(range);
                    for p in range.iter() {
                        per_page.invalidate(p);
                        lru.invalidate(p);
                    }
                }
                Op::Invalidate(p) => {
                    batched.invalidate(p);
                    per_page.invalidate(p);
                    lru.invalidate(p);
                }
                Op::Flush => {
                    batched.flush();
                    per_page.flush();
                    lru.flush();
                }
                Op::BeginStep => batched.begin_step(),
            }
            prop_assert_eq!(batched.hits(), lru.hits, "op {n}: hit counter");
            prop_assert_eq!(batched.misses(), lru.misses, "op {n}: miss counter");
            prop_assert_eq!(&batched, &per_page, "op {n}: batched and per-page filters differ");
        }
        // Every page the stream can have cached, once more: the resident
        // sets must agree too, not just the outcomes seen so far.
        let all = PageRange::new(0, 7 * (c.sets * c.ways) as u64);
        let want: Vec<u64> = all.iter().filter(|&p| lru.probe(p)).collect();
        prop_assert_eq!(pages(&batched.probe_range(all).hit_runs), want, "final sweep");
        Ok(())
    });
}

/// The pages of `runs`, in order.
fn pages(runs: &[PageRange]) -> Vec<u64> {
    runs.iter().flat_map(PageRange::iter).collect()
}

/// One timed access of a Memory-Mode stream.
#[derive(Clone, Debug)]
struct MmAccess {
    range: PageRange,
    bytes: u64,
    write: bool,
}

#[derive(Clone, Debug)]
struct MmCase {
    sets: usize,
    ways: usize,
    accesses: Vec<MmAccess>,
}

/// Read and write ranges as in `gen_case`, each carrying from fewer bytes
/// than pages up to three pages per page, so a read miss's fill may or may
/// not reach past its payload.
fn gen_mm_case(rng: &mut Rng) -> MmCase {
    let sets = rng.gen_usize(1, 14);
    let ways = rng.gen_usize(1, 21);
    let mut starts = Vec::new();
    let accesses = (0..rng.gen_usize(1, 41))
        .map(|_| {
            let range = gen_range(rng, sets, ways, &mut starts);
            let bytes = rng.gen_range(0, 3 * 4096 * range.count + 1);
            MmAccess { range, bytes, write: rng.gen_bool(0.5) }
        })
        .collect();
    MmCase { sets, ways, accesses }
}

/// Shrink by dropping accesses, shortening ranges and payloads, turning
/// writes into reads, and shrinking the geometry.
fn shrink_mm_case(c: &MmCase) -> Vec<MmCase> {
    let mut out = Vec::new();
    if c.accesses.len() > 1 {
        for keep in [&c.accesses[..c.accesses.len() / 2], &c.accesses[c.accesses.len() / 2..]] {
            out.push(MmCase { accesses: keep.to_vec(), ..c.clone() });
        }
        for i in 0..c.accesses.len() {
            let mut t = c.clone();
            t.accesses.remove(i);
            out.push(t);
        }
    }
    for (i, a) in c.accesses.iter().enumerate() {
        let mut smaller = Vec::new();
        if a.range.count > 0 {
            smaller.push(MmAccess { range: PageRange::new(a.range.first, a.range.count / 2), ..a.clone() });
        }
        if a.bytes > 0 {
            smaller.push(MmAccess { bytes: a.bytes / 2, ..a.clone() });
        }
        if a.write {
            smaller.push(MmAccess { write: false, ..a.clone() });
        }
        for s in smaller {
            let mut t = c.clone();
            t.accesses[i] = s;
            out.push(t);
        }
    }
    if c.sets > 1 {
        out.push(MmCase { sets: c.sets - 1, ..c.clone() });
    }
    if c.ways > 1 {
        out.push(MmCase { ways: c.ways - 1, ..c.clone() });
    }
    out
}

/// What `access` must report for `a`, replayed page by page on the oracle:
/// every page pays the tag check, a hit is served by DRAM, a read miss fills
/// the page from PMM before DRAM serves it, a write miss installs the line
/// without a fill, and each write-back writes a page to PMM.
fn replay(lru: &mut Lru, a: &MmAccess, cfg: &HmConfig, tag_ns: u64) -> AccessReport {
    let mut want = AccessReport::default();
    if a.range.is_empty() || a.bytes == 0 {
        return want;
    }
    let per_model = (a.bytes / a.range.count).max(1);
    let (base, rem) = (a.bytes / a.range.count, a.bytes % a.range.count);
    for (i, page) in a.range.iter().enumerate() {
        let per_pay = base + u64::from((i as u64) < rem);
        let writebacks = lru.writebacks;
        let hit = lru.access(page, a.write);
        want.elapsed_ns += tag_ns + (lru.writebacks - writebacks) * cfg.slow.access_time_ns(cfg.page_size, true);
        if !hit && !a.write {
            want.elapsed_ns += cfg.slow.access_time_ns(cfg.page_size, false);
        }
        want.elapsed_ns += cfg.fast.access_time_ns(per_model, a.write);
        if hit || a.write {
            want.bytes_fast += per_pay;
        } else {
            want.bytes_slow += per_pay;
        }
    }
    want.mm_accesses = a.range.count;
    want
}

#[test]
fn memory_mode_matches_textbook_write_back_lru() {
    check("memory_mode_matches_textbook_write_back_lru", gen_mm_case, shrink_mm_case, |c| {
        let lines = (c.sets * c.ways) as u64;
        let spec = MemoryModeSpec { capacity_pages: lines, ways: c.ways as u64, tag_check_ns: 10 };
        prop_assert_eq!(spec.sets(), c.sets as u64);
        // Every page a stream reaches is mapped in PMM, as the Memory-Mode
        // baseline maps them; no cache filter sits in front.
        let cfg = HmConfig::testing().with_slow_capacity(7 * lines * 4096);
        let mut m = MemorySystem::new(cfg.clone());
        m.enable_memory_mode(spec);
        let all = m.reserve(7 * lines);
        m.map(all, Tier::Slow, 0).expect("PMM holds every page");
        let mut lru = Lru::new(c.sets, c.ways);
        let sweep = MmAccess { range: all, bytes: all.count, write: false };
        // The final read sweep evicts every line the stream left, so each
        // remaining dirty bit must show up as a write-back.
        for (n, a) in c.accesses.iter().chain([&sweep]).enumerate() {
            let slow = Tier::Slow.index();
            let (read0, written0) = (m.stats().bytes_read[slow], m.stats().bytes_written[slow]);
            let writebacks0 = lru.writebacks;
            let misses0 = lru.misses;
            let kind = if a.write { AccessKind::Write } else { AccessKind::Read };
            let got = m.access(a.range, a.bytes, kind, 0);
            let want = replay(&mut lru, a, &cfg, spec.tag_check_ns);
            prop_assert_eq!(got, want, "op {n}: report of {range}", range = a.range);
            let stats = *m.memory_mode_stats().expect("Memory Mode is on");
            prop_assert_eq!(stats.hits, lru.hits, "op {n}: hit counter");
            prop_assert_eq!(stats.misses, lru.misses, "op {n}: miss counter");
            prop_assert_eq!(stats.writebacks, lru.writebacks, "op {n}: write-back counter");
            // PMM traffic: a read miss reads the whole page or its payload,
            // whichever is larger; each write-back writes one page.
            let per_model = if a.bytes == 0 { 0 } else { (a.bytes / a.range.count.max(1)).max(1) };
            let read_misses = if a.write { 0 } else { lru.misses - misses0 };
            let read = m.stats().bytes_read[slow] - read0;
            prop_assert_eq!(read, read_misses * per_model.max(cfg.page_size), "op {n}: PMM bytes read");
            let written = m.stats().bytes_written[slow] - written0;
            prop_assert_eq!(written, (lru.writebacks - writebacks0) * cfg.page_size, "op {n}: PMM bytes written");
        }
        Ok(())
    });
}
