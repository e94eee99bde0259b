//! The cache filter against an independent LRU oracle.
//!
//! `CacheFilter::probe_range` resolves each set in closed form, and the
//! per-page `CacheFilter::probe` it must agree with shares the filter's
//! recency-ordered representation, so comparing the two alone cannot catch a
//! bug they share. These properties replay random streams of probes,
//! invalidations and flushes over random geometries on the filter and on a
//! textbook LRU written here — a `Vec` per set, a hit moves its page to the
//! back, a miss drops the front of a full set and appends the page — and
//! require identical hit lists and counters at every step.

use sentinel_mem::{CacheFilter, CacheFilterSpec, CacheOutcome, PageRange};
use sentinel_util::prop::check;
use sentinel_util::{prop_assert_eq, Rng};

#[derive(Clone, Debug)]
enum Op {
    ProbeRange(PageRange),
    Probe(u64),
    InvalidateRange(PageRange),
    Invalidate(u64),
    Flush,
}

#[derive(Clone, Debug)]
struct Case {
    sets: usize,
    ways: usize,
    ops: Vec<Op>,
}

/// Textbook set-associative LRU: each set lists its pages, LRU first.
struct Lru {
    sets: Vec<Vec<u64>>,
    ways: usize,
    hits: u64,
    misses: u64,
}

impl Lru {
    fn new(sets: usize, ways: usize) -> Self {
        Lru { sets: vec![Vec::new(); sets], ways, hits: 0, misses: 0 }
    }

    fn set_of(&mut self, page: u64) -> &mut Vec<u64> {
        let n = self.sets.len() as u64;
        &mut self.sets[(page % n) as usize]
    }

    fn probe(&mut self, page: u64) -> bool {
        let ways = self.ways;
        let set = self.set_of(page);
        let hit = match set.iter().position(|&p| p == page) {
            Some(j) => {
                set.remove(j);
                true
            }
            None => {
                if set.len() == ways {
                    set.remove(0);
                }
                false
            }
        };
        set.push(page);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    fn invalidate(&mut self, page: u64) {
        self.set_of(page).retain(|&p| p != page);
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
fn gen_case(rng: &mut Rng) -> Case {
    let sets = rng.gen_usize(1, 14);
    let ways = rng.gen_usize(1, 21);
    let lines = (sets * ways) as u64;
    let window = 4 * lines;
    let mut starts = Vec::new();
    let ops = (0..rng.gen_usize(1, 41))
        .map(|_| {
            let first = if !starts.is_empty() && rng.gen_bool(0.3) {
                *rng.choose(&starts) + rng.gen_range(0, sets as u64)
            } else {
                rng.gen_range(0, window)
            };
            starts.push(first);
            let range = PageRange::new(first, rng.gen_range(0, 3 * lines + 1));
            match rng.gen_usize(0, 16) {
                0..=7 => Op::ProbeRange(range),
                8..=10 => Op::Probe(first),
                11..=12 => Op::InvalidateRange(range),
                13..=14 => Op::Invalidate(first),
                _ => Op::Flush,
            }
        })
        .collect();
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
        // `batched` takes the range calls; `per_page` replays them one page
        // at a time, the way `MemorySystem::access_per_page` does.
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
                    prop_assert_eq!(got.hit_pages, want, "op {n}: hits of {range}");
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
            }
            prop_assert_eq!(batched.hits(), lru.hits, "op {n}: hit counter");
            prop_assert_eq!(batched.misses(), lru.misses, "op {n}: miss counter");
            prop_assert_eq!(&batched, &per_page, "op {n}: batched and per-page filters differ");
        }
        // Every page the stream can have cached, once more: the resident
        // sets must agree too, not just the outcomes seen so far.
        let all = PageRange::new(0, 7 * (c.sets * c.ways) as u64);
        let want: Vec<u64> = all.iter().filter(|&p| lru.probe(p)).collect();
        prop_assert_eq!(batched.probe_range(all).hit_pages, want, "final sweep");
        Ok(())
    });
}
