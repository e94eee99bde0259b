//! Property-based tests on the core data structures and invariants, on the
//! in-tree deterministic harness (`sentinel_util::prop`).

use sentinel::dnn::{PoolSpec, SegmentAllocator};
use sentinel::mem::{
    pages_for_bytes, AccessKind, CacheFilter, CacheFilterSpec, Direction, HmConfig, MemorySystem,
    MigrationEngine, PageRange, Tier,
};
use sentinel_util::prop::{check, no_shrink, shrink_u64, shrink_vec, PropConfig};
use sentinel_util::{prop_assert, prop_assert_eq, Rng};
use std::collections::HashMap;

// ---------------------------------------------------------------- PageRange

#[test]
fn overlap_is_symmetric() {
    check(
        "overlap_is_symmetric",
        |rng: &mut Rng| {
            (rng.gen_range(0, 100), rng.gen_range(0, 20), rng.gen_range(0, 100), rng.gen_range(0, 20))
        },
        no_shrink(),
        |&(a, ac, b, bc)| {
            let ra = PageRange::new(a, ac);
            let rb = PageRange::new(b, bc);
            prop_assert_eq!(ra.overlaps(&rb), rb.overlaps(&ra));
            Ok(())
        },
    );
}

#[test]
fn intersection_is_contained() {
    check(
        "intersection_is_contained",
        |rng: &mut Rng| {
            (rng.gen_range(0, 100), rng.gen_range(1, 20), rng.gen_range(0, 100), rng.gen_range(1, 20))
        },
        no_shrink(),
        |&(a, ac, b, bc)| {
            let ra = PageRange::new(a, ac);
            let rb = PageRange::new(b, bc);
            if let Some(i) = ra.intersection(&rb) {
                prop_assert!(i.count >= 1);
                for p in i.iter() {
                    prop_assert!(ra.contains(p) && rb.contains(p));
                }
            } else {
                prop_assert!(!ra.overlaps(&rb));
            }
            Ok(())
        },
    );
}

#[test]
fn pages_for_bytes_is_minimal() {
    check(
        "pages_for_bytes_is_minimal",
        |rng: &mut Rng| (rng.gen_range(1, 1_000_000), *rng.choose(&[64u64, 512, 4096])),
        // Shrink the byte count only; the page size must stay in its menu.
        |&(bytes, page)| shrink_u64(1)(&bytes).into_iter().map(|b| (b, page)).collect(),
        |&(bytes, page)| {
            let n = pages_for_bytes(bytes, page);
            prop_assert!(n * page >= bytes);
            prop_assert!((n - 1) * page < bytes);
            Ok(())
        },
    );
}

// ------------------------------------------------------------- SegmentAllocator

#[derive(Debug, Clone)]
enum AllocOp {
    Alloc { pool: u8, bytes: u64, aligned: bool },
    FreeOldest,
    FreeNewest,
}

fn alloc_op(rng: &mut Rng) -> AllocOp {
    // Weights 3:1:1, as in the original strategy.
    match rng.gen_usize(0, 5) {
        0..=2 => AllocOp::Alloc {
            pool: rng.gen_range(0, 3) as u8,
            // One allocation in ten spans up to ~300 pages, so pools outgrow
            // their first 256-page chunk, sometimes into an adjacent one.
            bytes: if rng.gen_bool(0.1) { rng.gen_range(1, 1_200_000) } else { rng.gen_range(1, 20_000) },
            aligned: rng.gen_bool(0.5),
        },
        3 => AllocOp::FreeOldest,
        _ => AllocOp::FreeNewest,
    }
}

/// The pool an [`AllocOp::Alloc`] draws from: pools 0 and 1 have a
/// page-aligned twin of their own, while pool 2 serves both alignments.
fn pool_spec(pool: u8, aligned: bool) -> PoolSpec {
    match (aligned, pool) {
        (true, 2) => PoolSpec::page_aligned(2),
        (true, _) => PoolSpec::page_aligned(u64::from(pool) + 100),
        (false, _) => PoolSpec::packed(u64::from(pool)),
    }
}

/// Add one tenant to (or, without `add`, remove one from) every page of
/// `pages` in the per-page model; returns the pages whose tenancy went
/// 0→1 (or 1→0), ascending.
fn model_transitions(tenancy: &mut HashMap<u64, u32>, pages: PageRange, add: bool) -> Vec<u64> {
    let mut crossed = Vec::new();
    for p in pages.iter() {
        let c = tenancy.entry(p).or_insert(0);
        if add {
            *c += 1;
        } else {
            *c = c.checked_sub(1).expect("model tenancy underflow");
        }
        if *c == u32::from(add) {
            crossed.push(p);
        }
    }
    crossed
}

/// Free `a` and check the pages reported emptied against the model.
fn free_checked(
    alloc: &mut SegmentAllocator,
    tenancy: &mut HashMap<u64, u32>,
    a: &sentinel::dnn::Allocation,
) -> Result<(), String> {
    let emptied: Vec<u64> = alloc.free(a).iter().collect();
    let expected = model_transitions(tenancy, a.pages, false);
    prop_assert_eq!(emptied, expected, "freeing {:?} emptied {:?}, model {:?}", a, emptied, expected);
    Ok(())
}

/// Live allocations never overlap in the byte address space, pools never
/// share pages, and the pages each `alloc` reports populated (each `free`
/// reports emptied) are exactly those a per-page tenant count sees go
/// 0→1 (1→0).
#[test]
fn allocator_never_overlaps_live_allocations() {
    PropConfig::from_env().with_cases(64).run(
        "allocator_never_overlaps_live_allocations",
        |rng: &mut Rng| {
            let n = rng.gen_usize(1, 60);
            (0..n).map(|_| alloc_op(rng)).collect::<Vec<_>>()
        },
        shrink_vec(1, |op: &AllocOp| match op {
            AllocOp::Alloc { pool, bytes, aligned } => shrink_u64(1)(bytes)
                .into_iter()
                .map(|b| AllocOp::Alloc { pool: *pool, bytes: b, aligned: *aligned })
                .collect(),
            _ => Vec::new(),
        }),
        |ops| {
            let mut mem = MemorySystem::new(HmConfig::testing().with_slow_capacity(1 << 30));
            let mut alloc = SegmentAllocator::new(4096);
            let mut live: Vec<(u8, sentinel::dnn::Allocation)> = Vec::new();
            let mut tenancy: HashMap<u64, u32> = HashMap::new();

            for op in ops {
                match *op {
                    AllocOp::Alloc { pool, bytes, aligned } => {
                        let a = alloc.alloc(&mut mem, pool_spec(pool, aligned), bytes);
                        prop_assert!(a.bytes >= bytes);
                        let populated: Vec<u64> = a.new_pages.iter().collect();
                        let expected = model_transitions(&mut tenancy, a.pages, true);
                        prop_assert_eq!(populated, expected, "{:?} populated {:?}, model {:?}", a, populated, expected);
                        live.push((pool, a));
                    }
                    AllocOp::FreeOldest => {
                        if !live.is_empty() {
                            let (_, a) = live.remove(0);
                            free_checked(&mut alloc, &mut tenancy, &a)?;
                        }
                    }
                    AllocOp::FreeNewest => {
                        if let Some((_, a)) = live.pop() {
                            free_checked(&mut alloc, &mut tenancy, &a)?;
                        }
                    }
                }
                // No two live allocations overlap in byte space.
                for i in 0..live.len() {
                    for j in (i + 1)..live.len() {
                        let (a, b) = (&live[i].1, &live[j].1);
                        let disjoint = a.addr + a.bytes <= b.addr || b.addr + b.bytes <= a.addr;
                        prop_assert!(disjoint, "allocations overlap: {a:?} vs {b:?}");
                    }
                }
            }
            // Draining everything empties every page it populated.
            for (_, a) in live.drain(..) {
                free_checked(&mut alloc, &mut tenancy, &a)?;
            }
            prop_assert!(tenancy.values().all(|&c| c == 0));
            prop_assert_eq!(alloc.live_bytes(), 0);
            Ok(())
        },
    );
}

// ------------------------------------------------------------- MigrationEngine

/// One operation on a [`MigrationEngine`], as `MemorySystem` issues them.
#[derive(Debug, Clone)]
enum EngineOp {
    /// Issue a batch on the `(promote, urgent)` lane, `delay` ns after the
    /// clock (a retry is issued at its backoff's end), with an injected
    /// stall, a failure verdict and a retry attempt number.
    Issue {
        first: u64,
        count: u64,
        promote: bool,
        urgent: bool,
        delay: u64,
        stall: u64,
        failed: bool,
        attempt: u32,
    },
    /// Change the lane share to `num / den`.
    Share { num: u64, den: u64 },
    /// Advance the clock by `dt` and drain.
    Drain { dt: u64 },
    /// Advance the clock by `dt` and cancel what is pending.
    Cancel { dt: u64 },
    /// Advance the clock by `dt`, then drain and cancel at that instant.
    Partition { dt: u64 },
}

fn engine_op(rng: &mut Rng) -> EngineOp {
    match rng.gen_usize(0, 10) {
        0..=4 => EngineOp::Issue {
            first: rng.gen_range(0, 100),
            count: rng.gen_range(1, 8),
            promote: rng.gen_bool(0.5),
            urgent: rng.gen_bool(0.3),
            delay: if rng.gen_bool(0.2) { rng.gen_range(1, 100_000) } else { 0 },
            stall: if rng.gen_bool(0.3) { rng.gen_range(1, 60_000) } else { 0 },
            failed: rng.gen_bool(0.2),
            attempt: if rng.gen_bool(0.2) { rng.gen_range(1, 3) as u32 } else { 0 },
        },
        5 => {
            let den = rng.gen_range(1, 5);
            EngineOp::Share { num: rng.gen_range(1, den + 1), den }
        }
        6 | 7 => EngineOp::Drain { dt: rng.gen_range(0, 20_000) },
        8 => EngineOp::Cancel { dt: rng.gen_range(0, 20_000) },
        _ => EngineOp::Partition { dt: rng.gen_range(0, 20_000) },
    }
}

/// Each lane runs its batches one after another in issue order, its
/// reservations cover what it holds, and a drain plus a cancel at one
/// instant partition the in-flight set. Driven through every engine entry
/// `MemorySystem` uses: perturbed issues on all four lanes (urgent, stalled,
/// failed, retries issued in the future), lane-share changes, and drains
/// and cancels at random times.
#[test]
fn migration_engine_timestamps_are_monotone() {
    PropConfig::from_env().with_cases(64).run(
        "migration_engine_timestamps_are_monotone",
        |rng: &mut Rng| {
            let n = rng.gen_usize(1, 60);
            (0..n).map(|_| engine_op(rng)).collect::<Vec<_>>()
        },
        shrink_vec(1, no_shrink()),
        |ops| {
            let mut e = MigrationEngine::new(2.0, 1.0, 50, 4096);
            let mut issued_at: HashMap<u64, u64> = HashMap::new();
            let mut now = 0u64;
            for op in ops {
                match *op {
                    EngineOp::Issue { first, count, promote, urgent, delay, stall, failed, attempt } => {
                        let dir = if promote { Direction::Promote } else { Direction::Demote };
                        let at = now + delay;
                        let range = PageRange::new(first, count);
                        let t = e.enqueue_perturbed(range, dir, at, urgent, stall, failed, attempt);
                        prop_assert!(t.ready_at >= at);
                        issued_at.insert(t.id, at);
                    }
                    EngineOp::Share { num, den } => e.set_lane_share(num, den),
                    EngineOp::Drain { dt } => {
                        now += dt;
                        let done = e.drain_completed(now);
                        prop_assert!(done.iter().all(|f| f.ready_at <= now));
                        prop_assert!(done.windows(2).all(|w| w[0].id < w[1].id));
                    }
                    EngineOp::Cancel { dt } => {
                        now += dt;
                        let cancelled = e.cancel_pending(now);
                        prop_assert!(cancelled.iter().all(|f| f.ready_at > now));
                        prop_assert!(cancelled.windows(2).all(|w| w[0].id < w[1].id));
                    }
                    EngineOp::Partition { dt } => {
                        now += dt;
                        let mut before: Vec<u64> = e.in_flight().map(|f| f.id).collect();
                        let done = e.drain_completed(now);
                        let cancelled = e.cancel_pending(now);
                        prop_assert!(done.iter().all(|f| f.ready_at <= now));
                        prop_assert!(cancelled.iter().all(|f| f.ready_at > now));
                        prop_assert!(e.in_flight().next().is_none());
                        let mut after: Vec<u64> = done.iter().chain(&cancelled).map(|f| f.id).collect();
                        before.sort_unstable();
                        after.sort_unstable();
                        prop_assert_eq!(before, after);
                    }
                }
                for promote in [true, false] {
                    let dir = if promote { Direction::Promote } else { Direction::Demote };
                    for urgent in [false, true] {
                        let mut lane: Vec<_> =
                            e.in_flight().filter(|f| f.direction == dir && f.urgent == urgent).collect();
                        lane.sort_unstable_by_key(|f| f.id);
                        for f in &lane {
                            prop_assert!(f.started_at >= issued_at[&f.id], "{} started early", f.id);
                            prop_assert!(e.quiescent_at() >= f.ready_at, "quiescent before {}", f.id);
                            if !urgent {
                                prop_assert!(e.busy_until(dir) >= f.ready_at, "idle before {}", f.id);
                            }
                        }
                        for w in lane.windows(2) {
                            prop_assert!(w[0].started_at <= w[1].started_at, "{dir:?} starts went back");
                            prop_assert!(w[0].ready_at <= w[1].ready_at, "{dir:?} completions went back");
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

// ------------------------------------------------------------- MemorySystem

/// Mapping, migrating and unmapping conserves page counts; capacity is
/// never exceeded.
#[test]
fn page_accounting_conserves_pages() {
    PropConfig::from_env().with_cases(48).run(
        "page_accounting_conserves_pages",
        |rng: &mut Rng| {
            let n = rng.gen_usize(1, 40);
            (0..n).map(|_| (rng.gen_range(1, 6), rng.gen_bool(0.5))).collect::<Vec<_>>()
        },
        shrink_vec(1, no_shrink()),
        |ops| {
            let cfg =
                HmConfig::testing().with_fast_capacity(64 * 4096).with_slow_capacity(1024 * 4096);
            let fast_cap = cfg.fast_pages();
            let slow_cap = cfg.slow_pages();
            let mut mem = MemorySystem::new(cfg);
            let mut mapped: Vec<(PageRange, bool)> = Vec::new(); // (range, migrated flag unused)
            let mut now = 0u64;
            let mut total_pages = 0u64;

            for &(count, prefer_fast) in ops {
                now += 1_000_000; // plenty of time: all migrations complete
                mem.poll(now);
                let r = mem.reserve(count);
                let tier = if prefer_fast { Tier::Fast } else { Tier::Slow };
                let ok = mem.map(r, tier, now).is_ok() || mem.map(r, tier.other(), now).is_ok();
                if ok {
                    mapped.push((r, false));
                    total_pages += count;
                }
                // Occasionally migrate the oldest mapped range.
                if mapped.len() > 2 {
                    let (range, _) = mapped[0];
                    if let Some(t) = mem.tier_of(range.first) {
                        let _ = mem.migrate(range, t.other(), now);
                    }
                }
                mem.poll(now + 500_000);
                let used = mem.used_pages(Tier::Fast) + mem.used_pages(Tier::Slow);
                prop_assert!(mem.used_pages(Tier::Fast) <= fast_cap);
                prop_assert!(mem.used_pages(Tier::Slow) <= slow_cap);
                prop_assert!(used >= total_pages, "pages lost: used {} < mapped {}", used, total_pages);
            }
            // Unmap everything: zero usage remains.
            now += 10_000_000;
            mem.poll(now);
            for (r, _) in mapped {
                mem.unmap(r, now).unwrap();
            }
            prop_assert_eq!(mem.used_pages(Tier::Fast) + mem.used_pages(Tier::Slow), 0);
            Ok(())
        },
    );
}

/// The access path conserves accounting: mm accesses + cache hits equal
/// the pages touched.
#[test]
fn access_accounting_conserves_pages() {
    PropConfig::from_env().with_cases(48).run(
        "access_accounting_conserves_pages",
        |rng: &mut Rng| {
            let n = rng.gen_usize(1, 40);
            (0..n)
                .map(|_| (rng.gen_range(0, 32), rng.gen_range(1, 8), rng.gen_bool(0.5)))
                .collect::<Vec<_>>()
        },
        shrink_vec(1, no_shrink()),
        |spans| {
            let mut cfg = HmConfig::testing().with_slow_capacity(1 << 22);
            cfg.cache = Some(CacheFilterSpec {
                capacity_bytes: 8 * 4096,
                ways: 2,
                line_bytes: 4096,
                hit_latency_ns: 1,
                hit_bw_bytes_per_ns: 100.0,
            });
            let mut mem = MemorySystem::new(cfg);
            let r = mem.reserve(64);
            mem.map(r, Tier::Slow, 0).unwrap();
            for &(first, count, write) in spans {
                let range = PageRange::new(first.min(56), count);
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                let rep = mem.access(range, count * 4096, kind, 0);
                prop_assert_eq!(rep.mm_accesses + rep.cache_hits, range.count);
                prop_assert_eq!(rep.bytes_fast, 0); // everything lives in slow
                prop_assert!(rep.elapsed_ns > 0);
            }
            Ok(())
        },
    );
}

// ------------------------------------------------------------- CacheFilter

#[test]
fn cache_filter_conserves_probes() {
    check(
        "cache_filter_conserves_probes",
        |rng: &mut Rng| {
            let n = rng.gen_usize(1, 200);
            (0..n).map(|_| rng.gen_range(0, 64)).collect::<Vec<_>>()
        },
        shrink_vec(1, shrink_u64(0)),
        |pages| {
            let mut c = CacheFilter::new(CacheFilterSpec {
                capacity_bytes: 16 * 4096,
                ways: 4,
                line_bytes: 4096,
                hit_latency_ns: 1,
                hit_bw_bytes_per_ns: 10.0,
            });
            for &p in pages {
                c.probe(p);
            }
            prop_assert_eq!(c.hits() + c.misses(), pages.len() as u64);
            // A second probe of the most recent page always hits.
            let last = *pages.last().unwrap();
            prop_assert_eq!(c.probe(last), sentinel::mem::CacheOutcome::Hit);
            Ok(())
        },
    );
}
