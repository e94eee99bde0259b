//! Equivalence contract of the run-granular access fast path.
//!
//! `MemorySystem::access` resolves a range in O(runs) via the batched cache
//! probe, bulk fault recording and Memory-Mode run access;
//! `MemorySystem::access_per_page` is the kept per-page reference. These
//! properties drive both over randomized layouts and access streams and
//! require *identical* observable behaviour: every `AccessReport`, the
//! aggregate stats, the traffic timeline, the page table, and the internal
//! state of the cache filter, profiler and Memory-Mode cache. A further
//! property holds `MemorySystem::begin_step` to the same standard: marking
//! training steps, which lets the cache filter replay a repeated step, must
//! change nothing observable. The last one pins the migration abort, which
//! holds each re-issued run as one page-by-page batch, to
//! `MemorySystem::cancel_overlapping_per_page`, the kept reference that
//! re-issues each page through `migrate`.

use sentinel_mem::{
    AccessKind, CacheFilterSpec, FaultInjector, FaultProfile, HmConfig, MemoryModeSpec,
    MemorySystem, PageRange, PageState, Pte, SanitizerMode, Tier, TraceHandle, TraceLevel,
};
use sentinel_util::prop::check;
use sentinel_util::{prop_assert, prop_assert_eq, Json, Rng};
use std::sync::atomic::{AtomicU64, Ordering};

/// One timed access of the stream.
#[derive(Clone, Debug)]
struct Access {
    first: u64,
    count: u64,
    bytes: u64,
    write: bool,
}

/// A randomized system layout plus an access stream.
#[derive(Clone, Debug)]
struct Scenario {
    pages: u64,
    /// Cache filter geometry as `(sets, ways)`, if the filter is on.
    cache: Option<(usize, usize)>,
    /// Ways of an 8-page Memory-Mode cache, if Memory Mode is on.
    memmode: Option<u64>,
    profiling: bool,
    /// `(first, count, to_fast)` map attempts (failures are fine — they fail
    /// identically on both systems).
    maps: Vec<(u64, u64, bool)>,
    /// `(first, count)` unmap attempts, punching unmapped holes.
    unmaps: Vec<(u64, u64)>,
    /// `(first, count, to_fast)` migrations left in flight during the stream.
    migrations: Vec<(u64, u64, bool)>,
    accesses: Vec<Access>,
}

/// Small tiers and a small cache filter: either 2 sets × 2 ways, where a
/// few pages span many times the line count, or 16-way like the shipped
/// presets with a few sets, where a set's lines reach ranks up to 15.
fn config(cache: Option<(usize, usize)>) -> HmConfig {
    let mut cfg = HmConfig::testing()
        .with_fast_capacity(256 * 4096)
        .with_slow_capacity(4096 * 4096);
    if let Some((sets, ways)) = cache {
        cfg.cache = Some(CacheFilterSpec {
            capacity_bytes: (sets * ways) as u64 * 4096,
            ways,
            line_bytes: 4096,
            hit_latency_ns: 1,
            hit_bw_bytes_per_ns: 100.0,
        });
    }
    cfg
}

fn build(s: &Scenario) -> MemorySystem {
    let mut m = MemorySystem::new(config(s.cache));
    m.enable_timeline(1_000);
    if let Some(ways) = s.memmode {
        m.enable_memory_mode(MemoryModeSpec { ways, ..MemoryModeSpec::with_capacity_pages(8) });
    }
    m.reserve(s.pages);
    for &(first, count, fast) in &s.maps {
        let tier = if fast { Tier::Fast } else { Tier::Slow };
        let _ = m.map(PageRange::new(first, count), tier, 0);
    }
    for &(first, count) in &s.unmaps {
        let _ = m.unmap(PageRange::new(first, count), 0);
    }
    for &(first, count, fast) in &s.migrations {
        let tier = if fast { Tier::Fast } else { Tier::Slow };
        let _ = m.migrate(PageRange::new(first, count), tier, 0);
    }
    if s.profiling {
        m.start_profiling();
    }
    m
}

fn gen_scenario(rng: &mut Rng) -> Scenario {
    let cache = match rng.gen_usize(0, 10) {
        0..=3 => Some((2, 2)),
        4..=6 => Some((rng.gen_usize(2, 5), 16)),
        _ => None,
    };
    // The 16-way filter holds 32-64 lines; its layouts are up to 256 pages,
    // so ranges still span several times the line count.
    let pages = match cache {
        Some((_, 16)) => rng.gen_range(1, 256),
        _ => rng.gen_range(1, 96),
    };
    let sub = |rng: &mut Rng| {
        let first = rng.gen_range(0, pages);
        let count = rng.gen_range(1, pages - first + 1);
        (first, count)
    };
    let maps = (0..rng.gen_usize(0, 7))
        .map(|_| {
            let (first, count) = sub(rng);
            (first, count, rng.gen_bool(0.4))
        })
        .collect();
    let unmaps = (0..rng.gen_usize(0, 3)).map(|_| sub(rng)).collect();
    let migrations = (0..rng.gen_usize(0, 3))
        .map(|_| {
            let (first, count) = sub(rng);
            (first, count, rng.gen_bool(0.5))
        })
        .collect();
    let accesses = (0..rng.gen_usize(1, 9))
        .map(|_| {
            let first = rng.gen_range(0, pages);
            // Occasionally run past the table to exercise the synthetic
            // unmapped tail.
            let count = rng.gen_range(1, pages + 9 - first);
            // From fewer bytes than pages up to several pages per page.
            let bytes = rng.gen_range(0, 3 * 4096 * count);
            Access { first, count, bytes, write: rng.gen_bool(0.5) }
        })
        .collect();
    Scenario {
        pages,
        cache,
        memmode: rng.gen_bool(0.4).then(|| *rng.choose(&[1, 2, 4, 8])),
        profiling: rng.gen_bool(0.5),
        maps,
        unmaps,
        migrations,
        accesses,
    }
}

/// Shrink by dropping setup ops and accesses, switching features off,
/// halving Memory Mode's ways, and reducing individual access
/// payloads/extents.
fn shrink_scenario(s: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    for i in 0..s.accesses.len() {
        if s.accesses.len() > 1 {
            let mut t = s.clone();
            t.accesses.remove(i);
            out.push(t);
        }
    }
    for i in 0..s.maps.len() {
        let mut t = s.clone();
        t.maps.remove(i);
        out.push(t);
    }
    for i in 0..s.unmaps.len() {
        let mut t = s.clone();
        t.unmaps.remove(i);
        out.push(t);
    }
    for i in 0..s.migrations.len() {
        let mut t = s.clone();
        t.migrations.remove(i);
        out.push(t);
    }
    for toggle in [
        |t: &mut Scenario| t.cache = None,
        |t: &mut Scenario| t.memmode = None,
        |t: &mut Scenario| t.memmode = t.memmode.map(|ways| (ways / 2).max(1)),
        |t: &mut Scenario| t.profiling = false,
    ] {
        let mut t = s.clone();
        toggle(&mut t);
        if (t.cache, t.memmode, t.profiling) != (s.cache, s.memmode, s.profiling) {
            out.push(t);
        }
    }
    for i in 0..s.accesses.len() {
        let a = &s.accesses[i];
        if a.bytes > 0 {
            for bytes in [0, a.bytes / 2] {
                let mut t = s.clone();
                t.accesses[i].bytes = bytes;
                out.push(t);
            }
        }
        if a.count > 1 {
            let mut t = s.clone();
            t.accesses[i].count = a.count / 2;
            out.push(t);
        }
    }
    out
}

#[test]
fn batched_access_is_equivalent_to_per_page() {
    check(
        "batched_access_is_equivalent_to_per_page",
        gen_scenario,
        shrink_scenario,
        |s| {
            let mut fast = build(s);
            let mut reference = build(s);
            let mut now = 0u64;
            for (i, acc) in s.accesses.iter().enumerate() {
                let range = PageRange::new(acc.first, acc.count);
                let kind = if acc.write { AccessKind::Write } else { AccessKind::Read };
                let ra = fast.access(range, acc.bytes, kind, now);
                let rb = reference.access_per_page(range, acc.bytes, kind, now);
                prop_assert_eq!(ra, rb, "report {i} diverged for {range}: {ra:?} vs {rb:?}");
                now += 700; // stride across timeline buckets
            }
            prop_assert_eq!(fast.stats(), reference.stats());
            prop_assert_eq!(fast.timeline(), reference.timeline());
            prop_assert_eq!(fast.page_table(), reference.page_table());
            prop_assert_eq!(fast.cache_filter(), reference.cache_filter());
            prop_assert_eq!(fast.memory_mode(), reference.memory_mode());
            prop_assert_eq!(fast.profiler(), reference.profiler());
            prop_assert_eq!(fast.unmapped_accesses(), reference.unmapped_accesses());
            Ok(())
        },
    );
}

#[test]
fn access_conserves_bytes_exactly() {
    check(
        "access_conserves_bytes_exactly",
        gen_scenario,
        shrink_scenario,
        |s| {
            let mut m = build(s);
            for acc in &s.accesses {
                let range = PageRange::new(acc.first, acc.count);
                let kind = if acc.write { AccessKind::Write } else { AccessKind::Read };
                let rep = m.access(range, acc.bytes, kind, 0);
                // Every requested byte lands in exactly one of the three
                // service classes — no truncation, no inflation.
                prop_assert_eq!(
                    rep.bytes_fast + rep.bytes_slow + rep.bytes_cache,
                    acc.bytes,
                    "bytes not conserved for {range} carrying {bytes}: {rep:?}",
                    range = range,
                    bytes = acc.bytes
                );
                // Every page is accounted exactly once.
                prop_assert_eq!(rep.mm_accesses + rep.cache_hits, if acc.bytes == 0 { 0 } else { acc.count });
            }
            Ok(())
        },
    );
}

/// One operation of a training step.
#[derive(Clone, Debug)]
enum StepOp {
    /// `(first, count, to_fast)`.
    Map(u64, u64, bool),
    /// `(first, count)`.
    Unmap(u64, u64),
    /// `(first, count, to_fast)`.
    Migrate(u64, u64, bool),
    Access(Access),
    /// Advance the clock this far and poll.
    Poll(u64),
}

/// A layout with the cache filter on, and one step made several times.
#[derive(Clone, Debug)]
struct Steps {
    layout: Scenario,
    step: Vec<StepOp>,
    /// For each step made, the index of an op it leaves out; one past the
    /// end leaves out nothing, so most steps repeat verbatim.
    skips: Vec<usize>,
}

fn gen_steps(rng: &mut Rng) -> Steps {
    let mut layout = gen_scenario(rng);
    layout.cache = layout.cache.or(Some((2, 2)));
    layout.accesses.clear();
    let pages = layout.pages;
    let sub = |rng: &mut Rng| {
        let first = rng.gen_range(0, pages);
        (first, rng.gen_range(1, pages - first + 1))
    };
    let step: Vec<StepOp> = (0..rng.gen_usize(1, 13))
        .map(|_| {
            let (first, count) = sub(rng);
            match rng.gen_usize(0, 10) {
                0 => StepOp::Map(first, count, rng.gen_bool(0.4)),
                1 => StepOp::Unmap(first, count),
                2 => StepOp::Migrate(first, count, rng.gen_bool(0.5)),
                3 => StepOp::Poll(rng.gen_range(0, 50_000)),
                _ => {
                    let bytes = rng.gen_range(0, 3 * 4096 * count);
                    StepOp::Access(Access { first, count, bytes, write: rng.gen_bool(0.5) })
                }
            }
        })
        .collect();
    let skips = (0..rng.gen_usize(1, 7))
        .map(|_| if rng.gen_bool(0.7) { step.len() } else { rng.gen_usize(0, step.len()) })
        .collect();
    Steps { layout, step, skips }
}

/// Shrink by dropping ops and steps, and by repeating steps verbatim.
fn shrink_steps(s: &Steps) -> Vec<Steps> {
    let mut out = Vec::new();
    for i in 0..s.step.len() {
        if s.step.len() > 1 {
            let mut t = s.clone();
            t.step.remove(i);
            for skip in &mut t.skips {
                *skip = (*skip).min(t.step.len());
            }
            out.push(t);
        }
    }
    for i in 0..s.skips.len() {
        if s.skips.len() > 1 {
            let mut t = s.clone();
            t.skips.remove(i);
            out.push(t);
        }
        if s.skips[i] < s.step.len() {
            let mut t = s.clone();
            t.skips[i] = s.step.len();
            out.push(t);
        }
    }
    out
}

#[test]
fn marking_steps_changes_nothing() {
    check("marking_steps_changes_nothing", gen_steps, shrink_steps, |s| {
        let mut stepped = build(&s.layout);
        let mut plain = build(&s.layout);
        let mut now = 0u64;
        for (n, &skip) in s.skips.iter().enumerate() {
            stepped.begin_step();
            for (i, op) in s.step.iter().enumerate().filter(|&(i, _)| i != skip) {
                let tier = |fast: bool| if fast { Tier::Fast } else { Tier::Slow };
                match *op {
                    StepOp::Map(first, count, fast) => {
                        let range = PageRange::new(first, count);
                        prop_assert_eq!(stepped.map(range, tier(fast), now), plain.map(range, tier(fast), now), "step {n}, op {i}: map {range}");
                    }
                    StepOp::Unmap(first, count) => {
                        let range = PageRange::new(first, count);
                        prop_assert_eq!(stepped.unmap(range, now), plain.unmap(range, now), "step {n}, op {i}: unmap {range}");
                    }
                    StepOp::Migrate(first, count, fast) => {
                        let range = PageRange::new(first, count);
                        prop_assert_eq!(stepped.migrate(range, tier(fast), now), plain.migrate(range, tier(fast), now), "step {n}, op {i}: migrate {range}");
                    }
                    StepOp::Access(ref acc) => {
                        let range = PageRange::new(acc.first, acc.count);
                        let kind = if acc.write { AccessKind::Write } else { AccessKind::Read };
                        let got = stepped.access(range, acc.bytes, kind, now);
                        prop_assert_eq!(got, plain.access(range, acc.bytes, kind, now), "step {n}, op {i}: access {range}");
                        now += got.elapsed_ns;
                    }
                    StepOp::Poll(dt) => {
                        now += dt;
                        stepped.poll(now);
                        plain.poll(now);
                    }
                }
            }
            prop_assert_eq!(stepped.cache_filter(), plain.cache_filter(), "step {n}: cache filters differ");
        }
        prop_assert_eq!(stepped.stats(), plain.stats());
        prop_assert_eq!(stepped.timeline(), plain.timeline());
        prop_assert_eq!(stepped.page_table(), plain.page_table());
        prop_assert_eq!(stepped.cache_filter(), plain.cache_filter());
        prop_assert_eq!(stepped.memory_mode(), plain.memory_mode());
        prop_assert_eq!(stepped.profiler(), plain.profiler());
        prop_assert_eq!(stepped.unmapped_accesses(), plain.unmapped_accesses());
        Ok(())
    });
}

/// One operation of an abort stream. Each acts on the sub-ranges of its
/// `(first, count)` where it can: the unmapped runs for a map, the mapped
/// runs for an unmap, the runs movable to the destination for a migration.
#[derive(Clone, Debug)]
enum AbortOp {
    /// `(first, count, to_fast)`; a run the fast tier refuses goes slow.
    Map(u64, u64, bool),
    Unmap(u64, u64),
    /// `(first, count, to_fast, urgent)`.
    Migrate(u64, u64, bool, bool),
    Access(Access),
    /// `cancel_overlapping` of the range.
    Cancel(u64, u64),
    /// Advance the clock this far and poll.
    Poll(u64),
    /// Advance the clock this far without polling.
    Advance(u64),
    /// Set or lift a fast-tier quota, as a multi-tenant arbiter does; one
    /// below usage leaves no fast page free for a re-issue.
    Quota(Option<u64>),
}

/// A small, fully mapped system whose fast tier is near full, and a stream
/// of operations that leaves migrations in flight when ranges are freed or
/// cancelled.
#[derive(Clone, Debug)]
struct AbortStream {
    pages: u64,
    fast_pages: u64,
    /// Migration lane share `(num, den)`, if not whole.
    share: Option<(u64, u64)>,
    /// Seed of a heavy fault injector, if one is installed.
    faults: Option<u64>,
    ops: Vec<AbortOp>,
    /// Ranges whose `range_ready_at` is compared after every operation.
    probes: Vec<(u64, u64)>,
}

fn gen_abort_stream(rng: &mut Rng) -> AbortStream {
    let pages = rng.gen_range(8, 64);
    let sub = |rng: &mut Rng| {
        let first = rng.gen_range(0, pages);
        (first, rng.gen_range(1, (pages - first).min(24) + 1))
    };
    let ops = (0..rng.gen_usize(4, 48))
        .map(|_| {
            let (first, count) = sub(rng);
            match rng.gen_usize(0, 13) {
                12 => AbortOp::Quota(rng.gen_bool(0.7).then(|| rng.gen_range(0, 24))),
                0 => AbortOp::Map(first, count, rng.gen_bool(0.6)),
                1..=4 => AbortOp::Migrate(first, count, rng.gen_bool(0.5), rng.gen_bool(0.2)),
                5 => AbortOp::Unmap(first, count),
                6..=7 => AbortOp::Cancel(first, count),
                8 => {
                    let bytes = rng.gen_range(0, 2 * 4096 * count);
                    AbortOp::Access(Access { first, count, bytes, write: rng.gen_bool(0.5) })
                }
                9..=10 => AbortOp::Poll(rng.gen_range(0, 40_000)),
                _ => AbortOp::Advance(rng.gen_range(0, 20_000)),
            }
        })
        .collect();
    AbortStream {
        pages,
        fast_pages: rng.gen_range(2, pages.min(24)),
        share: rng.gen_bool(0.2).then(|| (rng.gen_range(1, 3), 3)),
        faults: rng.gen_bool(0.5).then(|| rng.gen_range(0, 1 << 32)),
        ops,
        probes: (0..6).map(|_| sub(rng)).collect(),
    }
}

/// Shrink by dropping operations and probes and removing the injector and
/// the lane share.
fn shrink_abort_stream(s: &AbortStream) -> Vec<AbortStream> {
    let mut out = Vec::new();
    for i in 0..s.ops.len() {
        let mut t = s.clone();
        t.ops.remove(i);
        out.push(t);
    }
    for i in 0..s.probes.len() {
        let mut t = s.clone();
        t.probes.remove(i);
        out.push(t);
    }
    if s.faults.is_some() {
        out.push(AbortStream { faults: None, ..s.clone() });
    }
    if s.share.is_some() {
        out.push(AbortStream { share: None, ..s.clone() });
    }
    out
}

/// The system, with all but one of the fast tier's pages mapped there and
/// the rest of the pages in the slow tier.
fn build_abort_system(s: &AbortStream) -> MemorySystem {
    let mut m = MemorySystem::new(
        HmConfig::testing().with_fast_capacity(s.fast_pages * 4096).with_slow_capacity(1024 * 4096),
    );
    m.enable_timeline(5_000);
    m.set_tracer(TraceHandle::new(TraceLevel::Full));
    m.set_sanitizer_mode(SanitizerMode::Events);
    if let Some((num, den)) = s.share {
        m.set_migration_lane_share(num, den);
    }
    if let Some(seed) = s.faults {
        m.set_fault_injector(FaultInjector::new(FaultProfile::heavy(), seed));
    }
    let all = m.reserve(s.pages);
    let fast = s.fast_pages - 1;
    m.map(PageRange::new(0, fast), Tier::Fast, 0).unwrap();
    m.map(PageRange::new(fast, all.count - fast), Tier::Slow, 0).unwrap();
    m
}

/// The runs of `range` whose pages pass `keep`.
fn runs_where(m: &MemorySystem, range: PageRange, keep: impl Fn(Pte) -> bool) -> Vec<PageRange> {
    m.page_table().runs_in(range).filter(|run| keep(run.pte)).map(|run| run.range).collect()
}

/// Cancels after which pages were re-issued, across every case.
static REISSUES: AtomicU64 = AtomicU64::new(0);

#[test]
fn abort_matches_the_per_page_reference() {
    check("abort_matches_the_per_page_reference", gen_abort_stream, shrink_abort_stream, |s| {
        let mut held = build_abort_system(s);
        let mut reference = build_abort_system(s);
        let mut now = 0u64;
        let tier = |fast: bool| if fast { Tier::Fast } else { Tier::Slow };
        for (i, op) in s.ops.iter().enumerate() {
            match *op {
                AbortOp::Map(first, count, fast) => {
                    let unmapped = |pte: Pte| pte.state == PageState::Unmapped;
                    for run in runs_where(&held, PageRange::new(first, count), unmapped) {
                        for m in [&mut held, &mut reference] {
                            if m.map(run, tier(fast), now).is_err() {
                                m.map(run, Tier::Slow, now).unwrap();
                            }
                        }
                    }
                }
                AbortOp::Unmap(first, count) => {
                    let mapped = |pte: Pte| pte.state != PageState::Unmapped;
                    for run in runs_where(&held, PageRange::new(first, count), mapped) {
                        // The unmap aborts migrations in flight; the
                        // reference aborts them per page first.
                        if reference.page_table().any_in_flight(run) {
                            reference.cancel_overlapping_per_page(run, now);
                        }
                        prop_assert_eq!(held.unmap(run, now), reference.unmap(run, now), "op {i}: unmap {run}");
                    }
                }
                AbortOp::Migrate(first, count, fast, urgent) => {
                    let range = PageRange::new(first, count);
                    for run in held.subranges_in_tier(range, tier(!fast)) {
                        let (a, b) = if urgent {
                            (held.migrate_urgent(run, tier(fast), now), reference.migrate_urgent(run, tier(fast), now))
                        } else {
                            (held.migrate(run, tier(fast), now), reference.migrate(run, tier(fast), now))
                        };
                        prop_assert_eq!(a, b, "op {i}: migrate {run}");
                    }
                }
                AbortOp::Access(ref acc) => {
                    let range = PageRange::new(acc.first, acc.count);
                    let kind = if acc.write { AccessKind::Write } else { AccessKind::Read };
                    let got = held.access(range, acc.bytes, kind, now);
                    prop_assert_eq!(got, reference.access(range, acc.bytes, kind, now), "op {i}: access {range}");
                    now += got.elapsed_ns;
                }
                AbortOp::Cancel(first, count) => {
                    let range = PageRange::new(first, count);
                    held.cancel_overlapping(range, now);
                    reference.cancel_overlapping_per_page(range, now);
                    if held.page_table().in_flight_count() > 0 {
                        REISSUES.fetch_add(1, Ordering::Relaxed);
                    }
                }
                AbortOp::Poll(dt) => {
                    now += dt;
                    held.poll(now);
                    reference.poll(now);
                }
                AbortOp::Advance(dt) => now += dt,
                AbortOp::Quota(pages) => {
                    held.set_fast_quota_pages(pages);
                    reference.set_fast_quota_pages(pages);
                }
            }
            for tier in Tier::both() {
                prop_assert_eq!(held.used_pages(tier), reference.used_pages(tier), "op {i}: {tier} usage");
            }
            for &(first, count) in &s.probes {
                let range = PageRange::new(first, count);
                prop_assert_eq!(held.range_ready_at(range), reference.range_ready_at(range), "op {i}: range_ready_at({range})");
            }
        }
        now += 1 << 32;
        held.poll(now);
        reference.poll(now);
        prop_assert_eq!(held.page_table(), reference.page_table());
        prop_assert_eq!(held.stats(), reference.stats());
        prop_assert_eq!(held.timeline(), reference.timeline());
        prop_assert_eq!(held.fault_counters(), reference.fault_counters());
        prop_assert_eq!(held.sanitizer_violation(), None);
        prop_assert_eq!(reference.sanitizer_violation(), None);
        let events = held.tracer().take().expect("tracing is on").events;
        prop_assert!(events == reference.tracer().take().expect("tracing is on").events, "trace events diverged");
        // Conservation: every byte a migration moved is in one `complete`.
        let completed: u64 = events
            .iter()
            .filter(|e| e.name == "complete")
            .filter_map(|e| e.args.iter().find(|(k, _)| *k == "bytes"))
            .map(|(_, bytes)| if let Json::U64(b) = bytes { *b } else { 0 })
            .sum();
        prop_assert_eq!(completed, held.stats().promoted_bytes + held.stats().demoted_bytes, "completed bytes");
        Ok(())
    });
    assert!(REISSUES.load(Ordering::Relaxed) > 0, "no cancel re-issued a page");
}
