//! Chaos suite: randomized fault schedules against the migration engine and
//! whole Sentinel training runs, validated by the residency sanitizer.
//!
//! What must hold under arbitrary injected faults:
//! * no page is lost or double-mapped — `check_invariants` stays `Ok`;
//! * every training step completes (faults degrade, they never wedge);
//! * fault counters are monotone over time;
//! * the same seed reproduces the same run bit-for-bit;
//! * a zero-rate injector leaves the system state identical to no injector;
//! * real corruption surfaces as a typed [`MemError::InvariantViolation`],
//!   not a panic.

use sentinel_core::{fast_sized_for, SentinelConfig, SentinelRuntime};
use sentinel_mem::{
    AccessKind, Direction, FaultCounters, FaultInjector, FaultProfile, HmConfig, InFlight,
    MemError, MemorySystem, MigrationEngine, PageRange, SanitizerMode, Tier,
};
use std::collections::HashMap;
use sentinel_models::{ModelSpec, ModelZoo};
use sentinel_util::Rng;

fn chaos_system(seed: u64) -> MemorySystem {
    let mut m = MemorySystem::new(
        HmConfig::testing().with_fast_capacity(64 * 4096).with_slow_capacity(1024 * 4096),
    );
    m.set_fault_injector(FaultInjector::new(FaultProfile::heavy(), seed));
    m.set_sanitizer_mode(SanitizerMode::Events);
    m
}

/// Sum of all counters — a scalar that must never decrease.
fn total(c: &FaultCounters) -> u64 {
    c.degraded_slow_accesses
        + c.injected_stalls
        + c.injected_failures
        + c.migration_retries
        + c.abandoned_migrations
        + c.abandoned_pages
        + c.spurious_faults
        + c.lost_faults
        + c.pressure_redraws
}

/// Random map/access/migrate/unmap/poll churn under the heavy profile.
/// Every page must stay accounted for at every step.
#[test]
fn randomized_page_ops_never_lose_or_double_map_a_page() {
    for seed in [1u64, 7, 0xFA17, 0xDEAD_BEEF] {
        let mut m = chaos_system(seed);
        let mut rng = Rng::seed_from_u64(seed ^ 0x5EED);
        let mut live: Vec<PageRange> = Vec::new();
        let mut now = 0u64;
        let mut last_total = 0u64;
        for step in 0..400 {
            match rng.gen_usize(0, 5) {
                // map a fresh range into a random tier
                0 => {
                    let r = m.reserve(rng.gen_range(1, 9));
                    let tier = if rng.gen_bool(0.5) { Tier::Fast } else { Tier::Slow };
                    if m.map(r, tier, now).is_ok() || m.map(r, Tier::Slow, now).is_ok() {
                        live.push(r);
                    }
                }
                // unmap a live range (possibly mid-migration)
                1 if !live.is_empty() => {
                    let r = live.swap_remove(rng.gen_usize(0, live.len()));
                    m.unmap(r, now).unwrap();
                }
                // migrate a live range somewhere
                2 if !live.is_empty() => {
                    let r = live[rng.gen_usize(0, live.len())];
                    let dest = if rng.gen_bool(0.5) { Tier::Fast } else { Tier::Slow };
                    // Busy pages or a full tier are legitimate refusals.
                    let _ = m.migrate(r, dest, now);
                }
                // access a live range
                3 if !live.is_empty() => {
                    let r = live[rng.gen_usize(0, live.len())];
                    let kind =
                        if rng.gen_bool(0.5) { AccessKind::Read } else { AccessKind::Write };
                    let _ = m.access(r, r.count * 4096, kind, now);
                }
                // let time pass and copies land (or fail and retry)
                _ => {
                    now += rng.gen_range(1, 2_000_000);
                    m.poll(now);
                }
            }
            m.check_invariants().unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));
            let t = total(&m.fault_counters());
            assert!(t >= last_total, "seed {seed} step {step}: counters went backwards");
            last_total = t;
        }
        assert!(m.sanitizer_violation().is_none(), "seed {seed}: sanitizer latched");
        // Drain everything; the world must still balance.
        now += 1 << 40;
        m.poll(now);
        m.check_invariants().unwrap();
    }
}

/// Whole training runs under the heavy profile: every step completes, the
/// sanitizer stays quiet, and the injected faults actually fired.
#[test]
fn training_survives_heavy_faults_and_stays_deterministic() {
    for spec in [ModelSpec::resnet(20, 4).with_scale(4), ModelSpec::bert_base(2).with_scale(4)] {
        let graph = ModelZoo::build(&spec).unwrap();
        let hm = fast_sized_for(HmConfig::optane_like().without_cache(), &graph, 0.2);
        let steps = 6;
        let run = |seed: u64| {
            SentinelRuntime::new(SentinelConfig::default(), hm.clone())
                .with_fault_injection(FaultProfile::heavy(), seed)
                .with_sanitizer(SanitizerMode::Events)
                .train(&graph, steps)
                .unwrap_or_else(|e| panic!("{}: heavy-fault run failed: {e}", spec.name()))
        };
        let a = run(0xFA17);
        assert_eq!(a.steps_executed, steps, "{}", spec.name());
        assert!(
            total(&a.fault_counters) > 0,
            "{}: heavy profile injected nothing",
            spec.name()
        );
        // Per-step counters are deltas; their sum is the run total.
        let summed: u64 = a.report.steps.iter().map(|s| total(&s.fault)).sum();
        assert_eq!(summed, total(&a.fault_counters), "{}", spec.name());

        // Same seed → bit-identical timing and fault schedule.
        let b = run(0xFA17);
        assert_eq!(a.report.steps.len(), b.report.steps.len());
        for (x, y) in a.report.steps.iter().zip(&b.report.steps) {
            assert_eq!(x.duration_ns, y.duration_ns, "{}", spec.name());
        }
        assert_eq!(total(&a.fault_counters), total(&b.fault_counters));

        // A different seed draws a different schedule.
        let c = run(0x0BAD);
        assert_ne!(
            a.report.steps.iter().map(|s| s.duration_ns).collect::<Vec<_>>(),
            c.report.steps.iter().map(|s| s.duration_ns).collect::<Vec<_>>(),
            "{}: fault schedule ignored the seed",
            spec.name()
        );
    }
}

/// Every observable of the two engines after an operation: the in-flight
/// set lane by lane, the next event, both `busy_until` lanes and the
/// quiescence time (which also covers the urgent lanes).
fn assert_engines_agree(a: &MigrationEngine, b: &MigrationEngine, at: &str) {
    assert!(a.in_flight().eq(b.in_flight()), "{at}: in-flight sets diverged");
    assert_lanes_agree(a, b, at);
}

/// The two engines' next event, both `busy_until` lanes and quiescence time.
fn assert_lanes_agree(a: &MigrationEngine, b: &MigrationEngine, at: &str) {
    assert_eq!(a.next_ready_at(), b.next_ready_at(), "{at}: next event diverged");
    assert_eq!(a.quiescent_at(), b.quiescent_at(), "{at}: quiescence diverged");
    for dir in [Direction::Promote, Direction::Demote] {
        assert_eq!(a.busy_until(dir), b.busy_until(dir), "{at}: {dir:?} lane diverged");
    }
}

/// Injected stalls and jitter fire *through the event order*: a perturbed
/// `ready_at` makes completion order differ from issue order across lanes,
/// and the FIFO drain must still hand batches back exactly as the
/// linear-scan reference does — same batches, same issue order, same
/// engine state — through every engine mutation `MemorySystem` issues:
/// first issues and retries (`attempt > 0`), lane-share changes between
/// rounds, cancels, staggered drains and drains at exactly the next
/// completion instant (the inclusive `ready_at <= now` tie).
#[test]
fn jittered_ready_heap_drains_identically_to_the_scan_reference() {
    for seed in [2u64, 29, 0xFA17, 0xD15C0] {
        let mut rng = Rng::seed_from_u64(seed);
        let mut indexed = MigrationEngine::new(2.0, 1.0, 100, 4096);
        let mut reference = MigrationEngine::new(2.0, 1.0, 100, 4096);
        let mut now = 0u64;
        let mut reordered = false;
        let mut ties = 0;
        for round in 0..400 {
            let at = format!("seed {seed} round {round}");
            match rng.gen_usize(0, 8) {
                // Page-by-page batches, which both drains must split alike.
                7 => {
                    let range = PageRange::new(rng.gen_range(0, 512), rng.gen_range(1, 17));
                    let dir =
                        if rng.gen_bool(0.5) { Direction::Promote } else { Direction::Demote };
                    let a = indexed.enqueue_page_by_page(range, dir, now);
                    let b = reference.enqueue_page_by_page(range, dir, now);
                    assert_eq!(a, b, "{at}: page-by-page batches diverged");
                }
                0..=1 => {
                    let range = PageRange::new(rng.gen_range(0, 512), rng.gen_range(1, 9));
                    let dir =
                        if rng.gen_bool(0.5) { Direction::Promote } else { Direction::Demote };
                    let urgent = rng.gen_bool(0.3);
                    // Half the batches carry an injected stall big enough to
                    // leapfrog later enqueues in completion order.
                    let extra = if rng.gen_bool(0.5) { rng.gen_range(10_000, 80_000) } else { 0 };
                    let failed = rng.gen_bool(0.2);
                    // Retries re-enqueue with a bumped attempt number.
                    let attempt = if rng.gen_bool(0.3) { rng.gen_range(1, 4) as u32 } else { 0 };
                    let a = indexed
                        .enqueue_perturbed(range, dir, now, urgent, extra, failed, attempt);
                    let b = reference
                        .enqueue_perturbed(range, dir, now, urgent, extra, failed, attempt);
                    assert_eq!(a, b, "{at}: tickets diverged");
                    // An inversion: a later-issued batch completing before an
                    // earlier one.
                    let mut batches: Vec<_> = indexed.in_flight().collect();
                    batches.sort_unstable_by_key(|f| f.id);
                    let mut latest = 0;
                    for f in batches {
                        reordered |= f.ready_at < latest;
                        latest = latest.max(f.ready_at);
                    }
                }
                2 => {
                    let a = indexed.cancel_pending(now);
                    let b = reference.cancel_pending(now);
                    assert_eq!(a, b, "{at}: cancel diverged");
                }
                3 => {
                    let den = rng.gen_range(1, 5);
                    let num = rng.gen_range(1, den + 1);
                    indexed.set_lane_share(num, den);
                    reference.set_lane_share(num, den);
                }
                4 => {
                    if let Some(next) = indexed.next_ready_at() {
                        now = now.max(next);
                        let a = indexed.drain_completed(now);
                        let b = reference.drain_completed_scan(now);
                        assert_eq!(a, b, "{at}: tie drain diverged");
                        if next == now {
                            // A copy landing exactly at `now` is complete.
                            assert!(a.iter().any(|f| f.ready_at == now), "{at}: tie not drained");
                            ties += 1;
                        }
                    }
                }
                _ => {
                    now += rng.gen_range(1, 40_000);
                    let a = indexed.drain_completed(now);
                    let b = reference.drain_completed_scan(now);
                    assert_eq!(a, b, "{at}: drain diverged");
                    // Issue order, not completion order.
                    assert!(a.windows(2).all(|w| w[0].id < w[1].id), "{at}");
                }
            }
            assert_engines_agree(&indexed, &reference, &at);
        }
        assert!(reordered, "seed {seed}: jitter never reordered completions");
        assert!(ties > 0, "seed {seed}: no drain landed on a completion instant");
        now += 1 << 40;
        assert_eq!(indexed.drain_completed(now), reference.drain_completed_scan(now));
        assert_engines_agree(&indexed, &reference, &format!("seed {seed} final drain"));
        assert_eq!(indexed.next_ready_at(), None);
    }
}

/// An engine's batches as the one-page batches they stand for.
fn pages<'a>(batches: impl IntoIterator<Item = &'a InFlight>) -> Vec<InFlight> {
    batches.into_iter().flat_map(InFlight::pages).collect()
}

/// A page-by-page batch is exactly the one-page batches it stands for. One
/// engine takes page-by-page enqueues; the reference takes one `enqueue` per
/// page of each such run. Interleaved with plain, urgent and perturbed
/// batches, lane-share changes, cancels, and drains at random times and at
/// exact page landings, the two must agree after every operation on the
/// drained, cancelled and in-flight pages, the next event, both plain
/// lanes, quiescence and `range_ready_at` of random ranges.
#[test]
fn page_by_page_batches_equal_their_one_page_batches() {
    for seed in [3u64, 41, 0xB47C, 0x9A6E] {
        let mut rng = Rng::seed_from_u64(seed);
        let mut held = MigrationEngine::new(2.0, 1.0, 100, 4096);
        let mut reference = MigrationEngine::new(2.0, 1.0, 100, 4096);
        // Pages of each page-by-page batch by first id, to tell a split one.
        let mut issued: HashMap<u64, u64> = HashMap::new();
        let mut now = 0u64;
        let (mut drain_splits, mut cancel_splits) = (0, 0);
        for round in 0..400 {
            let at = format!("seed {seed} round {round}");
            let dir = if rng.gen_bool(0.5) { Direction::Promote } else { Direction::Demote };
            match rng.gen_usize(0, 9) {
                0..=2 => {
                    let range = PageRange::new(rng.gen_range(0, 512), rng.gen_range(1, 25));
                    // Now and then issued ahead of the clock, as retries are.
                    let issue_at = now + if rng.gen_bool(0.2) { rng.gen_range(1, 20_000) } else { 0 };
                    let batch = held.enqueue_page_by_page(range, dir, issue_at);
                    issued.insert(batch.id, range.count);
                    let tickets: Vec<_> = range
                        .iter()
                        .map(|p| reference.enqueue(PageRange::new(p, 1), dir, issue_at))
                        .map(|t| (t.id, t.ready_at))
                        .collect();
                    let got: Vec<_> = batch.pages().map(|f| (f.id, f.ready_at)).collect();
                    assert_eq!(got, tickets, "{at}: page ids or landings diverged");
                }
                3 => {
                    let range = PageRange::new(rng.gen_range(0, 512), rng.gen_range(1, 9));
                    let (urgent, extra, failed) = match rng.gen_usize(0, 3) {
                        0 => (false, 0, false),
                        1 => (true, 0, false),
                        _ => (rng.gen_bool(0.5), rng.gen_range(0, 30_000), rng.gen_bool(0.3)),
                    };
                    let attempt = rng.gen_range(0, 3) as u32;
                    let a = held.enqueue_perturbed(range, dir, now, urgent, extra, failed, attempt);
                    let b = reference.enqueue_perturbed(range, dir, now, urgent, extra, failed, attempt);
                    assert_eq!(a, b, "{at}: tickets diverged");
                }
                4 => {
                    let den = rng.gen_range(1, 5);
                    let num = rng.gen_range(1, den + 1);
                    held.set_lane_share(num, den);
                    reference.set_lane_share(num, den);
                }
                5 => {
                    now += rng.gen_range(0, 10_000);
                    let a = held.cancel_pending(now);
                    // Split here: the landed prefix is still queued.
                    cancel_splits += a
                        .iter()
                        .filter(|f| !issued.contains_key(&f.id))
                        .filter(|f| held.in_flight().any(|k| k.page_by_page && k.id + k.range.count == f.id))
                        .count();
                    assert_eq!(pages(&a), pages(&reference.cancel_pending(now)), "{at}: cancel diverged");
                }
                op => {
                    now = match op {
                        // Exactly when a random in-flight page lands.
                        6 => {
                            let landings: Vec<_> = pages(reference.in_flight()).iter().map(|f| f.ready_at).collect();
                            if landings.is_empty() { now } else { now.max(*rng.choose(&landings)) }
                        }
                        7 => now.max(held.next_ready_at().unwrap_or(now)),
                        _ => now + rng.gen_range(1, 40_000),
                    };
                    let a = held.drain_completed(now);
                    // Split here: the rest is still queued.
                    drain_splits += a
                        .iter()
                        .filter(|f| held.in_flight().any(|k| k.page_by_page && k.id == f.id + f.range.count && !issued.contains_key(&k.id)))
                        .count();
                    let b = reference.drain_completed(now);
                    assert_eq!(pages(&a), pages(&b), "{at}: drain diverged");
                }
            }
            assert_eq!(pages(held.in_flight()), pages(reference.in_flight()), "{at}: in-flight pages diverged");
            assert_lanes_agree(&held, &reference, &at);
            for _ in 0..4 {
                let range = PageRange::new(rng.gen_range(0, 540), rng.gen_range(1, 40));
                assert_eq!(held.range_ready_at(range), reference.range_ready_at(range), "{at}: range_ready_at({range}) diverged");
            }
        }
        assert!(drain_splits > 0, "seed {seed}: no drain split a page-by-page batch");
        assert!(cancel_splits > 0, "seed {seed}: no cancel split a page-by-page batch");
        now += 1 << 40;
        assert_eq!(pages(&held.drain_completed(now)), pages(&reference.drain_completed(now)));
        assert_eq!(held.next_ready_at(), None);
    }
}

/// A zero-rate injector consumes no entropy: the memory system ends up in
/// exactly the same state as one with no injector at all.
#[test]
fn zero_rate_injector_is_state_transparent() {
    let drive = |with_injector: bool| {
        let mut m = MemorySystem::new(
            HmConfig::testing().with_fast_capacity(32 * 4096).with_slow_capacity(256 * 4096),
        );
        if with_injector {
            m.set_fault_injector(FaultInjector::new(FaultProfile::off(), 42));
        }
        let r = m.reserve(16);
        m.map(r, Tier::Slow, 0).unwrap();
        let mut now = 0;
        let mut trace = Vec::new();
        for round in 0..12 {
            let dest = if round % 2 == 0 { Tier::Fast } else { Tier::Slow };
            let t = m.migrate(r, dest, now).unwrap();
            now = t.ready_at;
            m.poll(now);
            let rep = m.access(r, 4096 * 16, AccessKind::Read, now);
            now += rep.elapsed_ns;
            trace.push((now, rep.bytes_fast, rep.bytes_slow, rep.faults));
        }
        m.check_invariants().unwrap();
        assert!(m.fault_counters().is_zero());
        trace
    };
    assert_eq!(drive(false), drive(true), "zero-rate injector changed behaviour");
}

/// Deliberate page-table corruption must surface as a typed error from the
/// sanitizer — never a panic, never silence.
#[test]
fn corruption_is_reported_as_typed_violation() {
    // An in-flight flag with no backing batch.
    let mut m = MemorySystem::new(HmConfig::testing());
    m.set_sanitizer_mode(SanitizerMode::Events);
    let r = m.reserve(8);
    m.map(r, Tier::Fast, 0).unwrap();
    m.page_table_mut().set_in_flight(PageRange::new(r.first, 2), true);
    match m.check_invariants() {
        Err(MemError::InvariantViolation { detail }) => {
            assert!(detail.contains("in-flight"), "unexpected detail: {detail}")
        }
        other => panic!("corruption not caught: {other:?}"),
    }

    // Accounting drift: a mapped page the books don't know about.
    let mut m = MemorySystem::new(HmConfig::testing());
    m.set_sanitizer_mode(SanitizerMode::Events);
    let r = m.reserve(4);
    m.map(r, Tier::Slow, 0).unwrap();
    m.page_table_mut().set_state(PageRange::new(r.first, 1), sentinel_mem::PageState::Mapped(Tier::Fast));
    match m.check_invariants() {
        Err(MemError::InvariantViolation { detail }) => {
            assert!(detail.contains("accounting drift"), "unexpected detail: {detail}")
        }
        other => panic!("corruption not caught: {other:?}"),
    }

    // Poison bits outside a profiling phase.
    let mut m = MemorySystem::new(HmConfig::testing());
    m.set_sanitizer_mode(SanitizerMode::Events);
    let r = m.reserve(4);
    m.map(r, Tier::Slow, 0).unwrap();
    m.page_table_mut().set_poisoned(r, true);
    match m.check_invariants() {
        Err(MemError::InvariantViolation { detail }) => {
            assert!(detail.contains("poisoned"), "unexpected detail: {detail}")
        }
        other => panic!("corruption not caught: {other:?}"),
    }
}
