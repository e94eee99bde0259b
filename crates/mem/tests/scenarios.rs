//! Scenario tests for the memory substrate: multi-phase workloads that
//! exercise mapping, migration, profiling and Memory Mode together.

use sentinel_mem::{
    AccessKind, HmConfig, MemError, MemoryModeSpec, MemorySystem, PageRange, Tier,
};

fn sys_with(fast_pages: u64, slow_pages: u64) -> MemorySystem {
    MemorySystem::new(
        HmConfig::testing()
            .with_fast_capacity(fast_pages * 4096)
            .with_slow_capacity(slow_pages * 4096),
    )
}

#[test]
fn promote_demote_cycle_is_lossless() {
    let mut m = sys_with(32, 256);
    let r = m.reserve(16);
    m.map(r, Tier::Slow, 0).unwrap();
    let mut now = 0;
    for round in 0..20 {
        let dest = if round % 2 == 0 { Tier::Fast } else { Tier::Slow };
        let t = m.migrate(r, dest, now).unwrap();
        now = t.ready_at;
        m.poll(now);
        assert_eq!(m.tier_of(r.first), Some(dest), "round {round}");
        assert_eq!(m.used_pages(Tier::Fast) + m.used_pages(Tier::Slow), 16);
    }
}

#[test]
fn interleaved_migrations_in_both_directions() {
    let mut m = sys_with(64, 256);
    let a = m.reserve(8);
    let b = m.reserve(8);
    m.map(a, Tier::Slow, 0).unwrap();
    m.map(b, Tier::Fast, 0).unwrap();
    // Swap them concurrently: the channels are independent.
    let ta = m.migrate(a, Tier::Fast, 0).unwrap();
    let tb = m.migrate(b, Tier::Slow, 0).unwrap();
    let done = ta.ready_at.max(tb.ready_at);
    m.poll(done);
    assert_eq!(m.tier_of(a.first), Some(Tier::Fast));
    assert_eq!(m.tier_of(b.first), Some(Tier::Slow));
    assert_eq!(m.used_pages(Tier::Fast), 8);
    assert_eq!(m.used_pages(Tier::Slow), 8);
}

#[test]
fn urgent_lane_bypasses_prefetch_backlog() {
    let mut m = sys_with(64, 256);
    let bulk = m.reserve(32);
    let hot = m.reserve(2);
    m.map(bulk, Tier::Slow, 0).unwrap();
    m.map(hot, Tier::Slow, 0).unwrap();
    // A large prefetch batch occupies the normal promote lane…
    let slow_ticket = m.migrate(bulk, Tier::Fast, 0).unwrap();
    // …but the urgent copy lands long before it.
    let urgent_ticket = m.migrate_urgent(hot, Tier::Fast, 0).unwrap();
    assert!(
        urgent_ticket.ready_at < slow_ticket.ready_at,
        "urgent {} should precede bulk {}",
        urgent_ticket.ready_at,
        slow_ticket.ready_at
    );
}

#[test]
fn capacity_pressure_resolves_after_eviction_completes() {
    let mut m = sys_with(8, 256);
    let resident = m.reserve(8);
    m.map(resident, Tier::Fast, 0).unwrap();
    let incoming = m.reserve(4);
    m.map(incoming, Tier::Slow, 0).unwrap();
    // Fast is full: promotion is rejected.
    assert!(matches!(
        m.migrate(incoming, Tier::Fast, 0),
        Err(MemError::CapacityExceeded { .. })
    ));
    // Evict half; space frees only when the demotion lands.
    let half = PageRange::new(resident.first, 4);
    let t = m.migrate(half, Tier::Slow, 0).unwrap();
    assert!(matches!(
        m.migrate(incoming, Tier::Fast, 0),
        Err(MemError::CapacityExceeded { .. })
    ));
    m.poll(t.ready_at);
    let t2 = m.migrate(incoming, Tier::Fast, t.ready_at).unwrap();
    m.poll(t2.ready_at);
    assert_eq!(m.tier_of(incoming.first), Some(Tier::Fast));
}

#[test]
fn profiling_counts_are_exact_under_mixed_traffic() {
    let mut m = sys_with(32, 256);
    let a = m.reserve(2);
    let b = m.reserve(3);
    m.map(a, Tier::Fast, 0).unwrap();
    m.map(b, Tier::Slow, 0).unwrap();
    m.start_profiling();
    for _ in 0..5 {
        m.access(a, 8192, AccessKind::Read, 0);
    }
    for _ in 0..3 {
        m.access(b, 12288, AccessKind::Write, 0);
    }
    let map = m.stop_profiling();
    assert_eq!(map.count_range(a), 10); // 2 pages × 5
    assert_eq!(map.count_range(b), 9); // 3 pages × 3
    // After stop, accesses no longer fault.
    let rep = m.access(a, 8192, AccessKind::Read, 0);
    assert_eq!(rep.faults, 0);
}

#[test]
fn migration_during_profiling_keeps_counting() {
    let mut m = sys_with(32, 256);
    let r = m.reserve(2);
    m.map(r, Tier::Slow, 0).unwrap();
    m.start_profiling();
    m.access(r, 8192, AccessKind::Read, 0);
    let t = m.migrate(r, Tier::Fast, 0).unwrap();
    m.poll(t.ready_at);
    m.access(r, 8192, AccessKind::Read, t.ready_at);
    let map = m.stop_profiling();
    // Both accesses counted even though the pages moved tiers in between.
    assert_eq!(map.count_range(r), 4);
}

#[test]
fn memory_mode_write_miss_does_not_fill() {
    let mut m = sys_with(8, 256);
    m.enable_memory_mode(MemoryModeSpec::with_capacity_pages(8));
    let r = m.reserve(1);
    m.map(r, Tier::Slow, 0).unwrap();
    let before = m.stats().clone();
    m.access(r, 4096, AccessKind::Write, 0);
    let after = m.stats();
    // A full-page write miss installs without reading PMM.
    assert_eq!(after.bytes_read[Tier::Slow.index()], before.bytes_read[Tier::Slow.index()]);
}

#[test]
fn memory_mode_write_backs_are_pmm_writes() {
    // (evicting access, its payload, PMM bytes read, PMM bytes written)
    for (kind, bytes, read, written) in [
        (AccessKind::Write, 4096, 0, 4096),
        (AccessKind::Write, 2048, 0, 4096),
        (AccessKind::Read, 4096, 4096, 4096),
    ] {
        let mut m = sys_with(8, 256);
        m.enable_memory_mode(MemoryModeSpec::with_capacity_pages(8));
        m.enable_timeline(1_000);
        let r = m.reserve(9);
        m.map(r, Tier::Slow, 0).unwrap();
        // Dirty page 0, then miss on page 8, which maps to the same line.
        m.access(PageRange::new(0, 1), 4096, AccessKind::Write, 0);
        let before = m.stats().clone();
        let slow_before: u64 = m.timeline().unwrap().samples().iter().map(|s| s.slow_bytes).sum();
        m.access(PageRange::new(8, 1), bytes, kind, 0);
        assert_eq!(m.memory_mode_stats().unwrap().writebacks, 1);
        let after = m.stats();
        let slow = Tier::Slow.index();
        assert_eq!(after.bytes_read[slow] - before.bytes_read[slow], read, "{kind:?} of {bytes} B: read");
        assert_eq!(after.bytes_written[slow] - before.bytes_written[slow], written, "{kind:?} of {bytes} B: written");
        let slow_after: u64 = m.timeline().unwrap().samples().iter().map(|s| s.slow_bytes).sum();
        assert_eq!(slow_after - slow_before, read + written, "{kind:?} of {bytes} B: timeline");
    }
}

#[test]
fn timeline_buckets_cover_the_whole_run() {
    let mut m = sys_with(32, 256);
    m.enable_timeline(1_000);
    let r = m.reserve(4);
    m.map(r, Tier::Fast, 0).unwrap();
    let mut now = 0;
    for i in 0..10 {
        let rep = m.access(r, 16384, AccessKind::Read, now);
        now += rep.elapsed_ns + i * 500;
    }
    let tl = m.timeline().unwrap();
    let total: u64 = tl.samples().iter().map(|s| s.fast_bytes).sum();
    assert_eq!(total, 10 * 16384);
    // Bucket starts are strictly increasing by the bucket width.
    for w in tl.samples().windows(2) {
        assert_eq!(w[1].start_ns - w[0].start_ns, 1_000);
    }
}

#[test]
fn cancel_overlapping_keeps_other_batches_alive() {
    let mut m = sys_with(64, 256);
    let a = m.reserve(4);
    let b = m.reserve(4);
    m.map(a, Tier::Slow, 0).unwrap();
    m.map(b, Tier::Slow, 0).unwrap();
    let _ta = m.migrate(a, Tier::Fast, 0).unwrap();
    let tb = m.migrate(b, Tier::Fast, 0).unwrap();
    m.cancel_overlapping(a, 0);
    assert_eq!(m.tier_of(a.first), Some(Tier::Slow));
    // b's batch still completes (it is re-issued page-wise, so completion
    // may shift later, but it must eventually land in fast).
    m.poll(tb.ready_at + 1_000_000);
    assert_eq!(m.tier_of(b.first), Some(Tier::Fast));
    assert_eq!(m.used_pages(Tier::Fast), 4);
}

/// What the abort does today on the testing platform (100 ns setup, a
/// 4,096 ns copy per page): `b`'s batch is cancelled with `a`'s and its four
/// pages are re-issued as one-page copies, each paying the setup again, so
/// they land one at a time, and all of them earlier than the batch would
/// have, since `b` no longer queues behind `a`.
#[test]
fn cancel_overlapping_reissues_other_pages_one_at_a_time() {
    let mut m = sys_with(64, 256);
    let a = m.reserve(4);
    let b = m.reserve(4);
    m.map(a, Tier::Slow, 0).unwrap();
    m.map(b, Tier::Slow, 0).unwrap();
    m.migrate(a, Tier::Fast, 0).unwrap();
    let tb = m.migrate(b, Tier::Fast, 0).unwrap();
    assert_eq!(tb.ready_at, 32_968);
    m.cancel_overlapping(a, 0);
    let landings = [4_196, 8_392, 12_588, 16_784];
    assert_eq!(m.range_ready_at(b), Some(16_784));
    for (page, landing) in b.iter().zip(landings) {
        assert_eq!(m.range_ready_at(PageRange::new(page, 1)), Some(landing), "page {page}");
    }
    for (landed, landing) in (1..).zip(landings) {
        m.poll(landing - 1);
        assert_eq!(m.pages_in_tier(b, Tier::Fast), landed - 1, "before landing {landing}");
        m.poll(landing);
        assert_eq!(m.pages_in_tier(b, Tier::Fast), landed, "at landing {landing}");
        assert_eq!(m.tier_of(b.first + landed - 1), Some(Tier::Fast));
    }
    assert_eq!(m.stats().promoted_bytes, 4 * 4096);
    assert_eq!(m.tier_of(a.first), Some(Tier::Slow));
    assert!(!m.has_in_flight());
}

#[test]
fn failed_unmap_leaves_migrations_in_flight() {
    let mut m = MemorySystem::new(HmConfig::testing());
    let r = m.reserve(6);
    let mapped = PageRange::new(r.first, 4);
    m.map(mapped, Tier::Slow, 0).unwrap();
    let ticket = m.migrate(mapped, Tier::Fast, 0).unwrap();
    // The range also covers two unmapped pages, so the unmap fails...
    assert!(matches!(m.unmap(r, 0), Err(MemError::NotMapped { page: 4 })));
    // ...and must not cancel the promotion of the pages that stay mapped.
    assert_eq!(m.range_ready_at(mapped), Some(ticket.ready_at));
    assert_eq!(m.used_pages(Tier::Fast), 4);
    m.poll(ticket.ready_at);
    assert_eq!(m.tier_of(mapped.first), Some(Tier::Fast));
    assert_eq!((m.used_pages(Tier::Fast), m.used_pages(Tier::Slow)), (4, 0));
}

#[test]
fn stats_reset_preserves_placement_state() {
    let mut m = sys_with(32, 256);
    let r = m.reserve(4);
    m.map(r, Tier::Fast, 0).unwrap();
    m.access(r, 4096, AccessKind::Read, 0);
    let t = m.migrate(PageRange::new(r.first, 2), Tier::Slow, 0).unwrap();
    m.poll(t.ready_at);
    m.reset_stats();
    assert_eq!(m.stats().promoted_bytes + m.stats().demoted_bytes, 0);
    assert_eq!(m.used_pages(Tier::Fast), 2);
    assert_eq!(m.used_pages(Tier::Slow), 2);
    assert_eq!(m.subranges_in_tier(r, Tier::Slow).len(), 1);
}
