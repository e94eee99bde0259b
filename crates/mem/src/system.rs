//! The two-tier memory system: mapping, timed accesses, migration, profiling.

use crate::cache::{CacheFilter, CacheOutcome};
use crate::config::HmConfig;
use crate::memmode::{MemoryModeCache, MemoryModeSpec};
use crate::migrate::{Direction, InFlight, MigrationEngine, MigrationTicket};
use crate::profiler::PageAccessMap;
use crate::stats::{MemStats, StatsTimeline};
use crate::table::{PageState, PageTable, PteRun};
use crate::{MemError, Ns, PageRange, Tier};
use sentinel_util::fault::{FaultCounters, FaultInjector};
use sentinel_util::trace::{TraceHandle, TraceTrack};
use sentinel_util::Json;

/// Whether an access reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl AccessKind {
    /// `true` for [`AccessKind::Write`].
    #[must_use]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// Timing and accounting outcome of one [`MemorySystem::access`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessReport {
    /// Simulated time the access took.
    pub elapsed_ns: Ns,
    /// Main-memory accesses performed (pages that missed the cache filter).
    pub mm_accesses: u64,
    /// Pages absorbed by the cache filter.
    pub cache_hits: u64,
    /// Profiling protection faults taken.
    pub faults: u64,
    /// Payload bytes serviced by fast memory.
    pub bytes_fast: u64,
    /// Payload bytes serviced by slow memory.
    pub bytes_slow: u64,
    /// Payload bytes absorbed by the cache filter. Together with
    /// `bytes_fast + bytes_slow` this always sums to the requested `bytes`.
    pub bytes_cache: u64,
}

/// Attempts per migration batch, counting the first; after the last failed
/// attempt the migration is abandoned and its pages stay in the source tier.
const RETRY_MAX_ATTEMPTS: u32 = 3;

/// Backoff before the first retry of a failed migration batch; doubles with
/// each further attempt.
const RETRY_BACKOFF_NS: Ns = 50_000;

/// When the residency sanitizer revalidates the page-table invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SanitizerMode {
    /// Never check.
    Off,
    /// Check at mutation events (map/unmap/migrate/completion/cancel),
    /// sampled every few events to bound the O(reserved pages) scan cost;
    /// rare events (cancellation, abandoned migrations, profiling toggles)
    /// are always checked.
    Events,
}

impl SanitizerMode {
    /// The build default: [`SanitizerMode::Events`] under
    /// `debug_assertions`, [`SanitizerMode::Off`] in release builds (the
    /// "always-on in dev, free in production" cfg-gating).
    #[must_use]
    pub fn default_mode() -> Self {
        if cfg!(debug_assertions) {
            SanitizerMode::Events
        } else {
            SanitizerMode::Off
        }
    }
}

/// Every how many mutation events the sampled sanitizer runs a full check.
/// Each check is O(in-flight batches), and mutation events (map/unmap/
/// migrate/poll) are the hot path of every debug-build run, so the stride is
/// what keeps "always-on in dev" affordable; rare high-risk events
/// (cancellation, abandonment, profiling toggles) are checked unsampled
/// regardless.
const SANITIZE_STRIDE: u64 = 256;

/// A simulated two-tier heterogeneous memory.
///
/// See the crate-level documentation for an overview and example. All
/// methods take the current simulated time `now` ([`Ns`]) and never consult
/// wall-clock time.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: HmConfig,
    table: PageTable,
    /// Mapped pages per tier (including in-flight destination reservations).
    used_pages: [u64; 2],
    engine: MigrationEngine,
    cache: Option<CacheFilter>,
    memmode: Option<MemoryModeCache>,
    profiler: Option<PageAccessMap>,
    /// Whether the active profiling phase poisons only caller-chosen ranges
    /// (incremental re-profiling): suppresses the poison-on-map default so
    /// unrelated fresh mappings stay fault-free during the observation step.
    selective_profiling: bool,
    stats: MemStats,
    timeline: Option<StatsTimeline>,
    unmapped_accesses: u64,
    /// Seeded fault injector; `None` (the default) means a pristine run.
    injector: Option<FaultInjector>,
    /// Fast-tier page quota imposed by a multi-tenant arbiter; `None` (the
    /// default) means the full configured capacity and is byte-identical to
    /// a system that never heard of quotas. A quota may transiently sit
    /// *below* current usage (the arbiter shrank it); allocation then sees
    /// zero free fast pages until the tenant demotes down to the quota.
    fast_quota_pages: Option<u64>,
    sanitizer: SanitizerMode,
    /// First invariant violation found by the sanitizer, latched until read.
    violation: Option<MemError>,
    sanitize_events: u64,
    /// Structured-trace recorder; the inert default records nothing.
    tracer: TraceHandle,
    /// Latest `now` seen by a timed entry point, for trace hooks that fire
    /// from call sites without a clock (the sampled sanitizer).
    last_now: Ns,
}

impl MemorySystem {
    /// Build a memory system for the given platform configuration.
    #[must_use]
    pub fn new(cfg: HmConfig) -> Self {
        let engine = MigrationEngine::new(
            cfg.promote_bw_bytes_per_ns,
            cfg.demote_bw_bytes_per_ns,
            cfg.migration_setup_ns,
            cfg.page_size,
        );
        let cache = cfg.cache.map(CacheFilter::new);
        MemorySystem {
            cfg,
            table: PageTable::new(),
            used_pages: [0, 0],
            engine,
            cache,
            memmode: None,
            profiler: None,
            selective_profiling: false,
            stats: MemStats::default(),
            timeline: None,
            unmapped_accesses: 0,
            injector: None,
            fast_quota_pages: None,
            sanitizer: SanitizerMode::default_mode(),
            violation: None,
            sanitize_events: 0,
            tracer: TraceHandle::disabled(),
            last_now: 0,
        }
    }

    /// The platform configuration.
    #[must_use]
    pub fn config(&self) -> &HmConfig {
        &self.cfg
    }

    /// Page size in bytes.
    #[must_use]
    pub fn page_size(&self) -> u64 {
        self.cfg.page_size
    }

    // ---------------------------------------------------------------- layout

    /// Reserve `count` fresh virtual pages (no physical backing yet).
    pub fn reserve(&mut self, count: u64) -> PageRange {
        self.table.reserve(count)
    }

    /// Map a reserved range into `tier`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the range was not reserved,
    /// [`MemError::AlreadyMapped`] if any page is mapped, or
    /// [`MemError::CapacityExceeded`] if the tier lacks space.
    pub fn map(&mut self, range: PageRange, tier: Tier, now: Ns) -> Result<(), MemError> {
        self.last_now = self.last_now.max(now);
        self.table.check_range(range)?;
        for run in self.table.runs_in(range) {
            if matches!(run.pte.state, PageState::Mapped(_)) {
                return Err(MemError::AlreadyMapped { page: run.range.first });
            }
        }
        let free = self.free_pages(tier);
        if range.count > free {
            return Err(MemError::CapacityExceeded { tier, requested_pages: range.count, free_pages: free });
        }
        self.table.set_state(range, PageState::Mapped(tier));
        if self.profiler.is_some() && !self.selective_profiling {
            self.table.set_poisoned(range, true);
        }
        self.used_pages[tier.index()] += range.count;
        self.stats.observe_mapped(self.used_pages);
        if self.tracer.full() {
            self.trace_mem_instant("map", now, range, Some(tier));
        }
        self.sanitize_event();
        Ok(())
    }

    /// Unmap a mapped range, releasing its frames.
    ///
    /// Pending migrations overlapping the range are aborted first (the pages
    /// simply cease to exist, as when a tensor is freed mid-copy).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the range was not reserved or
    /// [`MemError::NotMapped`] if any page is not mapped; either error
    /// leaves the table and every migration as they were.
    pub fn unmap(&mut self, range: PageRange, now: Ns) -> Result<(), MemError> {
        self.last_now = self.last_now.max(now);
        self.table.check_range(range)?;
        // Validate the whole range before touching anything, so a failed
        // unmap leaves every migration in flight.
        if let Some(run) = self.table.runs_in(range).find(|run| run.pte.state == PageState::Unmapped) {
            return Err(MemError::NotMapped { page: run.range.first });
        }
        // Abort overlapping in-flight batches before releasing frames. The
        // abort polls, which may land copies, so the pages released per tier
        // are read from the table's cached counts only afterwards.
        if self.table.any_in_flight(range) {
            self.abort_migrations_overlapping(range, now);
        }
        let before = self.table.mapped_counts();
        self.table.set_state(range, PageState::Unmapped);
        self.table.set_poisoned(range, false);
        let after = self.table.mapped_counts();
        for tier in Tier::both() {
            self.used_pages[tier.index()] -= before[tier.index()] - after[tier.index()];
        }
        if let Some(cache) = &mut self.cache {
            cache.invalidate_range(range);
        }
        if self.tracer.full() {
            self.trace_mem_instant("unmap", now, range, None);
        }
        self.sanitize_event();
        Ok(())
    }

    /// The tier `page` is currently mapped in, if any.
    #[must_use]
    pub fn tier_of(&self, page: u64) -> Option<Tier> {
        self.table.tier_of(page)
    }

    /// Mapped pages in `tier` (counting in-flight destination reservations).
    #[must_use]
    pub fn used_pages(&self, tier: Tier) -> u64 {
        self.used_pages[tier.index()]
    }

    /// Free pages in `tier`. Under fault injection, transient fast-memory
    /// pressure (pages temporarily claimed by a simulated co-tenant) is
    /// subtracted from the fast tier's allocatable space.
    #[must_use]
    pub fn free_pages(&self, tier: Tier) -> u64 {
        let mut cap = self.cfg.tier(tier).capacity_pages(self.cfg.page_size);
        if tier == Tier::Fast {
            if let Some(quota) = self.fast_quota_pages {
                cap = cap.min(quota);
            }
        }
        let mut free = cap.saturating_sub(self.used_pages[tier.index()]);
        if tier == Tier::Fast {
            if let Some(inj) = &self.injector {
                free = free.saturating_sub(inj.pressure_pages());
            }
        }
        free
    }

    /// Free bytes in `tier`.
    #[must_use]
    pub fn free_bytes(&self, tier: Tier) -> u64 {
        self.free_pages(tier) * self.cfg.page_size
    }

    /// The contiguous sub-ranges of `range` currently mapped in `tier` and
    /// not in flight. Useful for building strict migration batches.
    #[must_use]
    pub fn subranges_in_tier(&self, range: PageRange, tier: Tier) -> Vec<PageRange> {
        merge_runs(self.runs_in_tier(range, tier))
    }

    /// Pages of `range` currently mapped in `tier` and not in flight: the
    /// pages of [`MemorySystem::subranges_in_tier`], counted without
    /// collecting them.
    #[must_use]
    pub fn pages_in_tier(&self, range: PageRange, tier: Tier) -> u64 {
        self.runs_in_tier(range, tier).map(|run| run.count).sum()
    }

    fn runs_in_tier(&self, range: PageRange, tier: Tier) -> impl Iterator<Item = PageRange> + '_ {
        self.table
            .runs_in(range)
            .filter(move |run| run.pte.state == PageState::Mapped(tier) && !run.pte.in_flight)
            .map(|run| run.range)
    }

    // --------------------------------------------------------------- access

    /// Perform a timed access of `bytes` spread evenly over `range`.
    ///
    /// The payload passes the cache filter; misses reach main memory where
    /// they are counted, possibly fault for profiling, and pay the owning
    /// tier's latency/bandwidth. Pages mid-migration are serviced from their
    /// source tier. Unmapped pages are serviced at slow-tier speed and
    /// tallied in [`MemorySystem::unmapped_accesses`].
    ///
    /// Bytes are accounted twice, deliberately:
    ///
    /// * The **timing and traffic model** charges every page
    ///   `(bytes / count).max(1)` — page-granular, exactly the historical
    ///   behaviour, so recorded experiment results do not move.
    /// * The **payload accounting** in the returned report distributes the
    ///   remainder exactly: page `i` carries `bytes / count` (+1 for the
    ///   first `bytes % count` pages), so
    ///   `bytes_fast + bytes_slow + bytes_cache == bytes` always.
    ///
    /// This is the O(runs) fast path: it walks [`PageTable::runs_in`] and
    /// resolves each equal-PTE run through the batched cache probe, bulk
    /// fault recording and Memory-Mode run access, recording traffic once
    /// per run instead of once per page. [`MemorySystem::access_per_page`]
    /// is the per-page reference it must stay equivalent to.
    pub fn access(&mut self, range: PageRange, bytes: u64, kind: AccessKind, now: Ns) -> AccessReport {
        let mut report = AccessReport::default();
        if range.is_empty() || bytes == 0 {
            return report;
        }
        self.last_now = self.last_now.max(now);
        let write = kind.is_write();
        let per_model = (bytes / range.count).max(1);
        let base = bytes / range.count;
        let rem = bytes % range.count;
        // Pages before the boundary carry one extra byte of payload.
        let boundary = range.first + rem;

        let mut cache_model_bytes = 0u64;
        let mut tier_model_bytes = [0u64; 2];
        let mut tier_touched = [false; 2];

        for run in self.table.runs_in(range) {
            let pte = run.pte;
            // Split the run at the remainder boundary so every page of a
            // piece carries the same payload.
            let split = rem > 0 && run.range.first < boundary && boundary < run.range.end();
            let pieces = if split {
                [
                    PageRange::new(run.range.first, boundary - run.range.first),
                    PageRange::new(boundary, run.range.end() - boundary),
                ]
            } else {
                [run.range, PageRange::empty()]
            };
            for sub in pieces {
                if sub.is_empty() {
                    continue;
                }
                let per_pay = if sub.first < boundary { base + 1 } else { base };

                // Processor cache filter first: hits never reach main memory.
                let (hits, misses) = match &mut self.cache {
                    Some(cache) => {
                        let probe = cache.probe_range(sub);
                        let hits = sub.count - probe.misses;
                        report.cache_hits += hits;
                        cache_model_bytes += hits * per_model;
                        report.bytes_cache += hits * per_pay;
                        (probe.hit_runs, probe.misses)
                    }
                    None => (Vec::new(), sub.count),
                };
                if misses == 0 {
                    continue;
                }
                report.mm_accesses += misses;

                // Walk the maximal miss runs, one per gap between hit runs.
                for mr in miss_runs(sub, &hits) {
                    // Profiling faults for every missed page of a poisoned
                    // run; the fault handler re-poisons, so the bit stays
                    // set for the next access.
                    if pte.poisoned {
                        if let Some(profiler) = &mut self.profiler {
                            profiler.record_faults(mr);
                            report.faults += mr.count;
                            self.stats.profiling_faults += mr.count;
                        }
                    }

                    // Memory Mode routes misses through the DRAM page cache.
                    if let Some(memmode) = &mut self.memmode {
                        memory_mode_access(memmode, &self.cfg, &mut self.stats, &mut self.timeline, &mut report, mr, per_model, per_pay, write, now);
                        continue;
                    }

                    let tier = match pte.state {
                        PageState::Mapped(t) => t,
                        PageState::Unmapped => {
                            self.unmapped_accesses += mr.count;
                            Tier::Slow
                        }
                    };
                    self.stats.mm_accesses[tier.index()] += mr.count;
                    tier_model_bytes[tier.index()] += mr.count * per_model;
                    tier_touched[tier.index()] = true;
                    match tier {
                        Tier::Fast => report.bytes_fast += mr.count * per_pay,
                        Tier::Slow => report.bytes_slow += mr.count * per_pay,
                    }
                    record_traffic_into(&mut self.stats, &mut self.timeline, tier, mr.count * per_model, write, now);
                }
            }
        }

        self.finish_access(&mut report, range, cache_model_bytes, tier_model_bytes, tier_touched, write, now);
        report
    }

    /// Per-page reference implementation of [`MemorySystem::access`].
    ///
    /// Probes the cache, faults and services memory one page at a time —
    /// exactly the pre-batching pipeline. The equivalence property suite
    /// drives this and the run-granular fast path over the same inputs and
    /// requires identical reports, stats, timelines and component state.
    pub fn access_per_page(&mut self, range: PageRange, bytes: u64, kind: AccessKind, now: Ns) -> AccessReport {
        let mut report = AccessReport::default();
        if range.is_empty() || bytes == 0 {
            return report;
        }
        self.last_now = self.last_now.max(now);
        let write = kind.is_write();
        let per_model = (bytes / range.count).max(1);
        let base = bytes / range.count;
        let rem = bytes % range.count;

        let mut cache_model_bytes = 0u64;
        let mut tier_model_bytes = [0u64; 2];
        let mut tier_touched = [false; 2];

        for (i, p) in range.iter().enumerate() {
            let per_pay = base + u64::from((i as u64) < rem);
            // Processor cache filter first: hits never reach main memory.
            if let Some(cache) = &mut self.cache {
                if cache.probe(p) == CacheOutcome::Hit {
                    report.cache_hits += 1;
                    cache_model_bytes += per_model;
                    report.bytes_cache += per_pay;
                    continue;
                }
            }
            report.mm_accesses += 1;
            self.count_profiling_fault(p, &mut report);

            // Memory Mode routes misses through the DRAM page cache.
            if let Some(memmode) = &mut self.memmode {
                let page = PageRange::new(p, 1);
                memory_mode_access(memmode, &self.cfg, &mut self.stats, &mut self.timeline, &mut report, page, per_model, per_pay, write, now);
                continue;
            }

            let tier = match self.table.tier_of(p) {
                Some(t) => t,
                None => {
                    self.unmapped_accesses += 1;
                    Tier::Slow
                }
            };
            self.stats.mm_accesses[tier.index()] += 1;
            tier_model_bytes[tier.index()] += per_model;
            tier_touched[tier.index()] = true;
            match tier {
                Tier::Fast => report.bytes_fast += per_pay,
                Tier::Slow => report.bytes_slow += per_pay,
            }
            self.record_traffic(tier, per_model, write, now);
        }

        self.finish_access(&mut report, range, cache_model_bytes, tier_model_bytes, tier_touched, write, now);
        report
    }

    /// Shared access epilogue: latency once per tier touched, cache hit
    /// time and fault overhead, all charged on the page-granular model
    /// bytes (the payload fields were filled exactly by the caller).
    ///
    /// This is also where every per-access fault-injection draw happens —
    /// *only* here, shared by both pipelines, so the O(runs) fast path and
    /// the per-page reference consume the injector's random stream
    /// identically and stay state-equivalent under injection.
    #[allow(clippy::too_many_arguments)]
    fn finish_access(
        &mut self,
        report: &mut AccessReport,
        range: PageRange,
        cache_model_bytes: u64,
        tier_model_bytes: [u64; 2],
        tier_touched: [bool; 2],
        write: bool,
        now: Ns,
    ) {
        for tier in Tier::both() {
            if tier_touched[tier.index()] {
                report.elapsed_ns +=
                    self.cfg.tier(tier).access_time_ns(tier_model_bytes[tier.index()], write);
            }
        }
        // Injected slow-tier contention: the slow portion of this access is
        // re-serviced at `factor`× its nominal time (Memory-Mode traffic is
        // routed through its own cache model and is deliberately exempt).
        if tier_touched[Tier::Slow.index()] {
            if let Some(inj) = &mut self.injector {
                if let Some(factor) = inj.maybe_slow_degradation() {
                    let slow_ns = self
                        .cfg
                        .tier(Tier::Slow)
                        .access_time_ns(tier_model_bytes[Tier::Slow.index()], write);
                    report.elapsed_ns += (slow_ns as f64 * (factor - 1.0)).ceil() as Ns;
                    if self.tracer.enabled() {
                        self.tracer.instant(
                            TraceTrack::Faults,
                            "fault",
                            "slow_degradation",
                            now,
                            vec![("factor", Json::F64(factor)), ("page", Json::U64(range.first))],
                        );
                    }
                }
            }
        }
        if cache_model_bytes > 0 {
            if let Some(cache) = &self.cache {
                report.elapsed_ns += cache.hit_time_ns(cache_model_bytes);
            }
        }
        // Injected profiling noise: a phantom fault observed on this access,
        // or one real fault going unrecorded (lost TLB-shootdown race).
        if let Some(inj) = &mut self.injector {
            if inj.maybe_spurious_fault() {
                report.faults += 1;
                if let Some(profiler) = &mut self.profiler {
                    profiler.record_fault(range.first);
                    self.stats.profiling_faults += 1;
                }
                if self.tracer.enabled() {
                    self.tracer.instant(
                        TraceTrack::Faults,
                        "fault",
                        "spurious_fault",
                        now,
                        vec![("page", Json::U64(range.first))],
                    );
                }
            }
            if inj.maybe_lost_fault() && report.faults > 0 {
                report.faults -= 1;
                inj.record_lost_fault();
                if self.profiler.is_some() {
                    self.stats.profiling_faults -= 1;
                }
                if self.tracer.enabled() {
                    self.tracer.instant(
                        TraceTrack::Faults,
                        "fault",
                        "lost_fault",
                        now,
                        vec![("page", Json::U64(range.first))],
                    );
                }
            }
        }
        report.elapsed_ns += report.faults * self.cfg.fault_overhead_ns;
        self.stats.cache_hits += report.cache_hits;
        if self.tracer.full() {
            self.tracer.span(
                TraceTrack::Memory,
                "access",
                if write { "write" } else { "read" },
                now,
                report.elapsed_ns,
                vec![
                    ("first", Json::U64(range.first)),
                    ("pages", Json::U64(range.count)),
                    ("mm_accesses", Json::U64(report.mm_accesses)),
                    ("cache_hits", Json::U64(report.cache_hits)),
                    ("faults", Json::U64(report.faults)),
                    ("bytes_fast", Json::U64(report.bytes_fast)),
                    ("bytes_slow", Json::U64(report.bytes_slow)),
                ],
            );
        }
    }

    fn count_profiling_fault(&mut self, page: u64, report: &mut AccessReport) {
        if let Some(profiler) = &mut self.profiler {
            let poisoned = self.table.get(page).map(|e| e.poisoned).unwrap_or(false);
            if poisoned {
                profiler.record_fault(page);
                report.faults += 1;
                self.stats.profiling_faults += 1;
                // The fault handler counts, re-poisons and flushes the TLB,
                // so the bit stays set for the next access.
            }
        }
    }

    fn record_traffic(&mut self, tier: Tier, bytes: u64, write: bool, now: Ns) {
        record_traffic_into(&mut self.stats, &mut self.timeline, tier, bytes, write, now);
    }

    // ------------------------------------------------------------ migration

    /// Issue an asynchronous migration of `range` into `dest`.
    ///
    /// The destination frames are reserved immediately; the source frames are
    /// released when the copy completes (see [`MemorySystem::poll`]).
    ///
    /// # Errors
    ///
    /// [`MemError::NotMapped`] if a page is not mapped in `dest.other()`,
    /// [`MemError::MigrationInFlight`] if a page is already moving, or
    /// [`MemError::CapacityExceeded`] if `dest` lacks space.
    pub fn migrate(&mut self, range: PageRange, dest: Tier, now: Ns) -> Result<MigrationTicket, MemError> {
        self.migrate_with_priority(range, dest, now, false)
    }

    /// Like [`MemorySystem::migrate`] but on the urgent (demand-fault) lane:
    /// the copy does not queue behind pending prefetch batches.
    ///
    /// # Errors
    ///
    /// Same as [`MemorySystem::migrate`].
    pub fn migrate_urgent(&mut self, range: PageRange, dest: Tier, now: Ns) -> Result<MigrationTicket, MemError> {
        self.migrate_with_priority(range, dest, now, true)
    }

    fn migrate_with_priority(&mut self, range: PageRange, dest: Tier, now: Ns, urgent: bool) -> Result<MigrationTicket, MemError> {
        self.last_now = self.last_now.max(now);
        self.table.check_range(range)?;
        let src = dest.other();
        // Runs are PTE-homogeneous, so the first failing run's first page is
        // the first failing page (in-flight outranks not-mapped, as in the
        // per-page check).
        for run in self.table.runs_in(range) {
            if run.pte.in_flight {
                return Err(MemError::MigrationInFlight { page: run.range.first });
            }
            if run.pte.state != PageState::Mapped(src) {
                return Err(MemError::NotMapped { page: run.range.first });
            }
        }
        let free = self.free_pages(dest);
        if range.count > free {
            return Err(MemError::CapacityExceeded { tier: dest, requested_pages: range.count, free_pages: free });
        }
        let perturbation = self.draw_migration_perturbation();
        Ok(self.issue(range, dest, now, urgent, perturbation))
    }

    /// Reserve `dest` frames for `range`, flag its pages in flight and hand
    /// it to the engine as one batch carrying `perturbation`.
    fn issue(&mut self, range: PageRange, dest: Tier, now: Ns, urgent: bool, perturbation: (Ns, bool)) -> MigrationTicket {
        self.reserve_in_flight(range, dest);
        let direction = Direction::into_tier(dest);
        let (extra_ns, failed) = perturbation;
        let ticket = self.engine.enqueue_perturbed(range, direction, now, urgent, extra_ns, failed, 0);
        self.record_issue(now, ticket, range.first, direction, urgent, perturbation);
        ticket
    }

    /// Reserve `dest` frames for `range` and flag its pages in flight.
    fn reserve_in_flight(&mut self, range: PageRange, dest: Tier) {
        self.used_pages[dest.index()] += range.count;
        self.stats.observe_mapped(self.used_pages);
        self.table.set_in_flight(range, true);
    }

    /// What follows each issued batch: its `issue` instant, then a sampled
    /// sanitizer event.
    fn record_issue(&mut self, now: Ns, ticket: MigrationTicket, first: u64, direction: Direction, urgent: bool, perturbation: (Ns, bool)) {
        if self.tracer.enabled() {
            self.tracer.instant(
                TraceTrack::Migration,
                "migration",
                "issue",
                now,
                vec![
                    ("id", Json::U64(ticket.id)),
                    ("first", Json::U64(first)),
                    ("pages", Json::U64(ticket.pages)),
                    ("direction", Json::Str(direction_name(direction).into())),
                    ("urgent", Json::Bool(urgent)),
                    ("ready_at", Json::U64(ticket.ready_at)),
                    ("injected_stall_ns", Json::U64(perturbation.0)),
                    ("injected_failure", Json::Bool(perturbation.1)),
                ],
            );
        }
        self.sanitize_event();
    }

    fn draw_migration_perturbation(&mut self) -> (Ns, bool) {
        match &mut self.injector {
            Some(inj) => inj.maybe_migration_perturbation(),
            None => (0, false),
        }
    }

    /// Apply every migration completed by `now`.
    ///
    /// Batches that completed with an injected failure are re-enqueued with
    /// exponential backoff (3 attempts, 50 µs base backoff); the loop keeps
    /// draining so a retry whose backoff already elapsed is resolved in the
    /// same poll.
    pub fn poll(&mut self, now: Ns) {
        self.last_now = self.last_now.max(now);
        if let Some(inj) = &mut self.injector {
            inj.pressure_tick();
        }
        let mut applied = false;
        let mut abandoned = false;
        loop {
            let done = self.engine.drain_completed(now);
            if done.is_empty() {
                break;
            }
            applied = true;
            for batch in &done {
                abandoned |= self.apply_completion(batch);
            }
        }
        // The sanitizer runs only after the whole drain settles: mid-loop,
        // batches later in the `done` vector are already out of the engine
        // but not yet applied, which a check would misread as leaked flags.
        // An abandoned migration is rare and high-risk, so it always checks.
        if abandoned {
            self.sanitize_rare();
        } else if applied {
            self.sanitize_event();
        }
    }

    /// Returns `true` when the batch was abandoned (retries exhausted). A
    /// page-by-page batch lands one page at a time, as the one-page batches
    /// it stands for.
    fn apply_completion(&mut self, done: &InFlight) -> bool {
        if done.failed {
            return self.handle_failed_batch(done);
        }
        for batch in done.pages() {
            self.land(&batch);
        }
        false
    }

    /// Move the pages of a batch that landed without a failure.
    fn land(&mut self, done: &InFlight) {
        let dest = done.direction.dest();
        let src = done.direction.source();
        let mut moved_pages = 0u64;
        let mut rest = done.range;
        while let Some(run) = self.next_run(&mut rest) {
            if !run.pte.in_flight {
                continue; // aborted (page freed mid-copy) or never reserved
            }
            self.table.set_in_flight(run.range, false);
            if run.pte.state == PageState::Mapped(src) {
                self.table.set_state(run.range, PageState::Mapped(dest));
                self.used_pages[src.index()] -= run.range.count;
                moved_pages += run.range.count;
                // dest was reserved at enqueue.
            }
        }
        // Account bytes and traffic only for copies that actually completed
        // (cancelled batches consume no bandwidth and move no data).
        let bytes = moved_pages * self.cfg.page_size;
        if bytes > 0 {
            match done.direction {
                Direction::Promote => self.stats.promoted_bytes += bytes,
                Direction::Demote => self.stats.demoted_bytes += bytes,
            }
            self.record_traffic(src, bytes, false, done.ready_at);
            self.record_traffic(dest, bytes, true, done.ready_at);
            if self.tracer.enabled() {
                self.tracer.instant(
                    TraceTrack::Migration,
                    "migration",
                    "complete",
                    done.ready_at,
                    vec![
                        ("id", Json::U64(done.id)),
                        ("first", Json::U64(done.range.first)),
                        ("pages", Json::U64(moved_pages)),
                        ("bytes", Json::U64(bytes)),
                        ("direction", Json::Str(direction_name(done.direction).into())),
                        ("attempt", Json::U64(u64::from(done.attempt))),
                    ],
                );
                self.trace_used_pages(done.ready_at);
            }
        }
    }

    /// Take the first equal-PTE run off the front of `rest`, so a loop that
    /// rewrites the table can walk a range's runs in place.
    fn next_run(&self, rest: &mut PageRange) -> Option<PteRun> {
        let run = self.table.runs_in(*rest).next()?;
        *rest = PageRange::new(run.range.end(), rest.end() - run.range.end());
        Some(run)
    }

    /// A batch whose copy failed: no pages moved. Re-enqueue the parts still
    /// in flight with backoff, or — once the attempts are exhausted —
    /// abandon the move, releasing the destination reservation
    /// and leaving the pages in their source tier (the paper's "serve it
    /// from slow memory" degradation, with the stall time already charged
    /// to the channel). Returns `true` when the batch was abandoned.
    fn handle_failed_batch(&mut self, done: &InFlight) -> bool {
        if done.attempt + 1 >= RETRY_MAX_ATTEMPTS {
            let pages = self.roll_back(done);
            if pages == 0 {
                return false; // fully aborted while in flight
            }
            if let Some(inj) = &mut self.injector {
                inj.counters_mut().abandoned_migrations += 1;
                inj.counters_mut().abandoned_pages += pages;
            }
            if self.tracer.enabled() {
                self.tracer.instant(
                    TraceTrack::Migration,
                    "migration",
                    "abandon",
                    done.ready_at,
                    vec![
                        ("id", Json::U64(done.id)),
                        ("first", Json::U64(done.range.first)),
                        ("pages", Json::U64(pages)),
                        ("attempts", Json::U64(u64::from(RETRY_MAX_ATTEMPTS))),
                        ("direction", Json::Str(direction_name(done.direction).into())),
                    ],
                );
                self.trace_used_pages(done.ready_at);
            }
            return true;
        }
        // The retry pays one setup cost per contiguous moving sub-range,
        // like the original batch (pages freed mid-copy are skipped).
        let subs = self.moving_subranges(done.range);
        if subs.is_empty() {
            return false; // fully aborted while in flight
        }
        if let Some(inj) = &mut self.injector {
            inj.counters_mut().migration_retries += 1;
        }
        let backoff = RETRY_BACKOFF_NS.saturating_mul(1u64 << done.attempt.min(16));
        let when = done.ready_at.saturating_add(backoff);
        if self.tracer.enabled() {
            self.tracer.instant(
                TraceTrack::Migration,
                "migration",
                "retry",
                done.ready_at,
                vec![
                    ("id", Json::U64(done.id)),
                    ("first", Json::U64(done.range.first)),
                    ("pages", Json::U64(subs.iter().map(|s| s.count).sum())),
                    ("attempt", Json::U64(u64::from(done.attempt + 1))),
                    ("backoff_ns", Json::U64(backoff)),
                    ("direction", Json::Str(direction_name(done.direction).into())),
                ],
            );
        }
        for sub in subs {
            let (extra_ns, failed) = self.draw_migration_perturbation();
            self.engine.enqueue_perturbed(sub, done.direction, when, false, extra_ns, failed, done.attempt + 1);
        }
        false
    }

    /// The contiguous sub-ranges of `range` whose pages are still moving.
    fn moving_subranges(&self, range: PageRange) -> Vec<PageRange> {
        merge_runs(self.table.runs_in(range).filter(|run| run.pte.in_flight).map(|run| run.range))
    }

    /// Stop `batch`'s pages that are still moving and return their
    /// destination reservation: they stay in their source tier. Returns the
    /// pages stopped.
    fn roll_back(&mut self, batch: &InFlight) -> u64 {
        let mut pages = 0;
        let mut rest = batch.range;
        while let Some(run) = self.next_run(&mut rest) {
            if run.pte.in_flight {
                self.table.set_in_flight(run.range, false);
                pages += run.range.count;
            }
        }
        self.used_pages[batch.direction.dest().index()] -= pages;
        pages
    }

    /// Block until all in-flight migrations finish; returns the completion
    /// time (`>= now`). The caller should advance its clock to the returned
    /// value — this is Sentinel's Case-3 "continue migration and wait".
    pub fn sync_migrations(&mut self, now: Ns) -> Ns {
        let done_at = self.engine.quiescent_at().max(now);
        self.poll(done_at);
        done_at
    }

    /// Time at which the channel moving pages into `dest` becomes idle.
    #[must_use]
    pub fn channel_free_at(&self, dest: Tier) -> Ns {
        self.engine.busy_until(Direction::into_tier(dest))
    }

    /// Whether any migration is still in flight.
    #[must_use]
    pub fn has_in_flight(&self) -> bool {
        self.engine.has_in_flight()
    }

    /// When every in-flight migration overlapping `range` completes, if any.
    /// Waiting until this time (instead of full channel quiescence) lets a
    /// faulting access wait for *its* pages without serializing behind
    /// unrelated queued prefetches.
    #[must_use]
    pub fn range_ready_at(&self, range: PageRange) -> Option<Ns> {
        self.engine.range_ready_at(range)
    }

    /// Abandon every migration still pending at `now` (Case-3 "leave in slow
    /// memory"). Pages stay in their source tier; destination reservations
    /// are released. Returns the number of pages whose move was abandoned.
    pub fn cancel_pending_migrations(&mut self, now: Ns) -> u64 {
        self.poll(now);
        let mut cancelled_pages = 0;
        for batch in self.engine.cancel_pending(now) {
            cancelled_pages += self.roll_back(&batch);
        }
        self.sanitize_rare();
        cancelled_pages
    }

    /// Cancel pending migrations of `range`'s pages (they stay in their
    /// source tier; destination reservations are released). Used by
    /// demand-fault handlers to preempt a queued prefetch of the pages they
    /// need *now*.
    ///
    /// This cancels *every* batch still pending at `now`, overlapping or
    /// not, and re-issues each of their pages outside `range` as its own
    /// single-page copy, which pays the setup cost again and may complete
    /// later than the batch it replaces. The copies of one run are held as
    /// one page-by-page batch (see [`InFlight::page_by_page`]), which times
    /// them exactly as one-page batches. Aborting only the overlapping
    /// batches is ROADMAP item 1.
    pub fn cancel_overlapping(&mut self, range: PageRange, now: Ns) {
        self.abort_migrations_overlapping(range, now);
    }

    /// [`MemorySystem::cancel_overlapping`] re-issuing each surviving page
    /// through [`MemorySystem::migrate`] as its own one-page batch.
    ///
    /// The per-page reference, kept so the system property in
    /// `tests/access_equivalence_prop.rs` can pin the run-by-run abort to
    /// it.
    pub fn cancel_overlapping_per_page(&mut self, range: PageRange, now: Ns) {
        for batch in self.cancel_and_roll_back(now) {
            let dest = batch.direction.dest();
            for p in batch.range.iter().filter(|&p| !range.contains(p)) {
                // Best-effort: if re-issue fails, the page simply stays put.
                let _ = self.migrate(PageRange::new(p, 1), dest, now);
            }
        }
        self.sanitize_rare();
    }

    fn abort_migrations_overlapping(&mut self, range: PageRange, now: Ns) {
        // Re-issue, in id order, each cancelled batch's pages outside the
        // aborted range: at most two runs, before it and after it. Each page
        // is still its own copy paying its own setup, as `migrate` would
        // issue it one page at a time; a run is only *held* as one
        // page-by-page batch.
        for batch in self.cancel_and_roll_back(now) {
            let dest = batch.direction.dest();
            let (first, end) = (batch.range.first, batch.range.end());
            let cut = range.first.clamp(first, end);
            let resume = range.end().clamp(first, end);
            for run in [PageRange::new(first, cut - first), PageRange::new(resume, end - resume)] {
                self.reissue_run(run, dest, now);
            }
        }
        self.sanitize_rare();
    }

    /// Poll, then cancel every pending batch and roll back its flags and
    /// destination reservations, so the table and engine agree again before
    /// any re-issue runs (the re-issues' sanitizer hook must observe a
    /// consistent state). Returns the cancelled batches in id order.
    fn cancel_and_roll_back(&mut self, now: Ns) -> Vec<InFlight> {
        self.poll(now);
        let pending = self.engine.cancel_pending(now);
        for batch in &pending {
            self.roll_back(batch);
        }
        pending
    }

    /// Re-issue the pages of `run` that a one-page [`MemorySystem::migrate`]
    /// into `dest` would accept: those mapped in the source tier and not in
    /// flight, while `dest` has a free page. Nothing frees a page during the
    /// re-issue, so those are the first `free_pages(dest)` eligible pages.
    fn reissue_run(&mut self, run: PageRange, dest: Tier, now: Ns) {
        for eligible in self.subranges_in_tier(run, dest.other()) {
            let free = self.free_pages(dest);
            if free == 0 {
                return;
            }
            self.reissue_pages(PageRange::new(eligible.first, eligible.count.min(free)), dest, now);
        }
    }

    /// Issue each page of `pages` as its own copy. With a fault injector,
    /// one perturbation is drawn per page, in page order, as `migrate`
    /// draws it; a page drawn with a stall or a failure is issued as its own
    /// perturbed batch. The clean pages between form page-by-page batches.
    fn reissue_pages(&mut self, pages: PageRange, dest: Tier, now: Ns) {
        let mut clean = pages.first;
        if self.injector.is_some() {
            for p in pages.iter() {
                let perturbation = self.draw_migration_perturbation();
                if perturbation != (0, false) {
                    self.issue_page_by_page(PageRange::new(clean, p - clean), dest, now);
                    self.issue(PageRange::new(p, 1), dest, now, false, perturbation);
                    clean = p + 1;
                }
            }
        }
        self.issue_page_by_page(PageRange::new(clean, pages.end() - clean), dest, now);
    }

    /// Reserve, flag and enqueue `range` as one page-by-page batch, then
    /// trace and sanitize each page as `migrate` would have after issuing
    /// it; that loop is skipped when neither is on.
    fn issue_page_by_page(&mut self, range: PageRange, dest: Tier, now: Ns) {
        if range.is_empty() {
            return;
        }
        self.reserve_in_flight(range, dest);
        let direction = Direction::into_tier(dest);
        let batch = self.engine.enqueue_page_by_page(range, direction, now);
        if self.tracer.enabled() || self.sanitizer != SanitizerMode::Off {
            let bytes = self.cfg.page_size;
            for page in batch.pages() {
                let ticket = MigrationTicket { id: page.id, ready_at: page.ready_at, pages: 1, bytes };
                self.record_issue(now, ticket, page.range.first, direction, false, (0, false));
            }
        }
    }

    /// Mark the start of a training step. Nothing observable changes: the
    /// cache filter replays a step that repeats the previous one from the
    /// same state (see [`CacheFilter::begin_step`]).
    pub fn begin_step(&mut self) {
        if let Some(cache) = &mut self.cache {
            cache.begin_step();
        }
    }

    // ------------------------------------------------------------ profiling

    /// Begin a profiling phase: every mapped page is poisoned and every
    /// future mapping is poisoned on arrival, so each main-memory access
    /// faults and is counted (paper Section III-A).
    pub fn start_profiling(&mut self) {
        self.profiler = Some(PageAccessMap::new());
        self.selective_profiling = false;
        self.table.poison_all_mapped();
        if let Some(cache) = &mut self.cache {
            // The paper flushes the TLB; flushing the cache filter keeps the
            // first profiled access of each page visible to the counter.
            cache.flush();
        }
        self.sanitize_rare();
    }

    /// Begin a *selective* profiling phase: only the given ranges are
    /// poisoned, and — unlike [`MemorySystem::start_profiling`] — fresh
    /// mappings arrive unpoisoned. This is the incremental re-profiling
    /// primitive: an observation step counts faults for a suspect subset of
    /// tensors while the rest of the run proceeds fault-free. Ranges must be
    /// reserved (mapped or not); out-of-range poisoning is a caller bug.
    /// Ended by the same [`MemorySystem::stop_profiling`].
    pub fn start_profiling_ranges(&mut self, ranges: &[PageRange]) {
        self.profiler = Some(PageAccessMap::new());
        self.selective_profiling = true;
        for &range in ranges {
            if !range.is_empty() {
                self.table.set_poisoned(range, true);
            }
        }
        if let Some(cache) = &mut self.cache {
            // Same shootdown cost as a full poison pass: the first profiled
            // access of each page must reach the counter.
            cache.flush();
        }
        self.sanitize_rare();
    }

    /// Poison one more range during an active profiling phase (no-op
    /// otherwise, so callers need not re-check the phase). A selective
    /// observation uses this when a watched tensor is (re)allocated
    /// mid-step: its fresh mapping arrives unpoisoned and would otherwise
    /// escape the fault counter.
    pub fn poison_range(&mut self, range: PageRange) {
        if self.profiler.is_some() && !range.is_empty() {
            self.table.set_poisoned(range, true);
            if let Some(cache) = &mut self.cache {
                cache.flush();
            }
        }
    }

    /// End the profiling phase, unpoisoning all pages and returning the
    /// collected per-page access counts.
    pub fn stop_profiling(&mut self) -> PageAccessMap {
        self.table.unpoison_all();
        self.selective_profiling = false;
        let map = self.profiler.take().unwrap_or_default();
        self.sanitize_rare();
        map
    }

    /// Whether a profiling phase is active.
    #[must_use]
    pub fn profiling(&self) -> bool {
        self.profiler.is_some()
    }

    // ------------------------------------------------------------ modes

    /// Enable Optane Memory Mode: all pages should be mapped in [`Tier::Slow`];
    /// the fast tier becomes a hardware-managed page cache of `spec`'s
    /// geometry. The Memory-Mode baseline's, from
    /// [`MemoryModeSpec::from_config`], is 8-way set-associative on virtual
    /// pages.
    pub fn enable_memory_mode(&mut self, spec: MemoryModeSpec) {
        self.memmode = Some(MemoryModeCache::new(spec));
    }

    /// Memory-Mode cache statistics, if enabled.
    #[must_use]
    pub fn memory_mode_stats(&self) -> Option<&crate::MemoryModeStats> {
        self.memmode.as_ref().map(|m| m.stats())
    }

    /// Record per-tier traffic into time buckets of `bucket_ns` (Figure 9).
    pub fn enable_timeline(&mut self, bucket_ns: Ns) {
        self.timeline = Some(StatsTimeline::new(bucket_ns));
    }

    /// The recorded traffic timeline, if enabled.
    #[must_use]
    pub fn timeline(&self) -> Option<&StatsTimeline> {
        self.timeline.as_ref()
    }

    // ------------------------------------------------------------ stats

    /// Aggregate counters.
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Accesses that hit unmapped pages (should be zero in healthy runs).
    #[must_use]
    pub fn unmapped_accesses(&self) -> u64 {
        self.unmapped_accesses
    }

    // ------------------------------------------------- state introspection

    /// Borrow the page table, e.g. to compare two systems' mapping state.
    #[must_use]
    pub fn page_table(&self) -> &PageTable {
        &self.table
    }

    /// Borrow the cache filter, if enabled.
    #[must_use]
    pub fn cache_filter(&self) -> Option<&CacheFilter> {
        self.cache.as_ref()
    }

    /// Borrow the Memory-Mode cache, if enabled.
    #[must_use]
    pub fn memory_mode(&self) -> Option<&MemoryModeCache> {
        self.memmode.as_ref()
    }

    /// Borrow the active profiling phase's fault record, if one is running.
    #[must_use]
    pub fn profiler(&self) -> Option<&PageAccessMap> {
        self.profiler.as_ref()
    }

    // ------------------------------------------ tenant quota and lane share

    /// Cap the fast tier at `quota` pages (`None` restores the configured
    /// capacity). The cap is folded into [`MemorySystem::free_pages`], so
    /// every allocation and migration admission check sees it; a quota at or
    /// above capacity is byte-identical to no quota at all. Setting a quota
    /// *below* current usage does not evict anything — the owner is expected
    /// to demote down to the cap and report the transient breach.
    pub fn set_fast_quota_pages(&mut self, quota: Option<u64>) {
        self.fast_quota_pages = quota;
    }

    /// The fast-tier page quota, if one is imposed.
    #[must_use]
    pub fn fast_quota_pages(&self) -> Option<u64> {
        self.fast_quota_pages
    }

    /// Pages mapped in fast memory beyond the current quota (0 when no
    /// quota is set or the tenant is within it) — the magnitude of a
    /// transient quota breach.
    #[must_use]
    pub fn fast_quota_excess_pages(&self) -> u64 {
        match self.fast_quota_pages {
            Some(q) => self.used_pages[Tier::Fast.index()].saturating_sub(q),
            None => 0,
        }
    }

    /// The allocatable fast-tier capacity in bytes after any quota cap —
    /// what a capacity-aware planner should solve against. Identical to the
    /// configured capacity when no quota is imposed.
    #[must_use]
    pub fn effective_fast_capacity_bytes(&self) -> u64 {
        let cap = self.config().fast.capacity_bytes;
        match self.fast_quota_pages {
            Some(q) => cap.min(q.saturating_mul(self.page_size())),
            None => cap,
        }
    }

    /// The promote-channel bandwidth after the migration lane share — what
    /// a bandwidth-aware planner should solve against. Identical to the
    /// configured bandwidth at the default `1/1` share.
    #[must_use]
    pub fn effective_promote_bw_bytes_per_ns(&self) -> f64 {
        let (num, den) = self.engine.lane_share();
        self.config().promote_bw_bytes_per_ns * num as f64 / den as f64
    }

    /// Scale both migration channels to `num / den` of the platform's
    /// configured bandwidth — a tenant's share of the fleet's migration
    /// lanes. A `1 / 1` share is byte-identical to an untouched engine.
    ///
    /// # Panics
    ///
    /// Panics if `num` is zero or `num > den` (a share must be a positive
    /// fraction at most 1).
    pub fn set_migration_lane_share(&mut self, num: u64, den: u64) {
        self.engine.set_lane_share(num, den);
    }

    // ------------------------------------------------------ fault injection

    /// Install a seeded fault injector. An injector whose profile has every
    /// rate at zero consumes no entropy and leaves behaviour byte-identical
    /// to having no injector at all (no-fault transparency).
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Snapshot of the fault counters (all zero when no injector is set).
    #[must_use]
    pub fn fault_counters(&self) -> FaultCounters {
        self.injector.as_ref().map(|i| *i.counters()).unwrap_or_default()
    }

    // -------------------------------------------------------------- tracing

    /// Install a structured-trace recorder. The default is the inert
    /// [`TraceHandle::disabled`], which records nothing and keeps every
    /// instrumentation site down to a single branch.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = tracer;
    }

    /// The active trace handle (clone it to record from other components —
    /// clones share this system's event buffer).
    #[must_use]
    pub fn tracer(&self) -> &TraceHandle {
        &self.tracer
    }

    /// Full-detail instant for a mapping event.
    fn trace_mem_instant(&self, name: &'static str, now: Ns, range: PageRange, tier: Option<Tier>) {
        let mut args = vec![
            ("first", Json::U64(range.first)),
            ("pages", Json::U64(range.count)),
        ];
        if let Some(tier) = tier {
            args.push(("tier", Json::Str(format!("{tier:?}").to_ascii_lowercase())));
        }
        self.tracer.instant(TraceTrack::Memory, "mem", name, now, args);
        self.trace_used_pages(now);
    }

    /// Full-detail counter sample of per-tier page usage.
    fn trace_used_pages(&self, now: Ns) {
        if self.tracer.full() {
            self.tracer.counter(
                TraceTrack::Memory,
                "mem",
                "used_pages",
                now,
                vec![
                    ("fast", Json::U64(self.used_pages[Tier::Fast.index()])),
                    ("slow", Json::U64(self.used_pages[Tier::Slow.index()])),
                ],
            );
        }
    }

    // ------------------------------------------------------------ sanitizer

    /// Override the residency sanitizer mode (the build default is
    /// [`SanitizerMode::default_mode`]).
    pub fn set_sanitizer_mode(&mut self, mode: SanitizerMode) {
        self.sanitizer = mode;
    }

    /// The active sanitizer mode.
    #[must_use]
    pub fn sanitizer_mode(&self) -> SanitizerMode {
        self.sanitizer
    }

    /// The first invariant violation the sanitizer found, if any. Latched:
    /// once set it stays until inspected, so callers that cannot return a
    /// `Result` from the access path (the executor) surface it at the next
    /// step boundary as a typed error instead of a panic.
    #[must_use]
    pub fn sanitizer_violation(&self) -> Option<&MemError> {
        self.violation.as_ref()
    }

    /// Validate the residency invariants right now, regardless of mode:
    ///
    /// 1. every page the engine is migrating is flagged in-flight in the
    ///    table, and no in-flight flag exists without a covering batch
    ///    (so no page can be double-booked or leaked mid-copy);
    /// 2. per-tier `used_pages` equals mapped pages plus in-flight
    ///    destination reservations — byte accounting is exact, and a page
    ///    can never be counted in both tiers (the table maps each page to
    ///    at most one tier by construction; this catches accounting drift);
    /// 3. neither tier's usage exceeds its configured capacity;
    /// 4. poison bits only exist while a profiling phase is active.
    ///
    /// # Errors
    ///
    /// [`MemError::InvariantViolation`] describing the first broken
    /// invariant.
    pub fn check_invariants(&self) -> Result<(), MemError> {
        let mut covered = 0u64;
        let mut reserved = [0u64; 2];
        for batch in self.engine.in_flight() {
            let mut pages = 0u64;
            for run in self.table.runs_in(batch.range) {
                if run.pte.in_flight {
                    pages += run.range.count;
                }
            }
            covered += pages;
            reserved[batch.direction.dest().index()] += pages;
        }
        let flagged = self.table.in_flight_count();
        if covered != flagged {
            let runs: Vec<String> = self
                .table
                .runs_in(PageRange::new(0, self.table.reserved()))
                .filter(|r| r.pte.in_flight)
                .map(|r| format!("{}+{}", r.range.first, r.range.count))
                .collect();
            let batches: Vec<String> = self
                .engine
                .in_flight()
                .map(|b| format!("{}+{}@{}{:?}", b.range.first, b.range.count, b.ready_at, b.direction))
                .collect();
            return Err(MemError::InvariantViolation {
                detail: format!(
                    "{flagged} pages flagged in-flight but {covered} covered by engine batches; flagged runs [{}]; batches [{}]",
                    runs.join(","),
                    batches.join(",")
                ),
            });
        }
        let mapped = self.table.mapped_counts();
        for tier in Tier::both() {
            let i = tier.index();
            let expected = mapped[i] + reserved[i];
            if self.used_pages[i] != expected {
                return Err(MemError::InvariantViolation {
                    detail: format!(
                        "{tier} accounting drift: used_pages={} but mapped={} + in-flight reservations={}",
                        self.used_pages[i], mapped[i], reserved[i]
                    ),
                });
            }
            let capacity = self.cfg.tier(tier).capacity_pages(self.cfg.page_size);
            if self.used_pages[i] > capacity {
                return Err(MemError::InvariantViolation {
                    detail: format!(
                        "{tier} over capacity: used_pages={} > capacity={capacity}",
                        self.used_pages[i]
                    ),
                });
            }
        }
        if self.profiler.is_none() {
            let poisoned = self.table.poisoned_count();
            if poisoned > 0 {
                return Err(MemError::InvariantViolation {
                    detail: format!("{poisoned} poisoned pages outside a profiling phase"),
                });
            }
        }
        Ok(())
    }

    /// Sampled sanitizer hook for frequent mutation events.
    fn sanitize_event(&mut self) {
        if self.sanitizer == SanitizerMode::Off || self.violation.is_some() {
            return;
        }
        self.sanitize_events += 1;
        if !self.sanitize_events.is_multiple_of(SANITIZE_STRIDE) {
            return;
        }
        if let Err(e) = self.check_invariants() {
            self.violation = Some(e);
        }
        self.trace_sanitizer_sample("sanitize_sampled");
    }

    /// Unsampled sanitizer hook for rare, high-risk events (cancellation,
    /// abandoned migrations, profiling toggles).
    fn sanitize_rare(&mut self) {
        if self.sanitizer == SanitizerMode::Off || self.violation.is_some() {
            return;
        }
        if let Err(e) = self.check_invariants() {
            self.violation = Some(e);
        }
        self.trace_sanitizer_sample("sanitize_rare");
    }

    /// Full-detail instant recording that a sanitizer check ran. Stamped
    /// with the latest entry-point time: the sanitizer itself has no clock.
    fn trace_sanitizer_sample(&self, name: &'static str) {
        if self.tracer.full() {
            self.tracer.instant(
                TraceTrack::Memory,
                "sanitizer",
                name,
                self.last_now,
                vec![
                    ("events", Json::U64(self.sanitize_events)),
                    ("ok", Json::Bool(self.violation.is_none())),
                ],
            );
        }
    }

    /// Mutable page-table access for corruption tests of the sanitizer.
    /// Writing through this bypasses all accounting — that is the point.
    #[doc(hidden)]
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.table
    }

    /// Reset traffic counters (keeps mappings, modes and migrations).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
        self.stats.observe_mapped(self.used_pages);
        self.unmapped_accesses = 0;
        if let Some(tl) = &mut self.timeline {
            *tl = StatsTimeline::new(tl.bucket_ns());
        }
    }
}

/// Stable lowercase name for a migration direction in trace args.
fn direction_name(direction: Direction) -> &'static str {
    match direction {
        Direction::Promote => "promote",
        Direction::Demote => "demote",
    }
}

/// Merge adjacent page runs into contiguous ranges. Runs split only by a
/// bit the caller does not care about (such as poison) are one range, so a
/// migration batch built from it pays one setup cost.
fn merge_runs(runs: impl Iterator<Item = PageRange>) -> Vec<PageRange> {
    let mut out: Vec<PageRange> = Vec::new();
    for run in runs {
        match out.last_mut() {
            Some(last) if last.end() == run.first => last.count += run.count,
            _ => out.push(run),
        }
    }
    out
}

/// The maximal runs of `range` between its ascending, disjoint `hits`.
fn miss_runs(range: PageRange, hits: &[PageRange]) -> impl Iterator<Item = PageRange> + '_ {
    let mut cur = range.first;
    hits.iter().copied().chain([PageRange::new(range.end(), 0)]).filter_map(move |hit| {
        let gap = PageRange::new(cur, hit.first - cur);
        cur = hit.end();
        (!gap.is_empty()).then_some(gap)
    })
}

/// Route a run of main-memory pages through the Memory-Mode cache, for both
/// access pipelines. Each page carries `per_pay` payload bytes and is
/// charged as `per_model`. Charges the cache's time, splits the payload by
/// the tier that served each page, and records the traffic: the payload,
/// each read miss's PMM fill beyond it, and each dirty victim's page written
/// back to PMM. Free for the same reason as [`record_traffic_into`], and
/// kept out of line: inlined into `access`, it slowed the filter's run loop
/// on runs without Memory Mode (zoo-steady steps by 6%).
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn memory_mode_access(
    memmode: &mut MemoryModeCache,
    cfg: &HmConfig,
    stats: &mut MemStats,
    timeline: &mut Option<StatsTimeline>,
    report: &mut AccessReport,
    range: PageRange,
    per_model: u64,
    per_pay: u64,
    write: bool,
    now: Ns,
) {
    let mm = memmode.access_run(range, per_model, write, cfg);
    report.elapsed_ns += mm.elapsed_ns;
    report.bytes_fast += mm.fast_pages * per_pay;
    report.bytes_slow += mm.slow_pages * per_pay;
    stats.mm_accesses[Tier::Fast.index()] += mm.fast_pages;
    stats.mm_accesses[Tier::Slow.index()] += mm.slow_pages;
    let fill = mm.slow_pages * cfg.page_size.saturating_sub(per_model);
    for (tier, bytes, written) in [
        (Tier::Fast, mm.fast_pages * per_model, write),
        (Tier::Slow, mm.slow_pages * per_model, write),
        (Tier::Slow, fill, false),
        (Tier::Slow, mm.writebacks * cfg.page_size, true),
    ] {
        if bytes > 0 {
            record_traffic_into(stats, timeline, tier, bytes, written, now);
        }
    }
}

/// Record traffic against the counters and timeline directly. Free function
/// so the run loop in [`MemorySystem::access`] can call it while the page
/// table is borrowed by the run iterator.
fn record_traffic_into(
    stats: &mut MemStats,
    timeline: &mut Option<StatsTimeline>,
    tier: Tier,
    bytes: u64,
    write: bool,
    now: Ns,
) {
    if write {
        stats.bytes_written[tier.index()] += bytes;
    } else {
        stats.bytes_read[tier.index()] += bytes;
    }
    if let Some(tl) = timeline {
        tl.record(tier, bytes, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(HmConfig::testing())
    }

    #[test]
    fn map_and_unmap_track_usage() {
        let mut m = sys();
        let r = m.reserve(4);
        m.map(r, Tier::Fast, 0).unwrap();
        assert_eq!(m.used_pages(Tier::Fast), 4);
        assert_eq!(m.free_pages(Tier::Fast), 12);
        m.unmap(r, 0).unwrap();
        assert_eq!(m.used_pages(Tier::Fast), 0);
    }

    #[test]
    fn double_map_is_rejected() {
        let mut m = sys();
        let r = m.reserve(2);
        m.map(r, Tier::Fast, 0).unwrap();
        assert!(matches!(m.map(r, Tier::Slow, 0), Err(MemError::AlreadyMapped { .. })));
    }

    #[test]
    fn capacity_is_enforced() {
        let mut m = sys();
        let r = m.reserve(17); // fast tier holds 16 pages
        assert!(matches!(m.map(r, Tier::Fast, 0), Err(MemError::CapacityExceeded { .. })));
        m.map(r, Tier::Slow, 0).unwrap();
    }

    #[test]
    fn access_charges_tier_timing() {
        let mut m = sys();
        let fast = m.reserve(1);
        let slow = m.reserve(1);
        m.map(fast, Tier::Fast, 0).unwrap();
        m.map(slow, Tier::Slow, 0).unwrap();
        let a = m.access(fast, 4096, AccessKind::Read, 0);
        let b = m.access(slow, 4096, AccessKind::Read, 0);
        assert!(b.elapsed_ns > a.elapsed_ns);
        assert_eq!(a.bytes_fast, 4096);
        assert_eq!(b.bytes_slow, 4096);
        assert_eq!(a.mm_accesses, 1);
    }

    #[test]
    fn migration_moves_pages_after_completion() {
        let mut m = sys();
        let r = m.reserve(2);
        m.map(r, Tier::Slow, 0).unwrap();
        let t = m.migrate(r, Tier::Fast, 0).unwrap();
        // Before completion the pages still read as slow.
        assert_eq!(m.tier_of(r.first), Some(Tier::Slow));
        assert_eq!(m.used_pages(Tier::Fast), 2); // reserved
        m.poll(t.ready_at);
        assert_eq!(m.tier_of(r.first), Some(Tier::Fast));
        assert_eq!(m.used_pages(Tier::Slow), 0);
        assert_eq!(m.used_pages(Tier::Fast), 2);
    }

    #[test]
    fn migrate_requires_source_tier() {
        let mut m = sys();
        let r = m.reserve(1);
        m.map(r, Tier::Fast, 0).unwrap();
        assert!(matches!(m.migrate(r, Tier::Fast, 0), Err(MemError::NotMapped { .. })));
    }

    #[test]
    fn double_migration_is_rejected() {
        let mut m = sys();
        let r = m.reserve(1);
        m.map(r, Tier::Slow, 0).unwrap();
        m.migrate(r, Tier::Fast, 0).unwrap();
        assert!(matches!(m.migrate(r, Tier::Fast, 0), Err(MemError::MigrationInFlight { .. })));
    }

    #[test]
    fn cancel_pending_keeps_pages_in_source() {
        let mut m = sys();
        let r = m.reserve(4);
        m.map(r, Tier::Slow, 0).unwrap();
        m.migrate(r, Tier::Fast, 0).unwrap();
        let cancelled = m.cancel_pending_migrations(1); // long before ready
        assert_eq!(cancelled, 4);
        assert_eq!(m.tier_of(r.first), Some(Tier::Slow));
        assert_eq!(m.used_pages(Tier::Fast), 0);
    }

    #[test]
    fn sync_migrations_advances_to_quiescence() {
        let mut m = sys();
        let r = m.reserve(2);
        m.map(r, Tier::Slow, 0).unwrap();
        let t = m.migrate(r, Tier::Fast, 0).unwrap();
        let done = m.sync_migrations(0);
        assert_eq!(done, t.ready_at);
        assert_eq!(m.tier_of(r.first), Some(Tier::Fast));
    }

    #[test]
    fn unmap_aborts_overlapping_migration() {
        let mut m = sys();
        let r = m.reserve(2);
        m.map(r, Tier::Slow, 0).unwrap();
        m.migrate(r, Tier::Fast, 0).unwrap();
        m.unmap(r, 0).unwrap();
        assert_eq!(m.used_pages(Tier::Fast), 0);
        assert_eq!(m.used_pages(Tier::Slow), 0);
        assert!(m.tier_of(r.first).is_none());
    }

    #[test]
    fn profiling_counts_mm_accesses() {
        let mut m = sys();
        let r = m.reserve(2);
        m.map(r, Tier::Slow, 0).unwrap();
        m.start_profiling();
        assert!(m.profiling());
        let rep = m.access(r, 8192, AccessKind::Read, 0);
        assert_eq!(rep.faults, 2);
        let again = m.access(r, 8192, AccessKind::Write, 0);
        assert_eq!(again.faults, 2); // re-poisoned, counted again
        let map = m.stop_profiling();
        assert_eq!(map.count(r.first), 2);
        assert_eq!(map.total(), 4);
        assert!(!m.profiling());
    }

    #[test]
    fn profiling_fault_overhead_is_charged() {
        let mut m = sys();
        let r = m.reserve(1);
        m.map(r, Tier::Slow, 0).unwrap();
        let before = m.access(r, 4096, AccessKind::Read, 0).elapsed_ns;
        m.start_profiling();
        let during = m.access(r, 4096, AccessKind::Read, 0).elapsed_ns;
        assert_eq!(during, before + m.config().fault_overhead_ns);
    }

    #[test]
    fn pages_mapped_during_profiling_are_poisoned() {
        let mut m = sys();
        m.start_profiling();
        let r = m.reserve(1);
        m.map(r, Tier::Slow, 0).unwrap();
        let rep = m.access(r, 4096, AccessKind::Read, 0);
        assert_eq!(rep.faults, 1);
    }

    #[test]
    fn memory_mode_services_hits_from_fast() {
        let mut m = sys();
        m.enable_memory_mode(MemoryModeSpec::with_capacity_pages(8));
        let r = m.reserve(1);
        m.map(r, Tier::Slow, 0).unwrap();
        let miss = m.access(r, 4096, AccessKind::Read, 0);
        let hit = m.access(r, 4096, AccessKind::Read, 0);
        assert!(hit.elapsed_ns < miss.elapsed_ns);
        assert_eq!(miss.bytes_slow, 4096);
        assert_eq!(hit.bytes_fast, 4096);
        let s = m.memory_mode_stats().unwrap();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn timeline_records_traffic() {
        let mut m = sys();
        m.enable_timeline(1_000);
        let r = m.reserve(1);
        m.map(r, Tier::Fast, 0).unwrap();
        m.access(r, 4096, AccessKind::Read, 500);
        let tl = m.timeline().unwrap();
        assert_eq!(tl.samples()[0].fast_bytes, 4096);
    }

    #[test]
    fn subranges_in_tier_splits_correctly() {
        let mut m = sys();
        let r = m.reserve(6);
        m.map(PageRange::new(0, 2), Tier::Fast, 0).unwrap();
        m.map(PageRange::new(2, 2), Tier::Slow, 0).unwrap();
        m.map(PageRange::new(4, 2), Tier::Fast, 0).unwrap();
        let subs = m.subranges_in_tier(r, Tier::Fast);
        assert_eq!(subs, vec![PageRange::new(0, 2), PageRange::new(4, 2)]);
        let slow = m.subranges_in_tier(r, Tier::Slow);
        assert_eq!(slow, vec![PageRange::new(2, 2)]);
        assert_eq!((m.pages_in_tier(r, Tier::Fast), m.pages_in_tier(r, Tier::Slow)), (4, 2));
        // In-flight pages are in neither list nor count.
        m.migrate(PageRange::new(4, 1), Tier::Slow, 0).unwrap();
        assert_eq!(m.subranges_in_tier(r, Tier::Fast), vec![PageRange::new(0, 2), PageRange::new(5, 1)]);
        assert_eq!((m.pages_in_tier(r, Tier::Fast), m.pages_in_tier(r, Tier::Slow)), (3, 2));
    }

    #[test]
    fn access_to_unmapped_counts_and_uses_slow() {
        let mut m = sys();
        let r = m.reserve(1);
        let rep = m.access(r, 4096, AccessKind::Read, 0);
        assert_eq!(rep.bytes_slow, 4096);
        assert_eq!(m.unmapped_accesses(), 1);
    }

    #[test]
    fn access_bytes_are_conserved_exactly() {
        // Payloads that do not divide the page count must still be accounted
        // byte-exactly: fast + slow + cache == requested, with the remainder
        // spread over the leading pages instead of truncated or inflated.
        let mut m = sys();
        let r = m.reserve(7);
        m.map(PageRange::new(0, 3), Tier::Fast, 0).unwrap();
        m.map(PageRange::new(3, 4), Tier::Slow, 0).unwrap();
        for bytes in [1u64, 3, 7, 100, 4096, 4099, 7 * 4096 + 5] {
            let rep = m.access(r, bytes, AccessKind::Read, 0);
            assert_eq!(
                rep.bytes_fast + rep.bytes_slow + rep.bytes_cache,
                bytes,
                "bytes not conserved for payload {bytes}"
            );
        }
        // Fewer bytes than pages: the tail pages carry zero payload.
        let rep = m.access(r, 2, AccessKind::Write, 0);
        assert_eq!(rep.bytes_fast + rep.bytes_slow + rep.bytes_cache, 2);
        assert_eq!(rep.mm_accesses + rep.cache_hits, 7);
    }

    #[test]
    fn batched_access_matches_per_page_reference() {
        // Mixed layout: fast, slow, poisoned-slow and unmapped runs, driven
        // through both pipelines; reports and every piece of observable
        // state must agree. (The property suite covers random layouts.)
        let build = || {
            let mut m = MemorySystem::new(HmConfig::testing());
            m.enable_timeline(1_000);
            m.reserve(12);
            m.map(PageRange::new(0, 4), Tier::Fast, 0).unwrap();
            m.map(PageRange::new(4, 6), Tier::Slow, 0).unwrap();
            m.start_profiling();
            m
        };
        let mut a = build();
        let mut b = build();
        for (range, bytes, kind) in [
            (PageRange::new(0, 12), 4096 * 12, AccessKind::Read),
            (PageRange::new(2, 7), 12345, AccessKind::Write),
            (PageRange::new(0, 5), 3, AccessKind::Read),
            (PageRange::new(6, 6), 8191, AccessKind::Write),
        ] {
            let ra = a.access(range, bytes, kind, 500);
            let rb = b.access_per_page(range, bytes, kind, 500);
            assert_eq!(ra, rb, "report diverged for {range}");
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.timeline(), b.timeline());
        assert_eq!(a.page_table(), b.page_table());
        assert_eq!(a.cache_filter(), b.cache_filter());
        assert_eq!(a.profiler(), b.profiler());
        assert_eq!(a.unmapped_accesses(), b.unmapped_accesses());
    }

    #[test]
    fn reset_stats_clears_traffic_but_not_layout() {
        let mut m = sys();
        let r = m.reserve(1);
        m.map(r, Tier::Fast, 0).unwrap();
        m.access(r, 4096, AccessKind::Read, 0);
        m.reset_stats();
        assert_eq!(m.stats().tier_bytes(Tier::Fast), 0);
        assert_eq!(m.used_pages(Tier::Fast), 1);
    }
}
