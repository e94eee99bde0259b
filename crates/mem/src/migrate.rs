//! The dual-channel page migration engine.
//!
//! The paper's runtime uses two helper threads for migration — "one for data
//! migration from fast to slow memory, and one for migration in the opposite
//! way. The two migration threads work in parallel to accelerate migration"
//! (Section VI). The engine models each direction as an independent channel
//! with its own bandwidth: a batch issued at time `t` starts when the channel
//! is free, takes `setup + bytes/bw`, and completes at `ready_at`. Batches
//! on the same channel serialize; batches on opposite channels overlap.
//!
//! ## Four FIFO lanes
//!
//! Each direction has a plain lane and an urgent (demand-fault) lane, and
//! each lane is a queue of its in-flight batches in issue order. A lane
//! starts a batch only once its previous batch is done (`started_at >=`
//! the lane's `busy_until`, which is at least every queued `ready_at`), and
//! a cancel never lowers `busy_until` below a kept or drained completion,
//! so `started_at` and `ready_at` never decrease along a lane: issue order
//! *is* completion order within a lane. A drain pops each lane's completed
//! prefix, a cancel splits off each lane's pending suffix, and both sort the
//! few batches they return by id, so callers see issue order across lanes.
//! A poll with nothing landed is a compare and a flag test per lane and
//! allocates nothing. [`MigrationEngine::drain_completed_scan`] tests every
//! batch without assuming lane order; it is the reference the drain is
//! pinned to.
//!
//! ## Page-by-page batches
//!
//! One entry may stand for a run of one-page copies issued back to back on
//! a plain lane ([`MigrationEngine::enqueue_page_by_page`]): page `i` of the
//! run has id `id + i`, starts at `started_at + i · period` and lands at
//! `started_at + (i + 1) · period`. That is exactly the `count` one-page
//! batches [`MigrationEngine::enqueue`] would make when called once per page
//! at the same `now`: after the first page the lane is busy until the
//! previous page lands, so each page starts where the last one ended. The
//! entry reserves its `count` ids up front, so no other batch's id falls
//! inside its run and sorting entries by first id still sorts their pages
//! by id. A drain or cancel that falls inside such an entry splits it at
//! the last page landed by `now`: the landed prefix drains (or stays queued,
//! for a cancel) as one entry and the rest keeps its per-page times. So every
//! observable — ids, landing times, lane reservations, `range_ready_at` —
//! equals the one-page batches', while an abort that re-issues thousands of
//! pages holds them as a few entries. [`InFlight::pages`] expands an entry
//! into those one-page batches.

use crate::{Ns, PageRange, Tier};
use std::collections::VecDeque;

/// Migration direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Slow → fast ("prefetch" in the paper's tensor-migration scheme).
    Promote,
    /// Fast → slow (eviction to save fast-memory space).
    Demote,
}

impl Direction {
    /// Direction that lands pages in `dest`.
    #[must_use]
    pub fn into_tier(dest: Tier) -> Direction {
        match dest {
            Tier::Fast => Direction::Promote,
            Tier::Slow => Direction::Demote,
        }
    }

    /// The tier this direction moves pages *to*.
    #[must_use]
    pub fn dest(self) -> Tier {
        match self {
            Direction::Promote => Tier::Fast,
            Direction::Demote => Tier::Slow,
        }
    }

    /// The tier this direction moves pages *from*.
    #[must_use]
    pub fn source(self) -> Tier {
        self.dest().other()
    }

    fn index(self) -> usize {
        match self {
            Direction::Promote => 0,
            Direction::Demote => 1,
        }
    }
}

/// Receipt for an issued migration batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationTicket {
    /// Engine-unique identifier of the batch.
    pub id: u64,
    /// Simulated time at which the batch completes.
    pub ready_at: Ns,
    /// Pages in the batch.
    pub pages: u64,
    /// Bytes in the batch.
    pub bytes: u64,
}

/// A batch currently being copied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InFlight {
    /// Identifier matching the issued [`MigrationTicket`].
    pub id: u64,
    /// Pages being moved.
    pub range: PageRange,
    /// Direction of the move.
    pub direction: Direction,
    /// Time the channel actually began this copy (issue time, or later if
    /// the lane was busy).
    pub started_at: Ns,
    /// Completion time.
    pub ready_at: Ns,
    /// Whether the batch rides the urgent (demand-fault) lane.
    pub urgent: bool,
    /// Retry attempt number (0 for the first issue of a batch).
    pub attempt: u32,
    /// Whether an injected fault made this copy fail: at `ready_at` the
    /// pages have *not* moved and the owner must retry or abandon.
    pub failed: bool,
    /// Whether the entry is a *page-by-page batch*: `range.count` one-page
    /// copies with ids `id..id + range.count`, page `i` starting at
    /// `started_at + i · period` and landing at `started_at + (i + 1) ·
    /// period`, where `period = (ready_at − started_at) / range.count`. Such
    /// a batch is always plain, unperturbed and a first attempt. A one-page
    /// batch means the same either way.
    pub page_by_page: bool,
}

impl InFlight {
    /// The batch as the one-page batches it stands for, in id order: each
    /// page of a page-by-page batch, or the batch itself otherwise.
    pub fn pages(&self) -> impl Iterator<Item = InFlight> + '_ {
        let (count, period) = if self.page_by_page { (self.range.count, self.period()) } else { (1, 0) };
        (0..count).map(move |i| {
            if !self.page_by_page {
                return self.clone();
            }
            let started_at = self.started_at + i * period;
            InFlight {
                id: self.id + i,
                range: PageRange::new(self.range.first + i, 1),
                started_at,
                ready_at: started_at + period,
                page_by_page: false,
                ..self.clone()
            }
        })
    }

    /// One page's copy time in a page-by-page batch.
    fn period(&self) -> Ns {
        (self.ready_at - self.started_at) / self.range.count
    }

    /// When the page at offset `i` of the batch lands.
    fn landing(&self, i: u64) -> Ns {
        if self.page_by_page {
            self.started_at + (i + 1) * self.period()
        } else {
            self.ready_at
        }
    }

    /// Split off the pages landed by `now`, if any: the whole batch, which
    /// leaves `self` empty, or a page-by-page batch's landed prefix, which
    /// leaves `self` the rest with its per-page times unchanged.
    fn take_landed(&mut self, now: Ns) -> Option<InFlight> {
        if self.ready_at <= now {
            let all = self.clone();
            self.range.count = 0;
            return Some(all);
        }
        if !self.page_by_page || now < self.landing(0) {
            return None;
        }
        // `landing(0) <= now < ready_at`, so the period is positive.
        let landed = (now - self.started_at) / self.period();
        let cut = self.started_at + landed * self.period();
        let prefix = InFlight { range: PageRange::new(self.range.first, landed), ready_at: cut, ..self.clone() };
        self.id += landed;
        self.range = PageRange::new(self.range.first + landed, self.range.count - landed);
        self.started_at = cut;
        Some(prefix)
    }
}

/// One serial copy lane: its in-flight batches in issue order, which is
/// also completion order (see the module docs).
#[derive(Debug, Default)]
struct Lane {
    queue: VecDeque<InFlight>,
    /// When the lane's last started copy ends; the next batch starts no
    /// earlier.
    busy_until: Ns,
    /// Latest completion drained from the lane. A cancel keeps the lane
    /// booked at least this long: finished copies used that channel time.
    done_at: Ns,
}

impl Lane {
    /// Queue a batch behind the lane's last one and book the lane until it
    /// lands.
    fn push(&mut self, batch: InFlight) {
        debug_assert!(
            self.queue.back().is_none_or(|f| f.started_at <= batch.started_at && f.ready_at <= batch.ready_at),
            "a lane's batches must start and complete in issue order"
        );
        self.busy_until = batch.ready_at;
        self.queue.push_back(batch);
    }

    /// Take what has landed by `now` of the lane's front batch: all of it
    /// or, for a page-by-page batch, its landed prefix.
    fn pop_landed(&mut self, now: Ns) -> Option<InFlight> {
        let front = self.queue.front_mut()?;
        let batch = front.take_landed(now)?;
        if front.range.is_empty() {
            self.queue.pop_front();
        }
        self.done_at = batch.ready_at;
        Some(batch)
    }
}

/// Two independent directional migration channels with bandwidth accounting.
#[derive(Debug)]
pub struct MigrationEngine {
    /// Bandwidth per direction in bytes/ns, indexed by [`Direction::index`].
    bw: [f64; 2],
    /// `bw` scaled by `lane_share`: what each copy is timed at.
    share_bw: [f64; 2],
    setup_ns: Ns,
    page_size: u64,
    /// Lanes indexed `[urgent][direction]`. Urgent copies (demand faults)
    /// queue only behind other urgent copies, not behind prefetch batches
    /// (GPU fault-handling DMA takes priority over
    /// `cudaMemPrefetchAsync` streams).
    lanes: [[Lane; 2]; 2],
    next_id: u64,
    /// This engine's share of the platform migration bandwidth as a
    /// rational `num / den` — a multi-tenant arbiter divides the fleet's
    /// lanes between tenants. Defaults to `(1, 1)`, the whole bandwidth.
    lane_share: (u64, u64),
}

impl MigrationEngine {
    /// Build an engine with the given per-direction bandwidths.
    #[must_use]
    pub fn new(promote_bw: f64, demote_bw: f64, setup_ns: Ns, page_size: u64) -> Self {
        MigrationEngine {
            bw: [promote_bw, demote_bw],
            share_bw: [promote_bw, demote_bw],
            setup_ns,
            page_size,
            lanes: Default::default(),
            next_id: 0,
            lane_share: (1, 1),
        }
    }

    /// Scale both channels to `num / den` of their configured bandwidth.
    /// Applies to batches issued from now on; in-flight reservations keep
    /// the timing they were issued with.
    ///
    /// # Panics
    ///
    /// Panics if `num` is zero or `num > den` (a share must be a positive
    /// fraction at most 1).
    pub fn set_lane_share(&mut self, num: u64, den: u64) {
        assert!(num > 0 && num <= den, "lane share must satisfy 0 < num <= den, got {num}/{den}");
        self.lane_share = (num, den);
        self.share_bw = self.bw.map(|bw| bw * num as f64 / den as f64);
    }

    /// The current lane share as `(num, den)`.
    #[must_use]
    pub fn lane_share(&self) -> (u64, u64) {
        self.lane_share
    }

    /// Issue a migration batch; returns a ticket with its completion time.
    pub fn enqueue(&mut self, range: PageRange, direction: Direction, now: Ns) -> MigrationTicket {
        self.enqueue_perturbed(range, direction, now, false, 0, false, 0)
    }

    /// Issue an *urgent* batch (demand fault): it does not queue behind
    /// pending prefetch batches, only behind other urgent copies.
    pub fn enqueue_urgent(&mut self, range: PageRange, direction: Direction, now: Ns) -> MigrationTicket {
        self.enqueue_perturbed(range, direction, now, true, 0, false, 0)
    }

    /// Issue a batch carrying an injected perturbation: `extra_ns` of stall
    /// added to the copy time, a `failed` verdict discovered at `ready_at`,
    /// and the retry `attempt` number. The channel reservation includes the
    /// stall, so contention with later batches is modeled honestly.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_perturbed(
        &mut self,
        range: PageRange,
        direction: Direction,
        now: Ns,
        urgent: bool,
        extra_ns: Ns,
        failed: bool,
        attempt: u32,
    ) -> MigrationTicket {
        let bytes = range.bytes(self.page_size);
        let dir = direction.index();
        let copy_ns = self.copy_ns(bytes, dir);
        let lane = &mut self.lanes[usize::from(urgent)][dir];
        let start = now.max(lane.busy_until);
        let ready_at = start + self.setup_ns + extra_ns + copy_ns;
        let id = self.next_id;
        self.next_id += 1;
        lane.push(InFlight {
            id,
            range,
            direction,
            started_at: start,
            ready_at,
            urgent,
            attempt,
            failed,
            page_by_page: false,
        });
        MigrationTicket { id, ready_at, pages: range.count, bytes }
    }

    /// Issue `range` as a page-by-page batch on the plain lane: the same
    /// copies, ids and times as calling [`MigrationEngine::enqueue`] once per
    /// page at `now`, held as one entry. Returns the entry, whose
    /// [`InFlight::pages`] give each page's id and landing.
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty.
    pub fn enqueue_page_by_page(&mut self, range: PageRange, direction: Direction, now: Ns) -> InFlight {
        assert!(!range.is_empty(), "a page-by-page batch needs at least one page");
        let dir = direction.index();
        let period = self.setup_ns + self.copy_ns(self.page_size, dir);
        let lane = &mut self.lanes[0][dir];
        let start = now.max(lane.busy_until);
        let batch = InFlight {
            id: self.next_id,
            range,
            direction,
            started_at: start,
            ready_at: start + range.count * period,
            urgent: false,
            attempt: 0,
            failed: false,
            page_by_page: true,
        };
        self.next_id += range.count;
        lane.push(batch.clone());
        batch
    }

    /// Copy time of `bytes` on direction `dir`'s channel at the current
    /// lane share.
    fn copy_ns(&self, bytes: u64, dir: usize) -> Ns {
        (bytes as f64 / self.share_bw[dir]).ceil() as Ns
    }

    /// Earliest completion time of any in-flight batch (a page-by-page
    /// batch's first page): the next migration event for event-driven
    /// callers. Each lane's front is its earliest.
    #[must_use]
    pub fn next_ready_at(&self) -> Option<Ns> {
        self.lanes.iter().flatten().filter_map(|lane| lane.queue.front()).map(|f| f.landing(0)).min()
    }

    /// Remove and return every batch completed by `now`, in issue order:
    /// each lane's completed prefix, merged by id. A page-by-page batch
    /// partly landed at the front of its lane gives up its landed pages as
    /// one batch.
    pub fn drain_completed(&mut self, now: Ns) -> Vec<InFlight> {
        let mut done = Vec::new();
        for lane in self.lanes.iter_mut().flatten() {
            while let Some(batch) = lane.pop_landed(now) {
                done.push(batch);
            }
        }
        done.sort_unstable_by_key(|f| f.id);
        done
    }

    /// Remove and return every batch completed by `now`, in issue order,
    /// testing every batch of every lane without assuming lane order, and
    /// splitting every partly landed page-by-page batch.
    ///
    /// The reference path, kept so the engine property in
    /// `tests/chaos_migration.rs` can pin [`MigrationEngine::drain_completed`]
    /// to it.
    pub fn drain_completed_scan(&mut self, now: Ns) -> Vec<InFlight> {
        let mut done = Vec::new();
        for lane in self.lanes.iter_mut().flatten() {
            let mut kept = VecDeque::new();
            for mut f in lane.queue.drain(..) {
                if let Some(landed) = f.take_landed(now) {
                    lane.done_at = lane.done_at.max(landed.ready_at);
                    done.push(landed);
                }
                if !f.range.is_empty() {
                    kept.push_back(f);
                }
            }
            lane.queue = kept;
        }
        done.sort_unstable_by_key(|f| f.id);
        done
    }

    /// Cancel and return every batch *not yet complete* at `now`, in issue
    /// order.
    ///
    /// Used by Sentinel's Case-3 "leave tensors in slow memory" choice: the
    /// copies are abandoned and the pages stay in their source tier. Each
    /// lane's reservation is rebuilt from what actually holds the channel:
    /// the latest completion already drained from it, its last kept batch,
    /// and `now` if a cancelled copy had already started (the channel was
    /// mid-copy when the abort landed). A blanket clamp to `now` would let a
    /// post-cancel enqueue double-book bandwidth a kept or drained batch
    /// still occupies, and would charge the channel for future-issued
    /// batches that never started.
    ///
    /// A page-by-page batch with some pages landed is split: the landed
    /// prefix stays queued for the next drain and the rest is cancelled.
    pub fn cancel_pending(&mut self, now: Ns) -> Vec<InFlight> {
        let mut cancelled = Vec::new();
        for lane in self.lanes.iter_mut().flatten() {
            let mut pending = lane.queue.split_off(lane.queue.partition_point(|f| f.ready_at <= now));
            if let Some(landed) = pending.front_mut().and_then(|f| f.take_landed(now)) {
                lane.queue.push_back(landed);
            }
            let kept_until = lane.queue.back().map_or(0, |f| f.ready_at);
            // Starts never decrease along a lane: the first pending batch
            // (or page) is the one that may have started.
            let mid_copy = pending.front().is_some_and(|f| f.started_at < now);
            lane.busy_until = lane.done_at.max(kept_until).max(if mid_copy { now } else { 0 });
            cancelled.extend(pending);
        }
        cancelled.sort_unstable_by_key(|f| f.id);
        cancelled
    }

    /// Time when all currently queued work in either direction is finished.
    #[must_use]
    pub fn quiescent_at(&self) -> Ns {
        self.lanes.iter().flatten().map(|lane| lane.busy_until).max().unwrap_or(0)
    }

    /// Time when queued work on `direction`'s plain lane is finished.
    #[must_use]
    pub fn busy_until(&self, direction: Direction) -> Ns {
        self.lanes[0][direction.index()].busy_until
    }

    /// Whether any batch is still in flight.
    #[must_use]
    pub fn has_in_flight(&self) -> bool {
        self.lanes.iter().flatten().any(|lane| !lane.queue.is_empty())
    }

    /// In-flight batches (completed ones remain until drained), lane by
    /// lane — plain promote, plain demote, urgent promote, urgent demote —
    /// each lane in issue order.
    pub fn in_flight(&self) -> impl Iterator<Item = &InFlight> + '_ {
        self.lanes.iter().flatten().flat_map(|lane| &lane.queue)
    }

    /// Latest completion time of any batch overlapping `range`, if one
    /// exists: for a page-by-page batch, the landing of its last page inside
    /// `range`.
    #[must_use]
    pub fn range_ready_at(&self, range: PageRange) -> Option<Ns> {
        self.in_flight()
            .filter(|f| f.range.overlaps(&range))
            .map(|f| f.landing(f.range.end().min(range.end()) - 1 - f.range.first))
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> MigrationEngine {
        // 1 byte/ns each way, 100 ns setup, 4 KiB pages.
        MigrationEngine::new(1.0, 1.0, 100, 4096)
    }

    #[test]
    fn single_batch_timing() {
        let mut e = engine();
        let t = e.enqueue(PageRange::new(0, 2), Direction::Promote, 1_000);
        assert_eq!(t.bytes, 8192);
        assert_eq!(t.ready_at, 1_000 + 100 + 8192);
        // A lane share scales the copy, not the setup: a whole share times
        // exactly like the default, a half share copies at half bandwidth.
        for ((num, den), copy) in [((1, 1), 8192), ((1, 2), 16_384)] {
            let mut e = engine();
            e.set_lane_share(num, den);
            let t = e.enqueue(PageRange::new(0, 2), Direction::Promote, 1_000);
            assert_eq!(t.ready_at, 1_000 + 100 + copy, "share {num}/{den}");
        }
    }

    #[test]
    fn same_direction_serializes() {
        let mut e = engine();
        let a = e.enqueue(PageRange::new(0, 1), Direction::Promote, 0);
        let b = e.enqueue(PageRange::new(1, 1), Direction::Promote, 0);
        assert_eq!(b.ready_at, a.ready_at + 100 + 4096);
    }

    #[test]
    fn opposite_directions_overlap() {
        let mut e = engine();
        let a = e.enqueue(PageRange::new(0, 1), Direction::Promote, 0);
        let b = e.enqueue(PageRange::new(1, 1), Direction::Demote, 0);
        assert_eq!(a.ready_at, b.ready_at);
    }

    #[test]
    fn drain_returns_only_completed() {
        let mut e = engine();
        let a = e.enqueue(PageRange::new(0, 1), Direction::Promote, 0);
        let _b = e.enqueue(PageRange::new(1, 1), Direction::Promote, 0);
        let done = e.drain_completed(a.ready_at);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].range, PageRange::new(0, 1));
        assert!(e.has_in_flight());
    }

    #[test]
    fn next_ready_at_tracks_earliest_completion() {
        let mut e = engine();
        assert_eq!(e.next_ready_at(), None);
        let a = e.enqueue(PageRange::new(0, 4), Direction::Promote, 0);
        let b = e.enqueue(PageRange::new(4, 1), Direction::Demote, 0);
        assert_eq!(e.next_ready_at(), Some(a.ready_at.min(b.ready_at)));
        e.drain_completed(b.ready_at);
        assert_eq!(e.next_ready_at(), Some(a.ready_at));
        e.drain_completed(a.ready_at);
        assert_eq!(e.next_ready_at(), None);
    }

    #[test]
    fn indexed_drain_matches_scan_reference() {
        // Perturbations make completion order differ from issue order across
        // lanes; both drains must still return the same batches in issue
        // order.
        let build = || {
            let mut e = engine();
            e.enqueue_perturbed(PageRange::new(0, 1), Direction::Promote, 0, false, 9_000, false, 0);
            e.enqueue(PageRange::new(1, 1), Direction::Demote, 0);
            e.enqueue_urgent(PageRange::new(2, 1), Direction::Promote, 0);
            e.enqueue_perturbed(PageRange::new(3, 2), Direction::Demote, 0, true, 50, true, 1);
            e.enqueue_page_by_page(PageRange::new(5, 3), Direction::Demote, 0);
            e
        };
        let (mut indexed, mut scanned) = (build(), build());
        for cut in [0, 4_196, 5_000, 9_000, 12_588, 20_000, 40_000] {
            assert_eq!(indexed.drain_completed(cut), scanned.drain_completed_scan(cut), "cut {cut}");
            assert_eq!(indexed.next_ready_at(), scanned.next_ready_at(), "cut {cut}");
        }
        assert!(!indexed.has_in_flight());
    }

    #[test]
    fn page_by_page_batch_lands_and_cancels_page_by_page() {
        let mut e = engine();
        let batch = e.enqueue_page_by_page(PageRange::new(0, 4), Direction::Promote, 0);
        assert_eq!((batch.id, batch.ready_at), (0, 4 * 4_196));
        let landings: Vec<_> = batch.pages().map(|f| (f.id, f.ready_at)).collect();
        assert_eq!(landings, [(0, 4_196), (1, 8_392), (2, 12_588), (3, 16_784)]);
        assert_eq!(e.next_ready_at(), Some(4_196));
        assert_eq!(e.range_ready_at(PageRange::new(1, 2)), Some(12_588));
        // A drain between landings takes the landed prefix as one batch.
        let done = e.drain_completed(9_000);
        assert_eq!(done.len(), 1);
        assert_eq!((done[0].id, done[0].range, done[0].ready_at), (0, PageRange::new(0, 2), 8_392));
        assert_eq!(e.next_ready_at(), Some(12_588));
        // A cancel keeps the landed page queued and cancels the copy under way.
        let cancelled = e.cancel_pending(13_000);
        assert_eq!(cancelled.len(), 1);
        assert_eq!((cancelled[0].id, cancelled[0].range, cancelled[0].started_at), (3, PageRange::new(3, 1), 12_588));
        assert_eq!(e.busy_until(Direction::Promote), 13_000);
        assert_eq!(e.drain_completed(13_000)[0].range, PageRange::new(2, 1));
        // The batch reserved an id per page.
        assert_eq!(e.enqueue(PageRange::new(9, 1), Direction::Promote, 13_000).id, 4);
    }

    #[test]
    fn cancel_drops_pending_and_rolls_back_channel() {
        let mut e = engine();
        let a = e.enqueue(PageRange::new(0, 1), Direction::Promote, 0);
        let _b = e.enqueue(PageRange::new(1, 4), Direction::Promote, 0);
        let cancelled = e.cancel_pending(a.ready_at);
        assert_eq!(cancelled.len(), 1);
        assert_eq!(cancelled[0].range, PageRange::new(1, 4));
        assert_eq!(e.busy_until(Direction::Promote), a.ready_at);
        // The completed batch is still drainable.
        assert_eq!(e.drain_completed(a.ready_at).len(), 1);
    }

    #[test]
    fn cancel_releases_unstarted_future_batch_entirely() {
        // A batch issued at t=1000 and cancelled at t=500 never started, so
        // the channel must roll back to idle — not stay booked to `now`.
        let mut e = engine();
        let t = e.enqueue(PageRange::new(0, 1), Direction::Promote, 1_000);
        assert_eq!(t.ready_at, 1_000 + 100 + 4096);
        let cancelled = e.cancel_pending(500);
        assert_eq!(cancelled.len(), 1);
        assert_eq!(cancelled[0].started_at, 1_000);
        assert_eq!(e.busy_until(Direction::Promote), 0);
        // The lane is genuinely free: a fresh enqueue starts on issue.
        let fresh = e.enqueue(PageRange::new(1, 1), Direction::Promote, 100);
        assert_eq!(fresh.ready_at, 100 + 100 + 4096);
    }

    #[test]
    fn cancel_charges_midcopy_abort_to_now() {
        // A copy in progress at the abort holds the channel until `now`.
        let mut e = engine();
        let t = e.enqueue(PageRange::new(0, 4), Direction::Promote, 0);
        assert!(t.ready_at > 2_000);
        let cancelled = e.cancel_pending(2_000);
        assert_eq!(cancelled.len(), 1);
        assert_eq!(e.busy_until(Direction::Promote), 2_000);
    }

    #[test]
    fn cancel_never_releases_drained_lane_time() {
        // Channel time consumed by already-drained copies stays booked even
        // when the cancel's `now` is earlier: a post-cancel enqueue must not
        // double-book bandwidth the finished copy used.
        let mut e = engine();
        let a = e.enqueue(PageRange::new(0, 1), Direction::Promote, 0);
        assert_eq!(e.drain_completed(a.ready_at).len(), 1);
        e.cancel_pending(2_000);
        assert_eq!(e.busy_until(Direction::Promote), a.ready_at);
    }

    #[test]
    fn cancel_rebuilds_urgent_lane_from_survivors() {
        let mut e = engine();
        let a = e.enqueue_urgent(PageRange::new(0, 1), Direction::Demote, 0);
        let _b = e.enqueue_urgent(PageRange::new(1, 2), Direction::Demote, 0);
        let cancelled = e.cancel_pending(a.ready_at);
        assert_eq!(cancelled.len(), 1);
        assert!(cancelled[0].urgent);
        // Survivor `a` (complete, undrained) pins the urgent lane; the plain
        // lane was never used and stays idle.
        assert_eq!(e.quiescent_at(), a.ready_at);
        assert_eq!(e.busy_until(Direction::Demote), 0);
    }

    #[test]
    fn quiescent_tracks_latest_channel() {
        let mut e = engine();
        let a = e.enqueue(PageRange::new(0, 10), Direction::Promote, 0);
        let b = e.enqueue(PageRange::new(10, 1), Direction::Demote, 0);
        assert_eq!(e.quiescent_at(), a.ready_at.max(b.ready_at));
    }

    #[test]
    fn perturbed_batch_carries_stall_and_verdict() {
        let mut e = engine();
        let t = e.enqueue_perturbed(PageRange::new(0, 1), Direction::Promote, 0, false, 500, true, 2);
        assert_eq!(t.ready_at, 100 + 500 + 4096);
        let f = e.in_flight().next().unwrap();
        assert!(f.failed);
        assert_eq!(f.attempt, 2);
        // The stall occupies the channel: later batches queue behind it.
        let b = e.enqueue(PageRange::new(1, 1), Direction::Promote, 0);
        assert_eq!(b.ready_at, t.ready_at + 100 + 4096);
    }

    #[test]
    fn plain_enqueue_is_unperturbed() {
        let mut e = engine();
        e.enqueue(PageRange::new(0, 1), Direction::Promote, 0);
        let f = e.in_flight().next().unwrap();
        assert!(!f.failed);
        assert_eq!(f.attempt, 0);
        assert!(!f.urgent);
        assert_eq!(f.started_at, 0);
    }

    #[test]
    fn direction_tier_mapping() {
        assert_eq!(Direction::into_tier(Tier::Fast), Direction::Promote);
        assert_eq!(Direction::into_tier(Tier::Slow), Direction::Demote);
        assert_eq!(Direction::Promote.dest(), Tier::Fast);
        assert_eq!(Direction::Promote.source(), Tier::Slow);
    }
}
