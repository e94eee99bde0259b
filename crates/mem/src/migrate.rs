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
//! A poll with nothing landed is one compare per lane and allocates
//! nothing. [`MigrationEngine::drain_completed_scan`] tests every batch
//! without assuming lane order; it is the reference the drain is pinned to.

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

/// Two independent directional migration channels with bandwidth accounting.
#[derive(Debug)]
pub struct MigrationEngine {
    /// Bandwidth per direction in bytes/ns, indexed by [`Direction::index`].
    bw: [f64; 2],
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
    /// lanes between tenants. `(1, 1)` (the default) takes the exact
    /// unscaled path, so a sole tenant is byte-identical to a
    /// pre-multi-tenancy engine.
    lane_share: (u64, u64),
}

impl MigrationEngine {
    /// Build an engine with the given per-direction bandwidths.
    #[must_use]
    pub fn new(promote_bw: f64, demote_bw: f64, setup_ns: Ns, page_size: u64) -> Self {
        MigrationEngine {
            bw: [promote_bw, demote_bw],
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
        // The exact historical expression when the share is whole, so a
        // 1/1-share engine stays byte-identical to one without the feature.
        let copy_ns = if self.lane_share == (1, 1) {
            (bytes as f64 / self.bw[dir]).ceil() as Ns
        } else {
            let (num, den) = self.lane_share;
            let effective_bw = self.bw[dir] * num as f64 / den as f64;
            (bytes as f64 / effective_bw).ceil() as Ns
        };
        let lane = &mut self.lanes[usize::from(urgent)][dir];
        let start = now.max(lane.busy_until);
        let ready_at = start + self.setup_ns + extra_ns + copy_ns;
        debug_assert!(
            lane.queue.back().is_none_or(|f| f.started_at <= start && f.ready_at <= ready_at),
            "a lane's batches must start and complete in issue order"
        );
        lane.busy_until = ready_at;
        let id = self.next_id;
        self.next_id += 1;
        lane.queue.push_back(InFlight {
            id,
            range,
            direction,
            started_at: start,
            ready_at,
            urgent,
            attempt,
            failed,
        });
        MigrationTicket { id, ready_at, pages: range.count, bytes }
    }

    /// Earliest completion time of any in-flight batch: the next migration
    /// event for event-driven callers. Each lane's front is its earliest.
    #[must_use]
    pub fn next_ready_at(&self) -> Option<Ns> {
        self.lanes.iter().flatten().filter_map(|lane| lane.queue.front()).map(|f| f.ready_at).min()
    }

    /// Remove and return every batch completed by `now`, in issue order:
    /// each lane's completed prefix, merged by id.
    pub fn drain_completed(&mut self, now: Ns) -> Vec<InFlight> {
        let mut done = Vec::new();
        for lane in self.lanes.iter_mut().flatten() {
            while lane.queue.front().is_some_and(|f| f.ready_at <= now) {
                let f = lane.queue.pop_front().expect("the front was just read");
                lane.done_at = f.ready_at;
                done.push(f);
            }
        }
        done.sort_unstable_by_key(|f| f.id);
        done
    }

    /// Remove and return every batch completed by `now`, in issue order,
    /// testing every batch of every lane without assuming lane order.
    ///
    /// The reference path, kept so the engine property in
    /// `tests/chaos_migration.rs` can pin [`MigrationEngine::drain_completed`]
    /// to it.
    pub fn drain_completed_scan(&mut self, now: Ns) -> Vec<InFlight> {
        let mut done = Vec::new();
        for lane in self.lanes.iter_mut().flatten() {
            let mut kept = VecDeque::new();
            for f in lane.queue.drain(..) {
                if f.ready_at <= now {
                    lane.done_at = lane.done_at.max(f.ready_at);
                    done.push(f);
                } else {
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
    pub fn cancel_pending(&mut self, now: Ns) -> Vec<InFlight> {
        let mut cancelled = Vec::new();
        for lane in self.lanes.iter_mut().flatten() {
            let pending = lane.queue.split_off(lane.queue.partition_point(|f| f.ready_at <= now));
            let kept_until = lane.queue.back().map_or(0, |f| f.ready_at);
            // Starts never decrease along a lane: the first pending batch
            // is the one that may have started.
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

    /// Latest completion time of any batch overlapping `range`, if one exists.
    #[must_use]
    pub fn range_ready_at(&self, range: PageRange) -> Option<Ns> {
        self.in_flight().filter(|f| f.range.overlaps(&range)).map(|f| f.ready_at).max()
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
            e
        };
        let (mut indexed, mut scanned) = (build(), build());
        for cut in [0, 4_196, 5_000, 9_000, 20_000, 40_000] {
            assert_eq!(indexed.drain_completed(cut), scanned.drain_completed_scan(cut), "cut {cut}");
            assert_eq!(indexed.next_ready_at(), scanned.next_ready_at(), "cut {cut}");
        }
        assert!(!indexed.has_in_flight());
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
