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
//! ## Completion indexing
//!
//! In-flight batches are held in an id-keyed map (ids increase monotonically,
//! so map order *is* issue order) plus a min-heap over `(ready_at, id)`. The
//! heap makes the hot no-completion poll O(1) — peek, compare, return — and
//! makes `next_ready_at` available to event-driven callers, while drains
//! still hand batches back in issue order so retry bookkeeping and traces are
//! byte-identical to the historical linear scan. The scan survives as
//! [`MigrationEngine::drain_completed_scan`], the reference path.

use crate::{Ns, PageRange, Tier};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

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

/// Two independent directional migration channels with bandwidth accounting.
#[derive(Debug)]
pub struct MigrationEngine {
    /// Bandwidth per direction in bytes/ns, indexed by [`Direction::index`].
    bw: [f64; 2],
    setup_ns: Ns,
    page_size: u64,
    busy_until: [Ns; 2],
    /// Separate lane for demand faults: urgent copies preempt queued
    /// prefetch batches (GPU fault-handling DMA takes priority over
    /// `cudaMemPrefetchAsync` streams).
    urgent_busy_until: [Ns; 2],
    /// In-flight batches keyed by id. Ids are handed out monotonically, so
    /// iterating the map replays issue order exactly.
    in_flight: BTreeMap<u64, InFlight>,
    /// Min-heap over `(ready_at, id)` mirroring `in_flight` exactly: every
    /// mutation either pops what it removes or rebuilds from the map, so the
    /// heap never carries stale entries.
    ready: BinaryHeap<Reverse<(Ns, u64)>>,
    /// Latest completion time ever *drained* per `[urgent][direction]` lane.
    /// Cancellation rebuilds lane reservations and must not release channel
    /// time that finished copies already consumed.
    lane_done_at: [[Ns; 2]; 2],
    next_id: u64,
    /// Total bytes moved per direction since construction.
    moved_bytes: [u64; 2],
    /// Total batches issued per direction.
    batches: [u64; 2],
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
            busy_until: [0, 0],
            urgent_busy_until: [0, 0],
            in_flight: BTreeMap::new(),
            ready: BinaryHeap::new(),
            lane_done_at: [[0, 0], [0, 0]],
            next_id: 0,
            moved_bytes: [0, 0],
            batches: [0, 0],
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
        self.enqueue_with_priority(range, direction, now, false)
    }

    /// Issue an *urgent* batch (demand fault): it does not queue behind
    /// pending prefetch batches, only behind other urgent copies.
    pub fn enqueue_urgent(&mut self, range: PageRange, direction: Direction, now: Ns) -> MigrationTicket {
        self.enqueue_with_priority(range, direction, now, true)
    }

    fn enqueue_with_priority(&mut self, range: PageRange, direction: Direction, now: Ns, urgent: bool) -> MigrationTicket {
        self.enqueue_perturbed(range, direction, now, urgent, 0, false, 0)
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
        let lane = if urgent { &mut self.urgent_busy_until[dir] } else { &mut self.busy_until[dir] };
        let start = now.max(*lane);
        // The exact historical expression when the share is whole, so a
        // 1/1-share engine stays byte-identical to one without the feature.
        let copy_ns = if self.lane_share == (1, 1) {
            (bytes as f64 / self.bw[dir]).ceil() as Ns
        } else {
            let (num, den) = self.lane_share;
            let effective_bw = self.bw[dir] * num as f64 / den as f64;
            (bytes as f64 / effective_bw).ceil() as Ns
        };
        let duration = self.setup_ns + extra_ns + copy_ns;
        let ready_at = start + duration;
        *lane = ready_at;
        self.moved_bytes[dir] += bytes;
        self.batches[dir] += 1;
        let id = self.next_id;
        self.next_id += 1;
        self.in_flight.insert(
            id,
            InFlight { id, range, direction, started_at: start, ready_at, urgent, attempt, failed },
        );
        self.ready.push(Reverse((ready_at, id)));
        MigrationTicket { id, ready_at, pages: range.count, bytes }
    }

    /// Earliest completion time of any in-flight batch: the next migration
    /// event for event-driven callers. O(1).
    #[must_use]
    pub fn next_ready_at(&self) -> Option<Ns> {
        self.ready.peek().map(|&Reverse((t, _))| t)
    }

    /// Remove and return every batch completed by `now`, in issue order.
    ///
    /// Indexed fast path: a poll with nothing landed is a single heap peek,
    /// independent of the number of in-flight batches.
    pub fn drain_completed(&mut self, now: Ns) -> Vec<InFlight> {
        match self.ready.peek() {
            Some(&Reverse((t, _))) if t <= now => {}
            _ => return Vec::new(),
        }
        let mut ids: Vec<u64> = Vec::new();
        while let Some(&Reverse((t, id))) = self.ready.peek() {
            if t > now {
                break;
            }
            self.ready.pop();
            ids.push(id);
        }
        // The heap yields (ready_at, id) order; hand batches back in issue
        // (id) order so completion application matches the scan reference
        // byte for byte.
        ids.sort_unstable();
        ids.iter().map(|id| self.remove_done(*id)).collect()
    }

    /// Remove and return every batch completed by `now` via a linear scan.
    ///
    /// The historical reference path, preserved (like
    /// `MemorySystem::access_per_page`) so the engine property in
    /// `tests/chaos_migration.rs` can pin the indexed drain to it.
    pub fn drain_completed_scan(&mut self, now: Ns) -> Vec<InFlight> {
        if !self.in_flight.values().any(|f| f.ready_at <= now) {
            return Vec::new();
        }
        let ids: Vec<u64> =
            self.in_flight.values().filter(|f| f.ready_at <= now).map(|f| f.id).collect();
        let done: Vec<InFlight> = ids.iter().map(|id| self.remove_done(*id)).collect();
        self.rebuild_ready_index();
        done
    }

    /// Detach a completed batch from the map and record its lane completion.
    fn remove_done(&mut self, id: u64) -> InFlight {
        let f = self.in_flight.remove(&id).expect("drained id is in flight");
        let lane = &mut self.lane_done_at[usize::from(f.urgent)][f.direction.index()];
        *lane = (*lane).max(f.ready_at);
        f
    }

    /// Recompute the ready heap from the in-flight map.
    fn rebuild_ready_index(&mut self) {
        self.ready = self.in_flight.values().map(|f| Reverse((f.ready_at, f.id))).collect();
    }

    /// Cancel and return every batch *not yet complete* at `now`, in issue
    /// order.
    ///
    /// Used by Sentinel's Case-3 "leave tensors in slow memory" choice: the
    /// copies are abandoned and the pages stay in their source tier. Each
    /// lane's reservation is rebuilt from what actually holds the channel:
    /// the latest completion already drained from it, any kept in-flight
    /// batch on it, and `now` if a cancelled copy had already started (the
    /// channel was mid-copy when the abort landed). A blanket clamp to `now`
    /// would let a post-cancel enqueue double-book bandwidth a kept or
    /// drained batch still occupies, and would charge the channel for
    /// future-issued batches that never started.
    pub fn cancel_pending(&mut self, now: Ns) -> Vec<InFlight> {
        let ids: Vec<u64> =
            self.in_flight.values().filter(|f| f.ready_at > now).map(|f| f.id).collect();
        let cancelled: Vec<InFlight> = ids
            .iter()
            .map(|id| self.in_flight.remove(id).expect("cancelled id is in flight"))
            .collect();
        self.rebuild_ready_index();
        for urgent in [false, true] {
            for dir in [Direction::Promote, Direction::Demote] {
                let mut base = self.lane_done_at[usize::from(urgent)][dir.index()];
                for f in self.in_flight.values() {
                    if f.urgent == urgent && f.direction == dir {
                        base = base.max(f.ready_at);
                    }
                }
                for f in &cancelled {
                    if f.urgent == urgent && f.direction == dir && f.started_at < now {
                        base = base.max(now);
                    }
                }
                let lane = if urgent {
                    &mut self.urgent_busy_until[dir.index()]
                } else {
                    &mut self.busy_until[dir.index()]
                };
                *lane = base;
            }
        }
        cancelled
    }

    /// Time when all currently queued work in either direction is finished.
    #[must_use]
    pub fn quiescent_at(&self) -> Ns {
        self.busy_until[0]
            .max(self.busy_until[1])
            .max(self.urgent_busy_until[0])
            .max(self.urgent_busy_until[1])
    }

    /// Time when queued work in `direction` is finished.
    #[must_use]
    pub fn busy_until(&self, direction: Direction) -> Ns {
        self.busy_until[direction.index()]
    }

    /// Whether any batch is still in flight.
    #[must_use]
    pub fn has_in_flight(&self) -> bool {
        !self.in_flight.is_empty()
    }

    /// In-flight batches in issue order (completed ones remain until
    /// drained).
    pub fn in_flight(&self) -> impl Iterator<Item = &InFlight> + '_ {
        self.in_flight.values()
    }

    /// Latest completion time of any batch overlapping `range`, if one exists.
    #[must_use]
    pub fn range_ready_at(&self, range: PageRange) -> Option<Ns> {
        self.in_flight.values().filter(|f| f.range.overlaps(&range)).map(|f| f.ready_at).max()
    }

    /// Total bytes moved in `direction` since construction.
    #[must_use]
    pub fn moved_bytes(&self, direction: Direction) -> u64 {
        self.moved_bytes[direction.index()]
    }

    /// Total batches issued in `direction`.
    #[must_use]
    pub fn batches(&self, direction: Direction) -> u64 {
        self.batches[direction.index()]
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
        // Perturbations make heap (ready_at) order differ from issue order;
        // both drains must still return the same batches in issue order.
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
    fn stats_accumulate() {
        let mut e = engine();
        e.enqueue(PageRange::new(0, 2), Direction::Promote, 0);
        e.enqueue(PageRange::new(2, 3), Direction::Demote, 0);
        assert_eq!(e.moved_bytes(Direction::Promote), 8192);
        assert_eq!(e.moved_bytes(Direction::Demote), 3 * 4096);
        assert_eq!(e.batches(Direction::Promote), 1);
        assert_eq!(e.batches(Direction::Demote), 1);
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
