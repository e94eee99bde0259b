//! The discrete-event core: a typed, deterministically ordered event queue.
//!
//! The simulator's clock does not tick — it jumps. Between two points where
//! something can actually happen (a migration batch landing, an interval
//! boundary, a sanitizer sample, an injected fault resolving) the state
//! evolves closed-form, so the runtime advances simulated time directly to
//! the next scheduled event instead of stepping layer-by-layer and polling.
//! [`EventQueue`] is the ordering structure behind that jump: a binary
//! min-heap over `(at, kind priority, seq)`.
//!
//! ## Ordering and tie-breaks
//!
//! Events fire in ascending `at`. Events at the *same* instant fire in
//! [`EventKind`] priority order:
//!
//! 1. [`EventKind::MigrationReady`] — completed copies land first,
//! 2. [`EventKind::IntervalBoundary`] — then the boundary classifies,
//! 3. [`EventKind::SanitizerSample`] — then invariants are validated,
//! 4. [`EventKind::FaultFiring`] — injected perturbations resolve last.
//!
//! The `MigrationReady < IntervalBoundary` tie-break is the executable form
//! of the `ready_at <= now` boundary convention: a migration landing exactly
//! on an interval boundary belongs to the *closing* interval, so the
//! boundary observes it as already resident (paper Case 1). Within one kind
//! at one instant, scheduling order (`seq`) decides — first scheduled,
//! first fired — so replays are bitwise reproducible.

use sentinel_mem::Ns;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What a scheduled event does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A migration batch completes (`at` is its `ready_at`).
    MigrationReady,
    /// Execution reaches the first layer of interval `interval`.
    IntervalBoundary {
        /// Interval index within the step.
        interval: usize,
        /// First layer of the interval.
        layer: usize,
    },
    /// The residency sanitizer samples the page-table invariants.
    SanitizerSample,
    /// An injected fault's consequence (retry backoff expiry, stall end)
    /// resolves.
    FaultFiring {
        /// Cumulative retry count at scheduling time, for diagnostics.
        retries: u64,
    },
    /// A tenant job finishes one training step on the shared fleet clock.
    /// Step completions outrank arrivals at the same instant so a release
    /// and an arrival colliding on the clock admit the newcomer against the
    /// *post-release* fleet state deterministically.
    JobStepEnd {
        /// Cluster-wide job index.
        job: usize,
        /// The step that just completed (0-based, profiling included).
        step: usize,
    },
    /// A tenant job arrives at the cluster (open-loop arrival trace).
    JobArrival {
        /// Cluster-wide job index.
        job: usize,
    },
    /// The adaptive control loop samples its drift signals at an interval
    /// boundary. Fires after everything else at the same instant so the
    /// detector observes the boundary's *settled* state (copies landed,
    /// boundary classified, faults resolved).
    DriftCheck,
}

impl EventKind {
    /// Same-instant firing priority; lower fires first.
    #[must_use]
    fn priority(&self) -> u8 {
        match self {
            EventKind::MigrationReady => 0,
            EventKind::IntervalBoundary { .. } => 1,
            EventKind::SanitizerSample => 2,
            EventKind::FaultFiring { .. } => 3,
            EventKind::JobStepEnd { .. } => 4,
            EventKind::JobArrival { .. } => 5,
            EventKind::DriftCheck => 6,
        }
    }
}

/// One scheduled event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimEvent {
    /// Simulated firing time.
    pub at: Ns,
    /// Scheduling sequence number: FIFO tie-break within `(at, kind)`.
    pub seq: u64,
    /// What fires.
    pub kind: EventKind,
}

/// A binary min-heap of [`SimEvent`]s ordered by `(at, priority, seq)`.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(Ns, u8, u64)>>,
    /// Event payloads keyed by `seq` (the heap holds only the sort key).
    events: std::collections::HashMap<u64, EventKind>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedule `kind` to fire at `at`; returns its sequence number.
    pub fn schedule(&mut self, at: Ns, kind: EventKind) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, kind.priority(), seq)));
        self.events.insert(seq, kind);
        seq
    }

    /// Firing time of the next event, if any.
    #[must_use]
    pub fn next_at(&self) -> Option<Ns> {
        self.heap.peek().map(|&Reverse((at, _, _))| at)
    }

    /// Pop the next event if it fires at or before `now`.
    pub fn pop_due(&mut self, now: Ns) -> Option<SimEvent> {
        match self.heap.peek() {
            Some(&Reverse((at, _, _))) if at <= now => {}
            _ => return None,
        }
        let Reverse((at, _, seq)) = self.heap.pop().expect("peeked entry exists");
        let kind = self.events.remove(&seq).expect("scheduled event has a payload");
        Some(SimEvent { at, seq, kind })
    }

    /// Pop the next event unconditionally (the time-skip: the caller jumps
    /// its clock to the returned event's `at`).
    pub fn pop_next(&mut self) -> Option<SimEvent> {
        self.pop_due(Ns::MAX)
    }

    /// Remove every scheduled event.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.events.clear();
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(300, EventKind::SanitizerSample);
        q.schedule(100, EventKind::MigrationReady);
        q.schedule(200, EventKind::FaultFiring { retries: 1 });
        assert_eq!(q.next_at(), Some(100));
        assert_eq!(q.pop_next().unwrap().at, 100);
        assert_eq!(q.pop_next().unwrap().at, 200);
        assert_eq!(q.pop_next().unwrap().at, 300);
        assert!(q.pop_next().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.schedule(500, EventKind::MigrationReady);
        assert!(q.pop_due(499).is_none());
        // Inclusive boundary: an event at exactly `now` is due.
        assert!(q.pop_due(500).is_some());
    }

    #[test]
    fn migration_lands_before_the_boundary_it_ties_with() {
        // The ready_at <= now convention as a tie-break: a copy completing
        // exactly at an interval boundary is visible to that boundary.
        let mut q = EventQueue::new();
        q.schedule(1_000, EventKind::IntervalBoundary { interval: 3, layer: 12 });
        q.schedule(1_000, EventKind::MigrationReady);
        q.schedule(1_000, EventKind::FaultFiring { retries: 0 });
        q.schedule(1_000, EventKind::DriftCheck);
        q.schedule(1_000, EventKind::SanitizerSample);
        let order: Vec<EventKind> = std::iter::from_fn(|| q.pop_next()).map(|e| e.kind).collect();
        assert_eq!(
            order,
            vec![
                EventKind::MigrationReady,
                EventKind::IntervalBoundary { interval: 3, layer: 12 },
                EventKind::SanitizerSample,
                EventKind::FaultFiring { retries: 0 },
                EventKind::DriftCheck,
            ]
        );
    }

    #[test]
    fn same_kind_same_instant_is_fifo() {
        let mut q = EventQueue::new();
        let a = q.schedule(42, EventKind::MigrationReady);
        let b = q.schedule(42, EventKind::MigrationReady);
        assert!(a < b);
        assert_eq!(q.pop_next().unwrap().seq, a);
        assert_eq!(q.pop_next().unwrap().seq, b);
    }

    #[test]
    fn jittered_ready_times_reorder_the_heap() {
        // An injected stall pushing one copy's ready_at past another's must
        // swap their firing order — the heap follows perturbed times, not
        // scheduling order.
        let mut q = EventQueue::new();
        let slow = q.schedule(100 + 9_000, EventKind::MigrationReady); // stalled copy
        let fast = q.schedule(400, EventKind::MigrationReady);
        assert_eq!(q.pop_next().unwrap().seq, fast);
        assert_eq!(q.pop_next().unwrap().seq, slow);
    }

    #[test]
    fn clear_empties_everything() {
        let mut q = EventQueue::new();
        q.schedule(1, EventKind::MigrationReady);
        q.schedule(2, EventKind::SanitizerSample);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.next_at(), None);
    }
}
