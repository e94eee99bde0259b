//! The execution context shared between the executor and memory policies.

use crate::alloc::{Allocation, PoolSpec, SegmentAllocator};
use crate::error::ExecError;
use crate::graph::Graph;
use crate::report::StepBreakdown;
use crate::tensor::{Tensor, TensorId};
use sentinel_mem::{pages_for_bytes, AccessKind, AccessReport, MemError, MemorySystem, Ns, Tier};
use std::cmp::Reverse;

/// Mutable state of a training run: simulated clock, memory system,
/// allocator and per-tensor placements.
///
/// Policies receive `&mut ExecCtx` in every [`crate::MemoryManager`] hook
/// and use it to issue migrations, stall for copies, or re-place tensors.
#[derive(Debug)]
pub struct ExecCtx<'g> {
    graph: &'g Graph,
    mem: MemorySystem,
    alloc: SegmentAllocator,
    placements: Vec<Option<Allocation>>,
    now: Ns,
    step: usize,
    breakdown: StepBreakdown,
}

impl<'g> ExecCtx<'g> {
    /// Build a context for one graph over one memory system.
    #[must_use]
    pub fn new(graph: &'g Graph, mem: MemorySystem) -> Self {
        let alloc = SegmentAllocator::new(mem.page_size());
        ExecCtx {
            graph,
            mem,
            alloc,
            placements: vec![None; graph.num_tensors()],
            now: 0,
            step: 0,
            breakdown: StepBreakdown::default(),
        }
    }

    // ------------------------------------------------------------- queries

    /// The graph being trained.
    #[must_use]
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Ns {
        self.now
    }

    /// Index of the training step currently executing (0-based).
    #[must_use]
    pub fn step(&self) -> usize {
        self.step
    }

    /// Shared view of the memory system.
    #[must_use]
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Mutable access to the memory system (for custom policy logic).
    #[must_use]
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Shared view of the allocator.
    #[must_use]
    pub fn allocator(&self) -> &SegmentAllocator {
        &self.alloc
    }

    /// Placement of a tensor, if currently allocated.
    #[must_use]
    pub fn placement(&self, t: TensorId) -> Option<&Allocation> {
        self.placements[t.index()].as_ref()
    }

    /// Whether a tensor currently has memory.
    #[must_use]
    pub fn is_live(&self, t: TensorId) -> bool {
        self.placements[t.index()].is_some()
    }

    /// The running cost breakdown of the current step.
    #[must_use]
    pub fn breakdown(&self) -> &StepBreakdown {
        &self.breakdown
    }

    // ------------------------------------------------------------ lifecycle

    pub(crate) fn begin_step(&mut self, step: usize) {
        self.step = step;
        self.mem.begin_step();
        self.breakdown = StepBreakdown::default();
    }

    pub(crate) fn take_breakdown(&mut self) -> StepBreakdown {
        std::mem::take(&mut self.breakdown)
    }

    /// Consume the context, returning the memory system (for post-run stats).
    #[must_use]
    pub fn into_mem(self) -> MemorySystem {
        self.mem
    }

    // ------------------------------------------------------------- actions

    /// Allocate memory for `t` from `spec`, mapping any newly populated
    /// pages into `tier`.
    ///
    /// # Errors
    ///
    /// [`ExecError::AlreadyAllocated`] if `t` is already live;
    /// [`ExecError::Mem`] with [`MemError::CapacityExceeded`] if `tier`
    /// cannot hold the new pages (the allocator state is rolled back).
    pub fn allocate_with(&mut self, t: TensorId, spec: PoolSpec, tier: Tier) -> Result<(), ExecError> {
        if self.is_live(t) {
            return Err(ExecError::AlreadyAllocated { tensor: t });
        }
        let bytes = self.graph.tensor(t).bytes;
        let allocation = self.alloc.alloc(&mut self.mem, spec, bytes);
        let new_pages = allocation.new_pages;
        if new_pages.count > self.mem.free_pages(tier) {
            self.alloc.free(&allocation);
            return Err(MemError::CapacityExceeded {
                tier,
                requested_pages: new_pages.count,
                free_pages: self.mem.free_pages(tier),
            }
            .into());
        }
        if !new_pages.is_empty() {
            self.mem.map(new_pages, tier, self.now)?;
        }
        self.placements[t.index()] = Some(allocation);
        Ok(())
    }

    /// Free `t`'s memory, unmapping pages that became empty.
    ///
    /// # Errors
    ///
    /// [`ExecError::NotAllocated`] if the tensor has no live allocation.
    pub fn release(&mut self, t: TensorId) -> Result<(), ExecError> {
        let allocation =
            self.placements[t.index()].take().ok_or(ExecError::NotAllocated { tensor: t })?;
        let emptied = self.alloc.free(&allocation);
        if !emptied.is_empty() {
            self.mem.unmap(emptied, self.now)?;
        }
        Ok(())
    }

    /// Perform one timed pass over tensor `t`.
    ///
    /// # Errors
    ///
    /// [`ExecError::NotAllocated`] if the tensor has no live allocation.
    pub fn access_tensor(&mut self, t: TensorId, kind: AccessKind) -> Result<AccessReport, ExecError> {
        let allocation =
            self.placements[t.index()].as_ref().ok_or(ExecError::NotAllocated { tensor: t })?;
        let (pages, bytes) = (allocation.pages, self.graph.tensor(t).bytes);
        let report = self.mem.access(pages, bytes, kind, self.now);
        self.now += report.elapsed_ns;
        self.breakdown.memory_ns += report.elapsed_ns;
        self.breakdown.profiling_fault_ns += report.faults * self.mem.config().fault_overhead_ns;
        Ok(report)
    }

    /// Charge compute time for `flops` floating-point operations.
    pub fn charge_compute(&mut self, flops: u64) {
        let ns = (flops as f64 / self.mem.config().compute_flops_per_ns).ceil() as Ns;
        self.now += ns;
        self.breakdown.compute_ns += ns;
    }

    /// Charge recomputation time (Capuchin-style) for `flops`.
    pub fn charge_recompute(&mut self, flops: u64) {
        let ns = (flops as f64 / self.mem.config().compute_flops_per_ns).ceil() as Ns;
        self.now += ns;
        self.breakdown.recompute_ns += ns;
    }

    /// Advance the clock to `t` (no-op if already past), accounting the gap
    /// as stall time, and apply completed migrations.
    pub fn stall_until(&mut self, t: Ns) {
        if t > self.now {
            self.breakdown.stall_ns += t - self.now;
            self.now = t;
        }
        self.mem.poll(self.now);
    }

    /// Apply migrations completed by now.
    pub fn poll(&mut self) {
        self.mem.poll(self.now);
    }

    /// Migrate every page of `t` currently in `dest.other()` to `dest`.
    /// Returns the latest completion time, or `None` if nothing was eligible.
    ///
    /// Pages shared with other tensors move too — page-level false sharing
    /// drags neighbours along, exactly as with real `move_pages()`.
    ///
    /// # Errors
    ///
    /// [`ExecError::NotAllocated`] if the tensor has no live allocation;
    /// [`ExecError::Mem`] if a migration batch fails (e.g. destination full).
    pub fn migrate_tensor(&mut self, t: TensorId, dest: Tier) -> Result<Option<Ns>, ExecError> {
        self.migrate_tensor_on_lane(t, dest, false)
    }

    /// Like [`ExecCtx::migrate_tensor`] but on the urgent demand-fault lane:
    /// the copy does not queue behind pending prefetch batches.
    ///
    /// # Errors
    ///
    /// Same as [`ExecCtx::migrate_tensor`].
    pub fn migrate_tensor_urgent(&mut self, t: TensorId, dest: Tier) -> Result<Option<Ns>, ExecError> {
        self.migrate_tensor_on_lane(t, dest, true)
    }

    fn migrate_tensor_on_lane(
        &mut self,
        t: TensorId,
        dest: Tier,
        urgent: bool,
    ) -> Result<Option<Ns>, ExecError> {
        let allocation =
            self.placements[t.index()].as_ref().ok_or(ExecError::NotAllocated { tensor: t })?;
        let pages = allocation.pages;
        let mut latest = None;
        for sub in self.mem.subranges_in_tier(pages, dest.other()) {
            let ticket = if urgent {
                self.mem.migrate_urgent(sub, dest, self.now)?
            } else {
                self.mem.migrate(sub, dest, self.now)?
            };
            latest = Some(latest.map_or(ticket.ready_at, |l: Ns| l.max(ticket.ready_at)));
        }
        Ok(latest)
    }

    /// Demote fast-resident tensors to slow memory on the urgent lane,
    /// farthest next use first, until `pages` fast pages are freed; then
    /// stall until the last copy lands. `next_use` ranks a live tensor by
    /// its next use (`usize::MAX` for never) or returns `None` to spare it;
    /// ties go to the lower id. Returns the demoted tensors in demotion
    /// order, each with the fast pages it held when the order was built.
    pub fn demote_farthest_first(
        &mut self,
        pages: u64,
        next_use: impl Fn(&Tensor) -> Option<usize>,
    ) -> Vec<(TensorId, u64)> {
        let page_size = self.mem.page_size();
        let mut victims: Vec<(Reverse<usize>, TensorId, u64)> = self
            .graph
            .tensors()
            .iter()
            .filter(|t| self.is_live(t.id))
            .filter_map(|t| {
                let next = next_use(t)?;
                let fast = self.tensor_bytes_in(t.id, Tier::Fast);
                (fast > 0).then(|| (Reverse(next), t.id, pages_for_bytes(fast, page_size)))
            })
            .collect();
        victims.sort_unstable();
        let mut freed = 0;
        let mut latest: Option<Ns> = None;
        let mut demoted = Vec::new();
        for (_, v, held) in victims {
            if freed >= pages {
                break;
            }
            if let Ok(Some(ready)) = self.migrate_tensor_urgent(v, Tier::Slow) {
                freed += held;
                latest = Some(latest.map_or(ready, |l| l.max(ready)));
                demoted.push((v, held));
            }
        }
        if let Some(ready) = latest {
            self.stall_until(ready);
        }
        demoted
    }

    /// Bytes of `t` currently resident in `tier` (0 if not allocated).
    #[must_use]
    pub fn tensor_bytes_in(&self, t: TensorId, tier: Tier) -> u64 {
        self.placement(t).map_or(0, |a| self.mem.pages_in_tier(a.pages, tier) * self.mem.page_size())
    }

    /// Metadata shortcut: the graph tensor for an id.
    #[must_use]
    pub fn tensor(&self, t: TensorId) -> &'g Tensor {
        self.graph.tensor(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::tensor::TensorKind;
    use crate::OpKind;
    use sentinel_mem::HmConfig;

    fn graph() -> Graph {
        let mut b = GraphBuilder::new("g", 1);
        let x = b.tensor("x", 8192, TensorKind::Input);
        let y = b.tensor("y", 4096, TensorKind::Activation);
        b.begin_layer("l0");
        b.op("f", OpKind::Other, 1000).reads(&[x]).writes(&[y]).push();
        b.finish().unwrap()
    }

    fn ctx(g: &Graph) -> ExecCtx<'_> {
        ExecCtx::new(g, MemorySystem::new(HmConfig::testing()))
    }

    #[test]
    fn allocate_access_release_roundtrip() {
        let g = graph();
        let mut c = ctx(&g);
        let y = TensorId(1);
        c.allocate_with(y, PoolSpec::default_packed(), Tier::Fast).unwrap();
        assert!(c.is_live(y));
        let rep = c.access_tensor(y, AccessKind::Write).unwrap();
        assert!(rep.elapsed_ns > 0);
        assert_eq!(c.now(), rep.elapsed_ns);
        c.release(y).unwrap();
        assert!(!c.is_live(y));
        assert_eq!(c.mem().used_pages(Tier::Fast), 0);
    }

    #[test]
    fn capacity_failure_rolls_back() {
        let g = graph();
        let mut c = ctx(&g);
        // Fast tier holds 16 pages; x needs 2 — exhaust it first.
        for _ in 0..8 {
            let r = c.mem_mut().reserve(2);
            c.mem_mut().map(r, Tier::Fast, 0).unwrap();
        }
        let x = TensorId(0);
        let err = c.allocate_with(x, PoolSpec::default_packed(), Tier::Fast);
        assert!(matches!(err, Err(ExecError::Mem(MemError::CapacityExceeded { .. }))));
        assert!(!c.is_live(x));
        // Retry on slow succeeds.
        c.allocate_with(x, PoolSpec::default_packed(), Tier::Slow).unwrap();
    }

    #[test]
    fn compute_and_stall_account_in_breakdown() {
        let g = graph();
        let mut c = ctx(&g);
        c.charge_compute(1000); // 1 flop/ns → 1000 ns
        assert_eq!(c.breakdown().compute_ns, 1000);
        c.stall_until(5000);
        assert_eq!(c.breakdown().stall_ns, 4000);
        assert_eq!(c.now(), 5000);
        c.stall_until(100); // no-op backwards
        assert_eq!(c.now(), 5000);
    }

    #[test]
    fn migrate_tensor_moves_its_pages() {
        let g = graph();
        let mut c = ctx(&g);
        let x = TensorId(0);
        c.allocate_with(x, PoolSpec::default_packed(), Tier::Slow).unwrap();
        assert_eq!(c.tensor_bytes_in(x, Tier::Slow), 8192);
        let done = c.migrate_tensor(x, Tier::Fast).unwrap().unwrap();
        c.stall_until(done);
        assert_eq!(c.tensor_bytes_in(x, Tier::Fast), 8192);
        assert_eq!(c.tensor_bytes_in(x, Tier::Slow), 0);
        // A second migrate in the same direction is a no-op.
        assert_eq!(c.migrate_tensor(x, Tier::Fast).unwrap(), None);
    }

    #[test]
    fn access_unallocated_is_error() {
        let g = graph();
        let mut c = ctx(&g);
        assert!(matches!(
            c.access_tensor(TensorId(0), AccessKind::Read),
            Err(ExecError::NotAllocated { .. })
        ));
        assert!(matches!(c.release(TensorId(0)), Err(ExecError::NotAllocated { .. })));
    }
}
