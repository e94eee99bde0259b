//! Pooled virtual-memory allocator whose free lists say which pages an
//! allocation populates or empties.
//!
//! Tensors are allocated from named *pools*. Each pool owns disjoint virtual
//! pages, so pages are never shared across pools — this is the mechanism
//! Sentinel's data reorganization uses to guarantee that short- and
//! long-lived tensors (rules 1–4 of Section IV-B) never share a page.
//! Within a *packed* pool a first-fit free list reuses address space at
//! sub-page granularity, which is how TensorFlow-style allocation produces
//! the page-level false sharing the paper characterizes; a *page-aligned*
//! pool rounds every allocation to whole pages, which is what the profiling
//! phase uses so page counts become tensor counts.
//!
//! Page occupancy is read from the free lists rather than counted per page.
//! A pool grows only by reserving fresh whole pages, and its free list is
//! sorted and coalesced, so a page of the pool is empty exactly when it lies
//! wholly inside one free block. Carving an allocation out of a free block
//! therefore populates the allocation's pages that lay wholly inside that
//! block, and freeing one empties its pages that lie wholly inside the
//! coalesced block it rejoins: each is one contiguous range.

use sentinel_mem::{pages_for_bytes, MemorySystem, PageRange};
use std::collections::HashMap;

/// Sub-page allocation alignment for packed pools (TensorFlow uses 64 B).
pub const PACKED_ALIGN: u64 = 64;

/// Identifies a pool and its layout discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolSpec {
    /// Pool key; allocations with the same key share pages (if packed).
    pub key: u64,
    /// Whether every allocation is rounded to whole pages of its own.
    pub page_aligned: bool,
}

impl PoolSpec {
    /// The default packed pool (key 0) — models TensorFlow's BFC allocator.
    #[must_use]
    pub fn default_packed() -> Self {
        PoolSpec { key: 0, page_aligned: false }
    }

    /// A page-aligned pool (used during the profiling phase).
    #[must_use]
    pub fn page_aligned(key: u64) -> Self {
        PoolSpec { key, page_aligned: true }
    }

    /// A packed pool with the given key.
    #[must_use]
    pub fn packed(key: u64) -> Self {
        PoolSpec { key, page_aligned: false }
    }
}

/// A live allocation handed out by [`SegmentAllocator::alloc`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Pool the bytes came from.
    pub pool: u64,
    /// Byte address within the simulated virtual address space.
    pub addr: u64,
    /// Rounded-up allocation size in bytes.
    pub bytes: u64,
    /// Pages covered by the allocation (may be shared with other tensors).
    pub pages: PageRange,
    /// Pages that became populated *because of* this allocation — the caller
    /// must map them into a tier. Empty when every page already had a tenant.
    pub new_pages: PageRange,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block {
    addr: u64,
    bytes: u64,
}

impl Block {
    fn end(self) -> u64 {
        self.addr + self.bytes
    }
}

#[derive(Debug, Default)]
struct Pool {
    /// Free blocks sorted by address, coalesced.
    free: Vec<Block>,
}

impl Pool {
    /// First-fit allocation of `bytes` from the start of a free block;
    /// returns that block as it was before the carve, or `None`.
    fn take(&mut self, bytes: u64) -> Option<Block> {
        let idx = self.free.iter().position(|b| b.bytes >= bytes)?;
        let block = self.free[idx];
        if block.bytes == bytes {
            self.free.remove(idx);
        } else {
            self.free[idx] = Block { addr: block.addr + bytes, bytes: block.bytes - bytes };
        }
        Some(block)
    }

    /// Return a block, coalescing with address-adjacent neighbours; returns
    /// the coalesced free block that now holds it.
    ///
    /// # Panics
    ///
    /// Panics if the block overlaps a free neighbour (a double free).
    fn give(&mut self, block: Block) -> Block {
        let pos = self.free.partition_point(|b| b.addr < block.addr);
        let prev_end = pos.checked_sub(1).map(|i| self.free[i].end());
        let next_addr = self.free.get(pos).map(|b| b.addr);
        assert!(
            prev_end.is_none_or(|end| end <= block.addr) && next_addr.is_none_or(|addr| block.end() <= addr),
            "double free: {block:?} overlaps a free block"
        );
        let mut merged = block;
        if next_addr == Some(block.end()) {
            merged.bytes += self.free.remove(pos).bytes;
        }
        if prev_end == Some(block.addr) {
            let prev = &mut self.free[pos - 1];
            prev.bytes += merged.bytes;
            *prev
        } else {
            self.free.insert(pos, merged);
            merged
        }
    }
}

/// The pooled allocator. See the module docs for the design.
#[derive(Debug)]
pub struct SegmentAllocator {
    page_size: u64,
    /// Pages reserved per growth step of a pool.
    chunk_pages: u64,
    pools: HashMap<u64, Pool>,
    live_bytes: u64,
    peak_live_bytes: u64,
}

impl SegmentAllocator {
    /// An allocator for pages of `page_size` bytes.
    #[must_use]
    pub fn new(page_size: u64) -> Self {
        SegmentAllocator {
            page_size,
            chunk_pages: 256,
            pools: HashMap::new(),
            live_bytes: 0,
            peak_live_bytes: 0,
        }
    }

    /// Allocate `bytes` from the pool described by `spec`, reserving fresh
    /// virtual space from `mem` when the pool must grow.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn alloc(&mut self, mem: &mut MemorySystem, spec: PoolSpec, bytes: u64) -> Allocation {
        assert!(bytes > 0, "cannot allocate zero bytes");
        let align = if spec.page_aligned { self.page_size } else { PACKED_ALIGN };
        let size = bytes.div_ceil(align) * align;

        let pool = self.pools.entry(spec.key).or_default();
        let block = match pool.take(size) {
            Some(block) => block,
            None => {
                let grow_pages = pages_for_bytes(size, self.page_size).max(self.chunk_pages);
                let range = mem.reserve(grow_pages);
                pool.give(Block { addr: range.first * self.page_size, bytes: grow_pages * self.page_size });
                pool.take(size).expect("fresh chunk satisfies allocation")
            }
        };

        let pages = self.pages_covering(block.addr, size);
        let new_pages = self.pages_inside(pages, block);
        self.live_bytes += size;
        self.peak_live_bytes = self.peak_live_bytes.max(self.live_bytes);
        Allocation { pool: spec.key, addr: block.addr, bytes: size, pages, new_pages }
    }

    /// Release an allocation; returns the pages that became empty and must
    /// be unmapped by the caller (empty when every page keeps a tenant).
    ///
    /// # Panics
    ///
    /// Panics if the allocation was already freed.
    pub fn free(&mut self, allocation: &Allocation) -> PageRange {
        let pool = self.pools.get_mut(&allocation.pool).expect("freed allocation's pool exists");
        let coalesced = pool.give(Block { addr: allocation.addr, bytes: allocation.bytes });
        self.live_bytes -= allocation.bytes;
        self.pages_inside(allocation.pages, coalesced)
    }

    /// Pages covered by a byte span.
    fn pages_covering(&self, addr: u64, bytes: u64) -> PageRange {
        let first = addr / self.page_size;
        let last = (addr + bytes - 1) / self.page_size;
        PageRange::new(first, last - first + 1)
    }

    /// The pages of `pages` that lie wholly inside the free block `block`,
    /// or the empty range. For the block an allocation was carved from, or
    /// the coalesced block it rejoined, these are exactly the allocation's
    /// pages with no other tenant: its interior pages are its own, and since
    /// pools reserve whole pages, an edge page reaching past the block holds
    /// another tenant's bytes.
    fn pages_inside(&self, pages: PageRange, block: Block) -> PageRange {
        let first = pages.first.max(block.addr.div_ceil(self.page_size));
        let end = pages.end().min(block.end() / self.page_size);
        if first < end {
            PageRange::new(first, end - first)
        } else {
            PageRange::empty()
        }
    }

    /// Live allocated bytes (after rounding).
    #[must_use]
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Peak of [`SegmentAllocator::live_bytes`] since construction.
    #[must_use]
    pub fn peak_live_bytes(&self) -> u64 {
        self.peak_live_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_mem::HmConfig;

    fn setup() -> (SegmentAllocator, MemorySystem) {
        let mem = MemorySystem::new(HmConfig::testing());
        (SegmentAllocator::new(4096), mem)
    }

    #[test]
    fn packed_allocations_share_pages() {
        let (mut a, mut mem) = setup();
        let spec = PoolSpec::default_packed();
        let x = a.alloc(&mut mem, spec, 1000);
        let y = a.alloc(&mut mem, spec, 1000);
        assert_eq!(x.pages, y.pages, "two small tensors land on the same page");
        assert_eq!(x.new_pages, x.pages);
        assert!(y.new_pages.is_empty(), "second tenant maps no new pages");
    }

    #[test]
    fn page_aligned_allocations_never_share() {
        let (mut a, mut mem) = setup();
        let spec = PoolSpec::page_aligned(1);
        let x = a.alloc(&mut mem, spec, 100);
        let y = a.alloc(&mut mem, spec, 100);
        assert!(!x.pages.overlaps(&y.pages));
        assert_eq!(x.bytes, 4096);
        assert_eq!(y.new_pages, y.pages, "each tensor populates its own page");
    }

    #[test]
    fn distinct_pools_never_share_pages() {
        let (mut a, mut mem) = setup();
        let x = a.alloc(&mut mem, PoolSpec::packed(1), 100);
        let y = a.alloc(&mut mem, PoolSpec::packed(2), 100);
        assert!(!x.pages.overlaps(&y.pages));
    }

    #[test]
    fn free_returns_emptied_pages_and_enables_reuse() {
        let (mut a, mut mem) = setup();
        let spec = PoolSpec::default_packed();
        let x = a.alloc(&mut mem, spec, 8192);
        let unmap = a.free(&x);
        assert_eq!(unmap, x.pages);
        let y = a.alloc(&mut mem, spec, 8192);
        assert_eq!(y.addr, x.addr, "first-fit reuses the freed block");
    }

    #[test]
    fn shared_page_not_unmapped_until_last_tenant_leaves() {
        let (mut a, mut mem) = setup();
        let spec = PoolSpec::default_packed();
        let x = a.alloc(&mut mem, spec, 1000);
        let y = a.alloc(&mut mem, spec, 1000);
        assert!(a.free(&x).is_empty());
        assert_eq!(a.free(&y), y.pages);
    }

    #[test]
    fn coalescing_reassembles_blocks() {
        let (mut a, mut mem) = setup();
        let spec = PoolSpec::default_packed();
        let x = a.alloc(&mut mem, spec, 4096);
        let y = a.alloc(&mut mem, spec, 4096);
        let z = a.alloc(&mut mem, spec, 4096);
        a.free(&x);
        a.free(&z);
        a.free(&y); // middle free merges all three
        let big = a.alloc(&mut mem, spec, 3 * 4096);
        assert_eq!(big.addr, x.addr);
    }

    #[test]
    fn large_allocation_grows_pool_sufficiently() {
        let (mut a, mut mem) = setup();
        let spec = PoolSpec::default_packed();
        let big = a.alloc(&mut mem, spec, 300 * 4096); // bigger than a chunk
        assert_eq!(big.pages.count, 300);
        assert_eq!(big.new_pages, big.pages);
    }

    #[test]
    fn live_and_peak_bytes_track() {
        let (mut a, mut mem) = setup();
        let spec = PoolSpec::default_packed();
        let x = a.alloc(&mut mem, spec, 64);
        let y = a.alloc(&mut mem, spec, 64);
        assert_eq!(a.live_bytes(), 128);
        a.free(&x);
        assert_eq!(a.live_bytes(), 64);
        assert_eq!(a.peak_live_bytes(), 128);
        assert_eq!(a.free(&y), y.pages, "the last tenant's free empties the page");
    }

    #[test]
    #[should_panic(expected = "cannot allocate zero bytes")]
    fn zero_byte_alloc_panics() {
        let (mut a, mut mem) = setup();
        let _ = a.alloc(&mut mem, PoolSpec::default_packed(), 0);
    }

    #[test]
    fn fragmented_free_produces_multiple_unmap_ranges() {
        let (mut a, mut mem) = setup();
        // Build an allocation spanning 3 pages, with a neighbour pinning the
        // middle page: alloc A = pages 0..3 (12 KiB), alloc B = small tensor
        // on page 1 (via address reuse). Construct by: A1 = 4096 (page 0),
        // A2 = 4096 (page 1), A3 = 4096 (page 2); free A1, A3.
        let spec = PoolSpec::default_packed();
        let a1 = a.alloc(&mut mem, spec, 4096);
        let a2 = a.alloc(&mut mem, spec, 4096);
        let a3 = a.alloc(&mut mem, spec, 4096);
        a.free(&a1);
        a.free(&a3);
        // Now allocate one 12 KiB tensor — does not fit fragmented holes,
        // grows the pool instead.
        let big = a.alloc(&mut mem, spec, 12288);
        assert!(big.addr >= a3.addr + a3.bytes || big.addr != a1.addr);
        // Freeing a2 empties page 1 only.
        let unmap = a.free(&a2);
        assert_eq!(unmap, a2.pages);
    }

    #[test]
    fn free_block_spanning_adjacent_chunks() {
        let (mut a, mut mem) = setup();
        let spec = PoolSpec::default_packed();
        // Fill the first 256-page chunk but for a 960-byte tail on page 255.
        let x = a.alloc(&mut mem, spec, 256 * 4096 - 1000);
        assert_eq!(x.bytes, 256 * 4096 - 960);
        // The tail is too small, so the pool reserves its second chunk right
        // after the first; the tail and the new chunk coalesce into one free
        // block that straddles the chunk boundary.
        let y = a.alloc(&mut mem, spec, 8192);
        assert_eq!(y.addr, x.addr + x.bytes, "carved from the straddling block");
        assert_eq!(y.pages, PageRange::new(255, 3));
        assert_eq!(y.new_pages, PageRange::new(256, 2), "page 255 already has x");
        // x's free keeps page 255 (y still sits on it).
        assert_eq!(a.free(&x), PageRange::new(0, 255));
        // y's free rejoins both chunks into one block and empties its pages.
        assert_eq!(a.free(&y), y.pages);
        let whole = a.alloc(&mut mem, spec, 512 * 4096);
        assert_eq!(whole.addr, 0, "both chunks coalesced into one block");
        assert_eq!(whole.new_pages, whole.pages);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let (mut a, mut mem) = setup();
        let spec = PoolSpec::default_packed();
        let x = a.alloc(&mut mem, spec, 100);
        let _y = a.alloc(&mut mem, spec, 100);
        a.free(&x);
        a.free(&x);
    }
}
