//! OS-level page-access profiling via PTE poisoning.
//!
//! The paper (Section III-A): "to track a page for access counting, Sentinel
//! sets a reserved bit (bit 51) in its PTE (i.e., poisoning PTE) and then
//! flushes the PTE from TLB. When the page is accessed, a TLB miss occurs and
//! triggers a protection fault. Sentinel uses a customized fault handler to
//! count this page access, poisons the PTE, and flushes it from TLB again to
//! track the next page access."
//!
//! [`PageAccessMap`] is the fault handler's record: one count per page,
//! whose sum is the number of faults handled. The [`crate::MemorySystem`]
//! raises a simulated fault for every *main-memory* access (i.e., after the
//! cache filter) to a poisoned page, records it here, charges the
//! configured fault overhead, and immediately re-poisons — so each counted
//! access costs one fault, exactly like the real mechanism.

use crate::PageRange;

/// Pages per block of counts in a [`PageAccessMap`].
const BLOCK_PAGES: usize = 32;

/// Per-page main-memory access counts collected during a profiling step:
/// the simulated customized fault handler.
///
/// While profiling, the [`crate::MemorySystem`] routes every main-memory
/// access to a poisoned page here. Counting is per 4 KiB page; combined
/// with page-aligned tensor allocation this *is* tensor-level profiling
/// (the paper's key bridging of the OS/application semantic gap).
///
/// Counts live in fixed-size blocks of `BLOCK_PAGES` (32) pages, each allocated
/// when one of its pages first faults, and are found through a directory
/// holding one `u32` per block of the page space. A profiling run reserves
/// far more pages than it touches (every page-aligned pool takes a whole
/// chunk), so the map costs the blocks the faults touch plus four bytes per
/// block of address space, not eight bytes per page up to the highest one.
/// The bulk [`PageAccessMap::record_faults`] is a `+= 1` sweep over each
/// block's slice of the range. Two maps are equal iff they record the same
/// count for every page.
#[derive(Debug, Clone, Default, Eq)]
pub struct PageAccessMap {
    /// `dir[page / BLOCK_PAGES]` is one more than the index in `blocks` of
    /// the page's block, or 0 while none of the block's pages has faulted.
    dir: Vec<u32>,
    blocks: Vec<[u64; BLOCK_PAGES]>,
    total: u64,
    touched: usize,
}

impl PartialEq for PageAccessMap {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// The block holding `page`, and the page's offset in it.
fn block_of(page: u64) -> (usize, usize) {
    let block = usize::try_from(page / BLOCK_PAGES as u64).expect("page numbers fit in usize");
    (block, (page % BLOCK_PAGES as u64) as usize)
}

impl PageAccessMap {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn block(&self, block: usize) -> Option<&[u64; BLOCK_PAGES]> {
        let slot = *self.dir.get(block)?;
        slot.checked_sub(1).map(|i| &self.blocks[i as usize])
    }

    /// Accesses counted for `page` (zero if never faulted).
    #[must_use]
    pub fn count(&self, page: u64) -> u64 {
        let (block, offset) = block_of(page);
        self.block(block).map_or(0, |counts| counts[offset])
    }

    /// Sum of counts over a page range.
    #[must_use]
    pub fn count_range(&self, range: PageRange) -> u64 {
        let end = range.end().min((self.dir.len() * BLOCK_PAGES) as u64);
        let mut page = range.first;
        let mut sum = 0;
        while page < end {
            let (block, offset) = block_of(page);
            let len = (BLOCK_PAGES - offset).min((end - page) as usize);
            if let Some(counts) = self.block(block) {
                sum += counts[offset..offset + len].iter().sum::<u64>();
            }
            page += len as u64;
        }
        sum
    }

    /// Total accesses counted: the number of faults handled.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct pages that faulted at least once.
    #[must_use]
    pub fn touched_pages(&self) -> usize {
        self.touched
    }

    /// Iterate over `(page, count)` pairs for touched pages, in ascending
    /// page order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let touched = self.dir.iter().enumerate().filter(|&(_, &slot)| slot != 0);
        touched.flat_map(move |(block, &slot)| {
            let first = (block * BLOCK_PAGES) as u64;
            let counts = self.blocks[slot as usize - 1].iter();
            counts.zip(first..).filter(|&(&c, _)| c > 0).map(|(&c, page)| (page, c))
        })
    }

    /// Record one protection fault for `page`.
    pub fn record_fault(&mut self, page: u64) {
        self.record_faults(PageRange::new(page, 1));
    }

    /// Record one protection fault for every page of `range` — the bulk
    /// path taken when a whole poisoned run misses the cache filter.
    /// Equivalent to calling [`PageAccessMap::record_fault`] per page.
    pub fn record_faults(&mut self, range: PageRange) {
        let (mut page, end) = (range.first, range.end());
        let mut touched = 0;
        while page < end {
            let (block, offset) = block_of(page);
            let len = (BLOCK_PAGES - offset).min((end - page) as usize);
            if block >= self.dir.len() {
                self.dir.resize(block + 1, 0);
            }
            if self.dir[block] == 0 {
                self.blocks.push([0; BLOCK_PAGES]);
                self.dir[block] = u32::try_from(self.blocks.len()).expect("fewer than 2^32 blocks");
            }
            let counts = &mut self.blocks[self.dir[block] as usize - 1];
            for c in &mut counts[offset..offset + len] {
                touched += usize::from(*c == 0);
                *c += 1;
            }
            page += len as u64;
        }
        self.touched += touched;
        self.total += range.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PageRange;

    #[test]
    fn faults_accumulate_per_page() {
        let mut map = PageAccessMap::new();
        map.record_fault(3);
        map.record_fault(3);
        map.record_fault(7);
        assert_eq!(map.count(3), 2);
        assert_eq!(map.count(7), 1);
        assert_eq!(map.count(99), 0);
        assert_eq!(map.total(), 3);
        assert_eq!(map.touched_pages(), 2);
    }

    #[test]
    fn range_counts_sum_member_pages() {
        let mut map = PageAccessMap::new();
        for page in [0, 1, 1, 2, 5] {
            map.record_fault(page);
        }
        assert_eq!(map.count_range(PageRange::new(0, 3)), 4);
        assert_eq!(map.count_range(PageRange::new(3, 2)), 0);
        assert_eq!(map.count_range(PageRange::new(5, 1)), 1);
    }

    #[test]
    fn iter_reports_every_touched_page() {
        let mut map = PageAccessMap::new();
        map.record_fault(10);
        map.record_fault(11);
        let mut pages: Vec<_> = map.iter().map(|(pg, _)| pg).collect();
        pages.sort_unstable();
        assert_eq!(pages, vec![10, 11]);
    }

    #[test]
    fn bulk_faults_match_per_page_faults() {
        let mut bulk = PageAccessMap::new();
        let mut per_page = PageAccessMap::new();
        bulk.record_faults(PageRange::new(2, 5));
        bulk.record_faults(PageRange::new(4, 2));
        bulk.record_faults(PageRange::empty());
        for page in 2..7 {
            per_page.record_fault(page);
        }
        for page in 4..6 {
            per_page.record_fault(page);
        }
        assert_eq!(bulk, per_page);
        assert_eq!(bulk.total(), 7);
        assert_eq!(bulk.touched_pages(), 5);
        assert_eq!(bulk.count(4), 2);
    }

    #[test]
    fn map_equality_compares_counts_not_capacity() {
        let mut a = PageAccessMap::new();
        let mut b = PageAccessMap::new();
        a.record_fault(1);
        b.record_fault(1);
        assert_eq!(a, b);
        // Different recording order, same counts.
        let mut c = PageAccessMap::new();
        c.record_faults(PageRange::new(0, 4));
        let mut d = PageAccessMap::new();
        for page in [3, 1, 0, 2] {
            d.record_fault(page);
        }
        assert_eq!(c, d);
        assert_ne!(a, c);
    }
}
