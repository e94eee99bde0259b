//! Software page table.
//!
//! Each reserved virtual page has a one-byte entry recording where (and
//! whether) it is mapped, whether a migration of it is in flight, and the
//! poison bit used by the profiling mechanism — the simulated analogue of
//! the reserved PTE bit 51 the paper sets in the Linux kernel:
//!
//! | bit | set when |
//! |---|---|
//! | 0 | mapped in [`Tier::Fast`] |
//! | 1 | mapped in [`Tier::Slow`] |
//! | 2 | poisoned |
//! | 3 | a migration is in flight |
//!
//! An unmapped page has neither state bit, so a fresh entry is `0`. Equal
//! entries are equal bytes, which lets [`PageTable::runs_in`] find the end
//! of a run eight entries per compare. [`Pte`] is the decoded view of one
//! entry.

use crate::{MemError, PageRange, Tier};

/// The two state bits: bit [`Tier::index`] is set when mapped in that tier.
const MAPPED: u8 = 0b0011;
/// The poison bit.
const POISONED: u8 = 0b0100;
/// The in-flight bit.
const IN_FLIGHT: u8 = 0b1000;

/// Mapping state of a virtual page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Reserved virtual space, no physical frame.
    Unmapped,
    /// Backed by a frame in the given tier.
    Mapped(Tier),
}

/// A page table entry, decoded from its byte (layout in the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Mapping state.
    pub state: PageState,
    /// The profiling poison bit (paper: reserved PTE bit 51). When set, the
    /// next main-memory access faults and is counted.
    pub poisoned: bool,
    /// Whether a migration for this page is currently in flight.
    pub in_flight: bool,
}

impl Pte {
    /// The default entry: reserved but unmapped, clean, not migrating.
    pub const UNMAPPED: Pte = Pte { state: PageState::Unmapped, poisoned: false, in_flight: false };

    fn from_bits(entry: u8) -> Pte {
        let state = match entry & MAPPED {
            0 => PageState::Unmapped,
            1 => PageState::Mapped(Tier::Fast),
            _ => PageState::Mapped(Tier::Slow),
        };
        Pte { state, poisoned: entry & POISONED != 0, in_flight: entry & IN_FLIGHT != 0 }
    }
}

impl Default for Pte {
    fn default() -> Self {
        Pte::UNMAPPED
    }
}

/// A maximal run of consecutive pages sharing identical PTE contents.
///
/// Produced by [`PageTable::runs_in`]. Because Sentinel co-allocates tensors
/// with the same lifetime/hotness onto contiguous pages, real tables decay
/// into a handful of runs per tensor range — the access pipeline exploits
/// that to do its cache, fault and traffic work once per run instead of
/// once per page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PteRun {
    /// The pages of the run.
    pub range: PageRange,
    /// The PTE contents shared by every page in the run.
    pub pte: Pte,
}

/// Iterator over the maximal equal-PTE runs of a range; see
/// [`PageTable::runs_in`].
#[derive(Debug, Clone)]
pub struct PteRuns<'a> {
    /// In-table entries of the queried range.
    entries: &'a [u8],
    /// Page number of `entries[0]`.
    base: u64,
    /// Cursor into `entries`.
    pos: usize,
    /// Pages of the queried range past the end of the table; they behave
    /// exactly like reserved-but-unmapped pages and are folded into a
    /// trailing [`Pte::UNMAPPED`] run.
    tail: u64,
}

/// How many leading `entries` equal `entry`, compared eight at a time: in a
/// little-endian word XOR the byte repeated eight times, the lowest set bit
/// lies in the first entry that differs.
fn run_len(entries: &[u8], entry: u8) -> usize {
    let repeated = u64::from_le_bytes([entry; 8]);
    let mut words = entries.chunks_exact(8);
    let mut len = 0;
    for word in &mut words {
        let diff = u64::from_le_bytes(word.try_into().expect("8-byte chunk")) ^ repeated;
        if diff != 0 {
            return len + diff.trailing_zeros() as usize / 8;
        }
        len += 8;
    }
    len + words.remainder().iter().take_while(|&&e| e == entry).count()
}

impl Iterator for PteRuns<'_> {
    type Item = PteRun;

    fn next(&mut self) -> Option<PteRun> {
        let start = self.pos;
        let first = self.base + start as u64;
        let Some(&entry) = self.entries.get(start) else {
            // Only the synthetic out-of-table tail is left, if anything.
            let count = std::mem::take(&mut self.tail);
            return (count > 0).then(|| PteRun { range: PageRange::new(first, count), pte: Pte::UNMAPPED });
        };
        self.pos = start + 1 + run_len(&self.entries[start + 1..], entry);
        let mut count = (self.pos - start) as u64;
        // Merge the synthetic out-of-table tail into a final unmapped run.
        if self.pos == self.entries.len() && entry == 0 {
            count += std::mem::take(&mut self.tail);
        }
        Some(PteRun { range: PageRange::new(first, count), pte: Pte::from_bits(entry) })
    }
}

/// A growable page table over the reserved virtual address space, one byte
/// per page (layout in the module docs).
///
/// Global bit counts (mapped per tier, in-flight, poisoned) are cached, so
/// the residency sanitizer's whole-table queries are O(1) instead of
/// O(reserved pages). The bulk setters keep them exact: each counts the
/// runs of the entries it is about to overwrite (a scan at eight entries
/// per compare), then overwrites their bits in one byte loop.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct PageTable {
    entries: Vec<u8>,
    /// Cached mapped-page count per tier, by [`Tier::index`].
    mapped: [u64; 2],
    /// Cached count of pages with the in-flight flag set.
    in_flight: u64,
    /// Cached count of poisoned pages.
    poisoned: u64,
}

impl PageTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        PageTable::default()
    }

    /// Number of reserved virtual pages.
    #[must_use]
    pub fn reserved(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Extend the virtual address space by `count` pages, returning the new range.
    pub fn reserve(&mut self, count: u64) -> PageRange {
        let first = self.entries.len() as u64;
        self.entries.resize(self.entries.len() + count as usize, 0);
        PageRange::new(first, count)
    }

    /// Entry for `page`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the page was never reserved.
    pub fn get(&self, page: u64) -> Result<Pte, MemError> {
        self.entries
            .get(page as usize)
            .map(|&entry| Pte::from_bits(entry))
            .ok_or(MemError::OutOfRange { range: PageRange::new(page, 1), reserved: self.reserved() })
    }

    /// Validate that an entire range was reserved.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if any page is outside the table.
    pub fn check_range(&self, range: PageRange) -> Result<(), MemError> {
        if range.end() > self.reserved() {
            return Err(MemError::OutOfRange { range, reserved: self.reserved() });
        }
        Ok(())
    }

    /// The tier a page is mapped in, if any.
    #[must_use]
    pub fn tier_of(&self, page: u64) -> Option<Tier> {
        match self.get(page).ok()?.state {
            PageState::Mapped(t) => Some(t),
            PageState::Unmapped => None,
        }
    }

    /// Iterate over the maximal runs of consecutive pages with identical PTE
    /// contents (`state`, `poisoned`, `in_flight`) inside `range`.
    ///
    /// Pages beyond the reserved table behave like unmapped pages, so they
    /// are reported as (part of) a trailing [`Pte::UNMAPPED`] run rather than
    /// being skipped — the iterator always covers `range.count` pages.
    pub fn runs_in(&self, range: PageRange) -> PteRuns<'_> {
        let start = (range.first as usize).min(self.entries.len());
        let end = (range.end() as usize).min(self.entries.len()).max(start);
        let tail = range.count - (end - start) as u64;
        PteRuns { entries: &self.entries[start..end], base: range.first, pos: 0, tail }
    }

    /// Set the mapping state of every page in `range`. The range must be
    /// reserved.
    pub fn set_state(&mut self, range: PageRange, state: PageState) {
        let mut was = [0u64; 2];
        for run in self.runs_in(range) {
            if let PageState::Mapped(t) = run.pte.state {
                was[t.index()] += run.range.count;
            }
        }
        for (cached, was) in self.mapped.iter_mut().zip(was) {
            *cached -= was;
        }
        let bits = match state {
            PageState::Unmapped => 0,
            PageState::Mapped(t) => {
                self.mapped[t.index()] += range.count;
                1 << t.index()
            }
        };
        self.overwrite(range, MAPPED, bits);
    }

    /// Replace the `mask` bits of every entry of a reserved `range` by `bits`.
    fn overwrite(&mut self, range: PageRange, mask: u8, bits: u8) {
        debug_assert!(range.end() <= self.reserved(), "bulk write out of range");
        for entry in &mut self.entries[range.first as usize..range.end() as usize] {
            *entry = (*entry & !mask) | bits;
        }
    }

    /// Pages of `range` whose entry satisfies `has`, counted run by run.
    fn count(&self, range: PageRange, has: impl Fn(Pte) -> bool) -> u64 {
        self.runs_in(range).filter(|run| has(run.pte)).map(|run| run.range.count).sum()
    }

    /// Set the poison bit of every page in `range`. The range must be reserved.
    pub fn set_poisoned(&mut self, range: PageRange, poisoned: bool) {
        self.poisoned -= self.count(range, |pte| pte.poisoned);
        self.poisoned += if poisoned { range.count } else { 0 };
        self.overwrite(range, POISONED, if poisoned { POISONED } else { 0 });
    }

    /// Set the in-flight flag of every page in `range`. The range must be
    /// reserved.
    pub fn set_in_flight(&mut self, range: PageRange, in_flight: bool) {
        self.in_flight -= self.count(range, |pte| pte.in_flight);
        self.in_flight += if in_flight { range.count } else { 0 };
        self.overwrite(range, IN_FLIGHT, if in_flight { IN_FLIGHT } else { 0 });
    }

    /// Whether any page of `range` has a migration in flight (out-of-table
    /// pages never do).
    #[must_use]
    pub fn any_in_flight(&self, range: PageRange) -> bool {
        self.runs_in(range).any(|run| run.pte.in_flight)
    }

    /// Poison every mapped page in the whole table (profiling start).
    pub fn poison_all_mapped(&mut self) {
        let mut count = 0u64;
        for entry in &mut self.entries {
            if *entry & MAPPED != 0 {
                *entry |= POISONED;
            }
            count += u64::from(*entry & POISONED != 0);
        }
        self.poisoned = count;
    }

    /// Clear the poison bit of every page in the table (profiling stop).
    pub fn unpoison_all(&mut self) {
        for entry in &mut self.entries {
            *entry &= !POISONED;
        }
        self.poisoned = 0;
    }

    /// Mapped pages per tier across the whole table (cached, O(1)).
    #[must_use]
    pub fn mapped_counts(&self) -> [u64; 2] {
        self.mapped
    }

    /// Pages flagged as having a migration in flight (cached, O(1)).
    #[must_use]
    pub fn in_flight_count(&self) -> u64 {
        self.in_flight
    }

    /// Poisoned pages (cached, O(1)).
    #[must_use]
    pub fn poisoned_count(&self) -> u64 {
        self.poisoned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_grows_contiguously() {
        let mut t = PageTable::new();
        let a = t.reserve(3);
        let b = t.reserve(2);
        assert_eq!(a, PageRange::new(0, 3));
        assert_eq!(b, PageRange::new(3, 2));
        assert_eq!(t.reserved(), 5);
    }

    #[test]
    fn default_entries_are_unmapped_and_clean() {
        let mut t = PageTable::new();
        let r = t.reserve(1);
        let e = t.get(r.first).unwrap();
        assert_eq!(e.state, PageState::Unmapped);
        assert!(!e.poisoned);
        assert!(!e.in_flight);
        assert_eq!(t.tier_of(r.first), None);
    }

    #[test]
    fn out_of_range_is_an_error() {
        let t = PageTable::new();
        assert!(matches!(t.get(0), Err(MemError::OutOfRange { .. })));
        assert!(t.check_range(PageRange::new(0, 1)).is_err());
        assert!(t.check_range(PageRange::empty()).is_ok());
    }

    #[test]
    fn runs_partition_the_range() {
        let mut t = PageTable::new();
        let r = t.reserve(8);
        t.set_state(PageRange::new(0, 3), PageState::Mapped(Tier::Fast));
        t.set_state(PageRange::new(3, 2), PageState::Mapped(Tier::Slow));
        t.set_poisoned(PageRange::new(4, 1), true);
        let runs: Vec<_> = t.runs_in(r).collect();
        assert_eq!(runs.len(), 4);
        assert_eq!(runs[0].range, PageRange::new(0, 3));
        assert_eq!(runs[0].pte.state, PageState::Mapped(Tier::Fast));
        assert_eq!(runs[1].range, PageRange::new(3, 1));
        assert_eq!(runs[2].range, PageRange::new(4, 1));
        assert!(runs[2].pte.poisoned);
        assert_eq!(runs[3].range, PageRange::new(5, 3));
        assert_eq!(runs[3].pte, Pte::UNMAPPED);
        // The runs always cover the whole queried range.
        assert_eq!(runs.iter().map(|r| r.range.count).sum::<u64>(), 8);
    }

    #[test]
    fn runs_cover_pages_beyond_the_table() {
        let mut t = PageTable::new();
        t.reserve(2);
        t.set_state(PageRange::new(0, 2), PageState::Mapped(Tier::Fast));
        // Query extends 3 pages past the reserved space.
        let runs: Vec<_> = t.runs_in(PageRange::new(1, 4)).collect();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].range, PageRange::new(1, 1));
        assert_eq!(runs[1].range, PageRange::new(2, 3));
        assert_eq!(runs[1].pte, Pte::UNMAPPED);
        // A fully out-of-table query is one synthetic unmapped run.
        let runs: Vec<_> = t.runs_in(PageRange::new(10, 5)).collect();
        assert_eq!(runs, vec![PteRun { range: PageRange::new(10, 5), pte: Pte::UNMAPPED }]);
    }

    #[test]
    fn trailing_unmapped_run_merges_with_tail() {
        let mut t = PageTable::new();
        t.reserve(4);
        t.set_state(PageRange::new(0, 2), PageState::Mapped(Tier::Slow));
        let runs: Vec<_> = t.runs_in(PageRange::new(0, 7)).collect();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].range, PageRange::new(2, 5)); // 2 in-table + 3 beyond
    }

    #[test]
    fn poison_all_and_unpoison_all() {
        let mut t = PageTable::new();
        t.reserve(4);
        t.set_state(PageRange::new(1, 2), PageState::Mapped(Tier::Slow));
        t.poison_all_mapped();
        assert!(!t.get(0).unwrap().poisoned);
        assert!(t.get(1).unwrap().poisoned);
        assert!(t.get(2).unwrap().poisoned);
        t.unpoison_all();
        assert!((0..4).all(|p| !t.get(p).unwrap().poisoned));
    }

    #[test]
    fn mapping_is_visible_through_queries() {
        let mut t = PageTable::new();
        t.reserve(4);
        t.set_state(PageRange::new(1, 1), PageState::Mapped(Tier::Fast));
        t.set_state(PageRange::new(2, 1), PageState::Mapped(Tier::Slow));
        assert_eq!(t.tier_of(1), Some(Tier::Fast));
        assert_eq!(t.tier_of(2), Some(Tier::Slow));
        assert_eq!(t.mapped_counts(), [1, 1]);
    }

    /// The O(1) cached counts must agree with a full-table recount after an
    /// arbitrary churn of overlapping bulk-setter calls.
    #[test]
    fn cached_counts_survive_bulk_setter_churn() {
        use sentinel_util::Rng;
        let recount = |t: &PageTable| {
            let mut mapped = [0u64; 2];
            let (mut in_flight, mut poisoned) = (0u64, 0u64);
            for p in 0..t.reserved() {
                let e = t.get(p).unwrap();
                if let PageState::Mapped(tier) = e.state {
                    mapped[tier.index()] += 1;
                }
                in_flight += u64::from(e.in_flight);
                poisoned += u64::from(e.poisoned);
            }
            (mapped, in_flight, poisoned)
        };
        let mut t = PageTable::new();
        t.reserve(64);
        let mut rng = Rng::seed_from_u64(0xC0DE);
        for _ in 0..500 {
            let first = rng.gen_range(0, 60);
            let range = PageRange::new(first, rng.gen_range(1, 64 - first + 1).min(8));
            match rng.gen_usize(0, 7) {
                0 => t.set_state(range, PageState::Mapped(Tier::Fast)),
                1 => t.set_state(range, PageState::Mapped(Tier::Slow)),
                2 => t.set_state(range, PageState::Unmapped),
                3 => t.set_poisoned(range, rng.gen_bool(0.5)),
                4 => t.set_in_flight(range, rng.gen_bool(0.5)),
                5 => t.poison_all_mapped(),
                _ => t.unpoison_all(),
            }
            let (mapped, in_flight, poisoned) = recount(&t);
            assert_eq!(t.mapped_counts(), mapped);
            assert_eq!(t.in_flight_count(), in_flight);
            assert_eq!(t.poisoned_count(), poisoned);
        }
    }
}
