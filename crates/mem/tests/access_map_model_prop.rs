//! The block-based page access map against a dense per-page model.
//!
//! `PageAccessMap` keeps its counts in fixed-size page blocks that are
//! allocated on first fault. This suite mirrors random single-page and
//! bulk faults on a plain `Vec<u64>` indexed by page, using ranges that
//! cross block boundaries and pages in windows far apart, one of them past
//! 1M. After every fault it requires the map to agree with the model on
//! `count`, `iter`, `total`, `touched_pages`, and `count_range` over ranges
//! that start and end at every offset mod 64 (a multiple of the block
//! size) or run past the last page. Maps built from the same faults in
//! other orders must be equal, and one extra fault must make them unequal.

use sentinel_mem::{PageAccessMap, PageRange};
use sentinel_util::prop::{check, shrink_vec};
use sentinel_util::{prop_assert, prop_assert_eq, Rng};

/// First pages of the windows faults land in: at zero, at a page that is
/// not block-aligned, just below 1M (2^20) and past it.
const WINDOWS: [u64; 4] = [0, 4_000, (1 << 20) - 100, (1 << 20) + 50_000];
const WINDOW_PAGES: u64 = 300;
/// One past the highest page a fault can reach.
const PAGE_LIMIT: u64 = (1 << 20) + 50_000 + WINDOW_PAGES + 128;

#[derive(Clone, Debug)]
enum Fault {
    One(u64),
    Range(PageRange),
}

fn gen_faults(rng: &mut Rng) -> Vec<Fault> {
    (0..rng.gen_usize(1, 25))
        .map(|_| {
            let first = rng.choose(&WINDOWS) + rng.gen_range(0, WINDOW_PAGES);
            if rng.gen_bool(0.4) {
                Fault::One(first)
            } else {
                // Up to 128 pages: a range crosses at least one block
                // boundary whenever it is longer than a block.
                Fault::Range(PageRange::new(first, rng.gen_range(0, 129)))
            }
        })
        .collect()
}

fn record(map: &mut PageAccessMap, fault: &Fault) {
    match *fault {
        Fault::One(page) => map.record_fault(page),
        Fault::Range(range) => map.record_faults(range),
    }
}

/// Query ranges: for each window, start at every offset mod 64 and end at
/// every offset mod 64 (`5·i` runs over all residues); then ranges that run
/// past the last page, or lie wholly beyond it.
fn queries() -> Vec<PageRange> {
    let mut out = Vec::new();
    for &window in &WINDOWS {
        let base = window.next_multiple_of(64);
        for i in 0..64 {
            let first = base + i;
            let end = base + 64 + (5 * i) % 64;
            out.push(PageRange::new(first, end - first));
        }
    }
    out.push(PageRange::new(PAGE_LIMIT - 200, 1_000));
    out.push(PageRange::new(PAGE_LIMIT + 7, 3));
    out.push(PageRange::empty());
    out
}

fn model_sum(model: &[u64], range: PageRange) -> u64 {
    let end = (range.end() as usize).min(model.len());
    let start = (range.first as usize).min(end);
    model[start..end].iter().sum()
}

fn agrees(map: &PageAccessMap, model: &[u64], touched: usize, total: u64) -> Result<(), String> {
    prop_assert_eq!(map.total(), total, "total");
    prop_assert_eq!(map.touched_pages(), touched, "touched pages");
    // `iter` must list exactly the model's non-zero pages, ascending.
    let mut listed = 0;
    let mut prev = None;
    for (page, count) in map.iter() {
        prop_assert!(prev < Some(page), "iter not ascending at page {page}");
        prop_assert!(count > 0, "iter listed untouched page {page}");
        prop_assert_eq!(count, model[page as usize], "iter count of page {}", page);
        prev = Some(page);
        listed += 1;
    }
    prop_assert_eq!(listed, touched, "iter length");
    for range in queries() {
        prop_assert_eq!(map.count_range(range), model_sum(model, range), "count_range {:?}", range);
    }
    for &window in &WINDOWS {
        for page in window..window + WINDOW_PAGES + 128 {
            prop_assert_eq!(map.count(page), model[page as usize], "count of page {}", page);
        }
    }
    prop_assert_eq!(map.count_range(PageRange::new(0, PAGE_LIMIT)), total, "count_range of all");
    prop_assert_eq!(map.count(PAGE_LIMIT + 1_000_000), 0, "count far past the last page");
    Ok(())
}

fn matches_model(faults: &Vec<Fault>) -> Result<(), String> {
    let mut map = PageAccessMap::new();
    let mut model = vec![0u64; PAGE_LIMIT as usize];
    let (mut touched, mut total) = (0, 0);
    for fault in faults {
        record(&mut map, fault);
        let range = match *fault {
            Fault::One(page) => PageRange::new(page, 1),
            Fault::Range(range) => range,
        };
        for page in range.first..range.end() {
            touched += usize::from(model[page as usize] == 0);
            model[page as usize] += 1;
        }
        total += range.count;
        agrees(&map, &model, touched, total)?;
    }

    // The same faults in reverse order, and page by page, build equal maps.
    let mut reversed = PageAccessMap::new();
    let mut per_page = PageAccessMap::new();
    for fault in faults.iter().rev() {
        record(&mut reversed, fault);
        if let Fault::Range(range) = *fault {
            for page in (range.first..range.end()).rev() {
                per_page.record_fault(page);
            }
        } else {
            record(&mut per_page, fault);
        }
    }
    prop_assert!(reversed == map, "reversed order built a different map");
    prop_assert!(per_page == map, "page-by-page faults built a different map");
    reversed.record_fault(WINDOWS[3] + 1);
    prop_assert!(reversed != map, "an extra fault left the maps equal");
    Ok(())
}

#[test]
fn block_map_matches_a_dense_model() {
    check(
        "block_map_matches_a_dense_model",
        gen_faults,
        shrink_vec(1, |_: &Fault| Vec::new()),
        matches_model,
    );
}
