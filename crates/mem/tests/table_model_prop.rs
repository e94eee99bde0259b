//! The packed page table against a per-page model.
//!
//! `PageTable` keeps one byte per page, finds the end of a run eight entries
//! per compare, and caches its mapped, in-flight and poisoned counts. This
//! suite mirrors random bulk writes on a plain `Vec<Pte>` and, after every
//! write, requires the table to agree with the model on the runs of random
//! ranges (built page by page from the model, including ranges that start
//! and end at every offset mod 8 and ranges that run past the table's end), on
//! `get`, `tier_of` and `any_in_flight`, and on the three cached counts.

use sentinel_mem::{PageRange, PageState, PageTable, Pte, PteRun, Tier};
use sentinel_util::prop::{check, shrink_vec};
use sentinel_util::{prop_assert_eq, Rng};

/// One write to the table.
#[derive(Clone, Debug)]
enum Op {
    Reserve(u64),
    SetState(PageRange, PageState),
    SetPoisoned(PageRange, bool),
    SetInFlight(PageRange, bool),
    PoisonAllMapped,
    UnpoisonAll,
}

#[derive(Clone, Debug)]
struct Case {
    ops: Vec<Op>,
    /// Ranges whose runs and in-flight bit are compared after every op.
    queries: Vec<PageRange>,
}

fn gen_case(rng: &mut Rng) -> Case {
    let mut reserved = 0;
    let mut ops = Vec::new();
    for _ in 0..rng.gen_usize(1, 40) {
        if reserved == 0 || rng.gen_usize(0, 10) == 0 {
            let count = rng.gen_range(0, 40);
            reserved += count;
            ops.push(Op::Reserve(count));
            continue;
        }
        // Writes of 1-17 pages at any offset leave runs of every length
        // from one page to several words.
        let first = rng.gen_range(0, reserved);
        let range = PageRange::new(first, rng.gen_range(1, 18).min(reserved - first));
        ops.push(match rng.gen_usize(0, 9) {
            0 | 1 => Op::SetState(range, PageState::Mapped(Tier::Fast)),
            2 | 3 => Op::SetState(range, PageState::Mapped(Tier::Slow)),
            4 => Op::SetState(range, PageState::Unmapped),
            5 => Op::SetPoisoned(range, rng.gen_bool(0.5)),
            6 => Op::SetInFlight(range, rng.gen_bool(0.5)),
            7 => Op::PoisonAllMapped,
            _ => Op::UnpoisonAll,
        });
    }
    // Query `i` starts at offset `i % 8` of a word and ends at offset
    // `5i % 8`, so every case starts and ends at every offset; some start or
    // end past the table.
    let queries = (0..16)
        .map(|i| {
            let first = 8 * rng.gen_range(0, reserved / 8 + 2) + i % 8;
            let mut end = 8 * (first / 8 + rng.gen_range(0, 5)) + 5 * i % 8;
            if end < first {
                end += 8;
            }
            PageRange::new(first, end - first)
        })
        .collect();
    Case { ops, queries }
}

fn shrink_case(case: &Case) -> Vec<Case> {
    let ops = shrink_vec(0, |_: &Op| Vec::new())(&case.ops)
        .into_iter()
        .map(|ops| Case { ops, queries: case.queries.clone() });
    let queries = shrink_vec(0, |_: &PageRange| Vec::new())(&case.queries)
        .into_iter()
        .map(|queries| Case { ops: case.ops.clone(), queries });
    ops.chain(queries).collect()
}

/// Apply `op` to both the table and the model. A write past the table's end
/// (left behind when shrinking drops a reservation) is skipped.
fn apply(op: &Op, table: &mut PageTable, model: &mut Vec<Pte>) {
    let in_table = |range: PageRange| range.end() <= model.len() as u64;
    match *op {
        Op::Reserve(count) => {
            table.reserve(count);
            model.resize(model.len() + count as usize, Pte::UNMAPPED);
        }
        Op::SetState(range, state) if in_table(range) => {
            table.set_state(range, state);
            range.iter().for_each(|p| model[p as usize].state = state);
        }
        Op::SetPoisoned(range, on) if in_table(range) => {
            table.set_poisoned(range, on);
            range.iter().for_each(|p| model[p as usize].poisoned = on);
        }
        Op::SetInFlight(range, on) if in_table(range) => {
            table.set_in_flight(range, on);
            range.iter().for_each(|p| model[p as usize].in_flight = on);
        }
        Op::PoisonAllMapped => {
            table.poison_all_mapped();
            for pte in model.iter_mut().filter(|pte| pte.state != PageState::Unmapped) {
                pte.poisoned = true;
            }
        }
        Op::UnpoisonAll => {
            table.unpoison_all();
            model.iter_mut().for_each(|pte| pte.poisoned = false);
        }
        _ => {}
    }
}

/// The model's entry for `page`; pages past the table read as unmapped.
fn model_pte(model: &[Pte], page: u64) -> Pte {
    model.get(page as usize).copied().unwrap_or(Pte::UNMAPPED)
}

/// The maximal equal-entry runs of `range`, built one page at a time.
fn model_runs(model: &[Pte], range: PageRange) -> Vec<PteRun> {
    let mut runs: Vec<PteRun> = Vec::new();
    for page in range.iter() {
        let pte = model_pte(model, page);
        match runs.last_mut() {
            Some(run) if run.pte == pte => run.range.count += 1,
            _ => runs.push(PteRun { range: PageRange::new(page, 1), pte }),
        }
    }
    runs
}

fn agrees(table: &PageTable, model: &[Pte], queries: &[PageRange]) -> Result<(), String> {
    prop_assert_eq!(table.reserved(), model.len() as u64);
    let whole = PageRange::new(0, model.len() as u64 + 9);
    for &range in queries.iter().chain([&whole]) {
        let runs: Vec<PteRun> = table.runs_in(range).collect();
        prop_assert_eq!(runs, model_runs(model, range), "runs of {range}");
        let in_flight = range.iter().any(|p| model_pte(model, p).in_flight);
        prop_assert_eq!(table.any_in_flight(range), in_flight, "any_in_flight({range})");
    }
    for page in whole.iter() {
        prop_assert_eq!(table.get(page).ok(), model.get(page as usize).copied(), "get({page})");
        let tier = match model_pte(model, page).state {
            PageState::Mapped(t) => Some(t),
            PageState::Unmapped => None,
        };
        prop_assert_eq!(table.tier_of(page), tier, "tier_of({page})");
    }
    let mut mapped = [0u64; 2];
    for pte in model {
        if let PageState::Mapped(t) = pte.state {
            mapped[t.index()] += 1;
        }
    }
    prop_assert_eq!(table.mapped_counts(), mapped, "mapped_counts");
    prop_assert_eq!(table.in_flight_count(), model.iter().filter(|pte| pte.in_flight).count() as u64);
    prop_assert_eq!(table.poisoned_count(), model.iter().filter(|pte| pte.poisoned).count() as u64);
    Ok(())
}

#[test]
fn packed_table_matches_per_page_model() {
    check("packed_table_matches_per_page_model", gen_case, shrink_case, |case| {
        let mut table = PageTable::new();
        let mut model = Vec::new();
        for (i, op) in case.ops.iter().enumerate() {
            apply(op, &mut table, &mut model);
            agrees(&table, &model, &case.queries).map_err(|e| format!("after op {i} ({op:?}): {e}"))?;
        }
        Ok(())
    });
}
