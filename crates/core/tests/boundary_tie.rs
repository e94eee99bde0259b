//! Boundary-semantics regression: a migration landing *exactly* on an
//! interval boundary belongs to the closing interval.
//!
//! The `ready_at <= now` convention (executable as the
//! `MigrationReady < IntervalBoundary` same-instant tie-break in the event
//! queue) means a prefetch completing at precisely the boundary instant is
//! observed by the boundary: Case 1, not Case 3. This test hand-builds a
//! graph whose layer-2 compute time directly controls the gap between a
//! prefetch's completion and the next boundary, locates the exact flop
//! count where the two collide (the tie), proves the collision is exact
//! from the trace, and pins the classification and the ledger row on both
//! sides of the tie.

use sentinel_core::{Case3Policy, SentinelConfig, SentinelOutcome, SentinelRuntime};
use sentinel_dnn::{Graph, GraphBuilder, IntervalRecord, OpKind, TensorKind};
use sentinel_mem::{HmConfig, TraceLevel};

const PAGE: u64 = 4096;
const WEIGHT_BYTES: u64 = 4 * PAGE;
const LAYERS: usize = 4;
/// The interval whose boundary the tie targets: its weight's prefetch is
/// issued at the previous boundary, so layer 1's flop count sets the slack.
const TIE_INTERVAL: usize = 2;

/// Four layers, one 4-page weight each; fast memory holds roughly two
/// weights, so the steady state is a promote/demote pipeline and each
/// interval's weight arrives via a prefetch issued one boundary earlier.
/// `flops` is layer 1's compute; at 1 flop/ns every extra flop delays the
/// interval-2 boundary by exactly 1 ns against the in-flight prefetch.
fn tie_graph(flops: u64) -> Graph {
    let mut b = GraphBuilder::new("tie", 1);
    let weights: Vec<_> = (0..LAYERS)
        .map(|i| b.tensor(format!("w{i}"), WEIGHT_BYTES, TensorKind::Weight))
        .collect();
    for (i, &w) in weights.iter().enumerate() {
        b.begin_layer(format!("l{i}"));
        let act = b.tensor(format!("a{i}"), PAGE, TensorKind::Activation);
        let f = if i == 1 { flops } else { 2_000 };
        b.op(format!("op{i}"), OpKind::Other, f).reads(&[w]).writes(&[act]).push();
    }
    b.finish().expect("valid graph")
}

fn train(flops: u64) -> SentinelOutcome {
    let g = tie_graph(flops);
    let mut cfg = SentinelConfig::default().with_mil(1);
    cfg.case3 = Case3Policy::AlwaysWait;
    cfg.reserve_short_lived = false;
    let hm = HmConfig::testing().with_fast_capacity(12 * PAGE);
    SentinelRuntime::new(cfg, hm)
        .with_trace(TraceLevel::Full)
        .train(&g, 5)
        .expect("tie graph trains")
}

/// The tie-interval ledger row of the final (steady-state) step.
fn tie_row(outcome: &SentinelOutcome) -> IntervalRecord {
    let last = outcome.report.steps.last().expect("steps recorded");
    last.intervals
        .iter()
        .find(|r| r.interval == TIE_INTERVAL)
        .unwrap_or_else(|| panic!("no ledger row for interval {TIE_INTERVAL}: {:?}", last.intervals))
        .clone()
}

/// Whether the final step classifies the tie interval as Case 1.
fn lands_in_time(flops: u64) -> bool {
    tie_row(&train(flops)).case == 1
}

#[test]
fn exact_tie_is_case1_one_ns_earlier_is_case3() {
    // Locate the smallest layer-1 flop count whose interval-2 prefetch
    // lands by the boundary. The classification gap closes by exactly
    // 1 ns per flop, so at the flip the completion and the boundary
    // collide on the same instant — the tie.
    let (mut lo, mut hi) = (1u64, 60_000u64);
    assert!(!lands_in_time(lo), "prefetch lands even under an instant layer 1");
    assert!(lands_in_time(hi), "prefetch never lands; no tie exists in the sweep");
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if lands_in_time(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let tie = hi; // smallest Case-1 flop count
    for (flops, expect_case) in [(tie, 1u8), (tie - 1, 3u8)] {
        let row = tie_row(&train(flops));
        assert_eq!(row.case, expect_case, "flops {flops}: {row:?}");
        if expect_case == 3 {
            // AlwaysWait resolves Case 3 by stalling out the remaining gap.
            assert_eq!(row.choice, "wait", "flops {flops}: {row:?}");
            assert!(row.stall_case3_ns > 0, "flops {flops}: {row:?}");
        } else {
            assert!(row.choice.is_empty(), "flops {flops}: {row:?}");
            assert_eq!(row.stall_case3_ns, 0, "flops {flops}: {row:?}");
        }
    }

    // Prove the Case-1 side really is the exact tie, not merely an early
    // completion: a promote lands at precisely the boundary instant.
    let outcome = train(tie);
    let row = tie_row(&outcome);
    let trace = outcome.trace.as_ref().expect("trace recorded");
    assert!(
        trace
            .events
            .iter()
            .any(|e| e.name == "complete" && e.ts_ns == row.start_ns),
        "no migration completes exactly at the tie boundary {}; row {row:?}",
        row.start_ns
    );
}
