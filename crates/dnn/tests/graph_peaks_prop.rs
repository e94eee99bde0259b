//! The one-pass peak byte figures and the count-then-fill reference index
//! against their definitions.
//!
//! On random `GraphBuilder` graphs (1–12 layers of 0–4 ops, up to 30
//! tensors of every kind, some never referenced, some named twice by one
//! op or layer), three identities must hold:
//!
//! * `peak_live_bytes` is the maximum over layers of `live_bytes_in_layer`;
//! * `peak_short_lived_bytes` is the same maximum over short-lived tensors;
//! * `peak_short_lived_concurrent_bytes` is the maximum, over every op in
//!   execution order, of the bytes of the short-lived tensors whose first
//!   referencing op is at or before it and whose last is at or after it.
//!
//! And every query of the graph's `Schedule` must answer what a naive
//! per-tensor index built in the test answers.

use sentinel_dnn::{Graph, GraphBuilder, OpKind, OpRef, Schedule, TensorId, TensorKind};
use sentinel_util::prop::{no_shrink, PropConfig};
use sentinel_util::{prop_assert_eq, Rng};

const KINDS: [TensorKind; 7] = [
    TensorKind::Input,
    TensorKind::Weight,
    TensorKind::WeightGrad,
    TensorKind::OptimizerState,
    TensorKind::Activation,
    TensorKind::ActivationGrad,
    TensorKind::Temporary,
];

/// A random graph: tensor kinds and sizes, then per layer its ops, each a
/// list of `(tensor, is_write)` operands.
#[derive(Clone, Debug)]
struct Shape {
    tensors: Vec<(TensorKind, u64)>,
    layers: Vec<Vec<Vec<(usize, bool)>>>,
}

fn gen_shape(rng: &mut Rng) -> Shape {
    let tensors: Vec<_> = (0..rng.gen_usize(0, 31))
        .map(|_| (*rng.choose(&KINDS), rng.gen_range(1, 1 << 20)))
        .collect();
    let mut written = vec![false; tensors.len()];
    let layers = (0..rng.gen_usize(1, 13))
        .map(|_| {
            (0..rng.gen_usize(0, 5))
                .map(|_| {
                    if tensors.is_empty() {
                        return Vec::new();
                    }
                    // A runtime tensor is written by the first op that
                    // names it (an op reads its operands before it writes).
                    let operands: Vec<(usize, bool)> = (0..rng.gen_usize(0, 4))
                        .map(|_| {
                            let t = rng.gen_usize(0, tensors.len());
                            let must_write = !written[t] && !tensors[t].0.is_preallocated();
                            (t, must_write || rng.gen_bool(0.3))
                        })
                        .collect();
                    for &(t, write) in &operands {
                        written[t] |= write;
                    }
                    operands
                })
                .collect()
        })
        .collect();
    Shape { tensors, layers }
}

fn build(shape: &Shape) -> Graph {
    let mut b = GraphBuilder::new("random", 1);
    let ids: Vec<_> = shape
        .tensors
        .iter()
        .enumerate()
        .map(|(i, &(kind, bytes))| b.tensor(format!("t{i}"), bytes, kind))
        .collect();
    for (l, ops) in shape.layers.iter().enumerate() {
        b.begin_layer(format!("l{l}"));
        for (o, operands) in ops.iter().enumerate() {
            let mut op = b.op(format!("op{l}.{o}"), OpKind::Other, 1);
            for &(t, write) in operands {
                op = if write { op.writes(&[ids[t]]) } else { op.reads(&[ids[t]]) };
            }
            op.push();
        }
    }
    // A graph needs one op; give the last layer an empty one if none has.
    if shape.layers.iter().all(Vec::is_empty) {
        b.op("only", OpKind::Other, 1).push();
    }
    b.finish().expect("operands respect write-before-read")
}

fn peaks_match_definitions(shape: &Shape) -> Result<(), String> {
    let g = build(shape);
    let layers = g.num_layers();
    let per_layer_max = |short_only: bool| {
        (0..layers)
            .map(|l| {
                g.tensors()
                    .iter()
                    .filter(|t| (!short_only || t.is_short_lived()) && t.live_in_layer(l))
                    .map(|t| t.bytes)
                    .sum::<u64>()
            })
            .max()
            .unwrap_or(0)
    };
    let live_max = (0..layers).map(|l| g.live_bytes_in_layer(l)).max().unwrap_or(0);
    prop_assert_eq!(live_max, per_layer_max(false), "live_bytes_in_layer disagrees with liveness");
    prop_assert_eq!(g.peak_live_bytes(), live_max, "peak_live_bytes");
    prop_assert_eq!(g.peak_short_lived_bytes(), per_layer_max(true), "peak_short_lived_bytes");

    let mut concurrent = 0;
    for (layer, l) in g.layers().iter().enumerate() {
        for op in 0..l.ops.len() {
            let at = OpRef { layer, op };
            let live: u64 = g
                .tensors()
                .iter()
                .filter(|t| t.is_short_lived())
                .filter(|t| t.first_ref.is_some_and(|f| f <= at))
                .filter(|t| t.last_ref.is_some_and(|l| l >= at))
                .map(|t| t.bytes)
                .sum();
            concurrent = concurrent.max(live);
        }
    }
    prop_assert_eq!(g.peak_short_lived_concurrent_bytes(), concurrent, "concurrent peak");
    Ok(())
}

#[test]
fn peak_passes_match_their_definitions() {
    let mut cfg = PropConfig::from_env();
    if std::env::var("SENTINEL_PROP_CASES").is_err() {
        cfg = cfg.with_cases(1000);
    }
    cfg.run(
        "peak_passes_match_their_definitions",
        gen_shape,
        no_shrink(),
        peaks_match_definitions,
    );
}

/// `Schedule`'s queries against an index built the slow way: each tensor's
/// layers from a scan of every layer, each layer's long-lived tensors from
/// a scan of every tensor.
fn schedule_matches_naive_index(shape: &Shape) -> Result<(), String> {
    let g = build(shape);
    let s = Schedule::new(&g);
    let layers = g.num_layers();
    let refs: Vec<Vec<usize>> = g
        .tensors()
        .iter()
        .map(|t| (0..layers).filter(|&l| g.layers()[l].ops.iter().any(|op| op.referenced().any(|r| r == t.id))).collect())
        .collect();
    let long = |t: TensorId| !g.tensor(t).is_short_lived() && !refs[t.index()].is_empty();
    prop_assert_eq!(s.num_layers(), layers);
    for t in g.tensors().iter().map(|t| t.id) {
        let mine = &refs[t.index()];
        prop_assert_eq!(s.layers_of(t), mine.as_slice(), "layers_of({:?})", t);
        for layer in 0..=layers + 1 {
            let next = mine.iter().copied().find(|&l| l >= layer);
            prop_assert_eq!(s.next_use(t, layer), next, "next_use({:?}, {})", t, layer);
            let cyclic = mine.first().map(|&first| next.unwrap_or(first + layers));
            prop_assert_eq!(s.next_use_cyclic(t, layer), cyclic, "next_use_cyclic({:?}, {})", t, layer);
        }
    }
    for layer in 0..layers {
        let expect: Vec<TensorId> =
            g.tensors().iter().map(|t| t.id).filter(|&t| long(t) && refs[t.index()].contains(&layer)).collect();
        prop_assert_eq!(s.long_tensors_in_layer(layer), expect.as_slice(), "long_tensors_in_layer({})", layer);
    }
    let all_long: Vec<TensorId> = g.tensors().iter().map(|t| t.id).filter(|&t| long(t)).collect();
    prop_assert_eq!(s.long_tensor_ids(), all_long.as_slice(), "long_tensor_ids");
    Ok(())
}

#[test]
fn schedule_matches_a_naive_index() {
    let mut cfg = PropConfig::from_env();
    if std::env::var("SENTINEL_PROP_CASES").is_err() {
        cfg = cfg.with_cases(1000);
    }
    cfg.run("schedule_matches_a_naive_index", gen_shape, no_shrink(), schedule_matches_naive_index);
}
