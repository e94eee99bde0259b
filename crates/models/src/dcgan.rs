//! DCGAN training-graph generator (generator + discriminator, 64×64 images).

use crate::net::Net;
use crate::spec::ModelSpec;
use sentinel_dnn::{Graph, GraphError, OpKind, TensorId};

/// Generator pipeline: `(channels, resolution)` after each deconv.
const GEN: [(u64, u64); 5] = [(512, 4), (256, 8), (128, 16), (64, 32), (3, 64)];
/// Discriminator pipeline: `(channels, resolution)` after each conv.
const DIS: [(u64, u64); 5] = [(64, 32), (128, 16), (256, 8), (512, 4), (1, 1)];

struct Stage {
    name: String,
    x: TensorId,
    x_elems: u64,
    out: TensorId,
    out_elems: u64,
    w: TensorId,
    w_elems: u64,
    flops: u64,
    kind: OpKind,
}

/// One conv stage from `cin` to `cout` channels at `hw × hw` resolution.
fn conv_stage(
    net: &mut Net,
    name: &str,
    kind: OpKind,
    x: TensorId,
    x_elems: u64,
    (cin, cout, hw): (u64, u64, u64),
    batch: u64,
) -> Stage {
    let w_elems = 4 * 4 * cin * cout;
    let w = net.weight(format!("{name}/w"), w_elems);
    let out_elems = batch * cout * hw * hw;
    let flops = 2 * 4 * 4 * cin * cout * hw * hw * batch;
    net.b.begin_layer(format!("{name}/fwd"));
    let pad = net.tmp(format!("{name}/pad"), (x_elems / 8).max(16));
    net.b.op(format!("{name}/pad"), OpKind::Pad, x_elems / 8).reads(&[x]).writes(&[pad]).push();
    let c = net.tmp(format!("{name}/c"), out_elems);
    net.b.op(format!("{name}/conv"), kind, flops).reads_n(x, 2).reads(&[w, pad]).writes(&[c]).push();
    let out = net.act(format!("{name}/out"), out_elems);
    net.b.op(format!("{name}/bnrelu"), OpKind::BatchNorm, 9 * out_elems).reads(&[c]).writes(&[out]).push();
    Stage { name: name.to_owned(), x, x_elems, out, out_elems, w, w_elems, flops, kind }
}

fn conv_stage_bwd(net: &mut Net, s: &Stage, d_out: TensorId, produce_dx: bool) -> Option<TensorId> {
    net.b.begin_layer(format!("{}/bwd", s.name));
    let db = net.tmp(format!("{}/dbn", s.name), s.out_elems);
    net.b.op(format!("{}/dbnrelu", s.name), OpKind::BatchNorm, 9 * s.out_elems).reads(&[d_out, s.out]).writes(&[db]).push();
    net.backward_transform(&s.name, s.kind, s.flops, s.w, s.x, db, if produce_dx { s.x_elems } else { 0 }, s.w_elems)
}

pub(crate) fn build(spec: &ModelSpec) -> Result<Graph, GraphError> {
    let mut net = Net::new(spec.name(), spec.batch, spec.scale);
    let b = u64::from(spec.batch);
    let nz = net.dim(100);

    // Generator forward from the latent vector.
    let z = net.input("z", b * nz);
    let mut gen_stages = Vec::new();
    let mut x = z;
    let mut x_elems = b * nz;
    let mut cin = nz;
    for (i, &(ch_full, hw)) in GEN.iter().enumerate() {
        let ch = if ch_full == 3 { 3 } else { net.dim(ch_full) };
        let s = conv_stage(&mut net, &format!("g{i}"), OpKind::ConvTranspose2d, x, x_elems, (cin, ch, hw), b);
        x = s.out;
        x_elems = s.out_elems;
        cin = ch;
        gen_stages.push(s);
    }
    let fake = x;
    let fake_elems = x_elems;

    // Discriminator forward on the generated batch.
    let mut dis_stages = Vec::new();
    let mut dx_elems = fake_elems;
    let mut dxx = fake;
    let mut dcin = 3;
    for (i, &(ch_full, hw)) in DIS.iter().enumerate() {
        let ch = if ch_full == 1 { 1 } else { net.dim(ch_full) };
        let s = conv_stage(&mut net, &format!("d{i}"), OpKind::Conv2d, dxx, dx_elems, (dcin, ch, hw), b);
        dxx = s.out;
        dx_elems = s.out_elems;
        dcin = ch;
        dis_stages.push(s);
    }

    // Loss layer.
    net.b.begin_layer("loss");
    let loss = net.act("loss", b);
    net.b.op("bce", OpKind::Loss, 10 * b).reads(&[dxx]).writes(&[loss]).push();
    net.b.begin_layer("loss/bwd");
    let mut d = net.agrad("dloss", dx_elems);
    net.b.op("dbce", OpKind::Loss, 10 * b).reads(&[loss, dxx]).writes(&[d]).push();

    // Discriminator backward, then generator backward (gradient flows through).
    for s in dis_stages.iter().rev() {
        d = conv_stage_bwd(&mut net, s, d, true).expect("discriminator backward produces dx");
    }
    let mut gd = d;
    for (i, s) in gen_stages.iter().enumerate().rev() {
        match conv_stage_bwd(&mut net, s, gd, i > 0) {
            Some(next) => gd = next,
            None => break,
        }
    }

    net.b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_with_expected_layers() {
        let g = build(&ModelSpec::dcgan(2).with_scale(8)).unwrap();
        // 5 G fwd + 5 D fwd + loss + loss/bwd + 5 D bwd + 5 G bwd = 22.
        assert_eq!(g.num_layers(), 22);
    }

    #[test]
    fn generator_output_feeds_discriminator() {
        let g = build(&ModelSpec::dcgan(2).with_scale(8)).unwrap();
        let fake = g.tensors().iter().find(|t| t.name == "g4/out").unwrap();
        // Written in G forward, last read in D backward — long-lived.
        assert!(fake.lifetime_layers() > 5);
    }

    #[test]
    fn has_both_conv_kinds() {
        let g = build(&ModelSpec::dcgan(2).with_scale(8)).unwrap();
        let kinds: Vec<_> = g.layers().iter().flat_map(|l| &l.ops).map(|o| o.kind).collect();
        assert!(kinds.contains(&OpKind::ConvTranspose2d));
        assert!(kinds.contains(&OpKind::Conv2d));
    }
}
