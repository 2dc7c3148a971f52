//! Section attribution of the packed decode step: one step with the obs
//! layer on records, per `batch.*` section, the FLOPs and bytes of the
//! matmuls that section actually runs.
//!
//! The collector is process-global, so this file holds a single test.

use nn::batch::BatchedDecodeState;
use nn::param::ParamSet;
use nn::t5::{Positional, T5Config, T5Model, DECODER_START};
use obs::Phase;
use tensor::XorShift;

const D: u64 = 16;
const FF: u64 = 32;
const VOCAB: u64 = 20;
const LAYERS: u64 = 2;

fn build() -> (T5Model, ParamSet) {
    let mut ps = ParamSet::new();
    let mut rng = XorShift::new(7);
    let cfg = T5Config {
        vocab: VOCAB as usize,
        d_model: D as usize,
        d_ff: FF as usize,
        heads: 2,
        enc_layers: 2,
        dec_layers: LAYERS as usize,
        dropout: 0.0,
        positional: Positional::RelativeBias,
    };
    let m = T5Model::new(&mut ps, "m", cfg, &mut rng);
    (m, ps)
}

#[test]
fn one_packed_step_records_the_matmuls_it_runs() {
    let (model, ps) = build();
    let mut dec = BatchedDecodeState::new(&model, &ps, 3);
    let sources: [&[u32]; 3] = [&[3, 4, 5, 1], &[6, 7, 1], &[8, 1]];
    let active: Vec<(usize, u32)> = sources
        .iter()
        .map(|src| (dec.admit(src).expect("free slot"), DECODER_START))
        .collect();
    let rows = active.len() as u64;

    obs::reset();
    obs::set_enabled(true);
    let mut out = Vec::new();
    dec.step_packed_into(&active, &mut out);
    obs::set_enabled(false);
    let totals = obs::snapshot().kernel_totals();
    obs::reset();

    let section = |op: &str| {
        let stat = totals
            .get(&(op.to_string(), Phase::Forward))
            .unwrap_or_else(|| panic!("no {op} sample in {totals:?}"));
        assert_eq!(stat.calls, 1, "{op}: one sample per step");
        (stat.flops, stat.bytes)
    };
    // Two FLOPs (a multiply and an add) per weight per row; four bytes per
    // weight streamed once, plus the packed activations.
    assert_eq!(section("batch.embed").0, 0);
    // wq, wk, wv and wo.
    assert_eq!(
        section("batch.self_attn"),
        (
            LAYERS * 4 * 2 * rows * D * D,
            LAYERS * (4 * 4 * D * D + 16 * rows * D)
        )
    );
    // wq and wo only: the cross-attention keys and values were projected
    // once at admission.
    assert_eq!(
        section("batch.cross_attn"),
        (
            LAYERS * 2 * 2 * rows * D * D,
            LAYERS * (2 * 4 * D * D + 16 * rows * D)
        )
    );
    // wi and wo.
    assert_eq!(section("batch.ff").0, LAYERS * 2 * 2 * rows * D * FF);
    assert_eq!(section("batch.logits").0, 2 * rows * D * VOCAB);
    // Per row and layer, the attention projections are the 12·d² FLOPs
    // the repository benchmark's decode FLOP model counts (8 self + 4
    // cross).
    let projections = section("batch.self_attn").0 + section("batch.cross_attn").0;
    assert_eq!(projections, rows * LAYERS * 12 * D * D);
}
