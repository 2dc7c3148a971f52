//! Section attribution of the packed decode step: one step with the obs
//! layer on records, per `batch.*` section, the FLOPs and bytes of the
//! matmuls and attention products that section actually runs.
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

/// The FLOPs of one packed-step row, term for term the repository
/// benchmark's `FlopModel::decode_row`: a decoder token whose
/// self-attention cache holds `t` rows (its own included), over `s`
/// source rows.
fn decode_row(t: u64, s: u64) -> u64 {
    LAYERS * (12 * D * D + 4 * t * D + 4 * s * D + 4 * D * FF) + 2 * D * VOCAB
}

#[test]
fn one_packed_step_records_the_matmuls_it_runs() {
    let (model, ps) = build();
    let mut dec = BatchedDecodeState::new(&model, &ps, 3);
    // Ragged sources, and ragged positions: slot r has taken `warm[r]`
    // steps before the measured one.
    let sources: [&[u32]; 3] = [&[3, 4, 5, 1], &[6, 7, 1], &[8, 1]];
    let warm = [0usize, 2, 5];
    let slots: Vec<usize> = sources
        .iter()
        .map(|src| dec.admit(src).expect("free slot"))
        .collect();
    let mut out = Vec::new();
    for step in 0..warm[2] {
        let active: Vec<(usize, u32)> = slots
            .iter()
            .zip(warm)
            .filter(|&(_, w)| step >= warm[2] - w)
            .map(|(&slot, _)| (slot, DECODER_START))
            .collect();
        dec.step_packed_into(&active, &mut out);
    }
    for (&slot, w) in slots.iter().zip(warm) {
        assert_eq!(dec.slot_len(slot), w);
    }
    let active: Vec<(usize, u32)> = slots.iter().map(|&s| (s, DECODER_START)).collect();
    let rows = active.len() as u64;
    // Self-attention keys per row, this token's included; source rows.
    let kv_rows: u64 = warm.iter().map(|&w| w as u64 + 1).sum();
    let src_rows: u64 = sources.iter().map(|s| s.len() as u64).sum();

    obs::reset();
    obs::set_enabled(true);
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
    // wq, wk, wv and wo, then 2·d per key for the scores and again for
    // the context.
    assert_eq!(
        section("batch.self_attn"),
        (
            LAYERS * (4 * 2 * rows * D * D + 4 * kv_rows * D),
            LAYERS * (4 * 4 * D * D + 16 * rows * D)
        )
    );
    // wq and wo only — the cross-attention keys and values were projected
    // once at admission — and the products over each row's source.
    assert_eq!(
        section("batch.cross_attn"),
        (
            LAYERS * (2 * 2 * rows * D * D + 4 * src_rows * D),
            LAYERS * (2 * 4 * D * D + 16 * rows * D)
        )
    );
    // wi and wo.
    assert_eq!(section("batch.ff").0, LAYERS * 2 * 2 * rows * D * FF);
    assert_eq!(section("batch.logits").0, 2 * rows * D * VOCAB);
    // The five sections sum to the benchmark's decode FLOP model, row by
    // row.
    let sections = ["embed", "self_attn", "cross_attn", "ff", "logits"];
    let recorded: u64 = sections
        .iter()
        .map(|s| section(&format!("batch.{s}")).0)
        .sum();
    let model_flops: u64 = warm
        .iter()
        .zip(sources)
        .map(|(&w, src)| decode_row(w as u64 + 1, src.len() as u64))
        .sum();
    assert_eq!(recorded, model_flops);
}
