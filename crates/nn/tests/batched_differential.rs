//! Differential suite: the batched inference engine against the
//! teacher-forced tape forward.
//!
//! For batch sizes 1–8 over randomly-initialized tiny models,
//! `batched_greedy_decode` must be token-for-token identical to greedy
//! decoding on the tape (`common::tape_greedy`) per request — across
//! ragged source lengths, staggered EOS (requests retiring at different
//! steps while others continue), both positional modes, LoRA-adapted
//! weights, and capacities smaller than the request count (continuous
//! slot reuse). "Sequential" in the test names means the reference
//! decodes one request at a time.

mod common;

use common::{forced_logits, tape_greedy};
use nn::batch::BatchedDecodeState;
use nn::decode::batched_greedy_decode;
use nn::param::ParamSet;
use nn::t5::{Positional, T5Config, T5Model, DECODER_START};
use tensor::{Tensor, XorShift};

const EOS: u32 = 1;
const MAX_LEN: usize = 12;

fn random_model(seed: u64, positional: Positional) -> (T5Model, ParamSet) {
    let mut ps = ParamSet::new();
    let mut rng = XorShift::new(seed);
    let cfg = T5Config {
        vocab: 23,
        d_model: 16,
        d_ff: 32,
        heads: 2,
        enc_layers: 1,
        dec_layers: 2,
        dropout: 0.0,
        positional,
    };
    let m = T5Model::new(&mut ps, "m", cfg, &mut rng);
    (m, ps)
}

/// Ragged random sources ending in EOS, lengths 2..=6.
fn random_srcs(seed: u64, count: usize, vocab: u32) -> Vec<Vec<u32>> {
    let mut rng = XorShift::new(seed);
    (0..count)
        .map(|_| {
            let len = 2 + (rng.next_u64() % 5) as usize;
            let mut src: Vec<u32> = (0..len)
                .map(|_| 2 + (rng.next_u64() % (vocab as u64 - 2)) as u32)
                .collect();
            src.push(EOS);
            src
        })
        .collect()
}

fn tape_outputs(m: &T5Model, ps: &ParamSet, srcs: &[Vec<u32>]) -> Vec<Vec<u32>> {
    srcs.iter()
        .map(|src| tape_greedy(m, ps, src, EOS, MAX_LEN))
        .collect()
}

#[test]
fn batched_greedy_matches_sequential_for_batch_sizes_1_to_8() {
    for positional in [Positional::RelativeBias, Positional::Sinusoidal] {
        for batch in 1..=8usize {
            let (m, ps) = random_model(1000 + batch as u64, positional);
            let srcs = random_srcs(2000 + batch as u64, batch, m.cfg.vocab as u32);
            let want = tape_outputs(&m, &ps, &srcs);
            let got = batched_greedy_decode(&m, &ps, &srcs, EOS, MAX_LEN, batch);
            assert_eq!(got, want, "{positional:?} batch {batch} diverged");
        }
    }
}

#[test]
fn batched_greedy_matches_sequential_with_slot_reuse() {
    // More requests than slots: retired slots must refill mid-flight and
    // the refilled requests must still match their tape outputs.
    let (m, ps) = random_model(7, Positional::RelativeBias);
    let srcs = random_srcs(8, 11, m.cfg.vocab as u32);
    let want = tape_outputs(&m, &ps, &srcs);
    for capacity in [1, 2, 3, 8] {
        let got = batched_greedy_decode(&m, &ps, &srcs, EOS, MAX_LEN, capacity);
        assert_eq!(got, want, "capacity {capacity} diverged");
    }
}

#[test]
fn batched_greedy_matches_sequential_on_lora_adapted_model() {
    let (mut m, mut ps) = random_model(21, Positional::RelativeBias);
    let mut rng = XorShift::new(22);
    m.lora_adapt(&mut ps, 2, 8.0, &mut rng);
    // Give the zero-initialized B matrices real weights so the adapter
    // branch contributes to every projection.
    for name in ps.names() {
        if name.ends_with(".lora_b") {
            let id = ps.by_name(&name).unwrap();
            let shape = ps.value(id).shape().to_vec();
            *ps.value_mut(id) = Tensor::randn(shape, 0.5, &mut rng);
        }
    }
    let srcs = random_srcs(23, 6, m.cfg.vocab as u32);
    let want = tape_outputs(&m, &ps, &srcs);
    let got = batched_greedy_decode(&m, &ps, &srcs, EOS, MAX_LEN, 4);
    assert_eq!(got, want);
}

#[test]
fn staggered_eos_keeps_survivors_bitwise_identical() {
    // Drive the engine by hand so we can check logits (not just tokens)
    // while requests retire at different steps. Each surviving request's
    // logit rows must stay bit-identical to its own tape rows no matter
    // which neighbours have retired (and been NaN-poisoned).
    let (m, ps) = random_model(31, Positional::RelativeBias);
    let srcs = random_srcs(32, 4, m.cfg.vocab as u32);
    // Every request is fed DECODER_START, then 2, 3, …; one forced tape
    // pass per request yields the logits of every step.
    let steps = 6usize;
    let dec_input: Vec<u32> = std::iter::once(DECODER_START)
        .chain((0..steps as u32 - 1).map(|i| (2 + i) % m.cfg.vocab as u32))
        .collect();
    let tape_trace: Vec<Vec<Vec<f32>>> = srcs
        .iter()
        .map(|src| forced_logits(&m, &ps, src, &dec_input))
        .collect();

    let mut engine = BatchedDecodeState::new(&m, &ps, srcs.len());
    let slots: Vec<usize> = srcs.iter().map(|s| engine.admit(s).unwrap()).collect();
    let mut rows = Vec::new();
    // Request r retires after `2 + r` steps.
    let mut alive: Vec<usize> = (0..srcs.len()).collect();
    // `step` indexes into `tape_trace[r]` for a request `r` chosen inside
    // the loop, so iterating a single trace is not equivalent.
    #[allow(clippy::needless_range_loop)]
    for step in 0..steps {
        if alive.is_empty() {
            break;
        }
        let active: Vec<(usize, u32)> =
            alive.iter().map(|&r| (slots[r], dec_input[step])).collect();
        engine.step_packed_into(&active, &mut rows);
        for (&r, row) in alive.iter().zip(rows.iter()) {
            let want = &tape_trace[r][step];
            for (i, (a, b)) in row.iter().zip(want.iter()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "request {r} step {step} logit {i}: {a} vs {b}"
                );
            }
        }
        alive.retain(|&r| {
            if step + 1 == 2 + r {
                engine.retire(slots[r]);
                false
            } else {
                true
            }
        });
    }
}
