//! Shared test helpers: the teacher-forced tape forward as the decode
//! oracle.
//!
//! Training runs `encode` + `decode_all` + `logits` on the autodiff tape.
//! The decoder is causal, so row `i` of one forced pass over
//! `[DECODER_START, y_0, …, y_{n-2}]` is exactly the next-token logit row
//! an incremental decoder emits after consuming `i + 1` tokens — masked
//! positions contribute exact zeros, so the bits do not depend on how
//! far the forced input runs past row `i`. `tape_oracle.rs` checks the
//! packed decode step against these rows bit for bit, which is what lets
//! every other decode suite use them as its reference.

#![allow(dead_code)]

use nn::decode::{argmax, masked_argmax};
use nn::param::ParamSet;
use nn::t5::{T5Model, DECODER_START};
use tensor::Graph;

/// Next-token logit rows of the teacher-forced tape forward: row `i` is
/// the prediction after consuming `dec_input[..=i]` for source `src`.
pub fn forced_logits(m: &T5Model, ps: &ParamSet, src: &[u32], dec_input: &[u32]) -> Vec<Vec<f32>> {
    let mut g = Graph::new();
    let src: Vec<usize> = src.iter().map(|&t| t as usize).collect();
    let dec: Vec<usize> = dec_input.iter().map(|&t| t as usize).collect();
    let enc = m.encode(&mut g, ps, &src, false);
    let out = m.decode_all(&mut g, ps, enc, &dec, false);
    let logits = m.logits(&mut g, ps, out);
    g.value(logits)
        .data()
        .chunks(m.cfg.vocab)
        .map(<[f32]>::to_vec)
        .collect()
}

/// Decodes `src` on the tape: re-runs the forced forward over the growing
/// prefix and lets `pick(logits, emitted)` choose each next token (`None`
/// finishes without emitting), for at most `max_len` tokens.
pub fn tape_decode(
    m: &T5Model,
    ps: &ParamSet,
    src: &[u32],
    max_len: usize,
    mut pick: impl FnMut(&[f32], &[u32]) -> Option<u32>,
) -> Vec<u32> {
    let mut dec_input = vec![DECODER_START];
    while dec_input.len() <= max_len {
        let rows = forced_logits(m, ps, src, &dec_input);
        let Some(next) = pick(&rows[rows.len() - 1], &dec_input[1..]) else {
            break;
        };
        dec_input.push(next);
    }
    dec_input.split_off(1)
}

/// Tape greedy decoding: [`argmax`] until `eos` or `max_len` tokens.
pub fn tape_greedy(m: &T5Model, ps: &ParamSet, src: &[u32], eos: u32, max_len: usize) -> Vec<u32> {
    tape_decode(m, ps, src, max_len, |logits, _| {
        let next = argmax(logits);
        (next != eos).then_some(next)
    })
}

/// Tape grammar-constrained decoding: [`masked_argmax`] over
/// `allowed(prefix)`; an empty set finishes the request.
pub fn tape_constrained(
    m: &T5Model,
    ps: &ParamSet,
    src: &[u32],
    eos: u32,
    max_len: usize,
    mut allowed: impl FnMut(&[u32]) -> Vec<u32>,
) -> Vec<u32> {
    tape_decode(m, ps, src, max_len, |logits, prefix| {
        let mask = allowed(prefix);
        if mask.is_empty() {
            return None;
        }
        let next = masked_argmax(logits, &mask);
        (next != eos).then_some(next)
    })
}

/// Total log-probability of `tokens` given `src` under the tape forward,
/// divided by `max(len, 1)` — the score beam search ranks hypotheses by.
pub fn tape_score(m: &T5Model, ps: &ParamSet, src: &[u32], tokens: &[u32]) -> f32 {
    let mut dec_input = vec![DECODER_START];
    dec_input.extend_from_slice(tokens);
    let rows = forced_logits(m, ps, src, &dec_input);
    let total: f32 = tokens
        .iter()
        .zip(&rows)
        .map(|(&t, row)| nn::decode::log_softmax(row)[t as usize])
        .sum();
    total / tokens.len().max(1) as f32
}
