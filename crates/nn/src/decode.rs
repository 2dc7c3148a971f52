//! Decoding strategies: greedy, beam search, and grammar-constrained.
//!
//! T5 models decode on one engine, the [`BatchedDecodeState`].
//! [`batched_greedy_decode`] and [`batched_constrained_decode`] submit
//! every input to the serving scheduler, [`crate::engine::Engine`], and
//! tick it until it drains: continuous batching (free slots refill from
//! the queue the moment a request retires) with the pick rule passed to
//! [`tick_with`](crate::engine::Engine::tick_with). [`beam_decode`] runs
//! its hypotheses as slots of one engine. Decoding a single input is a
//! batch of one. Per request, the tokens do not depend on the capacity or
//! on the other requests in the batch, and equal the tokens of the same
//! pick rule applied to the teacher-forced tape forward one prefix at a
//! time. The decode suites check both properties. The determinism
//! contracts of [`argmax`] and [`masked_argmax`] are part of that
//! guarantee, and unit tests lock them.
//!
//! The LSTM baseline keeps its own incremental state behind the
//! [`StepDecoder`] trait, which [`greedy_decode`] drives. The decoder
//! start token is the T5 convention (`<pad>`).

use crate::batch::BatchedDecodeState;
use crate::engine::{Engine, EngineConfig, Request};
use crate::param::ParamSet;
use crate::t5::{T5Model, DECODER_START};

/// An incremental decoder: feed the previously produced token, get logits
/// for the next one (the LSTM baseline's decoding interface).
pub trait StepDecoder {
    /// Feeds `token` and returns next-token logits over the vocabulary.
    fn step(&mut self, token: u32) -> Vec<f32>;
}

impl StepDecoder for crate::lstm::LstmDecodeState<'_> {
    fn step(&mut self, token: u32) -> Vec<f32> {
        crate::lstm::LstmDecodeState::step(self, token)
    }
}

/// Greedy decoding until `eos` or `max_len` tokens.
///
/// Returns generated tokens excluding the final `eos`.
pub fn greedy_decode(state: &mut dyn StepDecoder, eos: u32, max_len: usize) -> Vec<u32> {
    let mut out = Vec::new();
    let mut prev = DECODER_START;
    for _ in 0..max_len {
        let logits = state.step(prev);
        let next = argmax(&logits);
        if next == eos {
            break;
        }
        out.push(next);
        prev = next;
    }
    out
}

/// Beam search with length-normalized log-probability scoring, on the
/// batched engine.
///
/// One admission encodes `src`, and each step advances every unfinished
/// hypothesis in one packed step. Each unfinished hypothesis owns a
/// slot. When several children of one parent survive the cut, the first
/// keeps the parent's slot and the others
/// [`fork`](BatchedDecodeState::fork) it. Parents with no surviving
/// unfinished child retire before any fork, so `width` slots always
/// suffice. Finished (EOS) hypotheses hold no slot.
///
/// Ranking is deterministic: the stable sorts keep equal log-probabilities
/// in token-id order and equal scores in candidate order, and the final
/// pick takes the last of equal scores.
pub fn beam_decode(
    model: &T5Model,
    ps: &ParamSet,
    src: &[u32],
    eos: u32,
    max_len: usize,
    width: usize,
) -> Vec<u32> {
    assert!(width >= 1, "beam width must be positive");
    /// A hypothesis; `slot` is `None` once it has emitted EOS.
    struct Hyp {
        slot: Option<usize>,
        tokens: Vec<u32>,
        log_prob: f32,
    }
    fn score(h: &Hyp) -> f32 {
        h.log_prob / (h.tokens.len().max(1) as f32)
    }
    let mut state = BatchedDecodeState::new(model, ps, width);
    let mut beams = vec![Hyp {
        slot: state.admit(src),
        tokens: Vec::new(),
        log_prob: 0.0,
    }];
    let mut active: Vec<(usize, u32)> = Vec::with_capacity(width);
    let mut rows: Vec<Vec<f32>> = Vec::with_capacity(width);
    let mut kept: Vec<usize> = Vec::with_capacity(width);
    for _ in 0..max_len {
        active.clear();
        active.extend(beams.iter().filter_map(|h| {
            h.slot
                .map(|s| (s, h.tokens.last().copied().unwrap_or(DECODER_START)))
        }));
        if active.is_empty() {
            break;
        }
        state.step_packed_into(&active, &mut rows);
        // Finished hypotheses carry over in place; each unfinished one
        // expands into its `width` best next tokens, in the slot it owns.
        let mut next_rows = rows.iter();
        let mut cands: Vec<Hyp> = Vec::new();
        for hyp in beams {
            let Some(logits) = hyp.slot.and_then(|_| next_rows.next()) else {
                cands.push(hyp);
                continue;
            };
            let log_probs = log_softmax(logits);
            let mut top: Vec<(usize, f32)> = log_probs.iter().copied().enumerate().collect();
            top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            for &(tok, lp) in top.iter().take(width) {
                let done = tok as u32 == eos;
                let mut tokens = hyp.tokens.clone();
                if !done {
                    tokens.push(tok as u32);
                }
                cands.push(Hyp {
                    slot: hyp.slot.filter(|_| !done),
                    tokens,
                    log_prob: hyp.log_prob + lp,
                });
            }
        }
        cands.sort_by(|a, b| {
            score(b)
                .partial_cmp(&score(a))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        cands.truncate(width);
        // Every surviving unfinished child still names its parent's slot.
        // Slots no child names retire first; then the first child per slot
        // keeps it and every further child gets a fork.
        for &(slot, _) in &active {
            if !cands.iter().any(|h| h.slot == Some(slot)) {
                state.retire(slot);
            }
        }
        kept.clear();
        for h in &mut cands {
            let Some(slot) = h.slot else { continue };
            if kept.contains(&slot) {
                h.slot = state.fork(slot);
                debug_assert!(h.slot.is_some(), "width slots hold every live child");
            } else {
                kept.push(slot);
            }
        }
        beams = cands;
    }
    beams
        .into_iter()
        .max_by(|a, b| {
            score(a)
                .partial_cmp(&score(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|h| h.tokens)
        .unwrap_or_default()
}

/// Index of the largest logit, breaking ties toward the **lowest** index.
///
/// The tie rule is a determinism contract: every greedy decoder and the
/// tape reference in the test suites route through this function, so
/// equal logits can never make two of them diverge.
pub fn argmax(xs: &[f32]) -> u32 {
    let mut best = 0usize;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best as u32
}

/// The best-scoring token of a non-empty `mask`, breaking ties toward the
/// **last** mask entry (the `Iterator::max_by` behaviour, which the
/// grammar-constrained decoders have always used).
pub fn masked_argmax(logits: &[f32], mask: &[u32]) -> u32 {
    mask.iter()
        .copied()
        .max_by(|&a, &b| {
            logits[a as usize]
                .partial_cmp(&logits[b as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        // hot-ok: documented precondition — every caller rejects an empty mask first
        .expect("non-empty mask")
}

/// Numerically stable log-softmax of a logits row.
///
/// An all-`-inf` row (every token masked out) yields all `-inf`
/// log-probabilities rather than the NaN vector the naive
/// `exp(-inf - -inf)` evaluation would produce.
pub fn log_softmax(xs: &[f32]) -> Vec<f32> {
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        return vec![f32::NEG_INFINITY; xs.len()];
    }
    let log_sum = xs.iter().map(|x| (x - max).exp()).sum::<f32>().ln() + max;
    xs.iter().map(|x| x - log_sum).collect()
}

/// Greedy-decodes every request in `srcs` on the engine with a
/// `capacity`-slot [`BatchedDecodeState`], returning per-request outputs
/// in input order.
///
/// Per request, the tokens are the same for every `capacity` and every
/// batch composition: the logits are bit-identical (see [`crate::batch`])
/// and [`argmax`] breaks ties the same way. Slots retire on EOS or
/// `max_len` and refill from the queue immediately (continuous
/// batching), so a long request never blocks admission of short ones.
pub fn batched_greedy_decode(
    model: &T5Model,
    ps: &ParamSet,
    srcs: &[Vec<u32>],
    eos: u32,
    max_len: usize,
    capacity: usize,
) -> Vec<Vec<u32>> {
    decode_on_engine(model, ps, srcs, eos, max_len, capacity, |_, logits, _| {
        Some(argmax(logits))
    })
}

/// Batched grammar-constrained greedy decoding.
///
/// `allowed(request, prefix)` maps each request's emitted prefix to its
/// allowed token ids; the next token is the [`masked_argmax`] over that
/// set (last-entry tie-breaking), and an empty set finishes the request
/// without emitting. The set is a fresh `Vec` per request per step, so
/// unlike a greedy tick a constrained one allocates.
pub fn batched_constrained_decode(
    model: &T5Model,
    ps: &ParamSet,
    srcs: &[Vec<u32>],
    eos: u32,
    max_len: usize,
    capacity: usize,
    mut allowed: impl FnMut(usize, &[u32]) -> Vec<u32>,
) -> Vec<Vec<u32>> {
    decode_on_engine(
        model,
        ps,
        srcs,
        eos,
        max_len,
        capacity,
        |req, logits, prefix| {
            let mask = allowed(req.id as usize, prefix);
            (!mask.is_empty()).then(|| masked_argmax(logits, &mask))
        },
    )
}

/// Submits every source at t = 0 (id = input index, no deadline, a queue
/// as long as the input) and ticks the engine with `pick` until it is
/// idle; returns the tokens in input order.
fn decode_on_engine(
    model: &T5Model,
    ps: &ParamSet,
    srcs: &[Vec<u32>],
    eos: u32,
    max_len: usize,
    capacity: usize,
    mut pick: impl FnMut(&Request<()>, &[f32], &[u32]) -> Option<u32>,
) -> Vec<Vec<u32>> {
    if srcs.is_empty() || max_len == 0 {
        return vec![Vec::new(); srcs.len()];
    }
    // The virtual clock's costs never reach the tokens.
    let cfg = EngineConfig::new(srcs.len(), max_len, eos);
    let mut engine = Engine::new(BatchedDecodeState::new(model, ps, capacity), cfg);
    for (id, src) in srcs.iter().enumerate() {
        engine.submit(Request::new(id as u64, (), src.clone()));
    }
    while !engine.is_idle() {
        if let Err(e) = engine.tick_with(&mut pick) {
            panic!("decode engine invariant violated: {e}");
        }
    }
    engine
        .into_report()
        .responses
        .into_iter()
        .map(|r| r.tokens)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted decoder: at step `t` it returns logits favouring
    /// `script[t]`.
    struct Scripted {
        script: Vec<u32>,
        t: usize,
        vocab: usize,
    }

    impl StepDecoder for Scripted {
        fn step(&mut self, _token: u32) -> Vec<f32> {
            let mut logits = vec![0.0; self.vocab];
            let tok = self.script.get(self.t).copied().unwrap_or(1);
            logits[tok as usize] = 5.0;
            self.t += 1;
            logits
        }
    }

    #[test]
    fn greedy_follows_argmax_until_eos() {
        let mut s = Scripted {
            script: vec![4, 5, 6, 1],
            t: 0,
            vocab: 8,
        };
        assert_eq!(greedy_decode(&mut s, 1, 10), vec![4, 5, 6]);
    }

    #[test]
    fn greedy_respects_max_len() {
        let mut s = Scripted {
            script: vec![4; 100],
            t: 0,
            vocab: 8,
        };
        assert_eq!(greedy_decode(&mut s, 1, 3).len(), 3);
    }

    fn tiny_t5() -> (T5Model, ParamSet) {
        let mut ps = ParamSet::new();
        let mut rng = tensor::XorShift::new(7);
        let cfg = crate::t5::T5Config {
            vocab: 8,
            d_model: 8,
            d_ff: 16,
            heads: 2,
            enc_layers: 1,
            dec_layers: 1,
            dropout: 0.0,
            positional: crate::t5::Positional::RelativeBias,
        };
        let m = T5Model::new(&mut ps, "m", cfg, &mut rng);
        (m, ps)
    }

    #[test]
    fn constrained_decoding_overrides_argmax() {
        // Whatever the model prefers first, a one-token mask wins.
        let (m, ps) = tiny_t5();
        let srcs = vec![vec![3, 4, 1]];
        let wanted = batched_greedy_decode(&m, &ps, &srcs, 1, 1, 1)[0]
            .first()
            .copied();
        let forced = if wanted == Some(5) { 6 } else { 5 };
        let out = batched_constrained_decode(&m, &ps, &srcs, 1, 10, 1, |_, prefix| {
            if prefix.is_empty() {
                vec![forced]
            } else {
                vec![1]
            }
        });
        assert_eq!(out, vec![vec![forced]]);
    }

    #[test]
    fn constrained_stops_on_empty_mask() {
        let (m, ps) = tiny_t5();
        let out = batched_constrained_decode(&m, &ps, &[vec![3, 4, 1]], 1, 10, 1, |_, prefix| {
            if prefix.len() < 2 {
                vec![4]
            } else {
                vec![]
            }
        });
        assert_eq!(out, vec![vec![4, 4]]);
    }

    #[test]
    fn argmax_breaks_ties_toward_lowest_index() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[5.0, 5.0, 5.0]), 0);
        // NaN never wins (`x > best` is false), and never dethrones a max.
        assert_eq!(argmax(&[1.0, f32::NAN, 2.0]), 2);
    }

    #[test]
    fn masked_argmax_breaks_ties_toward_last_entry() {
        let logits = [0.0, 7.0, 7.0, 1.0];
        assert_eq!(masked_argmax(&logits, &[1, 2]), 2);
        assert_eq!(masked_argmax(&logits, &[2, 1]), 1);
        assert_eq!(masked_argmax(&logits, &[3]), 3);
    }

    #[test]
    fn log_softmax_handles_all_neg_inf_row() {
        let out = log_softmax(&[f32::NEG_INFINITY; 4]);
        assert_eq!(out.len(), 4);
        assert!(
            out.iter().all(|v| *v == f32::NEG_INFINITY),
            "all-masked row must stay -inf, got {out:?}"
        );
    }

    #[test]
    fn log_softmax_normalizes_finite_rows() {
        let out = log_softmax(&[1.0, 2.0, 3.0]);
        let total: f32 = out.iter().map(|v| v.exp()).sum();
        assert!((total - 1.0).abs() < 1e-5, "probs sum to {total}");
        // A partially masked row stays finite on the unmasked entries.
        let masked = log_softmax(&[f32::NEG_INFINITY, 0.0, f32::NEG_INFINITY]);
        assert_eq!(masked[0], f32::NEG_INFINITY);
        assert!((masked[1] - 0.0).abs() < 1e-6);
    }
}
