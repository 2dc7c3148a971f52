//! The tape oracle: the packed decode step against the teacher-forced
//! tape forward, bit for bit at every position.
//!
//! `BatchedDecodeState` is the only incremental T5 decoder, and every
//! other decode suite uses the tape forward (`common::forced_logits`) as
//! its reference. This suite is what makes that sound: across both
//! positional modes, LoRA adapters with non-zero `lora_b`, tiny and Base
//! shapes, and ragged sources (3–41 tokens) admitted at staggered steps
//! so one packed step mixes decode positions, every logit row the engine
//! emits must equal the tape's row for the same prefix in every bit. A
//! second sweep covers the key layouts' edges: 1- and 128-token sources,
//! a decode past 96 self-attention rows, and self keys that outgrow their
//! reservation mid-request.

mod common;

use common::forced_logits;
use nn::batch::BatchedDecodeState;
use nn::param::ParamSet;
use nn::t5::{Positional, T5Config, T5Model, DECODER_START};
use tensor::{Tensor, XorShift};

const EOS: u32 = 1;

#[derive(Debug, Clone, Copy)]
struct Case {
    positional: Positional,
    lora: bool,
    base: bool,
    seed: u64,
}

fn all_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for positional in [Positional::RelativeBias, Positional::Sinusoidal] {
        for lora in [false, true] {
            for base in [false, true] {
                for seed in 0..4 {
                    cases.push(Case {
                        positional,
                        lora,
                        base,
                        seed,
                    });
                }
            }
        }
    }
    cases
}

fn model(case: Case) -> (T5Model, ParamSet) {
    let mut cfg = if case.base {
        T5Config::base(97)
    } else {
        T5Config {
            vocab: 23,
            d_model: 16,
            d_ff: 32,
            heads: 2,
            enc_layers: 1,
            dec_layers: 2,
            dropout: 0.0,
            positional: case.positional,
        }
    };
    cfg.positional = case.positional;
    cfg.dropout = 0.0;
    let mut ps = ParamSet::new();
    let mut rng = XorShift::new(0x7a9e + case.seed);
    let mut m = T5Model::new(&mut ps, "m", cfg, &mut rng);
    if case.lora {
        m.lora_adapt(&mut ps, 2, 8.0, &mut rng);
        // B starts at zero; random weights make every adapter contribute.
        for name in ps.names() {
            if name.ends_with(".lora_b") {
                let id = ps.by_name(&name).unwrap();
                let shape = ps.value(id).shape().to_vec();
                *ps.value_mut(id) = Tensor::randn(shape, 0.5, &mut rng);
            }
        }
    }
    (m, ps)
}

/// One request: a ragged source and the decoder input forced through it.
struct Request {
    src: Vec<u32>,
    dec_input: Vec<u32>,
}

/// Four requests: sources of 3, 41 and two random lengths in between;
/// 24–40 decode steps each over random (non-EOS) tokens.
fn requests(case: Case, vocab: usize) -> Vec<Request> {
    let mut rng = XorShift::new(0x5eed ^ (case.seed * 131));
    let token = |rng: &mut XorShift| 2 + (rng.next_u64() % (vocab as u64 - 2)) as u32;
    (0..4)
        .map(|r| {
            let len = match r {
                0 => 3,
                1 => 41,
                _ => 4 + (rng.next_u64() % 37) as usize,
            };
            let mut src: Vec<u32> = (0..len - 1).map(|_| token(&mut rng)).collect();
            src.push(EOS);
            let steps = 24 + (rng.next_u64() % 17) as usize;
            let mut dec_input = vec![DECODER_START];
            dec_input.extend((1..steps).map(|_| token(&mut rng)));
            Request { src, dec_input }
        })
        .collect()
}

fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: row width");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what} logit {i}: {a} vs {b}");
    }
}

/// Drives `reqs` through one engine — request r joins at step 3r and
/// leaves after its own step count, so packed steps mix positions and
/// shrink as requests finish — with `reserve` self-attention rows
/// reserved per slot (`None`: no reservation), and checks every logit row
/// against the tape's row for the same prefix.
fn assert_engine_matches_tape(
    m: &T5Model,
    ps: &ParamSet,
    reqs: &[Request],
    reserve: Option<usize>,
    what: &str,
) {
    let tape: Vec<Vec<Vec<f32>>> = reqs
        .iter()
        .map(|r| forced_logits(m, ps, &r.src, &r.dec_input))
        .collect();
    let mut engine = BatchedDecodeState::new(m, ps, reqs.len());
    if let Some(steps) = reserve {
        engine.reserve_steps(steps);
    }
    let mut slots: Vec<Option<usize>> = vec![None; reqs.len()];
    let mut pos = vec![0usize; reqs.len()];
    let mut rows = Vec::new();
    for step in 0.. {
        for (r, slot) in slots.iter_mut().enumerate() {
            if step == 3 * r {
                *slot = engine.admit(&reqs[r].src);
            }
        }
        let live: Vec<usize> = (0..reqs.len())
            .filter(|&r| slots[r].is_some() && pos[r] < reqs[r].dec_input.len())
            .collect();
        if live.is_empty() {
            break;
        }
        let active: Vec<(usize, u32)> = live
            .iter()
            .map(|&r| (slots[r].unwrap(), reqs[r].dec_input[pos[r]]))
            .collect();
        engine.step_packed_into(&active, &mut rows);
        for (&r, row) in live.iter().zip(&rows) {
            assert_bits(
                row,
                &tape[r][pos[r]],
                &format!("{what} request {r} position {}", pos[r]),
            );
            pos[r] += 1;
            if pos[r] == reqs[r].dec_input.len() {
                engine.retire(slots[r].unwrap());
            }
        }
    }
    assert!(
        reqs.iter().zip(&pos).all(|(r, &p)| p == r.dec_input.len()),
        "{what}: every request decodes to the end"
    );
}

#[test]
fn packed_step_matches_tape_forward_bitwise_at_every_position() {
    for case in all_cases() {
        let (m, ps) = model(case);
        let reqs = requests(case, m.cfg.vocab);
        assert_engine_matches_tape(&m, &ps, &reqs, None, &format!("{case:?}"));
    }
}

/// The edges of the decoder's key layouts: a 1-token and a 128-token
/// source (the cross keys' one- and many-window extremes) and a decode
/// that runs past 96 self-attention rows, with no reservation and with
/// one far below the decode length, so the transposed self keys are
/// re-laid out mid-request (16 → 32 → 64 → 128 → 256 columns).
#[test]
fn edge_lengths_and_key_regrowth_match_tape_forward_bitwise() {
    for case in all_cases().into_iter().filter(|c| c.seed == 0) {
        let (m, ps) = model(case);
        let mut rng = XorShift::new(0xed6e ^ case.seed);
        let vocab = m.cfg.vocab as u64;
        let mut tokens = |n: usize| -> Vec<u32> {
            (0..n)
                .map(|_| 2 + (rng.next_u64() % (vocab - 2)) as u32)
                .collect()
        };
        let request = |mut src: Vec<u32>, dec: Vec<u32>| {
            src.push(EOS);
            let dec_input = std::iter::once(DECODER_START).chain(dec).collect();
            Request { src, dec_input }
        };
        let reqs = [
            request(Vec::new(), tokens(20)),
            request(tokens(127), tokens(40)),
            request(tokens(9), tokens(129)),
        ];
        for reserve in [None, Some(16)] {
            let what = format!("{case:?} reserve {reserve:?}");
            assert_engine_matches_tape(&m, &ps, &reqs, reserve, &what);
        }
    }
}

#[test]
fn forced_rows_do_not_depend_on_how_far_the_input_runs() {
    // The oracle's premise: row i of a forced pass is the same bits
    // whether the forced input stops at i or runs on past it.
    for case in all_cases().into_iter().step_by(3) {
        let (m, ps) = model(case);
        let req = &requests(case, m.cfg.vocab)[2];
        let full = forced_logits(&m, &ps, &req.src, &req.dec_input);
        for i in [0, 1, req.dec_input.len() / 2] {
            let short = forced_logits(&m, &ps, &req.src, &req.dec_input[..=i]);
            assert_bits(&short[i], &full[i], &format!("{case:?} row {i}"));
        }
    }
}
