//! Integration tests: decoding strategies on the batched engine, against
//! actually-trained models and the tape oracle, plus pinned beam-search
//! outputs.

mod common;

use common::{tape_greedy, tape_score};
use nn::decode::{batched_greedy_decode, beam_decode};
use nn::optim::AdamW;
use nn::param::ParamSet;
use nn::t5::Positional::{self, RelativeBias as Rel, Sinusoidal as Sin};
use nn::t5::{T5Config, T5Model};
use tensor::{Graph, Tensor, XorShift};

const EOS: u32 = 1;

/// Trains a tiny model to reverse 3-token sequences.
fn trained_reverser() -> (T5Model, ParamSet) {
    let mut ps = ParamSet::new();
    let mut rng = XorShift::new(99);
    let cfg = T5Config {
        vocab: 24,
        d_model: 24,
        d_ff: 48,
        heads: 2,
        enc_layers: 1,
        dec_layers: 1,
        dropout: 0.0,
        positional: Rel,
    };
    let model = T5Model::new(&mut ps, "rev", cfg, &mut rng);
    let mut opt = AdamW::default();
    opt.weight_decay = 0.0;
    let data: Vec<(Vec<u32>, Vec<u32>)> = (0..6)
        .map(|i| {
            let (a, b, c) = (3 + i, 10 + i, 17 + i);
            (vec![a, b, c, 1], vec![c, b, a, 1])
        })
        .collect();
    for step in 0..500 {
        let (s, t) = &data[step % data.len()];
        let mut g = Graph::new();
        let loss = model.loss(&mut g, &ps, s, t, 0.0);
        g.backward(loss);
        ps.absorb_grads(&g);
        opt.step(&mut ps, 5e-3, 1.0);
    }
    (model, ps)
}

/// Greedy decoding of one source on a one-slot engine.
fn engine_greedy(model: &T5Model, ps: &ParamSet, src: &[u32], max_len: usize) -> Vec<u32> {
    batched_greedy_decode(model, ps, &[src.to_vec()], EOS, max_len, 1)
        .pop()
        .unwrap()
}

#[test]
fn greedy_reverses_trained_sequences() {
    let (model, ps) = trained_reverser();
    let mut correct = 0;
    for i in 0..6u32 {
        let src = vec![3 + i, 10 + i, 17 + i, 1];
        let want = vec![17 + i, 10 + i, 3 + i];
        let got = engine_greedy(&model, &ps, &src, 8);
        assert_eq!(got, tape_greedy(&model, &ps, &src, EOS, 8), "source {i}");
        if got == want {
            correct += 1;
        }
    }
    assert!(correct >= 4, "only {correct}/6 training sequences reversed");
}

#[test]
fn beam_is_at_least_as_likely_as_greedy() {
    let (model, ps) = trained_reverser();
    let src = vec![4u32, 11, 18, 1];
    let greedy = engine_greedy(&model, &ps, &src, 8);
    let beam = beam_decode(&model, &ps, &src, EOS, 8, 3);
    if !greedy.is_empty() && !beam.is_empty() {
        let (b, g) = (
            tape_score(&model, &ps, &src, &beam),
            tape_score(&model, &ps, &src, &greedy),
        );
        assert!(b >= g - 1e-4, "beam found a worse hypothesis: {b} vs {g}");
    }
}

#[test]
fn cached_decode_is_deterministic() {
    let (model, ps) = trained_reverser();
    let src = vec![5u32, 12, 19, 1];
    let a = engine_greedy(&model, &ps, &src, 8);
    let b = engine_greedy(&model, &ps, &src, 8);
    assert_eq!(a, b);
    assert_eq!(a, tape_greedy(&model, &ps, &src, EOS, 8));
}

/// The tiny random model the beam pins were recorded on.
fn random_model(seed: u64, positional: Positional, lora: bool) -> (T5Model, ParamSet) {
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
    let mut m = T5Model::new(&mut ps, "m", cfg, &mut rng);
    if lora {
        m.lora_adapt(&mut ps, 2, 8.0, &mut rng);
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

/// One pinned beam-search output: `beam` at `width`, `narrow` at width 1.
struct Pin {
    positional: Positional,
    lora: bool,
    seed: u64,
    src: &'static [u32],
    max_len: usize,
    width: usize,
    beam: &'static [u32],
    narrow: &'static [u32],
}

/// Outputs of the earlier beam search, which stepped a cloned sequential
/// decoder state per hypothesis, recorded before that decoder was
/// deleted. Every pin is a case where a wider beam changes the answer.
const PINS: &[Pin] = &[
    Pin {
        positional: Rel,
        lora: false,
        seed: 41,
        src: &[21, 11, 10, 1],
        max_len: 12,
        width: 4,
        beam: &[17, 3, 9, 3, 5, 3, 5, 3, 3, 3, 3, 3],
        narrow: &[15; 12],
    },
    Pin {
        positional: Rel,
        lora: false,
        seed: 44,
        src: &[21, 2, 10, 1],
        max_len: 12,
        width: 2,
        beam: &[18, 18, 18, 18, 18, 18, 18, 18, 18, 20, 17, 20],
        narrow: &[18, 18, 18, 18, 18, 20, 20, 20, 20, 20, 20, 20],
    },
    Pin {
        positional: Rel,
        lora: true,
        seed: 40,
        src: &[14, 18, 10, 20, 1],
        max_len: 4,
        width: 2,
        beam: &[7, 11, 21, 7],
        narrow: &[13, 13, 13, 13],
    },
    Pin {
        positional: Rel,
        lora: true,
        seed: 42,
        src: &[3, 12, 4, 15, 21, 8, 1],
        max_len: 12,
        width: 3,
        beam: &[6, 21, 17, 17, 17, 17, 17, 17, 17, 17, 17, 17],
        narrow: &[17; 12],
    },
    Pin {
        positional: Sin,
        lora: false,
        seed: 42,
        src: &[15, 5, 1],
        max_len: 12,
        width: 4,
        beam: &[9, 9, 7, 7, 7, 7, 7, 7, 0, 0, 0, 0],
        narrow: &[9, 9, 0, 7, 7, 7, 7, 7, 0, 0, 0, 0],
    },
    Pin {
        positional: Sin,
        lora: true,
        seed: 40,
        src: &[16, 11, 19, 7, 10, 1],
        max_len: 12,
        width: 3,
        beam: &[16, 16, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10],
        narrow: &[16, 16, 16, 10, 10, 10, 10, 10, 10, 10, 10, 10],
    },
    Pin {
        // Width 1 emits EOS first; the wider beam keeps a longer answer.
        positional: Sin,
        lora: false,
        seed: 44,
        src: &[6, 19, 8, 3, 8, 1],
        max_len: 4,
        width: 4,
        beam: &[9, 9, 9, 9],
        narrow: &[],
    },
];

#[test]
fn beam_reproduces_pinned_outputs() {
    for (i, pin) in PINS.iter().enumerate() {
        let (m, ps) = random_model(pin.seed, pin.positional, pin.lora);
        assert_ne!(pin.beam, pin.narrow, "pin {i} must show the wider beam");
        let beam = beam_decode(&m, &ps, pin.src, EOS, pin.max_len, pin.width);
        assert_eq!(beam, pin.beam, "pin {i}: width {}", pin.width);
        let narrow = beam_decode(&m, &ps, pin.src, EOS, pin.max_len, 1);
        assert_eq!(narrow, pin.narrow, "pin {i}: width 1");
    }
}

#[test]
fn width_one_beam_equals_tape_greedy() {
    let mut rng = XorShift::new(0xbea7);
    for positional in [Rel, Sin] {
        for lora in [false, true] {
            for seed in 40..43 {
                let (m, ps) = random_model(seed, positional, lora);
                for _ in 0..4 {
                    let len = 2 + (rng.next_u64() % 5) as usize;
                    let src: Vec<u32> = (0..len)
                        .map(|_| 2 + (rng.next_u64() % 21) as u32)
                        .chain([EOS])
                        .collect();
                    for max_len in [0, 1, 4, 12] {
                        assert_eq!(
                            beam_decode(&m, &ps, &src, EOS, max_len, 1),
                            tape_greedy(&m, &ps, &src, EOS, max_len),
                            "{positional:?} lora={lora} seed={seed} src={src:?} max_len={max_len}"
                        );
                    }
                }
            }
        }
    }
}
