//! T5-style encoder–decoder sequence model.
//!
//! Architecture follows the T5 family the paper builds on: pre-norm
//! residual blocks with RMS normalization, ReLU feed-forward, relative-
//! position attention bias shared across a stack, tied input/output
//! embeddings, and `<pad>` as the decoder start token. A `Sinusoidal`
//! positional mode turns the same code into the "vanilla Transformer"
//! baseline of the paper's tables.
//!
//! This module holds the model and its tape forward: [`T5Model::encode`],
//! [`T5Model::decode_all`] and [`T5Model::logits`], which training runs
//! teacher-forced through [`T5Model::loss`]. Inference runs the same
//! weights through the packed incremental decoder in [`crate::batch`],
//! and the decode test suites check its logits against this forward bit
//! for bit.

use tensor::{Graph, Tensor, Var, XorShift};

use crate::layers::{causal_mask, Embedding, FeedForward, MultiHeadAttention, RelPosBias, RmsNorm};
use crate::param::{ParamId, ParamSet};

/// Positional information scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Positional {
    /// T5 relative-position buckets (the DataVisT5 family).
    RelativeBias,
    /// Fixed sinusoidal absolute encodings (the vanilla Transformer
    /// baseline).
    Sinusoidal,
}

/// Model hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct T5Config {
    pub vocab: usize,
    pub d_model: usize,
    pub d_ff: usize,
    pub heads: usize,
    pub enc_layers: usize,
    pub dec_layers: usize,
    pub dropout: f32,
    pub positional: Positional,
}

impl T5Config {
    /// The "base"-scale preset standing in for the 220M checkpoint.
    pub fn base(vocab: usize) -> Self {
        Self {
            vocab,
            d_model: 64,
            d_ff: 128,
            heads: 4,
            enc_layers: 2,
            dec_layers: 2,
            dropout: 0.1,
            positional: Positional::RelativeBias,
        }
    }

    /// The "large"-scale preset standing in for the 770M checkpoint.
    pub fn large(vocab: usize) -> Self {
        Self {
            vocab,
            d_model: 96,
            d_ff: 192,
            heads: 6,
            enc_layers: 3,
            dec_layers: 3,
            dropout: 0.1,
            positional: Positional::RelativeBias,
        }
    }
}

#[derive(Debug, Clone)]
struct EncBlock {
    norm1: RmsNorm,
    attn: MultiHeadAttention,
    norm2: RmsNorm,
    ff: FeedForward,
}

#[derive(Debug, Clone)]
pub(crate) struct DecBlock {
    pub(crate) norm1: RmsNorm,
    pub(crate) self_attn: MultiHeadAttention,
    pub(crate) norm2: RmsNorm,
    pub(crate) cross_attn: MultiHeadAttention,
    pub(crate) norm3: RmsNorm,
    pub(crate) ff: FeedForward,
}

/// The encoder–decoder model. Parameters live in the [`ParamSet`] passed at
/// construction; the struct holds only ids and hyperparameters.
#[derive(Debug, Clone)]
pub struct T5Model {
    pub cfg: T5Config,
    pub(crate) emb: Embedding,
    enc_bias: Option<RelPosBias>,
    pub(crate) dec_bias: Option<RelPosBias>,
    enc: Vec<EncBlock>,
    pub(crate) dec: Vec<DecBlock>,
    enc_final: RmsNorm,
    pub(crate) dec_final: RmsNorm,
}

/// Decoder start token (T5 uses the pad id).
pub const DECODER_START: u32 = 0;

impl T5Model {
    /// Builds a model, registering parameters under `prefix.*`.
    pub fn new(ps: &mut ParamSet, prefix: &str, cfg: T5Config, rng: &mut XorShift) -> Self {
        let emb = Embedding::new(ps, &format!("{prefix}.emb"), cfg.vocab, cfg.d_model, rng);
        let (enc_bias, dec_bias) = match cfg.positional {
            Positional::RelativeBias => (
                Some(RelPosBias::new(
                    ps,
                    &format!("{prefix}.enc_bias"),
                    cfg.heads,
                    true,
                    rng,
                )),
                Some(RelPosBias::new(
                    ps,
                    &format!("{prefix}.dec_bias"),
                    cfg.heads,
                    false,
                    rng,
                )),
            ),
            Positional::Sinusoidal => (None, None),
        };
        let enc = (0..cfg.enc_layers)
            .map(|i| {
                let n = format!("{prefix}.enc{i}");
                EncBlock {
                    norm1: RmsNorm::new(ps, &format!("{n}.norm1"), cfg.d_model),
                    attn: MultiHeadAttention::new(
                        ps,
                        &format!("{n}.attn"),
                        cfg.d_model,
                        cfg.heads,
                        rng,
                    ),
                    norm2: RmsNorm::new(ps, &format!("{n}.norm2"), cfg.d_model),
                    ff: FeedForward::new(ps, &format!("{n}.ff"), cfg.d_model, cfg.d_ff, rng),
                }
            })
            .collect();
        let dec = (0..cfg.dec_layers)
            .map(|i| {
                let n = format!("{prefix}.dec{i}");
                DecBlock {
                    norm1: RmsNorm::new(ps, &format!("{n}.norm1"), cfg.d_model),
                    self_attn: MultiHeadAttention::new(
                        ps,
                        &format!("{n}.self"),
                        cfg.d_model,
                        cfg.heads,
                        rng,
                    ),
                    norm2: RmsNorm::new(ps, &format!("{n}.norm2"), cfg.d_model),
                    cross_attn: MultiHeadAttention::new(
                        ps,
                        &format!("{n}.cross"),
                        cfg.d_model,
                        cfg.heads,
                        rng,
                    ),
                    norm3: RmsNorm::new(ps, &format!("{n}.norm3"), cfg.d_model),
                    ff: FeedForward::new(ps, &format!("{n}.ff"), cfg.d_model, cfg.d_ff, rng),
                }
            })
            .collect();
        Self {
            emb,
            enc_bias,
            dec_bias,
            enc,
            dec,
            enc_final: RmsNorm::new(ps, &format!("{prefix}.enc_final"), cfg.d_model),
            dec_final: RmsNorm::new(ps, &format!("{prefix}.dec_final"), cfg.d_model),
            cfg,
        }
    }

    /// The embedding table id (exposed for weight-tying inspection).
    pub fn embedding_table(&self) -> ParamId {
        self.emb.table
    }

    /// Converts the model into a LoRA-tuned variant: every existing
    /// parameter is frozen and rank-`rank` adapters are attached to all
    /// attention query/value projections (the standard LoRA recipe).
    pub fn lora_adapt(&mut self, ps: &mut ParamSet, rank: usize, alpha: f32, rng: &mut XorShift) {
        ps.freeze_all();
        for (i, block) in self.enc.iter_mut().enumerate() {
            block
                .attn
                .wq
                .attach_lora(ps, &format!("lora.enc{i}.q"), rank, alpha, rng);
            block
                .attn
                .wv
                .attach_lora(ps, &format!("lora.enc{i}.v"), rank, alpha, rng);
        }
        for (i, block) in self.dec.iter_mut().enumerate() {
            block
                .self_attn
                .wq
                .attach_lora(ps, &format!("lora.dec{i}.self_q"), rank, alpha, rng);
            block
                .self_attn
                .wv
                .attach_lora(ps, &format!("lora.dec{i}.self_v"), rank, alpha, rng);
            block
                .cross_attn
                .wq
                .attach_lora(ps, &format!("lora.dec{i}.cross_q"), rank, alpha, rng);
            block
                .cross_attn
                .wv
                .attach_lora(ps, &format!("lora.dec{i}.cross_v"), rank, alpha, rng);
        }
    }

    pub(crate) fn sinusoidal(&self, len: usize, offset: usize) -> Tensor {
        let d = self.cfg.d_model;
        let mut t = Tensor::zeros(vec![len, d]);
        for pos in 0..len {
            let p = (pos + offset) as f32;
            for i in 0..d / 2 {
                let freq = 1.0 / 10_000f32.powf(2.0 * i as f32 / d as f32);
                t.data_mut()[pos * d + 2 * i] = (p * freq).sin();
                t.data_mut()[pos * d + 2 * i + 1] = (p * freq).cos();
            }
        }
        t
    }

    fn embed(&self, g: &mut Graph, ps: &ParamSet, ids: &[usize]) -> Var {
        let x = self.emb.forward(g, ps, ids);
        match self.cfg.positional {
            Positional::RelativeBias => x,
            Positional::Sinusoidal => {
                let pos = g.leaf(self.sinusoidal(ids.len(), 0), false);
                g.add(x, pos)
            }
        }
    }

    fn maybe_dropout(&self, g: &mut Graph, x: Var, train: bool) -> Var {
        if train && self.cfg.dropout > 0.0 {
            g.dropout(x, self.cfg.dropout)
        } else {
            x
        }
    }

    /// Runs the encoder over source ids, returning `[ts, d]` states.
    pub fn encode(&self, g: &mut Graph, ps: &ParamSet, src: &[usize], train: bool) -> Var {
        let ts = src.len();
        let mut x = self.embed(g, ps, src);
        x = self.maybe_dropout(g, x, train);
        let bias = self.enc_bias.as_ref().map(|b| b.bias(g, ps, ts, ts, 0));
        for block in &self.enc {
            let normed = block.norm1.forward(g, ps, x);
            let attn = block.attn.forward(g, ps, normed, normed, bias);
            let attn = self.maybe_dropout(g, attn, train);
            x = g.add(x, attn);
            let normed = block.norm2.forward(g, ps, x);
            let ff = block.ff.forward(g, ps, normed);
            let ff = self.maybe_dropout(g, ff, train);
            x = g.add(x, ff);
        }
        self.enc_final.forward(g, ps, x)
    }

    /// Full-sequence decoder pass (teacher forcing), returning `[tt, d]`.
    pub fn decode_all(
        &self,
        g: &mut Graph,
        ps: &ParamSet,
        enc_out: Var,
        dec_input: &[usize],
        train: bool,
    ) -> Var {
        let tt = dec_input.len();
        let mut x = self.embed(g, ps, dec_input);
        x = self.maybe_dropout(g, x, train);
        let mask = g.leaf(causal_mask(self.cfg.heads, tt, tt, 0), false);
        let self_bias = match self.dec_bias.as_ref() {
            Some(b) => {
                let rel = b.bias(g, ps, tt, tt, 0);
                g.add(rel, mask)
            }
            None => mask,
        };
        for block in &self.dec {
            let normed = block.norm1.forward(g, ps, x);
            let attn = block
                .self_attn
                .forward(g, ps, normed, normed, Some(self_bias));
            let attn = self.maybe_dropout(g, attn, train);
            x = g.add(x, attn);
            let normed = block.norm2.forward(g, ps, x);
            let cross = block.cross_attn.forward(g, ps, normed, enc_out, None);
            let cross = self.maybe_dropout(g, cross, train);
            x = g.add(x, cross);
            let normed = block.norm3.forward(g, ps, x);
            let ff = block.ff.forward(g, ps, normed);
            let ff = self.maybe_dropout(g, ff, train);
            x = g.add(x, ff);
        }
        self.dec_final.forward(g, ps, x)
    }

    /// Projects decoder states to vocabulary logits via the tied embedding.
    pub fn logits(&self, g: &mut Graph, ps: &ParamSet, dec_out: Var) -> Var {
        let table = ps.bind(g, self.emb.table);
        let raw = g.matmul_nt(dec_out, table);
        g.scale(raw, 1.0 / (self.cfg.d_model as f32).sqrt())
    }

    /// Teacher-forced cross-entropy loss of `tgt` given `src`.
    ///
    /// The decoder input is `tgt` shifted right with [`DECODER_START`]; the
    /// targets are `tgt` itself (which should end with the tokenizer's EOS).
    pub fn loss(
        &self,
        g: &mut Graph,
        ps: &ParamSet,
        src: &[u32],
        tgt: &[u32],
        smoothing: f32,
    ) -> Var {
        assert!(!tgt.is_empty(), "empty target sequence");
        let src: Vec<usize> = src.iter().map(|&t| t as usize).collect();
        let mut dec_input: Vec<usize> = Vec::with_capacity(tgt.len());
        dec_input.push(DECODER_START as usize);
        dec_input.extend(tgt[..tgt.len() - 1].iter().map(|&t| t as usize));
        let targets: Vec<usize> = tgt.iter().map(|&t| t as usize).collect();

        let enc_out = self.encode(g, ps, &src, true);
        let dec_out = self.decode_all(g, ps, enc_out, &dec_input, true);
        let logits = self.logits(g, ps, dec_out);
        g.cross_entropy(logits, &targets, smoothing)
    }

    /// Evaluation loss (dropout disabled).
    pub fn eval_loss(&self, ps: &ParamSet, src: &[u32], tgt: &[u32]) -> f32 {
        let mut g = Graph::new();
        let src: Vec<usize> = src.iter().map(|&t| t as usize).collect();
        let mut dec_input: Vec<usize> = vec![DECODER_START as usize];
        dec_input.extend(tgt[..tgt.len() - 1].iter().map(|&t| t as usize));
        let targets: Vec<usize> = tgt.iter().map(|&t| t as usize).collect();
        let enc_out = self.encode(&mut g, ps, &src, false);
        let dec_out = self.decode_all(&mut g, ps, enc_out, &dec_input, false);
        let logits = self.logits(&mut g, ps, dec_out);
        let l = g.cross_entropy(logits, &targets, 0.0);
        g.value(l).data()[0]
    }
}

/// Teacher-forced logit rows of `dec_input` given `src`: row `i` is the
/// prediction after `dec_input[..=i]`, the reference the unit tests hold
/// the inference engine to.
#[cfg(test)]
pub(crate) fn forced_rows(
    m: &T5Model,
    ps: &ParamSet,
    src: &[u32],
    dec_input: &[u32],
) -> Vec<Vec<f32>> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchedDecodeState;

    fn tiny_cfg(positional: Positional) -> T5Config {
        T5Config {
            vocab: 20,
            d_model: 16,
            d_ff: 32,
            heads: 2,
            enc_layers: 2,
            dec_layers: 2,
            dropout: 0.0,
            positional,
        }
    }

    fn build(positional: Positional) -> (T5Model, ParamSet) {
        let mut ps = ParamSet::new();
        let mut rng = XorShift::new(7);
        let m = T5Model::new(&mut ps, "m", tiny_cfg(positional), &mut rng);
        (m, ps)
    }

    #[test]
    fn loss_is_finite_and_positive() {
        let (m, ps) = build(Positional::RelativeBias);
        let mut g = Graph::new();
        let loss = m.loss(&mut g, &ps, &[3, 4, 5, 1], &[6, 7, 1], 0.0);
        let v = g.value(loss).data()[0];
        assert!(v.is_finite() && v > 0.0, "loss {v}");
    }

    #[test]
    fn loss_backward_reaches_embeddings() {
        let (m, mut ps) = build(Positional::RelativeBias);
        let mut g = Graph::new();
        let loss = m.loss(&mut g, &ps, &[3, 4, 1], &[5, 1], 0.0);
        g.backward(loss);
        ps.absorb_grads(&g);
        let table_grad = &ps;
        let id = m.embedding_table();
        // The embedding grad should be non-zero (tied head guarantees it).
        let norm: f32 = table_grad.value(id).l2_norm();
        assert!(norm > 0.0);
        // More importantly, at least one grad is non-zero.
        assert!(ps.grad_norm() > 0.0);
    }

    /// Steps a one-slot engine through `tgt_prefix` and checks every
    /// logit row against the full forward, bit for bit.
    fn assert_incremental_matches(m: &T5Model, ps: &ParamSet, src: &[u32], tgt_prefix: &[u32]) {
        let full = forced_rows(m, ps, src, tgt_prefix);
        let mut engine = BatchedDecodeState::new(m, ps, 1);
        let slot = engine.admit(src).unwrap();
        let mut rows = Vec::new();
        for (i, &tok) in tgt_prefix.iter().enumerate() {
            engine.step_packed_into(&[(slot, tok)], &mut rows);
            for (a, b) in rows[0].iter().zip(full[i].iter()) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{:?} pos {i}: incremental {a} vs full {b}",
                    m.cfg.positional
                );
            }
        }
    }

    #[test]
    fn incremental_decode_matches_full_forward() {
        for positional in [Positional::RelativeBias, Positional::Sinusoidal] {
            let (m, ps) = build(positional);
            assert_incremental_matches(&m, &ps, &[3, 4, 5, 6, 1], &[DECODER_START, 7, 8, 9]);
        }
    }

    #[test]
    fn incremental_decode_matches_full_forward_with_lora() {
        // Adapt the model, then give the adapters non-zero weights (B is
        // zero-initialized, so an untouched adapter would be a no-op and
        // the test would not exercise the LoRA branch of the decode path).
        let (mut m, mut ps) = build(Positional::RelativeBias);
        let mut rng = XorShift::new(99);
        m.lora_adapt(&mut ps, 2, 8.0, &mut rng);
        for name in ps.names() {
            if name.ends_with(".lora_b") {
                let id = ps.by_name(&name).unwrap();
                let shape = ps.value(id).shape().to_vec();
                *ps.value_mut(id) = Tensor::randn(shape, 0.5, &mut rng);
            }
        }

        let src = [3u32, 4, 5, 6, 1];
        let tgt_prefix = [DECODER_START, 7, 8, 9];
        // The adapters must actually change the logits...
        let (plain, plain_ps) = build(Positional::RelativeBias);
        let delta = forced_rows(&m, &ps, &src, &tgt_prefix)
            .concat()
            .iter()
            .zip(forced_rows(&plain, &plain_ps, &src, &tgt_prefix).concat())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(delta > 1e-4, "LoRA perturbation had no effect");
        // ...and the incremental decode must match the full forward.
        assert_incremental_matches(&m, &ps, &src, &tgt_prefix);
    }

    #[test]
    fn sinusoidal_positions_distinguish_order() {
        let (m, ps) = build(Positional::Sinusoidal);
        let mut g = Graph::new();
        let a = m.encode(&mut g, &ps, &[3, 4], false);
        let b = m.encode(&mut g, &ps, &[4, 3], false);
        let diff = g
            .value(a)
            .data()
            .iter()
            .zip(g.value(b).data().iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(diff > 1e-4, "order made no difference");
    }

    #[test]
    fn presets_scale_up() {
        let base = T5Config::base(100);
        let large = T5Config::large(100);
        assert!(large.d_model > base.d_model);
        assert!(large.enc_layers > base.enc_layers);
        let mut ps_b = ParamSet::new();
        let mut ps_l = ParamSet::new();
        let mut rng = XorShift::new(1);
        let _ = T5Model::new(&mut ps_b, "b", base, &mut rng);
        let _ = T5Model::new(&mut ps_l, "l", large, &mut rng);
        assert!(ps_l.num_scalars() > ps_b.num_scalars());
    }

    #[test]
    fn training_reduces_loss_on_copy_task() {
        // Teach the tiny model to copy a 3-token sequence; loss must drop
        // substantially, demonstrating the full backward path works.
        let (m, mut ps) = build(Positional::RelativeBias);
        let mut opt = crate::optim::AdamW {
            weight_decay: 0.0,
            ..Default::default()
        };
        let pairs: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![3, 4, 5, 1], vec![3, 4, 5, 1]),
            (vec![6, 7, 8, 1], vec![6, 7, 8, 1]),
            (vec![9, 10, 11, 1], vec![9, 10, 11, 1]),
        ];
        let initial: f32 = pairs.iter().map(|(s, t)| m.eval_loss(&ps, s, t)).sum();
        for step in 0..400 {
            let (s, t) = &pairs[step % pairs.len()];
            let mut g = Graph::new();
            let loss = m.loss(&mut g, &ps, s, t, 0.0);
            g.backward(loss);
            ps.absorb_grads(&g);
            opt.step(&mut ps, 5e-3, 1.0);
        }
        let trained: f32 = pairs.iter().map(|(s, t)| m.eval_loss(&ps, s, t)).sum();
        assert!(
            trained < initial * 0.3,
            "loss did not drop: {initial} -> {trained}"
        );
    }
}
