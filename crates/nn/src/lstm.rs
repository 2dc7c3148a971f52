//! Attention LSTM seq2seq — the Seq2Vis baseline.
//!
//! Seq2Vis (Luo et al., 2021) treats text-to-vis as machine translation
//! with an attention-equipped encoder–decoder RNN. This module implements a
//! single-layer LSTM encoder, an LSTM decoder with Luong dot-product
//! attention over encoder states, and a projection head. It shares the
//! `loss` interface of [`crate::t5`], so one training loop drives both
//! model families; its incremental [`LstmDecodeState`] is what
//! [`crate::decode::greedy_decode`] steps through the `StepDecoder` trait.

use tensor::{Graph, Tensor, Var, XorShift};

use crate::layers::{Embedding, Linear};
use crate::param::{ParamId, ParamSet};
use crate::t5::DECODER_START;

/// LSTM hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct LstmConfig {
    pub vocab: usize,
    pub d_emb: usize,
    pub hidden: usize,
}

impl LstmConfig {
    /// The Seq2Vis-scale preset.
    pub fn seq2vis(vocab: usize) -> Self {
        Self {
            vocab,
            d_emb: 48,
            hidden: 64,
        }
    }
}

/// One LSTM cell: four gates, each with input and recurrent weights.
#[derive(Debug, Clone)]
struct LstmCell {
    wx: [Linear; 4],
    wh: [Linear; 4],
    bias: [ParamId; 4],
    hidden: usize,
}

const GATES: [&str; 4] = ["i", "f", "g", "o"];

impl LstmCell {
    fn new(ps: &mut ParamSet, name: &str, d_in: usize, hidden: usize, rng: &mut XorShift) -> Self {
        let wx = std::array::from_fn(|k| {
            Linear::new(
                ps,
                &format!("{name}.wx_{}", GATES[k]),
                d_in,
                hidden,
                false,
                rng,
            )
        });
        let wh = std::array::from_fn(|k| {
            Linear::new(
                ps,
                &format!("{name}.wh_{}", GATES[k]),
                hidden,
                hidden,
                false,
                rng,
            )
        });
        let bias = std::array::from_fn(|k| {
            // Forget-gate bias starts at 1 (standard recipe).
            let init = if k == 1 { 1.0 } else { 0.0 };
            ps.add(
                format!("{name}.b_{}", GATES[k]),
                Tensor::filled(vec![hidden], init),
            )
        });
        Self {
            wx,
            wh,
            bias,
            hidden,
        }
    }

    /// One recurrence step: `(h', c') = cell(x, h, c)` with `[1, *]` rows.
    fn step(&self, g: &mut Graph, ps: &ParamSet, x: Var, h: Var, c: Var) -> (Var, Var) {
        let gate = |g: &mut Graph, k: usize| -> Var {
            let a = self.wx[k].forward(g, ps, x);
            let b = self.wh[k].forward(g, ps, h);
            let sum = g.add(a, b);
            let bias = ps.bind(g, self.bias[k]);
            g.add_bias(sum, bias)
        };
        let i_raw = gate(g, 0);
        let i = g.sigmoid(i_raw);
        let f_raw = gate(g, 1);
        let f = g.sigmoid(f_raw);
        let g_raw = gate(g, 2);
        let g_act = g.tanh(g_raw);
        let o_raw = gate(g, 3);
        let o = g.sigmoid(o_raw);
        let fc = g.mul(f, c);
        let ig = g.mul(i, g_act);
        let c_new = g.add(fc, ig);
        let tanh_c = g.tanh(c_new);
        let h_new = g.mul(o, tanh_c);
        (h_new, c_new)
    }

    fn zero_state(&self, g: &mut Graph) -> (Var, Var) {
        let h = g.leaf(Tensor::zeros(vec![1, self.hidden]), false);
        let c = g.leaf(Tensor::zeros(vec![1, self.hidden]), false);
        (h, c)
    }
}

/// The Seq2Vis model: LSTM encoder + attention LSTM decoder.
#[derive(Debug, Clone)]
pub struct LstmSeq2Seq {
    pub cfg: LstmConfig,
    emb: Embedding,
    enc: LstmCell,
    dec: LstmCell,
    /// Luong combination: `tanh(h·Wc1 + ctx·Wc2)`.
    combine_h: Linear,
    combine_ctx: Linear,
    proj: Linear,
}

impl LstmSeq2Seq {
    pub fn new(ps: &mut ParamSet, prefix: &str, cfg: LstmConfig, rng: &mut XorShift) -> Self {
        Self {
            emb: Embedding::new(ps, &format!("{prefix}.emb"), cfg.vocab, cfg.d_emb, rng),
            enc: LstmCell::new(ps, &format!("{prefix}.enc"), cfg.d_emb, cfg.hidden, rng),
            dec: LstmCell::new(ps, &format!("{prefix}.dec"), cfg.d_emb, cfg.hidden, rng),
            combine_h: Linear::new(
                ps,
                &format!("{prefix}.comb_h"),
                cfg.hidden,
                cfg.hidden,
                false,
                rng,
            ),
            combine_ctx: Linear::new(
                ps,
                &format!("{prefix}.comb_ctx"),
                cfg.hidden,
                cfg.hidden,
                false,
                rng,
            ),
            proj: Linear::new(
                ps,
                &format!("{prefix}.proj"),
                cfg.hidden,
                cfg.vocab,
                true,
                rng,
            ),
            cfg,
        }
    }

    /// Encodes source ids into per-step states `[ts, hidden]` plus the
    /// final `(h, c)`.
    ///
    /// The whole sequence is embedded with one table gather and sliced per
    /// step — one embedding-gradient allocation per graph instead of one
    /// per token.
    fn encode(&self, g: &mut Graph, ps: &ParamSet, src: &[usize]) -> (Var, Var, Var) {
        let embedded = self.emb.forward(g, ps, src);
        let (mut h, mut c) = self.enc.zero_state(g);
        let mut states = Vec::with_capacity(src.len());
        for t in 0..src.len() {
            let x = g.slice_rows(embedded, t, 1);
            let (h2, c2) = self.enc.step(g, ps, x, h, c);
            h = h2;
            c = c2;
            states.push(h);
        }
        let enc_states = g.concat_rows(&states);
        (enc_states, h, c)
    }

    /// One decoder step with attention; returns `(logits_row, h, c)`.
    fn dec_step(
        &self,
        g: &mut Graph,
        ps: &ParamSet,
        tok: usize,
        enc_states: Var,
        h: Var,
        c: Var,
    ) -> (Var, Var, Var) {
        let x = self.emb.forward(g, ps, &[tok]);
        self.dec_step_embedded(g, ps, x, enc_states, h, c)
    }

    /// Decoder step on a pre-embedded `[1, d]` input.
    fn dec_step_embedded(
        &self,
        g: &mut Graph,
        ps: &ParamSet,
        x: Var,
        enc_states: Var,
        h: Var,
        c: Var,
    ) -> (Var, Var, Var) {
        let (h, c) = self.dec.step(g, ps, x, h, c);
        // Luong dot attention over encoder states.
        let scores = g.matmul_nt(h, enc_states); // [1, ts]
        let probs = g.softmax(scores);
        let ctx = g.matmul(probs, enc_states); // [1, hidden]
        let a = self.combine_h.forward(g, ps, h);
        let b = self.combine_ctx.forward(g, ps, ctx);
        let sum = g.add(a, b);
        let combined = g.tanh(sum);
        let logits = self.proj.forward(g, ps, combined);
        (logits, h, c)
    }

    /// Teacher-forced cross-entropy loss, mirroring [`crate::t5::T5Model::loss`].
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
        let (enc_states, mut h, mut c) = self.encode(g, ps, &src);
        let mut dec_input = vec![DECODER_START as usize];
        dec_input.extend(tgt[..tgt.len() - 1].iter().map(|&t| t as usize));
        let dec_embedded = self.emb.forward(g, ps, &dec_input);
        let mut logit_rows = Vec::with_capacity(dec_input.len());
        for t in 0..dec_input.len() {
            let x = g.slice_rows(dec_embedded, t, 1);
            let (logits, h2, c2) = self.dec_step_embedded(g, ps, x, enc_states, h, c);
            h = h2;
            c = c2;
            logit_rows.push(logits);
        }
        let all = g.concat_rows(&logit_rows);
        let targets: Vec<usize> = tgt.iter().map(|&t| t as usize).collect();
        g.cross_entropy(all, &targets, smoothing)
    }

    /// Evaluation loss without dropout (the LSTM has none, so this simply
    /// runs `loss` on a throwaway graph).
    pub fn eval_loss(&self, ps: &ParamSet, src: &[u32], tgt: &[u32]) -> f32 {
        let mut g = Graph::new();
        let l = self.loss(&mut g, ps, src, tgt, 0.0);
        g.value(l).data()[0]
    }

    /// Starts incremental decoding for a source sequence.
    pub fn start_decode<'m>(&'m self, ps: &'m ParamSet, src: &[u32]) -> LstmDecodeState<'m> {
        let mut g = Graph::new();
        let src: Vec<usize> = src.iter().map(|&t| t as usize).collect();
        let (enc_states, h, c) = self.encode(&mut g, ps, &src);
        LstmDecodeState {
            model: self,
            ps,
            enc_states: g.value(enc_states).clone(),
            h: g.value(h).clone(),
            c: g.value(c).clone(),
        }
    }
}

/// Incremental decoding state for [`LstmSeq2Seq`].
#[derive(Clone)]
pub struct LstmDecodeState<'m> {
    model: &'m LstmSeq2Seq,
    ps: &'m ParamSet,
    enc_states: Tensor,
    h: Tensor,
    c: Tensor,
}

impl LstmDecodeState<'_> {
    /// Feeds one token, returning next-token logits.
    pub fn step(&mut self, token: u32) -> Vec<f32> {
        let mut g = Graph::new();
        let enc = g.leaf(self.enc_states.clone(), false);
        let h = g.leaf(self.h.clone(), false);
        let c = g.leaf(self.c.clone(), false);
        let (logits, h2, c2) = self
            .model
            .dec_step(&mut g, self.ps, token as usize, enc, h, c);
        self.h = g.value(h2).clone();
        self.c = g.value(c2).clone();
        g.value(logits).data().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::AdamW;

    fn build() -> (LstmSeq2Seq, ParamSet) {
        let mut ps = ParamSet::new();
        let mut rng = XorShift::new(11);
        let cfg = LstmConfig {
            vocab: 16,
            d_emb: 8,
            hidden: 12,
        };
        let m = LstmSeq2Seq::new(&mut ps, "s2v", cfg, &mut rng);
        (m, ps)
    }

    #[test]
    fn loss_is_finite() {
        let (m, ps) = build();
        let mut g = Graph::new();
        let l = m.loss(&mut g, &ps, &[3, 4, 5, 1], &[6, 7, 1], 0.0);
        assert!(g.value(l).data()[0].is_finite());
    }

    #[test]
    fn incremental_decode_matches_training_path() {
        let (m, ps) = build();
        let src = [3u32, 4, 5, 1];
        let prefix = [DECODER_START, 6, 7];
        // Training-path logits.
        let mut g = Graph::new();
        let src_usize: Vec<usize> = src.iter().map(|&t| t as usize).collect();
        let (enc, mut h, mut c) = m.encode(&mut g, &ps, &src_usize);
        let mut rows = Vec::new();
        for &tok in &prefix {
            let (logits, h2, c2) = m.dec_step(&mut g, &ps, tok as usize, enc, h, c);
            h = h2;
            c = c2;
            rows.push(g.value(logits).data().to_vec());
        }
        // Incremental path.
        let mut state = m.start_decode(&ps, &src);
        for (i, &tok) in prefix.iter().enumerate() {
            let got = state.step(tok);
            for (a, b) in got.iter().zip(rows[i].iter()) {
                assert!((a - b).abs() < 1e-4, "pos {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn training_reduces_loss() {
        let (m, mut ps) = build();
        let mut opt = AdamW {
            weight_decay: 0.0,
            ..Default::default()
        };
        let pairs: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![3, 4, 1], vec![4, 3, 1]),
            (vec![5, 6, 1], vec![6, 5, 1]),
        ];
        let before: f32 = pairs.iter().map(|(s, t)| m.eval_loss(&ps, s, t)).sum();
        for step in 0..150 {
            let (s, t) = &pairs[step % pairs.len()];
            let mut g = Graph::new();
            let l = m.loss(&mut g, &ps, s, t, 0.0);
            g.backward(l);
            ps.absorb_grads(&g);
            opt.step(&mut ps, 5e-3, 1.0);
        }
        let after: f32 = pairs.iter().map(|(s, t)| m.eval_loss(&ps, s, t)).sum();
        assert!(after < before * 0.5, "{before} -> {after}");
    }

    #[test]
    fn decode_state_clone_is_independent() {
        let (m, ps) = build();
        let state = m.start_decode(&ps, &[3, 4, 1]);
        let mut a = state.clone();
        let mut b = state;
        let la = a.step(DECODER_START);
        let _ = a.step(5);
        let lb = b.step(DECODER_START);
        // First-step logits agree even after `a` advanced further.
        for (x, y) in la.iter().zip(lb.iter()) {
            assert_eq!(x, y);
        }
    }
}
