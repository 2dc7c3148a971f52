//! Floating-point operation counts computed from tensor shapes.
//!
//! The CPU gives no FLOP counter, so achieved GFLOP/s is these counts
//! divided by measured time. Counted are the matmuls and attention dots
//! (one multiply plus one add each); norms, softmax and element-wise ops
//! are left out. Backward is taken as twice the forward.

use nn::t5::T5Config;

/// The shape parameters the counts depend on.
#[derive(Debug, Clone, Copy)]
pub struct FlopModel {
    d: u64,
    ff: u64,
    enc_layers: u64,
    dec_layers: u64,
    vocab: u64,
}

impl FlopModel {
    pub fn of(cfg: &T5Config) -> FlopModel {
        FlopModel {
            d: cfg.d_model as u64,
            ff: cfg.d_ff as u64,
            enc_layers: cfg.enc_layers as u64,
            dec_layers: cfg.dec_layers as u64,
            vocab: cfg.vocab as u64,
        }
    }

    /// The encoder over `s` source tokens.
    fn encoder(&self, s: u64) -> u64 {
        let (d, ff) = (self.d, self.ff);
        self.enc_layers * (8 * s * d * d + 4 * s * s * d + 4 * s * d * ff)
    }

    /// What an admission without a cache hit runs: the encoder plus the
    /// decoder layers' cross-attention key and value projections.
    pub fn prefill(&self, s: u64) -> u64 {
        self.encoder(s) + 4 * self.dec_layers * s * self.d * self.d
    }

    /// One packed-step row: a decoder token whose self-attention cache
    /// holds `t` rows (this token's included), over `s` source rows.
    pub fn decode_row(&self, t: u64, s: u64) -> u64 {
        let (d, ff) = (self.d, self.ff);
        self.dec_layers * (12 * d * d + 4 * t * d + 4 * s * d + 4 * d * ff) + 2 * d * self.vocab
    }

    /// Teacher-forced forward pass over `s` source and `t` target tokens.
    pub fn forward(&self, s: u64, t: u64) -> u64 {
        let (d, ff) = (self.d, self.ff);
        self.prefill(s)
            + self.dec_layers * (12 * t * d * d + 4 * t * t * d + 4 * t * s * d + 4 * t * d * ff)
            + 2 * t * d * self.vocab
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::t5::Positional;

    fn tiny() -> FlopModel {
        FlopModel::of(&T5Config {
            vocab: 10,
            d_model: 2,
            d_ff: 4,
            heads: 1,
            enc_layers: 1,
            dec_layers: 1,
            dropout: 0.0,
            positional: Positional::RelativeBias,
        })
    }

    #[test]
    fn teacher_forcing_one_token_equals_prefill_plus_one_decode_row() {
        // With one target token the full-sequence decoder does exactly
        // the work of one incremental step at cache length 1.
        let m = tiny();
        for s in [1, 3, 7] {
            assert_eq!(m.forward(s, 1), m.prefill(s) + m.decode_row(1, s));
        }
    }

    #[test]
    fn counts_grow_with_sequence_length() {
        let m = tiny();
        assert!(m.prefill(4) > m.prefill(3));
        assert!(m.decode_row(5, 3) > m.decode_row(4, 3));
        assert!(m.forward(3, 5) > m.forward(3, 4));
    }
}
