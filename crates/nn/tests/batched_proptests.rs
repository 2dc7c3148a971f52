//! Property tests of the batched inference engine.
//!
//! Three contracts: (1) batched grammar-constrained decoding with an
//! arbitrary (randomly generated, prefix-dependent) mask function agrees
//! with constrained decoding on the tape (`common::tape_constrained`) on
//! every request; (2) one engine picking per request — greedy for some,
//! grammar-constrained for others, in the same packed steps — gives each
//! request the tokens of its own policy on the tape; (3) slot retirement
//! never leaks one request's state into another — retiring NaN-poisons
//! the slot's caches, so if any later packed step read them the
//! survivors' logits would go NaN and their token streams would diverge
//! from the tape reference. All are checked across random batch shapes,
//! ragged sources, and retirement schedules.

mod common;

use proptest::prelude::*;

use common::{tape_constrained, tape_greedy};
use nn::batch::BatchedDecodeState;
use nn::decode::{argmax, batched_constrained_decode, masked_argmax};
use nn::engine::{Engine, EngineConfig, Outcome, Request};
use nn::param::ParamSet;
use nn::t5::{Positional, T5Config, T5Model};
use tensor::XorShift;

const EOS: u32 = 1;
const MAX_LEN: usize = 10;
const VOCAB: usize = 19;

fn random_model(seed: u64) -> (T5Model, ParamSet) {
    let mut ps = ParamSet::new();
    let mut rng = XorShift::new(seed);
    let cfg = T5Config {
        vocab: VOCAB,
        d_model: 8,
        d_ff: 16,
        heads: 2,
        enc_layers: 1,
        dec_layers: 1,
        dropout: 0.0,
        positional: Positional::RelativeBias,
    };
    let m = T5Model::new(&mut ps, "m", cfg, &mut rng);
    (m, ps)
}

fn random_srcs(seed: u64, count: usize) -> Vec<Vec<u32>> {
    let mut rng = XorShift::new(seed.wrapping_add(1));
    (0..count)
        .map(|_| {
            let len = 1 + (rng.next_u64() % 5) as usize;
            let mut src: Vec<u32> = (0..len)
                .map(|_| 2 + (rng.next_u64() % (VOCAB as u64 - 2)) as u32)
                .collect();
            src.push(EOS);
            src
        })
        .collect()
}

/// A deterministic pseudo-random grammar: the allowed set depends only on
/// `(seed, request, prefix)`, so the tape and batched closures see
/// identical masks. Sets occasionally go empty (hard stop) and sometimes
/// include EOS.
fn grammar_mask(seed: u64, req: usize, prefix: &[u32]) -> Vec<u32> {
    let mix = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(req as u64 * 7919)
        .wrapping_add(
            prefix
                .iter()
                .fold(0u64, |h, &t| h.wrapping_mul(31).wrapping_add(t as u64)),
        );
    let mut rng = XorShift::new(mix | 1);
    if rng.next_u64().is_multiple_of(13) {
        return Vec::new();
    }
    let mut mask: Vec<u32> = (2..VOCAB as u32)
        .filter(|_| !rng.next_u64().is_multiple_of(3))
        .collect();
    if rng.next_u64().is_multiple_of(4) {
        mask.push(EOS);
    }
    mask
}

/// The constrained policy of `mixed_policies_in_one_engine_match_sequential`:
/// the random grammar, cut to an empty set once request `req` has emitted
/// `2 + req % 4` tokens, so constrained requests end on an empty mask at
/// staggered steps.
fn cut_mask(seed: u64, req: usize, prefix: &[u32]) -> Vec<u32> {
    if prefix.len() >= 2 + req % 4 {
        return Vec::new();
    }
    grammar_mask(seed, req, prefix)
}

proptest! {
    /// Batched constrained decoding with a random grammar mask agrees
    /// with one-request-at-a-time constrained decoding on the tape.
    #[test]
    fn batched_constrained_matches_sequential(
        model_seed in 0u64..200,
        grammar_seed in 0u64..1000,
        batch in 1usize..=8,
        capacity in 1usize..=8,
    ) {
        let (m, ps) = random_model(model_seed);
        let srcs = random_srcs(model_seed ^ grammar_seed, batch);
        let want: Vec<Vec<u32>> = srcs
            .iter()
            .enumerate()
            .map(|(req, src)| {
                tape_constrained(&m, &ps, src, EOS, MAX_LEN, |prefix| {
                    grammar_mask(grammar_seed, req, prefix)
                })
            })
            .collect();
        let got = batched_constrained_decode(
            &m, &ps, &srcs, EOS, MAX_LEN, capacity,
            |req, prefix| grammar_mask(grammar_seed, req, prefix),
        );
        prop_assert_eq!(got, want);
    }

    /// One engine with fewer slots than requests serves greedy and
    /// grammar-constrained requests together: the pick chooses the policy
    /// by request id (even ids greedy, odd ids under `cut_mask`), so
    /// packed steps mix both. Each request's tokens equal the tape decode
    /// of that request alone under its own policy.
    #[test]
    fn mixed_policies_in_one_engine_match_sequential(
        model_seed in 0u64..200,
        grammar_seed in 0u64..1000,
        batch in 2usize..=8,
    ) {
        let (m, ps) = random_model(model_seed);
        let srcs = random_srcs(model_seed ^ grammar_seed, batch);
        let want: Vec<Vec<u32>> = srcs
            .iter()
            .enumerate()
            .map(|(req, src)| {
                if req.is_multiple_of(2) {
                    tape_greedy(&m, &ps, src, EOS, MAX_LEN)
                } else {
                    tape_constrained(&m, &ps, src, EOS, MAX_LEN, |prefix| {
                        cut_mask(grammar_seed, req, prefix)
                    })
                }
            })
            .collect();
        let capacity = 1 + grammar_seed as usize % (batch - 1);
        let cfg = EngineConfig {
            queue_cap: batch,
            max_out: MAX_LEN,
            eos: EOS,
            step_cost_ns: 0,
            admit_cost_ns: 0,
        };
        let mut engine = Engine::new(BatchedDecodeState::new(&m, &ps, capacity), cfg);
        for (id, src) in srcs.iter().enumerate() {
            engine.submit(Request::new(id as u64, (), src.clone()));
        }
        while !engine.is_idle() {
            engine
                .tick_with(|req, logits, prefix| {
                    let req = req.id as usize;
                    if req.is_multiple_of(2) {
                        return Some(argmax(logits));
                    }
                    let mask = cut_mask(grammar_seed, req, prefix);
                    (!mask.is_empty()).then(|| masked_argmax(logits, &mask))
                })
                .unwrap();
        }
        let report = engine.into_report();
        prop_assert!(report.responses.iter().all(|r| r.outcome == Outcome::Completed));
        let got: Vec<Vec<u32>> = report.responses.into_iter().map(|r| r.tokens).collect();
        prop_assert_eq!(got, want);
    }

    /// Retiring a request mid-batch (which NaN-poisons its slot) never
    /// perturbs the survivors: their greedy outputs stay identical to the
    /// tape path and entirely finite. A leak of the poisoned caches
    /// into a packed matmul would propagate NaN into the survivors'
    /// logits, making argmax return token 0 and the comparison fail.
    #[test]
    fn retirement_never_leaks_across_slots(
        model_seed in 0u64..200,
        src_seed in 0u64..1000,
        batch in 2usize..=8,
    ) {
        let (m, ps) = random_model(model_seed);
        let srcs = random_srcs(src_seed, batch);
        let want: Vec<Vec<u32>> = srcs
            .iter()
            .map(|src| tape_greedy(&m, &ps, src, EOS, MAX_LEN))
            .collect();
        // Capacity below batch forces staggered admissions *and*
        // retirements: survivors keep stepping beside poisoned slots.
        let capacity = 1 + (src_seed as usize % batch);
        let got = nn::decode::batched_greedy_decode(&m, &ps, &srcs, EOS, MAX_LEN, capacity);
        for (r, out) in got.iter().enumerate() {
            prop_assert!(
                out.iter().all(|&t| (t as usize) < VOCAB),
                "request {} produced out-of-vocab token", r
            );
        }
        prop_assert_eq!(got, want);
    }
}
