//! Differential battery for the prefix cache: the cache must be
//! invisible at the bits level. One ragged continuous-batching workload
//! (repeated sources, staggered admissions, mid-flight slot reuse) is
//! decoded with the cache **off**, **cold**, **pre-warmed**, and
//! **byte-capped to force thrashing**, at 1/2/4 worker threads — every
//! variant must produce bitwise-identical output tokens and the
//! identical per-step KV-byte trace. Shared (cached) cross-attention
//! tensors account exactly like owned ones, so even the byte
//! bookkeeping cannot tell the variants apart.
//!
//! The thread counts compare serial runs: at this model's shapes no
//! product reaches 2 × `tensor::par::PAR_MIN_ELEMS` (4.19M MACs), so no
//! kernel forks. Multi-core bits are pinned by
//! `tensor::kernels::tests::parallel_dispatch_matches_serial_bitwise`.

use std::collections::{BTreeMap, VecDeque};

use nn::batch::BatchedDecodeState;
use nn::param::ParamSet;
use nn::prefix_cache::PrefixCache;
use nn::t5::{Positional, T5Config, T5Model, DECODER_START};
use tensor::XorShift;

fn build() -> (T5Model, ParamSet) {
    let mut ps = ParamSet::new();
    let mut rng = XorShift::new(7);
    let cfg = T5Config {
        vocab: 20,
        d_model: 16,
        d_ff: 32,
        heads: 2,
        enc_layers: 2,
        dec_layers: 2,
        dropout: 0.0,
        positional: Positional::RelativeBias,
    };
    let m = T5Model::new(&mut ps, "m", cfg, &mut rng);
    (m, ps)
}

/// A schema-skewed workload: twelve requests over four distinct ragged
/// sources, so a warm cache sees every admission as a hit and a cold
/// one sees four misses and eight hits.
fn workload() -> Vec<Vec<u32>> {
    let pool: [&[u32]; 4] = [&[3, 4, 5, 1], &[6, 7, 1], &[8, 9, 10, 11, 1], &[12, 13, 1]];
    [0usize, 1, 0, 2, 1, 3, 0, 2, 1, 0, 3, 2]
        .iter()
        .map(|&i| pool[i].to_vec())
        .collect()
}

/// Greedy continuous-batching decode of `sources` for `steps` tokens
/// each, recording every request's emitted tokens and the engine's
/// KV-byte footprint after every packed step.
fn run_workload(
    state: &mut BatchedDecodeState,
    sources: &[Vec<u32>],
    steps: usize,
) -> (Vec<Vec<u32>>, Vec<usize>) {
    let mut outputs = vec![Vec::new(); sources.len()];
    let mut kv_trace = Vec::new();
    let mut pending: VecDeque<usize> = (0..sources.len()).collect();
    // slot -> (request, previous token, tokens emitted)
    let mut active: BTreeMap<usize, (usize, u32, usize)> = BTreeMap::new();
    let mut logits = Vec::new();
    loop {
        while let Some(&req) = pending.front() {
            let Some(slot) = state.admit(&sources[req]) else {
                break;
            };
            pending.pop_front();
            active.insert(slot, (req, DECODER_START, 0));
        }
        if active.is_empty() {
            break;
        }
        let batch: Vec<(usize, u32)> = active.iter().map(|(&s, &(_, prev, _))| (s, prev)).collect();
        state.step_packed_into(&batch, &mut logits);
        kv_trace.push(state.cache_bytes());
        let mut done = Vec::new();
        for (&(slot, _), row) in batch.iter().zip(&logits) {
            let tok = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(&a.0)))
                .map(|(i, _)| i as u32)
                .unwrap();
            let entry = active.get_mut(&slot).unwrap();
            outputs[entry.0].push(tok);
            entry.1 = tok;
            entry.2 += 1;
            if entry.2 == steps {
                done.push(slot);
            }
        }
        for slot in done {
            state.retire(slot);
            active.remove(&slot);
        }
    }
    (outputs, kv_trace)
}

/// One distinct entry's payload in bytes for the `build()` model:
/// dec_layers × {K,V} × src_len × d_model × 4. The longest pool source
/// has 5 tokens → 1280 bytes; the thrash budget below fits exactly one
/// such entry, so inserts continuously evict whatever is unpinned.
const THRASH_CAP: usize = 1300;

#[test]
fn cache_off_cold_warm_thrashing_are_bitwise_identical_across_threads() {
    let (m, ps) = build();
    let sources = workload();
    const STEPS: usize = 6;
    const CAPACITY: usize = 2;

    // Baseline: cache off, one thread.
    tensor::par::set_threads(1);
    let mut off = BatchedDecodeState::new(&m, &ps, CAPACITY);
    let (want_tokens, want_kv) = run_workload(&mut off, &sources, STEPS);
    assert_eq!(want_tokens.len(), sources.len());
    assert!(want_tokens.iter().all(|t| t.len() == STEPS));

    // A pre-warmed cache: one full pass populates it, then it is
    // detached (legal only with zero pins) and re-attached to the
    // engine under test.
    let prewarm = || -> PrefixCache {
        let mut warmer =
            BatchedDecodeState::with_prefix_cache(&m, &ps, CAPACITY, PrefixCache::new(1 << 20));
        run_workload(&mut warmer, &sources, STEPS);
        warmer.take_prefix_cache().unwrap()
    };

    for threads in [1usize, 2, 4] {
        tensor::par::set_threads(threads);
        let variants: [(&str, BatchedDecodeState); 4] = [
            ("off", BatchedDecodeState::new(&m, &ps, CAPACITY)),
            (
                "cold",
                BatchedDecodeState::with_prefix_cache(&m, &ps, CAPACITY, PrefixCache::new(1 << 20)),
            ),
            (
                "warm",
                BatchedDecodeState::with_prefix_cache(&m, &ps, CAPACITY, prewarm()),
            ),
            (
                "thrash",
                BatchedDecodeState::with_prefix_cache(
                    &m,
                    &ps,
                    CAPACITY,
                    PrefixCache::new(THRASH_CAP),
                ),
            ),
        ];
        for (name, mut state) in variants {
            let (tokens, kv) = run_workload(&mut state, &sources, STEPS);
            assert_eq!(
                tokens, want_tokens,
                "{name}@{threads}t: output tokens differ from cache-off baseline"
            );
            assert_eq!(
                kv, want_kv,
                "{name}@{threads}t: KV-byte trace differs from cache-off baseline"
            );
            match name {
                "off" => assert!(state.cache_stats().is_none()),
                "cold" => {
                    let s = state.cache_stats().unwrap();
                    assert_eq!(s.misses, 4, "cold@{threads}t: one miss per distinct source");
                    assert_eq!(s.hits, 8, "cold@{threads}t: repeats all hit");
                    assert_eq!(s.evictions, 0);
                }
                "warm" => {
                    let s = state.cache_stats().unwrap();
                    // Stats carried over from the warming pass: the
                    // pass under test added 12 hits and nothing else.
                    assert_eq!(s.hits, 8 + 12, "warm@{threads}t: every admission hits");
                    assert_eq!(s.misses, 4, "warm@{threads}t: only the warming pass missed");
                }
                "thrash" => {
                    let s = state.cache_stats().unwrap();
                    assert!(
                        s.evictions + s.bypasses > 0,
                        "thrash@{threads}t: the tiny budget must actually thrash \
                         (evictions={} bypasses={})",
                        s.evictions,
                        s.bypasses
                    );
                    let c = state.prefix_cache().unwrap();
                    assert!(c.bytes() <= THRASH_CAP, "budget holds under thrashing");
                    c.audit();
                }
                _ => unreachable!(),
            }
            if let Some(c) = state.prefix_cache() {
                assert_eq!(c.pinned_entries(), 0, "{name}@{threads}t: pins drained");
            }
        }
    }
    tensor::par::set_threads(1);
}
