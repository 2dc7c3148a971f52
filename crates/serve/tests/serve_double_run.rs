//! Double-run bit-equality for the serving scheduler over the *real*
//! continuous batcher.
//!
//! The engine's determinism claim (DESIGN.md § "Serving engine"): given
//! one arrival trace, the admission order, slot assignments, deadline
//! decisions, and every emitted token are pure functions of the trace.
//! This suite is the dynamic witness — build the same random-weight
//! model twice, replay the same seeded bursty trace twice, and compare
//! the full [`ServeReport::fingerprint`] (admission log + every
//! response's outcome, tokens, and timestamps) as strings, i.e. bitwise.
//!
//! The thread sweep re-runs the whole thing at 1, 2, and 4 tensor
//! worker threads and compares serial runs only: at these shapes no
//! product reaches 2 × `tensor::par::PAR_MIN_ELEMS` (4.19M MACs), so no
//! kernel forks at any thread count. The test that pins multi-core bits
//! is `tensor::kernels::tests::parallel_dispatch_matches_serial_bitwise`.

use nn::batch::BatchedDecodeState;
use nn::param::ParamSet;
use nn::t5::{Positional, T5Config, T5Model};
use serve::{ServeConfig, ServeEngine, ServeRequest};
use tensor::XorShift;

use datavist5::data::Task;

const VOCAB: usize = 24;
const EOS: u32 = 1;
const SLOTS: usize = 3;

fn smoke_config() -> T5Config {
    T5Config {
        vocab: VOCAB,
        d_model: 32,
        d_ff: 64,
        heads: 2,
        enc_layers: 1,
        dec_layers: 1,
        dropout: 0.0,
        positional: Positional::RelativeBias,
    }
}

/// Same init RNG, same names: identical weights every call.
fn build_model() -> (T5Model, ParamSet) {
    let mut ps = ParamSet::new();
    let mut rng = XorShift::new(0x5e12fe);
    let m = T5Model::new(&mut ps, "serve", smoke_config(), &mut rng);
    (m, ps)
}

/// A seeded bursty trace: bursts of 3 arrivals every 4 ms, ragged
/// sources, round-robin tasks, a mix of priorities and deadlines.
fn trace(seed: u64, n: usize) -> Vec<(u64, ServeRequest)> {
    let mut rng = XorShift::new(seed);
    (0..n)
        .map(|i| {
            let burst = (i / 3) as u64;
            let arrival = burst * 4_000_000 + (i % 3) as u64 * 1_000;
            let len = 2 + (rng.next_u64() % 6) as usize;
            let src: Vec<u32> = (0..len)
                .map(|_| 2 + (rng.next_u64() % (VOCAB as u64 - 2)) as u32)
                .collect();
            let mut req = ServeRequest::new(i as u64, Task::ALL[i % 4], src)
                .with_priority((rng.next_u64() % 2) as u8);
            if rng.next_u64().is_multiple_of(4) {
                // A deadline tight enough that some requests expire.
                req = req.with_deadline(arrival + 6_000_000 + rng.next_u64() % 20_000_000);
            }
            (arrival, req)
        })
        .collect()
}

fn run_once(seed: u64, n: usize) -> String {
    let (model, ps) = build_model();
    let dec = BatchedDecodeState::new(&model, &ps, SLOTS);
    let mut engine = ServeEngine::new(dec, ServeConfig::new(4, 10, EOS));
    engine
        .run_trace(&trace(seed, n))
        .expect("real-decoder trace never poisons");
    let report = engine.into_report();
    assert!(report.accounted(), "every arrival has a terminal response");
    report.fingerprint()
}

#[test]
fn same_trace_twice_is_bit_identical() {
    let a = run_once(0xbead, 14);
    let b = run_once(0xbead, 14);
    assert_eq!(a, b, "admission log or emitted tokens differ between runs");
}

#[test]
fn different_seeds_actually_change_the_fingerprint() {
    // Guards against a vacuously-constant fingerprint.
    assert_ne!(run_once(0xbead, 14), run_once(0xfeed, 14));
}

/// Re-runs the trace at 1, 2 and 4 worker threads. No product here
/// reaches 2 × `PAR_MIN_ELEMS`, so every run is serial and this compares
/// serial runs; multi-core bits are pinned by
/// `tensor::kernels::tests::parallel_dispatch_matches_serial_bitwise`.
/// `tensor::par::set_threads` is process-global, which is safe to flip
/// because the kernels are thread-count-invariant (the same pattern as
/// `nn/tests/double_run.rs`).
#[test]
fn thread_sweep_is_bit_identical() {
    let run_at = |threads: usize| {
        tensor::par::set_threads(threads);
        let out = run_once(0x7ace, 12);
        tensor::par::set_threads(1);
        out
    };
    let fp1 = run_at(1);
    for threads in [2usize, 4] {
        let fpt = run_at(threads);
        assert_eq!(
            fp1, fpt,
            "serving fingerprint differs between 1 and {threads} worker thread(s)"
        );
    }
}
