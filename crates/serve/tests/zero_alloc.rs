//! Zero-allocation steady-state certification: the dynamic witness
//! paired with the static `hot_audit` sweep (H004).
//!
//! A counting global allocator wraps `System` and tallies every
//! `alloc`/`realloc`/`alloc_zeroed`. The test fills the engine's slots
//! with requests that never finish (EOS is placed outside the vocab, so
//! greedy argmax can never emit it), runs warm-up ticks until every
//! scratch buffer, KV reservation, and logit row has reached its
//! high-water mark, then asserts that a window of further decode ticks
//! performs **zero** heap allocations — cache off and cache on.
//!
//! A third scenario drives the batcher directly: a source longer than
//! any before, admitted into a retired slot, must not make the steps
//! after its admission allocate (admission reserves what the new
//! request's cross-attention needs).
//!
//! All scenarios run inside one `#[test]` so no concurrently running
//! test can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use datavist5::data::Task;
use nn::batch::BatchedDecodeState;
use nn::param::ParamSet;
use nn::prefix_cache::PrefixCache;
use nn::t5::{Positional, T5Config, T5Model, DECODER_START};
use serve::{ServeConfig, ServeEngine, ServeRequest};
use tensor::XorShift;

/// Counts allocator entry points; frees are irrelevant to the property
/// (a steady tick must not *acquire* memory).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

const VOCAB: usize = 20;
const SLOTS: usize = 2;
const WARMUP_TICKS: usize = 4;
const MEASURED_TICKS: usize = 16;

fn build_model() -> (T5Model, ParamSet) {
    let mut ps = ParamSet::new();
    let mut rng = XorShift::new(7);
    let cfg = T5Config {
        vocab: VOCAB,
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

/// Fills every slot, warms the buffers up, then returns the allocation
/// count delta across `MEASURED_TICKS` pure decode ticks.
fn steady_state_allocs(with_cache: bool) -> u64 {
    let (model, ps) = build_model();
    let dec = if with_cache {
        BatchedDecodeState::with_prefix_cache(&model, &ps, SLOTS, PrefixCache::new(1 << 20))
    } else {
        BatchedDecodeState::new(&model, &ps, SLOTS)
    };
    // EOS outside the vocab: argmax over `vocab` logits can never emit
    // it, so no request completes and every measured tick is a pure
    // steady-state decode step (the same trick `obs_report` uses for
    // overhead measurement). max_out is far above the tick budget.
    let eos = VOCAB as u32;
    let mut engine = ServeEngine::new(dec, ServeConfig::new(4, 64, eos));
    engine.submit(ServeRequest::new(0, Task::TextToVis, vec![3, 4, 5, 1]));
    engine.submit(ServeRequest::new(1, Task::VisToText, vec![6, 7, 1]));
    for _ in 0..WARMUP_TICKS {
        assert!(engine.tick().expect("tick"), "warm-up ticks must decode");
    }
    assert_eq!(engine.live(), SLOTS, "both requests must stay in flight");

    let before = allocs();
    for _ in 0..MEASURED_TICKS {
        assert!(engine.tick().expect("tick"), "measured ticks must decode");
    }
    let delta = allocs() - before;

    assert_eq!(engine.live(), SLOTS, "nothing may complete mid-measurement");
    engine.shutdown();
    assert!(engine.into_report().accounted());
    delta
}

/// Admits short sources into every slot with `reserve_steps(16)`, steps
/// them warm, retires one, admits a 40-token source into the freed slot,
/// and returns the allocation count across the next 3 packed steps (the
/// batch size unchanged).
fn allocs_after_long_admission() -> u64 {
    let (model, ps) = build_model();
    let mut dec = BatchedDecodeState::new(&model, &ps, SLOTS);
    dec.reserve_steps(16);
    let mut active: Vec<(usize, u32)> = (0..SLOTS)
        .map(|_| (dec.admit(&[3, 4, 5, 1]).expect("free slot"), DECODER_START))
        .collect();
    let mut out = Vec::new();
    for _ in 0..WARMUP_TICKS {
        dec.step_packed_into(&active, &mut out);
    }
    dec.retire(active[0].0);
    let long: Vec<u32> = (0..40).map(|i| 2 + i % (VOCAB as u32 - 2)).collect();
    active[0] = (
        dec.admit(&long).expect("retired slot is free"),
        DECODER_START,
    );

    let before = allocs();
    for _ in 0..3 {
        dec.step_packed_into(&active, &mut out);
    }
    allocs() - before
}

#[test]
fn steady_state_ticks_allocate_nothing() {
    let cold = steady_state_allocs(false);
    assert_eq!(
        cold, 0,
        "cache-off steady state: {cold} allocation(s) across {MEASURED_TICKS} decode ticks \
         (every per-tick buffer must be recycled — see analysis::hot H004)"
    );
    let warm = steady_state_allocs(true);
    assert_eq!(
        warm, 0,
        "cache-on steady state: {warm} allocation(s) across {MEASURED_TICKS} decode ticks"
    );
    let after_long = allocs_after_long_admission();
    assert_eq!(
        after_long, 0,
        "steps after admitting a longer source: {after_long} allocation(s) \
         (admission must reserve the cross-attention scores)"
    );
}
