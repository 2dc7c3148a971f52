//! Cross-request batched incremental decoding.
//!
//! [`BatchedDecodeState`] holds up to `capacity` independent decode
//! requests (each with its own KV caches and its own ragged length) and
//! advances any subset of them one token per [`step_packed`] call. The
//! per-layer projections, feed-forward, and the vocabulary logits of all
//! active requests are packed into single `[N, d] × [d, d']` matmuls, so
//! the model weights stream through the cache once per step instead of
//! once per request — and, unlike the sequential [`DecodeState`], no
//! autodiff tape is recorded and no weight tensor is cloned.
//!
//! # Exact equivalence with the sequential path
//!
//! Every request's logits are bit-identical to what [`DecodeState::step`]
//! would produce, a property the differential suite in
//! `crates/nn/tests/batched_differential.rs` locks in. This works because
//! the packed matmuls process rows independently (`tensor::kernels` docs),
//! every row-wise op (`rms_norm`, softmax, ReLU, residual adds) is applied
//! with the same accumulation order as the tape ops, and the per-slot
//! attention loops below mirror the kernel loops the tape path runs —
//! including the exact-zero skip in `mm_nn` and the
//! multiply-by-reciprocal in `softmax_rows`.
//!
//! # Continuous batching
//!
//! A finished request is [`retire`]d, which NaN-poisons its caches (so any
//! accidental read by a later step would propagate to logits and fail the
//! differential tests) and frees its slot for immediate reuse by
//! [`admit`] — the scheduling loop in [`crate::decode::batched_greedy_decode`]
//! refills slots from its pending queue without draining the batch.
//!
//! # Prefix caching
//!
//! With [`BatchedDecodeState::with_prefix_cache`], admissions consult a
//! cross-request [`PrefixCache`]: a request whose standardized input
//! matches a resident entry adopts the cached cross-attention K/V blocks
//! (shared by `Arc`, pinned until retirement) instead of re-running the
//! encoder. The adopted tensors are the same bits a cold encoder run
//! produces, so tokens stay identical cache on, off, cold, warm, or
//! thrashing — `crates/nn/tests/cache_differential.rs` locks that in.
//!
//! [`step_packed`]: BatchedDecodeState::step_packed
//! [`retire`]: BatchedDecodeState::retire
//! [`admit`]: BatchedDecodeState::admit
//! [`DecodeState`]: crate::t5::DecodeState
//! [`DecodeState::step`]: crate::t5::DecodeState::step

use std::sync::Arc;

use tensor::kernels;
use tensor::Tensor;

use crate::layers::{Linear, RelPosBias, RmsNorm};
use crate::param::ParamSet;
use crate::prefix_cache::{CacheStats, PrefixCache, PrefixKv};
use crate::t5::{DecodeState, Positional, T5Model};

/// Where a slot's cross-attention K/V came from.
///
/// Without a prefix cache every slot owns its tensors (`Owned`), exactly
/// as before the cache existed. With a cache attached, slots share the
/// cached tensors by `Arc` (`Shared`) — the same bits whether they were
/// computed this admission or adopted from an earlier request, which is
/// what keeps the cache invisible at the logits level.
enum CrossKv {
    Owned {
        k: Vec<Tensor>,
        v: Vec<Tensor>,
    },
    Shared {
        kv: Arc<PrefixKv>,
        /// The cache pin to release at retirement (`None` when the
        /// insert was bypassed — oversized entry or hash collision).
        pinned: Option<u64>,
    },
}

impl CrossKv {
    fn k(&self, layer: usize) -> &Tensor {
        match self {
            CrossKv::Owned { k, .. } => &k[layer],
            CrossKv::Shared { kv, .. } => &kv.cross_k[layer],
        }
    }

    fn v(&self, layer: usize) -> &Tensor {
        match self {
            CrossKv::Owned { v, .. } => &v[layer],
            CrossKv::Shared { kv, .. } => &kv.cross_v[layer],
        }
    }

    fn bytes(&self) -> usize {
        match self {
            CrossKv::Owned { k, v } => k
                .iter()
                .chain(v.iter())
                .map(|t| t.numel() * 4)
                .sum::<usize>(),
            CrossKv::Shared { kv, .. } => kv.bytes(),
        }
    }
}

/// One resident request: per-layer KV caches plus the decode position.
struct Slot {
    /// Per-decoder-layer cached cross-attention keys/values `[ts, d]`.
    cross: CrossKv,
    /// Per-decoder-layer growing self-attention keys/values `[t, d]`.
    self_k: Vec<Tensor>,
    self_v: Vec<Tensor>,
    /// Number of decoder tokens fed so far.
    t: usize,
    /// Retired slots keep their (poisoned) caches resident until reuse.
    live: bool,
}

/// A slot lifecycle notification from the batcher, in the order the
/// transitions happened. External schedulers ([`crates/serve`]'s engine)
/// drain these with [`BatchedDecodeState::take_slot_events`] and
/// cross-check them against their own admission bookkeeping, so a
/// scheduler bug that admits into an occupied slot or double-retires is
/// caught at the boundary between the two layers rather than as NaN
/// logits three steps later.
///
/// [`crates/serve`]: https://docs.rs/serve
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotEvent {
    /// A request was installed in `slot`; its source had `src_len` tokens.
    Admitted { slot: usize, src_len: usize },
    /// The request in `slot` was retired after consuming `steps` decoder
    /// tokens.
    Retired { slot: usize, steps: usize },
}

/// Batched KV-cached decoding over up to `capacity` concurrent requests.
pub struct BatchedDecodeState<'m> {
    model: &'m T5Model,
    ps: &'m ParamSet,
    slots: Vec<Option<Slot>>,
    scratch: Scratch,
    events: Vec<SlotEvent>,
    /// Cross-request encoder-output cache; `None` = recompute always.
    cache: Option<PrefixCache>,
    /// Self-attention KV rows to pre-reserve per layer at admission
    /// (see [`reserve_steps`](Self::reserve_steps)).
    kv_reserve: usize,
}

/// Step-to-step reusable activation buffers (all `[n, ·]`, row-major).
///
/// Everything a packed step needs lives here so a warm step performs no
/// heap allocation at all — `clear` + `resize` on a buffer that already
/// reached its high-water mark touches only the existing allocation. The
/// counting-allocator test in `crates/serve/tests/zero_alloc.rs` holds
/// the whole tick path to this.
#[derive(Default)]
struct Scratch {
    x: Vec<f32>,
    normed: Vec<f32>,
    q: Vec<f32>,
    k_new: Vec<f32>,
    v_new: Vec<f32>,
    ctx: Vec<f32>,
    proj: Vec<f32>,
    ff_h: Vec<f32>,
    scores: Vec<f32>,
    logits: Vec<f32>,
    /// Duplicate-slot check for `step_packed_into` (reused, not re-allocated).
    seen: Vec<bool>,
    lora: LoraScratch,
}

/// Reusable temporaries for the LoRA delta in [`linear_packed`] (the
/// low-rank product needs two intermediates that used to be fresh `vec!`s
/// per projection per layer per step).
#[derive(Default)]
struct LoraScratch {
    xa: Vec<f32>,
    xab: Vec<f32>,
}

impl<'m> BatchedDecodeState<'m> {
    /// Creates an engine with `capacity` empty slots.
    pub fn new(model: &'m T5Model, ps: &'m ParamSet, capacity: usize) -> Self {
        assert!(capacity > 0, "batch capacity must be positive");
        Self {
            model,
            ps,
            slots: (0..capacity).map(|_| None).collect(),
            scratch: Scratch::default(),
            events: Vec::new(),
            cache: None,
            kv_reserve: 0,
        }
    }

    /// Hints the maximum decode steps any one request will take, so each
    /// admission pre-reserves that many self-attention KV rows per layer
    /// and the per-step [`Tensor::push_row`] appends never reallocate.
    /// The attention-score scratch (whose length tracks the growing KV
    /// depth) is reserved up front for the same reason; [`admit`]
    /// reserves it for the cross-attention depth of each source. Applies
    /// to subsequent admissions; purely a capacity hint — decoded bits are
    /// identical with or without it.
    ///
    /// [`admit`]: Self::admit
    pub fn reserve_steps(&mut self, max_steps: usize) {
        self.kv_reserve = max_steps;
        reserve_len(&mut self.scratch.scores, max_steps);
    }

    /// [`new`](Self::new) with a cross-request prefix cache attached:
    /// admissions whose standardized input matches a resident entry
    /// adopt the cached cross-attention K/V instead of re-running the
    /// encoder. Decoded tokens are bit-identical either way (the
    /// `cache_differential` suite locks this in).
    pub fn with_prefix_cache(
        model: &'m T5Model,
        ps: &'m ParamSet,
        capacity: usize,
        cache: PrefixCache,
    ) -> Self {
        let mut s = Self::new(model, ps, capacity);
        s.cache = Some(cache);
        s
    }

    /// The attached prefix cache, if any.
    pub fn prefix_cache(&self) -> Option<&PrefixCache> {
        self.cache.as_ref()
    }

    /// Mutable access to the attached prefix cache (event-log drains).
    pub fn prefix_cache_mut(&mut self) -> Option<&mut PrefixCache> {
        self.cache.as_mut()
    }

    /// Detaches and returns the prefix cache (pre-warming: run one
    /// batch, take the cache back, attach it to the next engine).
    /// Panics if any live slot still pins an entry.
    pub fn take_prefix_cache(&mut self) -> Option<PrefixCache> {
        let cache = self.cache.take();
        if let Some(c) = &cache {
            assert_eq!(
                c.pinned_entries(),
                0,
                "detaching a prefix cache with pinned entries"
            );
        }
        cache
    }

    /// Running cache tallies (`None` when no cache is attached).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(PrefixCache::stats)
    }

    /// Drains the slot admission/retirement log accumulated since the
    /// last call (or construction), in transition order.
    pub fn take_slot_events(&mut self) -> Vec<SlotEvent> {
        std::mem::take(&mut self.events)
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of slots currently free (empty or retired).
    pub fn free_slots(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !matches!(s, Some(Slot { live: true, .. })))
            .count()
    }

    /// Runs the encoder for `src` and installs the request in a free slot,
    /// returning its slot index — or `None` when every slot is live.
    ///
    /// The encoder and the cross-attention K/V precomputation run through
    /// [`DecodeState::new`], so the cached tensors are the sequential
    /// path's own, bit for bit.
    pub fn admit(&mut self, src: &[u32]) -> Option<usize> {
        let idx = self
            .slots
            .iter()
            .position(|s| !matches!(s, Some(Slot { live: true, .. })))?;
        let (model, ps) = (self.model, self.ps);
        let cross = match self.cache.as_mut() {
            None => {
                let mut seq = DecodeState::new(model, ps, src);
                CrossKv::Owned {
                    k: std::mem::take(&mut seq.cross_k),
                    v: std::mem::take(&mut seq.cross_v),
                }
            }
            Some(cache) => match cache.lookup_pin(src) {
                Some((kv, hash)) => CrossKv::Shared {
                    kv,
                    pinned: Some(hash),
                },
                None => {
                    let mut seq = DecodeState::new(model, ps, src);
                    let fresh = PrefixKv {
                        cross_k: std::mem::take(&mut seq.cross_k),
                        cross_v: std::mem::take(&mut seq.cross_v),
                    };
                    let (kv, pinned) = cache.insert_pin(src, fresh);
                    CrossKv::Shared { kv, pinned }
                }
            },
        };
        // Cross-attention scores one row per source token; reserving here
        // keeps the first step after a longer source from growing them.
        reserve_len(&mut self.scratch.scores, src.len());
        let layers = model.dec.len();
        let d = model.cfg.d_model;
        self.slots[idx] = Some(Slot {
            cross,
            self_k: (0..layers)
                .map(|_| Tensor::empty_rows(d, self.kv_reserve))
                .collect(),
            self_v: (0..layers)
                .map(|_| Tensor::empty_rows(d, self.kv_reserve))
                .collect(),
            t: 0,
            live: true,
        });
        self.events.push(SlotEvent::Admitted {
            slot: idx,
            src_len: src.len(),
        });
        Some(idx)
    }

    /// Number of decoder tokens the request in `slot` has consumed.
    pub fn slot_len(&self, slot: usize) -> usize {
        self.slots[slot].as_ref().map_or(0, |s| s.t)
    }

    /// Whether `slot` holds a live request.
    pub fn is_live(&self, slot: usize) -> bool {
        matches!(self.slots.get(slot), Some(Some(Slot { live: true, .. })))
    }

    /// Finishes a request: poisons every owned cache row with NaN and
    /// marks the slot free. Poisoned tensors stay resident until `admit`
    /// reuses the slot, so a stale read from any later `step_packed`
    /// surfaces as NaN logits instead of silently borrowing another
    /// request's state. Shared cross-attention tensors belong to the
    /// prefix cache and cannot be poisoned — the slot's reference is
    /// dropped instead (a stale access then panics on the empty
    /// replacement) and the cache pin is released, making the entry
    /// evictable again.
    pub fn retire(&mut self, slot: usize) {
        let s = self.slots[slot]
            .as_mut()
            .unwrap_or_else(|| panic!("retire of empty slot {slot}"));
        assert!(s.live, "retire of already-retired slot {slot}");
        for cache in s.self_k.iter_mut().chain(s.self_v.iter_mut()) {
            cache.data_mut().fill(f32::NAN);
        }
        let unpin = match &mut s.cross {
            CrossKv::Owned { k, v } => {
                for cache in k.iter_mut().chain(v.iter_mut()) {
                    cache.data_mut().fill(f32::NAN);
                }
                None
            }
            CrossKv::Shared { pinned, .. } => {
                let hash = pinned.take();
                s.cross = CrossKv::Owned {
                    k: Vec::new(),
                    v: Vec::new(),
                };
                hash
            }
        };
        s.live = false;
        let steps = s.t;
        self.events.push(SlotEvent::Retired { slot, steps });
        if let Some(hash) = unpin {
            self.cache
                .as_mut()
                // hot-ok: a pin implies a cache — only admissions with a cache pin
                .expect("pinned entry without a cache")
                .unpin(hash);
        }
    }

    fn slot(&self, idx: usize) -> &Slot {
        // hot-ok: batcher contract teeth — callers index only validated live slots
        self.slots[idx].as_ref().expect("empty slot")
    }

    /// Resident KV-cache footprint in bytes: every cache tensor of every
    /// live slot at four bytes per scalar (retired slots keep poisoned
    /// tensors resident but no live request owns them).
    pub fn cache_bytes(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .filter(|s| s.live)
            .map(|s| {
                s.cross.bytes()
                    + s.self_k
                        .iter()
                        .chain(s.self_v.iter())
                        .map(|t| t.numel() * 4)
                        .sum::<usize>()
            })
            .sum()
    }

    /// Advances every `(slot, previous_token)` pair by one step and returns
    /// their next-token logit rows, in input order.
    ///
    /// Compatibility wrapper over [`step_packed_into`] that allocates a
    /// fresh output buffer per call; the serving engine calls
    /// [`step_packed_into`] directly with recycled buffers.
    ///
    /// [`step_packed_into`]: Self::step_packed_into
    pub fn step_packed(&mut self, active: &[(usize, u32)]) -> Vec<Vec<f32>> {
        // hot-ok: test/compat wrapper — the steady-state path is step_packed_into
        let mut out = Vec::new();
        self.step_packed_into(active, &mut out);
        out
    }

    /// Advances every `(slot, previous_token)` pair by one step, writing
    /// their next-token logit rows into `out` in input order.
    ///
    /// `out` is truncated to `active.len()` and every retained row is
    /// overwritten in place, so a caller handing back the same buffer each
    /// step reuses the row allocations; combined with the [`Scratch`]
    /// buffers and the KV capacity from [`reserve_steps`], a warm step
    /// performs no heap allocation at all (with relative-position bias —
    /// the sinusoidal branch builds a position row per request). The
    /// counting-allocator test in `crates/serve/tests/zero_alloc.rs`
    /// certifies this.
    ///
    /// Requests may sit at different positions (ragged batching); each
    /// attends over exactly its own caches. Listing a slot twice, listing a
    /// retired/empty slot, or passing no requests panics.
    ///
    /// [`reserve_steps`]: Self::reserve_steps
    pub fn step_packed_into(&mut self, active: &[(usize, u32)], out: &mut Vec<Vec<f32>>) {
        // hot-ok: contract teeth — an empty packed step is a scheduler bug
        assert!(!active.is_empty(), "step_packed needs at least one request");
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.seen.clear();
        scratch.seen.resize(self.slots.len(), false);
        for &(slot, _) in active {
            // hot-ok: contract teeth — is_live bounds-checks slot before the index below
            assert!(self.is_live(slot), "step of empty or retired slot {slot}");
            // hot-ok: contract teeth — slot < slots.len() established by is_live above
            assert!(!scratch.seen[slot], "slot {slot} listed twice in one step");
            scratch.seen[slot] = true; // hot-ok: in bounds per the is_live assert
        }

        let m = self.model;
        let ps = self.ps;
        let d = m.cfg.d_model;
        let heads = m.cfg.heads;
        let dh = d / heads;
        let n = active.len();

        // Section profiling: the packed decoder bypasses the autodiff
        // tape (pure scratch-buffer kernels), so the tape profiler never
        // sees it — explicit mark-delta section timers stand in.
        let prof = obs::enabled();
        let mut mark = if prof { obs::clock::now_ns() } else { 0 };
        let (mut t_self, mut t_cross, mut t_ff) = (0u64, 0u64, 0u64);

        // Embed each request's previous token at its own position.
        let table = ps.value(m.emb.table);
        scratch.x.clear();
        scratch.x.resize(n * d, 0.0);
        for (row, &(slot, tok)) in active.iter().enumerate() {
            let id = tok as usize;
            // hot-ok: contract teeth — rejects out-of-vocab ids before the row copy
            assert!(
                id < m.cfg.vocab,
                "token id {id} out of range {}",
                m.cfg.vocab
            );
            let x_row = &mut scratch.x[row * d..(row + 1) * d];
            x_row.copy_from_slice(&table.data()[id * d..(id + 1) * d]);
            if m.cfg.positional == Positional::Sinusoidal {
                let pos = m.sinusoidal(1, self.slot(slot).t);
                for (o, &p) in x_row.iter_mut().zip(pos.data().iter()) {
                    *o += p;
                }
            }
        }

        let t_embed = lap(prof, &mut mark);

        for (l, block) in m.dec.iter().enumerate() {
            // Self-attention: packed projections, per-slot cached attention.
            rms_norm_packed(ps, &block.norm1, &scratch.x, d, &mut scratch.normed);
            linear_packed(
                ps,
                &block.self_attn.wq,
                &scratch.normed,
                n,
                &mut scratch.q,
                &mut scratch.lora,
            );
            linear_packed(
                ps,
                &block.self_attn.wk,
                &scratch.normed,
                n,
                &mut scratch.k_new,
                &mut scratch.lora,
            );
            linear_packed(
                ps,
                &block.self_attn.wv,
                &scratch.normed,
                n,
                &mut scratch.v_new,
                &mut scratch.lora,
            );
            scratch.ctx.clear();
            scratch.ctx.resize(n * d, 0.0);
            for (row, &(slot_idx, _)) in active.iter().enumerate() {
                // hot-ok: liveness of every active slot is asserted at entry
                let slot = self.slots[slot_idx].as_mut().expect("live slot");
                let pos = slot.t;
                // hot-ok: l < dec.len() by loop construction
                let (k_cache, v_cache) = (&mut slot.self_k[l], &mut slot.self_v[l]);
                k_cache.push_row(&scratch.k_new[row * d..(row + 1) * d]);
                v_cache.push_row(&scratch.v_new[row * d..(row + 1) * d]);
                attend_row(
                    &scratch.q[row * d..(row + 1) * d],
                    k_cache,
                    v_cache,
                    m.dec_bias.as_ref().map(|b| (b, ps, pos)),
                    dh,
                    &mut scratch.scores,
                    &mut scratch.ctx[row * d..(row + 1) * d],
                );
            }
            linear_packed(
                ps,
                &block.self_attn.wo,
                &scratch.ctx,
                n,
                &mut scratch.proj,
                &mut scratch.lora,
            );
            add_assign(&mut scratch.x, &scratch.proj);
            t_self += lap(prof, &mut mark);

            // Cross-attention over the precomputed encoder keys/values.
            rms_norm_packed(ps, &block.norm2, &scratch.x, d, &mut scratch.normed);
            linear_packed(
                ps,
                &block.cross_attn.wq,
                &scratch.normed,
                n,
                &mut scratch.q,
                &mut scratch.lora,
            );
            scratch.ctx.clear();
            scratch.ctx.resize(n * d, 0.0);
            for (row, &(slot_idx, _)) in active.iter().enumerate() {
                let slot = self.slot(slot_idx);
                attend_row(
                    &scratch.q[row * d..(row + 1) * d],
                    slot.cross.k(l),
                    slot.cross.v(l),
                    None,
                    dh,
                    &mut scratch.scores,
                    &mut scratch.ctx[row * d..(row + 1) * d],
                );
            }
            linear_packed(
                ps,
                &block.cross_attn.wo,
                &scratch.ctx,
                n,
                &mut scratch.proj,
                &mut scratch.lora,
            );
            add_assign(&mut scratch.x, &scratch.proj);
            t_cross += lap(prof, &mut mark);

            // Feed-forward.
            rms_norm_packed(ps, &block.norm3, &scratch.x, d, &mut scratch.normed);
            linear_packed(
                ps,
                &block.ff.wi,
                &scratch.normed,
                n,
                &mut scratch.ff_h,
                &mut scratch.lora,
            );
            for v in scratch.ff_h.iter_mut() {
                *v = v.max(0.0);
            }
            linear_packed(
                ps,
                &block.ff.wo,
                &scratch.ff_h,
                n,
                &mut scratch.proj,
                &mut scratch.lora,
            );
            add_assign(&mut scratch.x, &scratch.proj);
            t_ff += lap(prof, &mut mark);
        }

        rms_norm_packed(ps, &m.dec_final, &scratch.x, d, &mut scratch.normed);
        // Tied-embedding logits: one [n, d] × [vocab, d]ᵀ matmul for the
        // whole batch, scaled like `T5Model::logits`.
        let vocab = m.cfg.vocab;
        scratch.logits.clear();
        scratch.logits.resize(n * vocab, 0.0);
        kernels::mm_nt(
            &scratch.normed,
            table.data(),
            &mut scratch.logits,
            n,
            d,
            vocab,
            false,
        );
        let factor = 1.0 / (d as f32).sqrt();
        for v in scratch.logits.iter_mut() {
            *v *= factor;
        }

        // Recycle the caller's row buffers: clear + extend on a row that
        // already held a logit vector touches no allocator.
        out.truncate(n);
        for (row, chunk) in scratch.logits.chunks(vocab).enumerate() {
            match out.get_mut(row) {
                Some(buf) => {
                    buf.clear();
                    buf.extend_from_slice(chunk);
                }
                // hot-ok: warm-up only — a row allocated once is recycled by every later step
                None => out.push(chunk.to_vec()),
            }
        }
        for &(slot_idx, _) in active {
            if let Some(s) = self.slots.get_mut(slot_idx).and_then(Option::as_mut) {
                s.t += 1;
            }
        }
        self.scratch = scratch;

        if prof {
            use obs::profile::record_kernel;
            use obs::Phase::Forward;
            let t_logits = lap(prof, &mut mark);
            let rows = n as u64;
            let d64 = d as u64;
            let layers = m.dec.len() as u64;
            let ff = m.cfg.d_ff as u64;
            let v64 = vocab as u64;
            // Bytes: weight matrices streamed once per section plus the
            // packed activations; FLOPs: the dominant matmuls (four d×d
            // projections per self-attn, two per cross-attn — its K/V
            // were projected at admission — two d×ff for the FFN, one
            // d×vocab for logits).
            record_kernel("batch.embed", Forward, t_embed, 8 * rows * d64, 0);
            record_kernel(
                "batch.self_attn",
                Forward,
                t_self,
                (16 * d64 * d64 + 16 * rows * d64) * layers,
                8 * rows * d64 * d64 * layers,
            );
            record_kernel(
                "batch.cross_attn",
                Forward,
                t_cross,
                (8 * d64 * d64 + 16 * rows * d64) * layers,
                4 * rows * d64 * d64 * layers,
            );
            record_kernel(
                "batch.ff",
                Forward,
                t_ff,
                (8 * d64 * ff + 8 * rows * d64) * layers,
                4 * rows * d64 * ff * layers,
            );
            record_kernel(
                "batch.logits",
                Forward,
                t_logits,
                4 * d64 * v64 + 4 * rows * (d64 + v64),
                2 * rows * d64 * v64,
            );
        }
    }
}

/// Mark-delta section timer: the elapsed time since `mark`, advancing the
/// mark; zero (clock untouched) when profiling is off.
fn lap(prof: bool, mark: &mut u64) -> u64 {
    if !prof {
        return 0;
    }
    let now = obs::clock::now_ns();
    let delta = now.saturating_sub(*mark);
    *mark = now;
    delta
}

/// `y = x·W (+ LoRA delta) (+ bias)` on packed `[n, d_in]` rows, matching
/// `Linear::forward` term order exactly. The LoRA intermediates live in
/// the caller's [`LoraScratch`] so a warm call allocates nothing.
fn linear_packed(
    ps: &ParamSet,
    lin: &Linear,
    x: &[f32],
    n: usize,
    out: &mut Vec<f32>,
    lora: &mut LoraScratch,
) {
    let w = ps.value(lin.w);
    out.clear();
    out.resize(n * lin.d_out, 0.0);
    kernels::mm_nn(x, w.data(), out, n, lin.d_in, lin.d_out, false);
    if let Some((a, b, scale)) = lin.lora {
        let va = ps.value(a);
        let vb = ps.value(b);
        let rank = va.shape()[1];
        lora.xa.clear();
        lora.xa.resize(n * rank, 0.0);
        kernels::mm_nn(x, va.data(), &mut lora.xa, n, lin.d_in, rank, false);
        lora.xab.clear();
        lora.xab.resize(n * lin.d_out, 0.0);
        kernels::mm_nn(
            &lora.xa,
            vb.data(),
            &mut lora.xab,
            n,
            rank,
            lin.d_out,
            false,
        );
        for (o, &dv) in out.iter_mut().zip(lora.xab.iter()) {
            *o += dv * scale;
        }
    }
    if let Some(bid) = lin.b {
        let bias = ps.value(bid);
        for row in out.chunks_mut(lin.d_out) {
            for (o, &bv) in row.iter_mut().zip(bias.data().iter()) {
                *o += bv;
            }
        }
    }
}

/// Row-wise RMS norm on packed `[n, d]` rows, matching `Graph::rms_norm`.
fn rms_norm_packed(ps: &ParamSet, norm: &RmsNorm, x: &[f32], d: usize, out: &mut Vec<f32>) {
    let gain = ps.value(norm.gain);
    out.clear();
    out.extend_from_slice(x);
    for row in out.chunks_mut(d) {
        let ms = row.iter().map(|v| v * v).sum::<f32>() / d as f32;
        let r = (ms + norm.eps).sqrt();
        let inv = 1.0 / r;
        for (o, g) in row.iter_mut().zip(gain.data().iter()) {
            *o = *o * inv * g;
        }
    }
}

/// Grows `v`'s capacity to at least `len` elements.
fn reserve_len(v: &mut Vec<f32>, len: usize) {
    v.reserve(len.saturating_sub(v.len()));
}

fn add_assign(x: &mut [f32], y: &[f32]) {
    for (a, &b) in x.iter_mut().zip(y.iter()) {
        *a += b;
    }
}

/// Single-query multi-head attention of `q` (`[d]`) over `[tk, d]` caches,
/// writing the head-concatenated context into `ctx` (`[d]`).
///
/// Mirrors the tape path of `DecodeState::step` per head: ascending-`k`
/// score dots (the `mm_nt` register accumulation), scale by `dh^-0.5`,
/// optional relative-position bias, `softmax_rows`, then an ascending-`t`
/// probability-weighted sum with the `mm_nn` exact-zero skip.
fn attend_row(
    q: &[f32],
    k_cache: &Tensor,
    v_cache: &Tensor,
    bias: Option<(&RelPosBias, &ParamSet, usize)>,
    dh: usize,
    scores: &mut Vec<f32>,
    ctx: &mut [f32],
) {
    let tk = k_cache.shape()[0];
    let d = k_cache.shape()[1];
    let heads = d / dh;
    let k = k_cache.data();
    let v = v_cache.data();
    let factor = 1.0 / (dh as f32).sqrt();
    for h in 0..heads {
        let q_h = &q[h * dh..(h + 1) * dh];
        scores.clear();
        scores.resize(tk, 0.0);
        for (t, s) in scores.iter_mut().enumerate() {
            let k_row = &k[t * d + h * dh..t * d + (h + 1) * dh];
            let mut acc = 0.0f32;
            for (&qv, &kv) in q_h.iter().zip(k_row.iter()) {
                acc += qv * kv;
            }
            *s = acc;
        }
        for s in scores.iter_mut() {
            *s *= factor;
        }
        if let Some((b, ps, pos)) = bias {
            let table = ps.value(b.table).data();
            for (t, s) in scores.iter_mut().enumerate() {
                let bucket = b.bucket(t as i64 - pos as i64);
                *s += table[bucket * heads + h];
            }
        }
        kernels::softmax_rows(scores, tk);
        let ctx_h = &mut ctx[h * dh..(h + 1) * dh];
        for (t, &p) in scores.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let v_row = &v[t * d + h * dh..t * d + (h + 1) * dh];
            for (c, &vv) in ctx_h.iter_mut().zip(v_row.iter()) {
                *c += p * vv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::t5::{T5Config, DECODER_START};
    use tensor::XorShift;

    fn build(positional: Positional) -> (T5Model, ParamSet) {
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
            positional,
        };
        let m = T5Model::new(&mut ps, "m", cfg, &mut rng);
        (m, ps)
    }

    #[test]
    fn single_request_step_is_bitwise_equal_to_sequential() {
        for positional in [Positional::RelativeBias, Positional::Sinusoidal] {
            let (m, ps) = build(positional);
            let src = [3u32, 4, 5, 1];
            let mut seq = DecodeState::new(&m, &ps, &src);
            let mut batched = BatchedDecodeState::new(&m, &ps, 2);
            let slot = batched.admit(&src).unwrap();
            let mut prev = DECODER_START;
            for step in 0..6 {
                let want = seq.step(prev);
                let got = &batched.step_packed(&[(slot, prev)])[0];
                for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{positional:?} step {step} logit {i}: {a} vs {b}"
                    );
                }
                prev = (step % 7 + 2) as u32;
            }
        }
    }

    #[test]
    fn slot_reuse_after_retire_matches_fresh_state() {
        let (m, ps) = build(Positional::RelativeBias);
        let mut batched = BatchedDecodeState::new(&m, &ps, 1);
        let slot = batched.admit(&[3, 4, 1]).unwrap();
        batched.step_packed(&[(slot, DECODER_START)]);
        batched.retire(slot);
        assert!(!batched.is_live(slot));
        // The reused slot must behave exactly like a fresh sequential state.
        let slot2 = batched.admit(&[5, 6, 7, 1]).unwrap();
        assert_eq!(slot2, slot);
        let mut seq = DecodeState::new(&m, &ps, &[5, 6, 7, 1]);
        let want = seq.step(DECODER_START);
        let got = &batched.step_packed(&[(slot2, DECODER_START)])[0];
        for (a, b) in got.iter().zip(want.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "retired slot")]
    fn stepping_a_retired_slot_panics() {
        let (m, ps) = build(Positional::RelativeBias);
        let mut batched = BatchedDecodeState::new(&m, &ps, 1);
        let slot = batched.admit(&[3, 1]).unwrap();
        batched.retire(slot);
        batched.step_packed(&[(slot, DECODER_START)]);
    }

    #[test]
    fn slot_events_record_admissions_and_retirements_in_order() {
        let (m, ps) = build(Positional::RelativeBias);
        let mut batched = BatchedDecodeState::new(&m, &ps, 2);
        let a = batched.admit(&[3, 4, 1]).unwrap();
        let b = batched.admit(&[5, 1]).unwrap();
        batched.step_packed(&[(a, DECODER_START), (b, DECODER_START)]);
        batched.retire(b);
        let c = batched.admit(&[6, 1]).unwrap();
        assert_eq!(c, b, "retired slot is reused");
        assert_eq!(
            batched.take_slot_events(),
            vec![
                SlotEvent::Admitted {
                    slot: a,
                    src_len: 3
                },
                SlotEvent::Admitted {
                    slot: b,
                    src_len: 2
                },
                SlotEvent::Retired { slot: b, steps: 1 },
                SlotEvent::Admitted {
                    slot: c,
                    src_len: 2
                },
            ]
        );
        // The log drains: a second take returns only what happened since.
        batched.retire(a);
        assert_eq!(
            batched.take_slot_events(),
            vec![SlotEvent::Retired { slot: a, steps: 1 }]
        );
    }

    #[test]
    fn cached_admission_is_bitwise_equal_and_pins_then_unpins() {
        let (m, ps) = build(Positional::RelativeBias);
        let src = [3u32, 4, 5, 1];
        let mut plain = BatchedDecodeState::new(&m, &ps, 1);
        let mut cached =
            BatchedDecodeState::with_prefix_cache(&m, &ps, 1, PrefixCache::new(1 << 20));
        // First admission misses and inserts; second (after retire) hits.
        for round in 0..2 {
            let a = plain.admit(&src).unwrap();
            let b = cached.admit(&src).unwrap();
            let cache = cached.prefix_cache().unwrap();
            assert_eq!(cache.pinned_entries(), 1, "slot pins its entry");
            assert_eq!(
                cached.cache_bytes(),
                plain.cache_bytes(),
                "round {round}: shared KV accounts like owned KV"
            );
            let want = plain.step_packed(&[(a, DECODER_START)]);
            let got = cached.step_packed(&[(b, DECODER_START)]);
            for (x, y) in got[0].iter().zip(want[0].iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "round {round}");
            }
            plain.retire(a);
            cached.retire(b);
            assert_eq!(cached.prefix_cache().unwrap().pinned_entries(), 0);
        }
        let stats = cached.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        let cache = cached.take_prefix_cache().unwrap();
        assert!(cache.contains(&src));
        assert!(cached.cache_stats().is_none());
    }

    #[test]
    fn admit_reports_full_capacity() {
        let (m, ps) = build(Positional::RelativeBias);
        let mut batched = BatchedDecodeState::new(&m, &ps, 2);
        assert!(batched.admit(&[3, 1]).is_some());
        assert!(batched.admit(&[4, 1]).is_some());
        assert_eq!(batched.free_slots(), 0);
        assert!(batched.admit(&[5, 1]).is_none());
    }
}
