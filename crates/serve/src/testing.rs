//! Test doubles for the scheduler: a scripted [`BatchDecoder`] that
//! replays a per-request token script instead of running a model.
//!
//! Scheduler properties (admission order, deadline handling, queue
//! accounting, slot reuse) are independent of the model's weights, so
//! the proptest and edge-case suites run against [`ScriptedDecoder`] —
//! deterministic by construction and thousands of times faster than a
//! real forward pass — while the double-run and bench suites exercise
//! the real [`nn::batch::BatchedDecodeState`].

use nn::batch::SlotEvent;
use nn::prefix_cache::{CacheStats, PrefixCache, PrefixKv};

use crate::BatchDecoder;

/// Per-slot decode state inside the scripted decoder.
struct ScriptSlot {
    /// Tokens this request will emit, in order; after the script is
    /// exhausted the decoder emits EOS forever.
    script: Vec<u32>,
    /// Steps taken so far.
    t: usize,
    live: bool,
    /// Prefix-cache pin owed back at retirement, when the decoder
    /// carries a cache and this slot's entry was cached.
    pinned: Option<u64>,
}

/// Maps an admitted source to the token script its request replays.
type ScriptFn = Box<dyn Fn(&[u32]) -> Vec<u32> + Send>;

/// A [`BatchDecoder`] that turns each admitted source into a fixed token
/// script via a caller-supplied function. Logits are one-hot: the
/// scripted token gets 1.0, everything else 0.0, so `argmax` recovers
/// the script exactly.
pub struct ScriptedDecoder {
    slots: Vec<Option<ScriptSlot>>,
    vocab: usize,
    eos: u32,
    script_fn: ScriptFn,
    events: Vec<SlotEvent>,
    /// Optional prefix cache exercised with synthetic KV payloads —
    /// lets the scheduler suites drive real pin/evict/hit accounting
    /// without a model. Scripts never depend on the cache, so output
    /// bits stay identical with it on or off (the same contract the
    /// real decoder proves in `cache_differential.rs`).
    cache: Option<PrefixCache>,
    /// Duplicate-slot check buffer, reused across steps (the scripted
    /// decoder honors the same zero-alloc steady-state contract
    /// `step_packed_into` documents, so scheduler suites exercise it).
    seen_scratch: Vec<bool>,
}

impl ScriptedDecoder {
    /// `script_fn` maps an admitted source to the tokens the request
    /// should emit (EOS follows automatically).
    pub fn new(
        capacity: usize,
        vocab: usize,
        eos: u32,
        script_fn: impl Fn(&[u32]) -> Vec<u32> + Send + 'static,
    ) -> ScriptedDecoder {
        assert!(capacity > 0, "capacity must be positive");
        assert!((eos as usize) < vocab, "EOS must be inside the vocab");
        ScriptedDecoder {
            slots: (0..capacity).map(|_| None).collect(),
            vocab,
            eos,
            script_fn: Box::new(script_fn),
            events: Vec::new(),
            cache: None,
            seen_scratch: Vec::new(),
        }
    }

    /// Attaches a prefix cache (builder style). Each admission then
    /// looks its source up and, on a miss, inserts a deterministic
    /// synthetic [`PrefixKv`]; retirement releases the pin.
    pub fn with_prefix_cache(mut self, cache: PrefixCache) -> ScriptedDecoder {
        self.cache = Some(cache);
        self
    }

    /// The attached prefix cache, when one was configured.
    pub fn prefix_cache(&self) -> Option<&PrefixCache> {
        self.cache.as_ref()
    }

    /// Mutable access to the attached prefix cache (test visibility:
    /// draining event logs, audits).
    pub fn prefix_cache_mut(&mut self) -> Option<&mut PrefixCache> {
        self.cache.as_mut()
    }

    /// Live-slot count (test visibility).
    pub fn live_slots(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.as_ref().is_some_and(|s| s.live))
            .count()
    }
}

impl BatchDecoder for ScriptedDecoder {
    fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn admit(&mut self, src: &[u32]) -> Option<usize> {
        assert!(
            !src.is_empty(),
            "scripted decoder requires a non-empty source"
        );
        let idx = self
            .slots
            .iter()
            .position(|s| s.as_ref().is_none_or(|s| !s.live))?;
        let script = (self.script_fn)(src);
        for &tok in &script {
            assert!((tok as usize) < self.vocab, "script token outside vocab");
        }
        let pinned = self.cache.as_mut().and_then(|c| match c.lookup_pin(src) {
            Some((_, hash)) => Some(hash),
            None => c.insert_pin(src, PrefixKv::synthetic(src, 2, 4)).1,
        });
        self.slots[idx] = Some(ScriptSlot {
            script,
            t: 0,
            live: true,
            pinned,
        });
        self.events.push(SlotEvent::Admitted {
            slot: idx,
            src_len: src.len(),
        });
        Some(idx)
    }

    fn retire(&mut self, slot: usize) {
        let s = self.slots[slot]
            .as_mut()
            .expect("retire of never-admitted slot");
        assert!(s.live, "retire of already-retired slot");
        s.live = false;
        self.events.push(SlotEvent::Retired { slot, steps: s.t });
        if let Some(hash) = s.pinned.take() {
            self.cache
                .as_mut()
                .expect("pinned slot without a cache")
                .unpin(hash);
        }
    }

    fn step_packed_into(&mut self, active: &[(usize, u32)], out: &mut Vec<Vec<f32>>) {
        assert!(!active.is_empty(), "step_packed_into with no active slots");
        self.seen_scratch.clear();
        self.seen_scratch.resize(self.slots.len(), false);
        out.truncate(active.len());
        for (row, &(slot, _prev)) in active.iter().enumerate() {
            assert!(!self.seen_scratch[slot], "duplicate slot in packed step");
            self.seen_scratch[slot] = true;
            let s = self.slots[slot]
                .as_mut()
                .filter(|s| s.live)
                .expect("step of retired slot");
            let tok = s.script.get(s.t).copied().unwrap_or(self.eos);
            s.t += 1;
            if out.len() <= row {
                out.push(Vec::new());
            }
            let buf = &mut out[row];
            buf.clear();
            buf.resize(self.vocab, 0.0);
            buf[tok as usize] = 1.0;
        }
    }

    fn cache_bytes(&self) -> usize {
        // A fixed per-live-slot footprint: enough for the shutdown
        // leak check to see nonzero bytes while requests are resident.
        self.live_slots() * 1024
    }

    fn take_slot_events(&mut self) -> Vec<SlotEvent> {
        std::mem::take(&mut self.events)
    }

    fn prefix_cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Allocating convenience over `step_packed_into` for assertions.
    fn step(d: &mut ScriptedDecoder, active: &[(usize, u32)]) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        d.step_packed_into(active, &mut out);
        out
    }

    #[test]
    fn scripted_decoder_replays_script_then_eos() {
        let mut d = ScriptedDecoder::new(2, 8, 1, |src| src.to_vec());
        let slot = d.admit(&[5, 6]).unwrap();
        let r1 = step(&mut d, &[(slot, 0)]);
        assert_eq!(r1[0][5], 1.0);
        let r2 = step(&mut d, &[(slot, 5)]);
        assert_eq!(r2[0][6], 1.0);
        let r3 = step(&mut d, &[(slot, 6)]);
        assert_eq!(r3[0][1], 1.0, "script exhausted -> EOS");
        assert_eq!(d.cache_bytes(), 1024);
        d.retire(slot);
        assert_eq!(d.cache_bytes(), 0);
        assert_eq!(
            d.take_slot_events(),
            vec![
                SlotEvent::Admitted { slot, src_len: 2 },
                SlotEvent::Retired { slot, steps: 3 },
            ]
        );
    }

    #[test]
    fn scripted_decoder_drives_cache_pins_and_hits() {
        let mut d = ScriptedDecoder::new(2, 8, 1, |src| src.to_vec())
            .with_prefix_cache(PrefixCache::new(1 << 20));
        let a = d.admit(&[5, 6]).unwrap();
        let b = d.admit(&[5, 6]).unwrap();
        let c = d.prefix_cache().unwrap();
        assert_eq!(c.stats().misses, 1, "first admission misses");
        assert_eq!(c.stats().hits, 1, "same source hits");
        assert_eq!(c.pinned_entries(), 1, "both slots pin the one entry");
        d.retire(a);
        d.retire(b);
        let c = d.prefix_cache().unwrap();
        assert_eq!(c.pinned_entries(), 0, "retirement releases pins");
        assert_eq!(c.entries(), 1, "entry stays resident for reuse");
        assert_eq!(d.prefix_cache_stats(), Some(c.stats()));
        c.audit();
    }

    #[test]
    fn retired_slots_are_reused() {
        let mut d = ScriptedDecoder::new(1, 8, 1, |_| vec![2]);
        let a = d.admit(&[3]).unwrap();
        assert!(d.admit(&[4]).is_none(), "full decoder refuses admission");
        d.retire(a);
        let b = d.admit(&[4]).unwrap();
        assert_eq!(a, b, "freed slot is reused");
    }
}
