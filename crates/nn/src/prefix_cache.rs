//! Cross-request prefix cache for encoder outputs.
//!
//! DataVisT5's standardized encoding puts every request's schema prefix
//! in a canonical text form, so concurrent requests over the same
//! database produce *byte-identical* encoder inputs. The serving engine
//! exploits that redundancy here: the decoder's cross-attention K/V
//! blocks (the only encoder-derived state a decode slot ever reads) are
//! cached keyed by a content hash of the standardized input tokens, and
//! an admission whose input matches a resident entry adopts the cached
//! tensors instead of re-running the encoder.
//!
//! # Exact keying
//!
//! The encoder is bidirectional, so its output depends on *every* input
//! token — a cached entry is only reusable when the whole standardized
//! input matches bit for bit. The cache therefore keys on the full token
//! sequence ("prefix" names the encoder phase, which is the prefix of
//! the request's compute, not a token-level prefix match). Keys are
//! FNV-1a content hashes ([`prefix_hash`]); each entry also retains its
//! full token sequence, and a lookup whose tokens differ from the
//! resident entry's (a 64-bit collision) is treated as a miss and the
//! colliding insert is bypassed — a collision can cost a recompute,
//! never a wrong answer.
//!
//! # Determinism
//!
//! Everything is ordered: entries live in a `BTreeMap` keyed by content
//! hash, recency is a monotonic insertion/touch sequence number in a
//! second `BTreeMap`, and eviction walks that sequence order — the
//! least-recently-used *unpinned* entry goes first, always the same one
//! for the same operation history. No wall clock, no ambient RNG, no
//! hash-order iteration. Double-running one operation trace yields the
//! identical eviction order (`cache_proptests.rs` locks this in).
//!
//! # Bit-invisibility
//!
//! A cache hit hands back the very tensors a cold admission's encoder
//! run produced for the same input — the same bits, shared via `Arc`
//! rather than recomputed. Whether the cache is off, cold, pre-warmed,
//! or thrashing under a tiny byte budget, decoded tokens and KV bytes
//! are bitwise identical (`cache_differential.rs`).
//!
//! # Accounting
//!
//! The cache is bounded by an explicit byte budget over tensor payloads
//! (`numel × 4`); [`PrefixCache::bytes`] never exceeds the budget.
//! Entries referenced by a live decode slot are *pinned* and never
//! evicted; an insert that cannot fit after evicting every unpinned
//! entry is bypassed rather than over-committing. Every event carries a
//! registered diagnostic code (`C001` hit, `C002` miss, `C003` evict,
//! `C004` bypass — see `analysis::registry`), and the running tallies
//! surface as `serve.cache.*` obs counters/gauges.

use std::collections::BTreeMap;
use std::sync::Arc;

use tensor::Tensor;

/// Deterministic 64-bit content hash of a token sequence (FNV-1a over
/// the little-endian bytes of each id). The serving layer's cache key.
pub fn prefix_hash(tokens: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &t in tokens {
        for b in t.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// The encoder-derived state one decode slot needs: per-decoder-layer
/// cross-attention keys, transposed to `[d_model, src_len]` as the
/// decoder's score kernel reads them, and values (`[src_len, d_model]`),
/// exactly as `BatchedDecodeState::admit` computes them on a cache miss.
/// The transpose moves no byte count: each tensor holds `src_len ·
/// d_model` scalars either way.
#[derive(Debug, Clone)]
pub struct PrefixKv {
    pub cross_k: Vec<Tensor>,
    pub cross_v: Vec<Tensor>,
}

impl PrefixKv {
    /// A deterministic synthetic entry derived purely from `src`: the
    /// payload the scripted serving test double and the cache property
    /// suite stand in for real encoder output. Same `src` → same bits,
    /// different `src` → different bits (content comes from
    /// [`prefix_hash`] mixed per element), so bit-identity assertions
    /// stay meaningful without running a model.
    pub fn synthetic(src: &[u32], layers: usize, d_model: usize) -> PrefixKv {
        let h = prefix_hash(src);
        let fill = |salt: u64, shape: [usize; 2]| {
            let data: Vec<f32> = (0..src.len() * d_model)
                .map(|i| {
                    let mix = h ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i as u64);
                    // Small exact-in-f32 integers: bit-stable everywhere.
                    (mix % 251) as f32 - 125.0
                })
                .collect();
            Tensor::from_vec(shape.to_vec(), data)
        };
        let (keys, values) = ([d_model, src.len()], [src.len(), d_model]);
        PrefixKv {
            cross_k: (0..layers).map(|l| fill(2 * l as u64, keys)).collect(),
            cross_v: (0..layers)
                .map(|l| fill(2 * l as u64 + 1, values))
                .collect(),
        }
    }

    /// Payload bytes at four bytes per scalar (the unit of the cache's
    /// byte budget).
    pub fn bytes(&self) -> usize {
        self.cross_k
            .iter()
            .chain(self.cross_v.iter())
            .map(|t| t.numel() * 4)
            .sum()
    }
}

/// Running event tallies. Each field maps to a registered diagnostic
/// code via [`CacheStats::code_tallies`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that adopted a resident entry (C001).
    pub hits: u64,
    /// Lookups that found nothing reusable (C002).
    pub misses: u64,
    /// Entries accepted into the cache.
    pub insertions: u64,
    /// Unpinned LRU entries dropped for space (C003).
    pub evictions: u64,
    /// Inserts left uncached: oversized or colliding (C004).
    pub bypasses: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit fraction in `0.0..=1.0` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// The tallies under their registered diagnostic codes, in code
    /// order — the cross-checkable rendering golden tests pin against
    /// `analysis::registry`.
    pub fn code_tallies(&self) -> [(&'static str, u64); 4] {
        [
            ("C001", self.hits),
            ("C002", self.misses),
            ("C003", self.evictions),
            ("C004", self.bypasses),
        ]
    }
}

/// One cache event, recorded (in event order) when the event log is
/// enabled — the raw stream golden tests pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEvent {
    /// Registered diagnostic code (`C001`/`C002`/`C003`/`C004`).
    pub code: &'static str,
    /// Content hash of the entry the event concerns.
    pub hash: u64,
}

/// One resident entry.
struct Entry {
    /// The full key tokens (collision guard: a hash match with
    /// different tokens is not a hit).
    src: Vec<u32>,
    kv: Arc<PrefixKv>,
    bytes: usize,
    /// Recency stamp: key into `lru`, bumped on every hit.
    seq: u64,
    /// Live decode slots currently referencing this entry. Pinned
    /// entries are never evicted.
    pins: usize,
}

/// A byte-bounded, deterministically evicting LRU over [`PrefixKv`]
/// entries. See the module docs for the full contract.
pub struct PrefixCache {
    cap_bytes: usize,
    /// Content hash → entry.
    entries: BTreeMap<u64, Entry>,
    /// Recency seq → content hash (ascending = least recent first).
    lru: BTreeMap<u64, u64>,
    bytes: usize,
    next_seq: u64,
    stats: CacheStats,
    /// `Some` when event logging is on (tests and goldens only; the
    /// serving path leaves it off so memory stays bounded).
    log: Option<Vec<CacheEvent>>,
}

impl PrefixCache {
    /// An empty cache bounded by `cap_bytes` of tensor payload.
    pub fn new(cap_bytes: usize) -> PrefixCache {
        PrefixCache {
            cap_bytes,
            entries: BTreeMap::new(),
            lru: BTreeMap::new(),
            bytes: 0,
            next_seq: 0,
            stats: CacheStats::default(),
            log: None,
        }
    }

    /// Enables the event log (builder style). Every hit/miss/evict/
    /// bypass is then recorded until drained with [`take_events`].
    ///
    /// [`take_events`]: PrefixCache::take_events
    pub fn with_event_log(mut self) -> PrefixCache {
        self.log = Some(Vec::new());
        self
    }

    /// The byte budget.
    pub fn cap_bytes(&self) -> usize {
        self.cap_bytes
    }

    /// Resident payload bytes; never exceeds [`cap_bytes`].
    ///
    /// [`cap_bytes`]: PrefixCache::cap_bytes
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Resident entry count.
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    /// Entries currently pinned by at least one live slot.
    pub fn pinned_entries(&self) -> usize {
        self.entries.values().filter(|e| e.pins > 0).count()
    }

    /// Running tallies.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drains the event log (empty when logging is off).
    pub fn take_events(&mut self) -> Vec<CacheEvent> {
        self.log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Whether `src` is resident (no recency bump, no stats).
    pub fn contains(&self, src: &[u32]) -> bool {
        self.entries
            .get(&prefix_hash(src))
            .is_some_and(|e| e.src == src)
    }

    fn record(&mut self, code: &'static str, hash: u64) {
        if let Some(log) = self.log.as_mut() {
            log.push(CacheEvent { code, hash });
        }
    }

    fn publish_gauges(&self) {
        if obs::enabled() {
            obs::gauge_set("serve.cache.bytes", self.bytes as f64);
            obs::gauge_set("serve.cache.entries", self.entries.len() as f64);
        }
    }

    /// Looks `src` up; a hit bumps recency, pins the entry, and returns
    /// the shared tensors plus the content hash to [`unpin`] with at
    /// retirement. A hash collision with different tokens is a miss.
    ///
    /// [`unpin`]: PrefixCache::unpin
    pub fn lookup_pin(&mut self, src: &[u32]) -> Option<(Arc<PrefixKv>, u64)> {
        let hash = prefix_hash(src);
        let next_seq = self.next_seq;
        let hit = match self.entries.get_mut(&hash) {
            Some(e) if e.src == src => {
                self.lru.remove(&e.seq);
                e.seq = next_seq;
                self.lru.insert(next_seq, hash);
                e.pins += 1;
                Some((Arc::clone(&e.kv), hash))
            }
            _ => None,
        };
        self.next_seq += 1;
        if hit.is_some() {
            self.stats.hits += 1;
            self.record("C001", hash);
            if obs::enabled() {
                obs::counter_add("serve.cache.hits", 1);
            }
        } else {
            self.stats.misses += 1;
            self.record("C002", hash);
            if obs::enabled() {
                obs::counter_add("serve.cache.misses", 1);
            }
        }
        hit.inspect(|_| self.publish_gauges())
    }

    /// Inserts the freshly computed `kv` for `src`, returning the shared
    /// tensors and — when the entry was actually cached and pinned — the
    /// content hash to [`unpin`] later. The insert is bypassed (tensors
    /// still returned, nothing cached, `None` pin) when the entry alone
    /// exceeds the byte budget, when evicting every unpinned entry still
    /// cannot make room, or when a different token sequence already owns
    /// the hash.
    ///
    /// [`unpin`]: PrefixCache::unpin
    pub fn insert_pin(&mut self, src: &[u32], kv: PrefixKv) -> (Arc<PrefixKv>, Option<u64>) {
        let hash = prefix_hash(src);
        let bytes = kv.bytes();
        let kv = Arc::new(kv);
        if let Some(existing) = self.entries.get_mut(&hash) {
            if existing.src == src {
                // Raced with itself (two misses before either insert —
                // cannot happen single-threaded, but keep it correct):
                // adopt the resident entry.
                existing.pins += 1;
                let resident = Arc::clone(&existing.kv);
                return (resident, Some(hash));
            }
            self.stats.bypasses += 1;
            self.record("C004", hash);
            if obs::enabled() {
                obs::counter_add("serve.cache.bypasses", 1);
            }
            return (kv, None);
        }
        if bytes > self.cap_bytes || !self.evict_until_fits(bytes) {
            self.stats.bypasses += 1;
            self.record("C004", hash);
            if obs::enabled() {
                obs::counter_add("serve.cache.bypasses", 1);
            }
            return (kv, None);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.insert(
            hash,
            Entry {
                src: src.to_vec(),
                kv: Arc::clone(&kv),
                bytes,
                seq,
                pins: 1,
            },
        );
        self.lru.insert(seq, hash);
        self.bytes += bytes;
        self.stats.insertions += 1;
        if obs::enabled() {
            obs::counter_add("serve.cache.insertions", 1);
        }
        self.publish_gauges();
        (kv, Some(hash))
    }

    /// Evicts unpinned entries in ascending recency order until `need`
    /// more bytes fit inside the budget; returns whether they do.
    fn evict_until_fits(&mut self, need: usize) -> bool {
        while self.bytes + need > self.cap_bytes {
            // Ascending seq = least recently used first; skip pinned.
            let victim = self
                .lru
                .iter()
                .map(|(_, &hash)| hash)
                .find(|hash| self.entries[hash].pins == 0);
            let Some(hash) = victim else {
                return false; // everything left is pinned
            };
            // hot-ok: lru and entries are updated in lockstep (audit() proves it)
            let e = self.entries.remove(&hash).expect("lru names a resident");
            self.lru.remove(&e.seq);
            self.bytes -= e.bytes;
            self.stats.evictions += 1;
            self.record("C003", hash);
            if obs::enabled() {
                obs::counter_add("serve.cache.evictions", 1);
            }
        }
        true
    }

    /// Releases one pin taken by [`lookup_pin`] or [`insert_pin`].
    /// Panics on a hash with no resident entry or no outstanding pin —
    /// both indicate broken slot bookkeeping, not a recoverable state.
    ///
    /// [`lookup_pin`]: PrefixCache::lookup_pin
    /// [`insert_pin`]: PrefixCache::insert_pin
    pub fn unpin(&mut self, hash: u64) {
        let e = self
            .entries
            .get_mut(&hash)
            .unwrap_or_else(|| panic!("unpin of non-resident entry {hash:#x}"));
        assert!(e.pins > 0, "unpin of unpinned entry {hash:#x}");
        e.pins -= 1;
    }

    /// Asserts internal consistency: byte accounting matches the entry
    /// payloads, the budget holds, and the recency index is a bijection
    /// onto the entries. Test teeth — cheap enough to call after every
    /// operation in the property suite.
    pub fn audit(&self) {
        let sum: usize = self.entries.values().map(|e| e.bytes).sum();
        assert_eq!(self.bytes, sum, "byte accounting drifted");
        assert!(
            self.bytes <= self.cap_bytes,
            "resident bytes {} exceed the budget {}",
            self.bytes,
            self.cap_bytes
        );
        assert_eq!(self.lru.len(), self.entries.len(), "lru/entry mismatch");
        for (&seq, hash) in &self.lru {
            let e = &self.entries[hash];
            assert_eq!(e.seq, seq, "recency index names the wrong seq");
            assert_eq!(e.bytes, e.kv.bytes(), "entry bytes drifted");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(fill: f32, rows: usize) -> PrefixKv {
        PrefixKv {
            cross_k: vec![Tensor::filled(vec![rows, 2], fill)],
            cross_v: vec![Tensor::filled(vec![rows, 2], fill + 0.5)],
        }
    }

    #[test]
    fn hash_is_content_determined_and_length_sensitive() {
        assert_eq!(prefix_hash(&[1, 2, 3]), prefix_hash(&[1, 2, 3]));
        assert_ne!(prefix_hash(&[1, 2, 3]), prefix_hash(&[1, 2]));
        assert_ne!(prefix_hash(&[1, 2, 3]), prefix_hash(&[3, 2, 1]));
        assert_ne!(prefix_hash(&[]), prefix_hash(&[0]));
    }

    #[test]
    fn insert_then_lookup_hits_with_identical_bits() {
        let mut c = PrefixCache::new(1 << 20);
        let (_, pin) = c.insert_pin(&[4, 5], kv(1.25, 3));
        c.unpin(pin.expect("cached"));
        let (got, pin) = c.lookup_pin(&[4, 5]).expect("resident entry hits");
        let want = kv(1.25, 3);
        for (a, b) in got.cross_k.iter().zip(want.cross_k.iter()) {
            assert_eq!(a.data().len(), b.data().len());
            for (x, y) in a.data().iter().zip(b.data().iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        c.unpin(pin);
        assert_eq!(c.stats().hits, 1);
        c.audit();
    }

    #[test]
    fn eviction_is_lru_and_skips_pinned() {
        // Each entry is 3*2*4*2 = 48 bytes; budget fits two.
        let mut c = PrefixCache::new(96);
        let (_, pin_a) = c.insert_pin(&[1], kv(1.0, 3));
        let (_, pin_b) = c.insert_pin(&[2], kv(2.0, 3));
        c.unpin(pin_b.unwrap());
        // A stays pinned; inserting C must evict B (the only unpinned).
        let (_, pin_c) = c.insert_pin(&[3], kv(3.0, 3));
        assert!(pin_c.is_some(), "room was made");
        assert!(c.contains(&[1]), "pinned entry survived");
        assert!(!c.contains(&[2]), "unpinned LRU entry evicted");
        assert_eq!(c.stats().evictions, 1);
        // With everything pinned, a further insert is bypassed.
        let (_, pin_d) = c.insert_pin(&[4], kv(4.0, 3));
        assert!(pin_d.is_none(), "all-pinned cache bypasses");
        assert_eq!(c.stats().bypasses, 1);
        c.unpin(pin_a.unwrap());
        c.unpin(pin_c.unwrap());
        c.audit();
    }

    #[test]
    fn oversized_entry_is_bypassed_not_overcommitted() {
        let mut c = PrefixCache::new(16);
        let (kv_back, pin) = c.insert_pin(&[9], kv(1.0, 64));
        assert!(pin.is_none());
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.entries(), 0);
        // The tensors still came back usable.
        assert_eq!(kv_back.cross_k[0].shape(), &[64, 2]);
        c.audit();
    }

    #[test]
    fn recency_bump_on_hit_changes_the_victim() {
        let mut c = PrefixCache::new(96);
        let (_, pa) = c.insert_pin(&[1], kv(1.0, 3));
        let (_, pb) = c.insert_pin(&[2], kv(2.0, 3));
        c.unpin(pa.unwrap());
        c.unpin(pb.unwrap());
        // Touch A so B becomes least recent.
        let (_, pin) = c.lookup_pin(&[1]).unwrap();
        c.unpin(pin);
        let (_, pc) = c.insert_pin(&[3], kv(3.0, 3));
        c.unpin(pc.unwrap());
        assert!(c.contains(&[1]), "recently touched entry survives");
        assert!(!c.contains(&[2]), "stale entry evicted");
        c.audit();
    }

    #[test]
    fn event_log_records_the_code_stream() {
        let mut c = PrefixCache::new(48).with_event_log();
        assert!(c.lookup_pin(&[1]).is_none());
        let (_, pin) = c.insert_pin(&[1], kv(1.0, 3));
        c.unpin(pin.unwrap());
        let (_, pin2) = c.insert_pin(&[2], kv(2.0, 3)); // evicts [1]
        c.unpin(pin2.unwrap());
        let codes: Vec<&str> = c.take_events().iter().map(|e| e.code).collect();
        assert_eq!(codes, ["C002", "C003"]);
        assert!(c.take_events().is_empty(), "log drains");
    }

    #[test]
    #[should_panic(expected = "unpin of non-resident entry")]
    fn unpin_of_unknown_hash_panics() {
        PrefixCache::new(64).unpin(7);
    }
}
