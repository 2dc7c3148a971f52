//! Neural-network substrate: layers, sequence models, optimization, and
//! decoding.
//!
//! Everything DataVisT5 trains is built here on top of the [`tensor`]
//! autodiff tape:
//!
//! * [`param`] — named parameter storage with Adam state, freezing (for
//!   LoRA), and checkpoint snapshot/restore;
//! * [`ckpt`] — the crash-safe checkpoint-v2 format: CRC32-checksummed,
//!   atomically written (tmp + fsync + rename, last-good rotation), with
//!   optimizer/RNG/data-cursor state for bit-identical resume and a
//!   fault-injection I/O layer;
//! * [`optim`] — AdamW with global-norm gradient clipping and the linear
//!   warmup/decay schedule the paper trains with;
//! * [`layers`] — Linear, Embedding, RMSNorm, feed-forward, multi-head
//!   attention with T5 relative-position buckets;
//! * [`t5`] — the T5-style encoder–decoder (pre-norm, shared relative bias,
//!   tied embeddings) and its teacher-forced tape forward;
//! * [`batch`] — the T5 inference engine, the one KV-cached incremental
//!   decoder: concurrent decodes packed into shared `[N, d]` matmuls,
//!   bit-identical to the tape forward, with continuous slot-based
//!   batching and slot forks for beam search;
//! * [`engine`] — the one continuous batcher's scheduler: bounded
//!   admission queue, deadlines with typed rejections, a per-request pick
//!   policy, and a deterministic report; `serve` serves on it and eval's
//!   batched decoders run on it;
//! * [`prefix_cache`] — the cross-request encoder-output cache: decoder
//!   cross-attention K/V blocks keyed by a content hash of the
//!   standardized input, byte-bounded with deterministic LRU eviction
//!   and pinning, bit-invisible to decoded tokens;
//! * [`lstm`] — the attention LSTM seq2seq used by the Seq2Vis baseline;
//! * [`lora`] — low-rank adapters over frozen linear weights;
//! * [`decode`] — greedy, beam, and grammar-constrained decoders;
//! * [`train`] — a seq2seq training loop with gradient accumulation.

pub mod batch;
pub mod ckpt;
pub mod decode;
pub mod engine;
pub mod layers;
pub mod lora;
pub mod lstm;
pub mod optim;
pub mod param;
pub mod prefix_cache;
pub mod t5;
pub mod train;

pub use batch::BatchedDecodeState;
pub use ckpt::{CheckpointIo, CkptError, FaultIo, FaultMode, FaultPlan, StdIo};
pub use decode::{batched_greedy_decode, beam_decode, greedy_decode};
pub use optim::{AdamW, LrSchedule};
pub use param::{ParamId, ParamSet};
pub use prefix_cache::{prefix_hash, CacheStats, PrefixCache, PrefixKv};
pub use t5::{T5Config, T5Model};
