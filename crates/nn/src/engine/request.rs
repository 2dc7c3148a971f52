//! Request and response types for the engine.
//!
//! A [`Request`] is what the scheduler works with: token ids plus
//! scheduling metadata (priority, deadline) and a [`RequestTag`]. The
//! text-level constructor [`Request::from_task`] renders and tokenizes a
//! request through an [`EncodeRequest`] impl, so clients submit raw
//! questions/queries/tables and the serving path owns the whole text →
//! tokens pipeline.
//!
//! Every admitted or rejected request produces exactly one [`Response`];
//! nothing is silently dropped. Rejections are typed ([`Rejection`]) and
//! each variant carries a registered diagnostic code (`R001`–`R005`, see
//! `analysis::registry` and the DESIGN.md lint-code table), so rejection
//! tallies are auditable the same way lint tallies are.

use std::fmt::Debug;

/// What a request is tagged with: the task it targets when serving
/// (`core`'s `Task`), `()` in eval. The engine keys its per-tag tallies
/// by it and prints its `label`.
pub trait RequestTag: Copy + Ord + Debug {
    /// A stable label (admission log, fingerprint, obs counter names).
    fn label(&self) -> &'static str;
}

/// Eval's batched decoders tag nothing.
impl RequestTag for () {
    fn label(&self) -> &'static str {
        "untagged"
    }
}

/// A text-level request that renders and tokenizes itself: the input of
/// [`Request::from_task`]. `core` implements it for its `TaskRequest`.
pub trait EncodeRequest {
    type Tag: RequestTag;
    type Tokenizer;
    /// The tag the request is served under.
    fn tag(&self) -> Self::Tag;
    /// The encoder input: the rendered text, tokenized with a trailing
    /// EOS.
    fn encode(&self, tok: &Self::Tokenizer) -> Vec<u32>;
}

/// Scheduling priority: lower values are served first; within one
/// priority the queue is strictly FIFO by arrival sequence.
pub type Priority = u8;

/// Virtual-time constant meaning "no deadline".
pub const NO_DEADLINE: u64 = u64::MAX;

/// One request as the scheduler sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request<T> {
    /// Caller-assigned identifier, echoed in the response. Must be unique
    /// within one engine run.
    pub id: u64,
    /// The request's tag: the task it targets when serving (per-task
    /// fairness accounting; the engine itself is task-agnostic).
    pub task: T,
    /// Encoder input token ids. An empty source is normalized to a lone
    /// EOS marker at admission (mirroring `encode_with_eos`, which never
    /// produces an empty sequence).
    pub src: Vec<u32>,
    /// Scheduling priority; 0 is the highest.
    pub priority: Priority,
    /// Absolute virtual-clock deadline in nanoseconds ([`NO_DEADLINE`]
    /// for none). A request past its deadline is retired with a typed
    /// rejection whether it is still queued (R002) or mid-decode (R003).
    pub deadline_ns: u64,
}

impl<T> Request<T> {
    /// A plain request with default priority and no deadline.
    pub fn new(id: u64, task: T, src: Vec<u32>) -> Request<T> {
        Request {
            id,
            task,
            src,
            priority: 0,
            deadline_ns: NO_DEADLINE,
        }
    }

    /// Builds a request from a text-level request: renders its input
    /// encoding (for `core`'s `TaskRequest`, running schema filtration on
    /// the request's own question/query) and tokenizes it with a
    /// trailing EOS.
    pub fn from_task<S: EncodeRequest<Tag = T>>(
        id: u64,
        req: &S,
        tok: &S::Tokenizer,
    ) -> Request<T> {
        Request::new(id, req.tag(), req.encode(tok))
    }

    /// Sets the priority (builder style).
    pub fn with_priority(mut self, priority: Priority) -> Request<T> {
        self.priority = priority;
        self
    }

    /// Sets the absolute deadline (builder style).
    pub fn with_deadline(mut self, deadline_ns: u64) -> Request<T> {
        self.deadline_ns = deadline_ns;
        self
    }
}

/// Why a request was retired without completing. Every variant maps to a
/// registered diagnostic code so rejection tallies line up with the
/// workspace-wide code registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The bounded admission queue was full at arrival (backpressure).
    QueueFull,
    /// The deadline passed while the request was still queued.
    DeadlineQueued,
    /// The deadline passed mid-decode; the response keeps the tokens
    /// emitted before expiry.
    DeadlineDecoding,
    /// The engine shut down while the request was queued or in flight.
    Shutdown,
    /// A scheduler/batcher invariant violation poisoned the engine
    /// ([`EngineError`](super::EngineError)); the request was drained
    /// with this typed response — partial tokens kept — instead of dying
    /// in a panic.
    Internal,
}

impl Rejection {
    /// The registered diagnostic code for this rejection kind.
    pub fn code(self) -> &'static str {
        match self {
            Rejection::QueueFull => "R001",
            Rejection::DeadlineQueued => "R002",
            Rejection::DeadlineDecoding => "R003",
            Rejection::Shutdown => "R004",
            Rejection::Internal => "R005",
        }
    }

    /// A stable human-readable label (used in logs and fingerprints).
    pub fn label(self) -> &'static str {
        match self {
            Rejection::QueueFull => "queue-full",
            Rejection::DeadlineQueued => "deadline-queued",
            Rejection::DeadlineDecoding => "deadline-decoding",
            Rejection::Shutdown => "shutdown",
            Rejection::Internal => "internal-error",
        }
    }
}

/// Terminal state of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Decoded to EOS (or the output-length cap).
    Completed,
    /// Retired with a typed rejection.
    Rejected(Rejection),
}

/// The engine's answer for one request — completed or rejected, never
/// silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response<T> {
    pub id: u64,
    pub task: T,
    pub outcome: Outcome,
    /// Tokens emitted before the terminal event (the full output for
    /// completions, a partial prefix for mid-decode rejections).
    pub tokens: Vec<u32>,
    /// Virtual time the request arrived at the front door.
    pub arrival_ns: u64,
    /// Virtual time of the terminal event; `finished_ns - arrival_ns` is
    /// the latency the percentile metrics aggregate.
    pub finished_ns: u64,
}

impl<T> Response<T> {
    /// Request latency (arrival to terminal event).
    pub fn latency_ns(&self) -> u64 {
        self.finished_ns.saturating_sub(self.arrival_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejection_codes_are_distinct_and_stable() {
        let all = [
            Rejection::QueueFull,
            Rejection::DeadlineQueued,
            Rejection::DeadlineDecoding,
            Rejection::Shutdown,
            Rejection::Internal,
        ];
        let codes: Vec<&str> = all.iter().map(|r| r.code()).collect();
        assert_eq!(codes, ["R001", "R002", "R003", "R004", "R005"]);
        let mut labels: Vec<&str> = all.iter().map(|r| r.label()).collect();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn builder_setters_apply() {
        let r = Request::new(7, (), vec![1, 2, 3])
            .with_priority(2)
            .with_deadline(500);
        assert_eq!(r.priority, 2);
        assert_eq!(r.deadline_ns, 500);
        assert_eq!(r.id, 7);
    }
}
