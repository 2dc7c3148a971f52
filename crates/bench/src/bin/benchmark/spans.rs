//! Spans recorded from outside the program, around its public calls.
//!
//! A [`Span`] has a name, a start and an end on one [`Clock`], the span
//! that was open when it began (its parent) and the request or training
//! step it belongs to. Spans stay in memory and are written out once, as
//! JSON lines, when the run ends. [`TracedDecoder`] wraps the batcher the
//! serving engine drives, so admissions, packed steps and retirements get
//! spans without any change inside the engine.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use nn::batch::SlotEvent;
use nn::prefix_cache::CacheStats;
use serve::BatchDecoder;

use crate::flops::FlopModel;

/// Nanoseconds since a fixed start; every time in one run comes from one
/// clock.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// No parent, or no request.
pub const NONE: u64 = u64::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u64,
    /// Request id (serving) or optimizer step (fine-tuning), or [`NONE`].
    pub req: u64,
    /// Items the call handled: source tokens, packed rows, tokens.
    pub n: u64,
    /// Computed FLOPs of the call (see [`crate::flops`]).
    pub flops: u64,
    /// Bytes the call left resident or wrote.
    pub bytes: u64,
}

impl Span {
    pub fn new(name: &'static str, start_ns: u64, end_ns: u64, req: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent: NONE,
            req,
            n: 0,
            flops: 0,
            bytes: 0,
        }
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. Single-threaded; shared by reference between
/// the load generator and the [`TracedDecoder`] inside the engine.
pub struct Tracer {
    clock: Clock,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u64>>,
}

impl Tracer {
    pub fn new(clock: Clock) -> Tracer {
        Tracer {
            clock,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Starts a span that later spans nest under until [`close`](Self::close).
    pub fn open(&self, name: &'static str, req: u64) -> u64 {
        let span = Span::new(name, self.now(), 0, req);
        let idx = self.record(span);
        self.open.borrow_mut().push(idx);
        idx
    }

    pub fn close(&self, idx: u64) {
        let end = self.now();
        let popped = self.open.borrow_mut().pop();
        assert_eq!(popped, Some(idx), "spans must close innermost first");
        self.spans.borrow_mut()[idx as usize].end_ns = end;
    }

    /// Stores a finished span under the innermost open span; returns its
    /// index.
    pub fn record(&self, mut span: Span) -> u64 {
        span.parent = self.open.borrow().last().copied().unwrap_or(NONE);
        let mut spans = self.spans.borrow_mut();
        spans.push(span);
        spans.len() as u64 - 1
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.borrow().is_empty(), "a span was left open");
        self.spans.into_inner()
    }
}

/// Each span's duration minus the time its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NONE {
            child[s.parent as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// The part of `[start, end)` that top-level spans cover: the layers'
/// summed self time, since every span is a call into some layer.
pub fn coverage(spans: &[Span], start: u64, end: u64) -> f64 {
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == NONE && s.start_ns >= start && s.end_ns <= end)
        .map(Span::dur_ns)
        .sum();
    covered as f64 / end.saturating_sub(start).max(1) as f64
}

/// Writes one JSON object per span.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let opt = |v: u64| {
        if v == NONE {
            "null".to_string()
        } else {
            v.to_string()
        }
    };
    let mut out = String::with_capacity(spans.len() * 128);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{},\
             \"n\":{},\"flops\":{},\"bytes\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            opt(s.req),
            s.n,
            s.flops,
            s.bytes
        );
    }
    std::fs::write(path, out)
}

/// The request resident in one batcher slot.
#[derive(Debug, Clone, Copy)]
struct Resident {
    admission: u64,
    src_len: u64,
    steps: u64,
}

/// A [`BatchDecoder`] that forwards every call to `inner` and records a
/// span around admissions, packed steps and retirements.
///
/// Admission spans carry the admission index as their request: the
/// engine's admission log maps it to the request id after the run.
pub struct TracedDecoder<'t, D> {
    inner: D,
    tracer: &'t Tracer,
    flops: FlopModel,
    slots: Vec<Option<Resident>>,
    admissions: u64,
    /// End of the step that produced each admission's first token.
    first_token_ns: Vec<u64>,
}

impl<'t, D: BatchDecoder> TracedDecoder<'t, D> {
    pub fn new(inner: D, tracer: &'t Tracer, flops: FlopModel) -> Self {
        let capacity = inner.capacity();
        TracedDecoder {
            inner,
            tracer,
            flops,
            slots: vec![None; capacity],
            admissions: 0,
            first_token_ns: Vec::new(),
        }
    }

    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// First-token times by admission index (0 until that step ran).
    pub fn first_token_ns(&self) -> &[u64] {
        &self.first_token_ns
    }
}

impl<D: BatchDecoder> BatchDecoder for TracedDecoder<'_, D> {
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn admit(&mut self, src: &[u32]) -> Option<usize> {
        let before = self.inner.prefix_cache_stats();
        let start = self.tracer.now();
        let slot = self.inner.admit(src);
        let end = self.tracer.now();
        let hit = match (before, self.inner.prefix_cache_stats()) {
            (Some(b), Some(a)) => a.hits > b.hits,
            _ => false,
        };
        let admission = self.admissions;
        self.admissions += 1;
        self.first_token_ns.push(0);
        let src_len = src.len() as u64;
        if let Some(s) = slot {
            self.slots[s] = Some(Resident {
                admission,
                src_len,
                steps: 0,
            });
        }
        let name = if hit {
            "batch.admit_hit"
        } else {
            "batch.admit_miss"
        };
        self.tracer.record(Span {
            n: src_len,
            flops: if hit { 0 } else { self.flops.prefill(src_len) },
            ..Span::new(name, start, end, admission)
        });
        slot
    }

    fn retire(&mut self, slot: usize) {
        let start = self.tracer.now();
        self.inner.retire(slot);
        let end = self.tracer.now();
        let req = self.slots[slot].take().map_or(NONE, |r| r.admission);
        self.tracer
            .record(Span::new("batch.retire", start, end, req));
    }

    fn step_packed_into(&mut self, active: &[(usize, u32)], out: &mut Vec<Vec<f32>>) {
        let mut flops = 0;
        for &(slot, _) in active {
            if let Some(r) = self.slots[slot].as_ref() {
                flops += self.flops.decode_row(r.steps + 1, r.src_len);
            }
        }
        let start = self.tracer.now();
        self.inner.step_packed_into(active, out);
        let end = self.tracer.now();
        for &(slot, _) in active {
            if let Some(r) = self.slots[slot].as_mut() {
                if r.steps == 0 {
                    self.first_token_ns[r.admission as usize] = end;
                }
                r.steps += 1;
            }
        }
        self.tracer.record(Span {
            n: active.len() as u64,
            flops,
            bytes: self.inner.cache_bytes() as u64,
            ..Span::new("batch.step", start, end, NONE)
        });
    }

    fn reserve_steps(&mut self, max_steps: usize) {
        self.inner.reserve_steps(max_steps)
    }

    fn cache_bytes(&self) -> usize {
        self.inner.cache_bytes()
    }

    fn take_slot_events(&mut self) -> Vec<SlotEvent> {
        self.inner.take_slot_events()
    }

    fn prefix_cache_stats(&self) -> Option<CacheStats> {
        self.inner.prefix_cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_and_coverage_counts_roots() {
        let mut child = Span::new("batch.step", 120, 170, NONE);
        child.parent = 0;
        let spans = [
            Span::new("serve.tick", 100, 200, NONE),
            child,
            Span::new("serve.drain", 200, 210, NONE),
        ];
        assert_eq!(self_times(&spans), vec![50, 50, 10]);
        assert!((coverage(&spans, 100, 220) - 110.0 / 120.0).abs() < 1e-12);
    }

    #[test]
    fn open_spans_parent_the_spans_recorded_inside_them() {
        let t = Tracer::new(Clock::start());
        let outer = t.open("serve.tick", NONE);
        let inner = t.record(Span::new("batch.step", 0, 0, NONE));
        t.close(outer);
        let after = t.record(Span::new("serve.drain", 0, 0, NONE));
        let spans = t.into_spans();
        assert_eq!(spans[inner as usize].parent, outer);
        assert_eq!(spans[after as usize].parent, NONE);
        assert!(spans[outer as usize].end_ns >= spans[outer as usize].start_ns);
    }
}
