//! Telescope: the observability layer — hierarchical tracing spans, typed
//! metrics (counters / gauges / histograms), a per-op kernel profiler,
//! and structured sinks (JSONL + Chrome `trace_event`).
//!
//! # Zero overhead when off
//!
//! The layer is gated on the `DATAVIST5_OBS` environment variable (any
//! non-empty value other than `"0"`), or programmatically via
//! [`set_enabled`]. When off, every entry point returns before reading
//! the clock, allocating, or taking the collector lock — instrumented
//! code pays one relaxed atomic load per call site. `ci.sh` enforces this
//! with an overhead smoke test (obs-off throughput within 2% of a
//! recorded baseline).
//!
//! # Determinism
//!
//! All wall-clock reads go through [`clock::now_ns`], the single audited
//! `det-ok:` site for lint D003. Timestamps are attached to events but
//! never feed computation, so two identical runs with the layer enabled
//! stay bitwise-equal in weights and losses, and their event streams are
//! equal after [`Event::strip_timing`]. Aggregates use `BTreeMap`
//! exclusively, so snapshot iteration order is deterministic (lint D001).
//!
//! # Usage
//!
//! ```no_run
//! obs::set_enabled(true);
//! let _run = obs::span!("train");
//! {
//!     let _step = obs::span!("step"); // path: "train/step"
//!     obs::counter_add("train.tokens", 128);
//!     obs::gauge_set("train.loss", 3.25);
//! }
//! drop(_run);
//! let snap = obs::snapshot();
//! assert_eq!(snap.counters["train.tokens"], 128);
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, Once};

pub mod clock;
pub mod event;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod sink;
pub mod span;

pub use event::{Event, Level, Payload};
pub use metrics::Histogram;
pub use profile::{KernelEntry, KernelStat, Phase};
pub use span::SpanGuard;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

/// Whether the layer is recording. First call seeds the flag from the
/// `DATAVIST5_OBS` environment variable; [`set_enabled`] overrides it for
/// the rest of the process.
pub fn enabled() -> bool {
    ENV_INIT.call_once(|| {
        let on =
            matches!(std::env::var("DATAVIST5_OBS").as_deref(), Ok(v) if !v.is_empty() && v != "0");
        // par-ok: on/off flag for telemetry only; a stale read skips or adds a sample, never alters computation
        ENABLED.store(on, Ordering::Relaxed);
    });
    // par-ok: telemetry flag read; observability must stay zero-overhead, and stale reads only affect sampling
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off programmatically, overriding the
/// environment (used by `obs_report` and the test suite).
pub fn set_enabled(on: bool) {
    ENV_INIT.call_once(|| {});
    // par-ok: telemetry flag toggle from tests and obs_report; never guards data used by kernels
    ENABLED.store(on, Ordering::Relaxed);
}

/// Per-span aggregate: close count, total wall time, and the tape ops /
/// FLOP estimates attributed while the span was innermost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    pub ops: u64,
    pub flops: u64,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct KernelKey {
    span: String,
    op: &'static str,
    phase: Phase,
}

#[derive(Default)]
struct Collector {
    seq: u64,
    events: Vec<Event>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanStat>,
    kernels: BTreeMap<KernelKey, KernelStat>,
}

impl Collector {
    const fn new() -> Collector {
        Collector {
            seq: 0,
            events: Vec::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            spans: BTreeMap::new(),
            kernels: BTreeMap::new(),
        }
    }

    fn push_event(&mut self, ts_ns: u64, payload: Payload) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Event {
            seq,
            ts_ns,
            payload,
        });
    }
}

static COLLECTOR: Mutex<Collector> = Mutex::new(Collector::new());

fn collector() -> MutexGuard<'static, Collector> {
    // A panic while holding the lock (e.g. a should-panic span test)
    // poisons it; the data is plain aggregates, so recover.
    COLLECTOR
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

pub(crate) fn record_event(payload: Payload) {
    let ts = clock::now_ns();
    collector().push_event(ts, payload);
}

pub(crate) fn close_span(path: String, dur_ns: u64) {
    let ts = clock::now_ns();
    let mut c = collector();
    let stat = c.spans.entry(path.clone()).or_default();
    stat.count += 1;
    stat.total_ns = stat.total_ns.saturating_add(dur_ns);
    c.push_event(ts, Payload::SpanClose { path, dur_ns });
}

pub(crate) fn record_kernel_sample(
    span: String,
    op: &'static str,
    phase: Phase,
    ns: u64,
    bytes: u64,
    flops: u64,
) {
    let mut c = collector();
    let stat = c.spans.entry(span.clone()).or_default();
    stat.ops += 1;
    stat.flops = stat.flops.saturating_add(flops);
    let k = c.kernels.entry(KernelKey { span, op, phase }).or_default();
    k.calls += 1;
    k.ns = k.ns.saturating_add(ns);
    k.bytes = k.bytes.saturating_add(bytes);
    k.flops = k.flops.saturating_add(flops);
}

/// Adds `delta` to the named counter and records a counter event carrying
/// the new running total. No-op when disabled.
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let ts = clock::now_ns();
    let mut c = collector();
    let total = {
        let t = c.counters.entry(name.to_string()).or_insert(0);
        *t = t.saturating_add(delta);
        *t
    };
    c.push_event(
        ts,
        Payload::Counter {
            name: name.to_string(),
            delta,
            total,
        },
    );
}

/// Sets the named gauge to an instantaneous value. No-op when disabled.
pub fn gauge_set(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    let ts = clock::now_ns();
    let mut c = collector();
    c.gauges.insert(name.to_string(), value);
    c.push_event(
        ts,
        Payload::Gauge {
            name: name.to_string(),
            value,
        },
    );
}

/// Records a duration sample into the named fixed-bucket histogram.
/// No-op when disabled.
pub fn observe_ns(name: &str, ns: u64) {
    if !enabled() {
        return;
    }
    let ts = clock::now_ns();
    let mut c = collector();
    c.histograms
        .entry(name.to_string())
        .or_default()
        .observe(ns);
    c.push_event(
        ts,
        Payload::Observe {
            name: name.to_string(),
            ns,
        },
    );
}

fn message(level: Level, scope: &str, text: &str) {
    // Stderr printing is unconditional: the obs layer replaces scattered
    // `eprintln!` diagnostics, and those must keep printing when the
    // layer is off.
    eprintln!("[{scope}] {text}");
    if !enabled() {
        return;
    }
    let ts = clock::now_ns();
    collector().push_event(
        ts,
        Payload::Message {
            level,
            scope: scope.to_string(),
            text: text.to_string(),
        },
    );
}

/// Logs an informational line to stderr as `[scope] text`; also recorded
/// as a structured event when the layer is enabled.
pub fn info(scope: &str, text: impl AsRef<str>) {
    message(Level::Info, scope, text.as_ref());
}

/// Logs a warning (see [`info`] for sink behaviour).
pub fn warn(scope: &str, text: impl AsRef<str>) {
    message(Level::Warn, scope, text.as_ref());
}

/// Logs an error (see [`info`] for sink behaviour).
pub fn error(scope: &str, text: impl AsRef<str>) {
    message(Level::Error, scope, text.as_ref());
}

/// Wall-time stopwatch that is inert when the layer is disabled: `start`
/// reads the clock only when recording, and `stop` returns `None` when it
/// did not.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start_ns: Option<u64>,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            start_ns: enabled().then(clock::now_ns),
        }
    }

    /// Elapsed nanoseconds since `start`, or `None` if the layer was
    /// disabled at start time.
    pub fn stop(&self) -> Option<u64> {
        self.start_ns.map(|t0| clock::now_ns().saturating_sub(t0))
    }

    /// Records the elapsed time into the named histogram (and an observe
    /// event). Returns the sample for callers that also want the value.
    pub fn observe(&self, name: &str) -> Option<u64> {
        let ns = self.stop()?;
        observe_ns(name, ns);
        Some(ns)
    }
}

/// A point-in-time copy of everything the collector has aggregated.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub events: Vec<Event>,
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, Histogram>,
    pub spans: BTreeMap<String, SpanStat>,
    /// Flattened kernel rows, sorted by (span, op, phase).
    pub kernels: Vec<KernelEntry>,
}

impl Snapshot {
    /// Aggregates the flattened kernel rows across spans into
    /// per-`(op, phase)` totals, from which per-kernel FLOP/s and bytes/s
    /// follow over the summed time. `BTreeMap` keyed, so iteration order
    /// is deterministic.
    pub fn kernel_totals(&self) -> BTreeMap<(String, Phase), KernelStat> {
        let mut totals: BTreeMap<(String, Phase), KernelStat> = BTreeMap::new();
        for entry in &self.kernels {
            let slot = totals.entry((entry.op.clone(), entry.phase)).or_default();
            slot.calls += entry.stat.calls;
            slot.ns += entry.stat.ns;
            slot.bytes += entry.stat.bytes;
            slot.flops += entry.stat.flops;
        }
        totals
    }
}

/// Clones the current collector state.
pub fn snapshot() -> Snapshot {
    let c = collector();
    Snapshot {
        events: c.events.clone(),
        counters: c.counters.clone(),
        gauges: c.gauges.clone(),
        histograms: c.histograms.clone(),
        spans: c.spans.clone(),
        kernels: c
            .kernels
            .iter()
            .map(|(key, stat)| KernelEntry {
                span: key.span.clone(),
                op: key.op.to_string(),
                phase: key.phase,
                stat: *stat,
            })
            .collect(),
    }
}

/// Clears all recorded events and aggregates, resets the sequence
/// counter, and clears the calling thread's span stack.
pub fn reset() {
    span::clear_stack();
    let mut c = collector();
    *c = Collector::new();
}
