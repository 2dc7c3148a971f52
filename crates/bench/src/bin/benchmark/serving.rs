//! Closed-loop serving: `serve-short`, `serve-long` and `serve-reuse`.
//!
//! Sixteen clients each send their next request as soon as the previous
//! response is drained, so at most sixteen requests are ever outstanding.
//! One thread is both the load generator and the engine's driver: it
//! injects the wall clock with `advance_to` (virtual step and admission
//! costs are zero), ticks, and drains.

use std::path::Path;

use nn::batch::BatchedDecodeState;
use nn::prefix_cache::{CacheStats, PrefixCache};
use serve::{
    BatchDecoder, EngineError, Outcome as Served, ServeConfig, ServeEngine, ServeReport,
    ServeRequest,
};
use tokenizer::special::EOS;

use crate::flops::FlopModel;
use crate::setup::Setup;
use crate::spans::{self, Clock, Span, TracedDecoder, Tracer, NONE};
use crate::workload::{mean, median, metric, Generator, Outcome, RequestPool, Shape};

/// Closed-loop clients, each with one request outstanding: two per slot,
/// so that every request waits for exactly one round of decodes.
pub const CLIENTS: usize = 16;
/// Batcher slots: the eval path's decode batch.
const SLOTS: usize = 8;
const CACHE_BYTES: usize = 32 << 20;
/// Above the most requests the clients can queue, so nothing is refused
/// for space.
const QUEUE_CAP: usize = 16;
/// Every this many timed requests is decoded again alone.
const RECHECK_EVERY: u64 = 50;

fn config(queue_cap: usize, max_out: usize) -> ServeConfig {
    ServeConfig {
        queue_cap,
        max_out,
        eos: EOS,
        step_cost_ns: 0,
        admit_cost_ns: 0,
    }
}

/// What one closed-loop pass measured. Times are on the pass's clock.
#[derive(Debug)]
pub struct LoopRun {
    /// Send time by request id.
    pub sent_ns: Vec<u64>,
    /// Drain time of the response, by request id.
    pub done_ns: Vec<u64>,
    /// The timed window: from sending the first timed request until
    /// `seconds` later. Clients send nothing after it.
    pub window: (u64, u64),
    pub max_outstanding: usize,
    pub end_ns: u64,
    /// Prefix-cache tallies when the window opened.
    pub cache_at_window: Option<CacheStats>,
    pub error: Option<EngineError>,
}

struct Driver<'t> {
    clock: Clock,
    tracer: Option<&'t Tracer>,
    warmup: u64,
    window_ns: u64,
    run: LoopRun,
    outstanding: usize,
}

impl Driver<'_> {
    fn send<D: BatchDecoder>(
        &mut self,
        engine: &mut ServeEngine<D>,
        make: &mut impl FnMut(u64) -> ServeRequest,
    ) {
        let id = self.run.sent_ns.len() as u64;
        let sent = self.clock.now();
        if id == self.warmup {
            self.run.window = (sent, sent + self.window_ns);
            self.run.cache_at_window = engine.decoder().prefix_cache_stats();
        }
        let req = make(id);
        let submit = self.clock.now();
        engine.submit_at(sent, req);
        if let Some(t) = self.tracer {
            t.record(Span::new("serve.submit", submit, t.now(), id));
        }
        self.run.sent_ns.push(sent);
        self.run.done_ns.push(0);
        self.outstanding += 1;
        self.run.max_outstanding = self.run.max_outstanding.max(self.outstanding);
    }

    fn sending(&self, t: u64) -> bool {
        self.run.sent_ns.len() as u64 <= self.warmup || t < self.run.window.1
    }
}

/// Runs `clients` closed-loop clients against `engine` until `seconds`
/// after the first timed request (id `warmup`) was sent, then drains.
/// `make(id)` builds request `id`.
pub fn closed_loop<D: BatchDecoder>(
    engine: &mut ServeEngine<D>,
    clients: usize,
    warmup: u64,
    seconds: f64,
    clock: Clock,
    tracer: Option<&Tracer>,
    mut make: impl FnMut(u64) -> ServeRequest,
) -> LoopRun {
    let mut d = Driver {
        clock,
        tracer,
        warmup,
        window_ns: (seconds * 1e9) as u64,
        run: LoopRun {
            sent_ns: Vec::new(),
            done_ns: Vec::new(),
            window: (0, 0),
            max_outstanding: 0,
            end_ns: 0,
            cache_at_window: None,
            error: None,
        },
        outstanding: 0,
    };
    for _ in 0..clients {
        d.send(engine, &mut make);
    }
    while d.outstanding > 0 {
        engine.advance_to(clock.now());
        let tick = tracer.map(|t| t.open("serve.tick", NONE));
        let ticked = engine.tick();
        if let (Some(t), Some(idx)) = (tracer, tick) {
            t.close(idx);
        }
        if let Err(e) = ticked {
            // The engine answered every request with R005 and refuses
            // more: stop sending and let the loop drain.
            d.run.error.get_or_insert(e);
        }
        let drain = clock.now();
        let responses = engine.drain_responses();
        if let Some(t) = tracer {
            let mut span = Span::new("serve.drain", drain, t.now(), NONE);
            span.n = responses.len() as u64;
            t.record(span);
        }
        for resp in responses {
            let now = clock.now();
            d.outstanding -= 1;
            d.run.done_ns[resp.id as usize] = now;
            if d.run.error.is_none() && d.sending(now) {
                d.send(engine, &mut make);
            }
        }
    }
    d.run.end_ns = clock.now();
    d.run
}

/// Hash over the responses of requests `0..below`, in id order.
fn digest(report: &ServeReport, below: u64) -> u64 {
    let mut words = Vec::new();
    for r in report.responses.iter().take_while(|r| r.id < below) {
        words.extend([r.id as u32, (r.outcome == Served::Completed) as u32]);
        words.push(r.tokens.len() as u32);
        words.extend(&r.tokens);
    }
    nn::prefix_hash(&words)
}

/// Sorted send-to-drain latencies of the timed requests that completed.
fn latencies(run: &LoopRun, report: &ServeReport, warmup: u64) -> Vec<u64> {
    let mut out: Vec<u64> = report
        .responses
        .iter()
        .filter(|r| r.id >= warmup && r.outcome == Served::Completed)
        .map(|r| run.done_ns[r.id as usize] - run.sent_ns[r.id as usize])
        .collect();
    out.sort_unstable();
    out
}

/// Sub-windows the timed window is cut into. The end-to-end numbers are
/// medians over them: interference from other programs on the machine
/// that slows a few seconds of a run moves a few sub-windows, not the
/// median.
const SUB_WINDOWS: u64 = 10;

/// Throughput and latency of a pass, as medians over the sub-windows.
struct Windowed {
    throughput: f64,
    p50_ns: f64,
    p90_ns: f64,
}

/// Requests completed per second and the 50th and 90th percentile
/// latency of the timed requests drained, per sub-window; each the
/// median over sub-windows.
///
/// A request adds to a sub-window's rate the share of its life spent in
/// it. Every client always has one request outstanding, so this is the
/// completion rate (Little's law), without the jumps that counting whole
/// completions gives when a batch of requests finishes in one step.
fn windowed(run: &LoopRun, report: &ServeReport, warmup: u64) -> Windowed {
    let (start, end) = run.window;
    let width = (end - start) / SUB_WINDOWS;
    let (mut rate, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
    for b in 0..SUB_WINDOWS {
        let (lo, hi) = (start + b * width, start + (b + 1) * width);
        let done: f64 = run
            .sent_ns
            .iter()
            .zip(&run.done_ns)
            .map(|(&s, &d)| (d.min(hi).saturating_sub(s.max(lo))) as f64 / (d - s).max(1) as f64)
            .sum();
        rate.push(done / (width as f64 / 1e9));
        let lat = sorted(
            report
                .responses
                .iter()
                .filter(|r| r.id >= warmup && r.outcome == Served::Completed)
                .map(|r| (run.sent_ns[r.id as usize], run.done_ns[r.id as usize]))
                .filter(|&(_, d)| (lo..hi).contains(&d))
                .map(|(s, d)| d - s)
                .collect(),
        );
        if !lat.is_empty() {
            p50.push(pct(&lat, 50));
            p90.push(pct(&lat, 90));
        }
    }
    Windowed {
        throughput: median(rate),
        p50_ns: median(p50),
        p90_ns: median(p90),
    }
}

/// The nearest-rank percentile of sorted nanoseconds, as `f64`.
fn pct(sorted: &[u64], p: u32) -> f64 {
    ServeReport::percentile_ns(sorted, p) as f64
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// One serving workload at one seed.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub shape: Shape,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
}

/// Runs one serving workload: an untraced pass for the end-to-end
/// numbers and the output checks, then, when `spans_path` is given, a
/// traced pass over the same requests for the per-layer numbers.
pub fn run(setup: &Setup, plan: Plan, spans_path: Option<&Path>) -> Outcome {
    let Plan {
        shape,
        seed,
        seconds,
    } = plan;
    let pool = RequestPool::new(&setup.zoo.corpus);
    let tok = &setup.zoo.tok;
    let (model, ps) = (&setup.model, &setup.ps);
    let mut out = Outcome::default();

    let mut gen = Generator::new(seed, shape.reuse_pct, pool.sizes());
    let dec =
        BatchedDecodeState::with_prefix_cache(model, ps, SLOTS, PrefixCache::new(CACHE_BYTES));
    let mut engine = ServeEngine::new(dec, config(QUEUE_CAP, shape.max_out));
    let run = closed_loop(
        &mut engine,
        CLIENTS,
        shape.warmup,
        seconds,
        Clock::start(),
        None,
        |id| ServeRequest::from_task(id, pool.get(gen.next_pick()), tok),
    );
    let report = engine.into_report();
    let picks = gen.picks();

    if let Some(e) = &run.error {
        out.problems.push(format!("engine error: {e}"));
    }
    if !report.accounted() {
        out.problems.push("a request got no response".into());
    }
    let lat = latencies(&run, &report, shape.warmup);
    if lat.is_empty() {
        out.problems
            .push("no timed request completed; raise --seconds".into());
        return out;
    }
    let w = windowed(&run, &report, shape.warmup);
    let throughput = w.throughput;
    out.e2e = vec![
        metric("throughput", throughput, "ops/s"),
        metric("latency_p50_ms", ms(w.p50_ns), "ms"),
        metric("latency_p90_ms", ms(w.p90_ns), "ms"),
    ];
    let p99 = ServeReport::percentile_ns(&lat, 99);
    out.notes.push(format!(
        "latency_p99_ms {:.3} ms over the whole window (not gated; {} of {} timed \
         requests beyond it)",
        ms(p99 as f64),
        lat.iter().filter(|&&l| l > p99).count(),
        lat.len()
    ));

    // Outputs: the warm-up responses are the same on every run at one
    // seed; timed requests are checked by decoding them again alone, with
    // no batch neighbours and no prefix cache.
    out.digest = digest(&report, shape.warmup);
    let recheck: Vec<u64> = (shape.warmup..report.arrivals)
        .filter(|id| id % RECHECK_EVERY == 0)
        .collect();
    let mut alone = ServeEngine::new(
        BatchedDecodeState::new(model, ps, 1),
        config(recheck.len().max(1), shape.max_out),
    );
    for &id in &recheck {
        let req = ServeRequest::from_task(id, pool.get(picks[id as usize]), tok);
        alone.submit_at(0, req);
    }
    let solo_ok = alone.run_trace(&[]).is_ok();
    let solo = alone.into_report();
    let mismatched = solo
        .responses
        .iter()
        .filter(|s| {
            let r = &report.responses[s.id as usize];
            !solo_ok || s.outcome != Served::Completed || s.tokens != r.tokens
        })
        .count() as u64;
    out.notes.push(format!(
        "recheck: {} of {} timed requests decoded again alone, {mismatched} differ",
        recheck.len(),
        lat.len()
    ));
    out.attempted = report.arrivals;
    out.failed = report.rejections() + mismatched;

    if let Some(path) = spans_path {
        traced(setup, plan, &pool, throughput, &mut out, path);
    }
    out
}

/// The traced pass and its per-layer metrics.
fn traced(
    setup: &Setup,
    plan: Plan,
    pool: &RequestPool,
    untraced_throughput: f64,
    out: &mut Outcome,
    spans_path: &Path,
) {
    let Plan {
        shape,
        seed,
        seconds,
    } = plan;
    let tok = &setup.zoo.tok;
    let (model, ps) = (&setup.model, &setup.ps);
    let clock = Clock::start();
    let tracer = Tracer::new(clock);
    let mut gen = Generator::new(seed, shape.reuse_pct, pool.sizes());
    let dec = TracedDecoder::new(
        BatchedDecodeState::with_prefix_cache(model, ps, SLOTS, PrefixCache::new(CACHE_BYTES)),
        &tracer,
        FlopModel::of(&model.cfg),
    );
    let mut engine = ServeEngine::new(dec, config(QUEUE_CAP, shape.max_out));
    let run = closed_loop(
        &mut engine,
        CLIENTS,
        shape.warmup,
        seconds,
        clock,
        Some(&tracer),
        |id| {
            // `ServeRequest::from_task`, with its two layers timed apart.
            let req = pool.get(gen.next_pick());
            let t0 = tracer.now();
            let text = req.input_text();
            let t1 = tracer.now();
            let src = tok.encode_with_eos(&text);
            let t2 = tracer.now();
            tracer.record(Span::new("core.input_text", t0, t1, id));
            let mut enc = Span::new("tokenizer.encode", t1, t2, id);
            enc.n = src.len() as u64;
            tracer.record(enc);
            ServeRequest::new(id, req.task(), src)
        },
    );
    let first_token_ns = engine.decoder().first_token_ns().to_vec();
    let cache_bytes_end = engine
        .decoder()
        .inner()
        .prefix_cache()
        .map_or(0, PrefixCache::bytes);
    let report = engine.into_report();
    let mut spans = tracer.into_spans();

    if run.error.is_some() || digest(&report, shape.warmup) != out.digest {
        out.problems
            .push("the traced pass produced different outputs".into());
    }
    // Admission spans carry the admission index; give them request ids.
    for s in spans
        .iter_mut()
        .filter(|s| s.name.starts_with("batch.admit"))
    {
        s.req = report
            .admission_log
            .get(s.req as usize)
            .map_or(NONE, |a| a.id);
    }
    if let Err(e) = spans::write_jsonl(&spans, spans_path) {
        out.problems
            .push(format!("writing {}: {e}", spans_path.display()));
    }

    let (ws, we) = run.window;
    let wall = (we - ws) as f64;
    let window: Vec<(Span, u64)> = spans
        .iter()
        .copied()
        .zip(spans::self_times(&spans))
        .filter(|(s, _)| s.start_ns >= ws && s.start_ns < we)
        .collect();
    let named = |name: &'static str| window.iter().filter(move |(s, _)| s.name == name);
    let total = |name: &'static str| named(name).map(|(s, _)| s.dur_ns()).sum::<u64>() as f64;
    let count = |name: &'static str| named(name).count() as f64;
    let mean_us = |name: &'static str| us(mean(named(name).map(|(s, _)| s.dur_ns() as f64)));
    let step_ns = sorted(named("batch.step").map(|(s, _)| s.dur_ns()).collect());
    let rows: f64 = named("batch.step").map(|(s, _)| s.n as f64).sum();
    let model_ns = total("batch.admit_miss") + total("batch.step");
    let model_flops: f64 = named("batch.admit_miss")
        .chain(named("batch.step"))
        .map(|(s, _)| s.flops as f64)
        .sum();
    let timed_ops = run
        .done_ns
        .get(shape.warmup as usize..)
        .unwrap_or_default()
        .iter()
        .filter(|&&d| (ws..we).contains(&d))
        .count()
        .max(1) as f64;
    let first_send = run.sent_ns.first().copied().unwrap_or(0);
    let coverage = spans::coverage(&spans, first_send, run.end_ns);
    let traced_throughput = windowed(&run, &report, shape.warmup).throughput;
    let load_ms = median(setup.load_ms.clone());

    out.layers = vec![
        metric("ckpt.load_ms", load_ms, "ms"),
        metric("model.gflops", model_flops / model_ns, "GFLOP/s"),
        metric("model.step_us_p50", us(pct(&step_ns, 50)), "us"),
        metric("model.step_us_p90", us(pct(&step_ns, 90)), "us"),
        metric(
            "overhead.us_per_op",
            us((wall - model_ns) / timed_ops),
            "us",
        ),
        metric("trace.coverage", coverage, "ratio"),
    ];

    let log = &report.admission_log;
    let timed = |id: u64| id >= shape.warmup;
    let queue_wait = sorted(
        log.iter()
            .filter(|a| timed(a.id))
            .map(|a| a.queue_wait_ns)
            .collect(),
    );
    let (mut ttft, mut tpot) = (Vec::new(), Vec::new());
    for (a, &first) in log.iter().zip(&first_token_ns) {
        let r = &report.responses[a.id as usize];
        if timed(a.id) && first > 0 && r.tokens.len() > 1 {
            let done = run.done_ns[a.id as usize];
            ttft.push(first - run.sent_ns[a.id as usize]);
            tpot.push((done - first) / (r.tokens.len() as u64 - 1));
        }
    }
    let (ttft, tpot) = (sorted(ttft), sorted(tpot));
    let cache_end = report.cache.unwrap_or_default();
    let cache_start = run.cache_at_window.unwrap_or_default();
    let (hits, misses) = (count("batch.admit_hit"), count("batch.admit_miss"));
    let miss_tokens: f64 = named("batch.admit_miss").map(|(s, _)| s.n as f64).sum();

    out.detail = vec![
        metric("core.input_text_us", mean_us("core.input_text"), "us"),
        metric("tokenizer.encode_us", mean_us("tokenizer.encode"), "us"),
        metric(
            "tokenizer.src_tokens_mean",
            mean(named("tokenizer.encode").map(|(s, _)| s.n as f64)),
            "tokens",
        ),
        metric(
            "serve.tick_self_us",
            us(mean(named("serve.tick").map(|(_, own)| *own as f64))),
            "us",
        ),
        metric("serve.queue_wait_p50_ms", ms(pct(&queue_wait, 50)), "ms"),
        metric("serve.queue_wait_p90_ms", ms(pct(&queue_wait, 90)), "ms"),
        metric(
            "serve.rows_per_step_mean",
            rows / count("batch.step"),
            "rows",
        ),
        metric("serve.rejected", report.rejections() as f64, "count"),
        metric("serve.ttft_p50_ms", ms(pct(&ttft, 50)), "ms"),
        metric("serve.tpot_p50_ms", ms(pct(&tpot, 50)), "ms"),
        metric("batch.admit_miss_us", mean_us("batch.admit_miss"), "us"),
        metric("batch.admit_hit_us", mean_us("batch.admit_hit"), "us"),
        metric(
            "batch.admit_share",
            (total("batch.admit_miss") + total("batch.admit_hit")) / wall,
            "ratio",
        ),
        metric(
            "batch.prefill_tokens_per_s",
            miss_tokens / (total("batch.admit_miss") / 1e9),
            "tokens/s",
        ),
        metric(
            "batch.step_us_per_row",
            us(total("batch.step") / rows),
            "us",
        ),
        metric("batch.step_share", total("batch.step") / wall, "ratio"),
        metric("batch.retire_us", mean_us("batch.retire"), "us"),
        metric(
            "batch.kv_bytes_mean",
            mean(named("batch.step").map(|(s, _)| s.bytes as f64)),
            "bytes",
        ),
        metric(
            "batch.decode_gflops_computed",
            named("batch.step")
                .map(|(s, _)| s.flops as f64)
                .sum::<f64>()
                / total("batch.step"),
            "GFLOP/s",
        ),
        metric("cache.hit_rate", hits / (hits + misses), "ratio"),
        metric("cache.lookups", hits + misses, "count"),
        metric(
            "cache.evictions",
            (cache_end.evictions - cache_start.evictions) as f64,
            "count",
        ),
        metric(
            "cache.bypasses",
            (cache_end.bypasses - cache_start.bypasses) as f64,
            "count",
        ),
        metric("cache.bytes_end", cache_bytes_end as f64, "bytes"),
        metric(
            "trace.overhead",
            untraced_throughput / traced_throughput - 1.0,
            "ratio",
        ),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use datavist5::data::Task;
    use serve::ScriptedDecoder;

    /// Each request emits `src[0]` copies of token 5, then EOS.
    fn scripted() -> ScriptedDecoder {
        ScriptedDecoder::new(SLOTS, 8, EOS, |src| vec![5; src[0] as usize])
    }

    fn request(id: u64) -> ServeRequest {
        ServeRequest::new(id, Task::ALL[id as usize % 4], vec![1 + (id % 5) as u32, 2])
    }

    #[test]
    fn closed_loop_keeps_at_most_one_request_per_client_outstanding_and_accounts_for_all() {
        let mut engine = ServeEngine::new(scripted(), config(QUEUE_CAP, 4));
        let run = closed_loop(
            &mut engine,
            CLIENTS,
            20,
            0.02,
            Clock::start(),
            None,
            request,
        );
        let report = engine.into_report();
        assert!(run.error.is_none());
        assert!(run.max_outstanding <= CLIENTS, "{}", run.max_outstanding);
        assert_eq!(run.max_outstanding, CLIENTS);
        let attempted = run.sent_ns.len() as u64;
        assert!(attempted > 20, "the timed window sent nothing");
        assert_eq!(attempted, report.completed + report.rejections());
        assert_eq!(report.rejections(), 0);
        assert!(report.accounted());
        assert!(run.done_ns.iter().zip(&run.sent_ns).all(|(d, s)| d >= s));
    }

    #[test]
    fn traced_wrapper_leaves_the_fingerprint_unchanged() {
        let trace: Vec<(u64, ServeRequest)> =
            (0..40).map(|i| (i * 3_000_000, request(i))).collect();
        let mut plain = ServeEngine::new(scripted(), ServeConfig::new(QUEUE_CAP, 4, EOS));
        plain.run_trace(&trace).unwrap();
        let tracer = Tracer::new(Clock::start());
        let flops = FlopModel::of(&nn::t5::T5Config::base(8));
        let mut traced = ServeEngine::new(
            TracedDecoder::new(scripted(), &tracer, flops),
            ServeConfig::new(QUEUE_CAP, 4, EOS),
        );
        traced.run_trace(&trace).unwrap();
        let first_tokens = traced.decoder().first_token_ns().len();
        assert_eq!(
            plain.into_report().fingerprint(),
            traced.into_report().fingerprint()
        );
        let spans = tracer.into_spans();
        assert_eq!(first_tokens, 40);
        for name in ["batch.admit_miss", "batch.retire"] {
            assert_eq!(spans.iter().filter(|s| s.name == name).count(), 40);
        }
        assert!(spans.iter().any(|s| s.name == "batch.step"));
    }
}
