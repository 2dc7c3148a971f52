//! Fine-tuning: `finetune`.
//!
//! `train_seq2seq` on the §III-F multi-task mix (temperature 2) runs in
//! chunks of [`CHUNK`] optimizer steps until the timed window is over;
//! every [`CKPT_CHUNKS`]-th chunk ends in a crash-safe checkpoint write.
//! The chunks stand for one long run with a checkpoint every 25 steps,
//! and each is one sample of step time. Every chunk is a fresh run: it
//! never resumes an earlier chunk's file and injects no faults, so a chunk
//! can neither skip work nor fail a write unnoticed.

use std::path::Path;
use std::time::Instant;

use analysis::{SanitizerMode, TapeMode};
use datavist5::config::Scale;
use datavist5::finetune::multi_task_examples;
use nn::ckpt::{self, StdIo, TrainState};
use nn::optim::AdamW;
use nn::train::{train_seq2seq, CkptConfig, Example, LossModel, TrainConfig, TrainReport};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serve::ServeReport;
use tensor::Graph;

use crate::flops::FlopModel;
use crate::setup::Setup;
use crate::spans::{self, Clock, Span, Tracer};
use crate::workload::{median, metric, mix, Outcome};

/// Optimizer steps per `train_seq2seq` call: about 60 samples of step
/// time in a 20-second window.
const CHUNK: usize = 5;
/// Every this many chunks ends in a checkpoint, so one is written every
/// 25 steps.
const CKPT_CHUNKS: u64 = 5;
/// Chunks before timing starts: one checkpoint cycle. The last one's final
/// step loss is the pinned digest.
const WARMUP_CHUNKS: u64 = CKPT_CHUNKS;
/// The Full scale's fine-tuning sequence bound.
const MAX_LEN: usize = 128;
/// The paper's up-sampling temperature.
const TEMPERATURE: f64 = 2.0;
/// The chunks' checkpoint, beside the spans.
const CKPT_FILE: &str = "finetune.ckpt.bin";

/// Chunk `k`'s configuration: the fine-tuning default, with only chunk 0
/// running the step-0 graph doctor and the sanitizer's first-step scan,
/// and a checkpoint at the end of every [`CKPT_CHUNKS`]-th chunk that
/// neither resumes nor reads `DATAVIST5_FAULT`.
fn chunk_config(seed: u64, k: u64, path: &Path) -> TrainConfig {
    let mut cfg = TrainConfig::fine_tune(CHUNK);
    cfg.seed = mix(seed).wrapping_add(k);
    (cfg.doctor, cfg.sanitizer) = match k {
        0 => (true, Scale::Full.sanitizer_mode()),
        _ => (false, SanitizerMode::Off),
    };
    cfg.ckpt = (k % CKPT_CHUNKS == CKPT_CHUNKS - 1).then(|| CkptConfig {
        path: path.to_path_buf(),
        every: CHUNK,
        resume: false,
        fault: None,
        kill_after: None,
    });
    cfg
}

/// Deletes a checkpoint and its last-good copy.
fn remove_checkpoint(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(ckpt::prev_path(path));
}

/// One untraced chunk; returns its report, wall time and what went wrong.
fn chunk(
    setup: &mut Setup,
    data: &[Example],
    cfg: &TrainConfig,
) -> (TrainReport, u64, Option<String>) {
    let path = cfg.ckpt.as_ref().map(|c| c.path.as_path());
    if let Some(p) = path {
        remove_checkpoint(p);
    }
    let t = Instant::now();
    let report = train_seq2seq(&setup.model, &mut setup.ps, data, &[], cfg);
    let ns = t.elapsed().as_nanos() as u64;
    let problem = if report.resumed_at.is_some() {
        Some(format!("resumed at step {:?}", report.resumed_at))
    } else if report.steps != CHUNK || report.step_losses.len() != CHUNK || report.interrupted {
        Some(format!("ran {} of {CHUNK} steps", report.step_losses.len()))
    } else if report.ckpt_write_failures != 0 || path.is_some_and(|p| !p.exists()) {
        Some(format!(
            "{} checkpoint writes failed",
            report.ckpt_write_failures.max(1)
        ))
    } else if !report.step_losses.iter().all(|l| l.is_finite()) {
        Some("a step loss is not finite".into())
    } else {
        None
    };
    (report, ns, problem)
}

/// Runs `finetune`: untraced warm-up chunks, the last of which gives the
/// pinned digest, timed chunks for `seconds`, then, when `spans_path` is
/// given, the same again through the traced loop.
pub fn run(
    setup: &mut Setup,
    seed: u64,
    seconds: f64,
    dir: &Path,
    spans_path: Option<&Path>,
) -> Outcome {
    let data = multi_task_examples(
        &setup.zoo.datasets,
        &setup.zoo.tok,
        MAX_LEN,
        TEMPERATURE,
        mix(seed),
    );
    let path = dir.join(CKPT_FILE);
    let start_ps = spans_path.map(|_| setup.ps.clone());
    let mut out = Outcome::default();
    let window_ns = (seconds * 1e9) as u64;
    let (mut wall, mut k) = (0u64, 0u64);
    let mut per_step = Vec::new();
    while k < WARMUP_CHUNKS || wall < window_ns {
        let (report, ns, problem) = chunk(setup, &data, &chunk_config(seed, k, &path));
        out.attempted += CHUNK as u64;
        if let Some(p) = problem {
            out.failed += CHUNK as u64;
            out.problems.push(format!("chunk {k}: {p}"));
        }
        if k + 1 == WARMUP_CHUNKS {
            out.digest = report.step_losses.last().map_or(0, |l| l.to_bits() as u64);
        } else if k >= WARMUP_CHUNKS {
            per_step.push(ns / CHUNK as u64);
            wall += ns;
        }
        k += 1;
    }

    // Medians over ten sub-windows of consecutive chunks, as the serving
    // workloads take: interference that slows a few seconds moves a few
    // sub-windows, not the medians. Every fifth chunk writes a checkpoint,
    // so a sub-window's 90th percentile is a step in a chunk that does.
    let width = per_step.len().div_ceil(10).max(1);
    let (mut rate, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
    for window in per_step.chunks(width) {
        let mut window = window.to_vec();
        let total: u64 = window.iter().sum();
        rate.push(window.len() as f64 * 1e9 / total as f64);
        window.sort_unstable();
        p50.push(median(window.iter().map(|&ns| ns as f64).collect()));
        p90.push(ServeReport::percentile_ns(&window, 90) as f64);
    }
    let throughput = median(rate);
    out.e2e = vec![
        metric("throughput", throughput, "ops/s"),
        metric("latency_p50_ms", median(p50) / 1e6, "ms"),
        metric("latency_p90_ms", median(p90) / 1e6, "ms"),
    ];
    out.notes.push(format!(
        "latency_*_ms is wall time per optimizer step, one sample per {CHUNK}-step chunk \
         ({} timed chunks)",
        per_step.len()
    ));
    out.notes.push(format!(
        "final step loss of the warm-up: {} (bits {:08x})",
        f32::from_bits(out.digest as u32),
        out.digest
    ));

    if let (Some(spans_path), Some(ps)) = (spans_path, start_ps) {
        setup.ps = ps;
        traced(
            setup, &data, seed, seconds, throughput, &mut out, spans_path,
        );
    }
    remove_checkpoint(&path);
    out
}

/// Times `f` as a span named by `span`, which carries the rest.
fn timed<R>(tracer: &Tracer, span: Span, f: impl FnOnce() -> R) -> R {
    let start = tracer.now();
    let r = f();
    let end = tracer.now();
    tracer.record(Span {
        start_ns: start,
        end_ns: end,
        ..span
    });
    r
}

/// The traced run of one chunk: `train_seq2seq`'s loop over the same
/// public calls (`train_loss`, `Graph::backward`, `absorb_grads`,
/// `AdamW::step`, `ckpt::save`) with a span around each. Returns the step
/// losses and appends each step's wall time to `step_ns`.
fn traced_chunk(
    setup: &mut Setup,
    data: &[Example],
    cfg: &TrainConfig,
    tracer: &Tracer,
    first_step: u64,
    step_ns: &mut Vec<u64>,
) -> Result<Vec<f32>, String> {
    if let Some(ck) = &cfg.ckpt {
        remove_checkpoint(&ck.path);
    }
    let flops = FlopModel::of(&setup.model.cfg);
    let (model, ps) = (&setup.model, &mut setup.ps);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..data.len()).collect();
    order.shuffle(&mut rng);
    let mut cursor = 0usize;
    let mut opt = AdamW::default();
    let mut losses = Vec::with_capacity(cfg.steps);
    for step in 0..cfg.steps {
        let req = first_step + step as u64;
        let span = |name| Span::new(name, 0, 0, req);
        let step_start = tracer.now();
        let mut batch_loss = 0.0f32;
        for micro in 0..cfg.accum {
            if cursor >= order.len() {
                cursor = 0;
                order.shuffle(&mut rng);
            }
            let (src, tgt) = &data[order[cursor]];
            cursor += 1;
            let fwd = flops.forward(src.len() as u64, tgt.len() as u64);
            let mut g = Graph::with_seed(cfg.seed ^ (step as u64) << 8);
            let loss = timed(
                tracer,
                Span {
                    n: (src.len() + tgt.len()) as u64,
                    flops: fwd,
                    ..span("train.forward")
                },
                || model.train_loss(&mut g, ps, src, tgt, cfg.smoothing),
            );
            if cfg.doctor && step == 0 && micro == 0 {
                timed(tracer, span("analysis.doctor"), || {
                    analysis::diagnose(&g, loss, TapeMode::Train)
                });
            }
            batch_loss += g.value(loss).data()[0];
            timed(
                tracer,
                Span {
                    flops: 2 * fwd,
                    ..span("train.backward")
                },
                || g.backward(loss),
            );
            if cfg.sanitizer.active_at(step) {
                let offender = timed(tracer, span("analysis.sanitize"), || {
                    analysis::sanitize::first_offender(&g)
                });
                if let Some(d) = offender {
                    return Err(format!("numeric sanitizer tripped at step {step}: {d}"));
                }
            }
            timed(tracer, span("train.absorb"), || ps.absorb_grads(&g));
        }
        timed(tracer, span("train.optim"), || {
            opt.step(ps, cfg.schedule.at(step), 1.0 / cfg.accum as f32)
        });
        losses.push(batch_loss / cfg.accum as f32);
        if let Some(ck) = cfg.ckpt.as_ref().filter(|c| (step + 1) % c.every == 0) {
            // `train_seq2seq`'s snapshot; the loss-tail fields it also
            // keeps are two scalars and left at zero here.
            let state = TrainState {
                rng_state: rng.state(),
                next_step: (step + 1) as u64,
                cursor: cursor as u64,
                order: order.iter().map(|&i| i as u32).collect(),
                tail_sum: 0.0,
                tail_n: 0,
                step_losses: losses.clone(),
                valid_losses: Vec::new(),
            };
            let start = tracer.now();
            let snap = ps.snapshot(Some(&opt)).with_train(state);
            ckpt::save(&mut StdIo, &ck.path, &snap).map_err(|e| format!("checkpoint: {e}"))?;
            let end = tracer.now();
            let bytes = std::fs::metadata(&ck.path).map_or(0, |m| m.len());
            tracer.record(Span {
                start_ns: start,
                end_ns: end,
                bytes,
                ..span("ckpt.save")
            });
        }
        step_ns.push(tracer.now() - step_start);
    }
    Ok(losses)
}

/// The traced pass and its per-layer metrics.
fn traced(
    setup: &mut Setup,
    data: &[Example],
    seed: u64,
    seconds: f64,
    untraced_throughput: f64,
    out: &mut Outcome,
    spans_path: &Path,
) {
    let path = spans_path.with_file_name(CKPT_FILE);
    let tracer = Tracer::new(Clock::start());
    let (mut warm_ns, mut step_ns) = (Vec::new(), Vec::new());
    let window_ns = (seconds * 1e9) as u64;
    let mut timed_start = 0;
    let mut k = 0u64;
    while k < WARMUP_CHUNKS || tracer.now() - timed_start < window_ns {
        let cfg = chunk_config(seed, k, &path);
        let sink = if k < WARMUP_CHUNKS {
            &mut warm_ns
        } else {
            &mut step_ns
        };
        match traced_chunk(setup, data, &cfg, &tracer, k * CHUNK as u64, sink) {
            Ok(losses) if k + 1 == WARMUP_CHUNKS => {
                if losses.last().map(|l| l.to_bits() as u64) != Some(out.digest) {
                    out.problems
                        .push("the traced loop's losses differ from train_seq2seq's".into());
                }
                timed_start = tracer.now();
            }
            Ok(_) => {}
            Err(e) => {
                out.problems.push(format!("traced chunk {k}: {e}"));
                break;
            }
        }
        k += 1;
    }
    let timed_end = tracer.now();
    remove_checkpoint(&path);
    let spans = tracer.into_spans();
    if let Err(e) = spans::write_jsonl(&spans, spans_path) {
        out.problems
            .push(format!("writing {}: {e}", spans_path.display()));
    }

    let wall = (timed_end - timed_start) as f64;
    let steps = step_ns.len().max(1) as f64;
    let timed_spans: Vec<&Span> = spans.iter().filter(|s| s.start_ns >= timed_start).collect();
    let named = |name: &'static str| timed_spans.iter().filter(move |s| s.name == name);
    let total = |name: &'static str| named(name).map(|s| s.dur_ns()).sum::<u64>() as f64;
    let per_step_ms = |name: &'static str| total(name) / steps / 1e6;
    let model_ns = total("train.forward") + total("train.backward");
    let model_flops: f64 = named("train.forward")
        .chain(named("train.backward"))
        .map(|s| s.flops as f64)
        .sum();
    let math_ns = model_ns + total("train.absorb") + total("train.optim");
    step_ns.sort_unstable();
    let step_us = |p| ServeReport::percentile_ns(&step_ns, p) as f64 / 1e3;
    let saves = named("ckpt.save").count().max(1) as f64;
    let traced_throughput = steps / (wall / 1e9);

    out.layers = vec![
        metric("ckpt.load_ms", median(setup.load_ms.clone()), "ms"),
        metric("model.gflops", model_flops / model_ns, "GFLOP/s"),
        metric("model.step_us_p50", step_us(50), "us"),
        metric("model.step_us_p90", step_us(90), "us"),
        metric("overhead.us_per_op", (wall - math_ns) / steps / 1e3, "us"),
        metric(
            "trace.coverage",
            spans::coverage(&spans, timed_start, timed_end),
            "ratio",
        ),
    ];
    out.detail = vec![
        metric("train.forward_ms", per_step_ms("train.forward"), "ms"),
        metric("train.backward_ms", per_step_ms("train.backward"), "ms"),
        metric("train.absorb_ms", per_step_ms("train.absorb"), "ms"),
        metric("train.optim_ms", per_step_ms("train.optim"), "ms"),
        metric(
            "train.tokens_per_step",
            named("train.forward").map(|s| s.n as f64).sum::<f64>() / steps,
            "tokens",
        ),
        metric("ckpt.save_ms", total("ckpt.save") / saves / 1e6, "ms"),
        metric(
            "ckpt.bytes",
            named("ckpt.save").map(|s| s.bytes as f64).sum::<f64>() / saves,
            "bytes",
        ),
        metric(
            "trace.overhead",
            untraced_throughput / traced_throughput - 1.0,
            "ratio",
        ),
    ];
}
