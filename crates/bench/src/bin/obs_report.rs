//! Telescope report: runs the full pipeline (pretrain → fine-tune →
//! batched decode → eval) with the observability layer enabled and renders
//! a flamegraph-style per-stage span table plus per-`OpKind` kernel
//! attribution for the training step.
//!
//! The kernel profiler must attribute at least `--min-coverage` (default
//! 95%) of the measured train-step wall time to individual tape kernels,
//! or the binary exits nonzero — this is the acceptance gate for the
//! profiler staying wired into every hot path.
//!
//! Artifacts: `target/bench/BENCH_obs.json` (machine-readable summary,
//! naming the matmul kernels' instruction-set arm in `kernel_arm`),
//! `target/bench/obs_events.jsonl` (the raw event log) and
//! `target/bench/obs_trace.json` (Chrome `trace_event` export; load it
//! at `chrome://tracing` or <https://ui.perfetto.dev>). These change on
//! every run, so they live under `target/` — `bench/out/` holds only
//! blessed, committed goldens.
//!
//! `--overhead` runs the zero-overhead smoke instead: with `DATAVIST5_OBS`
//! unset, the instrumented decode path must match a baseline pass of the
//! same binary within `--tol` (default 2%) — the runtime cost of the
//! disabled layer is a branch on one atomic load per site.
//!
//! Usage: `obs_report [--preset base|large] [--steps N]
//! [--pretrain-steps N] [--min-coverage F] [--out PATH]`
//! or `obs_report --overhead [--tol F] [--repeats N] [--out PATH]`.

use std::time::Instant;

use corpus::{Corpus, CorpusConfig, Split};
use datavist5::config::{Scale, Size};
use datavist5::data::{strip_prefix, Task, TaskDatasets, TaskExample};
use datavist5::eval::{eval_text_gen, eval_text_to_vis};
use datavist5::finetune::{finetune, multi_task_examples};
use datavist5::pretrain::{pretrain, Objective, PretrainConfig, PretrainData};
use datavist5::zoo::Predictor;
use nn::decode::batched_greedy_decode;
use nn::param::ParamSet;
use nn::t5::{T5Config, T5Model};
use nn::train::TrainConfig;
use tensor::XorShift;
use tokenizer::{special, WordTokenizer};

fn main() {
    let mut preset = "base".to_string();
    let mut steps = 8usize;
    let mut pretrain_steps = 5usize;
    let mut min_coverage = 0.95f64;
    let mut overhead = false;
    let mut tol = 0.02f64;
    let mut repeats = 5usize;
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--preset" => preset = val("--preset"),
            "--steps" => steps = val("--steps").parse().expect("--steps"),
            "--pretrain-steps" => {
                pretrain_steps = val("--pretrain-steps").parse().expect("--pretrain-steps")
            }
            "--min-coverage" => {
                min_coverage = val("--min-coverage").parse().expect("--min-coverage")
            }
            "--overhead" => overhead = true,
            "--tol" => tol = val("--tol").parse().expect("--tol"),
            "--repeats" => repeats = val("--repeats").parse().expect("--repeats"),
            "--out" => out_path = Some(val("--out")),
            other => panic!("unknown argument {other}"),
        }
    }

    if overhead {
        run_overhead(
            tol,
            repeats,
            out_path.unwrap_or_else(|| {
                bench::default_bench_out("obs_overhead")
                    .to_string_lossy()
                    .into_owned()
            }),
        );
    } else {
        run_report(
            &preset,
            steps,
            pretrain_steps,
            min_coverage,
            out_path.unwrap_or_else(|| {
                bench::default_bench_out("obs")
                    .to_string_lossy()
                    .into_owned()
            }),
        );
    }
}

/// Runs the instrumented pipeline and renders the telescope report.
fn run_report(
    preset: &str,
    steps: usize,
    pretrain_steps: usize,
    min_coverage: f64,
    out_path: String,
) {
    let size = match preset {
        "base" => Size::Base,
        "large" => Size::Large,
        other => panic!("unknown preset {other} (use base|large)"),
    };
    obs::reset();
    obs::set_enabled(true);

    let max_len = 64usize;
    let max_out = 24usize;

    let corpus = Corpus::generate(&CorpusConfig {
        seed: 17,
        dbs_per_domain: 1,
        queries_per_db: 6,
        facts_per_db: 3,
    });
    let datasets = TaskDatasets::build(&corpus);
    let tok = WordTokenizer::fit(datasets.all_texts(), 1);
    let cfg = Scale::Smoke.t5_config(size, tok.vocab().len());
    let mut ps = ParamSet::new();
    let mut rng = XorShift::new(0x7e1e);
    let model = T5Model::new(&mut ps, "t5", cfg, &mut rng);

    eprintln!(
        "[obs_report] preset={preset} vocab={} pretrain_steps={pretrain_steps} finetune_steps={steps}",
        tok.vocab().len()
    );

    {
        let _run = obs::span!("obs_report");

        // Stage 1: hybrid pre-training (MLM + BDC).
        let mut data = PretrainData::build(&datasets);
        data.add_dv_knowledge(&corpus.databases);
        let pcfg = PretrainConfig::at(pretrain_steps, 2, max_len);
        pretrain(&model, &mut ps, &tok, &data, Objective::Hybrid, &pcfg);

        // Stage 2: multi-task fine-tuning. Doctor/sanitizer off so the
        // step span measures pure train-step work for the coverage gate.
        let examples = multi_task_examples(&datasets, &tok, max_len, 2.0, 0x0b5);
        let mut tcfg = TrainConfig::fine_tune(steps);
        tcfg.accum = 2;
        tcfg.doctor = false;
        tcfg.sanitizer = analysis::SanitizerMode::Off;
        finetune(&model, &mut ps, &examples, &tcfg);

        // Stage 3: batched decode over test-split inputs.
        let test: Vec<&TaskExample> = datasets.of(Task::TextToVis, Split::Test);
        let srcs: Vec<Vec<u32>> = test
            .iter()
            .take(6)
            .map(|e| truncate(tok.encode_with_eos(&e.input), max_len))
            .collect();
        let _ = batched_greedy_decode(&model, &ps, &srcs, special::EOS, max_out, 4);

        // Stage 4: the paper's evaluation entry points.
        let predictor = BatchPredictor {
            model: &model,
            ps: &ps,
            tok: &tok,
            max_len,
            max_out,
        };
        let ttv: Vec<&TaskExample> = datasets.of(Task::TextToVis, Split::Test);
        let v2t: Vec<&TaskExample> = datasets.of(Task::VisToText, Split::Test);
        let _ = eval_text_to_vis(&predictor, &ttv, &corpus, 4);
        let _ = eval_text_gen(&predictor, &v2t, 4);
    }
    obs::span::assert_balanced();
    let snap = obs::snapshot();

    // Per-OpKind kernel attribution for the fine-tune train step: what
    // fraction of the measured step wall time the profiler accounts for.
    let step_path = "obs_report/finetune/train/step";
    let step = snap
        .spans
        .get(step_path)
        .unwrap_or_else(|| panic!("span '{step_path}' missing from snapshot"));
    let step_kernels: Vec<&obs::KernelEntry> = snap
        .kernels
        .iter()
        .filter(|k| k.span == step_path)
        .collect();
    let attributed_ns: u64 = step_kernels.iter().map(|k| k.stat.ns).sum();
    let coverage = attributed_ns as f64 / step.total_ns.max(1) as f64;

    let widths = [44usize, 6, 10, 12, 10];
    let mut r = bench::Report::new("Telescope: spans and kernel attribution");
    r.row(&widths, &["span", "count", "ms", "ops", "gflop"]);
    r.rule(&widths);
    let mut span_rows = Vec::new();
    for (path, s) in &snap.spans {
        let depth = path.matches('/').count();
        let label = format!("{}{}", "  ".repeat(depth), path.rsplit('/').next().unwrap());
        r.row(
            &widths,
            &[
                &label,
                &s.count.to_string(),
                &format!("{:.2}", s.total_ns as f64 / 1e6),
                &s.ops.to_string(),
                &format!("{:.4}", s.flops as f64 / 1e9),
            ],
        );
        span_rows.push(serde_json::json!({
            "span": path.clone(),
            "count": s.count as i64,
            "ms": s.total_ns as f64 / 1e6,
            "ops": s.ops as i64,
            "flops": s.flops as i64,
        }));
    }
    r.line("");
    r.line(format!("kernels attributed to {step_path}:"));
    let kwidths = [16usize, 4, 6, 10, 7, 10, 10];
    r.row(
        &kwidths,
        &["op", "ph", "calls", "ms", "pct", "mbytes", "gflop"],
    );
    r.rule(&kwidths);
    let mut kernel_rows = Vec::new();
    let mut ranked: Vec<&&obs::KernelEntry> = step_kernels.iter().collect();
    ranked.sort_by(|a, b| b.stat.ns.cmp(&a.stat.ns).then(a.op.cmp(&b.op)));
    for k in ranked {
        let pct = 100.0 * k.stat.ns as f64 / step.total_ns.max(1) as f64;
        r.row(
            &kwidths,
            &[
                &k.op,
                k.phase.as_str(),
                &k.stat.calls.to_string(),
                &format!("{:.2}", k.stat.ns as f64 / 1e6),
                &format!("{pct:.1}%"),
                &format!("{:.1}", k.stat.bytes as f64 / 1e6),
                &format!("{:.4}", k.stat.flops as f64 / 1e9),
            ],
        );
        kernel_rows.push(serde_json::json!({
            "op": k.op.clone(),
            "phase": k.phase.as_str(),
            "calls": k.stat.calls as i64,
            "ns": k.stat.ns as i64,
            "bytes": k.stat.bytes as i64,
            "flops": k.stat.flops as i64,
            "pct_of_step": pct,
        }));
    }
    r.line("");
    r.line(format!(
        "step coverage: {:.1}% of {:.2} ms attributed ({} kernel rows); gate >= {:.0}%",
        coverage * 100.0,
        step.total_ns as f64 / 1e6,
        step_kernels.len(),
        min_coverage * 100.0
    ));
    bench::emit_scratch("obs_report", &r.render());

    // Raw artifacts: the JSONL event log and the Chrome trace. These
    // differ on every run (wall-clock timestamps), so they land in the
    // uncommitted scratch dir — never in the blessed bench/out goldens.
    let out_dir = bench::scratch_dir();
    let events_path = out_dir.join("obs_events.jsonl");
    std::fs::write(&events_path, obs::sink::write_jsonl(&snap.events)).expect("write events");
    let trace_path = out_dir.join("obs_trace.json");
    std::fs::write(&trace_path, obs::sink::chrome_trace(&snap.events)).expect("write trace");

    let mut counter_obj = Vec::new();
    for (name, total) in &snap.counters {
        counter_obj.push(serde_json::json!({ "name": name.clone(), "total": *total as i64 }));
    }
    let json = serde_json::json!({
        "preset": preset.to_string(),
        "kernel_arm": tensor::kernels::arm_name(),
        "pretrain_steps": pretrain_steps,
        "finetune_steps": steps,
        "step_span": step_path.to_string(),
        "step_ms": step.total_ns as f64 / 1e6,
        "kernel_coverage": coverage,
        "min_coverage": min_coverage,
        "events": snap.events.len(),
        "spans": span_rows,
        "step_kernels": kernel_rows,
        "counters": counter_obj,
    });
    let rendered = serde_json::to_string_pretty(&json).expect("serialize");
    std::fs::write(&out_path, rendered + "\n").expect("write BENCH_obs.json");
    eprintln!(
        "[obs_report] coverage {:.1}% | {} events -> {out_path}, {}, {}",
        coverage * 100.0,
        snap.events.len(),
        events_path.display(),
        trace_path.display()
    );

    obs::set_enabled(false);
    assert!(
        coverage >= min_coverage,
        "kernel attribution covered {:.1}% of the train step, below the {:.0}% gate",
        coverage * 100.0,
        min_coverage * 100.0
    );
}

/// Zero-overhead smoke: with obs disabled, decode throughput must match a
/// baseline pass of the identical workload within `tol`.
/// Median of per-round paired deltas `base_time/off_time - 1`. Each
/// round times the two arms back-to-back, so both passes see the same
/// contention environment; the median discards rounds where a preemption
/// landed mid-pass. Signed: positive means the off arm ran faster.
fn paired_median_delta(base_times: &[f64], off_times: &[f64]) -> f64 {
    let mut deltas: Vec<f64> = base_times
        .iter()
        .zip(off_times)
        .map(|(b, o)| b / o - 1.0)
        .collect();
    deltas.sort_by(f64::total_cmp);
    let n = deltas.len();
    assert!(n > 0, "paired_median_delta needs at least one round");
    if n % 2 == 1 {
        deltas[n / 2]
    } else {
        0.5 * (deltas[n / 2 - 1] + deltas[n / 2])
    }
}

fn run_overhead(tol: f64, repeats: usize, out_path: String) {
    assert!(
        !obs::enabled(),
        "run the overhead smoke without DATAVIST5_OBS set"
    );
    const VOCAB: usize = 48;
    let cfg = T5Config {
        vocab: VOCAB,
        ..Scale::Smoke.t5_config(Size::Base, VOCAB)
    };
    let mut ps = ParamSet::new();
    let mut rng = XorShift::new(0x0b5dec0de);
    let model = T5Model::new(&mut ps, "bench", cfg, &mut rng);
    let eos = VOCAB as u32; // outside the vocab: every request decodes max_out tokens
    let max_out = 64usize;
    let srcs: Vec<Vec<u32>> = (0..8)
        .map(|_| {
            let len = 8 + (rng.next_u64() % 9) as usize;
            (0..len)
                .map(|_| (rng.next_u64() % VOCAB as u64) as u32)
                .collect()
        })
        .collect();
    let tokens = (srcs.len() * max_out) as f64;

    let timed = || {
        let t0 = Instant::now();
        let out = batched_greedy_decode(&model, &ps, &srcs, eos, max_out, 4);
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(out.iter().map(Vec::len).sum::<usize>(), tokens as usize);
        secs
    };

    // Warmup, then paired baseline/obs-off rounds (both with the layer
    // disabled, so both run the same compiled-in enabled() checks). Each
    // round times the two arms back-to-back — they share one contention
    // environment — and alternates which arm goes first to cancel any
    // within-round drift. The gate compares the *median* of per-round
    // paired deltas: each pass is only a few ms, so on a contended core
    // a best-of estimator never converges (a preemption mid-pass skews
    // the minimum for one arm but not the other), while the paired
    // median discards exactly those outlier rounds. The sampler is also
    // adaptive: if the arms still disagree after `repeats` rounds it
    // keeps sampling (up to 8x) — identical arms converge, a real
    // throughput difference persists and still fails. The tolerance
    // itself never widens.
    for _ in 0..3 {
        let _ = batched_greedy_decode(&model, &ps, &srcs, eos, max_out, 4);
    }
    let (mut base_times, mut off_times) = (Vec::new(), Vec::new());
    let max_rounds = repeats.max(1) * 8;
    while base_times.len() < repeats.max(1)
        || (base_times.len() < max_rounds
            && paired_median_delta(&base_times, &off_times).abs() > tol)
    {
        if base_times.len() % 2 == 0 {
            base_times.push(timed());
            off_times.push(timed());
        } else {
            let off = timed();
            base_times.push(timed());
            off_times.push(off);
        }
    }
    let rounds = base_times.len();
    let base_best = base_times.iter().copied().fold(f64::INFINITY, f64::min);
    let off_best = off_times.iter().copied().fold(f64::INFINITY, f64::min);
    let baseline_tps = tokens / base_best;
    let off_tps = tokens / off_best;
    let rel = paired_median_delta(&base_times, &off_times).abs();
    eprintln!(
        "[obs_report] overhead: baseline {baseline_tps:.0} tok/s | obs off {off_tps:.0} tok/s \
         (paired median over {rounds} rounds)"
    );

    // Informational: the same workload with obs enabled (spans, counters,
    // gauges, and batch section kernels all live).
    obs::reset();
    obs::set_enabled(true);
    let mut on_best = f64::INFINITY;
    for _ in 0..repeats {
        on_best = on_best.min(timed());
    }
    let on_tps = tokens / on_best;
    eprintln!("[obs_report] overhead: obs on {on_tps:.0} tok/s (best of {repeats})");
    obs::set_enabled(false);
    obs::reset();

    let json = serde_json::json!({
        "tokens_per_pass": tokens,
        "repeats": repeats,
        "rounds": rounds,
        "baseline_tokens_per_sec": baseline_tps,
        "obs_off_tokens_per_sec": off_tps,
        "obs_on_tokens_per_sec": on_tps,
        "off_rel_delta": rel,
        "tol": tol,
    });
    let rendered = serde_json::to_string_pretty(&json).expect("serialize");
    std::fs::write(&out_path, rendered + "\n").expect("write overhead json");
    eprintln!(
        "[obs_report] obs-off delta {:.2}% (tol {:.0}%) | obs-on {:.2}x of baseline -> {out_path}",
        rel * 100.0,
        tol * 100.0,
        on_tps / baseline_tps
    );
    assert!(
        rel <= tol,
        "obs-off throughput drifted {:.2}% from baseline (tol {:.0}%)",
        rel * 100.0,
        tol * 100.0
    );
}

fn truncate(mut ids: Vec<u32>, max_len: usize) -> Vec<u32> {
    if ids.len() > max_len {
        ids.truncate(max_len - 1);
        ids.push(special::EOS);
    }
    ids
}

/// Minimal batched predictor for the eval stage: encode, batched greedy
/// decode, strip the task prefix.
struct BatchPredictor<'a> {
    model: &'a T5Model,
    ps: &'a ParamSet,
    tok: &'a WordTokenizer,
    max_len: usize,
    max_out: usize,
}

impl Predictor for BatchPredictor<'_> {
    fn predict(&self, example: &TaskExample) -> String {
        self.predict_batch(&[example]).remove(0)
    }

    fn predict_batch(&self, examples: &[&TaskExample]) -> Vec<String> {
        let srcs: Vec<Vec<u32>> = examples
            .iter()
            .map(|e| truncate(self.tok.encode_with_eos(&e.input), self.max_len))
            .collect();
        let outs = batched_greedy_decode(self.model, self.ps, &srcs, special::EOS, self.max_out, 4);
        examples
            .iter()
            .zip(outs)
            .map(|(e, ids)| strip_prefix(e.task, &self.tok.decode(&ids)))
            .collect()
    }
}
