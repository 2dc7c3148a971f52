//! Decode throughput of the inference engine: one request at a time
//! (a one-slot engine) vs `--batch` requests packed per step, on randomly
//! initialized weights (throughput does not depend on what the weights
//! say, only on their shapes).
//!
//! EOS is placed outside the vocabulary so every request decodes the full
//! `--max-out` tokens — both arms do identical work and the tokens/sec
//! ratio isolates batching. The batched outputs are asserted
//! token-identical to the one-slot ones before any number is reported.
//!
//! The series keep their historical names: `decode/seq/*` is the
//! one-slot arm and `decode/batched/speedup` is batched over one-slot.
//! Before the engine became the only T5 decoder, the `seq` arm stepped a
//! separate decoder that recorded an autodiff tape per token, so
//! committed ratios from that time measure tape overhead plus batching
//! and are larger than this comparison produces.
//!
//! The batched run is then swept across `DATAVIST5_THREADS` ∈ {1, 2, 4}:
//! the fork-join kernels run under certified M-split schedules, so every
//! thread count must produce *bitwise-identical* tokens — the sweep
//! asserts that and records per-count throughput. On a single-core host
//! the speedup is honestly ~1.0×; `hardware_threads` in the report says
//! how many cores the numbers were measured on.
//!
//! Writes `BENCH_decode.json` at the repo root:
//! `{preset, requests, batch, max_out, hardware_threads,
//!   seq_tokens_per_sec, batched_tokens_per_sec, speedup, identical,
//!   thread_sweep: [{threads, tokens_per_sec, identical_to_single}]}`.
//!
//! Usage: `decode_bench [--preset base|large] [--requests N] [--batch N]
//! [--max-out N] [--out PATH]`

use std::time::Instant;

use bench::perf::{sample, PerfBlock, Unit};
use nn::decode::batched_greedy_decode;
use nn::param::ParamSet;
use nn::t5::{T5Config, T5Model};
use tensor::XorShift;

const VOCAB: usize = 512;

fn main() {
    let mut preset = "base".to_string();
    let mut requests = 8usize;
    let mut batch = 8usize;
    let mut max_out = 32usize;
    let mut out_path = bench::default_bench_out("decode");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--preset" => preset = val("--preset"),
            "--requests" => requests = val("--requests").parse().expect("--requests"),
            "--batch" => batch = val("--batch").parse().expect("--batch"),
            "--max-out" => max_out = val("--max-out").parse().expect("--max-out"),
            "--out" => out_path = val("--out").into(),
            other => panic!("unknown argument {other}"),
        }
    }

    let cfg = match preset.as_str() {
        "base" => T5Config::base(VOCAB),
        "large" => T5Config::large(VOCAB),
        other => panic!("unknown preset {other} (use base|large)"),
    };
    let mut ps = ParamSet::new();
    let mut rng = XorShift::new(0xdec0de);
    let model = T5Model::new(&mut ps, "bench", cfg, &mut rng);

    // Ragged sources, lengths 8..=24, from the shared workload-trace
    // module (continuing the model-init RNG stream); EOS outside the
    // vocabulary so every request decodes exactly max_out tokens.
    let eos = VOCAB as u32;
    let srcs = bench::trace::ragged_sources_with(&mut rng, requests, VOCAB, 8, 24);

    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "[decode_bench] preset={preset} requests={requests} batch={batch} max_out={max_out} \
         hardware_threads={hardware_threads}"
    );

    tensor::par::set_threads(1);
    let t0 = Instant::now();
    let seq = batched_greedy_decode(&model, &ps, &srcs, eos, max_out, 1);
    let seq_secs = t0.elapsed().as_secs_f64();
    let seq_tokens: usize = seq.iter().map(Vec::len).sum();

    // Batched engine across the thread sweep. The single-thread run is the
    // reference; every other count must match it token for token.
    let mut sweep: Vec<serde_json::Value> = Vec::new();
    let mut single: Option<Vec<Vec<u32>>> = None;
    let batched_tps_at = |threads: usize, single: &mut Option<Vec<Vec<u32>>>| {
        tensor::par::set_threads(threads);
        let t = Instant::now();
        let out = batched_greedy_decode(&model, &ps, &srcs, eos, max_out, batch);
        let secs = t.elapsed().as_secs_f64();
        let tokens: usize = out.iter().map(Vec::len).sum();
        let identical = match single {
            None => {
                *single = Some(out);
                true
            }
            Some(reference) => *reference == out,
        };
        assert!(
            identical,
            "batched decode at {threads} thread(s) diverged from the 1-thread run — \
             schedule certification is supposed to make this impossible"
        );
        tokens as f64 / secs
    };
    let mut tps_by_threads = Vec::new();
    for threads in [1usize, 2, 4] {
        let tps = batched_tps_at(threads, &mut single);
        tps_by_threads.push((threads, tps));
        sweep.push(serde_json::json!({
            "threads": threads,
            "tokens_per_sec": tps,
            "identical_to_single": true,
        }));
        eprintln!("[decode_bench] batched @ {threads} thread(s): {tps:.0} tok/s (bit-identical)");
    }
    tensor::par::set_threads(1);

    let batched = single.expect("sweep ran");
    let identical = seq == batched;
    assert!(
        identical,
        "batched outputs diverged from the one-slot engine"
    );
    assert_eq!(seq_tokens, requests * max_out, "unexpected early EOS");

    let seq_tps = seq_tokens as f64 / seq_secs;
    let batched_tps = tps_by_threads[0].1;
    let speedup = batched_tps / seq_tps;
    let tps_at_4 = tps_by_threads
        .iter()
        .find(|(t, _)| *t == 4)
        .map(|(_, tps)| *tps)
        .unwrap_or(batched_tps);

    // The thread sweep must be monotone-or-flagged: `worst_step_ratio`
    // is the smallest tokens/sec ratio between consecutive thread counts
    // (1.0 = perfectly monotone, <1.0 = some step loses throughput). The
    // perf gate tracks it, so a parallelism collapse like the old 6.8×
    // 4-thread regression shows up as a T001 instead of rotting silently.
    let worst_step_ratio = tps_by_threads
        .windows(2)
        .map(|w| w[1].1 / w[0].1)
        .fold(1.0_f64, f64::min);
    let mut samples = vec![
        sample("decode/seq/tokens_per_sec", Unit::TokensPerSec, seq_tps),
        sample(
            "decode/batched/tokens_per_sec",
            Unit::TokensPerSec,
            batched_tps,
        ),
        sample("decode/batched/speedup", Unit::Ratio, speedup),
        sample(
            "decode/sweep/worst_step_ratio",
            Unit::Ratio,
            worst_step_ratio,
        ),
    ];
    for (threads, tps) in &tps_by_threads {
        if *threads > 1 {
            samples.push(sample(
                &format!("decode/batched/t{threads}/tokens_per_sec"),
                Unit::TokensPerSec,
                *tps,
            ));
        }
    }
    let perf = PerfBlock::new(bench::perf::run_header("decode", Some(&preset)), samples);

    // Legacy ad-hoc fields are kept alongside the canonical `perf` block
    // for one release; readers should migrate to `perf.samples`.
    let json = serde_json::json!({
        "preset": preset,
        "requests": requests,
        "batch": batch,
        "max_out": max_out,
        "hardware_threads": hardware_threads,
        "seq_tokens_per_sec": seq_tps,
        "batched_tokens_per_sec": batched_tps,
        "batched_tokens_per_sec_4_threads": tps_at_4,
        "speedup": speedup,
        "identical": identical,
        "thread_sweep": sweep,
        "perf": perf.to_json(),
    });
    let rendered = serde_json::to_string_pretty(&json).expect("serialize");
    println!("{rendered}");
    std::fs::write(&out_path, rendered + "\n").expect("write BENCH_decode.json");
    eprintln!(
        "[decode_bench] one-slot {seq_tps:.0} tok/s | batched {batched_tps:.0} tok/s | \
         speedup {speedup:.2}x -> {}",
        out_path.display()
    );
}
