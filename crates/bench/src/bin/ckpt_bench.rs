//! Checkpoint cost: what a periodic crash-safe snapshot adds to training.
//!
//! For each size preset this measures the serialized checkpoint size
//! (weights + Adam moments + train state), the atomic save and the
//! load+decode latency, and an average optimizer-step time on the same
//! model — reporting checkpoint overhead as a percentage of one training
//! step, i.e. what `every = 1` would cost (divide by `every` for any
//! other cadence).
//!
//! Writes `target/bench/BENCH_ckpt.json`:
//! `{presets: [{preset, param_scalars, ckpt_bytes, save_ms, load_ms,
//!   step_ms, overhead_pct_per_step}]}`.
//!
//! Usage: `ckpt_bench [--steps N] [--out PATH]`

use std::time::Instant;

use analysis::SanitizerMode;
use nn::ckpt::{self, StdIo, TrainState};
use nn::optim::{AdamW, LrSchedule};
use nn::param::ParamSet;
use nn::t5::{T5Config, T5Model};
use nn::train::{train_seq2seq, Example, TrainConfig};
use tensor::XorShift;

const VOCAB: usize = 512;

fn dataset() -> Vec<Example> {
    (0..8)
        .map(|i| {
            let a = 3 + i;
            let b = 9 + i;
            (vec![a, b, a + 1, 1], vec![b, a, 1])
        })
        .collect()
}

fn bench_preset(preset: &str, cfg: T5Config, steps: usize) -> serde_json::Value {
    let mut ps = ParamSet::new();
    let mut rng = XorShift::new(0xc4b7);
    let model = T5Model::new(&mut ps, "bench", cfg, &mut rng);
    let data = dataset();

    // Average optimizer-step time over a short run (no checkpointing).
    let tc = TrainConfig {
        steps,
        accum: 2,
        schedule: LrSchedule::Constant(1e-3),
        smoothing: 0.0,
        seed: 7,
        eval_every: 0,
        doctor: false,
        sanitizer: SanitizerMode::Off,
        ckpt: None,
    };
    let t0 = Instant::now();
    let report = train_seq2seq(&model, &mut ps, &data, &[], &tc);
    let step_ms = t0.elapsed().as_secs_f64() * 1e3 / report.steps as f64;

    // A realistic mid-run snapshot: weights, moments, and train state.
    let opt = AdamW::default();
    let state = TrainState {
        rng_state: 0xfeed,
        next_step: steps as u64,
        cursor: 3,
        order: (0..data.len() as u32).collect(),
        tail_sum: report.final_train_loss,
        tail_n: 1,
        step_losses: report.step_losses.clone(),
        valid_losses: vec![],
    };
    let snap = ps.snapshot(Some(&opt)).with_train(state);

    let dir = std::env::temp_dir().join("datavist5_ckpt_bench");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{preset}.bin"));

    let t1 = Instant::now();
    let mut io = StdIo;
    ckpt::save(&mut io, &path, &snap).expect("save checkpoint");
    let save_ms = t1.elapsed().as_secs_f64() * 1e3;

    let bytes = std::fs::metadata(&path).expect("stat checkpoint").len();

    let t2 = Instant::now();
    let loaded = ckpt::load(&StdIo, &path).expect("load checkpoint");
    let load_ms = t2.elapsed().as_secs_f64() * 1e3;
    assert_eq!(loaded, snap, "checkpoint round-trip drifted");

    let overhead_pct = save_ms / step_ms * 100.0;
    eprintln!(
        "[ckpt_bench] {preset}: {bytes} B | save {save_ms:.2} ms | load {load_ms:.2} ms | \
         step {step_ms:.2} ms | overhead {overhead_pct:.1}%/step"
    );
    serde_json::json!({
        "preset": preset,
        "param_scalars": ps.num_scalars(),
        "ckpt_bytes": bytes as i64,
        "save_ms": save_ms,
        "load_ms": load_ms,
        "step_ms": step_ms,
        "overhead_pct_per_step": overhead_pct,
    })
}

fn main() {
    let mut steps = 4usize;
    let mut out_path = bench::default_bench_out("ckpt");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--steps" => steps = val("--steps").parse().expect("--steps"),
            "--out" => out_path = val("--out").into(),
            other => panic!("unknown argument {other}"),
        }
    }

    let presets = vec![
        bench_preset("base", T5Config::base(VOCAB), steps),
        bench_preset("large", T5Config::large(VOCAB), steps),
    ];
    let json = serde_json::json!({ "presets": presets });
    let rendered = serde_json::to_string_pretty(&json).expect("serialize");
    println!("{rendered}");
    std::fs::write(&out_path, rendered + "\n").expect("write BENCH_ckpt.json");
    eprintln!("[ckpt_bench] -> {}", out_path.display());
}
