//! Deep-debug probe: inspects losses and decode behaviour of a small SFT
//! run to diagnose degenerate generation.

use bench::experiment_scale;
use corpus::Split;
use datavist5::data::Task;
use datavist5::finetune::single_task_examples;
use datavist5::zoo::Zoo;
use nn::batch::BatchedDecodeState;
use nn::decode::batched_greedy_decode;
use nn::engine::{Engine, EngineConfig, Request};
use nn::optim::LrSchedule;
use nn::train::{eval_mean, train_seq2seq, TrainConfig};
use tokenizer::special;

fn main() {
    let scale = experiment_scale();
    let zoo = Zoo::new(scale);
    let max_len = scale.max_len();
    let train = single_task_examples(
        &zoo.datasets,
        Task::TextToVis,
        &zoo.tok,
        max_len,
        Split::Train,
    );
    println!("train examples: {}", train.len());
    println!(
        "sample src len {}, tgt len {}",
        train[0].0.len(),
        train[0].1.len()
    );
    println!(
        "sample tgt ids: {:?}",
        &train[0].1[..train[0].1.len().min(12)]
    );

    let env = |k: &str, d: usize| -> usize {
        // det-ok: interactive debug probe; knobs only shape what it prints
        std::env::var(k)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(d)
    };
    // det-ok: interactive debug probe; knobs only shape what it prints
    let lr_env: f32 = std::env::var("LR")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5e-3);
    let steps_env = env("STEPS", 400);
    let rounds = env("ROUNDS", 4);
    let (model, mut ps) = {
        // Fresh (un-pretrained) model to isolate fine-tuning behaviour.
        let mut ps = nn::param::ParamSet::new();
        let mut rng = tensor::XorShift::new(42);
        let mut cfg = scale.t5_config(datavist5::config::Size::Base, zoo.tok.vocab().len());
        cfg.d_model = env("D_MODEL", cfg.d_model);
        cfg.d_ff = cfg.d_model * 2;
        cfg.heads = env("HEADS", cfg.heads);
        cfg.enc_layers = env("LAYERS", cfg.enc_layers);
        cfg.dec_layers = cfg.enc_layers;
        println!(
            "cfg: d={} ff={} heads={} layers={} lr={} steps/round={}",
            cfg.d_model, cfg.d_ff, cfg.heads, cfg.enc_layers, lr_env, steps_env
        );
        let model = nn::t5::T5Model::new(&mut ps, "dbg", cfg, &mut rng);
        (model, ps)
    };
    let before = eval_mean(&model, &ps, &train[..16.min(train.len())]);
    println!("loss before: {before:.3}");
    for (steps, lr) in std::iter::repeat_n((steps_env, lr_env), rounds) {
        let cfg = TrainConfig {
            steps,
            accum: 8,
            schedule: LrSchedule::Constant(lr),
            smoothing: 0.0,
            seed: 7,
            eval_every: 0,
            doctor: true,
            sanitizer: analysis::SanitizerMode::FirstStep,
            ckpt: None,
        };
        train_seq2seq(&model, &mut ps, &train, &[], &cfg);
        let loss = eval_mean(&model, &ps, &train[..16.min(train.len())]);
        println!("after +{steps} steps @ {lr}: train loss {loss:.3}");
        // Decode one training example.
        let (src, tgt) = &train[0];
        let out =
            batched_greedy_decode(&model, &ps, std::slice::from_ref(src), special::EOS, 40, 1);
        println!("  gold: {:?}", zoo.tok.decode(tgt));
        println!("  pred: {:?}", zoo.tok.decode(&out[0]));
        // Distribution at step 0: the first pick copies the row and ends
        // the request.
        let dec = BatchedDecodeState::new(&model, &ps, 1);
        let mut engine = Engine::new(dec, EngineConfig::new(1, 1, special::EOS));
        engine.submit(Request::new(0, (), src.clone()));
        let mut logits = Vec::new();
        engine
            .tick_with(|_, row, _| {
                logits = row.to_vec();
                None
            })
            .expect("one request on a one-slot engine");
        let mut top: Vec<(usize, f32)> = logits.iter().copied().enumerate().collect();
        top.sort_by(|a, b| b.1.total_cmp(&a.1));
        let names: Vec<String> = top
            .iter()
            .take(5)
            .map(|(i, v)| format!("{}:{v:.2}", zoo.tok.vocab().token(*i as u32).unwrap_or("?")))
            .collect();
        println!("  step0 top5: {names:?}");
    }
}
