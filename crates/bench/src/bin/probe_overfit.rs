//! Bug-vs-scale diagnostic: overfit one database's text-to-vis examples.
//! If the model cannot produce distinct, correct outputs for distinct
//! inputs it has seen hundreds of times, conditioning is broken; if it
//! can, the full-corpus gap is a capacity/budget issue.

use bench::experiment_scale;
use corpus::Split;
use datavist5::data::Task;
use datavist5::finetune::tokenize_pair;
use datavist5::zoo::Zoo;
use nn::decode::batched_greedy_decode;
use nn::optim::LrSchedule;
use nn::train::{train_seq2seq, TrainConfig};
use tokenizer::special;

fn main() {
    let scale = experiment_scale();
    let zoo = Zoo::new(scale);
    // One database's train examples only.
    let all = zoo.datasets.of(Task::TextToVis, Split::Train);
    let db = all[0].db_name.clone();
    let subset: Vec<_> = all.iter().filter(|e| e.db_name == db).collect();
    println!("overfitting {} examples from {db}", subset.len());
    let data: Vec<(Vec<u32>, Vec<u32>)> = subset
        .iter()
        .map(|e| tokenize_pair(&zoo.tok, &e.input, &e.output, scale.max_len()))
        .collect();

    let mut ps = nn::param::ParamSet::new();
    let mut rng = tensor::XorShift::new(77);
    let cfg = scale.t5_config(datavist5::config::Size::Base, zoo.tok.vocab().len());
    let model = nn::t5::T5Model::new(&mut ps, "ovf", cfg, &mut rng);

    for round in 0..4 {
        let tc = TrainConfig {
            steps: 150,
            accum: 4,
            schedule: LrSchedule::Constant(5e-3),
            smoothing: 0.0,
            seed: round as u64,
            eval_every: 0,
            doctor: round == 0,
            sanitizer: analysis::SanitizerMode::FirstStep,
            ckpt: None,
        };
        train_seq2seq(&model, &mut ps, &data, &[], &tc);
        let loss = nn::train::eval_mean(&model, &ps, &data);
        println!("after {} steps: loss {loss:.3}", (round + 1) * 150);
    }
    // Conditioning check: target likelihood under its own source vs a
    // mismatched source.
    for i in 0..3 {
        let (src_i, tgt_i) = &data[i];
        let (src_j, _) = &data[(i + 5) % data.len()];
        let own = model.eval_loss(&ps, src_i, tgt_i);
        let crossed = model.eval_loss(&ps, src_j, tgt_i);
        println!("example {i}: loss(tgt|own src) = {own:.3}  loss(tgt|wrong src) = {crossed:.3}");
    }
    let mut exact = 0;
    let srcs: Vec<Vec<u32>> = data.iter().take(8).map(|(src, _)| src.clone()).collect();
    let outs = batched_greedy_decode(&model, &ps, &srcs, special::EOS, 48, srcs.len());
    for (i, (e, out)) in subset.iter().zip(&outs).enumerate() {
        let pred = zoo.tok.decode(out);
        let gold = &e.output;
        if pred == *gold {
            exact += 1;
        }
        if i < 4 {
            println!("gold: {gold}");
            println!("pred: {pred}");
        }
    }
    println!("exact on trained examples: {exact}/8");
}
