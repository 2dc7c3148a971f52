//! Double-run bit-equality harness: the end-to-end proof behind the
//! determinism audit (PR: determinism auditor).
//!
//! The static lints (`analysis::det`) and the tape reduction-order
//! analysis (`analysis::order`) argue that nothing in the pipeline
//! depends on hash order, wall-clock, or ambient entropy. This suite is
//! the dynamic witness: build the same model twice, train it twice, and
//! decode with it twice — then compare *bits*, not tolerances. Weights,
//! both Adam moments, every per-step loss, and every decoded token must
//! be identical between the two runs.
//!
//! If any `HashMap` iteration, unseeded RNG, or non-canonical reduction
//! sneaks back into the training or decode path, these tests fail before
//! the source lints even need to name the culprit.

use analysis::SanitizerMode;
use nn::decode::batched_greedy_decode;
use nn::optim::LrSchedule;
use nn::param::ParamSet;
use nn::t5::{T5Config, T5Model};
use nn::train::{train_seq2seq, Example, TrainConfig, TrainReport};
use tensor::XorShift;

const VOCAB: usize = 24;
const STEPS: usize = 6;
/// Id `1` doubles as the sequence terminator in the toy dataset below
/// (matching `tokenizer::EOS`, which `nn` does not depend on).
const EOS: u32 = 1;

fn dataset() -> Vec<Example> {
    (0..5)
        .map(|i| {
            let a = 3 + i;
            let b = 9 + i;
            (vec![a, b, 1], vec![b, a, 1])
        })
        .collect()
}

/// Builds the model identically every time: same init RNG, same names.
fn build(cfg: T5Config) -> (T5Model, ParamSet) {
    let mut ps = ParamSet::new();
    let mut rng = XorShift::new(7);
    let m = T5Model::new(&mut ps, "m", cfg, &mut rng);
    (m, ps)
}

fn train_cfg() -> TrainConfig {
    TrainConfig {
        steps: STEPS,
        accum: 2,
        schedule: LrSchedule::warmup_rate(3e-3, 0.2, STEPS),
        smoothing: 0.1,
        seed: 42,
        eval_every: 2,
        doctor: false,
        sanitizer: SanitizerMode::Off,
        ckpt: None,
    }
}

/// Bit pattern of every weight and both Adam moments, in name order.
fn fingerprint(ps: &ParamSet) -> Vec<u32> {
    let mut bits = Vec::new();
    for name in ps.names() {
        let id = ps.by_name(&name).unwrap();
        bits.extend(ps.value(id).data().iter().map(|v| v.to_bits()));
        bits.extend(ps.adam_m(id).data().iter().map(|v| v.to_bits()));
        bits.extend(ps.adam_v(id).data().iter().map(|v| v.to_bits()));
    }
    bits
}

fn loss_bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// One complete run: fresh build, `STEPS` of training, then a batched
/// greedy decode over every source in the tiny dataset.
fn full_run(cfg: T5Config) -> (Vec<u32>, TrainReport, Vec<Vec<u32>>) {
    let data = dataset();
    let valid = dataset();
    let (model, mut ps) = build(cfg);
    let report = train_seq2seq(&model, &mut ps, &data, &valid, &train_cfg());
    let srcs: Vec<Vec<u32>> = data.iter().map(|(s, _)| s.clone()).collect();
    let decoded = batched_greedy_decode(&model, &ps, &srcs, EOS, 12, 3);
    (fingerprint(&ps), report, decoded)
}

fn assert_double_run_bit_identical(cfg: T5Config, tag: &str) {
    let (fp_a, rep_a, dec_a) = full_run(cfg);
    let (fp_b, rep_b, dec_b) = full_run(cfg);

    assert_eq!(
        fp_a, fp_b,
        "{tag}: weights or Adam moments differ between identical runs"
    );
    assert_eq!(
        loss_bits(&rep_a.step_losses),
        loss_bits(&rep_b.step_losses),
        "{tag}: per-step training losses differ between identical runs"
    );
    assert_eq!(
        loss_bits(&rep_a.valid_losses),
        loss_bits(&rep_b.valid_losses),
        "{tag}: validation losses differ between identical runs"
    );
    assert_eq!(
        rep_a.final_train_loss.to_bits(),
        rep_b.final_train_loss.to_bits(),
        "{tag}: final training loss differs between identical runs"
    );
    assert_eq!(
        dec_a, dec_b,
        "{tag}: batched greedy decode emitted different tokens across runs"
    );
}

#[test]
fn base_preset_double_run_is_bit_identical() {
    assert_double_run_bit_identical(T5Config::base(VOCAB), "base");
}

#[test]
fn large_preset_double_run_is_bit_identical() {
    assert_double_run_bit_identical(T5Config::large(VOCAB), "large");
}

/// The decode half in isolation: an *untrained* model decoded twice must
/// also agree token-for-token (catches nondeterminism in init + decode
/// without the training loop in between).
#[test]
fn untrained_decode_is_bit_identical() {
    let run = || {
        let (model, ps) = build(T5Config::base(VOCAB));
        let srcs: Vec<Vec<u32>> = dataset().iter().map(|(s, _)| s.clone()).collect();
        batched_greedy_decode(&model, &ps, &srcs, EOS, 12, 2)
    };
    assert_eq!(run(), run());
}

/// The whole pipeline — init, training (weights + Adam moments + every
/// loss), and batched decode — run at 1, 2, and 4 worker threads must
/// give *bitwise*-identical results. At these shapes no product reaches
/// 2 × `tensor::par::PAR_MIN_ELEMS` (4.19M MACs), so no kernel forks and
/// the sweep compares serial runs. Multi-core bits are pinned at the
/// kernel level by
/// `tensor::kernels::tests::parallel_dispatch_matches_serial_bitwise`.
///
/// `tensor::par::set_threads` is process-global, which is safe to flip
/// here *because* the kernels are thread-count-invariant: other tests
/// running concurrently see different worker counts but identical bits.
#[test]
fn thread_sweep_is_bit_identical() {
    let run_at = |threads: usize| {
        tensor::par::set_threads(threads);
        let out = full_run(T5Config::base(VOCAB));
        tensor::par::set_threads(1);
        out
    };
    let (fp_1, rep_1, dec_1) = run_at(1);
    for threads in [2usize, 4] {
        let (fp_t, rep_t, dec_t) = run_at(threads);
        assert_eq!(
            fp_1, fp_t,
            "weights or Adam moments differ between 1 and {threads} thread(s)"
        );
        assert_eq!(
            loss_bits(&rep_1.step_losses),
            loss_bits(&rep_t.step_losses),
            "per-step losses differ between 1 and {threads} thread(s)"
        );
        assert_eq!(
            loss_bits(&rep_1.valid_losses),
            loss_bits(&rep_t.valid_losses),
            "validation losses differ between 1 and {threads} thread(s)"
        );
        assert_eq!(
            dec_1, dec_t,
            "decoded tokens differ between 1 and {threads} thread(s)"
        );
    }
}
