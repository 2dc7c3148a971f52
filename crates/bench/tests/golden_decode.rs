//! Golden + differential regression tests of the batched eval path.
//!
//! Two guarantees, both at Smoke scale with deterministic random-weight
//! models (the committed `bench/out/table04_text_to_vis.txt` is a
//! Full-scale artifact that takes hours of training to regenerate; these
//! tests lock the same eval pipeline at a scale a test can afford —
//! DESIGN.md records the rationale):
//!
//! 1. `batched_eval_matches_sequential_on_all_four_tasks` — every task's
//!    eval harness produces *identical scores* whether predictions come
//!    from batched decoding or from per-example decoding (each example a
//!    batch of one), across all three neural predictor flavors (plain
//!    greedy, grammar-constrained, retrieval-augmented).
//! 2. `table04_smoke_rendering_matches_golden` — the Table IV-format
//!    report, re-rendered through the batched eval path, is byte-identical
//!    to the committed golden file `bench/golden/table04_smoke_decode.txt`.
//!    Regenerate with `GOLDEN_BLESS=1 cargo test -p bench`.

use std::path::PathBuf;

use bench::{m4, Report};
use corpus::Split;
use datavist5::config::{Scale, Size};
use datavist5::data::{Task, TaskExample};
use datavist5::eval::{eval_text_gen, eval_text_to_vis};
use datavist5::zoo::{ModelKind, Predictor, Trained, Zoo};
use nn::param::ParamSet;
use nn::t5::T5Model;
use tensor::XorShift;

/// A deterministic random-weight model wrapped as a trained system. Eval
/// equivalence and rendering stability do not depend on what the weights
/// say — only that both decode paths see the same ones.
fn random_trained(zoo: &Zoo, seed: u64) -> Trained {
    let mut ps = ParamSet::new();
    let mut rng = XorShift::new(seed);
    let cfg = Scale::Smoke.t5_config(Size::Base, zoo.tok.vocab().len());
    let model = T5Model::new(&mut ps, "golden", cfg, &mut rng);
    Trained::T5 {
        model: Box::new(model),
        ps,
    }
}

/// Hides a predictor's `predict_batch` override so every prediction goes
/// through the per-example decode path.
struct SequentialOnly<'a>(&'a dyn Predictor);

impl Predictor for SequentialOnly<'_> {
    fn predict(&self, example: &TaskExample) -> String {
        self.0.predict(example)
    }
}

/// The three predictor flavors with batched overrides, on independently
/// seeded models.
fn flavors(zoo: &Zoo) -> Vec<(&'static str, Box<dyn Predictor + '_>)> {
    vec![
        (
            "greedy",
            zoo.predictor(ModelKind::Transformer, random_trained(zoo, 0x601d)),
        ),
        (
            "constrained",
            zoo.predictor(ModelKind::NcNet, random_trained(zoo, 0x602d)),
        ),
        (
            "retrieval",
            zoo.predictor(ModelKind::RgVisNet, random_trained(zoo, 0x603d)),
        ),
    ]
}

#[test]
fn batched_eval_matches_sequential_on_all_four_tasks() {
    let zoo = Zoo::new(Scale::Smoke);
    let cap = Scale::Smoke.eval_cap();

    // Text-to-vis: all three predictor flavors.
    let examples = zoo.datasets.of(Task::TextToVis, Split::Test);
    for (name, p) in flavors(&zoo) {
        let batched = eval_text_to_vis(&*p, &examples, &zoo.corpus, cap);
        let sequential = eval_text_to_vis(&SequentialOnly(&*p), &examples, &zoo.corpus, cap);
        assert_eq!(batched, sequential, "{name} diverged on text-to-vis");
    }

    // The three generative tasks: the plain greedy predictor.
    let p = zoo.predictor(ModelKind::Transformer, random_trained(&zoo, 0x604d));
    for task in [Task::VisToText, Task::FeVisQa, Task::TableToText] {
        let examples = zoo.datasets.of(task, Split::Test);
        let batched = eval_text_gen(&*p, &examples, cap);
        let sequential = eval_text_gen(&SequentialOnly(&*p), &examples, cap);
        assert_eq!(batched, sequential, "{task:?} diverged");
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../bench/golden")
        .join("table04_smoke_decode.txt")
}

#[test]
fn table04_smoke_rendering_matches_golden() {
    let zoo = Zoo::new(Scale::Smoke);
    let cap = Scale::Smoke.eval_cap();
    let examples = zoo.datasets.of(Task::TextToVis, Split::Test);

    let widths = [14usize, 9, 9, 9, 9, 9, 9, 9, 9];
    let mut r = Report::new("Table IV smoke golden — batched eval path, random-weight models");
    r.line(format!(
        "test examples: {} | eval cap per subset: {cap}",
        examples.len()
    ));
    r.row(
        &widths,
        &[
            "Predictor",
            "nj Vis",
            "nj Axis",
            "nj Data",
            "nj EM",
            "j Vis",
            "j Axis",
            "j Data",
            "j EM",
        ],
    );
    r.rule(&widths);
    for (name, p) in flavors(&zoo) {
        let s = eval_text_to_vis(&*p, &examples, &zoo.corpus, cap);
        let (nj, j) = (s.non_join, s.join);
        r.row(
            &widths,
            &[
                name,
                &m4(nj.vis_em),
                &m4(nj.axis_em),
                &m4(nj.data_em),
                &m4(nj.em),
                &m4(j.vis_em),
                &m4(j.axis_em),
                &m4(j.data_em),
                &m4(j.em),
            ],
        );
        r.line(format!("  lints: {}", s.lints));
    }
    let rendered = r.render();

    let path = golden_path();
    if std::env::var("GOLDEN_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with GOLDEN_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        rendered, committed,
        "batched eval rendering diverged from the committed golden; \
         if the change is intentional, regenerate with GOLDEN_BLESS=1"
    );
}
