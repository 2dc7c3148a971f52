//! Design-choice ablation (beyond the paper's Table XII): decoding
//! strategy. The same fine-tuned DataVisT5 checkpoint is decoded with
//! greedy search, beam search (width 4), and the ncNet-style grammar
//! mask, isolating how much of text-to-vis quality comes from decode-time
//! structure vs learned weights.

use bench::{emit, experiment_scale, m4, Report};
use corpus::Split;
use datavist5::config::Size;
use datavist5::data::{strip_prefix, Task, TaskExample};
use datavist5::eval::eval_text_to_vis;
use datavist5::zoo::{ModelKind, Predictor, Regime, Trained, Zoo};
use nn::decode::beam_decode;
use tokenizer::special;

/// Beam-search predictor over a trained T5.
struct BeamPredictor<'z> {
    zoo: &'z Zoo,
    trained: Trained,
    width: usize,
}

impl Predictor for BeamPredictor<'_> {
    fn predict(&self, example: &TaskExample) -> String {
        let Trained::T5 { model, ps } = &self.trained else {
            return String::new();
        };
        let max_len = self.zoo.scale.max_len();
        let mut ids = self.zoo.tok.encode_with_eos(&example.input);
        if ids.len() > max_len {
            ids.truncate(max_len - 1);
            ids.push(special::EOS);
        }
        let out = beam_decode(
            model,
            ps,
            &ids,
            special::EOS,
            self.zoo.scale.max_out(),
            self.width,
        );
        strip_prefix(example.task, &self.zoo.tok.decode(&out))
    }
}

fn main() {
    let scale = experiment_scale();
    let zoo = Zoo::new(scale);
    let examples = zoo.datasets.of(Task::TextToVis, Split::Test);
    let cap = scale.eval_cap().min(40);
    let kind = ModelKind::DataVisT5(Size::Base, Regime::Mft);

    let widths = [22usize, 9, 9, 9, 9];
    let mut r = Report::new("Ablation — decoding strategy on one DataVisT5 (base) MFT checkpoint");
    r.row(
        &widths,
        &["Strategy", "nj Vis", "nj Axis", "nj Data", "nj EM"],
    );
    r.rule(&widths);

    // Greedy.
    eprintln!("[ablation] greedy…");
    let trained = zoo.train_model_cached(kind, None);
    let greedy = zoo.predictor(kind, trained);
    let s = eval_text_to_vis(&*greedy, &examples, &zoo.corpus, cap).non_join;
    r.row(
        &widths,
        &[
            "greedy",
            &m4(s.vis_em),
            &m4(s.axis_em),
            &m4(s.data_em),
            &m4(s.em),
        ],
    );

    // Beam 4.
    eprintln!("[ablation] beam-4…");
    let trained = zoo.train_model_cached(kind, None);
    let beam = BeamPredictor {
        zoo: &zoo,
        trained,
        width: 4,
    };
    let s = eval_text_to_vis(&beam, &examples, &zoo.corpus, cap).non_join;
    r.row(
        &widths,
        &[
            "beam-4",
            &m4(s.vis_em),
            &m4(s.axis_em),
            &m4(s.data_em),
            &m4(s.em),
        ],
    );

    // Grammar-constrained (the ncNet trick on our weights).
    eprintln!("[ablation] grammar-constrained…");
    let trained = zoo.train_model_cached(kind, None);
    let constrained = zoo.predictor(ModelKind::NcNet, trained);
    let s = eval_text_to_vis(&*constrained, &examples, &zoo.corpus, cap).non_join;
    r.row(
        &widths,
        &[
            "grammar-masked",
            &m4(s.vis_em),
            &m4(s.axis_em),
            &m4(s.data_em),
            &m4(s.em),
        ],
    );

    r.line("");
    r.line(
        "Reading: beam usually edges out greedy on EM; the grammar mask guarantees \
         syntactic validity (Vis EM) but cannot repair semantic grounding.",
    );
    emit("ablation_decoding", &r.render());
}
