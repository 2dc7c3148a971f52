//! The model zoo: every system the paper compares, buildable and trainable
//! from one place.
//!
//! | Paper model | Reproduction recipe |
//! |---|---|
//! | Seq2Vis | attention LSTM seq2seq, single-task training |
//! | Transformer | sinusoidal-position encoder–decoder, single-task |
//! | ncNet | Transformer + grammar-constrained decoding |
//! | RGVisNet | TF-IDF prototype retrieval + code-pretrained refiner |
//! | BART | denoising (MLM) text-pretrained model, SFT |
//! | CodeT5+ (220M/770M) | code-pretrained init, SFT |
//! | GPT-4 few-shot | retrieval + schema-adaptation simulator (no training) |
//! | Llama2-7b / Mistral-7b + LoRA | generic-text-pretrained large model, LoRA adapters |
//! | DataVisT5 (220M/770M) | code init → hybrid pre-training → MFT |
//! | T5-large (ablation) | generic-text-pretrained init, SFT |
//!
//! Pre-trained checkpoints are cached under `target/datavist5-ckpt/` so a
//! fleet of fine-tunes shares each pre-training run.

use std::path::PathBuf;

use corpus::{Corpus, Split};
use nn::ckpt::{self, StdIo};
use nn::decode::{batched_constrained_decode, batched_greedy_decode, greedy_decode};
use nn::lstm::{LstmConfig, LstmSeq2Seq};
use nn::param::ParamSet;
use nn::t5::{Positional, T5Model};
use nn::train::{train_seq2seq, CkptConfig, Example, TrainConfig};
use tensor::XorShift;
use tokenizer::{special, WordTokenizer};
use vql::grammar::{GrammarConstraint, EOS as GRAMMAR_EOS};

use crate::config::{Scale, Size};
use crate::data::{strip_prefix, Task, TaskDatasets, TaskExample};
use crate::finetune::{multi_task_examples, single_task_examples, tokenize_pair};
use crate::pretrain::{pretrain, Objective, PretrainConfig, PretrainData};
use crate::retrieval::TfIdfIndex;

/// Fine-tuning regime for the DataVisT5 family (Table XII ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Multi-task fine-tuning with temperature-2 up-sampling.
    Mft,
    /// MFT but pre-training omits the BDC objective.
    MftNoBdc,
    /// MFT with proportional (temperature-1) mixing.
    MftNoUpsampling,
    /// No fine-tuning at all: zero-shot from the pre-trained checkpoint.
    ZeroShot,
    /// Single-task fine-tuning.
    Sft,
}

/// Every comparison system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    Seq2Vis,
    Transformer,
    NcNet,
    RgVisNet,
    Bart,
    CodeT5Sft(Size),
    T5Sft(Size),
    Gpt4FewShot,
    Llama2Lora,
    Mistral7bLora,
    DataVisT5(Size, Regime),
}

impl ModelKind {
    /// Display name matching the paper's tables.
    pub fn label(&self) -> String {
        match self {
            ModelKind::Seq2Vis => "Seq2Vis".into(),
            ModelKind::Transformer => "Transformer".into(),
            ModelKind::NcNet => "ncNet".into(),
            ModelKind::RgVisNet => "RGVisNet".into(),
            ModelKind::Bart => "BART".into(),
            ModelKind::CodeT5Sft(s) => format!("CodeT5+ ({}) +SFT", s.label()),
            ModelKind::T5Sft(s) => format!("T5-large ({}) +SFT", s.label()),
            ModelKind::Gpt4FewShot => "GPT-4 (few-shot)".into(),
            ModelKind::Llama2Lora => "LLama2-7b +LoRA".into(),
            ModelKind::Mistral7bLora => "Mistral-7b +LoRA".into(),
            ModelKind::DataVisT5(s, Regime::Mft) => format!("DataVisT5 ({}) +MFT", s.label()),
            ModelKind::DataVisT5(s, Regime::Sft) => format!("DataVisT5 ({}) +SFT", s.label()),
            ModelKind::DataVisT5(s, Regime::MftNoBdc) => {
                format!("DataVisT5 ({}) w/o BDC", s.label())
            }
            ModelKind::DataVisT5(s, Regime::MftNoUpsampling) => {
                format!("DataVisT5 ({}) w/o up-sampling", s.label())
            }
            ModelKind::DataVisT5(s, Regime::ZeroShot) => {
                format!("DataVisT5 ({}) w/o MFT", s.label())
            }
        }
    }
}

/// A trained sequence model plus its weights.
pub enum Trained {
    T5 {
        model: Box<T5Model>,
        ps: ParamSet,
    },
    Lstm {
        model: Box<LstmSeq2Seq>,
        ps: ParamSet,
    },
}

/// Anything that maps a task example to a prediction string (with the
/// output prefix stripped).
pub trait Predictor {
    fn predict(&self, example: &TaskExample) -> String;

    /// Predicts a whole slice of examples. The default maps
    /// [`Predictor::predict`]; the neural predictors override it to pack
    /// concurrent decodes into the batched inference engine
    /// ([`nn::batch::BatchedDecodeState`]), whose tokens per input do not
    /// depend on the batch — overriding never changes outputs, only
    /// throughput.
    fn predict_batch(&self, examples: &[&TaskExample]) -> Vec<String> {
        examples.iter().map(|e| self.predict(e)).collect()
    }
}

/// Slot capacity the eval-path predictors hand to the batched engine.
const DECODE_SLOTS: usize = 8;

/// Run log for checkpoint-cache decisions (load vs recover vs retrain),
/// so a training fleet's behavior under faults is auditable from stderr
/// and, with the obs layer on, machine-countable from the event stream.
fn run_log(msg: impl std::fmt::Display) {
    obs::info("zoo", msg.to_string());
}

/// Shared assets: corpus, encoded datasets, tokenizer, checkpoint cache.
pub struct Zoo {
    pub scale: Scale,
    pub corpus: Corpus,
    pub datasets: TaskDatasets,
    pub tok: WordTokenizer,
    ckpt_dir: PathBuf,
}

impl Zoo {
    /// Builds the corpus, datasets, and vocabulary for a scale.
    pub fn new(scale: Scale) -> Zoo {
        let corpus = Corpus::generate(&scale.corpus_config());
        let datasets = TaskDatasets::build(&corpus);
        let tok = WordTokenizer::fit(datasets.all_texts(), 1);
        let ckpt_dir = PathBuf::from("target")
            .join("datavist5-ckpt")
            .join(match scale {
                Scale::Smoke => "smoke",
                Scale::Full => "full",
            });
        if let Err(e) = std::fs::create_dir_all(&ckpt_dir) {
            // Not fatal — every subsequent save reports its own typed
            // error — but the degraded mode must be visible in the log.
            obs::error(
                "zoo",
                format!(
                    "failed to create checkpoint dir '{}': {e}; checkpoints will not be cached",
                    ckpt_dir.display()
                ),
            );
        }
        Zoo {
            scale,
            corpus,
            datasets,
            tok,
            ckpt_dir,
        }
    }

    fn vocab_size(&self) -> usize {
        self.tok.vocab().len()
    }

    fn build_t5(&self, key: &str, size: Size, positional: Positional) -> (T5Model, ParamSet) {
        let mut ps = ParamSet::new();
        let mut rng = XorShift::new(crate::seed_of(key));
        let mut cfg = self.scale.t5_config(size, self.vocab_size());
        cfg.positional = positional;
        let model = T5Model::new(&mut ps, key, cfg, &mut rng);
        (model, ps)
    }

    /// Loads a cached checkpoint into `ps`, distinguishing *missing*
    /// (fresh start, no noise) from *corrupt* (typed error in the run
    /// log, then an attempt on the rotated last-good snapshot). Returns
    /// whether usable weights were loaded.
    fn load_cached_weights(&self, key: &str, path: &std::path::Path, ps: &mut ParamSet) -> bool {
        match ps.load(path) {
            Ok(()) => {
                run_log(format!("'{key}': loaded cached checkpoint"));
                true
            }
            Err(e) if e.is_missing() => {
                run_log(format!("'{key}': no cached checkpoint; training"));
                false
            }
            Err(e) => {
                obs::warn("zoo", format!("'{key}': cached checkpoint unusable: {e}"));
                let prev = ckpt::prev_path(path);
                match ckpt::load(&StdIo, &prev).and_then(|snap| ps.restore(&snap)) {
                    Ok(()) => {
                        obs::warn(
                            "zoo",
                            format!(
                                "'{key}': recovered from last good snapshot '{}'",
                                prev.display()
                            ),
                        );
                        true
                    }
                    Err(pe) => {
                        obs::warn(
                            "zoo",
                            format!("'{key}': no usable snapshot ({pe}); retraining from scratch"),
                        );
                        false
                    }
                }
            }
        }
    }

    /// Mid-run resume checkpoint configuration for a cache key: periodic
    /// crash-safe snapshots beside the final artifact, resumed
    /// automatically when a previous run died partway.
    fn resume_config(&self, key: &str, steps: usize) -> CkptConfig {
        CkptConfig::periodic(
            self.ckpt_dir.join(format!("{key}.resume.bin")),
            (steps / 4).max(1),
        )
    }

    /// Runs `train` once per checkpoint key, caching weights on disk.
    ///
    /// The closure receives a [`CkptConfig`] pointing at the key's resume
    /// file; training loops wire it into their config so an interrupted
    /// run continues from its last periodic snapshot instead of starting
    /// over.
    fn cached<F>(
        &self,
        key: &str,
        size: Size,
        positional: Positional,
        train: F,
    ) -> (T5Model, ParamSet)
    where
        F: FnOnce(&T5Model, &mut ParamSet, CkptConfig),
    {
        let (model, mut ps) = self.build_t5(key, size, positional);
        let path = self.ckpt_dir.join(format!("{key}.bin"));
        if self.load_cached_weights(key, &path, &mut ps) {
            return (model, ps);
        }
        train(
            &model,
            &mut ps,
            self.resume_config(key, self.scale.pretrain_steps()),
        );
        match ps.save(&path) {
            Ok(()) => {
                // The completed artifact supersedes the mid-run snapshots.
                let resume = self.ckpt_dir.join(format!("{key}.resume.bin"));
                let _ = std::fs::remove_file(ckpt::prev_path(&resume));
                let _ = std::fs::remove_file(resume);
            }
            Err(e) => obs::error("zoo", format!("'{key}': failed to save checkpoint: {e}")),
        }
        (model, ps)
    }

    /// Code-like pre-training (the CodeT5+ initialization substitute):
    /// span-corruption MLM over DV queries and schema encodings.
    pub fn code_pretrained(&self, size: Size) -> (T5Model, ParamSet) {
        let key = format!("code_pt_{}", size.label());
        self.cached(&key, size, Positional::RelativeBias, |model, ps, resume| {
            let mut data = PretrainData::default();
            for e in &self.datasets.examples {
                if e.split != Split::Train {
                    continue;
                }
                match e.task {
                    Task::TextToVis => data.mlm.push(e.output.clone()),
                    Task::VisToText => data.mlm.push(e.input.clone()),
                    _ => {}
                }
            }
            data.add_dv_knowledge(&self.corpus.databases);
            let mut cfg = PretrainConfig::at(
                self.scale.pretrain_steps(),
                self.scale.accum(),
                self.scale.max_len(),
            );
            cfg.sanitizer = self.scale.sanitizer_mode();
            cfg.ckpt = Some(resume);
            pretrain(model, ps, &self.tok, &data, Objective::MlmOnly, &cfg);
        })
    }

    /// Generic-text pre-training (the T5/BART/Llama substitute):
    /// span-corruption MLM over NL questions, descriptions, and answers.
    pub fn text_pretrained(&self, size: Size) -> (T5Model, ParamSet) {
        let key = format!("text_pt_{}", size.label());
        self.cached(&key, size, Positional::RelativeBias, |model, ps, resume| {
            let mut data = PretrainData::default();
            for e in &self.datasets.examples {
                if e.split != Split::Train {
                    continue;
                }
                match e.task {
                    Task::TextToVis => data.mlm.push(e.input.clone()),
                    Task::VisToText | Task::TableToText | Task::FeVisQa => {
                        data.mlm.push(e.output.clone())
                    }
                }
            }
            let mut cfg = PretrainConfig::at(
                self.scale.pretrain_steps(),
                self.scale.accum(),
                self.scale.max_len(),
            );
            cfg.sanitizer = self.scale.sanitizer_mode();
            cfg.ckpt = Some(resume);
            pretrain(model, ps, &self.tok, &data, Objective::MlmOnly, &cfg);
        })
    }

    /// The DataVisT5 pre-training: code init, then hybrid (or MLM-only for
    /// the ablation) objectives over the unified corpus.
    pub fn datavis_pretrained(&self, size: Size, with_bdc: bool) -> (T5Model, ParamSet) {
        let key = format!(
            "datavis_pt_{}_{}",
            size.label(),
            if with_bdc { "hybrid" } else { "mlm" }
        );
        // Start from the code checkpoint (the paper starts from CodeT5+).
        self.cached(&key, size, Positional::RelativeBias, |model, ps, resume| {
            // Warm-start: the code checkpoint was registered under another
            // prefix, so transplant via a freshly built code model.
            transplant(self, size, ps);
            let mut data = PretrainData::build(&self.datasets);
            data.add_dv_knowledge(&self.corpus.databases);
            let objective = if with_bdc {
                Objective::Hybrid
            } else {
                Objective::MlmOnly
            };
            let data = if with_bdc { data } else { data.mlm_only() };
            // Twice the generic budget: the BDC objective is the paper's
            // central transfer mechanism and trains the task mappings
            // directly.
            let mut cfg = PretrainConfig::at(
                self.scale.pretrain_steps() * 2,
                self.scale.accum(),
                self.scale.max_len(),
            );
            cfg.sanitizer = self.scale.sanitizer_mode();
            cfg.ckpt = Some(resume);
            pretrain(model, ps, &self.tok, &data, objective, &cfg);
        })
    }

    /// Fine-tuning configuration at this scale.
    fn ft_config(&self) -> TrainConfig {
        let steps = self.scale.finetune_steps();
        TrainConfig {
            steps,
            accum: self.scale.accum(),
            schedule: nn::optim::LrSchedule::warmup_rate(1e-2, 0.05, steps),
            smoothing: 0.0,
            seed: 0xf17e,
            eval_every: 0,
            doctor: true,
            sanitizer: self.scale.sanitizer_mode(),
            ckpt: None,
        }
    }

    /// Cache key for a fine-tuned (kind, task) pair. ncNet differs from
    /// the Transformer only at decode time; the two share one checkpoint.
    fn ckpt_key(kind: ModelKind, task: Option<Task>) -> String {
        let cache_kind = if kind == ModelKind::NcNet {
            ModelKind::Transformer
        } else {
            kind
        };
        format!(
            "ft_{}_{}",
            cache_kind
                .label()
                .replace([' ', '(', ')', '+', '/'], "_")
                .to_lowercase(),
            task.map(|t| t.label()).unwrap_or("multi")
        )
    }

    /// Builds and trains a comparison system for a task (single-task
    /// models) or for the multi-task mixture (`task = None`). GPT-4 is not
    /// a trainable model — use [`Zoo::gpt4_predictor`].
    pub fn train_model(&self, kind: ModelKind, task: Option<Task>) -> Trained {
        let mut tcfg = self.ft_config();
        // Fine-tunes checkpoint periodically under their cache key, so a
        // killed run resumes mid-epoch instead of restarting (GPT-4 has no
        // training loop and never reaches a config that uses this).
        tcfg.ckpt =
            Some(self.resume_config(&Self::ckpt_key(kind, task), self.scale.finetune_steps()));
        let max_len = self.scale.max_len();
        let data_for = |t: Task| -> Vec<Example> {
            single_task_examples(&self.datasets, t, &self.tok, max_len, Split::Train)
        };
        match kind {
            ModelKind::Seq2Vis => {
                let t = task.expect("Seq2Vis is single-task");
                let mut ps = ParamSet::new();
                let mut rng = XorShift::new(crate::seed_of("seq2vis"));
                let cfg = LstmConfig {
                    vocab: self.vocab_size(),
                    d_emb: self.scale.t5_config(Size::Base, 1).d_model,
                    hidden: self.scale.t5_config(Size::Base, 1).d_model,
                };
                let model = LstmSeq2Seq::new(&mut ps, "seq2vis", cfg, &mut rng);
                // The RNN baseline saturates early (it underperforms at any
                // budget in the paper, too); a third of the budget suffices.
                let mut lstm_cfg = tcfg.clone();
                lstm_cfg.steps = (tcfg.steps / 3).max(1);
                train_seq2seq(&model, &mut ps, &data_for(t), &[], &lstm_cfg);
                Trained::Lstm {
                    model: Box::new(model),
                    ps,
                }
            }
            ModelKind::Transformer | ModelKind::NcNet => {
                let t = task.expect("Transformer is single-task");
                let (model, mut ps) = self.build_t5("vanilla", Size::Base, Positional::Sinusoidal);
                train_seq2seq(&model, &mut ps, &data_for(t), &[], &tcfg);
                Trained::T5 {
                    model: Box::new(model),
                    ps,
                }
            }
            ModelKind::RgVisNet => {
                let (model, mut ps) = self.code_pretrained(Size::Base);
                let examples = self.rgvisnet_examples(Split::Train);
                train_seq2seq(&model, &mut ps, &examples, &[], &tcfg);
                Trained::T5 {
                    model: Box::new(model),
                    ps,
                }
            }
            ModelKind::Bart => {
                let t = task.expect("BART is single-task");
                let (model, mut ps) = self.text_pretrained(Size::Base);
                train_seq2seq(&model, &mut ps, &data_for(t), &[], &tcfg);
                Trained::T5 {
                    model: Box::new(model),
                    ps,
                }
            }
            ModelKind::CodeT5Sft(size) => {
                let t = task.expect("CodeT5+ SFT is single-task");
                let (model, mut ps) = self.code_pretrained(size);
                train_seq2seq(&model, &mut ps, &data_for(t), &[], &tcfg);
                Trained::T5 {
                    model: Box::new(model),
                    ps,
                }
            }
            ModelKind::T5Sft(size) => {
                let t = task.expect("T5 SFT is single-task");
                let (model, mut ps) = self.text_pretrained(size);
                train_seq2seq(&model, &mut ps, &data_for(t), &[], &tcfg);
                Trained::T5 {
                    model: Box::new(model),
                    ps,
                }
            }
            ModelKind::Llama2Lora | ModelKind::Mistral7bLora => {
                let t = task.expect("LoRA baselines are single-task");
                let (mut model, mut ps) = self.text_pretrained(Size::Large);
                let (rank, seed) = if kind == ModelKind::Llama2Lora {
                    (8, 0x11a)
                } else {
                    (16, 0x777)
                };
                let mut rng = XorShift::new(seed);
                model.lora_adapt(&mut ps, rank, 2.0 * rank as f32, &mut rng);
                let mut cfg = tcfg.clone();
                // Adapters tolerate (and need) a higher rate.
                cfg.schedule = nn::optim::LrSchedule::warmup_rate(5e-3, 0.1, cfg.steps);
                train_seq2seq(&model, &mut ps, &data_for(t), &[], &cfg);
                Trained::T5 {
                    model: Box::new(model),
                    ps,
                }
            }
            ModelKind::Gpt4FewShot => {
                panic!("GPT-4 is retrieval-based; use Zoo::gpt4_predictor")
            }
            ModelKind::DataVisT5(size, regime) => {
                let with_bdc = regime != Regime::MftNoBdc;
                let (model, mut ps) = self.datavis_pretrained(size, with_bdc);
                match regime {
                    Regime::ZeroShot => {}
                    Regime::Sft => {
                        let t = task.expect("SFT needs a task");
                        train_seq2seq(&model, &mut ps, &data_for(t), &[], &tcfg);
                    }
                    Regime::Mft | Regime::MftNoBdc | Regime::MftNoUpsampling => {
                        let temperature = if regime == Regime::MftNoUpsampling {
                            1.0
                        } else {
                            2.0
                        };
                        let mixed = multi_task_examples(
                            &self.datasets,
                            &self.tok,
                            max_len,
                            temperature,
                            0xda7a,
                        );
                        // The mixture is ~4x one task's data; scale steps so
                        // MFT sees as many epochs per task as SFT does (the
                        // paper trains both settings to convergence).
                        let mut mft_cfg = tcfg.clone();
                        mft_cfg.steps = tcfg.steps * 3;
                        mft_cfg.schedule =
                            nn::optim::LrSchedule::warmup_rate(1e-2, 0.05, mft_cfg.steps);
                        train_seq2seq(&model, &mut ps, &mixed, &[], &mft_cfg);
                    }
                }
                Trained::T5 {
                    model: Box::new(model),
                    ps,
                }
            }
        }
    }

    /// Like [`Zoo::train_model`], but caches fine-tuned weights on disk so
    /// that experiment binaries sharing a model (e.g. Tables IV, VI, VIII
    /// all evaluating the same MFT DataVisT5) train it once.
    pub fn train_model_cached(&self, kind: ModelKind, task: Option<Task>) -> Trained {
        let key = Self::ckpt_key(kind, task);
        let path = self.ckpt_dir.join(format!("{key}.bin"));
        if let Some(mut trained) = self.build_untrained(kind) {
            let loaded = match &mut trained {
                Trained::T5 { ps, .. } => self.load_cached_weights(&key, &path, ps),
                Trained::Lstm { ps, .. } => self.load_cached_weights(&key, &path, ps),
            };
            if loaded {
                return trained;
            }
        }
        let trained = self.train_model(kind, task);
        let ps = match &trained {
            Trained::T5 { ps, .. } => ps,
            Trained::Lstm { ps, .. } => ps,
        };
        match ps.save(&path) {
            Ok(()) => {
                let resume = self.ckpt_dir.join(format!("{key}.resume.bin"));
                let _ = std::fs::remove_file(ckpt::prev_path(&resume));
                let _ = std::fs::remove_file(resume);
            }
            Err(e) => obs::error("zoo", format!("'{key}': failed to save checkpoint: {e}")),
        }
        trained
    }

    /// Rebuilds a model's architecture (identical parameter names and
    /// shapes) without training, for checkpoint loading.
    fn build_untrained(&self, kind: ModelKind) -> Option<Trained> {
        match kind {
            ModelKind::Seq2Vis => {
                let mut ps = ParamSet::new();
                let mut rng = XorShift::new(crate::seed_of("seq2vis"));
                let cfg = LstmConfig {
                    vocab: self.vocab_size(),
                    d_emb: self.scale.t5_config(Size::Base, 1).d_model,
                    hidden: self.scale.t5_config(Size::Base, 1).d_model,
                };
                let model = LstmSeq2Seq::new(&mut ps, "seq2vis", cfg, &mut rng);
                Some(Trained::Lstm {
                    model: Box::new(model),
                    ps,
                })
            }
            ModelKind::Transformer | ModelKind::NcNet => {
                let (model, ps) = self.build_t5("vanilla", Size::Base, Positional::Sinusoidal);
                Some(Trained::T5 {
                    model: Box::new(model),
                    ps,
                })
            }
            ModelKind::RgVisNet => {
                let (model, ps) =
                    self.build_t5("code_pt_220M", Size::Base, Positional::RelativeBias);
                Some(Trained::T5 {
                    model: Box::new(model),
                    ps,
                })
            }
            ModelKind::Bart => {
                let (model, ps) =
                    self.build_t5("text_pt_220M", Size::Base, Positional::RelativeBias);
                Some(Trained::T5 {
                    model: Box::new(model),
                    ps,
                })
            }
            ModelKind::CodeT5Sft(size) => {
                let key = format!("code_pt_{}", size.label());
                let (model, ps) = self.build_t5(&key, size, Positional::RelativeBias);
                Some(Trained::T5 {
                    model: Box::new(model),
                    ps,
                })
            }
            ModelKind::T5Sft(size) => {
                let key = format!("text_pt_{}", size.label());
                let (model, ps) = self.build_t5(&key, size, Positional::RelativeBias);
                Some(Trained::T5 {
                    model: Box::new(model),
                    ps,
                })
            }
            ModelKind::Llama2Lora | ModelKind::Mistral7bLora => {
                let (mut model, mut ps) =
                    self.build_t5("text_pt_770M", Size::Large, Positional::RelativeBias);
                let (rank, seed) = if kind == ModelKind::Llama2Lora {
                    (8, 0x11a)
                } else {
                    (16, 0x777)
                };
                let mut rng = XorShift::new(seed);
                model.lora_adapt(&mut ps, rank, 2.0 * rank as f32, &mut rng);
                Some(Trained::T5 {
                    model: Box::new(model),
                    ps,
                })
            }
            ModelKind::Gpt4FewShot => None,
            ModelKind::DataVisT5(size, regime) => {
                let with_bdc = regime != Regime::MftNoBdc;
                let key = format!(
                    "datavis_pt_{}_{}",
                    size.label(),
                    if with_bdc { "hybrid" } else { "mlm" }
                );
                let (model, ps) = self.build_t5(&key, size, Positional::RelativeBias);
                Some(Trained::T5 {
                    model: Box::new(model),
                    ps,
                })
            }
        }
    }

    /// RGVisNet example transformation: append the retrieved prototype
    /// query to the input.
    fn rgvisnet_examples(&self, split: Split) -> Vec<Example> {
        let train = self.datasets.of(Task::TextToVis, Split::Train);
        let questions: Vec<String> = train.iter().map(|e| e.input.clone()).collect();
        let index = TfIdfIndex::build(&questions);
        self.datasets
            .of(Task::TextToVis, split)
            .into_iter()
            .map(|e| {
                let input = self.rgvisnet_input(&index, &train, e);
                tokenize_pair(&self.tok, &input, &e.output, self.scale.max_len())
            })
            .collect()
    }

    fn rgvisnet_input(
        &self,
        index: &TfIdfIndex,
        train: &[&TaskExample],
        example: &TaskExample,
    ) -> String {
        // Retrieve the nearest *other* training example as the prototype.
        let mut proto = "";
        for cand in index.top_k(&example.input, 2) {
            if train[cand].input != example.input {
                proto = train[cand].gold_query.as_deref().unwrap_or("");
                break;
            }
        }
        format!("{} <vql> {proto}", example.input)
    }

    /// A neural predictor over a trained model.
    pub fn predictor<'z>(&'z self, kind: ModelKind, trained: Trained) -> Box<dyn Predictor + 'z> {
        match kind {
            ModelKind::NcNet => Box::new(ConstrainedPredictor { zoo: self, trained }),
            ModelKind::RgVisNet => {
                let train = self
                    .datasets
                    .of(Task::TextToVis, Split::Train)
                    .into_iter()
                    .cloned()
                    .collect::<Vec<_>>();
                let questions: Vec<String> = train.iter().map(|e| e.input.clone()).collect();
                Box::new(RgVisNetPredictor {
                    zoo: self,
                    trained,
                    index: TfIdfIndex::build(&questions),
                    train,
                })
            }
            _ => Box::new(NeuralPredictor { zoo: self, trained }),
        }
    }

    /// The GPT-4 few-shot simulator: retrieval plus schema adaptation.
    pub fn gpt4_predictor(&self) -> Gpt4Simulator<'_> {
        Gpt4Simulator::new(self)
    }

    /// Encodes raw text into source ids, truncated to the scale's max
    /// length with a terminal EOS (shared by every decode path).
    fn encode_input(&self, input: &str) -> Vec<u32> {
        let max_len = self.scale.max_len();
        let mut ids = self.tok.encode_with_eos(input);
        if ids.len() > max_len {
            ids.truncate(max_len - 1);
            ids.push(special::EOS);
        }
        ids
    }

    /// Greedy generation for raw text input (shared by predictors): a
    /// batch of one.
    fn generate(&self, trained: &Trained, input: &str) -> String {
        self.generate_batch(trained, std::slice::from_ref(&input.to_string()))
            .pop()
            .unwrap_or_default()
    }

    /// Greedy generation for many inputs at once. T5 models decode through
    /// the batched inference engine (one packed GEMM per layer per step;
    /// per input, the tokens do not depend on the batch); the LSTM
    /// baseline has no batched state and decodes one input at a time.
    fn generate_batch(&self, trained: &Trained, inputs: &[String]) -> Vec<String> {
        let srcs = inputs.iter().map(|i| self.encode_input(i));
        let max_out = self.scale.max_out();
        let outs: Vec<Vec<u32>> = match trained {
            Trained::T5 { model, ps } => {
                let srcs: Vec<Vec<u32>> = srcs.collect();
                batched_greedy_decode(model, ps, &srcs, special::EOS, max_out, DECODE_SLOTS)
            }
            Trained::Lstm { model, ps } => srcs
                .map(|src| greedy_decode(&mut model.start_decode(ps, &src), special::EOS, max_out))
                .collect(),
        };
        outs.iter().map(|o| self.tok.decode(o)).collect()
    }
}

/// Plain greedy predictor.
struct NeuralPredictor<'z> {
    zoo: &'z Zoo,
    trained: Trained,
}

impl Predictor for NeuralPredictor<'_> {
    fn predict(&self, example: &TaskExample) -> String {
        let raw = self.zoo.generate(&self.trained, &example.input);
        strip_prefix(example.task, &raw)
    }

    fn predict_batch(&self, examples: &[&TaskExample]) -> Vec<String> {
        let inputs: Vec<String> = examples.iter().map(|e| e.input.clone()).collect();
        let raws = self.zoo.generate_batch(&self.trained, &inputs);
        examples
            .iter()
            .zip(raws)
            .map(|(e, raw)| strip_prefix(e.task, &raw))
            .collect()
    }
}

/// ncNet: grammar-constrained decoding against the example's schema.
struct ConstrainedPredictor<'z> {
    zoo: &'z Zoo,
    trained: Trained,
}

impl ConstrainedPredictor<'_> {
    /// Builds the grammar constraint and encoded source for one example,
    /// or `None` when the database is unknown (which predicts empty).
    fn prepare(&self, example: &TaskExample) -> Option<(GrammarConstraint, Vec<u32>)> {
        let zoo = self.zoo;
        let db = zoo.corpus.database(&example.db_name)?;
        let schema = db.schema();
        // Literal pool: question tokens that exist in the vocabulary as
        // quoted strings or numbers.
        let mut pool = Vec::new();
        for w in example.input.split_whitespace() {
            if w.parse::<f64>().is_ok() {
                pool.push(w.to_string());
            }
            let quoted = format!("'{w}'");
            if zoo.tok.vocab().id(&quoted).is_some() {
                pool.push(quoted);
            }
        }
        let grammar = GrammarConstraint::new(&schema, pool);
        Some((grammar, zoo.encode_input(&example.input)))
    }

    /// The allowed-token mask for one decode prefix.
    fn allowed(&self, grammar: &GrammarConstraint, prefix: &[u32]) -> Vec<u32> {
        let zoo = self.zoo;
        // First token is the output-corpus marker.
        if prefix.is_empty() {
            return zoo.tok.vocab().id("<vql>").into_iter().collect();
        }
        let words: Vec<&str> = prefix[1..]
            .iter()
            .filter_map(|&id| zoo.tok.vocab().token(id))
            .collect();
        let mut allowed_ids = Vec::new();
        for w in grammar.allowed_next(&words) {
            if w == GRAMMAR_EOS {
                allowed_ids.push(special::EOS);
            } else if let Some(id) = zoo.tok.vocab().id(&w) {
                allowed_ids.push(id);
            }
        }
        allowed_ids
    }
}

impl Predictor for ConstrainedPredictor<'_> {
    fn predict(&self, example: &TaskExample) -> String {
        self.predict_batch(&[example]).pop().unwrap_or_default()
    }

    fn predict_batch(&self, examples: &[&TaskExample]) -> Vec<String> {
        let Trained::T5 { model, ps } = &self.trained else {
            return vec![String::new(); examples.len()];
        };
        // Examples with unknown databases predict empty;
        // the rest share one batched constrained decode.
        let prepared: Vec<Option<(GrammarConstraint, Vec<u32>)>> =
            examples.iter().map(|e| self.prepare(e)).collect();
        let srcs: Vec<Vec<u32>> = prepared
            .iter()
            .flatten()
            .map(|(_, ids)| ids.clone())
            .collect();
        let grammars: Vec<&GrammarConstraint> = prepared.iter().flatten().map(|(g, _)| g).collect();
        let outs = batched_constrained_decode(
            model,
            ps,
            &srcs,
            special::EOS,
            self.zoo.scale.max_out(),
            DECODE_SLOTS,
            |req, prefix| self.allowed(grammars[req], prefix),
        );
        let mut outs = outs.into_iter();
        examples
            .iter()
            .zip(&prepared)
            .map(|(e, p)| {
                if p.is_some() {
                    strip_prefix(e.task, &self.zoo.tok.decode(&outs.next().unwrap()))
                } else {
                    String::new()
                }
            })
            .collect()
    }
}

/// RGVisNet: retrieve a prototype, then refine with the trained model.
struct RgVisNetPredictor<'z> {
    zoo: &'z Zoo,
    trained: Trained,
    index: TfIdfIndex,
    train: Vec<TaskExample>,
}

impl Predictor for RgVisNetPredictor<'_> {
    fn predict(&self, example: &TaskExample) -> String {
        let train_refs: Vec<&TaskExample> = self.train.iter().collect();
        let input = self.zoo.rgvisnet_input(&self.index, &train_refs, example);
        let raw = self.zoo.generate(&self.trained, &input);
        strip_prefix(example.task, &raw)
    }

    fn predict_batch(&self, examples: &[&TaskExample]) -> Vec<String> {
        let train_refs: Vec<&TaskExample> = self.train.iter().collect();
        let inputs: Vec<String> = examples
            .iter()
            .map(|e| self.zoo.rgvisnet_input(&self.index, &train_refs, e))
            .collect();
        let raws = self.zoo.generate_batch(&self.trained, &inputs);
        examples
            .iter()
            .zip(raws)
            .map(|(e, raw)| strip_prefix(e.task, &raw))
            .collect()
    }
}

/// GPT-4 few-shot simulator: nearest-neighbour retrieval with schema
/// adaptation for text-to-vis, and demonstration echoing for the
/// generative tasks — the characteristic strengths and weaknesses Table IV
/// and Table VIII report for in-context LLM prompting.
pub struct Gpt4Simulator<'z> {
    zoo: &'z Zoo,
    // BTreeMap keyed by task: lookup-only today, but prediction-adjacent
    // state stays in ordered containers so no future iteration can pick up
    // hash order (determinism audit).
    indices: std::collections::BTreeMap<Task, (TfIdfIndex, Vec<TaskExample>)>,
}

impl<'z> Gpt4Simulator<'z> {
    fn new(zoo: &'z Zoo) -> Self {
        let mut indices = std::collections::BTreeMap::new();
        for task in Task::ALL {
            let train: Vec<TaskExample> = zoo
                .datasets
                .of(task, Split::Train)
                .into_iter()
                .cloned()
                .collect();
            let docs: Vec<String> = train.iter().map(|e| e.input.clone()).collect();
            indices.insert(task, (TfIdfIndex::build(&docs), train));
        }
        Gpt4Simulator { zoo, indices }
    }
}

impl Predictor for Gpt4Simulator<'_> {
    fn predict(&self, example: &TaskExample) -> String {
        let Some((index, train)) = self.indices.get(&example.task) else {
            return String::new();
        };
        let Some(best) = index.nearest(&example.input) else {
            return String::new();
        };
        let demo = &train[best];
        match example.task {
            Task::TextToVis => {
                let proto = demo.gold_query.as_deref().unwrap_or("");
                let Some(db) = self.zoo.corpus.database(&example.db_name) else {
                    return proto.to_string();
                };
                adapt_query(proto, &db.schema())
            }
            // Zero-shot generation: strong surface fluency, weak grounding
            // — modeled as echoing the most similar demonstration's output.
            _ => strip_prefix(example.task, &demo.output),
        }
    }
}

/// Adapts a prototype DV query to a target schema: tables map positionally
/// (primary → primary), columns map by exact name where possible and by
/// position otherwise.
pub fn adapt_query(proto: &str, target: &vql::schema::DbSchema) -> String {
    let Ok(mut q) = vql::parse_query(proto) else {
        return proto.to_string();
    };
    let proto_tables: Vec<String> = q.tables().iter().map(|t| t.to_string()).collect();
    // Positional table mapping.
    let target_tables: Vec<&vql::schema::TableSchema> = target.tables.iter().collect();
    if target_tables.is_empty() {
        return proto.to_string();
    }
    let map_table = |i: usize| -> String {
        target_tables
            .get(i.min(target_tables.len() - 1))
            .map(|t| t.name.clone())
            .unwrap_or_default()
    };
    let table_of =
        |name: &str| -> usize { proto_tables.iter().position(|t| t == name).unwrap_or(0) };
    let remap_col = |c: &mut vql::ColumnRef| {
        let src_table_idx = c.table.as_deref().map(table_of).unwrap_or(0);
        let tgt = &target_tables[src_table_idx.min(target_tables.len() - 1)];
        let col = if tgt
            .columns
            .iter()
            .any(|tc| tc.eq_ignore_ascii_case(&c.column))
        {
            c.column.clone()
        } else {
            // Positional fallback within the target table.
            tgt.columns
                .get(1)
                .or_else(|| tgt.columns.first())
                .cloned()
                .unwrap_or_else(|| c.column.clone())
        };
        *c = vql::ColumnRef::qualified(tgt.name.clone(), col);
    };
    for s in &mut q.select {
        remap_col(s.column_ref_mut());
    }
    q.from = map_table(0);
    if let Some(j) = &mut q.join {
        j.table = map_table(1);
        remap_col(&mut j.left);
        remap_col(&mut j.right);
    }
    for gcol in &mut q.group_by {
        remap_col(gcol);
    }
    if let Some(o) = &mut q.order_by {
        remap_col(o.expr.column_ref_mut());
    }
    if let Some(b) = &mut q.bin {
        remap_col(&mut b.column);
    }
    for f in &mut q.filters {
        if let vql::Predicate::Compare { left, .. } = f {
            remap_col(left);
        }
    }
    q.to_string()
}

/// Transplants the code-pre-trained weights into another model of the
/// same architecture (parameters correspond positionally; only the name
/// prefix differs).
fn transplant(zoo: &Zoo, size: Size, ps: &mut ParamSet) {
    let (_, code_ps) = zoo.code_pretrained(size);
    assert_eq!(
        code_ps.len(),
        ps.len(),
        "architecture mismatch in transplant"
    );
    for i in 0..code_ps.len() {
        let src = code_ps.value(nn::param::ParamId(i)).clone();
        *ps.value_mut(nn::param::ParamId(i)) = src;
    }
}
