//! Criterion micro-benchmarks for the substrate hot paths: parsing,
//! standardization, grammar masking, execution, tokenization, metrics,
//! tensor kernels, and a full training step.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use corpus::{Corpus, CorpusConfig};
use datavist5::data::TaskDatasets;
use nn::param::ParamSet;
use nn::t5::{Positional, T5Config, T5Model};
use tensor::{Graph, Tensor, XorShift};
use tokenizer::WordTokenizer;
use vql::grammar::GrammarConstraint;
use vql::schema::{DbSchema, TableSchema};

const QUERY: &str = "visualize bar select player.years_played, count ( player.years_played ) \
                     from player join team on player.team_id = team.id where team.name = \
                     'columbus_crew' group by player.years_played order by \
                     count ( player.years_played ) asc";

fn schema() -> DbSchema {
    DbSchema::new(
        "soccer_1",
        vec![
            TableSchema::new(
                "player",
                vec![
                    "player_id".into(),
                    "name".into(),
                    "team_id".into(),
                    "years_played".into(),
                ],
            ),
            TableSchema::new("team", vec!["id".into(), "name".into()]),
        ],
    )
}

fn bench_vql(c: &mut Criterion) {
    c.bench_function("vql/parse_join_query", |b| {
        b.iter(|| vql::parse_query(black_box(QUERY)).unwrap())
    });
    let q = vql::parse_query(QUERY).unwrap();
    let s = schema();
    c.bench_function("vql/standardize", |b| {
        b.iter(|| vql::standardize(black_box(&q), black_box(&s)))
    });
    c.bench_function("vql/display_roundtrip", |b| b.iter(|| q.to_string()));
    let grammar = GrammarConstraint::new(&s, vec!["'columbus_crew'".into()]);
    let prefix: Vec<&str> = QUERY.split_whitespace().take(12).collect();
    c.bench_function("vql/grammar_allowed_next", |b| {
        b.iter(|| grammar.allowed_next(black_box(&prefix)))
    });
}

fn bench_corpus(c: &mut Criterion) {
    let cfg = CorpusConfig {
        seed: 5,
        dbs_per_domain: 1,
        queries_per_db: 4,
        facts_per_db: 2,
    };
    c.bench_function("corpus/generate_small", |b| {
        b.iter(|| Corpus::generate(black_box(&cfg)))
    });
    let corpus = Corpus::generate(&cfg);
    let e = &corpus.nvbench[0];
    let db = corpus.database(&e.db_name).unwrap();
    let q = vql::parse_query(&e.query).unwrap();
    c.bench_function("storage/execute_query", |b| {
        b.iter(|| storage::execute(black_box(&q), black_box(db)).unwrap())
    });
}

fn bench_metrics(c: &mut Criterion) {
    let pairs: Vec<(String, String)> = (0..32)
        .map(|i| {
            (
                format!("the {i} quick brown fox jumps over the lazy dog"),
                format!("a {i} quick brown fox leaped over one lazy dog"),
            )
        })
        .collect();
    c.bench_function("metrics/bleu4_corpus32", |b| {
        b.iter(|| metrics::bleu(black_box(&pairs), 4))
    });
    c.bench_function("metrics/rouge_l_corpus32", |b| {
        b.iter(|| metrics::rouge_l(black_box(&pairs)))
    });
    c.bench_function("metrics/meteor_corpus32", |b| {
        b.iter(|| metrics::meteor(black_box(&pairs)))
    });
}

fn bench_tokenizer(c: &mut Criterion) {
    let corpus = Corpus::generate(&CorpusConfig {
        seed: 5,
        dbs_per_domain: 1,
        queries_per_db: 4,
        facts_per_db: 2,
    });
    let datasets = TaskDatasets::build(&corpus);
    let tok = WordTokenizer::fit(datasets.all_texts(), 1);
    let text = &datasets.examples[0].input;
    c.bench_function("tokenizer/encode_decode", |b| {
        b.iter(|| {
            let ids = tok.encode(black_box(text));
            tok.decode(&ids)
        })
    });
}

fn bench_tensor(c: &mut Criterion) {
    let mut rng = XorShift::new(3);
    let a = Tensor::randn(vec![64, 64], 1.0, &mut rng);
    let b_t = Tensor::randn(vec![64, 64], 1.0, &mut rng);
    c.bench_function("tensor/matmul_64x64", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let va = g.leaf(a.clone(), false);
            let vb = g.leaf(b_t.clone(), false);
            g.matmul(va, vb)
        })
    });
}

fn bench_training_step(c: &mut Criterion) {
    let mut ps = ParamSet::new();
    let mut rng = XorShift::new(7);
    let cfg = T5Config {
        vocab: 512,
        d_model: 64,
        d_ff: 128,
        heads: 4,
        enc_layers: 2,
        dec_layers: 2,
        dropout: 0.0,
        positional: Positional::RelativeBias,
    };
    let model = T5Model::new(&mut ps, "bench", cfg, &mut rng);
    let src: Vec<u32> = (10..90).collect();
    let tgt: Vec<u32> = (100..140).collect();
    c.bench_function("nn/t5_fwd_bwd_80src_40tgt", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let loss = model.loss(&mut g, &ps, black_box(&src), black_box(&tgt), 0.0);
            g.backward(loss);
        })
    });
    c.bench_function("nn/t5_decode_step", |b| {
        // One packed step of a one-token-old request: each iteration forks
        // the request, steps the copy once, and retires it.
        let mut engine = nn::BatchedDecodeState::new(&model, &ps, 2);
        let slot = engine.admit(&src).unwrap();
        let mut rows = Vec::new();
        engine.step_packed_into(&[(slot, 0)], &mut rows);
        b.iter(|| {
            let copy = engine.fork(slot).unwrap();
            engine.step_packed_into(&[(copy, black_box(5))], &mut rows);
            engine.retire(copy);
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_vql, bench_corpus, bench_metrics, bench_tokenizer, bench_tensor, bench_training_step
);
criterion_main!(benches);
