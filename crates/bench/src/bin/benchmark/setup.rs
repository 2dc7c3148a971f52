//! Set-up: what the program does before it can serve or train.

use std::path::Path;
use std::time::Instant;

use datavist5::config::{Scale, Size};
use datavist5::zoo::Zoo;
use nn::param::ParamSet;
use nn::t5::T5Model;
use tensor::XorShift;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Seed of the benchmark's random weights. Fixed, so `--seed` changes
/// only the inputs.
const WEIGHT_SEED: u64 = 0xda7a_b5e7;

/// A loaded model and everything it was built from.
pub struct Setup {
    pub zoo: Zoo,
    pub model: T5Model,
    pub ps: ParamSet,
    /// Seconds per repetition: corpus, tokenizer, `T5Model::new` and
    /// `ParamSet::load`.
    pub setup_s: Vec<f64>,
    /// Milliseconds per repetition spent in `ParamSet::load`.
    pub load_ms: Vec<f64>,
}

/// The Full-scale Base model with freshly initialized weights.
fn build(zoo: &Zoo, seed: u64) -> (T5Model, ParamSet) {
    let cfg = Scale::Full.t5_config(Size::Base, zoo.tok.vocab().len());
    let mut ps = ParamSet::new();
    let model = T5Model::new(&mut ps, "datavist5", cfg, &mut XorShift::new(seed));
    (model, ps)
}

/// Writes the seeded weights to `weights`, then sets up
/// [`SETUP_REPS`] times from that checkpoint and keeps the last.
pub fn run(weights: &Path) -> Result<Setup, String> {
    let (_, ps) = build(&Zoo::new(Scale::Full), WEIGHT_SEED);
    ps.save(weights)
        .map_err(|e| format!("writing {}: {e}", weights.display()))?;
    drop(ps);

    let mut setup_s = Vec::new();
    let mut load_ms = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        let zoo = Zoo::new(Scale::Full);
        // Initialized from another seed: only a working load reproduces
        // the pinned outputs.
        let (model, mut ps) = build(&zoo, !WEIGHT_SEED);
        let t1 = Instant::now();
        ps.load(weights)
            .map_err(|e| format!("loading {}: {e}", weights.display()))?;
        let t2 = Instant::now();
        load_ms.push((t2 - t1).as_secs_f64() * 1e3);
        setup_s.push((t2 - t0).as_secs_f64());
        last = Some((zoo, model, ps));
    }
    let (zoo, model, ps) = last.expect("SETUP_REPS is positive");
    Ok(Setup {
        zoo,
        model,
        ps,
        setup_s,
        load_ms,
    })
}
