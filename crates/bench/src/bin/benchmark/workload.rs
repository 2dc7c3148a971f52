//! The four workloads and their seeded inputs.

use corpus::Corpus;
use datavist5::data::TaskRequest;
use tensor::XorShift;

/// The seed the pinned output digests are computed at.
pub const DEFAULT_SEED: u64 = 1;

/// Same-task requests a repeat may reach back over (`serve-reuse`): a
/// window keeps the repeated working set the same size however long the
/// run, so the hit rate does not drift with `--seconds`.
pub const REUSE_WINDOW: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeShort,
    ServeLong,
    ServeReuse,
    Finetune,
}

/// What a serving workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Output tokens per request (no request reaches EOS sooner with the
    /// benchmark's weights, so every request decodes exactly this many).
    pub max_out: usize,
    /// Percent of requests that repeat an earlier request's inputs.
    pub reuse_pct: u64,
    /// Requests sent before timing starts; their outputs form the pinned
    /// digest.
    pub warmup: u64,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeShort,
        Workload::ServeLong,
        Workload::ServeReuse,
        Workload::Finetune,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeShort => "serve-short",
            Workload::ServeLong => "serve-long",
            Workload::ServeReuse => "serve-reuse",
            Workload::Finetune => "finetune",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The serving shape, or `None` for `finetune`.
    pub fn shape(self) -> Option<Shape> {
        match self {
            Workload::ServeShort => Some(Shape {
                max_out: 12,
                reuse_pct: 0,
                warmup: 800,
            }),
            Workload::ServeLong => Some(Shape {
                max_out: 96,
                reuse_pct: 0,
                warmup: 180,
            }),
            Workload::ServeReuse => Some(Shape {
                max_out: 12,
                reuse_pct: 90,
                warmup: 1600,
            }),
            Workload::Finetune => None,
        }
    }
}

/// SplitMix64: spreads nearby seeds (1, 2, 3, …) over unrelated streams.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One generated request: a task (round-robin) and a corpus entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pick {
    /// Index into [`datavist5::data::Task::ALL`].
    pub task: usize,
    pub entry: usize,
    /// Whether this pick repeats an earlier one on purpose.
    pub reused: bool,
}

/// The seeded request stream. Request `i` is the `i`-th pick, whatever
/// the timing of the run, so outputs are a pure function of seed and id.
pub struct Generator {
    rng: XorShift,
    reuse_pct: u64,
    sizes: [usize; 4],
    picks: Vec<Pick>,
}

impl Generator {
    /// `sizes` are the corpus pool sizes per task.
    pub fn new(seed: u64, reuse_pct: u64, sizes: [usize; 4]) -> Generator {
        assert!(reuse_pct <= 100, "reuse_pct is a percentage");
        assert!(sizes.iter().all(|&n| n > 0), "every task needs entries");
        Generator {
            rng: XorShift::new(mix(seed)),
            reuse_pct,
            sizes,
            picks: Vec::new(),
        }
    }

    pub fn next_pick(&mut self) -> Pick {
        let i = self.picks.len();
        let task = i % 4;
        let earlier = i / 4;
        let reused = earlier > 0 && self.rng.next_u64() % 100 < self.reuse_pct;
        let entry = if reused {
            let back = 1 + (self.rng.next_u64() % earlier.min(REUSE_WINDOW) as u64) as usize;
            self.picks[i - 4 * back].entry
        } else {
            (self.rng.next_u64() % self.sizes[task] as u64) as usize
        };
        let pick = Pick {
            task,
            entry,
            reused,
        };
        self.picks.push(pick);
        pick
    }

    /// Every pick so far, by request id.
    pub fn picks(&self) -> &[Pick] {
        &self.picks
    }
}

/// Text-level requests for every corpus entry, per task.
pub struct RequestPool {
    by_task: [Vec<TaskRequest>; 4],
}

impl RequestPool {
    pub fn new(corpus: &Corpus) -> RequestPool {
        let schema_of = |db: &str| corpus.database(db).map(|d| d.schema());
        let mut by_task: [Vec<TaskRequest>; 4] = Default::default();
        for e in &corpus.nvbench {
            if let Some(schema) = schema_of(&e.db_name) {
                by_task[0].push(TaskRequest::TextToVis {
                    question: e.question.clone(),
                    schema: schema.clone(),
                });
                by_task[1].push(TaskRequest::VisToText {
                    query: e.query.clone(),
                    schema,
                });
            }
        }
        for e in &corpus.fevisqa {
            if let Some(schema) = schema_of(&e.db_name) {
                by_task[2].push(TaskRequest::FeVisQa {
                    question: e.question.clone(),
                    query: e.query.clone(),
                    schema,
                    table: e.table.clone(),
                });
            }
        }
        for e in corpus.chart2text.iter().chain(&corpus.wikitabletext) {
            by_task[3].push(TaskRequest::TableToText {
                table: e.table.clone(),
            });
        }
        RequestPool { by_task }
    }

    pub fn sizes(&self) -> [usize; 4] {
        [0, 1, 2, 3].map(|t| self.by_task[t].len())
    }

    pub fn get(&self, pick: Pick) -> &TaskRequest {
        &self.by_task[pick.task][pick.entry]
    }
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the outputs every run at one seed reproduces.
    pub digest: u64,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    /// `throughput`, `latency_p50_ms` and `latency_p90_ms`.
    pub e2e: Vec<Metric>,
    /// Printed, not gated.
    pub notes: Vec<String>,
    /// With `--trace 1`: the per-layer metrics every workload reports.
    pub layers: Vec<Metric>,
    /// With `--trace 1`: this workload's own per-layer metrics.
    pub detail: Vec<Metric>,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Mean of `values`, 0 for none.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The median (the mean of the middle two of an even count); NaN for no
/// values.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Parses the pinned digest file: `<workload> <16 hex digits>` per line,
/// `#` comments.
pub fn parse_digests(text: &str) -> Vec<(String, u64)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (name, hex) = l.split_once(char::is_whitespace)?;
            Some((name.to_string(), u64::from_str_radix(hex.trim(), 16).ok()?))
        })
        .collect()
}

/// `text` with `name`'s digest set to `digest` (added when missing).
pub fn set_digest(text: &str, name: &str, digest: u64) -> String {
    let line = format!("{name} {digest:016x}");
    let mut found = false;
    let mut out: Vec<String> = text
        .lines()
        .map(|l| {
            if l.split_whitespace().next() == Some(name) {
                found = true;
                line.clone()
            } else {
                l.to_string()
            }
        })
        .collect();
    if !found {
        out.push(line);
    }
    out.join("\n") + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZES: [usize; 4] = [300, 300, 200, 150];

    fn picks(seed: u64, reuse_pct: u64, n: usize) -> Vec<Pick> {
        let mut g = Generator::new(seed, reuse_pct, SIZES);
        (0..n).for_each(|_| {
            g.next_pick();
        });
        g.picks().to_vec()
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        assert_eq!(picks(7, 90, 500), picks(7, 90, 500));
        assert_ne!(picks(7, 90, 500), picks(8, 90, 500));
        assert_ne!(picks(0, 0, 500), picks(1, 0, 500));
    }

    #[test]
    fn task_mix_is_a_quarter_each() {
        let p = picks(3, 0, 4000);
        for task in 0..4 {
            assert_eq!(p.iter().filter(|x| x.task == task).count(), 1000);
        }
        assert!(p.iter().all(|x| x.entry < SIZES[x.task] && !x.reused));
    }

    #[test]
    fn measured_reuse_share_is_within_two_points_of_its_setting() {
        for reuse_pct in [0u64, 50, 90] {
            let p = picks(11, reuse_pct, 20_000);
            let share = 100.0 * p.iter().filter(|x| x.reused).count() as f64 / p.len() as f64;
            assert!(
                (share - reuse_pct as f64).abs() <= 2.0,
                "reuse {reuse_pct}%: measured {share:.2}%"
            );
            for (i, x) in p.iter().enumerate().filter(|(_, x)| x.reused) {
                let window = (1..=REUSE_WINDOW).filter_map(|b| i.checked_sub(4 * b));
                assert!(
                    window
                        .into_iter()
                        .any(|j| p[j].task == x.task && p[j].entry == x.entry),
                    "request {i} repeats nothing within the window"
                );
            }
        }
    }

    #[test]
    fn median_agrees_with_the_engines_nearest_rank_percentile() {
        // Odd counts have one middle sample, which both definitions pick.
        let mut rng = XorShift::new(5);
        for n in [1usize, 3, 7, 11, 101] {
            let mut v: Vec<u64> = (0..n).map(|_| rng.next_u64() % 1000).collect();
            v.sort_unstable();
            let p50 = serve::ServeReport::percentile_ns(&v, 50) as f64;
            assert_eq!(median(v.iter().map(|&x| x as f64).collect()), p50);
        }
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(Vec::new()).is_nan());
    }

    #[test]
    fn digest_file_round_trips() {
        let text = "# comment\nserve-short 00000000000000ff\n";
        assert_eq!(parse_digests(text), vec![("serve-short".into(), 255)]);
        let updated = set_digest(text, "finetune", 0xabc);
        assert_eq!(
            parse_digests(&updated),
            vec![("serve-short".into(), 255), ("finetune".into(), 0xabc)]
        );
        let replaced = set_digest(&updated, "serve-short", 1);
        assert_eq!(parse_digests(&replaced)[0], ("serve-short".into(), 1));
        assert!(replaced.starts_with("# comment\n"));
    }

    #[test]
    fn every_workload_name_parses_back() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
