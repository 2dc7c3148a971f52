//! Paired A/B runs of the repository benchmark: a commit against the
//! working tree.
//!
//! ```text
//! cargo run --release -p bench --bin ab -- \
//!     [--rev REV] [--pairs N] [--seconds S] [--workload NAME]...
//! ```
//!
//! `--rev` (default `HEAD`) is checked out with `git worktree add
//! --detach` under `target/ab/parent`, which is reused while it still
//! holds that commit, unmodified. Both arms are built before anything is
//! timed. Then, for each `--workload` (default: every workload in
//! `BENCHMARK.json`), `--pairs` pairs (default 10) of runs: one run of
//! `BENCHMARK.json`'s `command` with `--workload W --seconds S --trace 0`
//! in each checkout, the arm that goes first alternating from pair to
//! pair. `--seconds` defaults to `run_seconds`. The last line of a run is
//! its JSON result.
//!
//! The workloads, the end-to-end metrics, their `better` direction and
//! their `bound` all come from `BENCHMARK.json`; `ab` has no tolerance of
//! its own. Per workload and metric, [`verdict`] raises these flags:
//!
//! * `gain`: at least 10 pairs, the change wins at least 9 in 10 of them
//!   (a tie counts for neither arm), and its median beats the parent's by
//!   more than the parent's quartile distance (Q3 − Q1);
//! * `loss`: the mirror of `gain`;
//! * `regressed`: the change's median is worse than the parent's by more
//!   than `bound` × the parent's median;
//! * `unresolved`: either arm's quartile distance over its median exceeds
//!   `bound`, unless every change run beats every parent run;
//! * `failures`: the change failed a larger share of its operations
//!   (Σfailed / Σattempted over the workload's runs) than the parent. A
//!   run that printed no result line (it crashed or timed out) counts as
//!   one attempted and one failed operation.
//!
//! The report, with every run's result, goes to `target/ab/report.json`,
//! and stdout gets a markdown table: per arm the median and Q1–Q3, the
//! median of the per-pair change/parent ratios, wins/losses/ties, the
//! flags and each arm's failure share. A metric no pair has both values
//! of gets no row; the runs that left it out fail the exit code. Both
//! commits are recorded with `git rev-parse`: inside a worktree the
//! benchmark cannot read its own. The change also records the matmul
//! kernels' instruction-set arm on this host (`tensor::kernels::arm_name`
//! of the working tree `ab` is built from), which the benchmark does not
//! print; the parent's code may have other arms, or none.
//!
//! Exits 0 when every run of both arms built, finished and printed
//! `"correct": true`, 1 otherwise and 2 on bad arguments. Flags never
//! change the exit code.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use serde_json::{json, Value};

const USAGE: &str = "usage: ab [--rev REV] [--pairs N] [--seconds S] [--workload NAME]...";

/// The two arms, in report order: index 0 is the parent, 1 the change.
const ARMS: [&str; 2] = ["parent", "change"];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Better {
    Higher,
    Lower,
}

impl Better {
    /// How much better `a` is than `b`; negative when it is worse.
    fn margin(self, a: f64, b: f64) -> f64 {
        match self {
            Better::Higher => a - b,
            Better::Lower => b - a,
        }
    }
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug)]
struct MetricSpec {
    name: String,
    unit: String,
    better: Better,
    bound: f64,
}

/// What `ab` reads from `BENCHMARK.json`.
#[derive(Debug)]
struct Spec {
    command: Vec<String>,
    run_seconds: f64,
    workloads: Vec<String>,
    metrics: Vec<MetricSpec>,
}

impl Spec {
    fn parse(text: &str) -> Result<Spec, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
        let bad = |key: &str| format!("BENCHMARK.json: bad or missing {key:?}");
        let string = |v: &Value, key: &str| v.as_str().map(str::to_string).ok_or_else(|| bad(key));
        let list = |key: &str| v[key].as_array().cloned().ok_or_else(|| bad(key));
        let command: Vec<String> = list("command")?
            .iter()
            .map(|s| string(s, "command"))
            .collect::<Result<_, _>>()?;
        let workloads = list("workloads")?
            .iter()
            .map(|w| string(&w["name"], "workloads"))
            .collect::<Result<_, _>>()?;
        let metrics = list("end_to_end")?
            .iter()
            .map(|m| {
                Ok(MetricSpec {
                    name: string(&m["name"], "name")?,
                    unit: string(&m["unit"], "unit")?,
                    better: match m["better"].as_str() {
                        Some("higher") => Better::Higher,
                        Some("lower") => Better::Lower,
                        _ => return Err(bad("better")),
                    },
                    bound: m["bound"].as_f64().ok_or_else(|| bad("bound"))?,
                })
            })
            .collect::<Result<_, _>>()?;
        let run_seconds = v["run_seconds"]
            .as_f64()
            .ok_or_else(|| bad("run_seconds"))?;
        if command.is_empty() {
            return Err(bad("command"));
        }
        Ok(Spec {
            command,
            run_seconds,
            workloads,
            metrics,
        })
    }

    /// The command that builds what `command` runs: `cargo run X -- …`
    /// builds with `cargo build X`.
    fn build_command(&self) -> Result<Vec<String>, String> {
        match self.command.as_slice() {
            [cargo, run, rest @ ..] if run == "run" => {
                let opts = rest.iter().take_while(|a| *a != "--").cloned();
                Ok([cargo.clone(), "build".into()]
                    .into_iter()
                    .chain(opts)
                    .collect())
            }
            _ => Err("BENCHMARK.json's command is not `cargo run …`".to_string()),
        }
    }
}

#[derive(Debug)]
struct Args {
    rev: String,
    pairs: usize,
    seconds: f64,
    workloads: Vec<String>,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>, spec: &Spec) -> Result<Args, String> {
        let mut out = Args {
            rev: "HEAD".to_string(),
            pairs: 10,
            seconds: spec.run_seconds,
            workloads: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--rev" if !value.is_empty() && !value.starts_with('-') => out.rev = value,
                "--pairs" => out.pairs = value.parse().map_err(|_| bad())?,
                "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
                "--workload" if spec.workloads.contains(&value) => out.workloads.push(value),
                "--rev" | "--workload" => return Err(bad()),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        if out.pairs == 0 || out.seconds.is_nan() || out.seconds <= 0.0 {
            return Err("--pairs and --seconds must be positive".to_string());
        }
        if out.workloads.is_empty() {
            out.workloads = spec.workloads.clone();
        }
        Ok(out)
    }
}

/// The JSON result line a benchmark run ends with.
#[derive(Debug)]
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    line: Value,
}

impl RunResult {
    fn parse(line: &str) -> Option<RunResult> {
        let line: Value = serde_json::from_str(line).ok()?;
        line["metrics"].as_object()?;
        Some(RunResult {
            correct: line["correct"].as_bool()?,
            attempted: line["attempted"].as_u64()?,
            failed: line["failed"].as_u64()?,
            line,
        })
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.line["metrics"][name]["value"].as_f64()
    }
}

/// One pair of runs, indexed by arm; `None` where a run printed no result.
type Pair = [Option<RunResult>; 2];

/// Q1, median and Q3, linearly interpolated between order statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Quartiles {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Quartiles {
    /// `values` must not be empty.
    fn of(values: impl Iterator<Item = f64>) -> Quartiles {
        let mut v: Vec<f64> = values.collect();
        v.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (v.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        };
        Quartiles {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }

    fn distance(&self) -> f64 {
        self.q3 - self.q1
    }

    fn show(&self) -> String {
        format!("{} ({}–{})", sig(self.median), sig(self.q1), sig(self.q3))
    }
}

/// The comparison of one workload × metric.
#[derive(Debug)]
struct Verdict {
    parent: Quartiles,
    change: Quartiles,
    /// Median of the per-pair change/parent ratios.
    ratio: f64,
    wins: usize,
    losses: usize,
    ties: usize,
    flags: Vec<&'static str>,
}

/// The verdict rule over `pairs` of (parent, change) values and each
/// arm's failure share (parent, change); see the module docs. `pairs`
/// must not be empty.
fn verdict(better: Better, bound: f64, pairs: &[(f64, f64)], failure_share: (f64, f64)) -> Verdict {
    let n = pairs.len();
    let margins: Vec<f64> = pairs.iter().map(|&(p, c)| better.margin(c, p)).collect();
    let wins = margins.iter().filter(|&&m| m > 0.0).count();
    let losses = margins.iter().filter(|&&m| m < 0.0).count();
    let parent = Quartiles::of(pairs.iter().map(|p| p.0));
    let change = Quartiles::of(pairs.iter().map(|p| p.1));
    let ratio = Quartiles::of(pairs.iter().map(|&(p, c)| c / p)).median;
    let shift = better.margin(change.median, parent.median);
    let spread = |q: &Quartiles| q.distance() / q.median.abs();
    let all_beat = pairs
        .iter()
        .all(|&(_, c)| pairs.iter().all(|&(p, _)| better.margin(c, p) > 0.0));
    let mut flags = Vec::new();
    if n >= 10 && wins * 10 >= n * 9 && shift > parent.distance() {
        flags.push("gain");
    }
    if n >= 10 && losses * 10 >= n * 9 && -shift > parent.distance() {
        flags.push("loss");
    }
    if -shift > bound * parent.median.abs() {
        flags.push("regressed");
    }
    if (spread(&parent) > bound || spread(&change) > bound) && !all_beat {
        flags.push("unresolved");
    }
    if failure_share.1 > failure_share.0 {
        flags.push("failures");
    }
    Verdict {
        parent,
        change,
        ratio,
        wins,
        losses,
        ties: n - wins - losses,
        flags,
    }
}

/// Σfailed / Σattempted over one arm's runs, a run without a result
/// counting as one failed operation.
fn failure_share(pairs: &[Pair], arm: usize) -> f64 {
    let (failed, attempted) = pairs.iter().fold((0, 0), |(f, a), p| match &p[arm] {
        Some(r) => (f + r.failed, a + r.attempted),
        None => (f + 1, a + 1),
    });
    failed as f64 / attempted.max(1) as f64
}

/// Four significant digits.
fn sig(x: f64) -> String {
    let decimals = 3 - x.abs().max(1e-6).log10().floor() as i32;
    format!("{:.*}", decimals.clamp(0, 6) as usize, x)
}

fn git(dir: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(args)
        .output()
        .map_err(|e| format!("running git: {e}"))?;
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        return Err(format!("git {}: {}", args.join(" "), err.trim()));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Checks `commit` out under `target/ab/parent`, reusing the worktree
/// while it holds that commit unmodified.
fn checkout(root: &Path, commit: &str) -> Result<PathBuf, String> {
    let dir = root.join("target").join("ab").join("parent");
    let dir_str = dir.to_string_lossy().into_owned();
    git(root, &["worktree", "prune"])?;
    let listed = git(root, &["worktree", "list", "--porcelain"])?;
    if listed
        .lines()
        .any(|l| l.strip_prefix("worktree ") == Some(&*dir_str))
    {
        let held = git(&dir, &["rev-parse", "HEAD"])?;
        if held == commit && git(&dir, &["status", "--porcelain"])?.is_empty() {
            return Ok(dir);
        }
        git(root, &["worktree", "remove", "--force", &dir_str])?;
    } else if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {dir_str}: {e}"))?;
    }
    git(root, &["worktree", "add", "--detach", &dir_str, commit])?;
    Ok(dir)
}

/// Runs the benchmark once in `dir`: its result, if it printed one, and
/// whether it exited 0 with `"correct": true`.
fn run_once(dir: &Path, spec: &Spec, workload: &str, seconds: f64) -> (Option<RunResult>, bool) {
    let out = Command::new(&spec.command[0])
        .args(&spec.command[1..])
        .args(["--workload", workload, "--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .current_dir(dir)
        .output();
    let (stdout, stderr, exited_0) = match &out {
        Ok(out) => (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
            out.status.success(),
        ),
        Err(e) => ("".into(), e.to_string().into(), false),
    };
    let last = stdout.lines().last().unwrap_or("");
    let result = RunResult::parse(last);
    let ok = exited_0 && result.as_ref().is_some_and(|r| r.correct);
    if !ok {
        eprintln!(
            "ab: {workload} in {} failed:\n{}",
            dir.display(),
            stderr.trim_end()
        );
    }
    (result, ok)
}

fn main() -> ExitCode {
    match try_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err((code, e)) => {
            eprintln!("ab: {e}");
            ExitCode::from(code)
        }
    }
}

/// `Ok(true)` when every run finished and printed `"correct": true`;
/// errors carry the exit code.
fn try_main() -> Result<bool, (u8, String)> {
    let root = std::fs::canonicalize(bench::workspace_root()).map_err(|e| (1, e.to_string()))?;
    let text = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| (1, format!("reading BENCHMARK.json: {e}")))?;
    let spec = Spec::parse(&text).map_err(|e| (1, e))?;
    let usage = |e| (2, format!("{e}\n{USAGE}"));
    let args = Args::parse(std::env::args().skip(1), &spec).map_err(usage)?;
    let rev = format!("{}^{{commit}}", args.rev);
    let parent = git(&root, &["rev-parse", "--verify", &rev]).map_err(usage)?;
    run(&root, &spec, &args, parent).map_err(|e| (1, e))
}

/// Builds both arms, runs every pair, writes the report and prints the
/// table.
fn run(root: &Path, spec: &Spec, args: &Args, parent_commit: String) -> Result<bool, String> {
    let parent_dir = checkout(root, &parent_commit)?;
    let change_commit = git(root, &["rev-parse", "HEAD"])?;
    let dirty = !git(root, &["status", "--porcelain"])?.is_empty();
    let dirs = [parent_dir.as_path(), root];
    let build = spec.build_command()?;
    for dir in dirs {
        eprintln!("ab: building in {}", dir.display());
        let status = Command::new(&build[0])
            .args(&build[1..])
            .current_dir(dir)
            .status();
        if !status.as_ref().is_ok_and(|s| s.success()) {
            return Err(format!("build in {} failed: {status:?}", dir.display()));
        }
    }

    let mut ok = true;
    let mut runs: Vec<Vec<Pair>> = Vec::new();
    let mut runs_json = Vec::new();
    for workload in &args.workloads {
        let mut pairs = Vec::new();
        for pair in 0..args.pairs {
            let mut results: Pair = [None, None];
            // The arm that goes first alternates from pair to pair.
            for arm in [pair % 2, 1 - pair % 2] {
                let (result, correct) = run_once(dirs[arm], spec, workload, args.seconds);
                ok &= correct;
                let shown = result.as_ref().map_or(Value::Null, |r| r.line.clone());
                eprintln!(
                    "ab: {workload} {}/{} {}: {shown}",
                    pair + 1,
                    args.pairs,
                    ARMS[arm]
                );
                results[arm] = result;
            }
            let line = |arm: usize| results[arm].as_ref().map(|r| r.line.clone());
            runs_json.push(json!({"workload": workload.as_str(), "pair": pair,
                "first": ARMS[pair % 2], "parent": line(0), "change": line(1)}));
            pairs.push(results);
        }
        runs.push(pairs);
    }

    let short = |c: &str| c.chars().take(12).collect::<String>();
    let kernel_arm = tensor::kernels::arm_name();
    let mut table = format!(
        "`ab`: parent {} (`{}`) vs change {}{}, change kernel arm {kernel_arm}, \
         {} pair(s) × {} s per workload\n\n\
         | workload | metric | parent median (Q1–Q3) | change median (Q1–Q3) | change/parent \
         | W/L/T | flags | failed parent / change |\n|---|---|---|---|---|---|---|---|\n",
        short(&parent_commit),
        args.rev,
        short(&change_commit),
        if dirty { " + working tree" } else { "" },
        args.pairs,
        args.seconds
    );
    let mut rows = Vec::new();
    for (workload, pairs) in args.workloads.iter().zip(&runs) {
        let shares = (failure_share(pairs, 0), failure_share(pairs, 1));
        for m in &spec.metrics {
            let value = |p: &Pair, arm: usize| p[arm].as_ref()?.metric(&m.name);
            let values: Vec<(f64, f64)> = pairs
                .iter()
                .filter_map(|p| Some((value(p, 0)?, value(p, 1)?)))
                .collect();
            if values.is_empty() {
                continue;
            }
            let v = verdict(m.better, m.bound, &values, shares);
            let flags = if v.flags.is_empty() {
                "—".to_string()
            } else {
                v.flags.join(", ")
            };
            let _ = writeln!(
                table,
                "| {workload} | {} ({}) | {} | {} | {:.3} | {}/{}/{} | {flags} | {:.2}% / {:.2}% |",
                m.name,
                m.unit,
                v.parent.show(),
                v.change.show(),
                v.ratio,
                v.wins,
                v.losses,
                v.ties,
                shares.0 * 100.0,
                shares.1 * 100.0
            );
            let quartiles = |q: Quartiles| json!({"q1": q.q1, "median": q.median, "q3": q.q3});
            rows.push(json!({
                "workload": workload.as_str(),
                "metric": m.name.as_str(),
                "pairs": values.len(),
                "parent": quartiles(v.parent),
                "change": quartiles(v.change),
                "ratio_median": v.ratio,
                "wins": v.wins,
                "losses": v.losses,
                "ties": v.ties,
                "failure_share": {"parent": shares.0, "change": shares.1},
                "flags": v.flags,
            }));
        }
    }
    let report = json!({
        "parent": {"rev": args.rev.as_str(), "commit": parent_commit},
        "change": {"commit": change_commit, "working_tree_changes": dirty,
            "kernel_arm": kernel_arm},
        "pairs": args.pairs,
        "seconds": args.seconds,
        "all_correct": ok,
        "rows": rows,
        "runs": runs_json,
    });
    let path = root.join("target").join("ab").join("report.json");
    let text = serde_json::to_string_pretty(&report).map_err(|e| format!("{e:?}"))?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("{table}");
    eprintln!("ab: report in {}", path.display());
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        let text = std::fs::read_to_string(bench::workspace_root().join("BENCHMARK.json"))
            .expect("read BENCHMARK.json");
        Spec::parse(&text).expect("parse BENCHMARK.json")
    }

    /// `n` pairs whose change values are the parent's times `scale`, over
    /// a parent that alternates between 100 and 101.
    fn scaled(n: usize, scale: f64) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                let p = 100.0 + (i % 2) as f64;
                (p, p * scale)
            })
            .collect()
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        let q = Quartiles::of([4.0, 1.0, 3.0, 2.0].into_iter());
        assert_eq!((q.q1, q.median, q.q3), (1.75, 2.5, 3.25));
        let one = Quartiles::of([7.0].into_iter());
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn quiet_equal_arms_raise_no_flag() {
        let v = verdict(Better::Higher, 0.25, &scaled(10, 1.0), (0.0, 0.0));
        assert!(v.flags.is_empty(), "{:?}", v.flags);
        assert_eq!((v.wins, v.losses, v.ties), (0, 0, 10));
        assert_eq!(v.ratio, 1.0);
    }

    #[test]
    fn gain_needs_nine_in_ten_wins_and_a_shift_beyond_the_quartiles() {
        let v = verdict(Better::Higher, 0.25, &scaled(10, 1.1), (0.0, 0.0));
        assert_eq!(v.flags, ["gain"]);
        assert_eq!((v.wins, v.losses, v.ties), (10, 0, 0));
        // The same 10% for a lower-is-better metric is a loss.
        let v = verdict(Better::Lower, 0.25, &scaled(10, 1.1), (0.0, 0.0));
        assert_eq!(v.flags, ["loss"]);
        // A 0.1% shift wins every pair but stays inside the parent's
        // quartile distance (1.0 here).
        let v = verdict(Better::Higher, 0.25, &scaled(10, 1.001), (0.0, 0.0));
        assert!(v.flags.is_empty(), "{:?}", v.flags);
    }

    #[test]
    fn fewer_than_ten_pairs_never_give_gain_or_loss() {
        for n in 1..10 {
            let up = verdict(Better::Higher, 0.25, &scaled(n, 1.2), (0.0, 0.0));
            let down = verdict(Better::Higher, 0.25, &scaled(n, 0.8), (0.0, 0.0));
            assert!(up.flags.is_empty(), "{n}: {:?}", up.flags);
            assert!(down.flags.is_empty(), "{n}: {:?}", down.flags);
        }
    }

    #[test]
    fn ties_count_for_neither_arm() {
        // Nine wins and one tie is 9 in 10; eight wins and two ties is not.
        let mut pairs = scaled(10, 1.1);
        pairs[0].1 = pairs[0].0;
        let v = verdict(Better::Higher, 0.25, &pairs, (0.0, 0.0));
        assert_eq!((v.wins, v.losses, v.ties), (9, 0, 1));
        assert_eq!(v.flags, ["gain"]);
        pairs[1].1 = pairs[1].0;
        let v = verdict(Better::Higher, 0.25, &pairs, (0.0, 0.0));
        assert_eq!((v.wins, v.losses, v.ties), (8, 0, 2));
        assert!(v.flags.is_empty(), "{:?}", v.flags);
    }

    #[test]
    fn regressed_is_a_median_worse_than_the_bound() {
        // Three pairs 30% slower: beyond the 0.25 bound, too few for loss.
        let v = verdict(Better::Higher, 0.25, &scaled(3, 0.7), (0.0, 0.0));
        assert_eq!(v.flags, ["regressed"]);
        // 20% slower stays inside it.
        let v = verdict(Better::Higher, 0.25, &scaled(3, 0.8), (0.0, 0.0));
        assert!(v.flags.is_empty(), "{:?}", v.flags);
        // Latency 30% higher.
        let v = verdict(Better::Lower, 0.25, &scaled(3, 1.3), (0.0, 0.0));
        assert_eq!(v.flags, ["regressed"]);
    }

    #[test]
    fn one_row_can_carry_loss_and_regressed() {
        let v = verdict(Better::Higher, 0.25, &scaled(10, 0.6), (0.0, 0.0));
        assert_eq!(v.flags, ["loss", "regressed"]);
        assert_eq!(v.losses, 10);
    }

    #[test]
    fn unresolved_is_spread_beyond_the_bound_unless_every_run_beats_every_run() {
        // The change's runs scatter from 50 to 150: Q3 − Q1 = 50 over a
        // median of 100.
        let scattered: Vec<(f64, f64)> = [50.0, 75.0, 100.0, 125.0, 150.0]
            .iter()
            .map(|&c| (100.0, c))
            .collect();
        let v = verdict(Better::Higher, 0.25, &scattered, (0.0, 0.0));
        assert_eq!(v.flags, ["unresolved"]);
        // A wide spread whose every change run beats every parent run.
        let separated: Vec<(f64, f64)> = [200.0, 300.0, 400.0, 500.0, 600.0]
            .iter()
            .map(|&c| (100.0, c))
            .collect();
        let v = verdict(Better::Higher, 0.25, &separated, (0.0, 0.0));
        assert!(v.flags.is_empty(), "{:?}", v.flags);
    }

    #[test]
    fn a_larger_failure_share_is_flagged() {
        let v = verdict(Better::Higher, 0.25, &scaled(2, 1.0), (0.001, 0.002));
        assert_eq!(v.flags, ["failures"]);
        let v = verdict(Better::Higher, 0.25, &scaled(2, 1.0), (0.002, 0.001));
        assert!(v.flags.is_empty(), "{:?}", v.flags);
    }

    fn run(attempted: u64, failed: u64) -> Option<RunResult> {
        Some(RunResult {
            correct: failed == 0,
            attempted,
            failed,
            line: Value::Null,
        })
    }

    #[test]
    fn failure_share_sums_over_the_runs_of_one_arm() {
        let pairs = [[run(100, 0), run(100, 1)], [run(100, 0), run(300, 1)]];
        assert_eq!(failure_share(&pairs, 0), 0.0);
        assert_eq!(failure_share(&pairs, 1), 0.005);
        // A run that printed no result is one failed operation.
        assert_eq!(failure_share(&[[None, None]], 1), 1.0);
        assert_eq!(failure_share(&[], 1), 0.0);
    }

    #[test]
    fn a_change_run_without_a_result_raises_failures() {
        // The change's second run crashed: the pair that survives compares
        // equal, and only the failure share tells the arms apart.
        let pairs = [[run(100, 0), run(100, 0)], [run(100, 0), None]];
        let shares = (failure_share(&pairs, 0), failure_share(&pairs, 1));
        assert_eq!(shares, (0.0, 1.0 / 101.0));
        let v = verdict(Better::Higher, 0.25, &scaled(1, 1.0), shares);
        assert_eq!(v.flags, ["failures"]);
        // The parent crashing instead raises nothing against the change.
        let pairs = [[run(100, 0), run(100, 0)], [None, run(100, 0)]];
        let shares = (failure_share(&pairs, 0), failure_share(&pairs, 1));
        let v = verdict(Better::Higher, 0.25, &scaled(1, 1.0), shares);
        assert!(v.flags.is_empty(), "{:?}", v.flags);
    }

    #[test]
    fn benchmark_json_gives_workloads_metrics_and_a_build_command() {
        let spec = spec();
        assert_eq!(
            spec.workloads,
            ["serve-short", "serve-long", "serve-reuse", "finetune"]
        );
        assert_eq!(spec.metrics.len(), 5);
        assert_eq!(spec.metrics[0].better, Better::Higher);
        let build = spec.build_command().expect("cargo run");
        assert_eq!(&build[..2], ["cargo", "build"]);
        assert!(!build.contains(&"--".to_string()) && !build.contains(&"run".to_string()));
    }

    #[test]
    fn args_default_from_benchmark_json_and_reject_bad_values() {
        let spec = spec();
        let parse = |v: &[&str]| Args::parse(v.iter().map(|s| s.to_string()), &spec);
        let args = parse(&[]).unwrap();
        assert_eq!((args.rev.as_str(), args.pairs), ("HEAD", 10));
        assert_eq!(args.seconds, spec.run_seconds);
        assert_eq!(args.workloads, spec.workloads);
        let args = parse(&[
            "--workload",
            "finetune",
            "--workload",
            "serve-long",
            "--rev",
            "abc",
        ]);
        let args = args.unwrap();
        assert_eq!(args.workloads, ["finetune", "serve-long"]);
        assert_eq!(args.rev, "abc");
        for bad in [
            &["--pairs", "0"][..],
            &["--seconds", "-1"],
            &["--workload", "nope"],
            &["--rev", "--all"],
            &["--pairs"],
            &["--frob", "1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_parses() {
        let line = r#"{"correct": true, "attempted": 812, "failed": 0, "metrics": {"throughput": {"value": 40.6, "unit": "ops/s"}, "setup_s": {"value": 0.5, "unit": "s"}}}"#;
        let r = RunResult::parse(line).expect("parses");
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (812, 0));
        assert_eq!(r.metric("throughput"), Some(40.6));
        assert_eq!(r.metric("latency_p50_ms"), None);
        assert!(RunResult::parse("outputs: match").is_none());
    }

    #[test]
    fn four_significant_digits() {
        assert_eq!(sig(111.234), "111.2");
        assert_eq!(sig(0.51234), "0.5123");
        assert_eq!(sig(12345.6), "12346");
        assert_eq!(sig(0.0), "0.000000");
    }
}
