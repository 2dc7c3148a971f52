//! Shared harness for the experiment binaries.
//!
//! Every paper table/figure has a binary under `src/bin/` that trains (or
//! loads cached) models, evaluates them, and prints a paper-vs-measured
//! report. Reports are also written to `bench/out/` so EXPERIMENTS.md can
//! be assembled from one `run_all.sh` pass.

use std::fmt::Write as _;
use std::path::PathBuf;

use datavist5::config::Scale;

pub mod trace;

/// The scale experiment binaries run at: `DATAVIST5_SCALE` if set,
/// otherwise `Full` (binaries exist to regenerate the paper's numbers;
/// tests and Criterion default to smoke via [`Scale::from_env`]).
pub fn experiment_scale() -> Scale {
    match std::env::var("DATAVIST5_SCALE").as_deref() {
        Ok("smoke") | Ok("SMOKE") => Scale::Smoke,
        _ => Scale::Full,
    }
}

/// The workspace root: the working directory when it contains `crates/`
/// (the `cargo run` convention), else resolved from this crate's
/// compile-time location. The audits sweep the sources under it, and
/// every report path below resolves from it, so a bin writes to the same
/// place whichever directory it is started from.
pub fn workspace_root() -> PathBuf {
    let cwd = PathBuf::from(".");
    if cwd.join("crates").is_dir() {
        return cwd;
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The default `--out` path for a bench binary's JSON report:
/// `target/bench/BENCH_<name>.json`. Every bench bin that emits
/// machine-readable output takes `--out PATH` and defaults to this; the
/// reports describe one run on one machine, so none is committed.
pub fn default_bench_out(name: &str) -> PathBuf {
    scratch_dir().join(format!("BENCH_{name}.json"))
}

/// Parses the conventional `--out PATH` argument shared by the bench
/// bins, falling back to [`default_bench_out`]. Exits with usage on
/// anything unrecognized.
pub fn parse_out_arg(bin: &str) -> PathBuf {
    let mut out = default_bench_out(bin);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(path) => out = PathBuf::from(path),
                None => {
                    eprintln!("--out needs a path; usage: {bin} [--out PATH]");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown arg {other}; usage: {bin} [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    out
}

/// Output directory for *blessed* reports: paper tables and figures that
/// are committed to the repository and reviewed when they change.
pub fn out_dir() -> PathBuf {
    let dir = workspace_root().join("bench").join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Scratch directory for run-to-run artifacts (raw event logs, traces,
/// per-run reports): `target/bench`, which is never committed. Anything
/// whose bytes change on every invocation belongs here, not in
/// [`out_dir`], so routine runs leave the working tree clean.
pub fn scratch_dir() -> PathBuf {
    let dir = workspace_root().join("target").join("bench");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Prints a report and writes it to `bench/out/<name>.txt` (a blessed,
/// committed artifact — use [`emit_scratch`] for per-run output).
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    let path = out_dir().join(format!("{name}.txt"));
    if let Err(e) = std::fs::write(&path, content) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Prints a report and writes it to `target/bench/<name>.txt` — the
/// uncommitted twin of [`emit`] for artifacts that differ every run.
pub fn emit_scratch(name: &str, content: &str) {
    println!("{content}");
    let path = scratch_dir().join(format!("{name}.txt"));
    if let Err(e) = std::fs::write(&path, content) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Simple fixed-width table builder for aligned console reports.
#[derive(Debug, Default)]
pub struct Report {
    lines: Vec<String>,
}

impl Report {
    pub fn new(title: &str) -> Report {
        let mut r = Report::default();
        r.lines.push(format!("== {title} =="));
        r
    }

    /// Adds a free-form line.
    pub fn line(&mut self, text: impl AsRef<str>) -> &mut Self {
        self.lines.push(text.as_ref().to_string());
        self
    }

    /// Adds a row of cells padded to the given widths.
    pub fn row(&mut self, widths: &[usize], cells: &[&str]) -> &mut Self {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            let w = widths.get(i).copied().unwrap_or(12);
            let _ = write!(s, "{cell:<w$} ");
        }
        self.lines.push(s.trim_end().to_string());
        self
    }

    /// Adds a horizontal rule sized to the widths.
    pub fn rule(&mut self, widths: &[usize]) -> &mut Self {
        let total: usize = widths.iter().map(|w| w + 1).sum();
        self.lines.push("-".repeat(total));
        self
    }

    pub fn render(&self) -> String {
        self.lines.join("\n") + "\n"
    }
}

/// Formats a 0–1 metric like the paper (`0.6833`).
pub fn m4(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a ×100 metric like Table XII (`65.22`).
pub fn m100(x: f64) -> String {
    format!("{:.2}", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_rows_aligned() {
        let mut r = Report::new("demo");
        r.row(&[8, 6], &["model", "em"]);
        r.rule(&[8, 6]);
        r.row(&[8, 6], &["ours", "0.68"]);
        let text = r.render();
        assert!(text.starts_with("== demo =="));
        assert!(text.contains("model    em"));
        assert!(text.contains("ours     0.68"));
    }

    #[test]
    fn metric_formatting() {
        assert_eq!(m4(0.68334), "0.6833");
        assert_eq!(m100(0.6522), "65.22");
    }
}
