//! Determinism auditor CLI: the workspace-wide nondeterminism gate.
//!
//! Two layers, mirroring `analysis::det` and `analysis::order`:
//!
//! 1. **Source sweep** — lints every `crates/*/src/**/*.rs` file for
//!    hash-ordered iteration reaching order-sensitive sinks (D001/D005),
//!    ambient randomness (D002), wall-clock reads outside bench code
//!    (D003), and env reads outside the `DATAVIST5_*` surface (D004).
//!    `// det-ok: <reason>` annotations allowlist audited sites; a
//!    reason-less annotation is itself a finding (D000).
//! 2. **Tape audit** — records train tapes for the base/large presets
//!    (the `graph_doctor` probes), recomputes every recomputable
//!    reduction in its canonical order and bit-compares (D010), then runs
//!    backward twice and bit-compares all gradients (D011).
//!
//! Writes `target/bench/BENCH_det_audit.json` and exits nonzero on
//! any unsuppressed finding — `ci.sh` runs this as a gate.
//!
//! ```text
//! cargo run --release -p bench --bin det_audit [-- --out PATH]
//! ```

use analysis::det::{audit_sources, DetCounts};
use analysis::order;
use bench::workspace_root;
use datavist5::config::{Scale, Size};
use nn::param::ParamSet;
use nn::t5::T5Model;
use tensor::{Graph, XorShift};

fn main() {
    let out_path = bench::parse_out_arg("det_audit");

    let root = workspace_root();
    let audit = audit_sources(&root).expect("walk workspace sources");
    let mut counts: DetCounts = audit.counts;

    println!("== determinism audit: source sweep ==");
    for finding in &audit.findings {
        println!("{finding}");
    }
    for finding in &audit.allowed {
        println!("{finding}");
    }
    if audit.findings.is_empty() {
        println!(
            "source sweep clean: {} files, {} det-ok allowlisted",
            counts.files, counts.suppressed
        );
    }

    // Tape audit over the graph_doctor probe tapes.
    println!("\n== determinism audit: tape reduction orders ==");
    let scale = Scale::from_env();
    let vocab = 64usize;
    let src: Vec<u32> = (5u32..21).collect();
    let tgt: Vec<u32> = (7u32..19).chain([1]).collect();
    let mut tape_findings: Vec<(String, String)> = Vec::new();
    for (size, preset) in [(Size::Base, "base"), (Size::Large, "large")] {
        let cfg = scale.t5_config(size, vocab);
        let mut ps = ParamSet::new();
        let mut rng = XorShift::new(0xde7 + preset.len() as u64);
        let model = T5Model::new(&mut ps, preset, cfg, &mut rng);
        let mut g = Graph::with_seed(1);
        let loss = model.loss(&mut g, &ps, &src, &tgt, 0.1);
        let diagnostics = order::check(&mut g, loss);
        println!(
            "preset {preset}: {} ops audited, {} finding(s)",
            g.len(),
            diagnostics.len()
        );
        for d in &diagnostics {
            println!("{d}");
            counts.record_tape(d.code);
            tape_findings.push((
                d.code.to_string(),
                format!("preset {preset}: {}", d.message),
            ));
        }
    }
    if tape_findings.is_empty() {
        println!("tape audit clean: every reduction matches its canonical order twice over");
    }

    println!("\ndet_audit: {counts}");

    let findings_json: Vec<serde_json::Value> = audit
        .findings
        .iter()
        .map(|f| {
            serde_json::json!({
                "code": f.code,
                "file": f.file.clone(),
                "line": f.line,
                "message": f.message.clone(),
            })
        })
        .collect();
    let allowed_json: Vec<serde_json::Value> = audit
        .allowed
        .iter()
        .map(|f| {
            serde_json::json!({
                "code": f.code,
                "file": f.file.clone(),
                "line": f.line,
                "reason": f.suppressed.clone().unwrap_or_default(),
            })
        })
        .collect();
    let tape_json: Vec<serde_json::Value> = tape_findings
        .iter()
        .map(|(code, message)| serde_json::json!({ "code": code, "message": message }))
        .collect();
    let report = serde_json::json!({
        "bench": "det_audit",
        "files": counts.files,
        "unsuppressed": counts.unsuppressed(),
        "allowed": counts.suppressed,
        "counts": {
            "D000": counts.d000,
            "D001": counts.d001,
            "D002": counts.d002,
            "D003": counts.d003,
            "D004": counts.d004,
            "D005": counts.d005,
            "D010": counts.d010,
            "D011": counts.d011,
        },
        "findings": findings_json,
        "allowlist": allowed_json,
        "tape_findings": tape_json,
        "clean": counts.unsuppressed() == 0,
    });
    let rendered = serde_json::to_string_pretty(&report).expect("render report");
    std::fs::write(&out_path, rendered + "\n").expect("write BENCH_det_audit.json");
    println!("wrote {}", out_path.display());

    if counts.unsuppressed() > 0 {
        eprintln!(
            "det_audit: {} unsuppressed finding(s) — fix them or annotate audited \
             sites with `// det-ok: <reason>`",
            counts.unsuppressed()
        );
        std::process::exit(1);
    }
}
