//! Parallel-safety auditor CLI: the workspace-wide concurrency gate.
//!
//! Two layers, mirroring `analysis::par`:
//!
//! 1. **Source sweep** — lints every `crates/*/src/**/*.rs` file for
//!    unsynchronized shared statics (P001), spawn closures capturing
//!    interior-mutable state (P002), `Ordering::Relaxed` on data-guarding
//!    atomics (P003), lock-order cycles across the whole workspace
//!    (P004), float accumulation inside spawned closures (P005), and
//!    blocking primitives in the tape hot path (P006). `// par-ok:
//!    <reason>` annotations allowlist audited sites; a reason-less
//!    annotation is itself a finding (P000) and a stale one is P009.
//! 2. **Schedule certification** — every `ReductionSchedule` the kernels
//!    declare (the row split and the register tile's column split of each
//!    matmul orientation, over a sweep of launch shapes × worker counts)
//!    is replayed symbolically against the canonical reduction orders in
//!    `analysis::order`. A schedule that is not bit-equivalent to the
//!    sequential fold is P010.
//!
//! Writes `target/bench/BENCH_par_audit.json` and exits nonzero on
//! any unsuppressed finding — `ci.sh` runs this as a gate.
//!
//! ```text
//! cargo run --release -p bench --bin par_audit [-- --out PATH]
//! ```

use analysis::par::{audit_par_sources, certify_declared, ParCounts};
use bench::workspace_root;

/// Launch shapes certified per worker count: the degenerate scalar case,
/// odd non-aligned shapes, a blocked-boundary shape, and the presets'
/// order of magnitude.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (3, 63, 5),
    (7, 64, 129),
    (65, 130, 257),
    (64, 512, 512),
];

const WORKER_COUNTS: &[usize] = &[1, 2, 4, 8];

fn main() {
    let out_path = bench::parse_out_arg("par_audit");

    let root = workspace_root();
    let audit = audit_par_sources(&root).expect("walk workspace sources");
    let mut counts: ParCounts = audit.counts;

    println!("== parallel-safety audit: source sweep ==");
    for finding in &audit.findings {
        println!("{finding}");
    }
    for finding in &audit.allowed {
        println!("{finding}");
    }
    if audit.findings.is_empty() {
        println!(
            "source sweep clean: {} files, {} par-ok allowlisted",
            counts.files, counts.suppressed
        );
    }

    println!("\n== parallel-safety audit: schedule certification ==");
    let results = certify_declared(SHAPES, WORKER_COUNTS);
    let mut certified = 0usize;
    let mut rejections: Vec<String> = Vec::new();
    for result in &results {
        match result {
            Ok(_) => certified += 1,
            Err(rej) => {
                println!("{rej}");
                counts.record_schedule("P010");
                rejections.push(rej.to_string());
            }
        }
    }
    println!(
        "{certified}/{} declared schedules certified bit-equivalent to sequential \
         ({} shapes x {} worker counts x 6 schedules: the row split and the \
         register tile's column split of each of 3 orientations)",
        results.len(),
        SHAPES.len(),
        WORKER_COUNTS.len()
    );

    println!("\npar_audit: {counts}");

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
    let report = serde_json::json!({
        "bench": "par_audit",
        "files": counts.files,
        "unsuppressed": counts.unsuppressed(),
        "allowed": counts.suppressed,
        "counts": {
            "P000": counts.p000,
            "P001": counts.p001,
            "P002": counts.p002,
            "P003": counts.p003,
            "P004": counts.p004,
            "P005": counts.p005,
            "P006": counts.p006,
            "P009": counts.p009,
            "P010": counts.p010,
        },
        "findings": findings_json,
        "allowlist": allowed_json,
        "schedules": {
            "declared": results.len(),
            "certified": certified,
            "rejections": rejections,
        },
        "clean": counts.unsuppressed() == 0,
    });
    let rendered = serde_json::to_string_pretty(&report).expect("render report");
    std::fs::write(&out_path, rendered + "\n").expect("write BENCH_par_audit.json");
    println!("wrote {}", out_path.display());

    if counts.unsuppressed() > 0 {
        eprintln!(
            "par_audit: {} unsuppressed finding(s) — fix them or annotate audited \
             sites with `// par-ok: <reason>`",
            counts.unsuppressed()
        );
        std::process::exit(1);
    }
}
