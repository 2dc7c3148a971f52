//! Hot-path auditor CLI: the panic-freedom and allocation-discipline gate.
//!
//! Sweeps the hot-path manifest (`analysis::hot::HOT_MANIFEST` — the
//! serve engine and queue, the batched decoder, the decode loop, the
//! prefix cache, and the matmul/softmax kernels) for `unwrap`/`expect`
//! in non-test code (H001), panic-family macros inside steady-state tick
//! functions (H002), unchecked direct indexing in tick functions (H003),
//! heap allocation per tick (H004), and fallible narrowing casts feeding
//! capacity or indexing (H005). `// hot-ok: <reason>` annotations
//! allowlist audited sites; a reason-less annotation is itself a finding
//! (H000) and a stale one is H009.
//!
//! The static sweep is paired with a dynamic witness: the
//! counting-allocator test in `crates/serve/tests/zero_alloc.rs`
//! certifies that a warm decode tick performs zero heap allocations —
//! the property H004 polices at the source level.
//!
//! Writes `target/bench/BENCH_hot_audit.json` and exits nonzero on
//! any unsuppressed finding — `ci.sh` runs this as a gate.
//!
//! ```text
//! cargo run --release -p bench --bin hot_audit [-- --out PATH]
//! ```

use analysis::hot::audit_hot_sources;
use bench::workspace_root;

fn main() {
    let out_path = bench::parse_out_arg("hot_audit");

    let root = workspace_root();
    let audit = audit_hot_sources(&root).expect("walk hot-path manifest");
    let counts = &audit.counts;

    println!("== hot-path audit: panic freedom and allocation discipline ==");
    for finding in &audit.findings {
        println!("{finding}");
    }
    for finding in &audit.allowed {
        println!("{finding}");
    }
    if audit.findings.is_empty() {
        println!(
            "hot sweep clean: {} files, {} hot-ok allowlisted",
            counts.files, counts.suppressed
        );
    }

    println!("\nhot_audit: {counts}");

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
        "bench": "hot_audit",
        "files": counts.files,
        "unsuppressed": counts.unsuppressed(),
        "allowed": counts.suppressed,
        "counts": {
            "H000": counts.h000,
            "H001": counts.h001,
            "H002": counts.h002,
            "H003": counts.h003,
            "H004": counts.h004,
            "H005": counts.h005,
            "H009": counts.h009,
        },
        "findings": findings_json,
        "allowlist": allowed_json,
        "clean": counts.unsuppressed() == 0,
    });
    let rendered = serde_json::to_string_pretty(&report).expect("render report");
    std::fs::write(&out_path, rendered + "\n").expect("write BENCH_hot_audit.json");
    println!("wrote {}", out_path.display());

    if counts.unsuppressed() > 0 {
        eprintln!(
            "hot_audit: {} unsuppressed finding(s) — fix them or annotate audited \
             sites with `// hot-ok: <reason>`",
            counts.unsuppressed()
        );
        std::process::exit(1);
    }
}
