//! The canonical registry of every lint/diagnostic code the workspace can
//! emit, in one table. Tests here (and in `bench/tests/lint_registry.rs`)
//! cross-check the table against the counters and `DESIGN.md` so a new
//! code cannot ship undocumented and a documented code cannot silently
//! stop being emitted.

/// One registered diagnostic code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeEntry {
    pub code: &'static str,
    /// The emitting subsystem.
    pub family: &'static str,
    pub summary: &'static str,
}

/// Every code any auditor, doctor pass, or validator in the workspace can
/// emit. Keep sorted by code within each family block.
pub const CODES: &[CodeEntry] = &[
    // Shape doctor (analysis::shape).
    CodeEntry {
        code: "S001",
        family: "shape",
        summary: "recorded output shape disagrees with re-derived shape",
    },
    CodeEntry {
        code: "S002",
        family: "shape",
        summary: "operand geometry the op can never accept",
    },
    // Gradient flow (analysis::flow).
    CodeEntry {
        code: "G001",
        family: "flow",
        summary: "parameter can never receive a gradient",
    },
    CodeEntry {
        code: "G002",
        family: "flow",
        summary: "dead subgraph computed but never consumed",
    },
    CodeEntry {
        code: "G003",
        family: "flow",
        summary: "requires_grad bookkeeping backward can never reach",
    },
    CodeEntry {
        code: "G004",
        family: "flow",
        summary: "dropout recorded on an eval-mode tape",
    },
    // Numeric sanitizer (analysis::sanitize).
    CodeEntry {
        code: "N001",
        family: "sanitize",
        summary: "NaN/Inf in a forward value",
    },
    CodeEntry {
        code: "N002",
        family: "sanitize",
        summary: "NaN/Inf in a gradient",
    },
    // VQL validator (vql::validate).
    CodeEntry {
        code: "V001",
        family: "vql",
        summary: "column reference not in the schema",
    },
    CodeEntry {
        code: "V002",
        family: "vql",
        summary: "aggregate applied to a non-numeric column",
    },
    CodeEntry {
        code: "V003",
        family: "vql",
        summary: "missing or miscounted encoding channel",
    },
    CodeEntry {
        code: "V004",
        family: "vql",
        summary: "table reference not in the schema",
    },
    CodeEntry {
        code: "V005",
        family: "vql",
        summary: "GROUP BY without an aggregate",
    },
    CodeEntry {
        code: "V006",
        family: "vql",
        summary: "aggregate without a GROUP BY",
    },
    // Determinism auditor, source layer (analysis::det).
    CodeEntry {
        code: "D000",
        family: "det",
        summary: "det-ok annotation without a reason",
    },
    CodeEntry {
        code: "D001",
        family: "det",
        summary: "hash-ordered iteration into an order-sensitive sink",
    },
    CodeEntry {
        code: "D002",
        family: "det",
        summary: "ambient randomness in tape or checkpoint state",
    },
    CodeEntry {
        code: "D003",
        family: "det",
        summary: "wall-clock time feeding computation",
    },
    CodeEntry {
        code: "D004",
        family: "det",
        summary: "environment read outside the sanctioned config path",
    },
    CodeEntry {
        code: "D005",
        family: "det",
        summary: "float accumulation over hash-ordered iteration",
    },
    CodeEntry {
        code: "D009",
        family: "det",
        summary: "stale det-ok suppression matching no finding",
    },
    // Determinism auditor, tape layer (analysis::order).
    CodeEntry {
        code: "D010",
        family: "order",
        summary: "forward reduction replay diverges from canonical order",
    },
    CodeEntry {
        code: "D011",
        family: "order",
        summary: "backward accumulation diverges from declared order",
    },
    // Parallel-safety auditor, source layer (analysis::par).
    CodeEntry {
        code: "P000",
        family: "par",
        summary: "par-ok annotation without a reason",
    },
    CodeEntry {
        code: "P001",
        family: "par",
        summary: "static mut or non-Sync interior-mutable shared static",
    },
    CodeEntry {
        code: "P002",
        family: "par",
        summary: "spawn closure capturing unsynchronized interior-mutable state",
    },
    CodeEntry {
        code: "P003",
        family: "par",
        summary: "Ordering::Relaxed on an atomic guarding data",
    },
    CodeEntry {
        code: "P004",
        family: "par",
        summary: "lock acquisition order conflicts across code paths",
    },
    CodeEntry {
        code: "P005",
        family: "par",
        summary: "float accumulation inside a spawned closure",
    },
    CodeEntry {
        code: "P006",
        family: "par",
        summary: "blocking primitive in the tape hot path",
    },
    CodeEntry {
        code: "P009",
        family: "par",
        summary: "stale par-ok suppression matching no finding",
    },
    // Parallel-safety auditor, schedule layer (analysis::par::certify).
    CodeEntry {
        code: "P010",
        family: "sched",
        summary: "reduction schedule not bit-equivalent to sequential order",
    },
    // Hot-path auditor (analysis::hot).
    CodeEntry {
        code: "H000",
        family: "hot",
        summary: "hot-ok annotation without a reason",
    },
    CodeEntry {
        code: "H001",
        family: "hot",
        summary: "unwrap/expect in hot-path non-test code",
    },
    CodeEntry {
        code: "H002",
        family: "hot",
        summary: "panic-family macro inside a steady-state tick function",
    },
    CodeEntry {
        code: "H003",
        family: "hot",
        summary: "unchecked direct indexing inside a tick function",
    },
    CodeEntry {
        code: "H004",
        family: "hot",
        summary: "heap allocation inside a steady-state tick function",
    },
    CodeEntry {
        code: "H005",
        family: "hot",
        summary: "fallible cast feeding capacity or indexing in a tick function",
    },
    CodeEntry {
        code: "H009",
        family: "hot",
        summary: "stale hot-ok suppression matching no finding",
    },
    // Serving engine rejection codes (serve::request::Rejection).
    CodeEntry {
        code: "R001",
        family: "serve",
        summary: "request refused at the front door: admission queue full",
    },
    CodeEntry {
        code: "R002",
        family: "serve",
        summary: "deadline expired while the request was still queued",
    },
    CodeEntry {
        code: "R003",
        family: "serve",
        summary: "deadline expired mid-decode; partial tokens returned",
    },
    CodeEntry {
        code: "R004",
        family: "serve",
        summary: "engine shutdown retired a queued or in-flight request",
    },
    CodeEntry {
        code: "R005",
        family: "serve",
        summary: "engine invariant violation; request drained with a typed error",
    },
    // Prefix-cache events (nn::prefix_cache).
    CodeEntry {
        code: "C001",
        family: "cache",
        summary: "lookup adopted a resident encoder-state entry",
    },
    CodeEntry {
        code: "C002",
        family: "cache",
        summary: "lookup found no reusable entry; encoder recomputed",
    },
    CodeEntry {
        code: "C003",
        family: "cache",
        summary: "unpinned LRU entry evicted to fit an insert",
    },
    CodeEntry {
        code: "C004",
        family: "cache",
        summary: "insert bypassed: oversized, all-pinned, or hash collision",
    },
];

/// Looks up a code's entry.
pub fn lookup(code: &str) -> Option<&'static CodeEntry> {
    CODES.iter().find(|e| e.code == code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn codes_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for e in CODES {
            assert!(seen.insert(e.code), "duplicate code {}", e.code);
            let (prefix, digits) = e.code.split_at(1);
            assert!(
                matches!(prefix, "S" | "G" | "N" | "V" | "D" | "P" | "H" | "R" | "C"),
                "unknown family prefix in {}",
                e.code
            );
            assert_eq!(digits.len(), 3, "{} must be letter+3 digits", e.code);
            assert!(digits.chars().all(|c| c.is_ascii_digit()));
            assert!(!e.summary.is_empty());
        }
    }

    #[test]
    fn det_counts_codes_are_all_registered() {
        // Every code DetCounts can tally must be in the registry.
        for code in ["D000", "D001", "D002", "D003", "D004", "D005", "D009"] {
            assert!(lookup(code).is_some(), "{code} missing from registry");
        }
        // And every registered det-family code must be tallied by DetCounts:
        // feed a synthetic finding through and confirm it does not panic.
        for e in CODES.iter().filter(|e| e.family == "det") {
            let mut c = crate::det::DetCounts::default();
            c.record(&crate::det::SourceFinding {
                code: e.code,
                file: "x.rs".into(),
                line: 1,
                message: String::new(),
                suppressed: None,
            });
            assert_eq!(c.unsuppressed(), 1, "{} not counted", e.code);
        }
    }

    #[test]
    fn par_counts_codes_are_all_registered() {
        for e in CODES.iter().filter(|e| e.family == "par") {
            let mut c = crate::par::ParCounts::default();
            c.record(&crate::det::SourceFinding {
                code: e.code,
                file: "x.rs".into(),
                line: 1,
                message: String::new(),
                suppressed: None,
            });
            assert_eq!(c.unsuppressed(), 1, "{} not counted", e.code);
        }
        let mut c = crate::par::ParCounts::default();
        c.record_schedule("P010");
        assert_eq!(c.unsuppressed(), 1);
        assert!(lookup("P010").is_some());
    }

    #[test]
    fn hot_counts_codes_are_all_registered() {
        // Every code HotCounts can tally must be in the registry, and
        // every registered hot-family code must be tallied by HotCounts.
        for code in ["H000", "H001", "H002", "H003", "H004", "H005", "H009"] {
            assert!(lookup(code).is_some(), "{code} missing from registry");
        }
        for e in CODES.iter().filter(|e| e.family == "hot") {
            let mut c = crate::hot::HotCounts::default();
            c.record(&crate::det::SourceFinding {
                code: e.code,
                file: "x.rs".into(),
                line: 1,
                message: String::new(),
                suppressed: None,
            });
            assert_eq!(c.unsuppressed(), 1, "{} not counted", e.code);
        }
    }

    #[test]
    fn serve_rejection_codes_are_registered() {
        for code in ["R001", "R002", "R003", "R004", "R005"] {
            let e = lookup(code).unwrap_or_else(|| panic!("{code} missing"));
            assert_eq!(e.family, "serve");
        }
    }

    #[test]
    fn doctor_codes_are_registered() {
        for code in [
            "S001", "S002", "G001", "G002", "G003", "G004", "N001", "N002",
        ] {
            assert!(lookup(code).is_some(), "{code} missing from registry");
        }
    }

    #[test]
    fn lookup_finds_and_rejects() {
        assert_eq!(lookup("P010").unwrap().family, "sched");
        assert!(lookup("Z999").is_none());
    }
}
