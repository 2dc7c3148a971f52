//! Cross-checks the lint-code registry (`analysis::registry::CODES`)
//! against the documentation table in `DESIGN.md`: every emittable code
//! must be documented, every documented code must be emittable, and the
//! families must agree. This is what keeps a new lint from shipping
//! undocumented — or a doc row from outliving its lint.

use std::collections::BTreeMap;

use analysis::registry::CODES;
use bench::workspace_root;

/// Parses the `## Lint-code registry` table out of DESIGN.md into
/// `code -> family`.
fn documented_codes() -> BTreeMap<String, String> {
    let path = workspace_root().join("DESIGN.md");
    let text = std::fs::read_to_string(&path).expect("read DESIGN.md");
    let section = text
        .split("## Lint-code registry")
        .nth(1)
        .expect("DESIGN.md must have a '## Lint-code registry' section")
        .split("\n## ")
        .next()
        .unwrap();

    let mut codes = BTreeMap::new();
    for line in section.lines() {
        let cells: Vec<&str> = line
            .trim()
            .trim_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        if cells.len() < 3 {
            continue;
        }
        let code = cells[0];
        // Rows look like `| P010 | sched | … |`; skip the header and rule.
        if code.len() == 4
            && code.starts_with(|c: char| c.is_ascii_uppercase())
            && code[1..].chars().all(|c| c.is_ascii_digit())
        {
            codes.insert(code.to_string(), cells[1].to_string());
        }
    }
    codes
}

#[test]
fn every_registered_code_is_documented_with_matching_family() {
    let documented = documented_codes();
    for entry in CODES {
        match documented.get(entry.code) {
            None => panic!(
                "{} is emittable (analysis::registry) but missing from the \
                 DESIGN.md lint-code registry table",
                entry.code
            ),
            Some(family) => assert_eq!(
                family, entry.family,
                "{}: DESIGN.md says family '{family}', registry says '{}'",
                entry.code, entry.family
            ),
        }
    }
}

#[test]
fn every_documented_code_is_registered() {
    for (code, _) in documented_codes() {
        assert!(
            analysis::registry::lookup(&code).is_some(),
            "DESIGN.md documents {code} but no subsystem registers it — \
             remove the row or register the code"
        );
    }
}

#[test]
fn vql_validator_codes_match_the_registry() {
    // The VQL validator lives outside `analysis`, so spot-check its codes
    // against the registry by family.
    let vql: Vec<&str> = CODES
        .iter()
        .filter(|e| e.family == "vql")
        .map(|e| e.code)
        .collect();
    assert_eq!(vql, ["V001", "V002", "V003", "V004", "V005", "V006"]);
}

#[test]
fn hot_auditor_codes_match_the_registry() {
    // The H family must stay in lockstep across analysis::hot::HotCounts,
    // the registry, and the DESIGN.md table (checked by the tests above).
    let hot: Vec<&str> = CODES
        .iter()
        .filter(|e| e.family == "hot")
        .map(|e| e.code)
        .collect();
    assert_eq!(
        hot,
        ["H000", "H001", "H002", "H003", "H004", "H005", "H009"]
    );
}

#[test]
fn registry_covers_all_families() {
    let families: std::collections::BTreeSet<&str> = CODES.iter().map(|e| e.family).collect();
    for family in [
        "shape", "flow", "sanitize", "vql", "det", "order", "par", "sched", "hot", "serve", "cache",
    ] {
        assert!(
            families.contains(family),
            "no codes registered for {family}"
        );
    }
}
