//! Rule tests: positive, test-code and out-of-scope cases, driven
//! through [`stabl_lint::check`] on the fixture workspace under
//! `tests/fixtures/ws`, which mirrors the real scope's paths.

use stabl_lint::{check, Diagnostic, Report};
use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn fixture_report() -> Report {
    check(&fixture_root()).expect("fixture scan succeeds")
}

fn hits<'a>(report: &'a Report, rule: &str, file: &str) -> Vec<&'a Diagnostic> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.rule == rule && d.file == file)
        .collect()
}

#[test]
fn n002_truncating_casts_of_time_and_seed_values() {
    let report = fixture_report();
    let lines: Vec<u32> = hits(&report, "N-002", "crates/sim/src/numeric.rs")
        .iter()
        .map(|d| d.line)
        .collect();
    // `seed as u32` and `t.as_millis() as i32`; the widening cast, the
    // index cast, the comment and the test module stay silent.
    assert_eq!(lines, vec![3, 7]);
}

#[test]
fn n003_raw_offset_arithmetic_on_extracted_counts() {
    let report = fixture_report();
    let found = hits(&report, "N-003", "crates/sim/src/numeric.rs");
    // Both operands of `end.as_micros() - start.as_micros()`; the
    // string literal stays silent.
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found.iter().all(|d| d.line == 11), "{found:?}");
}

#[test]
fn s001_unlisted_serialize_types() {
    let report = fixture_report();
    let found = hits(&report, "S-001", "crates/core/src/types.rs");
    let messages: Vec<&str> = found.iter().map(|d| d.message.as_str()).collect();
    // Unlisted (derive) + Manual (impl); Listed is in the manifest and
    // TestOnly is test code.
    assert_eq!(found.len(), 2, "{messages:?}");
    assert!(messages.iter().any(|m| m.contains("`Unlisted`")));
    assert!(messages.iter().any(|m| m.contains("`Manual`")));
}

#[test]
fn s002_stale_manifest_entry() {
    let report = fixture_report();
    let found = hits(&report, "S-002", "crates/bench/src/engine.rs");
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].message.contains("`Ghost`"));
    assert_eq!(found[0].line, 4);
}

#[test]
fn s003_missing_manifest() {
    let report = check(&fixture_root().join("crates")).expect("scan succeeds");
    assert_eq!(report.files_scanned, 0);
    let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
    assert_eq!(rules, vec!["S-003"]);
}

#[test]
fn only_the_scope_is_scanned_and_the_report_is_sorted() {
    let report = fixture_report();
    assert_eq!(
        report.files_scanned, 3,
        "crates/other lies outside the scope"
    );
    assert!(report
        .diagnostics
        .iter()
        .all(|d| !d.file.starts_with("crates/other/")));
    assert!(report.diagnostics.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(report.diagnostics.len(), 7);
}
