//! Self-test: the committed workspace lints clean, and the CLI's exit
//! codes match its findings.

use stabl_lint::Engine;
use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

#[test]
fn workspace_lints_clean() {
    let engine = Engine::from_root(repo_root()).expect("lint.toml parses");
    let report = engine.run().expect("scan succeeds");
    let errors: Vec<String> = report
        .errors()
        .map(|d| {
            format!(
                "{}:{}:{}: [{}] {}",
                d.file, d.line, d.col, d.rule, d.message
            )
        })
        .collect();
    assert!(
        errors.is_empty(),
        "workspace must lint clean; found:\n{}",
        errors.join("\n")
    );
    assert!(report.files_scanned > 50, "walked the whole workspace");
    assert_eq!(
        report.baselined().count(),
        0,
        "the committed lint-baseline.json must carry no debt"
    );
    let uncertified: Vec<&str> = report
        .certifications
        .iter()
        .filter(|c| !c.certified)
        .map(|c| c.crate_key.as_str())
        .collect();
    assert!(
        uncertified.is_empty(),
        "kernel and chain crates must certify shard-safe: {uncertified:?}"
    );
    assert_eq!(
        report.certifications.len(),
        8,
        "sim, the shared node state (types), the five chains and the workload generator are certified"
    );
}

#[test]
fn workspace_suppressions_all_carry_reasons() {
    let engine = Engine::from_root(repo_root()).expect("lint.toml parses");
    let report = engine.run().expect("scan succeeds");
    for diag in report.suppressed() {
        let reason = diag.suppressed.as_deref().unwrap_or("");
        assert!(
            reason.len() >= 10,
            "suppression at {}:{} has a trivial reason: {reason:?}",
            diag.file,
            diag.line
        );
    }
}

#[test]
fn cli_exits_zero_on_clean_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_stabl-lint"))
        .args(["--root"])
        .arg(repo_root())
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn cli_exits_nonzero_on_fixture_violations_with_json() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws");
    let out = Command::new(env!("CARGO_BIN_EXE_stabl-lint"))
        .args(["--format", "json", "--root"])
        .arg(&fixture)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    // Correct rule id, file and line for a known violation
    // (Instant::now on clock.rs line 6).
    assert!(json.contains("\"rule\": \"D-001\""), "{json}");
    assert!(json.contains("\"file\": \"crates/sim/src/clock.rs\""));
    assert!(json.contains("\"line\": 6"));
}

#[test]
fn cli_lists_rules() {
    let out = Command::new(env!("CARGO_BIN_EXE_stabl-lint"))
        .arg("--list-rules")
        .output()
        .expect("binary runs");
    let text = String::from_utf8_lossy(&out.stdout);
    for id in [
        "B-001", "D-001", "D-002", "D-003", "E-001", "E-002", "N-001", "N-002", "N-003", "P-001",
        "P-002", "P-003", "P-004", "P-005", "P-006", "R-001", "R-002", "R-003", "R-004", "S-001",
    ] {
        assert!(text.contains(id), "missing {id} in --list-rules");
    }
}
