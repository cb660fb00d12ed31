//! Self-test: the committed workspace passes every rule.

use std::path::PathBuf;

#[test]
fn workspace_lints_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = stabl_lint::check(&root).expect("scan succeeds");
    let found: Vec<String> = report.diagnostics.iter().map(ToString::to_string).collect();
    assert!(
        found.is_empty(),
        "workspace must lint clean; found:\n{}",
        found.join("\n")
    );
    assert!(
        report.files_scanned >= FILES_IN_SCOPE,
        "walked the whole scope: {} files",
        report.files_scanned
    );
}

/// `.rs` files under `stabl_lint::SCOPE` when this floor was set (81
/// until `crates/core/src/bin/stabl.rs` was deleted); a scan that finds
/// fewer has lost part of the workspace.
const FILES_IN_SCOPE: usize = 80;
