//! # stabl-lint — the workspace rules clippy cannot express
//!
//! The Stabl sensitivity metric compares a baseline run against an
//! altered run and attributes the whole difference to the injected
//! failure. That attribution is only sound if nothing *else* differs,
//! so the simulation crates must be bit-replayable from a seed. Most of
//! that contract is clippy configuration with real name resolution
//! (`clippy.toml` and the `[lints]` tables of the crate manifests): no
//! wall clocks, ambient entropy or unordered containers, no shared or
//! interior-mutable state, no panics and no float equality in library
//! code, no `_` arm hiding a message variant. This crate checks the
//! rest, over the fixed [`SCOPE`]:
//!
//! | id    | finding |
//! |-------|---------|
//! | N-002 | truncating `as` cast of a time- or seed-named value |
//! | N-003 | raw `+` / `-` on `.as_micros()` / `.as_millis()` output |
//! | S-001 | `Serialize` type missing from the cache-schema manifest |
//! | S-002 | manifest entry that no `Serialize` impl in scope defines |
//! | S-003 | no `stabl-lint: cache-schema:` marker in [`MANIFEST`] |
//!
//! The S-rules keep the on-disk campaign cache honest: every type a
//! cached `RunResult` can serialise is listed next to
//! `CACHE_SCHEMA_VERSION`, so a new serialised field cannot silently
//! reuse stale cache entries. `#[cfg(test)]` items are exempt from
//! every rule. [`check`] runs from the `workspace_lints_clean` test, so
//! `cargo test --workspace` fails on any finding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The files every rule runs over, relative to the workspace root: the
/// kernel, the five chains and every crate a cached `RunResult` is
/// built from, plus the file holding the manifest.
pub const SCOPE: &[&str] = &[
    "crates/adversary/src",
    "crates/algorand/src",
    "crates/aptos/src",
    "crates/avalanche/src",
    "crates/bench/src/engine.rs",
    "crates/core/src",
    "crates/redbelly/src",
    "crates/sim/src",
    "crates/solana/src",
    "crates/stats/src",
    "crates/types/src",
    "crates/workload/src",
];

/// The file whose `stabl-lint: cache-schema:` comments list the
/// serialised types.
pub const MANIFEST: &str = "crates/bench/src/engine.rs";

/// One finding. The derived order (file, line, column, rule) is the
/// report order.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Path relative to the checked root, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id (`N-002`, …).
    pub rule: &'static str,
    /// What was found and how to fix it.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Everything one run produced.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All findings, sorted.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Runs every rule over the [`SCOPE`] files under `root`, in sorted
/// path order. Scope entries missing under `root` are skipped.
pub fn check(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    for entry in SCOPE {
        collect_rs_files(&root.join(entry), &mut files)?;
    }
    files.sort();
    let manifest = read_manifest(root);

    let mut report = Report::default();
    let mut serialised = BTreeSet::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let scan = rules::scan_file(&rel, &fs::read_to_string(path)?);
        report.diagnostics.extend(scan.diagnostics);
        for (name, line, col) in scan.serialised {
            if manifest
                .as_ref()
                .is_some_and(|(names, _)| !names.contains(&name))
            {
                report.diagnostics.push(Diagnostic {
                    file: rel.clone(),
                    line,
                    col,
                    rule: "S-001",
                    message: format!(
                        "`{name}` is serialised but missing from the cache-schema manifest; \
                         list it next to CACHE_SCHEMA_VERSION and bump the version if the \
                         wire format changed"
                    ),
                });
            }
            serialised.insert(name);
        }
        report.files_scanned += 1;
    }

    match manifest {
        Some((names, line)) => {
            for name in names.difference(&serialised) {
                report.diagnostics.push(Diagnostic {
                    file: MANIFEST.to_owned(),
                    line,
                    col: 1,
                    rule: "S-002",
                    message: format!(
                        "manifest entry `{name}` has no Serialize impl in scope; remove it"
                    ),
                });
            }
        }
        None => report.diagnostics.push(Diagnostic {
            file: MANIFEST.to_owned(),
            line: 1,
            col: 1,
            rule: "S-003",
            message: "no `stabl-lint: cache-schema:` marker found in the manifest file".to_owned(),
        }),
    }
    report.diagnostics.sort();
    Ok(report)
}

/// The type names the manifest lists, with the line of its first
/// marker; `None` when the file or the marker is missing.
fn read_manifest(root: &Path) -> Option<(BTreeSet<String>, u32)> {
    let src = fs::read_to_string(root.join(MANIFEST)).ok()?;
    let mut names = BTreeSet::new();
    let mut first_line = None;
    for comment in lexer::lex(&src).comments {
        let Some(list) = comment
            .text
            .split("stabl-lint:")
            .nth(1)
            .and_then(|rest| rest.trim().strip_prefix("cache-schema:"))
        else {
            continue;
        };
        first_line.get_or_insert(comment.line);
        names.extend(
            list.split(',')
                .map(str::trim)
                .filter(|n| !n.is_empty())
                .map(str::to_owned),
        );
    }
    first_line.map(|line| (names, line))
}

/// `path` itself when it is a `.rs` file, every `.rs` file below it
/// when it is a directory, nothing when it does not exist.
fn collect_rs_files(path: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if path.is_dir() {
        for entry in fs::read_dir(path)? {
            collect_rs_files(&entry?.path(), out)?;
        }
    } else if path.is_file() && path.extension().is_some_and(|e| e == "rs") {
        out.push(path.to_path_buf());
    }
    Ok(())
}
