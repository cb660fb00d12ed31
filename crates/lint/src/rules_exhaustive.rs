//! E-rules: exhaustiveness drift.
//!
//! The paper's post-mortems live and die on the event stream being
//! complete: a message variant a node silently ignores (or an event
//! kind the exporters drop) makes a liveness failure look like
//! nothing happened. Two checks, both cross-file, both anchored at the
//! *variant definition* so the finding sits where the fix belongs:
//!
//! | id    | checks |
//! |-------|--------|
//! | E-001 | every variant of a `Protocol::Msg` enum has a match arm somewhere in its chain crate's non-test code |
//! | E-002 | every variant of a configured enum appears in a configured cover file (`SimEvent` → observe exporters, diagnose counters) |
//!
//! Coverage means *pattern position* — a match arm or `let`-family
//! pattern (see [`crate::parse`]). An arm body that merely constructs
//! `Msg::Chit` does not count as handling `Msg::Chit`; that asymmetry
//! is what a token-stream linter cannot see and this pass exists for.
//!
//! E-001 discovers its targets: any non-test `impl Protocol for …`
//! block in the `[exhaustive]` scope whose `type Msg = E;` names an
//! enum defined in the same crate. Generic pass-throughs
//! (`type Msg = P::Msg`, a protocol wrapping another) resolve to no
//! in-crate enum and are skipped. E-002 targets come from
//! `[exhaustive] covers` triples in `lint.toml`.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::CoverSpec;
use crate::rules::Diagnostic;
use crate::symbols::FileAnalysis;

/// Runs E-001 and E-002 over the analyzed workspace, appending
/// diagnostics to `out`.
pub fn check(
    files: &[FileAnalysis],
    include: &[String],
    covers: &[CoverSpec],
    out: &mut Vec<Diagnostic>,
) {
    // Pattern-position coverage, grouped by crate: (enum, variant).
    let mut by_crate: BTreeMap<&str, BTreeSet<(String, String)>> = BTreeMap::new();
    for fa in files {
        let entry = by_crate.entry(fa.crate_key.as_str()).or_default();
        for (owner, variant, tok) in fa.resolved_patterns() {
            if !fa.in_test_span(tok) {
                entry.insert((owner, variant));
            }
        }
    }

    // E-001: Protocol Msg enums in the [exhaustive] scope.
    let mut reported: BTreeSet<(String, String, String)> = BTreeSet::new();
    for fa in files {
        if !include.iter().any(|p| fa.rel.starts_with(p.as_str())) {
            continue;
        }
        for imp in &fa.parsed.impls {
            if imp.trait_name.as_deref() != Some("Protocol") || fa.in_test_span(imp.tok) {
                continue;
            }
            let Some(msg) = imp.assoc_types.iter().find(|a| a.name == "Msg") else {
                continue;
            };
            // The Msg enum must be defined in the same crate; generic
            // pass-throughs (`type Msg = P::Msg`) resolve to nothing.
            let def = files
                .iter()
                .filter(|g| g.crate_key == fa.crate_key)
                .find_map(|g| {
                    g.parsed
                        .enums
                        .iter()
                        .find(|e| e.name == msg.value && !g.in_test_span(e.tok))
                        .map(|e| (g, e))
                });
            let Some((def_fa, def)) = def else { continue };
            let covered = by_crate.get(fa.crate_key.as_str());
            for v in &def.variants {
                let key = (fa.crate_key.clone(), def.name.clone(), v.name.clone());
                if covered.is_some_and(|set| set.contains(&(def.name.clone(), v.name.clone()))) {
                    continue;
                }
                if reported.insert(key) {
                    out.push(Diagnostic::new(
                        "E-001",
                        &def_fa.rel,
                        v.line,
                        v.col,
                        format!(
                            "variant `{}::{}` (Protocol Msg of `{}`) has no match arm in `{}`",
                            def.name, v.name, imp.type_name, fa.crate_key
                        ),
                    ));
                }
            }
        }
    }

    // E-002: configured enum → cover-file pairs.
    for spec in covers {
        let Some(def_fa) = files.iter().find(|f| f.rel == spec.def_file) else {
            out.push(Diagnostic::new(
                "E-002",
                &spec.def_file,
                1,
                1,
                format!(
                    "covers entry for `{}` names a file outside the scan",
                    spec.enum_name
                ),
            ));
            continue;
        };
        let Some(cover_fa) = files.iter().find(|f| f.rel == spec.cover_file) else {
            out.push(Diagnostic::new(
                "E-002",
                &spec.cover_file,
                1,
                1,
                format!(
                    "covers entry for `{}` names a cover file outside the scan",
                    spec.enum_name
                ),
            ));
            continue;
        };
        let Some(def) = def_fa
            .parsed
            .enums
            .iter()
            .find(|e| e.name == spec.enum_name && !def_fa.in_test_span(e.tok))
        else {
            out.push(Diagnostic::new(
                "E-002",
                &spec.def_file,
                1,
                1,
                format!("enum `{}` not found in covers entry", spec.enum_name),
            ));
            continue;
        };
        let covered: BTreeSet<(String, String)> = cover_fa
            .resolved_patterns()
            .into_iter()
            .filter(|(_, _, tok)| !cover_fa.in_test_span(*tok))
            .map(|(o, v, _)| (o, v))
            .collect();
        for v in &def.variants {
            if !covered.contains(&(def.name.clone(), v.name.clone())) {
                out.push(Diagnostic::new(
                    "E-002",
                    &def_fa.rel,
                    v.line,
                    v.col,
                    format!(
                        "variant `{}::{}` is not covered by `{}`",
                        def.name, v.name, spec.cover_file
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fa(rel: &str, src: &str) -> FileAnalysis {
        FileAnalysis::analyze(rel, src)
    }

    fn run(files: &[FileAnalysis], include: &[&str], covers: &[CoverSpec]) -> Vec<Diagnostic> {
        let include: Vec<String> = include.iter().map(|s| (*s).to_owned()).collect();
        let mut out = Vec::new();
        check(files, &include, covers, &mut out);
        out
    }

    #[test]
    fn e001_flags_unhandled_msg_variants() {
        let files = [
            fa(
                "crates/x/src/msg.rs",
                "pub enum XMsg { Ping, Pong, Lost }\n",
            ),
            fa(
                "crates/x/src/node.rs",
                "struct Node;\n\
                 impl Protocol for Node {\n\
                     type Msg = XMsg;\n\
                     fn on_message(&mut self, m: XMsg) {\n\
                         match m { XMsg::Ping => {}, XMsg::Pong => {}, _ => {} }\n\
                     }\n\
                 }\n",
            ),
        ];
        let diags = run(&files, &["crates/x/src"], &[]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "E-001");
        assert!(
            diags[0].message.contains("XMsg::Lost"),
            "{}",
            diags[0].message
        );
        assert_eq!(diags[0].file, "crates/x/src/msg.rs");
    }

    #[test]
    fn e001_construction_in_a_body_is_not_coverage() {
        let files = [fa(
            "crates/x/src/node.rs",
            "pub enum XMsg { Query, Chit }\n\
             struct Node;\n\
             impl Protocol for Node {\n\
                 type Msg = XMsg;\n\
                 fn on_message(&mut self, m: XMsg) {\n\
                     match m { XMsg::Query => { send(XMsg::Chit); }, _ => {} }\n\
                 }\n\
             }\n",
        )];
        let diags = run(&files, &["crates/x/src"], &[]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("XMsg::Chit"));
    }

    #[test]
    fn e001_skips_generic_passthrough_impls() {
        let files = [fa(
            "crates/x/src/wrap.rs",
            "struct Wrap<P>(P);\n\
             impl<P: Protocol> Protocol for Wrap<P> { type Msg = P::Msg; }\n",
        )];
        assert!(run(&files, &["crates/x/src"], &[]).is_empty());
    }

    #[test]
    fn e002_flags_uncovered_variants_in_cover_file() {
        let files = [
            fa("crates/s/src/ev.rs", "pub enum Ev { A, B, C }\n"),
            fa(
                "crates/c/src/export.rs",
                "use crate::Ev;\nfn f(e: &Ev) { match e { Ev::A => {}, Ev::B => {}, _ => {} } }\n",
            ),
        ];
        let covers = [CoverSpec {
            enum_name: "Ev".to_owned(),
            def_file: "crates/s/src/ev.rs".to_owned(),
            cover_file: "crates/c/src/export.rs".to_owned(),
        }];
        let diags = run(&files, &[], &covers);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "E-002");
        assert!(diags[0].message.contains("Ev::C"));
    }

    #[test]
    fn e002_reports_missing_files_and_enums() {
        let files = [fa("crates/s/src/ev.rs", "pub enum Ev { A }\n")];
        let covers = [
            CoverSpec {
                enum_name: "Ev".to_owned(),
                def_file: "crates/s/src/ev.rs".to_owned(),
                cover_file: "crates/gone.rs".to_owned(),
            },
            CoverSpec {
                enum_name: "Missing".to_owned(),
                def_file: "crates/s/src/ev.rs".to_owned(),
                cover_file: "crates/s/src/ev.rs".to_owned(),
            },
        ];
        let diags = run(&files, &[], &covers);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "E-002"));
    }
}
