//! The per-file token rules: the two numeric-determinism patterns and
//! the `Serialize` inventory the cache-schema checks diff against the
//! manifest.
//!
//! Deliberate scope limits, so the rules stay high-signal:
//!
//! * N-002 only fires when a nearby identifier names a time or seed
//!   (`seed`, `time`, `micros`, `millis`, `nanos`, `now`) and the
//!   target type narrows below 64 bits — `len() as u32` stays legal.
//!   Clippy's `cast_possible_truncation` has no such filter and fires
//!   on dozens of harmless index casts.
//! * N-003 covers `+`/`-` only: scaling micros with `*`/`/` is how
//!   rates are computed and is fine; it is *offsets* done in raw
//!   integer space (instead of `SimTime`/`SimDuration` saturating
//!   arithmetic) that overflow or underflow silently.

use crate::lexer::{is_punct, lex, matching, test_spans, Token, TokenKind};
use crate::Diagnostic;

/// Integer/float types narrower than the 64-bit time/seed domain.
const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];
/// Identifier fragments that mark a value as time- or seed-typed.
const TIMEY: &[&str] = &["seed", "time", "micros", "millis", "nanos"];

/// What one file contributes to a run.
#[derive(Clone, Debug, Default)]
pub struct FileScan {
    /// N-rule findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Types the file gives a `Serialize` derive or impl, with the
    /// position of the derive attribute or the impl's type name.
    pub serialised: Vec<(String, u32, u32)>,
}

/// Scans the non-test tokens of one file.
pub fn scan_file(rel: &str, src: &str) -> FileScan {
    let tokens = lex(src).tokens;
    let tests = test_spans(&tokens);
    let mut scan = FileScan::default();
    for i in 0..tokens.len() {
        if tests.iter().any(|&(start, end)| (start..end).contains(&i)) {
            continue;
        }
        for (rule, message) in [truncating_cast(&tokens, i), raw_time_arith(&tokens, i)]
            .into_iter()
            .flatten()
        {
            scan.diagnostics.push(Diagnostic {
                file: rel.to_owned(),
                line: tokens[i].line,
                col: tokens[i].col,
                rule,
                message,
            });
        }
        scan.serialised.extend(serialised_type(&tokens, i));
    }
    scan
}

fn ident(tokens: &[Token], i: usize, text: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
}

fn adjacent(tokens: &[Token], i: usize) -> bool {
    match (tokens.get(i), tokens.get(i + 1)) {
        (Some(a), Some(b)) => a.line == b.line && b.col == a.col + 1,
        _ => false,
    }
}

/// N-002: `seed as u32`, `t.as_millis() as i32`, `now as f32` — a
/// narrowing cast within eight tokens of a time/seed-named value.
fn truncating_cast(tokens: &[Token], i: usize) -> Option<(&'static str, String)> {
    if !ident(tokens, i, "as") {
        return None;
    }
    let target = tokens
        .get(i + 1)
        .filter(|t| t.kind == TokenKind::Ident && NARROW.contains(&t.text.as_str()))?;
    let named = tokens[i.saturating_sub(8)..i].iter().rev().find(|t| {
        let lower = t.text.to_ascii_lowercase();
        t.kind == TokenKind::Ident
            && (lower == "now" || TIMEY.iter().any(|frag| lower.contains(frag)))
    })?;
    Some((
        "N-002",
        format!(
            "truncating cast `as {}` near time/seed value `{}`; keep times and seeds in \
             u64/u128, or use TryFrom so truncation is explicit",
            target.text, named.text
        ),
    ))
}

/// N-003: `a.as_micros() + b`, `x - t.as_millis()` — raw offset
/// arithmetic on extracted micro/millisecond counts.
fn raw_time_arith(tokens: &[Token], i: usize) -> Option<(&'static str, String)> {
    let t = tokens.get(i)?;
    if t.kind != TokenKind::Ident || (t.text != "as_micros" && t.text != "as_millis") {
        return None;
    }
    if !(is_punct(tokens, i.wrapping_sub(1), '.')
        && is_punct(tokens, i + 1, '(')
        && is_punct(tokens, i + 2, ')'))
    {
        return None;
    }
    // Forward: `….as_micros() + …` (a `-` that begins `->` is a return
    // arrow in a signature, not arithmetic).
    let after = i + 3;
    let forward = is_punct(tokens, after, '+')
        || (is_punct(tokens, after, '-')
            && !(is_punct(tokens, after + 1, '>') && adjacent(tokens, after)));
    // Backward: `… + x.as_micros()` for a simple one-identifier
    // receiver (longer receivers are caught by the forward check on
    // their own call).
    let backward = i >= 3
        && tokens
            .get(i - 2)
            .is_some_and(|r| r.kind == TokenKind::Ident)
        && (is_punct(tokens, i - 3, '+') || is_punct(tokens, i - 3, '-'));
    (forward || backward).then(|| {
        (
            "N-003",
            format!(
                "raw `+`/`-` on `.{}()` output; stay in SimTime/SimDuration and use their \
                 saturating arithmetic",
                t.text
            ),
        )
    })
}

/// `impl … Serialize for Name` or `#[derive(… Serialize …)]` on a
/// `struct` / `enum` / `union Name` starting at token `i`.
fn serialised_type(tokens: &[Token], i: usize) -> Option<(String, u32, u32)> {
    if ident(tokens, i, "Serialize") && ident(tokens, i + 1, "for") {
        let name = tokens.get(i + 2).filter(|t| t.kind == TokenKind::Ident)?;
        return Some((name.text.clone(), name.line, name.col));
    }
    if !(is_punct(tokens, i, '#') && is_punct(tokens, i + 1, '[') && ident(tokens, i + 2, "derive"))
    {
        return None;
    }
    let close = matching(tokens, i + 1, '[', ']')?;
    if !tokens[i + 3..close]
        .iter()
        .any(|t| t.kind == TokenKind::Ident && t.text == "Serialize")
    {
        return None;
    }
    // Skip further attributes and the visibility to the item keyword.
    let mut j = close + 1;
    loop {
        if is_punct(tokens, j, '#') && is_punct(tokens, j + 1, '[') {
            j = matching(tokens, j + 1, '[', ']')? + 1;
        } else if ident(tokens, j, "pub") {
            j += 1;
            if is_punct(tokens, j, '(') {
                j = matching(tokens, j, '(', ')')? + 1;
            }
        } else {
            break;
        }
    }
    if !["struct", "enum", "union"]
        .iter()
        .any(|kw| ident(tokens, j, kw))
    {
        return None;
    }
    let name = tokens.get(j + 1).filter(|t| t.kind == TokenKind::Ident)?;
    Some((name.text.clone(), tokens[i].line, tokens[i].col))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<&'static str> {
        scan_file("x.rs", src)
            .diagnostics
            .into_iter()
            .map(|d| d.rule)
            .collect()
    }

    fn serialised(src: &str) -> Vec<String> {
        scan_file("x.rs", src)
            .serialised
            .into_iter()
            .map(|(name, _, _)| name)
            .collect()
    }

    #[test]
    fn n002_flags_narrowing_casts_of_timey_values() {
        assert_eq!(findings("let s = seed as u32;"), vec!["N-002"]);
        assert_eq!(findings("let m = t.as_millis() as i32;"), vec!["N-002"]);
        assert_eq!(findings("let f = start_time as f32;"), vec!["N-002"]);
        // Widening casts and non-time values pass.
        assert!(findings("let s = seed as u64;").is_empty());
        assert!(findings("let n = items.len() as u32;").is_empty());
    }

    #[test]
    fn n003_flags_raw_offset_arithmetic() {
        assert_eq!(
            findings("let mid = (a.as_micros() + b.as_micros()) / 2;"),
            vec!["N-003", "N-003"]
        );
        assert_eq!(findings("let d = x.as_millis() - 5;"), vec!["N-003"]);
        assert_eq!(findings("let d = 5 + x.as_millis();"), vec!["N-003"]);
        // Scaling and lone extraction pass; so does a return arrow.
        assert!(findings("let r = x.as_micros() * 2;").is_empty());
        assert!(findings("let u = x.as_micros();").is_empty());
        assert!(findings("fn f(x: T) -> u128 { x.as_micros() }").is_empty());
    }

    #[test]
    fn serialize_inventory_sees_derives_and_impls_outside_tests() {
        assert_eq!(
            serialised("#[derive(Clone, Serialize)]\n#[serde(x)]\npub(crate) struct A;"),
            vec!["A"]
        );
        assert_eq!(serialised("impl Serialize for B {}"), vec!["B"]);
        assert!(serialised("#[derive(Clone)] enum C {}").is_empty());
        assert!(serialised("#[cfg(test)]\nmod t { #[derive(Serialize)] struct D; }").is_empty());
    }
}
