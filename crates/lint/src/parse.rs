//! An item-level Rust parser on top of [`crate::lexer`].
//!
//! `stabl-lint` cannot use `syn` (the vendor tree holds offline
//! stubs), and the semantic rule families added in v2 do not need a
//! full expression parse. What they *do* need — and what a token-stream
//! pattern matcher cannot give them — is exactly what this module
//! extracts:
//!
//! * **`use` trees**, including groups, globs and `as` renames, so a
//!   banned type smuggled in under an alias
//!   (`use std::collections::HashMap as FastMap`) resolves to its
//!   canonical path (D- and P-rules);
//! * **enum definitions with their variants** (E-rules compare variant
//!   sets against match coverage);
//! * **impl blocks** with their trait, self type, associated types and
//!   methods (E-001 discovers `impl Protocol for X { type Msg = … }`
//!   bindings; P-rules seed handler reachability from Protocol impls);
//! * **functions with body spans** (the call graph in
//!   [`crate::symbols`] walks bodies);
//! * **`static` items** (P-001 bans `static mut`);
//! * **pattern-position paths**: every `Enum::Variant` path that occurs
//!   in a match-arm pattern, an `if let`/`while let`/`let … else`
//!   pattern — and *only* there. Distinguishing pattern position from
//!   expression position is what makes E-rules sound: an arm body that
//!   *constructs* `Msg::Chit` must not count as *handling* `Msg::Chit`.
//!
//! The parser is total: any token sequence it cannot make sense of is
//! skipped, never a panic — the right behaviour for a linter that must
//! keep walking the rest of the file.

use crate::lexer::{Token, TokenKind};

/// One terminal entry of a `use` tree: a local name bound to a full
/// path.
///
/// `use std::collections::HashMap as FastMap` yields
/// `local: "FastMap", path: ["std", "collections", "HashMap"]`;
/// `use std::sync::Arc` yields `local: "Arc"` with the same shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UseAlias {
    /// The name the import is visible under in this file.
    pub local: String,
    /// The full imported path, one segment per element.
    pub path: Vec<String>,
    /// 1-based line of the `use` keyword.
    pub line: u32,
}

/// One enum variant with its definition position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Variant {
    /// The variant name.
    pub name: String,
    /// 1-based line of the variant name.
    pub line: u32,
    /// 1-based column of the variant name.
    pub col: u32,
}

/// One `enum` item.
#[derive(Clone, Debug)]
pub struct EnumDef {
    /// The enum's name.
    pub name: String,
    /// Its variants, in declaration order.
    pub variants: Vec<Variant>,
    /// 1-based line of the `enum` keyword.
    pub line: u32,
    /// Token index of the `enum` keyword (for test-span checks).
    pub tok: usize,
}

/// One `fn` item (free or inside an impl).
#[derive(Clone, Debug)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token span of the body block, `[open brace, close brace]`
    /// inclusive; `None` for bodyless declarations (trait methods).
    pub body: Option<(usize, usize)>,
    /// Token index of the `fn` keyword.
    pub tok: usize,
}

/// One `type Name = …;` associated-type binding inside an impl.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AssocType {
    /// The associated type's name (`Msg`, `Timer`, …).
    pub name: String,
    /// The *last identifier* of the bound type's path
    /// (`AvalancheMsg` for `type Msg = AvalancheMsg;`).
    pub value: String,
}

/// One `impl` block.
#[derive(Clone, Debug)]
pub struct ImplDef {
    /// `Some(trait name)` for `impl Trait for Type`, `None` for
    /// inherent impls. Only the trait path's last identifier is kept.
    pub trait_name: Option<String>,
    /// The self type's last path identifier (`AvalancheNode`).
    pub type_name: String,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// Token index of the `impl` keyword.
    pub tok: usize,
    /// Token span of the impl body block, inclusive.
    pub body: (usize, usize),
    /// Associated type bindings in the body.
    pub assoc_types: Vec<AssocType>,
    /// Methods in the body.
    pub fns: Vec<FnDef>,
}

/// One `static` item.
#[derive(Clone, Debug)]
pub struct StaticDef {
    /// The static's name.
    pub name: String,
    /// `true` for `static mut`.
    pub is_mut: bool,
    /// 1-based line of the `static` keyword.
    pub line: u32,
    /// 1-based column of the `static` keyword.
    pub col: u32,
    /// Token index of the `static` keyword.
    pub tok: usize,
}

/// One multi-segment path found in *pattern position* (a match-arm
/// pattern or a `let`-family pattern).
#[derive(Clone, Debug)]
pub struct PatternPath {
    /// The path segments (`["AvalancheMsg", "Accepted"]`).
    pub segs: Vec<String>,
    /// Token index of the first segment.
    pub tok: usize,
    /// 1-based line of the first segment.
    pub line: u32,
}

/// Everything the parser extracts from one file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// Terminal `use` entries (local name → full path).
    pub uses: Vec<UseAlias>,
    /// Glob imports (`use a::b::*` → `["a", "b"]`).
    pub globs: Vec<Vec<String>>,
    /// Enum definitions, all module levels flattened.
    pub enums: Vec<EnumDef>,
    /// Impl blocks, all module levels flattened.
    pub impls: Vec<ImplDef>,
    /// Free functions (not inside an impl).
    pub free_fns: Vec<FnDef>,
    /// `static` items.
    pub statics: Vec<StaticDef>,
    /// `Enum::Variant` paths in pattern position.
    pub patterns: Vec<PatternPath>,
}

impl ParsedFile {
    /// All functions in the file — free and impl methods — in source
    /// order of their containers.
    pub fn all_fns(&self) -> impl Iterator<Item = &FnDef> {
        self.free_fns
            .iter()
            .chain(self.impls.iter().flat_map(|i| i.fns.iter()))
    }

    /// The impl block whose body span contains token index `tok`.
    pub fn impl_containing(&self, tok: usize) -> Option<&ImplDef> {
        self.impls
            .iter()
            .find(|i| tok >= i.body.0 && tok <= i.body.1)
    }
}

/// Parses a lexed token stream into items and pattern paths.
pub fn parse(tokens: &[Token]) -> ParsedFile {
    let mut out = ParsedFile::default();
    parse_items(tokens, 0, tokens.len(), &mut out);
    collect_match_patterns(tokens, &mut out);
    collect_let_patterns(tokens, &mut out);
    out
}

fn is_ident(tokens: &[Token], i: usize, text: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
}

fn any_ident(tokens: &[Token], i: usize) -> Option<&str> {
    tokens.get(i).and_then(|t| {
        if t.kind == TokenKind::Ident {
            Some(t.text.as_str())
        } else {
            None
        }
    })
}

fn is_punct(tokens: &[Token], i: usize, c: char) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text.len() == 1 && t.text.starts_with(c))
}

/// `true` when tokens `i` and `i + 1` are adjacent in the source —
/// required to tell `=>` from `= >` and `::` from `: :`.
fn adjacent(tokens: &[Token], i: usize) -> bool {
    match (tokens.get(i), tokens.get(i + 1)) {
        (Some(a), Some(b)) => a.line == b.line && b.col == a.col + 1,
        _ => false,
    }
}

/// `::` starting at `i`.
fn is_path_sep(tokens: &[Token], i: usize) -> bool {
    is_punct(tokens, i, ':') && is_punct(tokens, i + 1, ':') && adjacent(tokens, i)
}

/// Index of the delimiter matching `tokens[open]`, respecting nesting
/// of the same delimiter pair only.
fn matching(tokens: &[Token], open: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0i64;
    for (idx, t) in tokens.iter().enumerate().skip(open) {
        if t.kind != TokenKind::Punct || t.text.len() != 1 {
            continue;
        }
        if t.text.starts_with(open_c) {
            depth += 1;
        } else if t.text.starts_with(close_c) {
            depth -= 1;
            if depth == 0 {
                return Some(idx);
            }
        }
    }
    None
}

/// Skips one `#[…]` attribute starting at `i`; returns the index after
/// it, or `i` if there is no attribute there.
fn skip_attr(tokens: &[Token], i: usize) -> usize {
    if is_punct(tokens, i, '#') && (is_punct(tokens, i + 1, '[') || is_punct(tokens, i + 2, '[')) {
        // `#[…]` or `#![…]`.
        let open = if is_punct(tokens, i + 1, '[') {
            i + 1
        } else {
            i + 2
        };
        if let Some(close) = matching(tokens, open, '[', ']') {
            return close + 1;
        }
    }
    i
}

/// Skips `pub`, `pub(crate)`, `pub(in path)` starting at `i`.
fn skip_vis(tokens: &[Token], i: usize) -> usize {
    if !is_ident(tokens, i, "pub") {
        return i;
    }
    if is_punct(tokens, i + 1, '(') {
        if let Some(close) = matching(tokens, i + 1, '(', ')') {
            return close + 1;
        }
    }
    i + 1
}

/// Advances past one item body: to the matching `}` of the first
/// top-level `{`, or past a terminating `;`, whichever comes first.
/// Angle brackets are tracked so `->` arrows and generic bounds do not
/// confuse the scan.
fn skip_to_item_end(tokens: &[Token], mut i: usize, end: usize) -> usize {
    let mut angle = 0i64;
    while i < end {
        let t = &tokens[i];
        if t.kind == TokenKind::Punct && t.text.len() == 1 {
            match t.text.as_bytes()[0] {
                b'<' => angle += 1,
                // `->` must not close an angle bracket.
                b'>' if !(i > 0 && is_punct(tokens, i - 1, '-') && adjacent(tokens, i - 1)) => {
                    angle = (angle - 1).max(-1);
                }
                b'{' if angle <= 0 => {
                    return matching(tokens, i, '{', '}').map_or(end, |c| c + 1);
                }
                b';' if angle <= 0 => return i + 1,
                b'(' => {
                    i = matching(tokens, i, '(', ')').map_or(end, |c| c);
                }
                b'[' => {
                    i = matching(tokens, i, '[', ']').map_or(end, |c| c);
                }
                _ => {}
            }
        }
        i += 1;
    }
    end
}

fn parse_items(tokens: &[Token], start: usize, end: usize, out: &mut ParsedFile) {
    let mut i = start;
    while i < end {
        // Attributes and visibility before the item keyword.
        loop {
            let next = skip_attr(tokens, i);
            if next == i {
                break;
            }
            i = next;
        }
        i = skip_vis(tokens, i);
        let Some(word) = any_ident(tokens, i) else {
            i += 1;
            continue;
        };
        match word {
            "use" => i = parse_use(tokens, i, end, out),
            "mod" => {
                // `mod name { … }` recurses; `mod name;` skips.
                let mut j = i + 2;
                while j < end && !is_punct(tokens, j, '{') && !is_punct(tokens, j, ';') {
                    j += 1;
                }
                if is_punct(tokens, j, '{') {
                    let close = matching(tokens, j, '{', '}').unwrap_or(end);
                    parse_items(tokens, j + 1, close, out);
                    i = close + 1;
                } else {
                    i = j + 1;
                }
            }
            "enum" => i = parse_enum(tokens, i, end, out),
            "impl" => i = parse_impl(tokens, i, end, out),
            "fn" => {
                let (def, next) = parse_fn(tokens, i, end);
                if let Some(def) = def {
                    out.free_fns.push(def);
                }
                i = next;
            }
            "static" => {
                let t = &tokens[i];
                let is_mut = is_ident(tokens, i + 1, "mut");
                let name_at = if is_mut { i + 2 } else { i + 1 };
                if let Some(name) = any_ident(tokens, name_at) {
                    out.statics.push(StaticDef {
                        name: name.to_owned(),
                        is_mut,
                        line: t.line,
                        col: t.col,
                        tok: i,
                    });
                }
                i = skip_to_item_end(tokens, i + 1, end);
            }
            "const" => {
                // `const fn` is a function; `const NAME: T = …;` skips.
                if is_ident(tokens, i + 1, "fn") {
                    let (def, next) = parse_fn(tokens, i + 1, end);
                    if let Some(def) = def {
                        out.free_fns.push(def);
                    }
                    i = next;
                } else {
                    i = skip_to_item_end(tokens, i + 1, end);
                }
            }
            "unsafe" | "async" | "extern" => i += 1,
            "struct" | "union" | "trait" | "macro_rules" | "type" => {
                i = skip_to_item_end(tokens, i + 1, end);
            }
            _ => i += 1,
        }
    }
}

/// Parses `use …;` starting at the `use` keyword; returns the index
/// after the `;`.
fn parse_use(tokens: &[Token], i: usize, end: usize, out: &mut ParsedFile) -> usize {
    let line = tokens[i].line;
    let mut j = i + 1;
    let stop = {
        let mut k = j;
        let mut depth = 0i64;
        while k < end {
            if is_punct(tokens, k, '{') {
                depth += 1;
            } else if is_punct(tokens, k, '}') {
                depth -= 1;
            } else if is_punct(tokens, k, ';') && depth <= 0 {
                break;
            }
            k += 1;
        }
        k
    };
    parse_use_tree(tokens, &mut j, stop, &mut Vec::new(), line, out);
    stop + 1
}

/// Parses one use-tree branch in `tokens[*j..stop]` against `prefix`.
fn parse_use_tree(
    tokens: &[Token],
    j: &mut usize,
    stop: usize,
    prefix: &mut Vec<String>,
    line: u32,
    out: &mut ParsedFile,
) {
    let depth_at_entry = prefix.len();
    while *j < stop {
        if is_path_sep(tokens, *j) {
            *j += 2;
            continue;
        }
        if is_punct(tokens, *j, '{') {
            // Group: parse comma-separated subtrees.
            *j += 1;
            loop {
                parse_use_tree(tokens, j, stop, prefix, line, out);
                if is_punct(tokens, *j, ',') {
                    *j += 1;
                    continue;
                }
                break;
            }
            if is_punct(tokens, *j, '}') {
                *j += 1;
            }
            prefix.truncate(depth_at_entry);
            return;
        }
        if is_punct(tokens, *j, '*') {
            out.globs.push(prefix.clone());
            *j += 1;
            prefix.truncate(depth_at_entry);
            return;
        }
        if is_punct(tokens, *j, ',') || is_punct(tokens, *j, '}') {
            // Empty branch (trailing comma).
            prefix.truncate(depth_at_entry);
            return;
        }
        let Some(word) = any_ident(tokens, *j) else {
            *j += 1;
            continue;
        };
        if word == "as" {
            if let Some(alias) = any_ident(tokens, *j + 1) {
                out.uses.push(UseAlias {
                    local: alias.to_owned(),
                    path: prefix.clone(),
                    line,
                });
                *j += 2;
            } else {
                *j += 1;
            }
            prefix.truncate(depth_at_entry);
            return;
        }
        if word == "self" && !prefix.is_empty() {
            // `use a::b::{self, …}` binds `b`.
            *j += 1;
            if is_ident(tokens, *j, "as") {
                continue; // handled by the `as` branch above
            }
            if let Some(last) = prefix.last().cloned() {
                out.uses.push(UseAlias {
                    local: last,
                    path: prefix.clone(),
                    line,
                });
            }
            prefix.truncate(depth_at_entry);
            return;
        }
        prefix.push(word.to_owned());
        *j += 1;
        if is_path_sep(tokens, *j) {
            continue;
        }
        if is_ident(tokens, *j, "as") {
            continue;
        }
        // Terminal segment.
        if let Some(last) = prefix.last().cloned() {
            out.uses.push(UseAlias {
                local: last,
                path: prefix.clone(),
                line,
            });
        }
        prefix.truncate(depth_at_entry);
        return;
    }
    prefix.truncate(depth_at_entry);
}

/// Parses `enum Name … { Variant, … }` starting at the `enum` keyword.
fn parse_enum(tokens: &[Token], i: usize, end: usize, out: &mut ParsedFile) -> usize {
    let Some(name) = any_ident(tokens, i + 1) else {
        return i + 1;
    };
    // Find the body brace, skipping generics and where clauses.
    let mut j = i + 2;
    let mut angle = 0i64;
    while j < end {
        if is_punct(tokens, j, '<') {
            angle += 1;
        } else if is_punct(tokens, j, '>')
            && !(j > 0 && is_punct(tokens, j - 1, '-') && adjacent(tokens, j - 1))
        {
            angle -= 1;
        } else if is_punct(tokens, j, '{') && angle <= 0 {
            break;
        } else if is_punct(tokens, j, ';') && angle <= 0 {
            return j + 1;
        }
        j += 1;
    }
    let Some(close) = matching(tokens, j, '{', '}') else {
        return end;
    };
    let mut variants = Vec::new();
    let mut k = j + 1;
    while k < close {
        // Skip attributes before the variant name.
        loop {
            let next = skip_attr(tokens, k);
            if next == k {
                break;
            }
            k = next;
        }
        if let Some(vname) = any_ident(tokens, k) {
            let t = &tokens[k];
            variants.push(Variant {
                name: vname.to_owned(),
                line: t.line,
                col: t.col,
            });
        }
        // Advance to the comma ending this variant, skipping payloads
        // and discriminants.
        while k < close {
            if is_punct(tokens, k, '{') {
                k = matching(tokens, k, '{', '}').unwrap_or(close);
            } else if is_punct(tokens, k, '(') {
                k = matching(tokens, k, '(', ')').unwrap_or(close);
            } else if is_punct(tokens, k, ',') {
                break;
            }
            k += 1;
        }
        k += 1; // past the comma
    }
    out.enums.push(EnumDef {
        name: name.to_owned(),
        variants,
        line: tokens[i].line,
        tok: i,
    });
    close + 1
}

/// Parses `fn name…(…) … { … }` starting at the `fn` keyword; returns
/// the definition (if a name was found) and the index after the item.
fn parse_fn(tokens: &[Token], i: usize, end: usize) -> (Option<FnDef>, usize) {
    let Some(name) = any_ident(tokens, i + 1) else {
        return (None, i + 1);
    };
    let mut j = i + 2;
    let mut angle = 0i64;
    while j < end {
        let t = &tokens[j];
        if t.kind == TokenKind::Punct && t.text.len() == 1 {
            match t.text.as_bytes()[0] {
                b'<' => angle += 1,
                b'>' if !(is_punct(tokens, j - 1, '-') && adjacent(tokens, j - 1)) => {
                    angle = (angle - 1).max(-1);
                }
                b'(' => {
                    j = matching(tokens, j, '(', ')').unwrap_or(end);
                }
                b'{' if angle <= 0 => {
                    let close = matching(tokens, j, '{', '}').unwrap_or(end);
                    let def = FnDef {
                        name: name.to_owned(),
                        line: tokens[i].line,
                        body: Some((j, close)),
                        tok: i,
                    };
                    return (Some(def), close + 1);
                }
                b';' if angle <= 0 => {
                    let def = FnDef {
                        name: name.to_owned(),
                        line: tokens[i].line,
                        body: None,
                        tok: i,
                    };
                    return (Some(def), j + 1);
                }
                _ => {}
            }
        }
        j += 1;
    }
    (None, end)
}

/// Parses an `impl` block starting at the `impl` keyword.
fn parse_impl(tokens: &[Token], i: usize, end: usize, out: &mut ParsedFile) -> usize {
    let mut j = i + 1;
    // Skip generic parameters directly after `impl`.
    if is_punct(tokens, j, '<') {
        let mut angle = 0i64;
        while j < end {
            if is_punct(tokens, j, '<') {
                angle += 1;
            } else if is_punct(tokens, j, '>')
                && !(is_punct(tokens, j - 1, '-') && adjacent(tokens, j - 1))
            {
                angle -= 1;
                if angle == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    // Collect the header: `[!] TraitPath for TypePath` or `TypePath`,
    // up to `{` or `where`.
    let mut pre_for: Vec<String> = Vec::new();
    let mut post_for: Vec<String> = Vec::new();
    let mut saw_for = false;
    let mut angle = 0i64;
    while j < end {
        if is_punct(tokens, j, '{') && angle <= 0 {
            break;
        }
        if is_ident(tokens, j, "where") && angle <= 0 {
            while j < end && !is_punct(tokens, j, '{') {
                j += 1;
            }
            break;
        }
        if is_punct(tokens, j, '<') {
            angle += 1;
        } else if is_punct(tokens, j, '>')
            && !(is_punct(tokens, j - 1, '-') && adjacent(tokens, j - 1))
        {
            angle = (angle - 1).max(0);
        } else if angle == 0 {
            if is_ident(tokens, j, "for") {
                saw_for = true;
            } else if let Some(word) = any_ident(tokens, j) {
                if word != "dyn" && word != "mut" && word != "const" {
                    if saw_for {
                        post_for.push(word.to_owned());
                    } else {
                        pre_for.push(word.to_owned());
                    }
                }
            }
        }
        j += 1;
    }
    if j >= end || !is_punct(tokens, j, '{') {
        return j;
    }
    let close = matching(tokens, j, '{', '}').unwrap_or(end);
    let (trait_name, type_name) = if saw_for {
        (pre_for.last().cloned(), post_for.last().cloned())
    } else {
        (None, pre_for.last().cloned())
    };
    let Some(type_name) = type_name else {
        return close + 1;
    };

    // Walk the body for associated types and methods.
    let mut assoc_types = Vec::new();
    let mut fns = Vec::new();
    let mut k = j + 1;
    while k < close {
        loop {
            let next = skip_attr(tokens, k);
            if next == k {
                break;
            }
            k = next;
        }
        k = skip_vis(tokens, k);
        let Some(word) = any_ident(tokens, k) else {
            k += 1;
            continue;
        };
        match word {
            "type" => {
                if let Some(name) = any_ident(tokens, k + 1) {
                    // Value = last ident before the terminating `;`
                    // that is not inside angle brackets.
                    let mut m = k + 2;
                    let mut value = String::new();
                    let mut angle2 = 0i64;
                    while m < close && !is_punct(tokens, m, ';') {
                        if is_punct(tokens, m, '<') {
                            angle2 += 1;
                        } else if is_punct(tokens, m, '>') {
                            angle2 -= 1;
                        } else if angle2 == 0 {
                            if let Some(seg) = any_ident(tokens, m) {
                                value = seg.to_owned();
                            }
                        }
                        m += 1;
                    }
                    assoc_types.push(AssocType {
                        name: name.to_owned(),
                        value,
                    });
                    k = m + 1;
                } else {
                    k += 1;
                }
            }
            "fn" => {
                let (def, next) = parse_fn(tokens, k, close);
                if let Some(def) = def {
                    fns.push(def);
                }
                k = next;
            }
            "const" if is_ident(tokens, k + 1, "fn") => {
                let (def, next) = parse_fn(tokens, k + 1, close);
                if let Some(def) = def {
                    fns.push(def);
                }
                k = next;
            }
            "unsafe" | "async" | "extern" | "default" => k += 1,
            _ => k = skip_to_item_end(tokens, k + 1, close),
        }
    }
    out.impls.push(ImplDef {
        trait_name,
        type_name,
        line: tokens[i].line,
        tok: i,
        body: (j, close),
        assoc_types,
        fns,
    });
    close + 1
}

/// Collects multi-segment paths from every match-arm pattern.
///
/// The arm state machine tracks, at the top nesting level of each
/// match body, whether the cursor is in *pattern* position (before the
/// `=>`, excluding an `if` guard) or in the arm *body* (after the
/// `=>`, up to the top-level `,` or the end of a brace-block body).
fn collect_match_patterns(tokens: &[Token], out: &mut ParsedFile) {
    for i in 0..tokens.len() {
        if !is_ident(tokens, i, "match") {
            continue;
        }
        // The scrutinee runs to the first `{` outside parens/brackets.
        let mut j = i + 1;
        let mut pd = 0i64;
        while j < tokens.len() {
            if is_punct(tokens, j, '(') || is_punct(tokens, j, '[') {
                pd += 1;
            } else if is_punct(tokens, j, ')') || is_punct(tokens, j, ']') {
                pd -= 1;
            } else if is_punct(tokens, j, '{') && pd <= 0 {
                break;
            }
            j += 1;
        }
        let Some(close) = matching(tokens, j, '{', '}') else {
            continue;
        };
        let mut k = j + 1;
        let mut depth = 0i64;
        let mut in_pattern = true;
        let mut region_start = k;
        let mut guard_cut: Option<usize> = None;
        while k < close {
            let bump = |c: char| -> i64 {
                match c {
                    '(' | '[' | '{' => 1,
                    ')' | ']' | '}' => -1,
                    _ => 0,
                }
            };
            if let Some(t) = tokens.get(k) {
                if t.kind == TokenKind::Punct && t.text.len() == 1 {
                    let c = t.text.as_bytes()[0] as char;
                    let delta = bump(c);
                    if delta != 0 {
                        // A brace-block arm body at depth 0 ends the arm.
                        if c == '{' && depth == 0 && !in_pattern {
                            let block_close = matching(tokens, k, '{', '}').unwrap_or(close);
                            k = block_close + 1;
                            if is_punct(tokens, k, ',') {
                                k += 1;
                            }
                            in_pattern = true;
                            region_start = k;
                            guard_cut = None;
                            continue;
                        }
                        depth += delta;
                        k += 1;
                        continue;
                    }
                    if depth == 0 {
                        if in_pattern
                            && c == '='
                            && is_punct(tokens, k + 1, '>')
                            && adjacent(tokens, k)
                        {
                            let region_end = guard_cut.unwrap_or(k);
                            collect_paths_in(tokens, region_start, region_end, out);
                            in_pattern = false;
                            guard_cut = None;
                            k += 2;
                            continue;
                        }
                        if !in_pattern && c == ',' {
                            in_pattern = true;
                            region_start = k + 1;
                        }
                    }
                } else if t.kind == TokenKind::Ident
                    && t.text == "if"
                    && depth == 0
                    && in_pattern
                    && guard_cut.is_none()
                {
                    guard_cut = Some(k);
                }
            }
            k += 1;
        }
    }
}

/// Collects multi-segment paths from `let`-family patterns
/// (`let`, `if let`, `while let`, `let … else`).
fn collect_let_patterns(tokens: &[Token], out: &mut ParsedFile) {
    for i in 0..tokens.len() {
        if !is_ident(tokens, i, "let") {
            continue;
        }
        // The pattern runs to the first top-level `=` that is not part
        // of a compound operator, or to `;` (uninitialised let).
        let mut j = i + 1;
        let mut depth = 0i64;
        let mut end = None;
        while j < tokens.len() && j < i + 120 {
            if let Some(t) = tokens.get(j) {
                if t.kind == TokenKind::Punct && t.text.len() == 1 {
                    match t.text.as_bytes()[0] as char {
                        '(' | '[' | '{' => depth += 1,
                        ')' | ']' | '}' => {
                            depth -= 1;
                            if depth < 0 {
                                break;
                            }
                        }
                        '=' if depth == 0 => {
                            let compound_prev = j > 0
                                && tokens.get(j - 1).is_some_and(|p| {
                                    p.kind == TokenKind::Punct
                                        && "=<>!+-*/%&|^.".contains(&p.text)
                                        && adjacent(tokens, j - 1)
                                });
                            let eq_next = is_punct(tokens, j + 1, '=') && adjacent(tokens, j);
                            if !compound_prev && !eq_next {
                                end = Some(j);
                                break;
                            }
                        }
                        ';' if depth == 0 => break,
                        _ => {}
                    }
                }
            }
            j += 1;
        }
        if let Some(end) = end {
            collect_paths_in(tokens, i + 1, end, out);
        }
    }
}

/// Records every `A::B(::C…)` path inside `tokens[start..end]`.
fn collect_paths_in(tokens: &[Token], start: usize, end: usize, out: &mut ParsedFile) {
    let mut i = start;
    while i < end {
        if any_ident(tokens, i).is_some() && is_path_sep(tokens, i + 1) {
            let first = i;
            let mut segs = vec![tokens[i].text.clone()];
            let mut j = i + 1;
            while j + 1 < end && is_path_sep(tokens, j) {
                if let Some(seg) = any_ident(tokens, j + 2) {
                    segs.push(seg.to_owned());
                    j += 3;
                } else {
                    break;
                }
            }
            if segs.len() >= 2 {
                out.patterns.push(PatternPath {
                    segs,
                    tok: first,
                    line: tokens[first].line,
                });
            }
            i = j;
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> ParsedFile {
        parse(&lex(src).tokens)
    }

    #[test]
    fn use_trees_resolve_groups_aliases_and_globs() {
        let p = parsed(
            "use std::collections::{HashMap as FastMap, BTreeMap, hash_map::Entry};\n\
             use std::sync::Arc;\n\
             use std::rc::*;\n\
             use crate::throttle::{self, Admission};\n",
        );
        let find = |local: &str| p.uses.iter().find(|u| u.local == local);
        assert_eq!(
            find("FastMap").map(|u| u.path.join("::")),
            Some("std::collections::HashMap".to_owned())
        );
        assert_eq!(
            find("BTreeMap").map(|u| u.path.join("::")),
            Some("std::collections::BTreeMap".to_owned())
        );
        assert_eq!(
            find("Entry").map(|u| u.path.join("::")),
            Some("std::collections::hash_map::Entry".to_owned())
        );
        assert_eq!(
            find("Arc").map(|u| u.path.join("::")),
            Some("std::sync::Arc".to_owned())
        );
        assert_eq!(
            find("throttle").map(|u| u.path.join("::")),
            Some("crate::throttle".to_owned())
        );
        assert!(find("Admission").is_some());
        assert_eq!(p.globs, vec![vec!["std".to_owned(), "rc".to_owned()]]);
    }

    #[test]
    fn enums_collect_variants_with_payloads() {
        let p = parsed(
            "pub enum Msg {\n\
                 #[doc = \"x\"]\n\
                 Ping,\n\
                 Data { bytes: Vec<u8>, id: u64 },\n\
                 Pair(u32, u32),\n\
                 Code = 4,\n\
             }\n",
        );
        assert_eq!(p.enums.len(), 1);
        let names: Vec<&str> = p.enums[0]
            .variants
            .iter()
            .map(|v| v.name.as_str())
            .collect();
        assert_eq!(names, vec!["Ping", "Data", "Pair", "Code"]);
    }

    #[test]
    fn impls_capture_trait_type_assoc_types_and_fns() {
        let p = parsed(
            "impl Protocol for AvalancheNode {\n\
                 type Msg = AvalancheMsg;\n\
                 type Config = AvalancheConfig;\n\
                 fn on_message(&mut self) -> Option<u32> { None }\n\
             }\n\
             impl AvalancheNode { fn helper(&self) {} }\n",
        );
        assert_eq!(p.impls.len(), 2);
        assert_eq!(p.impls[0].trait_name.as_deref(), Some("Protocol"));
        assert_eq!(p.impls[0].type_name, "AvalancheNode");
        assert_eq!(
            p.impls[0].assoc_types,
            vec![
                AssocType {
                    name: "Msg".to_owned(),
                    value: "AvalancheMsg".to_owned()
                },
                AssocType {
                    name: "Config".to_owned(),
                    value: "AvalancheConfig".to_owned()
                },
            ]
        );
        assert_eq!(p.impls[0].fns.len(), 1);
        assert_eq!(p.impls[0].fns[0].name, "on_message");
        assert_eq!(p.impls[1].trait_name, None);
        assert_eq!(p.impls[1].fns[0].name, "helper");
    }

    #[test]
    fn generic_impls_resolve_last_segment() {
        let p = parsed(
            "impl<P: Protocol> Protocol for Wrapper<P> {\n\
                 type Msg = P::Msg;\n\
             }\n",
        );
        assert_eq!(p.impls[0].trait_name.as_deref(), Some("Protocol"));
        assert_eq!(p.impls[0].type_name, "Wrapper");
        assert_eq!(p.impls[0].assoc_types[0].value, "Msg");
    }

    #[test]
    fn match_patterns_exclude_arm_bodies_and_guards() {
        let p = parsed(
            "fn f(m: Msg, ctx: &mut C) {\n\
                 match m {\n\
                     Msg::Query { id } => { ctx.send(Msg::Chit { id }); }\n\
                     Msg::Accepted { h } if h == Limit::MAX => reply(Msg::Request { h }),\n\
                     other => drop(other),\n\
                 }\n\
             }\n",
        );
        let segs: Vec<String> = p.patterns.iter().map(|q| q.segs.join("::")).collect();
        // Query and Accepted are pattern-position; Chit and Request are
        // constructed in bodies; Limit::MAX sits in a guard.
        assert!(segs.contains(&"Msg::Query".to_owned()), "{segs:?}");
        assert!(segs.contains(&"Msg::Accepted".to_owned()), "{segs:?}");
        assert!(!segs.contains(&"Msg::Chit".to_owned()), "{segs:?}");
        assert!(!segs.contains(&"Msg::Request".to_owned()), "{segs:?}");
        assert!(!segs.contains(&"Limit::MAX".to_owned()), "{segs:?}");
    }

    #[test]
    fn let_family_patterns_are_collected() {
        let p = parsed(
            "fn f(e: &E) {\n\
                 if let E::Phase { node } = e { use_it(node); }\n\
                 while let Some(E::Tick) = next() {}\n\
                 let E::Done(x) = make(E::Hint) else { return; };\n\
             }\n",
        );
        let segs: Vec<String> = p.patterns.iter().map(|q| q.segs.join("::")).collect();
        assert!(segs.contains(&"E::Phase".to_owned()), "{segs:?}");
        assert!(segs.contains(&"E::Tick".to_owned()), "{segs:?}");
        assert!(segs.contains(&"E::Done".to_owned()), "{segs:?}");
        // Constructed on the RHS, not a pattern.
        assert!(!segs.contains(&"E::Hint".to_owned()), "{segs:?}");
    }

    #[test]
    fn statics_and_mutability() {
        let p = parsed("static OK: u32 = 1;\nstatic mut BAD: u32 = 2;\n");
        assert_eq!(p.statics.len(), 2);
        assert!(!p.statics[0].is_mut);
        assert!(p.statics[1].is_mut);
        assert_eq!(p.statics[1].name, "BAD");
    }

    #[test]
    fn nested_modules_are_flattened() {
        let p = parsed("mod inner { pub enum E { A, B } pub fn g() {} }\n");
        assert_eq!(p.enums.len(), 1);
        assert_eq!(p.free_fns.len(), 1);
    }

    #[test]
    fn fn_body_spans_cover_the_block() {
        let src = "fn a() { b(); }\nfn b() {}\n";
        let p = parsed(src);
        assert_eq!(p.free_fns.len(), 2);
        let body = p.free_fns[0].body.expect("has body");
        assert!(body.1 > body.0);
    }

    #[test]
    fn malformed_input_never_panics() {
        for src in [
            "use ;",
            "enum {",
            "impl for {",
            "match {",
            "fn",
            "let = 3",
            "use a::{b, ;",
            "static",
        ] {
            let _ = parsed(src);
        }
    }
}
