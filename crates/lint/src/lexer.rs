//! A small hand-rolled Rust lexer.
//!
//! The linter cannot use `syn` (the vendor tree holds offline stubs
//! only), and it does not need a full parse: every rule in
//! [`crate::rules`] is a pattern over a *token stream* with comments
//! and string/char literals correctly stripped. The hard part of that
//! job — and the part a grep-based linter gets wrong — is exactly what
//! this module handles:
//!
//! * line comments, *nested* block comments and doc comments
//!   (`Instant::now` inside a comment is not a violation);
//! * string literals, including raw strings `r#"…"#` with arbitrary
//!   `#` depth, and byte strings (`"HashMap"` in a string is not a
//!   violation);
//! * lifetimes vs. char literals (`'a` vs. `'a'` vs. `'\n'`);
//! * numeric literals with underscores, radix prefixes and suffixes
//!   (so `0..5` does not produce a bogus float).
//!
//! Comments are not discarded: they are returned alongside the tokens
//! because the cache-schema manifest lives in comments.

/// What a [`Token`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`HashMap`, `fn`, `r#type`).
    Ident,
    /// A lifetime (`'a`, `'static`) — *not* a char literal.
    Lifetime,
    /// A single punctuation character (`:`, `.`, `!`, `{`, …).
    Punct,
    /// An integer literal (`42`, `0xff_u32`).
    Int,
    /// A float literal (`1.5`, `1e-3`).
    Float,
    /// A string literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// A char or byte-char literal (`'a'`, `b'\n'`).
    Char,
}

/// One lexed token with its 1-based source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// The token text. For [`TokenKind::Str`] the *delimiters and
    /// contents are dropped* (rules never need them); for every other
    /// kind this is the source slice.
    pub text: String,
    /// 1-based line of the first character.
    pub line: u32,
    /// 1-based column of the first character.
    pub col: u32,
}

/// One comment (line, block or doc) with its 1-based position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comment {
    /// Text between the comment delimiters, untrimmed.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
}

/// The result of lexing one source file.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens, in source order.
    pub tokens: Vec<Token>,
    /// All comments, in source order.
    pub comments: Vec<Comment>,
}

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn new(src: &str) -> Cursor {
        Cursor {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn eat_while(&mut self, pred: impl Fn(char) -> bool, out: &mut String) {
        while let Some(c) = self.peek() {
            if pred(c) {
                out.push(c);
                self.bump();
            } else {
                break;
            }
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into tokens and comments.
///
/// The lexer is total: malformed input (an unterminated string, a lone
/// backslash) never panics — it degrades to consuming the rest of the
/// file as the current literal, which is the right behaviour for a
/// linter that must keep going.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor::new(src);
    let mut out = Lexed::default();

    while let Some(c) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
        } else if c == '/' && cur.peek_at(1) == Some('/') {
            lex_line_comment(&mut cur, &mut out, line);
        } else if c == '/' && cur.peek_at(1) == Some('*') {
            lex_block_comment(&mut cur, &mut out, line);
        } else if c == '"' {
            lex_string(&mut cur);
            push(&mut out, TokenKind::Str, String::new(), line, col);
        } else if c == 'r' && is_raw_string_ahead(&cur, 1) {
            cur.bump(); // r
            lex_raw_string(&mut cur);
            push(&mut out, TokenKind::Str, String::new(), line, col);
        } else if c == 'b' && (cur.peek_at(1) == Some('"') || cur.peek_at(1) == Some('\'')) {
            cur.bump(); // b
            if cur.peek() == Some('"') {
                lex_string(&mut cur);
                push(&mut out, TokenKind::Str, String::new(), line, col);
            } else {
                let text = lex_char(&mut cur);
                push(&mut out, TokenKind::Char, text, line, col);
            }
        } else if c == 'b' && cur.peek_at(1) == Some('r') && is_raw_string_ahead(&cur, 2) {
            cur.bump(); // b
            cur.bump(); // r
            lex_raw_string(&mut cur);
            push(&mut out, TokenKind::Str, String::new(), line, col);
        } else if c == 'r'
            && cur.peek_at(1) == Some('#')
            && cur.peek_at(2).is_some_and(is_ident_start)
        {
            // Raw identifier r#type.
            let mut text = String::new();
            cur.bump(); // r
            cur.bump(); // #
            cur.eat_while(is_ident_continue, &mut text);
            push(&mut out, TokenKind::Ident, text, line, col);
        } else if c == '\'' {
            lex_lifetime_or_char(&mut cur, &mut out, line, col);
        } else if is_ident_start(c) {
            let mut text = String::new();
            cur.eat_while(is_ident_continue, &mut text);
            push(&mut out, TokenKind::Ident, text, line, col);
        } else if c.is_ascii_digit() {
            lex_number(&mut cur, &mut out, line, col);
        } else {
            cur.bump();
            push(&mut out, TokenKind::Punct, c.to_string(), line, col);
        }
    }
    out
}

fn push(out: &mut Lexed, kind: TokenKind, text: String, line: u32, col: u32) {
    out.tokens.push(Token {
        kind,
        text,
        line,
        col,
    });
}

/// `r`, `r#`, `r##`… followed by `"` starting at offset `from`
/// (offset of the char after the `r` / `br` prefix start).
fn is_raw_string_ahead(cur: &Cursor, from: usize) -> bool {
    let mut ahead = from;
    while cur.peek_at(ahead) == Some('#') {
        ahead += 1;
    }
    cur.peek_at(ahead) == Some('"')
}

fn lex_line_comment(cur: &mut Cursor, out: &mut Lexed, line: u32) {
    cur.bump(); // /
    cur.bump(); // /
    let mut text = String::new();
    while let Some(c) = cur.peek() {
        if c == '\n' {
            break;
        }
        text.push(c);
        cur.bump();
    }
    out.comments.push(Comment { text, line });
}

fn lex_block_comment(cur: &mut Cursor, out: &mut Lexed, line: u32) {
    cur.bump(); // /
    cur.bump(); // *
    let mut depth = 1u32;
    let mut text = String::new();
    while let Some(c) = cur.peek() {
        if c == '/' && cur.peek_at(1) == Some('*') {
            depth += 1;
            text.push_str("/*");
            cur.bump();
            cur.bump();
        } else if c == '*' && cur.peek_at(1) == Some('/') {
            depth -= 1;
            cur.bump();
            cur.bump();
            if depth == 0 {
                break;
            }
            text.push_str("*/");
        } else {
            text.push(c);
            cur.bump();
        }
    }
    out.comments.push(Comment { text, line });
}

/// Consumes a `"…"` string starting at the opening quote.
fn lex_string(cur: &mut Cursor) {
    cur.bump(); // "
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump(); // whatever is escaped, including " and \
            }
            '"' => break,
            _ => {}
        }
    }
}

/// Consumes a raw string starting at the `#`s or the quote (the `r` /
/// `br` prefix is already consumed).
fn lex_raw_string(cur: &mut Cursor) {
    let mut hashes = 0usize;
    while cur.peek() == Some('#') {
        hashes += 1;
        cur.bump();
    }
    cur.bump(); // "
    'outer: while let Some(c) = cur.bump() {
        if c == '"' {
            for _ in 0..hashes {
                if cur.peek() == Some('#') {
                    cur.bump();
                } else {
                    continue 'outer;
                }
            }
            break;
        }
    }
}

/// Consumes a `'…'` char literal starting at the quote; returns its
/// source text.
fn lex_char(cur: &mut Cursor) -> String {
    let mut text = String::new();
    text.push('\'');
    cur.bump(); // '
    while let Some(c) = cur.bump() {
        text.push(c);
        match c {
            '\\' => {
                if let Some(esc) = cur.bump() {
                    text.push(esc);
                }
            }
            '\'' => break,
            _ => {}
        }
    }
    text
}

/// Distinguishes `'a` / `'static` (lifetime) from `'a'` / `'\n'`
/// (char literal): an escape or a quote right after the ident run
/// means char.
fn lex_lifetime_or_char(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    if cur.peek_at(1) == Some('\\') {
        let text = lex_char(cur);
        push(out, TokenKind::Char, text, line, col);
        return;
    }
    // `'x` where x is not an ident char (e.g. `'('`? invalid Rust, or
    // `' '`): treat as char literal.
    if !cur.peek_at(1).is_some_and(is_ident_start) {
        let text = lex_char(cur);
        push(out, TokenKind::Char, text, line, col);
        return;
    }
    // Scan the ident run after the quote.
    let mut ahead = 1usize;
    while cur.peek_at(ahead).is_some_and(is_ident_continue) {
        ahead += 1;
    }
    if cur.peek_at(ahead) == Some('\'') {
        let text = lex_char(cur);
        push(out, TokenKind::Char, text, line, col);
    } else {
        let mut text = String::from('\'');
        cur.bump(); // '
        cur.eat_while(is_ident_continue, &mut text);
        push(out, TokenKind::Lifetime, text, line, col);
    }
}

fn lex_number(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    let mut text = String::new();
    let mut float = false;
    if cur.peek() == Some('0') && matches!(cur.peek_at(1), Some('x') | Some('o') | Some('b')) {
        text.push(cur.bump().unwrap_or('0'));
        text.push(cur.bump().unwrap_or('x'));
        cur.eat_while(|c| c.is_ascii_hexdigit() || c == '_', &mut text);
    } else {
        cur.eat_while(|c| c.is_ascii_digit() || c == '_', &mut text);
        // `1.5` is a float; `0..5` is an int followed by a range; `1.f()`
        // (method call on a literal) keeps the int.
        if cur.peek() == Some('.') && cur.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
            float = true;
            text.push('.');
            cur.bump();
            cur.eat_while(|c| c.is_ascii_digit() || c == '_', &mut text);
        }
        if matches!(cur.peek(), Some('e') | Some('E'))
            && (cur.peek_at(1).is_some_and(|c| c.is_ascii_digit())
                || (matches!(cur.peek_at(1), Some('+') | Some('-'))
                    && cur.peek_at(2).is_some_and(|c| c.is_ascii_digit())))
        {
            float = true;
            text.push(cur.bump().unwrap_or('e'));
            if matches!(cur.peek(), Some('+') | Some('-')) {
                text.push(cur.bump().unwrap_or('+'));
            }
            cur.eat_while(|c| c.is_ascii_digit() || c == '_', &mut text);
        }
    }
    // Type suffix (u32, f64, usize…).
    let mut suffix = String::new();
    cur.eat_while(is_ident_continue, &mut suffix);
    if suffix.starts_with('f') {
        float = true;
    }
    text.push_str(&suffix);
    let kind = if float {
        TokenKind::Float
    } else {
        TokenKind::Int
    };
    push(out, kind, text, line, col);
}

/// Computes the token-index spans (inclusive start, exclusive end)
/// covered by `#[cfg(test)]` items — test modules, test functions —
/// so rules can skip test code.
///
/// Heuristics, documented and sufficient for this workspace:
/// an attribute whose content mentions both `cfg` and `test` and does
/// *not* mention `not` marks the following item (after any further
/// attributes) as test code, up to its matching closing brace or
/// terminating semicolon.
pub fn test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !is_punct(tokens, i, '#') || !is_punct(tokens, i + 1, '[') {
            i += 1;
            continue;
        }
        let Some(close) = matching(tokens, i + 1, '[', ']') else {
            break;
        };
        let content = &tokens[i + 2..close];
        let mentions = |name: &str| {
            content
                .iter()
                .any(|t| t.kind == TokenKind::Ident && t.text == name)
        };
        if !(mentions("cfg") && mentions("test") && !mentions("not")) {
            i = close + 1;
            continue;
        }
        // Skip any further attributes between #[cfg(test)] and the item.
        let mut j = close + 1;
        while is_punct(tokens, j, '#') && is_punct(tokens, j + 1, '[') {
            match matching(tokens, j + 1, '[', ']') {
                Some(c) => j = c + 1,
                None => return spans,
            }
        }
        // The item ends at the matching brace of its first `{`, or at a
        // top-level `;` (e.g. `mod tests;`).
        let mut k = j;
        let mut end = tokens.len();
        while k < tokens.len() {
            let t = &tokens[k];
            if t.kind == TokenKind::Punct && t.text == "{" {
                end = matching(tokens, k, '{', '}').map_or(tokens.len(), |c| c + 1);
                break;
            }
            if t.kind == TokenKind::Punct && t.text == ";" {
                end = k + 1;
                break;
            }
            k += 1;
        }
        spans.push((i, end));
        i = end;
    }
    spans
}

pub(crate) fn is_punct(tokens: &[Token], i: usize, c: char) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text.len() == 1 && t.text.starts_with(c))
}

/// Index of the delimiter matching `tokens[open]` (which must be
/// `open_c`), respecting nesting.
pub(crate) fn matching(
    tokens: &[Token],
    open: usize,
    open_c: char,
    close_c: char,
) -> Option<usize> {
    let mut depth = 0i64;
    for (idx, t) in tokens.iter().enumerate().skip(open) {
        if t.kind != TokenKind::Punct {
            continue;
        }
        if t.text.len() == 1 && t.text.starts_with(open_c) {
            depth += 1;
        } else if t.text.len() == 1 && t.text.starts_with(close_c) {
            depth -= 1;
            if depth == 0 {
                return Some(idx);
            }
        }
    }
    None
}
