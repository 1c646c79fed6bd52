//! A purpose-built token scanner for the analysis pass.
//!
//! The build container has no crates.io access, so `syn`/`proc-macro2`
//! are unavailable; the repo lints only need token streams with
//! comment and line information — not a full AST — and a scanner that
//! understands Rust's lexical grammar (nested block comments, raw
//! strings, char literals vs. lifetimes) is enough to implement them
//! without false positives from commented-out or quoted code.

/// A non-comment token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

/// Lexical class of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw `r#ident`).
    Ident,
    /// Single punctuation character (`::` arrives as two `:` tokens).
    Punct,
    /// String literal (normal, raw, byte); `text` keeps the quotes.
    Str,
    /// Character literal.
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
}

/// A comment (line, block or doc) with its 1-based line span.
#[derive(Debug, Clone)]
pub struct Comment {
    pub text: String,
    pub line_start: u32,
    pub line_end: u32,
}

/// Scanner output: tokens and comments, plus per-line code presence.
#[derive(Debug, Default)]
pub struct Scan {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
    /// `code_lines[l]` is true when 1-based line `l` holds at least one
    /// non-comment token (index 0 unused).
    pub code_lines: Vec<bool>,
}

impl Scan {
    /// Whether line `l` carries any non-comment token.
    #[must_use]
    pub fn has_code(&self, l: u32) -> bool {
        self.code_lines.get(l as usize).copied().unwrap_or(false)
    }

    /// Concatenated text of every comment touching line `l`.
    #[must_use]
    pub fn comment_text_on(&self, l: u32) -> Option<String> {
        let mut out = String::new();
        for c in &self.comments {
            if c.line_start <= l && l <= c.line_end {
                out.push_str(&c.text);
                out.push('\n');
            }
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }
}

/// Scans `src` into tokens and comments. Unterminated constructs are
/// tolerated (consumed to end of input) and a non-ASCII character is
/// stepped over whole — the pass must not panic on any input.
#[must_use]
pub fn scan(src: &str) -> Scan {
    let b = src.as_bytes();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let n_lines = src.lines().count() + 2;
    let mut out = Scan {
        tokens: Vec::new(),
        comments: Vec::new(),
        code_lines: vec![false; n_lines],
    };
    let mark_code = |out: &mut Scan, l: u32| {
        if let Some(slot) = out.code_lines.get_mut(l as usize) {
            *slot = true;
        }
    };
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    text: src[start..i].to_string(),
                    line_start: line,
                    line_end: line,
                });
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let (start, l0) = (i, line);
                let mut depth = 1u32;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    text: src[start..i].to_string(),
                    line_start: l0,
                    line_end: line,
                });
            }
            b'"' => {
                let (start, l0) = (i, line);
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                out.tokens.push(Token {
                    kind: TokKind::Str,
                    text: src[start..i.min(src.len())].to_string(),
                    line: l0,
                });
                mark_code(&mut out, l0);
            }
            b'r' | b'b' if is_raw_string_start(b, i) => {
                let (start, l0) = (i, line);
                // Skip r / br / b prefix, count hashes.
                while i < b.len() && (b[i] == b'r' || b[i] == b'b') {
                    i += 1;
                }
                let mut hashes = 0usize;
                while i < b.len() && b[i] == b'#' {
                    hashes += 1;
                    i += 1;
                }
                if i < b.len() && b[i] == b'"' {
                    i += 1;
                    // Raw string: scan to `"` followed by `hashes` #s.
                    loop {
                        if i >= b.len() {
                            break;
                        }
                        if b[i] == b'\n' {
                            line += 1;
                            i += 1;
                            continue;
                        }
                        if b[i] == b'"' {
                            let mut k = 0usize;
                            while k < hashes && i + 1 + k < b.len() && b[i + 1 + k] == b'#' {
                                k += 1;
                            }
                            if k == hashes {
                                i += 1 + hashes;
                                break;
                            }
                        }
                        i += 1;
                    }
                } else if hashes > 0 && i < b.len() && is_ident_start(b[i]) {
                    // Raw identifier r#ident.
                    while i < b.len() && is_ident_cont(b[i]) {
                        i += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokKind::Ident,
                        text: src[start..i].to_string(),
                        line: l0,
                    });
                    mark_code(&mut out, l0);
                    continue;
                }
                out.tokens.push(Token {
                    kind: TokKind::Str,
                    text: src[start..i.min(src.len())].to_string(),
                    line: l0,
                });
                mark_code(&mut out, l0);
            }
            b'\'' => {
                // Lifetime or char literal.
                let (start, l0) = (i, line);
                if i + 1 < b.len() && is_ident_start(b[i + 1]) {
                    // `'abc` — lifetime unless closed by another quote
                    // right after a single ident char (`'a'`).
                    let mut j = i + 1;
                    while j < b.len() && is_ident_cont(b[j]) {
                        j += 1;
                    }
                    if j < b.len() && b[j] == b'\'' && j == i + 2 {
                        // 'x' char literal
                        i = j + 1;
                        out.tokens.push(Token {
                            kind: TokKind::Char,
                            text: src[start..i].to_string(),
                            line: l0,
                        });
                    } else {
                        i = j;
                        out.tokens.push(Token {
                            kind: TokKind::Lifetime,
                            text: src[start..i].to_string(),
                            line: l0,
                        });
                    }
                } else {
                    // Escaped or punctuation char literal.
                    i += 1;
                    if i < b.len() && b[i] == b'\\' {
                        i += 2;
                        // Consume to closing quote (covers \u{...}).
                        while i < b.len() && b[i] != b'\'' {
                            i += 1;
                        }
                        i += 1;
                    } else {
                        // `'(' `, `'é'` etc.
                        i += utf8_len(b.get(i).copied().unwrap_or(0));
                        if i < b.len() && b[i] == b'\'' {
                            i += 1;
                        }
                    }
                    out.tokens.push(Token {
                        kind: TokKind::Char,
                        text: src[start..i.min(src.len())].to_string(),
                        line: l0,
                    });
                }
                mark_code(&mut out, l0);
            }
            c if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident_cont(b[i]) {
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokKind::Ident,
                    text: src[start..i].to_string(),
                    line,
                });
                mark_code(&mut out, line);
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && (is_ident_cont(b[i]) || b[i] == b'.') {
                    // Stop a numeric token before `..` (range operator).
                    if b[i] == b'.' && i + 1 < b.len() && b[i + 1] == b'.' {
                        break;
                    }
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokKind::Num,
                    text: src[start..i].to_string(),
                    line,
                });
                mark_code(&mut out, line);
            }
            _ => {
                let end = (i + utf8_len(c)).min(b.len());
                out.tokens.push(Token {
                    kind: TokKind::Punct,
                    text: String::from_utf8_lossy(&b[i..end]).into_owned(),
                    line,
                });
                mark_code(&mut out, line);
                i = end;
            }
        }
    }
    out
}

/// Byte length of the UTF-8 character whose first byte is `lead` (1 for
/// ASCII and for a stray continuation byte).
fn utf8_len(lead: u8) -> usize {
    match lead {
        0xF0.. => 4,
        0xE0.. => 3,
        0xC0.. => 2,
        _ => 1,
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_cont(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Whether position `i` starts a raw/byte string (`r"`, `r#"`, `b"`,
/// `br#"` …) or raw identifier (`r#ident`), as opposed to a plain
/// identifier beginning with `r`/`b`.
fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    let mut j = i;
    while j < b.len() && (b[j] == b'r' || b[j] == b'b') && j - i < 2 {
        j += 1;
    }
    let mut k = j;
    while k < b.len() && b[k] == b'#' {
        k += 1;
    }
    if k < b.len() && b[k] == b'"' {
        return true;
    }
    // r#ident raw identifier.
    k > j && k < b.len() && is_ident_start(b[k]) && b[i] == b'r'
}

/// Finds the index of the token matching the opener at `open_idx`
/// (`(`/`[`/`{`), or `tokens.len()` when unbalanced.
#[must_use]
pub fn match_delim(tokens: &[Token], open_idx: usize) -> usize {
    let (open, close) = match tokens[open_idx].text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        "{" => ("{", "}"),
        _ => return open_idx,
    };
    let mut depth = 0i64;
    for (k, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.kind == TokKind::Punct {
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
        }
    }
    tokens.len()
}

/// A `fn` definition located by [`fn_item_at`] (token indices).
#[derive(Debug, Clone, Copy)]
pub struct FnItem {
    /// The name identifier.
    pub name: usize,
    /// The token ending the signature: the body's `{`, or the `;` of a
    /// bodiless trait-method declaration.
    pub sig_end: usize,
    /// Matching `}` of the body (`tokens.len()` when unbalanced);
    /// `None` for a declaration.
    pub body_close: Option<usize>,
}

/// Parses the fn definition starting at token `k` (the `fn` keyword
/// followed by a name — a `fn(…)` pointer type is not one): the
/// signature runs to the first `{` or `;` at paren/bracket depth 0.
#[must_use]
pub fn fn_item_at(toks: &[Token], k: usize) -> Option<FnItem> {
    if toks[k].text != "fn" || toks[k].kind != TokKind::Ident {
        return None;
    }
    let name = k + 1;
    if toks.get(name)?.kind != TokKind::Ident {
        return None;
    }
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(name + 1) {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" | ";" if depth == 0 => {
                return Some(FnItem {
                    name,
                    sig_end: j,
                    body_close: (t.text == "{").then(|| match_delim(toks, j)),
                });
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_do_not_tokenize() {
        let s = scan("// unsafe in comment\nlet x = \"unsafe { }\"; /* vec! */");
        assert!(s.tokens.iter().all(|t| t.text != "unsafe"));
        assert_eq!(s.comments.len(), 2);
        assert!(s.tokens.iter().any(|t| t.kind == TokKind::Str));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let s = scan("fn f<'a>(x: &'a u8) { let c = 'x'; let d = '\\n'; let e = 'é'; }");
        let lt: Vec<_> = s
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lt.len(), 2);
        let ch: Vec<_> = s
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .collect();
        assert_eq!(ch.len(), 3);
        assert_eq!(ch[2].text, "'é'");
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let s = scan("let a = r#\"has \"quote\" inside\"#; let r#type = 1;");
        assert!(s
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text.contains("quote")));
        assert!(s
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "r#type"));
    }

    #[test]
    fn nested_block_comments() {
        let s = scan("/* outer /* inner */ still comment */ fn f() {}");
        assert_eq!(s.comments.len(), 1);
        assert!(s.tokens.iter().any(|t| t.text == "fn"));
    }

    #[test]
    fn code_lines_tracking() {
        let s = scan("// only comment\nlet x = 1;\n\n");
        assert!(!s.has_code(1));
        assert!(s.has_code(2));
        assert!(!s.has_code(3));
    }

    #[test]
    fn delim_matching() {
        let s = scan("f(a, (b, c), d)");
        let open = s.tokens.iter().position(|t| t.text == "(").unwrap();
        let close = match_delim(&s.tokens, open);
        assert_eq!(s.tokens[close].text, ")");
        assert_eq!(close, s.tokens.len() - 1);
    }

    #[test]
    fn numeric_range_not_swallowed() {
        let s = scan("for i in 1..=10 {}");
        assert!(s
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Num && t.text == "1"));
        assert!(s
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Num && t.text == "10"));
    }
}
