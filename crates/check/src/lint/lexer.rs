//! The token layer: a small hand-rolled Rust lexer.
//!
//! Strips comments and string/char literals, and returns the remaining
//! code tokens (identifiers and single-char punctuation) with 1-based
//! line numbers. Comments are returned on the side — the suppression
//! engine reads `// xlint: allow(...)` markers from them, which keeps
//! suppression syntax inside string literals inert.
//!
//! Fidelity notes (pinned by the seeded property suite in
//! `tests/lexer_prop.rs`):
//!
//! * raw strings `r"…"`/`r#"…"#`/`br##"…"##` with any hash depth,
//! * byte strings and byte/char literals (escaped and plain — including
//!   the escaped-quote literal `'\''`, which the original lexer
//!   mis-scanned so the closing quote opened a phantom literal),
//! * nested block comments `/* a /* b */ c */`,
//! * `\`-escapes inside string literals — including the escaped-newline
//!   continuation `"a \⏎ b"`, whose newline must still advance the line
//!   counter (a seeded lexer test caught the original lexer dropping
//!   it, which shifted every subsequent diagnostic line).

/// One code token: an identifier or a single punctuation character.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// 1-based source line.
    pub line: usize,
    /// Identifier text or single-character punctuation.
    pub text: String,
}

/// One comment, as found in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// Text after the `//` (line comments) or between `/*`/`*/` (block
    /// comments, possibly spanning lines).
    pub text: String,
    /// True for `//` comments, false for `/* */` blocks.
    pub is_line: bool,
}

/// Lex `src` into code tokens, discarding comments.
pub fn lex(src: &str) -> Vec<Tok> {
    lex_full(src).0
}

/// Lex `src` into code tokens plus the comment list.
pub fn lex_full(src: &str) -> (Vec<Tok>, Vec<Comment>) {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0;
    let mut line = 1;
    let at = |i: usize| if i < n { b[i] } else { '\0' };
    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c == '/' && at(i + 1) == '/' {
            let start = i + 2;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            comments.push(Comment {
                line,
                text: b[start.min(i)..i].iter().collect(),
                is_line: true,
            });
        } else if c == '/' && at(i + 1) == '*' {
            let comment_line = line;
            let start = i + 2;
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == '/' && at(i + 1) == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && at(i + 1) == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            comments.push(Comment {
                line: comment_line,
                text: b[start..i.saturating_sub(2).max(start)].iter().collect(),
                is_line: false,
            });
        } else if c == '"' {
            i += 1;
            scan_quoted(&b, &mut i, &mut line);
        } else if c == '\'' {
            // Lifetime or char literal. A lifetime is `'ident` NOT
            // followed by a closing quote (`'a` vs the char `'a'`).
            if at(i + 1) == '\\' {
                // Escaped char literal: step past the escaped character
                // first — it may itself be a quote (`'\''`) — then scan
                // to the closing quote. (Stopping at the escaped quote
                // made the lexer treat the *closing* quote as a new
                // literal opener and swallow following real tokens; the
                // seeded property suite caught it.)
                i += 3;
                while i < n && b[i] != '\'' {
                    i += 1;
                }
                i += 1;
            } else if at(i + 2) == '\'' && at(i + 1) != '\'' {
                i += 3; // plain char literal like 'x'
            } else {
                // Lifetime: one token, tick included (it is real code,
                // unlike literal contents, and the tick is what tells
                // `&'a [T]` from the indexing `a[T]`).
                let start = i;
                i += 1;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                if i > start + 1 {
                    toks.push(Tok {
                        line,
                        text: b[start..i].iter().collect(),
                    });
                }
            }
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            let ident: String = b[start..i].iter().collect();
            // Raw/byte string prefixes parse as identifiers up to the
            // quote; detect them here and consume the literal.
            if (ident == "r" || ident == "b" || ident == "br") && (at(i) == '"' || at(i) == '#') {
                if ident == "b" && at(i) == '#' {
                    // `b#` is not a string prefix; emit the ident.
                    toks.push(Tok { line, text: ident });
                    continue;
                }
                if ident == "b" && at(i) == '"' {
                    // Byte string: same escape rules as a normal string.
                    i += 1;
                    scan_quoted(&b, &mut i, &mut line);
                    continue;
                }
                // Raw string: count the hashes, then scan for `"` + the
                // same number of hashes.
                let mut hashes = 0;
                while at(i) == '#' {
                    hashes += 1;
                    i += 1;
                }
                if at(i) != '"' {
                    // `r#ident` (raw identifier) — emit as ident.
                    toks.push(Tok { line, text: ident });
                    continue;
                }
                i += 1;
                'raw: while i < n {
                    if b[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == '"' {
                        let mut k = 0;
                        while k < hashes && at(i + 1 + k) == '#' {
                            k += 1;
                        }
                        if k == hashes {
                            i += 1 + hashes;
                            break 'raw;
                        }
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
            } else {
                toks.push(Tok { line, text: ident });
            }
        } else if c.is_whitespace() {
            i += 1;
        } else {
            toks.push(Tok {
                line,
                text: c.to_string(),
            });
            i += 1;
        }
    }
    (toks, comments)
}

/// Scan the remainder of a `"`-quoted (or `b"`-quoted) literal whose
/// opening quote has already been consumed, keeping the line counter
/// honest across embedded and escaped newlines.
fn scan_quoted(b: &[char], i: &mut usize, line: &mut usize) {
    let n = b.len();
    while *i < n {
        match b[*i] {
            '\\' => {
                // An escaped character — including `\⏎` (the string
                // continuation), whose newline still ends a source line.
                if *i + 1 < n && b[*i + 1] == '\n' {
                    *line += 1;
                }
                *i += 2;
            }
            '"' => {
                *i += 1;
                break;
            }
            '\n' => {
                *line += 1;
                *i += 1;
            }
            _ => *i += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn lexer_strips_comments_and_literals() {
        let src = r##"
// unsafe in a line comment
/* unsafe in /* a nested */ block comment */
let s = "unsafe in a string";
let r = r#"unsafe in a raw string"#;
let c = 'u'; let esc = '\''; let lt: &'static str = "x";
fn real() { }
"##;
        let t = texts(src);
        assert!(!t.contains(&"unsafe".to_string()), "{t:?}");
        assert!(t.contains(&"real".to_string()));
        assert!(
            t.contains(&"'static".to_string()),
            "lifetime survives, tick and all"
        );
        assert!(
            !t.contains(&"static".to_string()),
            "a lifetime is not a keyword"
        );
    }

    #[test]
    fn lexer_tracks_lines_across_literals() {
        let src = "let a = \"line\nline\nline\";\nunsafe { }\n";
        let toks = lex(src);
        let u = toks.iter().find(|t| t.text == "unsafe").unwrap();
        assert_eq!(u.line, 4);
    }

    #[test]
    fn escaped_newline_in_string_still_counts_the_line() {
        // String continuation: the `\` escapes the newline for the
        // *string value*, but the source still moved down a line.
        let src = "let a = \"x \\\n y\";\nfn f() {}\n";
        let toks = lex(src);
        // The string spans lines 1-2, so the `fn` is on line 3; the old
        // lexer reported 2 (the `\⏎` newline was swallowed).
        let f = toks.iter().find(|t| t.text == "fn").unwrap();
        assert_eq!(f.line, 3, "{toks:?}");
        let semi = toks.iter().find(|t| t.text == ";").unwrap();
        assert_eq!(semi.line, 2);
    }

    #[test]
    fn byte_string_escaped_newline_counts_too() {
        let src = "let a = b\"x \\\n y\";\nfn f() {}\n";
        let f_line = lex(src).iter().find(|t| t.text == "fn").unwrap().line;
        assert_eq!(f_line, 3);
    }

    #[test]
    fn escaped_quote_char_literal_does_not_open_a_phantom_literal() {
        // `'\''` used to stop scanning at the escaped quote, so the real
        // closing quote opened a bogus literal that swallowed `hidden`.
        let src = "let q = '\\''; let hidden = 1; fn f() {}\n";
        let t = texts(src);
        assert!(t.contains(&"hidden".to_string()), "{t:?}");
        assert!(t.contains(&"fn".to_string()));
    }

    #[test]
    fn raw_strings_with_hashes_and_newlines() {
        let src = "let a = r##\"one \"# two\nthree\"##;\nfn f() {}\n";
        let toks = lex(src);
        assert!(!toks.iter().any(|t| t.text == "two"));
        let f = toks.iter().find(|t| t.text == "fn").unwrap();
        assert_eq!(f.line, 3);
    }

    #[test]
    fn comments_are_captured_with_lines() {
        let src = "fn a() {}\n// one\n/* two\nspans */ fn b() {}\n";
        let (_, comments) = lex_full(src);
        assert_eq!(comments.len(), 2);
        assert_eq!(comments[0].line, 2);
        assert_eq!(comments[0].text.trim(), "one");
        assert!(comments[0].is_line);
        assert_eq!(comments[1].line, 3);
        assert!(!comments[1].is_line);
        assert!(comments[1].text.contains("two"));
    }
}
