//! Seeded property tests for the xlint lexer (ISSUE satellite: lexer
//! hardening).
//!
//! The generator is the oracle: each iteration assembles a random
//! Rust-ish source out of fragments whose token/comment/line effects
//! are known by construction — raw strings of every hash depth, byte
//! strings, plain and escaped char literals, lifetimes, nested block
//! comments, and string literals with embedded and escaped newlines.
//! The lexer must reproduce the predicted `(line, text)` token stream
//! and comment list exactly.
//!
//! Seeds are fixed (`MASTER_SEED` + iteration index through
//! `Xoshiro256PlusPlus`), so a failure reproduces deterministically;
//! the failing source is printed whole.

use mmsb_check::lint::lexer::{lex_full, Comment, Tok};
use mmsb_rand::{Rng, RngCore, Xoshiro256PlusPlus};

const MASTER_SEED: u64 = 0x1e47_00c4_b01d_face;

/// Accumulates the generated source together with its predicted lexer
/// output.
struct Gen {
    src: String,
    line: usize,
    toks: Vec<Tok>,
    comments: Vec<Comment>,
    uniq: usize,
}

impl Gen {
    fn new() -> Self {
        Gen {
            src: String::new(),
            line: 1,
            toks: Vec::new(),
            comments: Vec::new(),
            uniq: 0,
        }
    }

    fn ident(&mut self, r: &mut impl RngCore) {
        self.uniq += 1;
        let name = format!("w{}_{}", self.uniq, r.below(100));
        self.src.push_str(&name);
        self.src.push(' ');
        self.toks.push(Tok {
            line: self.line,
            text: name,
        });
    }

    fn punct(&mut self, r: &mut impl RngCore) {
        let c = [';', ',', '{', '}', '(', ')', '=', '+'][r.below_usize(8)];
        self.src.push(c);
        self.toks.push(Tok {
            line: self.line,
            text: c.to_string(),
        });
    }

    fn newline(&mut self) {
        self.src.push('\n');
        self.line += 1;
    }

    fn line_comment(&mut self, r: &mut impl RngCore) {
        self.uniq += 1;
        let text = format!(" junk unsafe {} {}", self.uniq, r.below(100));
        self.src.push_str("//");
        self.src.push_str(&text);
        self.comments.push(Comment {
            line: self.line,
            text,
            is_line: true,
        });
        self.newline();
    }

    fn block_comment(&mut self, r: &mut impl RngCore) {
        let nested = r.below(2) == 1;
        let newlines = r.below_usize(3);
        let mut text = String::from(" outer unsafe ");
        if nested {
            text.push_str("/* inner */ tail ");
        }
        for _ in 0..newlines {
            text.push_str("\nmore ");
        }
        self.src.push_str("/*");
        self.src.push_str(&text);
        self.src.push_str("*/");
        self.comments.push(Comment {
            line: self.line,
            text,
            is_line: false,
        });
        self.line += newlines;
    }

    fn string(&mut self, r: &mut impl RngCore) {
        // Three shapes: plain with escapes, embedded newline, escaped
        // (continuation) newline. The last two both advance the line.
        match r.below(3) {
            0 => self.src.push_str("\"fn x \\\" y \\\\ z\""),
            1 => {
                self.src.push_str("\"fn a\nb\"");
                self.line += 1;
            }
            _ => {
                self.src.push_str("\"fn a \\\n b\"");
                self.line += 1;
            }
        }
        self.src.push(' ');
    }

    fn raw_string(&mut self, r: &mut impl RngCore) {
        let hashes = r.below_usize(3);
        let byte = r.below(2) == 1;
        let newline = r.below(2) == 1;
        self.src.push_str(if byte { "br" } else { "r" });
        for _ in 0..hashes {
            self.src.push('#');
        }
        self.src.push('"');
        self.src.push_str("fn raw \\ no-escapes ");
        if hashes >= 1 {
            // A quote followed by too few hashes must not terminate.
            self.src.push('"');
            for _ in 0..hashes - 1 {
                self.src.push('#');
            }
            self.src.push(' ');
        }
        if newline {
            self.src.push('\n');
            self.line += 1;
        }
        self.src.push('"');
        for _ in 0..hashes {
            self.src.push('#');
        }
        self.src.push(' ');
    }

    fn byte_string(&mut self, r: &mut impl RngCore) {
        if r.below(2) == 1 {
            self.src.push_str("b\"fn x \\\" y\" ");
        } else {
            self.src.push_str("b\"fn a \\\n b\" ");
            self.line += 1;
        }
    }

    fn char_lit(&mut self, r: &mut impl RngCore) {
        let lit = ["'x'", "'\\n'", "'\\''", "'\\\\'"][r.below_usize(4)];
        self.src.push_str(lit);
        self.src.push(' ');
    }

    /// A reference with a lifetime; half the time the lifetime is
    /// immediately followed by `[` (a slice type, `&'alive [`), the shape
    /// `hot-path-panic` must not read as indexing.
    fn lifetime(&mut self, r: &mut impl RngCore) {
        let slice = r.below(2) == 1;
        self.src
            .push_str(if slice { "&'alive [" } else { "&'alive " });
        for text in ["&", "'alive"].into_iter().chain(slice.then_some("[")) {
            self.toks.push(Tok {
                line: self.line,
                text: text.to_string(),
            });
        }
    }
}

fn generate(seed: u64, segments: usize) -> Gen {
    let mut r = Xoshiro256PlusPlus::seed_from_u64(seed);
    let mut g = Gen::new();
    for _ in 0..segments {
        match r.below(10) {
            0 => g.ident(&mut r),
            1 => g.punct(&mut r),
            2 => g.newline(),
            3 => g.line_comment(&mut r),
            4 => g.block_comment(&mut r),
            5 => g.string(&mut r),
            6 => g.raw_string(&mut r),
            7 => g.byte_string(&mut r),
            8 => g.char_lit(&mut r),
            _ => g.lifetime(&mut r),
        }
    }
    g
}

#[test]
fn lexer_matches_generated_oracle() {
    for iter in 0..300u64 {
        let g = generate(MASTER_SEED.wrapping_add(iter), 40);
        let (toks, comments) = lex_full(&g.src);
        assert_eq!(
            toks, g.toks,
            "token stream diverged at seed offset {iter}; source:\n{}",
            g.src
        );
        assert_eq!(
            comments, g.comments,
            "comment list diverged at seed offset {iter}; source:\n{}",
            g.src
        );
    }
}

/// Directed regression: the escaped-newline string continuation used to
/// swallow a line, shifting every later diagnostic (see lexer.rs docs).
#[test]
fn escaped_newline_regression_stays_fixed() {
    let (toks, _) = lex_full("let s = \"a \\\n b\";\nfn f() {}\n");
    let f = toks.iter().find(|t| t.text == "fn").expect("fn token");
    assert_eq!(f.line, 3);
}

/// Directed case: maximum nesting the suite generates, spelled out.
#[test]
fn deeply_nested_block_comment_is_one_comment() {
    let src = "a /* 1 /* 2 /* 3 */ 2 */ 1 */ b\n";
    let (toks, comments) = lex_full(src);
    let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
    assert_eq!(texts, ["a", "b"]);
    assert_eq!(comments.len(), 1);
    assert!(comments[0].text.contains('3'));
}

/// Directed case: every raw-string hash depth 0..=4 terminates exactly
/// at the matching fence, not at an embedded shorter fence.
#[test]
fn raw_string_fences_terminate_exactly() {
    for h in 0..=4usize {
        let fence = "#".repeat(h);
        let inner = if h > 0 {
            // One-short fence inside must not terminate.
            format!("\"{} ", &fence[..h - 1])
        } else {
            String::from("plain ")
        };
        let src = format!("r{fence}\"{inner}\"{fence} end\n");
        let (toks, _) = lex_full(&src);
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["end"], "hash depth {h}: {src:?}");
    }
}
