//! Inline suppressions: `// xlint: allow(<rule>) — <justification>`.
//!
//! Policy:
//!
//! * The justification is **mandatory** — an `allow` with nothing after
//!   the rule name is a `malformed-suppression` violation, so every
//!   waiver carries its reason in the diff forever.
//! * A suppression covers the **item** that starts directly below it
//!   (the whole span of the fn / impl / mod, attributes included), or —
//!   when no item starts there — just the comment's own line and the
//!   line below. One comment above a kernel fn therefore waives every
//!   flagged line inside it; a mid-body comment waives one statement.
//! * A suppression that suppresses nothing is itself an
//!   `unused-suppression` violation: stale waivers rot into false
//!   confidence, so they fail the build.
//! * Only rules marked suppressible in the registry may be waived.
//!   The confinement rules are deliberately not — relaxing those means
//!   editing the policy tables in `rules.rs`, in a reviewed diff.
//!
//! Suppressions are read from *lexed comments*, never raw source, so
//! the marker text inside a string literal (say, in this very crate's
//! rule catalogue) is inert.

use super::lexer::Comment;
use super::parse::ParsedFile;
use super::Violation;

/// The comment marker that introduces a suppression.
const MARKER: &str = "xlint:";

/// One parsed suppression comment.
#[derive(Debug)]
pub struct Suppression {
    /// Line of the comment.
    pub line: usize,
    /// Rule id being waived.
    pub rule: String,
    /// The mandatory justification text.
    pub justification: String,
    /// Line range `[lo, hi]` (inclusive) this suppression covers.
    pub lo: usize,
    pub hi: usize,
}

/// Outcome of scanning a file's comments for suppressions.
#[derive(Debug, Default)]
pub struct SuppressionSet {
    /// Well-formed suppressions, coverage resolved against the items.
    pub entries: Vec<Suppression>,
    /// Malformed markers, reported as violations directly.
    pub malformed: Vec<(usize, String)>,
}

/// Scan lexed comments for suppression markers and resolve each one's
/// line coverage against the parsed item tree.
pub fn scan(comments: &[Comment], parsed: &ParsedFile, known_rules: &[&str]) -> SuppressionSet {
    let mut set = SuppressionSet::default();
    for c in comments {
        let Some(rest) = marker_payload(&c.text) else {
            continue;
        };
        match parse_payload(rest) {
            Ok((rule, justification)) => {
                if !known_rules.contains(&rule.as_str()) {
                    set.malformed.push((
                        c.line,
                        format!(
                            "suppression names unknown rule `{rule}`; run `xlint --explain` \
                             for the catalogue"
                        ),
                    ));
                    continue;
                }
                let (lo, hi) = coverage(parsed, c.line);
                set.entries.push(Suppression {
                    line: c.line,
                    rule,
                    justification,
                    lo,
                    hi,
                });
            }
            Err(why) => set.malformed.push((c.line, why)),
        }
    }
    set
}

/// If this comment is an xlint marker, return the text after `xlint:`.
fn marker_payload(text: &str) -> Option<&str> {
    let t = text.trim_start();
    t.strip_prefix(MARKER).map(str::trim_start)
}

/// Parse `allow(<rule>) — <justification>` (also accepts `-`/`--`/`:`
/// as the separator). Errors are the malformed-suppression messages.
fn parse_payload(rest: &str) -> Result<(String, String), String> {
    let Some(after_allow) = rest.strip_prefix("allow") else {
        return Err(format!(
            "xlint marker is not `allow(<rule>) — <justification>` (got `{MARKER} {rest}`)"
        ));
    };
    let after_allow = after_allow.trim_start();
    let Some(inner_start) = after_allow.strip_prefix('(') else {
        return Err("`allow` must name a rule in parentheses: `allow(<rule>)`".to_string());
    };
    let Some(close) = inner_start.find(')') else {
        return Err("unterminated `allow(` — missing `)`".to_string());
    };
    let rule = inner_start[..close].trim().to_string();
    if rule.is_empty() {
        return Err("`allow()` names no rule".to_string());
    }
    let tail = inner_start[close + 1..]
        .trim_start()
        .trim_start_matches(['—', '-', ':'])
        .trim();
    if tail.is_empty() {
        return Err(format!(
            "suppression of `{rule}` has no justification; write \
             `allow({rule}) — <why this is sound>`"
        ));
    }
    Ok((rule, tail.to_string()))
}

/// Line coverage for a suppression comment on `line`: the item starting
/// directly below it (or on the same line, for trailing comments), else
/// the comment's line and the next.
fn coverage(parsed: &ParsedFile, line: usize) -> (usize, usize) {
    for start in [line + 1, line] {
        if let Some(item) = parsed.item_starting_at(start) {
            return (line, item.end_line.max(line));
        }
    }
    (line, line + 1)
}

/// Apply suppressions to `violations`: drop covered findings, then
/// report malformed and unused markers as violations of their own.
/// `suppressible` decides per rule id whether a waiver is honored.
pub fn apply(
    rel: &str,
    mut violations: Vec<Violation>,
    set: &SuppressionSet,
    suppressible: impl Fn(&str) -> bool,
) -> Vec<Violation> {
    let mut used = vec![false; set.entries.len()];
    violations.retain(|v| {
        for (k, s) in set.entries.iter().enumerate() {
            if s.rule == v.rule && (s.lo..=s.hi).contains(&v.line) && suppressible(v.rule) {
                used[k] = true;
                return false;
            }
        }
        true
    });
    for (line, why) in &set.malformed {
        violations.push(Violation {
            file: rel.to_string(),
            line: *line,
            column: 0,
            rule: "malformed-suppression",
            message: why.clone(),
        });
    }
    for (k, s) in set.entries.iter().enumerate() {
        if used[k] {
            continue;
        }
        let why = if suppressible(&s.rule) {
            format!(
                "suppression of `{}` matched no violation (lines {}..={}); \
                 the code below it is clean — delete the stale waiver",
                s.rule, s.lo, s.hi
            )
        } else {
            format!(
                "rule `{}` is not suppressible inline; its policy lives in the \
                 tables in crates/check/src/lint/rules.rs",
                s.rule
            )
        };
        violations.push(Violation {
            file: rel.to_string(),
            line: s.line,
            column: 0,
            rule: "unused-suppression",
            message: why,
        });
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::lexer::lex_full;
    use crate::lint::parse::parse;

    const RULES: &[&str] = &["hot-path-panic", "hot-path-alloc"];

    fn scan_src(src: &str) -> (SuppressionSet, ParsedFile) {
        let (toks, comments) = lex_full(src);
        let parsed = parse(&toks);
        (scan(&comments, &parsed, RULES), parsed)
    }

    fn vio(line: usize, rule: &'static str) -> Violation {
        Violation {
            file: "f.rs".into(),
            line,
            column: 0,
            rule,
            message: String::new(),
        }
    }

    #[test]
    fn item_level_coverage_spans_the_whole_fn() {
        let src = "\
// xlint: allow(hot-path-panic) — indices bounded by the loop.
fn kernel(x: &[f64]) -> f64 {
    x[0] + x[1]
}
";
        let (set, _) = scan_src(src);
        assert_eq!(set.entries.len(), 1);
        assert_eq!((set.entries[0].lo, set.entries[0].hi), (1, 4));
        let out = apply("f.rs", vec![vio(3, "hot-path-panic")], &set, |_| true);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn statement_level_coverage_is_one_line() {
        let src = "\
fn f(x: &[f64]) -> f64 {
    // xlint: allow(hot-path-panic) — checked above.
    x[0]
}
";
        let (set, _) = scan_src(src);
        assert_eq!((set.entries[0].lo, set.entries[0].hi), (2, 3));
        let kept = apply("f.rs", vec![vio(4, "hot-path-panic")], &set, |_| true);
        // Line 4 is outside the one-statement window: violation stays,
        // and the suppression is now unused.
        assert!(kept.iter().any(|v| v.rule == "hot-path-panic"));
        assert!(kept.iter().any(|v| v.rule == "unused-suppression"));
    }

    #[test]
    fn missing_justification_is_malformed() {
        let src = "// xlint: allow(hot-path-panic)\nfn f() {}\n";
        let (set, _) = scan_src(src);
        assert!(set.entries.is_empty());
        assert_eq!(set.malformed.len(), 1);
        let out = apply("f.rs", Vec::new(), &set, |_| true);
        assert!(out.iter().any(|v| v.rule == "malformed-suppression"));
    }

    #[test]
    fn unknown_rule_is_malformed() {
        let src = "// xlint: allow(no-such-rule) — because.\nfn f() {}\n";
        let (set, _) = scan_src(src);
        assert_eq!(set.malformed.len(), 1);
        assert!(set.malformed[0].1.contains("unknown rule"));
    }

    #[test]
    fn marker_in_string_literal_is_inert() {
        let src = "fn f() -> &'static str { \"// xlint: allow(hot-path-panic)\" }\n";
        let (set, _) = scan_src(src);
        assert!(set.entries.is_empty() && set.malformed.is_empty());
    }

    #[test]
    fn non_suppressible_rules_reject_the_waiver() {
        let src =
            "// xlint: allow(hot-path-panic) — trying anyway.\nfn f(x: &[f64]) -> f64 { x[0] }\n";
        let (set, _) = scan_src(src);
        let out = apply("f.rs", vec![vio(2, "hot-path-panic")], &set, |_| false);
        assert!(out.iter().any(|v| v.rule == "hot-path-panic"));
        let unused: Vec<_> = out
            .iter()
            .filter(|v| v.rule == "unused-suppression")
            .collect();
        assert_eq!(unused.len(), 1);
        assert!(unused[0].message.contains("not suppressible"));
    }

    #[test]
    fn ascii_separators_accepted() {
        for sep in ["—", "-", "--", ":"] {
            let src =
                format!("// xlint: allow(hot-path-alloc) {sep} setup-time only.\nfn f() {{}}\n");
            let (set, _) = scan_src(&src);
            assert_eq!(set.entries.len(), 1, "sep {sep:?}");
            assert_eq!(set.entries[0].justification, "setup-time only.");
        }
    }
}
