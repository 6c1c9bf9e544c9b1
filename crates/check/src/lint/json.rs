//! Machine-readable diagnostics: `--json` rendering and the schema check
//! behind `--validate-schema`.
//!
//! The schema is deliberately small and versioned:
//!
//! ```json
//! {
//!   "version": 1,
//!   "count": 2,
//!   "violations": [
//!     {"file": "crates/x/src/a.rs", "line": 3, "rule": "hot-path-panic",
//!      "message": "..."}
//!   ]
//! }
//! ```
//!
//! `count` duplicates `violations.len()` on purpose: a consumer that
//! truncates the stream (broken pipe, partial read) fails the cross
//! check instead of silently under-reporting. The reader is the
//! workspace's one JSON parser, [`mmsb_obs::json`], re-exported here so
//! `scripts/tier1.sh` can pipe `xlint --json | xlint --validate-schema`
//! with zero external tooling (no jq, no serde).

use super::Violation;
pub use mmsb_obs::json::{parse, Json};
use std::fmt::Write as _;

/// Current schema version.
pub const SCHEMA_VERSION: u64 = 1;

/// Render violations to the versioned JSON document.
pub fn render(violations: &[Violation]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"version\":{SCHEMA_VERSION},\"count\":{},\"violations\":[",
        violations.len()
    );
    for (k, v) in violations.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"file\":{},\"line\":{},\"rule\":{},\"message\":{}}}",
            escape(&v.file),
            v.line,
            escape(v.rule),
            escape(&v.message)
        );
    }
    out.push_str("]}");
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Non-negative integral `v`, as an integer.
fn as_u64(v: &Json) -> Option<u64> {
    match v {
        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
        _ => None,
    }
}

/// Validate a `--json` document against the diagnostics schema.
/// Returns the violation count on success.
pub fn validate_schema(src: &str) -> Result<usize, String> {
    let doc = parse(src)?;
    let version = doc
        .member("version")
        .and_then(as_u64)
        .ok_or("missing or non-integer `version`")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema version {version} != expected {SCHEMA_VERSION}"
        ));
    }
    let count = doc
        .member("count")
        .and_then(as_u64)
        .ok_or("missing or non-integer `count`")?;
    let Some(Json::Arr(items)) = doc.member("violations") else {
        return Err("missing `violations` array".to_string());
    };
    if count as usize != items.len() {
        return Err(format!(
            "`count` is {count} but `violations` has {} entries (truncated stream?)",
            items.len()
        ));
    }
    for (k, item) in items.iter().enumerate() {
        for key in ["file", "rule", "message"] {
            if !matches!(item.member(key), Some(Json::Str(_))) {
                return Err(format!("violations[{k}].{key} missing or not a string"));
            }
        }
        if item.member("line").and_then(as_u64).is_none() {
            return Err(format!("violations[{k}].line missing or not an integer"));
        }
    }
    Ok(items.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vio(file: &str, line: usize, rule: &'static str, msg: &str) -> Violation {
        Violation {
            file: file.to_string(),
            line,
            column: 0,
            rule,
            message: msg.to_string(),
        }
    }

    #[test]
    fn render_round_trips_through_validate() {
        let vs = vec![
            vio(
                "crates/a/src/x.rs",
                3,
                "hot-path-panic",
                "`.unwrap()` in hot path",
            ),
            vio(
                "crates/b/src/y.rs",
                7,
                "lock-order",
                "quote \" backslash \\ tab\t",
            ),
        ];
        let doc = render(&vs);
        assert_eq!(validate_schema(&doc), Ok(2));
        let parsed = parse(&doc).unwrap();
        let Some(Json::Arr(items)) = parsed.member("violations") else {
            panic!("violations not an array");
        };
        assert_eq!(
            items[1].member("message"),
            Some(&Json::Str("quote \" backslash \\ tab\t".into()))
        );
    }

    #[test]
    fn empty_report_is_valid() {
        assert_eq!(validate_schema(&render(&[])), Ok(0));
    }

    #[test]
    fn count_mismatch_is_rejected() {
        let doc = "{\"version\":1,\"count\":2,\"violations\":[]}";
        assert!(validate_schema(doc).unwrap_err().contains("truncated"));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let doc = "{\"version\":9,\"count\":0,\"violations\":[]}";
        assert!(validate_schema(doc).unwrap_err().contains("version"));
    }

    #[test]
    fn missing_field_is_rejected() {
        let doc = "{\"version\":1,\"count\":1,\"violations\":[{\"file\":\"a\",\"line\":1,\"rule\":\"r\"}]}";
        assert!(validate_schema(doc).unwrap_err().contains("message"));
    }

    #[test]
    fn parser_rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
    }
}
