//! The little JSON the benchmark reads (`BENCHMARK.json`, a child run's
//! result line, served response bodies, the program's `metrics.json`) and
//! writes. The parser is the repository's own (`mmsb_check::lint::json`);
//! this module adds the accessors that parser keeps to itself, and the two
//! writers.

pub use mmsb_check::lint::json::{parse, Json as Value};

/// Read access to a parsed [`Value`].
pub trait Access {
    /// Member `key` of an object.
    fn get(&self, key: &str) -> Option<&Value>;
    fn as_f64(&self) -> Option<f64>;
    fn as_str(&self) -> Option<&str>;
    fn as_bool(&self) -> Option<bool>;
    fn as_arr(&self) -> Option<&[Value]>;
    fn as_obj(&self) -> Option<&[(String, Value)]>;
}

impl Access for Value {
    fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number with all its digits; JSON has no NaN or infinity, so
/// those become `null` (and fail whoever reads them as a number).
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_documents_read_back() {
        let s = "tab\t \"quoted\" back\\slash";
        let doc = format!(
            "{{\"s\":{},\"x\":{},\"nan\":{},\"list\":[true]}}",
            quote(s),
            number(2.5e-3),
            number(f64::NAN)
        );
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("s").and_then(Access::as_str), Some(s));
        assert_eq!(v.get("x").and_then(Access::as_f64), Some(2.5e-3));
        assert_eq!(v.get("nan"), Some(&Value::Null));
        assert_eq!(
            v.get("list")
                .and_then(Access::as_arr)
                .map(|l| l[0].as_bool()),
            Some(Some(true))
        );
    }
}
