//! The workspace's one JSON reader: chrome traces ([`crate::export`]),
//! `xlint --validate-schema` and the repository benchmark all parse with
//! [`parse`]. It decodes characters, not bytes, so non-ASCII text
//! round-trips unchanged.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order preserved; duplicate keys keep the last value.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object (the last one, if repeated); `None` for
    /// a missing key or a value that is not an object.
    pub fn member(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Parse a JSON document. Errors carry a character offset for
/// debugging.
pub fn parse(src: &str) -> Result<Json, String> {
    let b: Vec<char> = src.chars().collect();
    let mut i = 0;
    let v = parse_value(&b, &mut i)?;
    skip_ws(&b, &mut i);
    if i != b.len() {
        return Err(format!("trailing data at offset {i}"));
    }
    Ok(v)
}

fn skip_ws(b: &[char], i: &mut usize) {
    while *i < b.len() && b[*i].is_ascii_whitespace() {
        *i += 1;
    }
}

fn expect(b: &[char], i: &mut usize, c: char) -> Result<(), String> {
    skip_ws(b, i);
    if *i < b.len() && b[*i] == c {
        *i += 1;
        Ok(())
    } else {
        Err(format!("expected `{c}` at offset {i}", i = *i))
    }
}

fn parse_value(b: &[char], i: &mut usize) -> Result<Json, String> {
    skip_ws(b, i);
    match b.get(*i) {
        Some('{') => {
            *i += 1;
            let mut pairs = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&'}') {
                *i += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, i);
                let key = match parse_value(b, i)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key must be a string at offset {i}", i = *i)),
                };
                expect(b, i, ':')?;
                let val = parse_value(b, i)?;
                pairs.push((key, val));
                skip_ws(b, i);
                match b.get(*i) {
                    Some(',') => *i += 1,
                    Some('}') => {
                        *i += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {i}", i = *i)),
                }
            }
        }
        Some('[') => {
            *i += 1;
            let mut items = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&']') {
                *i += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, i)?);
                skip_ws(b, i);
                match b.get(*i) {
                    Some(',') => *i += 1,
                    Some(']') => {
                        *i += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {i}", i = *i)),
                }
            }
        }
        Some('"') => {
            *i += 1;
            let mut s = String::new();
            while *i < b.len() {
                match b[*i] {
                    '"' => {
                        *i += 1;
                        return Ok(Json::Str(s));
                    }
                    '\\' => {
                        *i += 1;
                        match b.get(*i) {
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            Some('/') => s.push('/'),
                            Some('n') => s.push('\n'),
                            Some('r') => s.push('\r'),
                            Some('t') => s.push('\t'),
                            Some('b') => s.push('\u{8}'),
                            Some('f') => s.push('\u{c}'),
                            Some('u') => {
                                let hex: String = b
                                    .get(*i + 1..*i + 5)
                                    .ok_or("truncated \\u escape")?
                                    .iter()
                                    .collect();
                                let code = u32::from_str_radix(&hex, 16)
                                    .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                *i += 4;
                            }
                            _ => return Err(format!("bad escape at offset {i}", i = *i)),
                        }
                        *i += 1;
                    }
                    c => {
                        s.push(c);
                        *i += 1;
                    }
                }
            }
            Err("unterminated string".to_string())
        }
        Some(c) if *c == '-' || c.is_ascii_digit() => {
            let start = *i;
            *i += 1;
            while *i < b.len()
                && (b[*i].is_ascii_digit()
                    || b[*i] == '.'
                    || b[*i] == 'e'
                    || b[*i] == 'E'
                    || b[*i] == '+'
                    || b[*i] == '-')
            {
                *i += 1;
            }
            let text: String = b[start..*i].iter().collect();
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number `{text}`"))
        }
        Some('t')
            if b.get(*i..*i + 4).map(|s| s.iter().collect::<String>()) == Some("true".into()) =>
        {
            *i += 4;
            Ok(Json::Bool(true))
        }
        Some('f')
            if b.get(*i..*i + 5).map(|s| s.iter().collect::<String>()) == Some("false".into()) =>
        {
            *i += 5;
            Ok(Json::Bool(false))
        }
        Some('n')
            if b.get(*i..*i + 4).map(|s| s.iter().collect::<String>()) == Some("null".into()) =>
        {
            *i += 4;
            Ok(Json::Null)
        }
        _ => Err(format!("unexpected character at offset {i}", i = *i)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_decode_characters_and_escapes() {
        let doc =
            parse("{\"a\":\"\u{e9}t\u{e9} \\b\\f\\u00e9\",\"a\":[true,null,-1.5e2]}").unwrap();
        // The last of a repeated key wins.
        assert_eq!(
            doc.member("a"),
            Some(&Json::Arr(vec![
                Json::Bool(true),
                Json::Null,
                Json::Num(-150.0)
            ]))
        );
        let Json::Obj(pairs) = &doc else {
            panic!("not an object")
        };
        assert_eq!(
            pairs[0].1,
            Json::Str("\u{e9}t\u{e9} \u{8}\u{c}\u{e9}".into())
        );
        assert_eq!(Json::Null.member("a"), None);
    }
}
