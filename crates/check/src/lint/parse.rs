//! The item layer: a lightweight recovery parser over the lexer.
//!
//! Recovers the structure rules need — items with their kinds, names,
//! attributes, line spans, and body token ranges; flattened `use`
//! trees; `#[cfg(test)]` regions — without building a full AST. The
//! parser is *tolerant*: any token sequence it does not recognize is
//! skipped one token at a time, so a file that rustc would reject still
//! yields whatever items are recoverable (the rules then see a best
//! effort rather than nothing).
//!
//! Deliberate simplifications, documented so rule authors know the
//! contract:
//!
//! * Function bodies are opaque token ranges — items *inside* a body
//!   (nested fns, local `use`) are not recovered. No current rule needs
//!   them.
//! * Macro invocation bodies (`thread_local! { … }`) are likewise
//!   opaque.
//! * `#[cfg(test)]` detection accepts any `cfg` attribute that mentions
//!   `test` (so `cfg(all(test, unix))` counts), which errs on the side
//!   of exempting code from the hot-path rules.

use super::lexer::Tok;

/// What kind of item was recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` with or without a body.
    Fn,
    /// `mod name { … }` or `mod name;`.
    Mod,
    /// `struct` / `union`.
    Struct,
    /// `enum`.
    Enum,
    /// `trait` (children = provided methods).
    Trait,
    /// `impl` block (children = associated items).
    Impl,
    /// `use …;` (see [`Item::use_paths`]).
    Use,
    /// `const NAME: …` (not `const fn`).
    Const,
    /// `static NAME: …`.
    Static,
    /// `type Alias = …;`.
    TypeAlias,
    /// `macro_rules! name { … }`.
    MacroDef,
    /// `extern { … }` block or `extern crate`.
    Extern,
    /// Item-position macro invocation like `thread_local! { … }`.
    MacroCall,
}

/// One outer attribute, e.g. `#[cfg(test)]` → tokens `["cfg", "(",
/// "test", ")"]`.
#[derive(Debug, Clone)]
pub struct Attr {
    /// 1-based line of the `#`.
    pub line: usize,
    /// The tokens between the brackets.
    pub toks: Vec<String>,
}

impl Attr {
    /// Is this a `cfg` attribute mentioning `test`?
    pub fn is_cfg_test(&self) -> bool {
        self.toks.first().map(String::as_str) == Some("cfg")
            && self.toks.iter().any(|t| t == "test")
    }
}

/// One recovered item.
#[derive(Debug)]
pub struct Item {
    /// The item's kind.
    pub kind: ItemKind,
    /// Item name (`""` for `impl` blocks and `extern` blocks).
    pub name: String,
    /// Line of the introducing keyword.
    pub line: usize,
    /// Line of the first attribute (== `line` when there are none).
    pub first_line: usize,
    /// Last line the item spans (closing brace / semicolon).
    pub end_line: usize,
    /// Token index range `[start, end)` covering the whole item.
    pub start_tok: usize,
    /// Exclusive end of the item's token range.
    pub end_tok: usize,
    /// For fns: token range `[start, end)` strictly inside the body
    /// braces. `None` for bodyless declarations.
    pub body: Option<(usize, usize)>,
    /// True when the item (or an ancestor) carries `#[cfg(test)]`.
    pub cfg_test: bool,
    /// Nested items (mods, impls, traits, extern blocks).
    pub children: Vec<Item>,
    /// For `use` items: the flattened path list, `::`-joined.
    pub use_paths: Vec<String>,
}

/// A parsed file: the item tree plus a per-token test-code mask.
#[derive(Debug)]
pub struct ParsedFile {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// `test_mask[i]` is true when token `i` sits inside a
    /// `#[cfg(test)]` item.
    pub test_mask: Vec<bool>,
}

impl ParsedFile {
    /// Every item, depth-first, parents before children.
    pub fn all_items(&self) -> Vec<&Item> {
        let mut out = Vec::new();
        fn walk<'a>(items: &'a [Item], out: &mut Vec<&'a Item>) {
            for it in items {
                out.push(it);
                walk(&it.children, out);
            }
        }
        walk(&self.items, &mut out);
        out
    }

    /// All function items with a body (depth-first).
    pub fn fns(&self) -> Vec<&Item> {
        self.all_items()
            .into_iter()
            .filter(|it| it.kind == ItemKind::Fn && it.body.is_some())
            .collect()
    }

    /// The item that *starts* at `line` (its keyword or its first
    /// attribute), preferring the outermost such item.
    pub fn item_starting_at(&self, line: usize) -> Option<&Item> {
        self.all_items()
            .into_iter()
            .find(|it| it.line == line || it.first_line == line)
    }
}

/// Parse a token stream into items and the test-code mask.
pub fn parse(toks: &[Tok]) -> ParsedFile {
    let mut pos = 0;
    let items = parse_items(toks, &mut pos, toks.len(), false);
    let mut test_mask = vec![false; toks.len()];
    fn mark(items: &[Item], mask: &mut [bool]) {
        for it in items {
            if it.cfg_test {
                for m in mask[it.start_tok..it.end_tok].iter_mut() {
                    *m = true;
                }
            }
            mark(&it.children, mask);
        }
    }
    mark(&items, &mut test_mask);
    ParsedFile { items, test_mask }
}

/// Index of the token matching the `{` at `open` (counting only brace
/// tokens — string/comment braces were stripped by the lexer). Returns
/// `end - 1` when unbalanced (recovery: swallow to the region end).
fn match_brace(toks: &[Tok], open: usize, end: usize) -> usize {
    debug_assert_eq!(toks[open].text, "{");
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().take(end).skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    end.saturating_sub(1)
}

fn parse_items(toks: &[Tok], pos: &mut usize, end: usize, parent_test: bool) -> Vec<Item> {
    let mut items = Vec::new();
    while *pos < end {
        // On None, recovery already advanced past what it saw.
        if let Some(item) = parse_item(toks, pos, end, parent_test) {
            items.push(item);
        }
    }
    items
}

/// Modifier keywords that may precede an item keyword.
const MODIFIERS: &[&str] = &["pub", "default", "async", "unsafe", "extern"];

#[allow(clippy::too_many_lines)] // one linear dispatch over item keywords
fn parse_item(toks: &[Tok], pos: &mut usize, end: usize, parent_test: bool) -> Option<Item> {
    let t = |k: usize| -> &str {
        if k < end {
            toks[k].text.as_str()
        } else {
            ""
        }
    };
    let start = *pos;

    // Inner attribute `#![…]`: file/module metadata, not an item.
    if t(*pos) == "#" && t(*pos + 1) == "!" && t(*pos + 2) == "[" {
        *pos = skip_bracketed(toks, *pos + 2, end);
        return None;
    }

    // Outer attributes.
    let mut attrs = Vec::new();
    while t(*pos) == "#" && t(*pos + 1) == "[" {
        let attr_line = toks[*pos].line;
        let close = skip_bracketed(toks, *pos + 1, end);
        attrs.push(Attr {
            line: attr_line,
            toks: toks[*pos + 2..close.saturating_sub(1).max(*pos + 2)]
                .iter()
                .map(|t| t.text.clone())
                .collect(),
        });
        *pos = close;
    }
    let first_line = attrs
        .first()
        .map(|a| a.line)
        .unwrap_or_else(|| toks.get(*pos).map(|t| t.line).unwrap_or(1));

    // Modifiers. `extern` may be a modifier (`extern fn`) or a block /
    // `extern crate` — decide when we see what follows. `const` may be
    // `const fn` or a const item.
    let mut p = *pos;
    loop {
        let cur = t(p);
        if cur == "pub" {
            p += 1;
            if t(p) == "(" {
                p = skip_group(toks, p, end, "(", ")");
            }
        } else if MODIFIERS.contains(&cur) && cur != "pub" && cur != "extern" {
            p += 1;
        } else if cur == "extern" && (t(p + 1) == "fn" || MODIFIERS.contains(&t(p + 1))) {
            // `extern fn` / `unsafe extern fn` — ABI string was a
            // literal the lexer dropped.
            p += 1;
        } else if cur == "const" && t(p + 1) == "fn" {
            p += 1;
        } else {
            break;
        }
    }

    let cfg_test = parent_test || attrs.iter().any(Attr::is_cfg_test);
    let kw = t(p);
    let line = toks.get(p).map(|t| t.line).unwrap_or(1);
    let mut item = Item {
        kind: ItemKind::Fn,
        name: String::new(),
        line,
        first_line,
        end_line: line,
        start_tok: start,
        end_tok: p,
        body: None,
        cfg_test,
        children: Vec::new(),
        use_paths: Vec::new(),
    };

    match kw {
        "fn" => {
            item.kind = ItemKind::Fn;
            item.name = t(p + 1).to_string();
            p += 2;
            // Scan the signature for the body `{` or a `;` at paren /
            // bracket depth 0.
            let mut depth = 0i32;
            while p < end {
                match t(p) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        let close = match_brace(toks, p, end);
                        item.body = Some((p + 1, close));
                        p = close + 1;
                        break;
                    }
                    ";" if depth == 0 => {
                        p += 1;
                        break;
                    }
                    _ => {}
                }
                p += 1;
            }
        }
        "mod" => {
            item.kind = ItemKind::Mod;
            item.name = t(p + 1).to_string();
            p += 2;
            if t(p) == "{" {
                let close = match_brace(toks, p, end);
                item.body = Some((p + 1, close));
                let mut inner = p + 1;
                item.children = parse_items(toks, &mut inner, close, cfg_test);
                p = close + 1;
            } else if t(p) == ";" {
                p += 1;
            }
        }
        "struct" | "union" | "enum" => {
            item.kind = if kw == "enum" {
                ItemKind::Enum
            } else {
                ItemKind::Struct
            };
            item.name = t(p + 1).to_string();
            p += 2;
            let mut depth = 0i32;
            while p < end {
                match t(p) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        p = match_brace(toks, p, end) + 1;
                        break;
                    }
                    ";" if depth == 0 => {
                        p += 1;
                        break;
                    }
                    _ => {}
                }
                p += 1;
            }
        }
        "trait" | "impl" => {
            item.kind = if kw == "trait" {
                ItemKind::Trait
            } else {
                ItemKind::Impl
            };
            if kw == "trait" {
                item.name = t(p + 1).to_string();
            }
            p += 1;
            // Skip to the body `{` at depth 0 (generics, the type path,
            // and where clauses contain no braces at depth 0).
            let mut depth = 0i32;
            while p < end {
                match t(p) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => break,
                    ";" if depth == 0 => {
                        // `impl Trait for Type;` (rare) / recovery.
                        p += 1;
                        item.end_tok = p;
                        item.end_line = toks[p - 1].line;
                        *pos = p;
                        return Some(item);
                    }
                    _ => {}
                }
                p += 1;
            }
            if p < end {
                let close = match_brace(toks, p, end);
                item.body = Some((p + 1, close));
                let mut inner = p + 1;
                item.children = parse_items(toks, &mut inner, close, cfg_test);
                p = close + 1;
            }
        }
        "use" => {
            item.kind = ItemKind::Use;
            p += 1;
            let mut prefix = Vec::new();
            parse_use_tree(toks, &mut p, end, &mut prefix, &mut item.use_paths);
            if t(p) == ";" {
                p += 1;
            }
        }
        "const" | "static" => {
            item.kind = if kw == "const" {
                ItemKind::Const
            } else {
                ItemKind::Static
            };
            if t(p + 1) == "mut" {
                item.name = t(p + 2).to_string();
            } else {
                item.name = t(p + 1).to_string();
            }
            // Initializers may contain braces; track both delimiters.
            let mut brace = 0i32;
            p += 1;
            while p < end {
                match t(p) {
                    "{" => brace += 1,
                    "}" => brace -= 1,
                    ";" if brace == 0 => {
                        p += 1;
                        break;
                    }
                    _ => {}
                }
                p += 1;
            }
        }
        "type" => {
            item.kind = ItemKind::TypeAlias;
            item.name = t(p + 1).to_string();
            while p < end && t(p) != ";" {
                p += 1;
            }
            p += 1;
        }
        "macro_rules" => {
            item.kind = ItemKind::MacroDef;
            item.name = t(p + 2).to_string(); // after `!`
            p += 3;
            if t(p) == "{" {
                p = match_brace(toks, p, end) + 1;
            }
        }
        "extern" => {
            item.kind = ItemKind::Extern;
            p += 1;
            if t(p) == "crate" {
                item.name = t(p + 1).to_string();
                while p < end && t(p) != ";" {
                    p += 1;
                }
                p += 1;
            } else if t(p) == "{" {
                let close = match_brace(toks, p, end);
                item.body = Some((p + 1, close));
                let mut inner = p + 1;
                item.children = parse_items(toks, &mut inner, close, cfg_test);
                p = close + 1;
            } else {
                p += 1;
            }
        }
        ident
            if !ident.is_empty()
                && ident
                    .chars()
                    .next()
                    .map(|c| c.is_alphabetic() || c == '_')
                    .unwrap_or(false)
                && t(p + 1) == "!" =>
        {
            // Item-position macro invocation: `thread_local! { … }`,
            // `macro_name!(…);`.
            item.kind = ItemKind::MacroCall;
            item.name = ident.to_string();
            p += 2;
            match t(p) {
                "{" => p = match_brace(toks, p, end) + 1,
                "(" => {
                    p = skip_group(toks, p, end, "(", ")");
                    if t(p) == ";" {
                        p += 1;
                    }
                }
                "[" => {
                    p = skip_group(toks, p, end, "[", "]");
                    if t(p) == ";" {
                        p += 1;
                    }
                }
                _ => {}
            }
        }
        _ => {
            // Not an item start: recovery — skip one token.
            *pos = (*pos).max(p) + 1;
            return None;
        }
    }

    item.end_tok = p.min(end);
    item.end_line = if item.end_tok > item.start_tok {
        toks[item.end_tok - 1].line
    } else {
        item.line
    };
    *pos = p.min(end).max(start + 1);
    Some(item)
}

/// Skip a `[...]`-style group whose opener is at `open`; returns the
/// index just past the matching closer.
fn skip_bracketed(toks: &[Tok], open: usize, end: usize) -> usize {
    skip_group(toks, open, end, "[", "]")
}

fn skip_group(toks: &[Tok], open: usize, end: usize, o: &str, c: &str) -> usize {
    let mut depth = 0usize;
    let mut k = open;
    while k < end {
        let t = toks[k].text.as_str();
        if t == o {
            depth += 1;
        } else if t == c {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    end
}

/// Flatten one `use` tree into full `::`-joined paths.
fn parse_use_tree(
    toks: &[Tok],
    pos: &mut usize,
    end: usize,
    prefix: &mut Vec<String>,
    out: &mut Vec<String>,
) {
    let t = |k: usize| -> &str {
        if k < end {
            toks[k].text.as_str()
        } else {
            ""
        }
    };
    let depth_at_entry = prefix.len();
    let mut emitted = false;
    while *pos < end {
        match t(*pos) {
            ";" | "," | "}" => break,
            ":" => {
                *pos += 1; // `::` arrives as two `:` tokens
            }
            "{" => {
                *pos += 1;
                loop {
                    parse_use_tree(toks, pos, end, prefix, out);
                    if t(*pos) == "," {
                        *pos += 1;
                        continue;
                    }
                    break;
                }
                if t(*pos) == "}" {
                    *pos += 1;
                }
                emitted = true; // subtrees emitted for us
                break;
            }
            "*" => {
                prefix.push("*".to_string());
                *pos += 1;
            }
            "as" => {
                // Alias: skip the rename, the path itself is what counts.
                *pos += 2;
            }
            "self" if !prefix.is_empty() => {
                // `{self, …}` names the prefix itself.
                *pos += 1;
            }
            seg => {
                prefix.push(seg.to_string());
                *pos += 1;
            }
        }
    }
    if !emitted && prefix.len() >= depth_at_entry {
        out.push(prefix.join("::"));
    }
    prefix.truncate(depth_at_entry);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    #[test]
    fn recovers_fns_and_bodies() {
        let src = "pub fn a(x: u32) -> u32 { x + 1 }\nfn b();\nconst fn c() { }\n";
        let f = parse_src(src);
        let names: Vec<_> = f.items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert!(f.items[0].body.is_some());
        assert!(f.items[1].body.is_none());
        assert_eq!(f.fns().len(), 2);
    }

    #[test]
    fn cfg_test_mod_masks_tokens() {
        let src = "fn live() { work(); }\n#[cfg(test)]\nmod tests {\n    fn t() { nope(); }\n}\n";
        let f = parse_src(src);
        let toks = lex(src);
        let nope = toks.iter().position(|t| t.text == "nope").unwrap();
        let work = toks.iter().position(|t| t.text == "work").unwrap();
        assert!(f.test_mask[nope]);
        assert!(!f.test_mask[work]);
        let m = &f.items[1];
        assert_eq!(m.kind, ItemKind::Mod);
        assert!(m.cfg_test);
        assert!(m.children[0].cfg_test, "cfg(test) inherits to children");
    }

    #[test]
    fn impl_children_are_recovered() {
        let src = "impl<T: Send> Foo<T> {\n    pub fn go(&self) { }\n    const K: usize = 3;\n}\n";
        let f = parse_src(src);
        assert_eq!(f.items[0].kind, ItemKind::Impl);
        let kids: Vec<_> = f.items[0]
            .children
            .iter()
            .map(|i| i.name.as_str())
            .collect();
        assert_eq!(kids, ["go", "K"]);
    }

    #[test]
    fn use_trees_flatten() {
        let src = "use std::sync::{Mutex, atomic::{AtomicBool, Ordering}, Arc as A};\nuse core::arch::*;\nuse std::fmt;\n";
        let f = parse_src(src);
        let mut paths: Vec<String> = f.items.iter().flat_map(|i| i.use_paths.clone()).collect();
        paths.sort();
        assert_eq!(
            paths,
            [
                "core::arch::*",
                "std::fmt",
                "std::sync::Arc",
                "std::sync::Mutex",
                "std::sync::atomic::AtomicBool",
                "std::sync::atomic::Ordering",
            ]
        );
    }

    #[test]
    fn item_spans_cover_attrs() {
        let src = "#[inline]\n#[cfg(test)]\nfn f() {\n    body();\n}\n";
        let f = parse_src(src);
        let it = &f.items[0];
        assert_eq!(it.first_line, 1);
        assert_eq!(it.line, 3);
        assert_eq!(it.end_line, 5);
        assert!(f.item_starting_at(1).is_some());
        assert!(f.item_starting_at(3).is_some());
    }

    #[test]
    fn macro_calls_and_statics_parse() {
        let src = "thread_local! {\n    static X: Cell<u32> = const { Cell::new(0) };\n}\nstatic mut Y: u32 = 0;\nconst Z: Foo = Foo { a: 1 };\nfn after() {}\n";
        let f = parse_src(src);
        let kinds: Vec<_> = f.items.iter().map(|i| i.kind).collect();
        assert_eq!(
            kinds,
            [
                ItemKind::MacroCall,
                ItemKind::Static,
                ItemKind::Const,
                ItemKind::Fn
            ]
        );
        assert_eq!(f.items[1].name, "Y");
        assert_eq!(f.items[2].name, "Z");
    }

    #[test]
    fn tolerant_of_garbage() {
        let src = ") } ; garbage !! fn ok() { 1 }\n";
        let f = parse_src(src);
        assert!(f.items.iter().any(|i| i.name == "ok"));
    }
}
