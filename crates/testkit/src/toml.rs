//! A minimal TOML-subset parser for scenario specs, golden stores and
//! the chaos corpus.
//!
//! The build environment is air-gapped (every dependency is vendored
//! in-tree), so rather than vendoring a full `toml` crate the testkit
//! reads exactly the subset its files use:
//!
//! * comments (`#`), bare and quoted keys, `key = value` pairs,
//! * one-level `[table]` and `[[array-of-tables]]` headers, each a bare
//!   key,
//! * values: basic strings with `\"` and `\\` escapes, integers
//!   (optionally negative), floats (including exponents, as Rust's `{:?}`
//!   prints them), booleans, and (possibly nested) arrays on one line.
//!
//! Anything else (dotted or quoted headers, multi-line arrays, hex or
//! `_`-separated integers, other escapes, inline tables, dates,
//! multi-line strings) is rejected with a line-numbered error rather
//! than silently misparsed. Tables are `BTreeMap`s, so iteration order
//! is deterministic by construction.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
    Array(Vec<Value>),
    Table(Table),
}

/// A TOML table with deterministic (sorted) iteration order.
pub type Table = BTreeMap<String, Value>;

/// A parse failure, with the 1-based line it happened on.
#[derive(Clone, Debug)]
pub struct ParseError {
    pub line: usize,
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        msg: msg.into(),
    })
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric coercion: integers read as floats too.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_table(&self) -> Option<&Table> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }
}

/// 1-based source line of every key and table header, keyed by dotted
/// path (array-of-tables elements get their 0-based index as a path
/// segment: `envelope.0.metric`). Lets schema validators report
/// *where* an unknown key sits, not just that one exists.
pub type KeyLines = BTreeMap<String, usize>;

/// Parse a TOML document into its root table.
pub fn parse(src: &str) -> Result<Table, ParseError> {
    parse_with_lines(src).map(|(t, _)| t)
}

/// [`parse`], also returning the source line of every key and header
/// (see [`KeyLines`]).
pub fn parse_with_lines(src: &str) -> Result<(Table, KeyLines), ParseError> {
    let mut root = Table::new();
    let mut key_lines = KeyLines::new();
    // The header new `key = value` pairs land under (`None`: the root)
    // and its dotted display path (array element index included).
    let mut section: Option<String> = None;
    let mut display = String::new();
    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("[[") {
            let name = header(rest.strip_suffix("]]"), "[[array-of-tables]]", lineno)?;
            let entry = root
                .entry(name.clone())
                .or_insert_with(|| Value::Array(Vec::new()));
            let Value::Array(items) = entry else {
                return err(lineno, format!("key `{name}` is not an array of tables"));
            };
            items.push(Value::Table(Table::new()));
            display = format!("{name}.{}", items.len() - 1);
            key_lines.entry(name.clone()).or_insert(lineno);
            section = Some(name);
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = header(rest.strip_suffix(']'), "[table]", lineno)?;
            let entry = root
                .entry(name.clone())
                .or_insert_with(|| Value::Table(Table::new()));
            if !matches!(entry, Value::Table(_)) {
                return err(lineno, format!("key `{name}` is not a table"));
            }
            display.clone_from(&name);
            key_lines.entry(name.clone()).or_insert(lineno);
            section = Some(name);
            continue;
        }
        let Some(eq) = find_unquoted(line, '=') else {
            return err(lineno, format!("expected `key = value`, got `{line}`"));
        };
        let key = parse_key(line[..eq].trim(), lineno)?;
        let value = parse_value(line[eq + 1..].trim(), lineno)?;
        let dotted = if display.is_empty() {
            key.clone()
        } else {
            format!("{display}.{key}")
        };
        key_lines.insert(dotted, lineno);
        let table = match &section {
            None => &mut root,
            Some(name) => match root.get_mut(name) {
                Some(Value::Table(t)) => t,
                Some(Value::Array(items)) => match items.last_mut() {
                    Some(Value::Table(t)) => t,
                    _ => return err(lineno, format!("`{name}` is not an array of tables")),
                },
                _ => return err(lineno, format!("key `{name}` is not a table")),
            },
        };
        if table.insert(key.clone(), value).is_some() {
            return err(lineno, format!("duplicate key `{key}`"));
        }
    }
    Ok((root, key_lines))
}

/// The one bare key inside a `[table]` or `[[array-of-tables]]` header;
/// `inner` is `None` when the closing bracket is missing.
fn header(inner: Option<&str>, what: &str, lineno: usize) -> Result<String, ParseError> {
    let Some(inner) = inner else {
        return err(lineno, format!("unterminated {what} header"));
    };
    let name = inner.trim();
    if !is_bare_key(name) {
        return err(
            lineno,
            format!("{what} header `{name}` must be one bare key (no dots, no quotes)"),
        );
    }
    Ok(name.to_string())
}

fn is_bare_key(text: &str) -> bool {
    !text.is_empty()
        && text
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Strip a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    match find_unquoted(line, '#') {
        Some(idx) => &line[..idx],
        None => line,
    }
}

/// Every character of `text` outside a basic string, quotes excluded,
/// with its byte index.
fn unquoted(text: &str) -> impl Iterator<Item = (usize, char)> + '_ {
    let (mut in_str, mut escaped) = (false, false);
    text.char_indices().filter(move |&(_, c)| {
        if !in_str {
            in_str = c == '"';
            return !in_str;
        }
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            in_str = false;
        }
        false
    })
}

/// Byte index of the first `target` outside any basic string.
fn find_unquoted(line: &str, target: char) -> Option<usize> {
    unquoted(line)
        .find(|&(_, c)| c == target)
        .map(|(idx, _)| idx)
}

/// One key: bare (`a-b_c2`) or quoted (`"any text"`).
fn parse_key(text: &str, lineno: usize) -> Result<String, ParseError> {
    if let Some(rest) = text.strip_prefix('"') {
        let Some(inner) = rest.strip_suffix('"') else {
            return err(lineno, "unterminated quoted key");
        };
        return unescape(inner, lineno);
    }
    if !is_bare_key(text) {
        return err(lineno, format!("invalid bare key `{text}`"));
    }
    Ok(text.to_string())
}

/// The body of a basic string: `\"` and `\\` are its only escapes, and
/// an unescaped `"` cannot occur inside it.
fn unescape(text: &str, lineno: usize) -> Result<String, ParseError> {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return err(lineno, "malformed string: unescaped `\"`"),
            '\\' => match chars.next() {
                Some(e @ ('"' | '\\')) => out.push(e),
                other => return err(lineno, format!("unsupported escape `\\{other:?}`")),
            },
            c => out.push(c),
        }
    }
    Ok(out)
}

fn parse_value(text: &str, lineno: usize) -> Result<Value, ParseError> {
    let text = text.trim();
    if text.is_empty() {
        return err(lineno, "missing value");
    }
    if let Some(rest) = text.strip_prefix('"') {
        let Some(inner) = rest.strip_suffix('"') else {
            return err(lineno, "unterminated string");
        };
        return Ok(Value::Str(unescape(inner, lineno)?));
    }
    if text == "true" {
        return Ok(Value::Bool(true));
    }
    if text == "false" {
        return Ok(Value::Bool(false));
    }
    if text.starts_with('[') {
        return parse_array(text, lineno);
    }
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Value::Int(i));
        }
    }
    if let Ok(f) = text.parse::<f64>() {
        return Ok(Value::Float(f));
    }
    err(lineno, format!("unrecognized value `{text}`"))
}

/// Parse an array literal, including nested arrays, in one string.
fn parse_array(text: &str, lineno: usize) -> Result<Value, ParseError> {
    let Some(inner) = text.strip_prefix('[').and_then(|t| t.strip_suffix(']')) else {
        return err(
            lineno,
            "malformed array (an array opens and closes on one line)",
        );
    };
    let mut items = Vec::new();
    for part in split_top_level(inner) {
        let part = part.trim();
        if part.is_empty() {
            continue; // trailing comma
        }
        items.push(parse_value(part, lineno)?);
    }
    Ok(Value::Array(items))
}

/// Split on commas at bracket depth zero, outside strings.
fn split_top_level(text: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0;
    let mut start = 0;
    for (idx, c) in unquoted(text) {
        match c {
            '[' => depth += 1,
            ']' => depth -= 1,
            ',' if depth == 0 => {
                parts.push(&text[start..idx]);
                start = idx + 1;
            }
            _ => {}
        }
    }
    parts.push(&text[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_comments() {
        let t = parse(
            "# header comment\n\
             name = \"sym # not a comment\"  # trailing\n\
             load = 0.4\n\
             flows = 1000\n\
             pin = true\n",
        )
        .expect("parses");
        assert_eq!(t["name"].as_str(), Some("sym # not a comment"));
        assert_eq!(t["load"].as_float(), Some(0.4));
        assert_eq!(t["flows"].as_int(), Some(1000));
        assert_eq!(t["pin"].as_bool(), Some(true));
    }

    #[test]
    fn tables() {
        let t = parse("[a]\nx = 1\n[b]\ny = 2\n").expect("parses");
        assert_eq!(t["a"].as_table().expect("table")["x"].as_int(), Some(1));
        assert_eq!(t["b"].as_table().expect("table")["y"].as_int(), Some(2));
    }

    #[test]
    fn arrays_nested_on_one_line() {
        let t = parse("seeds = [1, 2, 3]\ncuts = [[0, 3], [1, 2],]  # comment\n").expect("parses");
        let seeds: Vec<i64> = t["seeds"]
            .as_array()
            .expect("array")
            .iter()
            .map(|v| v.as_int().expect("int"))
            .collect();
        assert_eq!(seeds, vec![1, 2, 3]);
        let cuts = t["cuts"].as_array().expect("array");
        assert_eq!(cuts.len(), 2);
        assert_eq!(cuts[1].as_array().expect("inner")[0].as_int(), Some(1));
    }

    #[test]
    fn array_of_tables() {
        let t =
            parse("[[lb]]\nname = \"hermes\"\n[[lb]]\nname = \"ecmp\"\nx = 2\n").expect("parses");
        let lbs = t["lb"].as_array().expect("aot");
        assert_eq!(lbs.len(), 2);
        assert_eq!(
            lbs[0].as_table().expect("t")["name"].as_str(),
            Some("hermes")
        );
        assert_eq!(lbs[1].as_table().expect("t")["x"].as_int(), Some(2));
    }

    #[test]
    fn quoted_keys_hold_slashes() {
        let t = parse("[digests]\n\"sym/hermes/1\" = \"0xabc\"\n").expect("parses");
        let d = t["digests"].as_table().expect("table");
        assert_eq!(d["sym/hermes/1"].as_str(), Some("0xabc"));
    }

    #[test]
    fn quote_and_backslash_escapes() {
        let t = parse(r#"d = "the \"gray\" case, a back\\slash""#).expect("parses");
        assert_eq!(t["d"].as_str(), Some(r#"the "gray" case, a back\slash"#));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("ok = 1\nbad line\n").expect_err("must fail");
        assert_eq!(e.line, 2);
        let e = parse("x = 1\nx = 2\n").expect_err("duplicate");
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("duplicate"));
    }

    #[test]
    fn rejects_unsupported_forms() {
        assert!(
            parse("t = { a = 1 }\n").is_err(),
            "inline tables unsupported"
        );
        assert!(parse("d = 2024-01-01\n").is_err(), "dates unsupported");
        assert!(parse("[unclosed\n").is_err());
        assert!(parse("s = \"a\" x \"b\"\n").is_err(), "interior quote");
    }

    /// Each form the reader once accepted and no committed file uses:
    /// rejected, at its line.
    #[test]
    fn retired_forms_are_rejected_at_their_line() {
        let rows = [
            ("[a]\nx = 1\n[a.b]\ny = 2\n", 3, "dotted header"),
            ("ok = 1\n[\"a b\"]\n", 2, "quoted header"),
            ("[[env]]\nx = 1\n[[env.sub]]\n", 3, "dotted array header"),
            ("ok = 1\ncuts = [\n  [0, 3],\n]\n", 2, "multi-line array"),
            ("ok = 1\n\nmask = 0xFF\n", 3, "hex integer"),
            ("flows = 1_000\n", 1, "`_` separator"),
            ("a = 1\ns = \"line\\nbreak\"\n", 2, "`\\n` escape"),
            ("s = \"tab\\there\"\n", 1, "`\\t` escape"),
            ("x = 1\ny = 2\ns = \"cr\\r\"\n", 3, "`\\r` escape"),
        ];
        for (src, line, form) in rows {
            let e = parse(src).expect_err(form);
            assert_eq!(e.line, line, "{form}: {e}");
        }
    }

    #[test]
    fn key_lines_map_paths_to_source_lines() {
        let (_, lines) = parse_with_lines(
            "name = \"x\"\n\
             \n\
             [topology]\n\
             kind = \"testbed\"\n\
             \n\
             [[envelope]]\n\
             metric = \"avg\"\n\
             [[envelope]]\n\
             metric = \"p99\"\n",
        )
        .expect("parses");
        assert_eq!(lines["name"], 1);
        assert_eq!(lines["topology"], 3);
        assert_eq!(lines["topology.kind"], 4);
        assert_eq!(lines["envelope"], 6, "first AoT header line is kept");
        assert_eq!(lines["envelope.0.metric"], 7);
        assert_eq!(lines["envelope.1.metric"], 9);
    }

    #[test]
    fn negative_and_exponent_floats() {
        let t = parse("a = -3\nb = 2.5e9\nc = -0.7\nd = 1e-5\n").expect("parses");
        assert_eq!(t["a"].as_int(), Some(-3));
        assert_eq!(t["b"].as_float(), Some(2.5e9));
        assert_eq!(t["c"].as_float(), Some(-0.7));
        assert_eq!(t["d"].as_float(), Some(1e-5));
    }
}
