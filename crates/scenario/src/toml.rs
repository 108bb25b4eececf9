//! A hand-rolled parser for the TOML subset scenario files use.
//!
//! The workspace vendors no TOML crate, and scenario files only need a
//! deliberately small slice of the format: comments, bare keys, basic
//! strings, integers, floats, booleans, single-line arrays, `[table]`
//! headers, and `[[array-of-tables]]` headers. Everything else —
//! dotted keys, inline tables, multi-line strings, dates — is rejected
//! with a line-numbered error, which doubles as the hostile-input
//! surface the scenario proptests hammer.
//!
//! The serializer emits a canonical form (sorted keys inside tables,
//! floats via Rust's shortest-round-trip formatting), so
//! parse → serialize → parse is the identity on the [`Value`] tree.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
    Array(Vec<Value>),
    Table(BTreeMap<String, Value>),
}

impl Value {
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric coercion: scenario quantities (seconds, rates, sizes)
    /// accept `10` and `10.0` interchangeably.
    pub(crate) fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    pub(crate) fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    pub(crate) fn as_table(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }
}

/// A parse error with the offending line number (1-based).
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { line, message: message.into() })
}

fn is_bare_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// Parse a document into its root table.
pub fn parse(input: &str) -> Result<BTreeMap<String, Value>, ParseError> {
    let mut root: BTreeMap<String, Value> = BTreeMap::new();
    // The table path currently open via the last `[...]` header; an
    // empty path targets the root.
    let mut path: Vec<String> = Vec::new();
    for (idx, raw) in input.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("[[") {
            let Some(name) = rest.strip_suffix("]]") else {
                return err(line_no, format!("unterminated array-of-tables header `{line}`"));
            };
            let name = name.trim();
            check_header_name(name, line_no)?;
            path = split_header(name);
            push_array_table(&mut root, &path, line_no)?;
        } else if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return err(line_no, format!("unterminated table header `{line}`"));
            };
            let name = name.trim();
            check_header_name(name, line_no)?;
            path = split_header(name);
            open_table(&mut root, &path, line_no)?;
        } else {
            let Some(eq) = line.find('=') else {
                return err(line_no, format!("expected `key = value`, got `{line}`"));
            };
            let key = line[..eq].trim();
            if key.is_empty() || !key.chars().all(is_bare_key_char) {
                return err(line_no, format!("invalid key `{key}` (bare keys only)"));
            }
            let value = parse_value(line[eq + 1..].trim(), line_no)?;
            let table = current_table(&mut root, &path, line_no)?;
            if table.contains_key(key) {
                return err(line_no, format!("duplicate key `{key}`"));
            }
            table.insert(key.to_string(), value);
        }
    }
    Ok(root)
}

/// Strip a `#` comment, respecting string literals.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
        escaped = in_string && c == '\\' && !escaped;
    }
    line
}

fn check_header_name(name: &str, line_no: usize) -> Result<(), ParseError> {
    if name.is_empty() {
        return err(line_no, "empty table header");
    }
    for segment in name.split('.') {
        let segment = segment.trim();
        if segment.is_empty() || !segment.chars().all(is_bare_key_char) {
            return err(line_no, format!("invalid table header segment `{segment}`"));
        }
    }
    Ok(())
}

fn split_header(name: &str) -> Vec<String> {
    name.split('.').map(|s| s.trim().to_string()).collect()
}

/// Walk (creating as needed) to the table at `path`; the final segment
/// of an array-of-tables path resolves to its *last* element.
fn walk<'t>(
    root: &'t mut BTreeMap<String, Value>,
    path: &[String],
    line_no: usize,
) -> Result<&'t mut BTreeMap<String, Value>, ParseError> {
    let mut current = root;
    for segment in path {
        let entry = current.entry(segment.clone()).or_insert_with(|| Value::Table(BTreeMap::new()));
        current = match entry {
            Value::Table(t) => t,
            Value::Array(items) => match items.last_mut() {
                Some(Value::Table(t)) => t,
                _ => return err(line_no, format!("`{segment}` is not a table")),
            },
            _ => return err(line_no, format!("`{segment}` is not a table")),
        };
    }
    Ok(current)
}

fn open_table(
    root: &mut BTreeMap<String, Value>,
    path: &[String],
    line_no: usize,
) -> Result<(), ParseError> {
    let (last, parents) = path.split_last().expect("headers are non-empty");
    let parent = walk(root, parents, line_no)?;
    match parent.get(last) {
        None => {
            parent.insert(last.clone(), Value::Table(BTreeMap::new()));
        }
        Some(Value::Table(_)) => {
            return err(line_no, format!("table `{last}` defined twice"));
        }
        Some(_) => return err(line_no, format!("`{last}` is not a table")),
    }
    Ok(())
}

fn push_array_table(
    root: &mut BTreeMap<String, Value>,
    path: &[String],
    line_no: usize,
) -> Result<(), ParseError> {
    let (last, parents) = path.split_last().expect("headers are non-empty");
    let parent = walk(root, parents, line_no)?;
    match parent.entry(last.clone()).or_insert_with(|| Value::Array(Vec::new())) {
        Value::Array(items) => items.push(Value::Table(BTreeMap::new())),
        _ => return err(line_no, format!("`{last}` is not an array of tables")),
    }
    Ok(())
}

fn current_table<'t>(
    root: &'t mut BTreeMap<String, Value>,
    path: &[String],
    line_no: usize,
) -> Result<&'t mut BTreeMap<String, Value>, ParseError> {
    walk(root, path, line_no)
}

fn parse_value(text: &str, line_no: usize) -> Result<Value, ParseError> {
    if text.is_empty() {
        return err(line_no, "missing value");
    }
    if text.starts_with('"') {
        let (s, rest) = parse_string(text, line_no)?;
        if !rest.trim().is_empty() {
            return err(line_no, format!("trailing garbage after string: `{rest}`"));
        }
        return Ok(Value::Str(s));
    }
    if text.starts_with('[') {
        return parse_array(text, line_no);
    }
    match text {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if let Ok(v) = text.parse::<i64>() {
        return Ok(Value::Int(v));
    }
    if let Ok(v) = text.parse::<f64>() {
        if v.is_finite() {
            return Ok(Value::Float(v));
        }
        return err(line_no, format!("non-finite number `{text}`"));
    }
    err(line_no, format!("unrecognized value `{text}`"))
}

/// Parse a basic string starting at `"`; returns the string and the
/// remaining input after the closing quote.
fn parse_string(text: &str, line_no: usize) -> Result<(String, &str), ParseError> {
    let mut out = String::new();
    let mut chars = text.char_indices().skip(1);
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &text[i + 1..])),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, other)) => return err(line_no, format!("unsupported escape `\\{other}`")),
                None => return err(line_no, "unterminated escape"),
            },
            _ => out.push(c),
        }
    }
    err(line_no, "unterminated string")
}

/// Parse a single-line array `[v, v, ...]` (homogeneity is the typed
/// decoder's business, not the parser's).
fn parse_array(text: &str, line_no: usize) -> Result<Value, ParseError> {
    let Some(inner) = text.strip_prefix('[').and_then(|t| t.strip_suffix(']')) else {
        return err(line_no, format!("unterminated array `{text}`"));
    };
    let mut items = Vec::new();
    // Split on commas outside strings and nested brackets.
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut start = 0usize;
    for (i, c) in inner.char_indices() {
        match c {
            '"' if !escaped => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => {
                depth = depth.checked_sub(1).ok_or_else(|| ParseError {
                    line: line_no,
                    message: "unbalanced brackets in array".to_string(),
                })?
            }
            ',' if !in_string && depth == 0 => {
                let piece = inner[start..i].trim();
                if piece.is_empty() {
                    return err(line_no, "empty array element");
                }
                items.push(parse_value(piece, line_no)?);
                start = i + 1;
            }
            _ => {}
        }
        escaped = in_string && c == '\\' && !escaped;
    }
    let tail = inner[start..].trim();
    if !tail.is_empty() {
        items.push(parse_value(tail, line_no)?);
    } else if !items.is_empty() {
        return err(line_no, "trailing comma in array");
    }
    Ok(Value::Array(items))
}

/// Serialize a scalar or array value in canonical form.
pub fn format_value(value: &Value) -> String {
    match value {
        Value::Str(s) => {
            let mut out = String::from("\"");
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    _ => out.push(c),
                }
            }
            out.push('"');
            out
        }
        Value::Int(v) => v.to_string(),
        // `{:?}` is Rust's shortest representation that round-trips the
        // exact f64 — the property the proptests pin.
        Value::Float(v) => format!("{v:?}"),
        Value::Bool(v) => v.to_string(),
        Value::Array(items) => {
            let inner: Vec<String> = items.iter().map(format_value).collect();
            format!("[{}]", inner.join(", "))
        }
        Value::Table(_) => panic!("tables serialize via headers, not inline"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_tables_and_arrays() {
        let doc = r#"
# a scenario
name = "soak" # trailing comment
seed = 7
scale = 0.25
on = true
values = [1, 2.5, "x"]

[testbed]
base = "paper"

[[events]]
kind = "outage"

[[events]]
kind = "gc"
"#;
        let root = parse(doc).unwrap();
        assert_eq!(root["name"], Value::Str("soak".into()));
        assert_eq!(root["seed"], Value::Int(7));
        assert_eq!(root["scale"], Value::Float(0.25));
        assert_eq!(root["on"], Value::Bool(true));
        assert_eq!(
            root["values"],
            Value::Array(vec![Value::Int(1), Value::Float(2.5), Value::Str("x".into())])
        );
        let tb = root["testbed"].as_table().unwrap();
        assert_eq!(tb["base"], Value::Str("paper".into()));
        let events = root["events"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].as_table().unwrap()["kind"], Value::Str("gc".into()));
    }

    #[test]
    fn dotted_headers_nest() {
        let root = parse("[a.b]\nx = 1\n").unwrap();
        let a = root["a"].as_table().unwrap();
        assert_eq!(a["b"].as_table().unwrap()["x"], Value::Int(1));
    }

    #[test]
    fn string_escapes_round_trip() {
        let root = parse(r#"s = "a\"b\\c\nd""#).unwrap();
        assert_eq!(root["s"], Value::Str("a\"b\\c\nd".into()));
        let formatted = format_value(&root["s"]);
        let reparsed = parse(&format!("s = {formatted}")).unwrap();
        assert_eq!(reparsed["s"], root["s"]);
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let root = parse(r##"s = "a#b" # real comment"##).unwrap();
        assert_eq!(root["s"], Value::Str("a#b".into()));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("ok = 1\nbroken").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("key = value"), "{e}");

        let e = parse("x = 1\nx = 2").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("duplicate"), "{e}");

        let e = parse("[t]\n[t]").unwrap_err();
        assert!(e.message.contains("twice"), "{e}");

        for hostile in [
            "x = ",
            "x = nope",
            "x = \"unterminated",
            "x = [1, 2",
            "x = [1,, 2]",
            "x = [1, ]",
            "[unclosed",
            "[]",
            "x = inf",
            "x = \"bad\\q\"",
            "key with space = 1",
        ] {
            assert!(parse(hostile).is_err(), "accepted hostile input {hostile:?}");
        }
    }

    #[test]
    fn float_formatting_round_trips_exactly() {
        for v in [0.1, 1.0 / 3.0, 1e-300, 12345.6789, f64::MIN_POSITIVE] {
            let text = format_value(&Value::Float(v));
            let back = parse(&format!("x = {text}")).unwrap();
            assert_eq!(back["x"].as_float().unwrap().to_bits(), v.to_bits());
        }
    }
}
