//! Minimal JSON value, recursive-descent parser and escape helpers.
//!
//! The environment has no serde (no crates.io access — `vendor/README.md`),
//! so every persisted format in the workspace is hand-rolled over this one
//! module: the tuning records ([`crate::records`]), the compiled artifacts
//! (`hidet::artifact`) and the HTTP API bodies (`hidet-server`).
//! Keeping the parser in one place means one set of escape rules and one set
//! of number-validity checks for every on-disk schema.
//!
//! Errors are plain `String`s; schema-owning callers wrap them into their own
//! typed errors (e.g. `RecordsError::Parse`).

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`; see [`Json::as_i64`]).
    Number(f64),
    /// A string literal (escapes resolved).
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in source order (duplicate keys are kept as-is).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parses `text` as a single JSON value (trailing data is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes: Vec<char> = text.chars().collect();
        let mut pos = 0usize;
        let value = parse_value(&bytes, &mut pos)?;
        skip_ws(&bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at offset {pos}"));
        }
        Ok(value)
    }

    /// The object fields, or an error naming `ctx`.
    pub fn as_object(&self, ctx: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Object(fields) => Ok(fields),
            other => Err(format!("{ctx}: expected object, got {other:?}")),
        }
    }

    /// The array items, or an error naming `ctx`.
    pub fn as_array(&self, ctx: &str) -> Result<&[Json], String> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(format!("{ctx}: expected array, got {other:?}")),
        }
    }

    /// The string value, or an error naming `ctx`.
    pub fn as_str(&self, ctx: &str) -> Result<&str, String> {
        match self {
            Json::String(s) => Ok(s),
            other => Err(format!("{ctx}: expected string, got {other:?}")),
        }
    }

    /// The numeric value, or an error naming `ctx`.
    pub fn as_f64(&self, ctx: &str) -> Result<f64, String> {
        match self {
            Json::Number(v) => Ok(*v),
            other => Err(format!("{ctx}: expected number, got {other:?}")),
        }
    }

    /// The numeric value as an exact integer. Rejects fractional values and
    /// magnitudes above 2^53 (not representable exactly in the `f64` carrier).
    pub fn as_i64(&self, ctx: &str) -> Result<i64, String> {
        let v = self.as_f64(ctx)?;
        if v.fract() != 0.0 || v.abs() > (1i64 << 53) as f64 {
            return Err(format!("{ctx}: expected integer, got {v}"));
        }
        Ok(v as i64)
    }
}

/// Looks up `field` in an object's fields (first match wins).
pub fn get<'a>(obj: &'a [(String, Json)], field: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == field)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field \"{field}\""))
}

/// The integer member `field` of `obj`, which must be at least 1 — the
/// check every persisted size, tile and dimension needs, since a corrupted or
/// hand-edited file must fail its load rather than reach kernel generation
/// (where a zero divides). `ctx` names the object in errors.
pub fn get_positive(obj: &[(String, Json)], field: &str, ctx: &str) -> Result<i64, String> {
    let v = get(obj, field)?.as_i64(field)?;
    if v < 1 {
        return Err(format!(
            "{ctx}: field \"{field}\" must be >= 1, got {v} (file corrupted or hand-edited)"
        ));
    }
    Ok(v)
}

/// Renders `s` as a quoted, escaped JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a float so it stays typed as a number-with-fraction in readers.
///
/// `{}` prints integral floats without a dot ("0"); keep an explicit ".0".
pub fn json_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.is_finite() {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Streaming JSON serializer: builds a document incrementally with comma and
/// nesting management, reusing the same escape ([`json_string`]) and number
/// ([`json_f64`]) rules as the rest of the workspace. Callers that render
/// responses chunk-by-chunk (e.g. a network front-end emitting one object per
/// token) use one `JsonWriter` per chunk instead of building a [`Json`] tree.
///
/// Misuse (a value with no pending key inside an object, `end` with nothing
/// open, `finish` with containers still open) panics: the writer is driven by
/// code, not input, so an unbalanced document is a caller bug.
///
/// ```
/// use hidet_sched::json::JsonWriter;
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.key("model").string("mlp");
/// w.key("latency_us").number(12.5);
/// w.key("shards").begin_array().integer(0).integer(1).end();
/// w.end();
/// assert_eq!(w.finish(), r#"{"model":"mlp","latency_us":12.5,"shards":[0,1]}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One frame per open container.
    stack: Vec<Frame>,
    /// Inside an object, set between `key()` and the value that consumes it.
    after_key: bool,
}

#[derive(Debug)]
struct Frame {
    is_object: bool,
    has_items: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// Emits the comma separator if the current container already has items.
    fn before_value(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(frame) = self.stack.last_mut() {
            assert!(!frame.is_object, "JsonWriter: object value without a key()");
            if frame.has_items {
                self.out.push(',');
            }
            frame.has_items = true;
        }
    }

    /// Opens an object (`{`).
    pub fn begin_object(&mut self) -> &mut JsonWriter {
        self.before_value();
        self.out.push('{');
        self.stack.push(Frame {
            is_object: true,
            has_items: false,
        });
        self
    }

    /// Opens an array (`[`).
    pub fn begin_array(&mut self) -> &mut JsonWriter {
        self.before_value();
        self.out.push('[');
        self.stack.push(Frame {
            is_object: false,
            has_items: false,
        });
        self
    }

    /// Closes the innermost open container.
    pub fn end(&mut self) -> &mut JsonWriter {
        assert!(
            !self.after_key,
            "JsonWriter: key with no value before end()"
        );
        match self.stack.pop() {
            Some(frame) if frame.is_object => self.out.push('}'),
            Some(_) => self.out.push(']'),
            None => panic!("JsonWriter: end() with no open container"),
        }
        self
    }

    /// Emits an object key; the next value call becomes its value.
    pub fn key(&mut self, name: &str) -> &mut JsonWriter {
        assert!(!self.after_key, "JsonWriter: two keys in a row");
        let frame = self
            .stack
            .last_mut()
            .filter(|f| f.is_object)
            .expect("JsonWriter: key() outside an object");
        if frame.has_items {
            self.out.push(',');
        }
        frame.has_items = true;
        self.out.push_str(&json_string(name));
        self.out.push(':');
        self.after_key = true;
        self
    }

    /// Emits a string value (escaped).
    pub fn string(&mut self, v: &str) -> &mut JsonWriter {
        self.before_value();
        self.out.push_str(&json_string(v));
        self
    }

    /// Emits a float value (keeps the `.0` on integral floats).
    pub fn number(&mut self, v: f64) -> &mut JsonWriter {
        self.before_value();
        self.out.push_str(&json_f64(v));
        self
    }

    /// Emits an integer value (no fraction).
    pub fn integer(&mut self, v: i64) -> &mut JsonWriter {
        self.before_value();
        self.out.push_str(&v.to_string());
        self
    }

    /// Emits a boolean value.
    pub fn boolean(&mut self, v: bool) -> &mut JsonWriter {
        self.before_value();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Emits `null`.
    pub fn null(&mut self) -> &mut JsonWriter {
        self.before_value();
        self.out.push_str("null");
        self
    }

    /// The finished document. Panics if containers are still open.
    pub fn finish(self) -> String {
        assert!(
            self.stack.is_empty() && !self.after_key,
            "JsonWriter: finish() with unbalanced document"
        );
        self.out
    }
}

fn skip_ws(s: &[char], pos: &mut usize) {
    while *pos < s.len() && s[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(s: &[char], pos: &mut usize, ch: char) -> Result<(), String> {
    skip_ws(s, pos);
    if *pos < s.len() && s[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{ch}' at offset {pos}", pos = *pos))
    }
}

fn parse_value(s: &[char], pos: &mut usize) -> Result<Json, String> {
    skip_ws(s, pos);
    match s.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some('{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(s, pos);
            if s.get(*pos) == Some(&'}') {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            loop {
                skip_ws(s, pos);
                let name = match parse_value(s, pos)? {
                    Json::String(n) => n,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                expect(s, pos, ':')?;
                let value = parse_value(s, pos)?;
                fields.push((name, value));
                skip_ws(s, pos);
                match s.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Ok(Json::Object(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {}", *pos)),
                }
            }
        }
        Some('[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(s, pos);
            if s.get(*pos) == Some(&']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(s, pos)?);
                skip_ws(s, pos);
                match s.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {}", *pos)),
                }
            }
        }
        Some('"') => {
            *pos += 1;
            let mut out = String::new();
            loop {
                match s.get(*pos) {
                    None => return Err("unterminated string".to_string()),
                    Some('"') => {
                        *pos += 1;
                        return Ok(Json::String(out));
                    }
                    Some('\\') => {
                        *pos += 1;
                        match s.get(*pos) {
                            Some('"') => out.push('"'),
                            Some('\\') => out.push('\\'),
                            Some('/') => out.push('/'),
                            Some('n') => out.push('\n'),
                            Some('t') => out.push('\t'),
                            Some('r') => out.push('\r'),
                            Some('u') => {
                                let hex: String = s
                                    .get(*pos + 1..*pos + 5)
                                    .ok_or("truncated \\u escape")?
                                    .iter()
                                    .collect();
                                let code = u32::from_str_radix(&hex, 16)
                                    .map_err(|_| format!("bad \\u escape {hex}"))?;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or(format!("invalid codepoint {code}"))?,
                                );
                                *pos += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(&c) => {
                        out.push(c);
                        *pos += 1;
                    }
                }
            }
        }
        Some('t') if s[*pos..].starts_with(&['t', 'r', 'u', 'e']) => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some('f') if s[*pos..].starts_with(&['f', 'a', 'l', 's', 'e']) => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some('n') if s[*pos..].starts_with(&['n', 'u', 'l', 'l']) => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < s.len() && matches!(s[*pos], '0'..='9' | '-' | '+' | '.' | 'e' | 'E') {
                *pos += 1;
            }
            let text: String = s[start..*pos].iter().collect();
            text.parse::<f64>()
                .map(Json::Number)
                .map_err(|_| format!("bad number \"{text}\" at offset {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e1").unwrap(), Json::Number(-25.0));
        assert_eq!(
            Json::parse(r#""a\nbA""#).unwrap(),
            Json::String("a\nbA".to_string())
        );
        let v = Json::parse(r#"{"xs": [1, 2], "s": "hi"}"#).unwrap();
        let obj = v.as_object("top").unwrap();
        assert_eq!(get(obj, "xs").unwrap().as_array("xs").unwrap().len(), 2);
        assert_eq!(get(obj, "s").unwrap().as_str("s").unwrap(), "hi");
        assert!(get(obj, "missing").is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,2", "{\"a\" 1}", "nope", "1 2", "\"open"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn integer_extraction_guards_range_and_fraction() {
        assert_eq!(Json::Number(42.0).as_i64("x").unwrap(), 42);
        assert!(Json::Number(1.5).as_i64("x").is_err());
        assert!(Json::Number(1e17).as_i64("x").is_err());
    }

    #[test]
    fn string_escaping_round_trips() {
        let original = "line\nquote\" tab\t back\\slash \u{1} end";
        let quoted = json_string(original);
        assert_eq!(
            Json::parse(&quoted).unwrap(),
            Json::String(original.to_string())
        );
    }

    #[test]
    fn float_rendering_keeps_fraction() {
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(2.5), "2.5");
    }

    #[test]
    fn writer_builds_nested_documents_that_parse_back() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("name").string("he\"llo\n");
        w.key("n").number(3.0);
        w.key("flags").begin_array().boolean(true).null().end();
        w.key("inner").begin_object().key("k").integer(-7).end();
        w.end();
        let text = w.finish();
        let parsed = Json::parse(&text).unwrap();
        let obj = parsed.as_object("top").unwrap();
        assert_eq!(
            get(obj, "name").unwrap().as_str("name").unwrap(),
            "he\"llo\n"
        );
        assert_eq!(get(obj, "n").unwrap().as_f64("n").unwrap(), 3.0);
        assert_eq!(
            get(obj, "flags").unwrap().as_array("flags").unwrap().len(),
            2
        );
        let inner = get(obj, "inner").unwrap().as_object("inner").unwrap();
        assert_eq!(get(inner, "k").unwrap().as_i64("k").unwrap(), -7);
        // Integral floats keep their fraction so readers see a number.
        assert!(text.contains("\"n\":3.0"), "{text}");
    }

    #[test]
    fn writer_handles_empty_containers_and_bare_scalars() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("xs").begin_array().end();
        w.key("o").begin_object().end();
        w.end();
        assert_eq!(w.finish(), r#"{"xs":[],"o":{}}"#);

        let mut scalar = JsonWriter::new();
        scalar.string("brace } in { string");
        assert_eq!(
            Json::parse(&scalar.finish()).unwrap(),
            Json::String("brace } in { string".to_string())
        );
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn writer_rejects_unbalanced_finish() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.finish();
    }

    #[test]
    #[should_panic(expected = "without a key")]
    fn writer_rejects_object_value_without_key() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.number(1.0);
    }
}
