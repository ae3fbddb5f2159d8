//! A tiny, dependency-free JSON value: build, render, parse, validate —
//! plus [`ObjWriter`], which writes one large object field by field in
//! the same bytes, for documents too big to hold as a tree.
//!
//! The vendored `serde` is a no-op stub (no registry in this build
//! environment), so structured export is hand-rolled — but once, here,
//! instead of ad-hoc `format!` calls at every site. Objects preserve
//! insertion order, making rendered output stable and diff-friendly. The
//! validator implements the JSON-Schema subset the checked-in
//! `schemas/*.schema.json` files use (`type`, `properties`, `required`,
//! `items`, `enum`, `minimum`), enough for CI to reject malformed metrics.

/// A JSON value. Numbers are `f64` (rendered as integers when integral),
/// which covers every counter this workspace exports.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl Json {
    /// An empty object, to be filled with [`Json::set`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts or replaces `key` (builder style, preserves insertion order).
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        if let Json::Obj(ref mut fields) = self {
            let value = value.into();
            if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                slot.1 = value;
            } else {
                fields.push((key.to_string(), value));
            }
        } else {
            panic!("Json::set on a non-object");
        }
        self
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, None, 0);
        s
    }

    /// Pretty rendering with 2-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(2), 0);
        s.push('\n');
        s
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => out.push_str(&render_number(*v)),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    open_item(out, i, indent, depth + 1);
                    v.write(out, indent, depth + 1);
                }
                close(out, ']', indent, depth);
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    open_item(out, i, indent, depth + 1);
                    push_key(out, k);
                    v.write(out, indent, depth + 1);
                }
                close(out, '}', indent, depth);
            }
        }
    }

    /// Parses a JSON document (strict enough for round-trip testing).
    pub fn parse(s: &str) -> Result<Json, String> {
        let bytes = s.as_bytes();
        let mut p = Parser { b: bytes, i: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    /// Validates `self` against `schema` (the subset documented on this
    /// module); returns human-readable violations, empty when valid.
    pub fn validate(&self, schema: &Json) -> Vec<String> {
        let mut errs = Vec::new();
        validate_at(self, schema, "$", &mut errs);
        errs
    }
}

/// Starts item `i` of a container whose items sit at `depth`: a comma
/// after the first, then a newline and indent (pretty) or a space
/// (compact).
fn open_item(out: &mut String, i: usize, indent: Option<usize>, depth: usize) {
    if i > 0 {
        out.push(',');
    }
    match indent {
        Some(w) => {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * depth));
        }
        None if i > 0 => out.push(' '),
        None => {}
    }
}

/// Ends a non-empty container opened at `depth` with `bracket`.
fn close(out: &mut String, bracket: char, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push(bracket);
}

fn push_key(out: &mut String, key: &str) {
    out.push('"');
    out.push_str(&escape(key));
    out.push_str("\": ");
}

/// One JSON object written to `out` field by field, in the same bytes as
/// rendering the whole tree ([`Json::render_pretty`] with `indent`
/// `Some(2)`, [`Json::render`] with `None`) — for documents too large to
/// hold as one tree. A field's value is a small tree, or an array whose
/// items are rendered and written one at a time.
pub struct ObjWriter<W: std::io::Write> {
    out: W,
    indent: Option<usize>,
    fields: usize,
    buf: String,
}

impl<W: std::io::Write> ObjWriter<W> {
    /// Opens the object.
    pub fn new(out: W, indent: Option<usize>) -> Self {
        ObjWriter { out, indent, fields: 0, buf: String::from("{") }
    }

    pub fn field(&mut self, key: &str, value: impl Into<Json>) -> std::io::Result<()> {
        self.key(key);
        value.into().write(&mut self.buf, self.indent, 1);
        self.flush()
    }

    /// An array-valued field, its items written as they are produced.
    pub fn array(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = Json>,
    ) -> std::io::Result<()> {
        self.key(key);
        let mut n = 0;
        for item in items {
            if n == 0 {
                self.buf.push('[');
            }
            open_item(&mut self.buf, n, self.indent, 2);
            item.write(&mut self.buf, self.indent, 2);
            self.flush()?;
            n += 1;
        }
        if n == 0 {
            self.buf.push_str("[]");
        } else {
            close(&mut self.buf, ']', self.indent, 1);
        }
        self.flush()
    }

    /// Closes the object (a pretty one ends in a newline, as
    /// [`Json::render_pretty`] does) and hands `out` back.
    pub fn finish(mut self) -> std::io::Result<W> {
        if self.fields == 0 {
            self.buf.push('}');
        } else {
            close(&mut self.buf, '}', self.indent, 0);
        }
        if self.indent.is_some() {
            self.buf.push('\n');
        }
        self.flush()?;
        Ok(self.out)
    }

    fn key(&mut self, key: &str) {
        open_item(&mut self.buf, self.fields, self.indent, 1);
        push_key(&mut self.buf, key);
        self.fields += 1;
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.out.write_all(self.buf.as_bytes())?;
        self.buf.clear();
        Ok(())
    }
}

fn render_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no Inf/NaN; null is the least-surprising degradation.
        "null".to_string()
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.i)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let e = self.peek().ok_or("dangling escape")?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.i + 4 > self.b.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                                .map_err(|_| "bad \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.i += 4;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                }
                Some(c) if c < 0x80 => {
                    out.push(c as char);
                    self.i += 1;
                }
                Some(lead) => {
                    // Consume one multi-byte UTF-8 character: validate only
                    // its own bytes, never the remaining input (an
                    // O(rest-of-document) check per character turns parsing
                    // quadratic on megabyte documents).
                    let len = match lead {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err("invalid UTF-8 in string".into()),
                    };
                    let end = self.i + len;
                    let chunk = self
                        .b
                        .get(self.i..end)
                        .and_then(|w| std::str::from_utf8(w).ok())
                        .ok_or("invalid UTF-8 in string")?;
                    out.push_str(chunk);
                    self.i = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .map(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
            .unwrap_or(false)
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }
}

fn validate_at(v: &Json, schema: &Json, path: &str, errs: &mut Vec<String>) {
    if let Some(ty) = schema.get("type").and_then(Json::as_str) {
        let ok = match ty {
            "object" => matches!(v, Json::Obj(_)),
            "array" => matches!(v, Json::Arr(_)),
            "string" => matches!(v, Json::Str(_)),
            "boolean" => matches!(v, Json::Bool(_)),
            "null" => matches!(v, Json::Null),
            "number" => matches!(v, Json::Num(_)),
            "integer" => matches!(v, Json::Num(n) if n.fract() == 0.0),
            other => {
                errs.push(format!("{path}: schema uses unsupported type {other:?}"));
                return;
            }
        };
        if !ok {
            errs.push(format!("{path}: expected {ty}, got {}", v.type_name()));
            return;
        }
    }
    if let Some(Json::Arr(allowed)) = schema.get("enum") {
        if !allowed.contains(v) {
            errs.push(format!("{path}: value not in enum"));
        }
    }
    if let Some(min) = schema.get("minimum").and_then(Json::as_f64) {
        if let Json::Num(n) = v {
            if *n < min {
                errs.push(format!("{path}: {n} < minimum {min}"));
            }
        }
    }
    if let Some(Json::Arr(req)) = schema.get("required") {
        for r in req {
            if let Some(name) = r.as_str() {
                if v.get(name).is_none() {
                    errs.push(format!("{path}: missing required key {name:?}"));
                }
            }
        }
    }
    if let Some(props) = schema.get("properties") {
        if let (Json::Obj(fields), Json::Obj(specs)) = (v, props) {
            for (k, sub) in specs {
                if let Some((_, val)) = fields.iter().find(|(fk, _)| fk == k) {
                    validate_at(val, sub, &format!("{path}.{k}"), errs);
                }
            }
        }
    }
    if let Some(items) = schema.get("items") {
        if let Json::Arr(arr) = v {
            for (i, item) in arr.iter().enumerate() {
                validate_at(item, items, &format!("{path}[{i}]"), errs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Json {
        Json::obj()
            .set("name", "dcp")
            .set("count", 42u64)
            .set("ratio", 0.25)
            .set("ok", true)
            .set("nothing", Json::Null)
            .set("tags", Json::Arr(vec!["a".into(), "b\"quote".into()]))
            .set("nested", Json::obj().set("x", 1u64))
    }

    #[test]
    fn render_parse_round_trip() {
        let d = doc();
        for rendered in [d.render(), d.render_pretty()] {
            let back = Json::parse(&rendered).expect("parses");
            assert_eq!(back, d, "round trip through {rendered}");
        }
    }

    /// Streaming the fields of `doc()` — with its array fed item by item,
    /// empty and not — writes the bytes of rendering the tree, in both
    /// layouts.
    #[test]
    fn obj_writer_matches_the_rendered_tree() {
        for indent in [Some(2), None] {
            let mut w = ObjWriter::new(Vec::new(), indent);
            let mut tree = Json::obj();
            let Json::Obj(fields) = doc() else { unreachable!() };
            for (k, v) in fields {
                match &v {
                    Json::Arr(items) => w.array(&k, items.iter().cloned()).unwrap(),
                    v => w.field(&k, v.clone()).unwrap(),
                }
                tree = tree.set(&k, v);
            }
            w.array("none", std::iter::empty()).unwrap();
            tree = tree.set("none", Json::Arr(Vec::new()));
            let want = if indent.is_some() { tree.render_pretty() } else { tree.render() };
            assert_eq!(String::from_utf8(w.finish().unwrap()).unwrap(), want);
            let empty = ObjWriter::new(Vec::new(), indent).finish().unwrap();
            let want = if indent.is_some() { "{}\n" } else { "{}" };
            assert_eq!(String::from_utf8(empty).unwrap(), want);
        }
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(42.0).render(), "42");
        assert_eq!(Json::Num(0.5).render(), "0.5");
        assert_eq!(Json::Num(-3.0).render(), "-3");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn get_and_as_accessors() {
        let d = doc();
        assert_eq!(d.get("count").and_then(Json::as_u64), Some(42));
        assert_eq!(d.get("name").and_then(Json::as_str), Some("dcp"));
        assert_eq!(d.get("ratio").and_then(Json::as_f64), Some(0.25));
        assert_eq!(d.get("missing"), None);
        assert_eq!(d.get("nested").and_then(|n| n.get("x")).and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn set_replaces_existing_key() {
        let d = Json::obj().set("a", 1u64).set("a", 2u64);
        assert_eq!(d.get("a").and_then(Json::as_u64), Some(2));
        if let Json::Obj(fields) = &d {
            assert_eq!(fields.len(), 1);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("tru").is_err());
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let v = Json::parse(r#"{"s": "line\nquote\" Aö"}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("line\nquote\" Aö"));
    }

    #[test]
    fn schema_validation_accepts_and_rejects() {
        let schema = Json::parse(
            r#"{
              "type": "object",
              "required": ["name", "count"],
              "properties": {
                "name": {"type": "string"},
                "count": {"type": "integer", "minimum": 0},
                "tags": {"type": "array", "items": {"type": "string"}}
              }
            }"#,
        )
        .unwrap();
        assert!(doc().validate(&schema).is_empty());

        let bad = Json::obj().set("name", 3u64).set("count", -1.5);
        let errs = bad.validate(&schema);
        assert!(errs.iter().any(|e| e.contains("$.name")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("$.count")), "{errs:?}");

        let missing = Json::obj().set("name", "x");
        assert!(missing.validate(&schema).iter().any(|e| e.contains("count")));
    }
}
