//! Minimal JSON-line support (zero-dependency policy: no serde).
//!
//! [`JsonObj`] builds one flat-or-nested JSON object as a `String`;
//! [`Json`] is a small recursive-descent parser into a value tree, used
//! by `sem-report` to replay the JSON-lines a run emitted and by the
//! schema tests to check what the builders write. Neither aims to be a
//! general JSON library — just enough to emit, check, and replay the
//! structured records of [`crate::record`].

/// Escape a string for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
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

/// Format an `f64` as a JSON value. Rust's shortest-roundtrip `Debug`
/// output is valid JSON for finite values; non-finite values (which JSON
/// cannot represent) become `null` — exactly what a NaN-flooded solve
/// should look like downstream, rather than an unparsable line.
pub fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Incremental JSON object builder.
///
/// # Examples
///
/// ```
/// use sem_obs::json::JsonObj;
/// let mut o = JsonObj::new();
/// o.str("type", "demo").u64("n", 3).f64("t", 0.5);
/// let line = o.finish();
/// assert_eq!(line, r#"{"type":"demo","n":3,"t":0.5}"#);
/// assert!(sem_obs::json::Json::parse(&line).is_some());
/// ```
#[derive(Debug, Default)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    /// Start an empty object.
    pub fn new() -> Self {
        JsonObj { buf: String::new() }
    }

    fn key(&mut self, k: &str) -> &mut String {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(&escape(k));
        self.buf.push_str("\":");
        &mut self.buf
    }

    /// Add a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        let esc = format!("\"{}\"", escape(v));
        self.key(k).push_str(&esc);
        self
    }

    /// Add an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        let s = v.to_string();
        self.key(k).push_str(&s);
        self
    }

    /// Add a float field (`null` for non-finite values).
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        let s = fmt_f64(v);
        self.key(k).push_str(&s);
        self
    }

    /// Add a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        let s = if v { "true" } else { "false" };
        self.key(k).push_str(s);
        self
    }

    /// Add an array of unsigned integers.
    pub fn arr_u64(&mut self, k: &str, vs: &[u64]) -> &mut Self {
        let body = vs
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let s = format!("[{body}]");
        self.key(k).push_str(&s);
        self
    }

    /// Add an array of strings (each escaped).
    pub fn arr_str(&mut self, k: &str, vs: &[String]) -> &mut Self {
        let body = vs
            .iter()
            .map(|v| format!("\"{}\"", escape(v)))
            .collect::<Vec<_>>()
            .join(",");
        let s = format!("[{body}]");
        self.key(k).push_str(&s);
        self
    }

    /// Add a field whose value is pre-rendered JSON (e.g. `"null"`).
    /// The caller is responsible for `v` being valid JSON.
    pub fn raw(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k).push_str(v);
        self
    }

    /// Add a nested object (consumes the child builder).
    pub fn obj(&mut self, k: &str, child: JsonObj) -> &mut Self {
        let s = child.finish();
        self.key(k).push_str(&s);
        self
    }

    /// Close the object and return the JSON text.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn literal(b: &[u8], i: &mut usize, lit: &[u8]) -> bool {
    if b[*i..].starts_with(lit) {
        *i += lit.len();
        true
    } else {
        false
    }
}

fn number(b: &[u8], i: &mut usize) -> bool {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let mut digits = 0;
    while *i < b.len() && b[*i].is_ascii_digit() {
        *i += 1;
        digits += 1;
    }
    if digits == 0 {
        return false;
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        let mut frac = 0;
        while *i < b.len() && b[*i].is_ascii_digit() {
            *i += 1;
            frac += 1;
        }
        if frac == 0 {
            return false;
        }
    }
    if matches!(b.get(*i), Some(b'e') | Some(b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+') | Some(b'-')) {
            *i += 1;
        }
        let mut exp = 0;
        while *i < b.len() && b[*i].is_ascii_digit() {
            *i += 1;
            exp += 1;
        }
        if exp == 0 {
            return false;
        }
    }
    *i > start
}

/// A parsed JSON value. Numbers are kept as `f64` (every value the
/// records emit — step indices, counters, times — round-trips exactly
/// through `f64` up to 2^53, far beyond any run length here).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON value (surrounding whitespace allowed).
    pub fn parse(s: &str) -> Option<Json> {
        let b = s.as_bytes();
        let mut i = 0usize;
        let v = parse_value(b, &mut i)?;
        skip_ws(b, &mut i);
        (i == b.len()).then_some(v)
    }

    /// Object member lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractional values).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object members, in source order.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

fn parse_value(b: &[u8], i: &mut usize) -> Option<Json> {
    skip_ws(b, i);
    match b.get(*i)? {
        b'{' => parse_object(b, i),
        b'[' => parse_array(b, i),
        b'"' => parse_string(b, i).map(Json::Str),
        b't' => literal(b, i, b"true").then_some(Json::Bool(true)),
        b'f' => literal(b, i, b"false").then_some(Json::Bool(false)),
        b'n' => literal(b, i, b"null").then_some(Json::Null),
        c if c.is_ascii_digit() || *c == b'-' => {
            let start = *i;
            if !number(b, i) {
                return None;
            }
            std::str::from_utf8(&b[start..*i])
                .ok()?
                .parse::<f64>()
                .ok()
                .map(Json::Num)
        }
        _ => None,
    }
}

fn parse_object(b: &[u8], i: &mut usize) -> Option<Json> {
    *i += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Some(Json::Obj(members));
    }
    loop {
        skip_ws(b, i);
        let key = parse_string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return None;
        }
        *i += 1;
        let val = parse_value(b, i)?;
        members.push((key, val));
        skip_ws(b, i);
        match b.get(*i)? {
            b',' => *i += 1,
            b'}' => {
                *i += 1;
                return Some(Json::Obj(members));
            }
            _ => return None,
        }
    }
}

fn parse_array(b: &[u8], i: &mut usize) -> Option<Json> {
    *i += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Some(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, i)?);
        skip_ws(b, i);
        match b.get(*i)? {
            b',' => *i += 1,
            b']' => {
                *i += 1;
                return Some(Json::Arr(items));
            }
            _ => return None,
        }
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Option<String> {
    if b.get(*i) != Some(&b'"') {
        return None;
    }
    *i += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Some(out);
            }
            b'\\' => {
                *i += 1;
                match b.get(*i)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b.get(*i + 1..*i + 5)?;
                        let code =
                            u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *i += 4;
                    }
                    _ => return None,
                }
                *i += 1;
            }
            _ => {
                // Copy the full UTF-8 sequence starting at this byte.
                let s = std::str::from_utf8(&b[*i..]).ok()?;
                let ch = s.chars().next()?;
                out.push(ch);
                *i += ch.len_utf8();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_json() {
        let mut inner = JsonObj::new();
        inner.u64("iterations", 12).f64("residual", 1.5e-9);
        let mut o = JsonObj::new();
        o.str("type", "terasem.step")
            .u64("step", 1)
            .f64("time", 0.002)
            .bool("converged", true)
            .arr_u64("helmholtz_iters", &[5, 6])
            .obj("pressure", inner)
            .f64("nan_field", f64::NAN);
        let line = o.finish();
        assert!(Json::parse(&line).is_some(), "invalid: {line}");
        assert!(line.contains("\"nan_field\":null"));
        assert!(line.contains("\"helmholtz_iters\":[5,6]"));
        assert!(line.contains("\"pressure\":{\"iterations\":12"));
    }

    #[test]
    fn escapes_special_characters() {
        let mut o = JsonObj::new();
        o.str("k", "a\"b\\c\nd\te");
        let line = o.finish();
        assert!(Json::parse(&line).is_some(), "invalid: {line}");
        assert_eq!(line, "{\"k\":\"a\\\"b\\\\c\\nd\\te\"}");
    }

    #[test]
    fn float_formats_roundtrip_as_json_numbers() {
        for x in [0.0, -1.5, 1e-30, 2.5e200, 0.002, 123456.75, f64::MIN] {
            let s = fmt_f64(x);
            assert!(Json::parse(&s).is_some(), "{x} -> {s}");
            assert_eq!(s.parse::<f64>().unwrap(), x, "{s}");
        }
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(f64::NAN), "null");
    }

    #[test]
    fn parser_roundtrips_builder_output() {
        let mut inner = JsonObj::new();
        inner.u64("iterations", 12).f64("residual", 1.5e-9);
        let mut o = JsonObj::new();
        o.str("type", "terasem.step")
            .u64("step", 7)
            .bool("converged", true)
            .arr_u64("iters", &[5, 6])
            .obj("pressure", inner)
            .raw("missing", "null");
        let line = o.finish();
        let v = Json::parse(&line).expect("parse");
        assert_eq!(v.get("type").and_then(Json::as_str), Some("terasem.step"));
        assert_eq!(v.get("step").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("converged").and_then(Json::as_bool), Some(true));
        let iters: Vec<u64> = v
            .get("iters")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|x| x.as_u64().unwrap())
            .collect();
        assert_eq!(iters, vec![5, 6]);
        assert_eq!(
            v.get("pressure")
                .and_then(|p| p.get("residual"))
                .and_then(Json::as_f64),
            Some(1.5e-9)
        );
        assert_eq!(v.get("missing"), Some(&Json::Null));
        assert_eq!(v.get("absent"), None);
    }

    #[test]
    fn parser_handles_escapes_and_rejects_garbage() {
        let v = Json::parse(r#"{"k":"a\"b\\c\ndA"}"#).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_str), Some("a\"b\\c\ndA"));
        assert_eq!(Json::parse("  [1, -2.5e3, null]  ").unwrap(),
            Json::Arr(vec![Json::Num(1.0), Json::Num(-2500.0), Json::Null]));
        for good in [
            "{}",
            "[]",
            "null",
            "-12.5e-3",
            r#"{"a":[1,2,{"b":"c"}],"d":null}"#,
            "  {\"x\": 1}  ",
            r#""just a string""#,
        ] {
            assert!(Json::parse(good).is_some(), "should accept: {good}");
        }
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1,2",
            "01x",
            "{\"a\" 1}",
            "1.2.3",
            "1e",
            "\"unterminated",
            "{} trailing",
            "NaN",
            "nul",
        ] {
            assert!(Json::parse(bad).is_none(), "should reject: {bad}");
        }
        // as_u64 rejects fractional and negative numbers.
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-3").unwrap().as_u64(), None);
        assert_eq!(Json::parse("3").unwrap().as_u64(), Some(3));
    }
}
