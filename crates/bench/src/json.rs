//! The one JSON writer behind every `BENCH_*.json` report (the workspace
//! is dependency-free): numbers, fixed-precision floats, escaped strings,
//! `null`, and nested arrays and objects whose keys keep insertion order.

use std::fmt::Display;

use safereg_obs::export::json_escape;

/// One rendered JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Json(String);

impl Json {
    /// A number or a boolean, printed in its `Display` form.
    pub fn num(v: impl Display) -> Json {
        Json(v.to_string())
    }

    /// A float with `precision` decimals.
    pub fn float(v: f64, precision: usize) -> Json {
        Json(format!("{v:.precision$}"))
    }

    /// An escaped string.
    pub fn str(s: &str) -> Json {
        Json(format!("\"{}\"", json_escape(s)))
    }

    /// A number, or `null` for `None`.
    pub fn opt(v: Option<impl Display>) -> Json {
        v.map_or_else(|| Json("null".into()), Json::num)
    }

    /// An array of values.
    pub fn array(items: impl IntoIterator<Item = Json>) -> Json {
        let items: Vec<String> = items.into_iter().map(|j| j.0).collect();
        Json(format!("[{}]", items.join(",")))
    }

    /// Starts an object.
    pub fn object() -> Object {
        Object(Vec::new())
    }
}

impl Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A JSON object under construction; keys render in the order added.
#[derive(Debug)]
pub struct Object(Vec<String>);

impl Object {
    /// Adds `key: value`.
    pub fn field(mut self, key: &str, value: Json) -> Object {
        self.0.push(format!("\"{}\":{value}", json_escape(key)));
        self
    }

    /// Adds a number or boolean field.
    pub fn num(self, key: &str, v: impl Display) -> Object {
        self.field(key, Json::num(v))
    }

    /// Adds a float field with `precision` decimals.
    pub fn float(self, key: &str, v: f64, precision: usize) -> Object {
        self.field(key, Json::float(v, precision))
    }

    /// Adds a string field.
    pub fn str(self, key: &str, v: &str) -> Object {
        self.field(key, Json::str(v))
    }

    /// Closes the object.
    pub fn end(self) -> Json {
        Json(format!("{{{}}}", self.0.join(",")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_and_floats_keep_their_precision() {
        let j = Json::object()
            .str("s", "a\"b\\c\nd\u{1}")
            .float("f2", 2.0 / 3.0, 2)
            .float("f0", 381_362.4, 0)
            .field("none", Json::opt(None::<u16>))
            .field("xs", Json::array([Json::num(1), Json::array([])]))
            .num("ok", true)
            .end();
        assert_eq!(
            j.to_string(),
            r#"{"s":"a\"b\\c\nd\u0001","f2":0.67,"f0":381362,"none":null,"xs":[1,[]],"ok":true}"#
        );
    }
}
