//! Structured experiment records and the workspace's one JSON encoder,
//! without external serialization crates.
//!
//! Every experiment row type implements [`Record`]: an ordered list of
//! `(field, Value)` pairs. The [`impl_record!`](crate::impl_record) macro derives the
//! implementation from a field list (the replacement for the per-row serde
//! derives this workspace used to carry).
//!
//! Every JSON byte the workspace writes above `gecko-store` comes from
//! here: [`Value::write_json`] for scalars, [`write_json_string`] for
//! strings, and [`json_kv`] for the flat `{"k":v,…}` objects that make up
//! journal, memo and telemetry lines (and [`Record::to_json`]). The
//! matching reader is `gecko_fleet::json::Json`; floats are written in
//! Rust's shortest round-trip form, so a line reads back bit-exactly.

use std::fmt::Write as _;

/// A dynamically typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A UTF-8 string.
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (NaN/inf encode as JSON `null`).
    F64(f64),
    /// A boolean.
    Bool(bool),
    /// Absent / not applicable.
    Null,
}

impl Value {
    /// Encodes the value as a JSON fragment.
    pub fn write_json(&self, out: &mut String) {
        match self {
            Value::Str(s) => write_json_string(s, out),
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => {
                if v.is_finite() {
                    // Rust's shortest round-trip float formatting; integral
                    // floats keep a ".0" so the value reads back as float.
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        let _ = write!(out, "{v:.1}");
                    } else {
                        let _ = write!(out, "{v}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Null => out.push_str("null"),
        }
    }
}

/// Escapes and quotes `s` per JSON.
pub fn write_json_string(s: &str, out: &mut String) {
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
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::I64(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

/// A named, ordered bag of fields — one experiment row.
pub trait Record {
    /// The fields, in declaration order.
    fn fields(&self) -> Vec<(&'static str, Value)>;

    /// The row as one JSON object.
    fn to_json(&self) -> String {
        json_kv(&self.fields())
    }
}

/// Encodes ordered `(key, value)` pairs as one flat JSON object
/// (`{"k":v,…}`, no whitespace) — the shape of every JSON-lines record.
pub fn json_kv(pairs: &[(&str, Value)]) -> String {
    let mut out = String::with_capacity(64);
    out.push('{');
    for (i, (key, value)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(key, &mut out);
        out.push(':');
        value.write_json(&mut out);
    }
    out.push('}');
    out
}

/// Derives [`Record`] for a struct from its field list:
///
/// ```ignore
/// impl_record!(Fig8Row { distance_m, power_dbm, rate });
/// ```
///
/// Fields must be `Clone` and convertible via `Value::from`.
#[macro_export]
macro_rules! impl_record {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::report::Record for $ty {
            fn fields(&self) -> Vec<(&'static str, $crate::report::Value)> {
                vec![$(
                    (stringify!($field), $crate::report::Value::from(self.$field.clone())),
                )+]
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Row {
        name: String,
        n: u64,
        x: f64,
        ok: bool,
        opt: Option<f64>,
    }
    impl_record!(Row {
        name,
        n,
        x,
        ok,
        opt
    });

    #[test]
    fn record_encodes_json() {
        let r = Row {
            name: "a\"b".to_string(),
            n: 3,
            x: 0.5,
            ok: true,
            opt: None,
        };
        assert_eq!(
            r.to_json(),
            r#"{"name":"a\"b","n":3,"x":0.5,"ok":true,"opt":null}"#
        );
    }

    #[test]
    fn floats_round_trip_and_nan_is_null() {
        let mut s = String::new();
        Value::F64(2.0).write_json(&mut s);
        assert_eq!(s, "2.0");
        s.clear();
        Value::F64(f64::NAN).write_json(&mut s);
        assert_eq!(s, "null");
        s.clear();
        // Rust's Display never uses exponent notation; the decimal
        // expansion still round-trips exactly.
        Value::F64(1e-7).write_json(&mut s);
        assert_eq!(s, "0.0000001");
        assert_eq!(s.parse::<f64>().unwrap(), 1e-7);
    }
}
