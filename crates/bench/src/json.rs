//! A minimal JSON value tree and pretty-printing writer: the `BENCH_*.json`
//! records are built as one [`Json`] value and written once, never by
//! concatenating strings.

use std::fmt::Write as _;

#[cfg(test)]
#[path = "../tests/json_syntax/mod.rs"]
mod json_syntax;

/// Column limit for writing a container of scalars on one line.
const WIDTH: usize = 100;

/// A JSON value. Numbers are written at full precision (integral values
/// without a fraction) and non-finite ones as `null`; objects keep their
/// insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of anything convertible to [`Json`].
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// The value pretty-printed with two-space indentation and a trailing
    /// newline. A container holding only scalars stays on one line when it
    /// fits in 100 columns.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let (open, close, members): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            // `{}` on f64 prints the shortest representation that reads back
            // to the same value, and no fraction for integral values.
            Json::Num(v) if v.is_finite() => return write!(out, "{v}").expect("write to String"),
            Json::Num(_) => return out.push_str("null"),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(pairs) => {
                ('{', '}', pairs.iter().map(|(k, v)| (Some(k.as_str()), v)).collect())
            }
        };
        let start = out.len();
        let column = start - out.rfind('\n').map_or(0, |i| i + 1);
        let scalars = members.iter().all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
        // One line when every member is a scalar and the line fits, else one
        // member per line (rewritten from `start`).
        for one_line in [scalars, false] {
            let newline = |depth: usize| format!("\n{}", "  ".repeat(depth));
            let (sep, pad, end) = if one_line {
                (", ", String::new(), String::new())
            } else {
                (",", newline(indent + 1), newline(indent))
            };
            out.truncate(start);
            out.push(open);
            for (i, (key, value)) in members.iter().enumerate() {
                out.push_str(if i == 0 { "" } else { sep });
                out.push_str(&pad);
                if let Some(key) = key {
                    write_str(out, key);
                    out.push_str(": ");
                }
                value.write(out, indent + 1);
            }
            if !members.is_empty() {
                out.push_str(&end);
            }
            out.push(close);
            if !one_line || column + out.len() - start <= WIDTH {
                return;
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

// Counts and nanosecond medians stay far below 2^53, so the conversion to
// `f64` is exact.
macro_rules! json_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v as f64)
            }
        }
    )*};
}
json_from_number!(f64, u32, u64, u128, usize);

/// A [`Json::Obj`] from `"key" => value` pairs, in order, each value
/// converted with `Json::from`.
///
/// ```
/// use topo_bench::{json_obj, Json};
///
/// let row = json_obj! { "grid" => 8usize, "naive_ns" => None::<u128> };
/// assert_eq!(row.pretty(), "{\"grid\": 8, \"naive_ns\": null}\n");
/// ```
#[macro_export]
macro_rules! json_obj {
    ($($key:literal => $value:expr),* $(,)?) => {
        $crate::Json::Obj(vec![$(($key.to_string(), $crate::Json::from($value))),*])
    };
}

/// A value that was not measured (`None`) is written as `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_fully_escaped() {
        let s = Json::from("quote \" backslash \\ newline \n control \u{1}");
        assert_eq!(s.pretty(), "\"quote \\\" backslash \\\\ newline \\n control \\u0001\"\n");
    }

    #[test]
    fn integral_numbers_print_without_a_fraction() {
        assert_eq!(Json::from(1_234_567_890_123u128).pretty(), "1234567890123\n");
        assert_eq!(Json::from(3.0).pretty(), "3\n");
        assert_eq!(Json::from(0.125).pretty(), "0.125\n");
        assert_eq!(Json::from(2.0 / 3.0).pretty(), "0.6666666666666666\n");
    }

    #[test]
    fn non_finite_numbers_print_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::from(v).pretty(), "null\n");
        }
        assert_eq!(Json::from(None::<u128>).pretty(), "null\n");
        assert_eq!(Json::from(Some(7usize)).pretty(), "7\n");
    }

    #[test]
    fn nested_key_order_is_preserved_and_the_output_parses() {
        let row = json_obj! { "y" => f64::NAN, "b" => Json::Bool(true), "s" => "x" };
        let nested = json_obj! { "z" => 1u32, "a" => Json::arr([row]), "e" => Json::Arr(vec![]) };
        let expected = r#"{
  "z": 1,
  "a": [
    {"y": null, "b": true, "s": "x"}
  ],
  "e": []
}
"#;
        assert_eq!(nested.pretty(), expected);
        super::json_syntax::parse_json(expected.as_bytes()).expect("valid JSON");
    }

    #[test]
    fn long_scalar_containers_break_across_lines() {
        let wide = Json::obj((0..20).map(|i| (format!("key_{i}"), Json::from(i as u32))));
        let text = wide.pretty();
        assert_eq!(text.lines().count(), 22);
        assert!(text.lines().all(|l| l.len() <= WIDTH));
        super::json_syntax::parse_json(text.as_bytes()).expect("valid JSON");
    }
}
