//! JSON text for result records: the offline `serde_json` stand-in renders
//! only `Serialize` types, and its `Value` tree is not one.

use serde_json::Value;

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Renders `v` on one line. Finite numbers print in Rust's shortest
/// round-tripping form, so every digit measured survives; non-finite ones,
/// which JSON cannot carry, print as `null`.
pub fn render(v: &Value) -> String {
    let mut out = String::new();
    write(v, &mut out);
    out
}

fn write(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) if x.is_finite() => out.push_str(&format!("{x:?}")),
        Value::F64(_) => out.push_str("null"),
        Value::Str(s) => string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                string(k, out);
                out.push(':');
                write(item, out);
            }
            out.push('}');
        }
    }
}

fn string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_parseable_json_with_full_precision() {
        let v = obj(vec![
            ("a", Value::F64(1.2034567891234)),
            ("b", Value::Seq(vec![Value::U64(3), Value::Null])),
            ("c", Value::Str("x\"y\n".into())),
        ]);
        let text = render(&v);
        assert_eq!(
            text,
            r#"{"a":1.2034567891234,"b":[3,null],"c":"x\"y\u000a"}"#
        );
        assert_eq!(serde_json::parse_value(&text).ok(), Some(v));
    }
}
