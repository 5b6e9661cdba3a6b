//! End-to-end checks of the shimmed `#[derive(Serialize, Deserialize)]`
//! macros (they emit `::serde::` paths, so they can only be exercised from
//! outside the `serde` crate itself).

use serde::{json, Deserialize, Serialize};

/// The one shape the workspace decodes: a flat named-field struct of
/// unsigned integers, floats, booleans and strings, like the journaled
/// run metrics and the sweep record that holds them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Flat {
    completed: bool,
    cycles: u64,
    lanes: u8,
    ipc: f64,
    label: String,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Nested {
    cell: u64,
    metrics: Flat,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize)]
#[repr(u8)]
enum Mode {
    Fast = 0,
    Slow = 1,
    Adaptive,
}

#[test]
fn flat_struct_roundtrip_is_exact() {
    let orig = Nested {
        cell: u64::MAX,
        metrics: Flat {
            completed: true,
            cycles: 12_345,
            lanes: u8::MAX,
            ipc: 0.1 + 0.2,
            label: "a\"b\u{1}é".to_string(),
        },
    };
    for text in [orig.to_value().to_json_pretty(), orig.to_value().to_json_compact()] {
        let back = Nested::from_value(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, orig);
    }
}

#[test]
fn enum_serializes_as_variant_name() {
    for (mode, name) in [(Mode::Fast, "Fast"), (Mode::Slow, "Slow"), (Mode::Adaptive, "Adaptive")] {
        assert_eq!(mode.to_value(), json::Value::String(name.to_string()));
    }
}

#[test]
fn missing_field_is_an_error() {
    let v = json::parse(r#"{"completed":true,"cycles":1,"lanes":2,"ipc":0.5}"#).unwrap();
    let err = Flat::from_value(&v).unwrap_err();
    assert!(err.to_string().contains("label"), "{err}");
}

#[test]
fn wrong_type_is_an_error() {
    let wrong = [
        (r#""completed":1"#, "expected bool"),
        (r#""cycles":-1"#, "expected unsigned integer"),
        (r#""cycles":"1""#, "expected unsigned integer"),
        (r#""lanes":256"#, "out of range for u8"),
        (r#""ipc":"x""#, "expected number"),
        (r#""label":7"#, "expected string"),
    ];
    for (pair, want) in wrong {
        let key = &pair[..pair.find(':').unwrap()];
        let fields = [
            r#""completed":true"#,
            r#""cycles":1"#,
            r#""lanes":2"#,
            r#""ipc":0.5"#,
            r#""label":"x""#,
        ]
        .map(|f| if f.starts_with(key) { pair } else { f });
        let v = json::parse(&format!("{{{}}}", fields.join(","))).unwrap();
        let err = Flat::from_value(&v).unwrap_err();
        assert!(err.to_string().contains(want), "{pair}: {err}");
    }
}
