//! End-to-end checks of the shimmed `#[derive(Serialize, Deserialize)]`
//! macros (they emit `::serde::` paths, so they can only be exercised from
//! outside the `serde` crate itself).

use proptest::prelude::*;
use proptest::TestRng;
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

#[derive(Debug, Clone, PartialEq, Serialize)]
struct Inner {
    label: String,
    weight: f64,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize)]
#[repr(u8)]
enum Mode {
    Fast = 0,
    Slow = 1,
    Adaptive,
}

#[derive(Debug, Clone, PartialEq, Serialize)]
struct Outer {
    count: u64,
    offset: i32,
    mode: Mode,
    items: Vec<Inner>,
    maybe: Option<u8>,
    pair: (u16, bool),
}

fn sample() -> Outer {
    Outer {
        count: u64::MAX,
        offset: -12,
        mode: Mode::Adaptive,
        items: vec![
            Inner { label: "a\"b".to_string(), weight: 0.1 + 0.2 },
            Inner { label: String::new(), weight: -1.5 },
        ],
        maybe: None,
        pair: (9, true),
    }
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
    assert_eq!(Mode::Fast.to_value(), json::Value::String("Fast".to_string()));
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

/// No fields: the writer's `{}` edge.
#[derive(Debug, Serialize)]
struct Empty {}

/// Every shape the workspace serializes, in one derived struct: unsigned
/// and signed integers at their extremes, floats that print in plain and
/// exponent form or as `null`, strings that need every kind of escape,
/// `Option`, `Vec` (empty and nested), a fixed array, tuples, nested
/// derived structs and a fieldless enum.
#[derive(Debug, Serialize)]
struct Shapes {
    big: u64,
    small: u8,
    index: usize,
    neg: i32,
    wide: i64,
    x: f64,
    narrow: f32,
    flag: bool,
    text: String,
    mode: Mode,
    maybe: Option<f64>,
    label: Option<String>,
    items: Vec<Inner>,
    grid: Vec<Vec<f64>>,
    none: Vec<u8>,
    words: [u64; 3],
    pair: (u16, bool),
    triple: (i64, String, Option<Mode>),
    inner: Inner,
    outer: Option<Outer>,
    empty: Empty,
}

/// Floats from the edges: NaN, both infinities, both zeros, subnormals,
/// the extremes and values either side of where `{:?}` switches to an
/// exponent, plus raw bit patterns (any NaN payload, any subnormal).
fn float(rng: &mut TestRng) -> f64 {
    const EDGES: [f64; 16] = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        5e-324,
        1e300,
        -1e300,
        f64::MAX,
        f64::MIN,
        0.1 + 0.2,
        1e-7,
        1e16,
        1e21,
        -12.5,
    ];
    match rng.below(4) {
        0 => EDGES[rng.below(EDGES.len() as u64) as usize],
        1 => f64::from_bits(rng.next_u64()),
        2 => {
            f64::from_bits(rng.next_u64() & ((1 << 52) - 1))
                * if rng.below(2) == 0 { 1.0 } else { -1.0 }
        }
        _ => (rng.unit_f64() - 0.5) * 1e6,
    }
}

/// Strings over the characters that need escaping (quote, backslash,
/// every named and unnamed control character) mixed with plain ASCII,
/// DEL, and two- to four-byte UTF-8.
fn text(rng: &mut TestRng) -> String {
    const CHARS: [char; 14] =
        ['a', 'Z', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '€', '😀'];
    (0..rng.below(12)).map(|_| CHARS[rng.below(CHARS.len() as u64) as usize]).collect()
}

fn mode(rng: &mut TestRng) -> Mode {
    [Mode::Fast, Mode::Slow, Mode::Adaptive][rng.below(3) as usize]
}

fn inner(rng: &mut TestRng) -> Inner {
    Inner { label: text(rng), weight: float(rng) }
}

fn some<T>(rng: &mut TestRng, f: impl FnOnce(&mut TestRng) -> T) -> Option<T> {
    (rng.below(2) == 0).then(|| f(rng))
}

/// The strategy behind `write_json_is_the_value_trees_compact_text`.
struct AnyShapes;

impl Strategy for AnyShapes {
    type Value = Shapes;

    fn generate(&self, rng: &mut TestRng) -> Shapes {
        let extreme = |rng: &mut TestRng| match rng.below(3) {
            0 => u64::MAX,
            1 => 0,
            _ => rng.next_u64(),
        };
        Shapes {
            big: extreme(rng),
            small: rng.next_u64() as u8,
            index: rng.next_u64() as usize,
            neg: -(rng.below(1 << 31) as i32) - 1,
            wide: [i64::MIN, i64::MAX, rng.next_u64() as i64][rng.below(3) as usize],
            x: float(rng),
            narrow: float(rng) as f32,
            flag: rng.below(2) == 0,
            text: text(rng),
            mode: mode(rng),
            maybe: some(rng, float),
            label: some(rng, text),
            items: (0..rng.below(4)).map(|_| inner(rng)).collect(),
            grid: (0..rng.below(3))
                .map(|_| (0..rng.below(3)).map(|_| float(rng)).collect())
                .collect(),
            none: Vec::new(),
            words: [extreme(rng), extreme(rng), extreme(rng)],
            pair: (rng.next_u64() as u16, rng.below(2) == 0),
            triple: (rng.next_u64() as i64, text(rng), some(rng, mode)),
            inner: inner(rng),
            outer: some(rng, |rng| Outer {
                count: extreme(rng),
                offset: rng.next_u64() as i32,
                mode: mode(rng),
                items: (0..rng.below(3)).map(|_| inner(rng)).collect(),
                maybe: some(rng, |rng| rng.next_u64() as u8),
                pair: (rng.next_u64() as u16, rng.below(2) == 0),
            }),
            empty: Empty {},
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The direct writer and the value tree spell the same text, for
    /// every shape and every edge value: `to_value` is the definition,
    /// `write_json` only skips building the tree.
    fn write_json_is_the_value_trees_compact_text(shapes in AnyShapes) {
        let mut direct = String::new();
        shapes.write_json(&mut direct);
        prop_assert_eq!(direct, shapes.to_value().to_json_compact());
    }
}

#[test]
fn write_json_appends_and_matches_the_tree_on_the_fixed_sample() {
    let sample = sample();
    let mut out = String::from("prefix:");
    sample.write_json(&mut out);
    assert_eq!(out, format!("prefix:{}", sample.to_value().to_json_compact()));
    let mut out = String::new();
    Empty {}.write_json(&mut out);
    assert_eq!(out, "{}");
    let mut out = String::new();
    Mode::Slow.write_json(&mut out);
    assert_eq!(out, "\"Slow\"");
}
