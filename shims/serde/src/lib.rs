//! Offline drop-in subset of the `serde` API.
//!
//! The build environment cannot reach crates.io, so the workspace vendors
//! a minimal self-describing serialization layer under the `serde` name:
//! values serialize into a [`json::Value`] tree. `#[derive(Serialize)]`
//! (re-exported from the sibling `serde_derive` shim) supports structs
//! with named fields and fieldless enums. Decoding is narrower, because
//! the workspace reads back only its own flat records (a sweep record
//! and the metrics it journals): `#[derive(Deserialize)]` takes
//! named-field structs, and [`Deserialize`] is implemented only for the
//! leaves those records hold — unsigned integers, `f64`, `bool` and
//! `String`. Other input is read as a [`json::Value`] tree by hand. The
//! data model is JSON-only; there is no `Serializer`/`Deserializer`
//! trait pair.
//!
//! JSON text is written two ways from one definition.
//! [`Serialize::to_value`] builds the tree, and the tree's
//! [`to_json_compact`](json::Value::to_json_compact) is what a value's
//! compact text *is*. [`Serialize::write_json`] appends that same text
//! without building the tree: its default renders `to_value()`, and the
//! primitives, strings, `Option`, sequences, tuples and every derived
//! type write directly — the derive emits both bodies from one field
//! list, and both paths share one writer per leaf, so the two cannot
//! disagree (`tests/derive.rs` property-checks it on every shape).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

pub use serde_derive::{Deserialize, Serialize};

/// Types convertible into a [`json::Value`] tree, and writable as JSON
/// text directly.
pub trait Serialize {
    /// Serializes `self` into a value tree.
    fn to_value(&self) -> json::Value;

    /// Appends `self`'s compact JSON text to `out`: byte for byte
    /// `to_value().to_json_compact()`, which is what this default does.
    /// Scalars, strings, `Option`, sequences, tuples and derived types
    /// override it to write straight to text, with no tree in between.
    fn write_json(&self, out: &mut String) {
        self.to_value().write_compact(out);
    }
}

/// Writes a JSON array of `items` (the direct form of `Value::Array`).
fn write_seq<'a, T: Serialize + 'a>(out: &mut String, items: impl IntoIterator<Item = &'a T>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

/// Types reconstructible from a [`json::Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds a value from a tree.
    ///
    /// # Errors
    ///
    /// Returns [`json::Error`] when the tree does not match the expected
    /// shape (missing field, wrong type, integer out of range).
    fn from_value(v: &json::Value) -> Result<Self, json::Error>;
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> json::Value {
                json::Value::U64(*self as u64)
            }
            fn write_json(&self, out: &mut String) {
                json::write_display(out, self);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &json::Value) -> Result<Self, json::Error> {
                let raw = v.as_u64()?;
                <$t>::try_from(raw).map_err(|_| json::Error::msg(format!(
                    "integer {raw} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> json::Value {
                json::Value::I64(*self as i64)
            }
            fn write_json(&self, out: &mut String) {
                json::write_display(out, self);
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> json::Value {
        json::Value::F64(*self)
    }
    fn write_json(&self, out: &mut String) {
        json::write_f64(out, *self);
    }
}

impl Deserialize for f64 {
    fn from_value(v: &json::Value) -> Result<Self, json::Error> {
        v.as_f64()
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> json::Value {
        json::Value::F64(*self as f64)
    }
    fn write_json(&self, out: &mut String) {
        json::write_f64(out, *self as f64);
    }
}

impl Serialize for bool {
    fn to_value(&self) -> json::Value {
        json::Value::Bool(*self)
    }
    fn write_json(&self, out: &mut String) {
        json::write_bool(out, *self);
    }
}

impl Deserialize for bool {
    fn from_value(v: &json::Value) -> Result<Self, json::Error> {
        match v {
            json::Value::Bool(b) => Ok(*b),
            other => Err(json::Error::msg(format!("expected bool, found {}", other.kind()))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> json::Value {
        json::Value::String(self.clone())
    }
    fn write_json(&self, out: &mut String) {
        json::write_str(out, self);
    }
}

impl Deserialize for String {
    fn from_value(v: &json::Value) -> Result<Self, json::Error> {
        Ok(v.as_str()?.to_owned())
    }
}

impl Serialize for str {
    fn to_value(&self) -> json::Value {
        json::Value::String(self.to_owned())
    }
    fn write_json(&self, out: &mut String) {
        json::write_str(out, self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> json::Value {
        (**self).to_value()
    }
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> json::Value {
        json::Value::Array(self.iter().map(Serialize::to_value).collect())
    }
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> json::Value {
        json::Value::Array(self.iter().map(Serialize::to_value).collect())
    }
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> json::Value {
        json::Value::Array(self.iter().map(Serialize::to_value).collect())
    }
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> json::Value {
        match self {
            Some(x) => x.to_value(),
            None => json::Value::Null,
        }
    }
    fn write_json(&self, out: &mut String) {
        match self {
            Some(x) => x.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// `Value` serializes as itself, so derived types can embed raw JSON
/// trees (e.g. an already-resolved configuration) without re-encoding.
impl Serialize for json::Value {
    fn to_value(&self) -> json::Value {
        self.clone()
    }
    fn write_json(&self, out: &mut String) {
        self.write_compact(out);
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> json::Value {
                json::Value::Array(vec![$(self.$idx.to_value()),+])
            }
            fn write_json(&self, out: &mut String) {
                out.push('[');
                $(
                    if $idx > 0 {
                        out.push(',');
                    }
                    self.$idx.write_json(out);
                )+
                out.push(']');
            }
        }
    )*};
}
impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}
