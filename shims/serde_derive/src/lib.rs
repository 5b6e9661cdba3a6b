//! `#[derive(Serialize, Deserialize)]` for the vendored `serde` shim.
//!
//! The build environment has no crates.io access, so this crate parses the
//! derive input by walking the raw [`proc_macro::TokenStream`] instead of
//! depending on `syn`/`quote`. It supports exactly the shapes this
//! workspace uses: `Serialize` on structs with named fields and on
//! fieldless enums (discriminants allowed), `Deserialize` on structs with
//! named fields only (the workspace decodes nothing else). `Serialize`
//! gets both `to_value` and the direct text writer `write_json`,
//! generated from the same field or variant list. Anything else — tuple
//! structs, generics, enums with payloads, a decoded enum — fails the
//! build with an explicit message rather than generating wrong code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize`: value-tree construction (`to_value`) and,
/// from the same field or variant list, the direct text writer
/// (`write_json`) that spells exactly what the tree renders to.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let shape = parse_shape(input);
    let code = match &shape {
        Shape::Struct { name, fields } => {
            let pairs: Vec<String> = fields
                .iter()
                .map(|f| format!("(\"{f}\".to_string(), ::serde::Serialize::to_value(&self.{f}))"))
                .collect();
            // `{"f1":` then `,"f2":` …: each key with the separator before
            // it, as one literal.
            let writes: Vec<String> = fields
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    let open = if i == 0 { "{" } else { "," };
                    format!(
                        "out.push_str({lit:?});\n\
                         ::serde::Serialize::write_json(&self.{f}, out);",
                        lit = format!("{open}\"{f}\":")
                    )
                })
                .collect();
            let close = if fields.is_empty() { "out.push_str(\"{}\");" } else { "out.push('}');" };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::json::Value {{\n\
                         ::serde::json::Value::Object(vec![{pairs}])\n\
                     }}\n\
                     fn write_json(&self, out: &mut ::std::string::String) {{\n\
                         {writes}\n\
                         {close}\n\
                     }}\n\
                 }}",
                name = name,
                pairs = pairs.join(", "),
                writes = writes.join("\n"),
            )
        }
        Shape::Enum { name, variants } => {
            let arms: Vec<String> =
                variants.iter().map(|v| format!("{name}::{v} => \"{v}\"")).collect();
            let quoted: Vec<String> = variants
                .iter()
                .map(|v| format!("{name}::{v} => {lit:?}", lit = format!("\"{v}\"")))
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::json::Value {{\n\
                         ::serde::json::Value::String(match self {{ {arms} }}.to_string())\n\
                     }}\n\
                     fn write_json(&self, out: &mut ::std::string::String) {{\n\
                         out.push_str(match self {{ {quoted} }});\n\
                     }}\n\
                 }}",
                name = name,
                arms = arms.join(", "),
                quoted = quoted.join(", ")
            )
        }
    };
    code.parse().expect("derive(Serialize): generated code must parse")
}

/// Derives `serde::Deserialize` (value-tree reconstruction) for a struct
/// with named fields: each field is read by name, in any order.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let Shape::Struct { name, fields } = parse_shape(input) else {
        panic!("serde shim derive: Deserialize supports named-field structs only")
    };
    let inits: Vec<String> = fields
        .iter()
        .map(|f| format!("{f}: ::serde::Deserialize::from_value(v.field(\"{f}\")?)?"))
        .collect();
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::json::Value)\n\
                 -> Result<Self, ::serde::json::Error> {{\n\
                 Ok({name} {{ {inits} }})\n\
             }}\n\
         }}",
        inits = inits.join(", ")
    )
    .parse()
    .expect("derive(Deserialize): generated code must parse")
}

enum Shape {
    Struct { name: String, fields: Vec<String> },
    Enum { name: String, variants: Vec<String> },
}

/// Walks the derive input: outer attributes, visibility, `struct`/`enum`
/// keyword, type name, then the brace-delimited body.
fn parse_shape(input: TokenStream) -> Shape {
    let mut tokens = input.into_iter().peekable();

    skip_attributes(&mut tokens);
    skip_visibility(&mut tokens);

    let keyword = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected `struct` or `enum`, found {other:?}"),
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected type name, found {other:?}"),
    };

    let body = match tokens.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g,
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            panic!("serde shim derive: generic type `{name}` is not supported")
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            panic!("serde shim derive: tuple struct `{name}` is not supported")
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => {
            panic!("serde shim derive: unit struct `{name}` is not supported")
        }
        Some(other) => panic!("serde shim derive: unexpected token {other} in `{name}`"),
        None => panic!("serde shim derive: missing body for `{name}`"),
    };

    match keyword.as_str() {
        "struct" => Shape::Struct { name, fields: parse_named_fields(body.stream()) },
        "enum" => Shape::Enum { name, variants: parse_unit_variants(body.stream()) },
        other => panic!("serde shim derive: cannot derive for `{other}` items"),
    }
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

/// Consumes any number of `#[...]` outer attributes (doc comments included).
fn skip_attributes(tokens: &mut Tokens) {
    while let Some(TokenTree::Punct(p)) = tokens.peek() {
        if p.as_char() != '#' {
            break;
        }
        tokens.next();
        match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {}
            other => panic!("serde shim derive: malformed attribute, found {other:?}"),
        }
    }
}

/// Consumes `pub`, `pub(crate)`, `pub(in ...)` if present.
fn skip_visibility(tokens: &mut Tokens) {
    if matches!(tokens.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        tokens.next();
        if matches!(
            tokens.peek(),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
        ) {
            tokens.next();
        }
    }
}

/// Extracts field names from a named-field struct body. Field types are
/// skipped by consuming tokens until a comma at angle-bracket depth zero
/// (parenthesised/bracketed types arrive as opaque groups, so only `<`/`>`
/// need tracking).
fn parse_named_fields(body: TokenStream) -> Vec<String> {
    let mut tokens = body.into_iter().peekable();
    let mut fields = Vec::new();

    loop {
        skip_attributes(&mut tokens);
        skip_visibility(&mut tokens);
        match tokens.next() {
            None => break,
            Some(TokenTree::Ident(id)) => fields.push(id.to_string()),
            Some(other) => {
                panic!("serde shim derive: expected field name, found {other} (named-field structs only)")
            }
        }
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde shim derive: expected `:` after field name, found {other:?}"),
        }
        let mut angle_depth = 0usize;
        for tok in tokens.by_ref() {
            match tok {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => {
                    angle_depth = angle_depth.saturating_sub(1);
                }
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => break,
                _ => {}
            }
        }
    }

    fields
}

/// Extracts variant names from a fieldless enum body. Explicit
/// discriminants (`Name = expr`) are skipped; payload-carrying variants
/// are rejected.
fn parse_unit_variants(body: TokenStream) -> Vec<String> {
    let mut tokens = body.into_iter().peekable();
    let mut variants = Vec::new();

    loop {
        skip_attributes(&mut tokens);
        let name = match tokens.next() {
            None => break,
            Some(TokenTree::Ident(id)) => id.to_string(),
            Some(other) => panic!("serde shim derive: expected variant name, found {other}"),
        };
        match tokens.next() {
            None => {
                variants.push(name);
                break;
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => variants.push(name),
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                // Skip the discriminant expression.
                for tok in tokens.by_ref() {
                    if matches!(&tok, TokenTree::Punct(p) if p.as_char() == ',') {
                        break;
                    }
                }
                variants.push(name);
            }
            Some(TokenTree::Group(_)) => {
                panic!("serde shim derive: variant `{name}` carries data (fieldless enums only)")
            }
            Some(other) => {
                panic!("serde shim derive: unexpected token {other} after variant `{name}`")
            }
        }
    }

    variants
}
