//! The decoded surface is a decision, not an accident. The workspace
//! reads back only its own run records — a sweep record line (the
//! `--golden --check` gate) and the metrics a journal line holds — so
//! `Deserialize` is derived or implemented on exactly `RunRecord` and
//! `RunMetrics` across `crates/*/src` and `src/`. Everything else read
//! from JSON is walked as a `serde::json::Value` tree by hand. A new
//! typed input format fails here until this test names it.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Every `*.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source dir is listable").flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The types `text` gives a `Deserialize`: each `#[derive(…)]` naming it
/// (the `struct` or `enum` the attribute decorates) and each
/// `impl … Deserialize for Type`.
fn decoded_types(text: &str) -> Vec<String> {
    let is_word = |c: char| c.is_alphanumeric() || c == '_';
    let ident = |s: &str| -> String { s.chars().take_while(|c| is_word(*c)).collect() };
    let mut found = Vec::new();
    for (start, _) in text.match_indices("#[derive(") {
        let rest = &text[start..];
        let (attr, item) = rest.split_once(")]").expect("derive attribute closes");
        if !attr.split(|c: char| !is_word(c)).any(|w| w == "Deserialize") {
            continue;
        }
        // The first line that is not another attribute or a comment.
        let decl = item
            .lines()
            .map(str::trim)
            .find(|l| !(l.is_empty() || l.starts_with("#[") || l.starts_with("//")));
        let name = decl.and_then(|l| {
            let mut words = l.split_whitespace().skip_while(|w| !matches!(*w, "struct" | "enum"));
            words.nth(1).map(ident)
        });
        found.push(name.expect("a derive decorates a struct or an enum"));
    }
    let words: Vec<&str> = text.split(|c: char| !is_word(c)).filter(|w| !w.is_empty()).collect();
    for w in words.windows(3) {
        if w[0] == "Deserialize" && w[1] == "for" {
            found.push(w[2].to_string());
        }
    }
    found
}

#[test]
fn only_run_records_and_run_metrics_are_decoded() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ is listable").flatten() {
        let src = krate.path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() >= 50, "only {} sources found: is the walk lost?", files.len());
    let decoded: BTreeSet<String> = files
        .iter()
        .flat_map(|f| decoded_types(&std::fs::read_to_string(f).expect("source is readable")))
        .collect();
    let expected: BTreeSet<String> = ["RunMetrics", "RunRecord"].map(String::from).into();
    assert_eq!(decoded, expected, "the set of decoded types changed");
}

#[test]
fn the_scan_sees_derives_across_lines_and_hand_written_impls() {
    let text =
        "#[derive(\n    Clone,\n    Deserialize,\n)]\n/// Doc.\npub(crate) struct A { x: u8 }\n\
                #[derive(Serialize)]\nenum B { X }\nimpl serde::Deserialize for C {}\n\
                #[derive(Debug, Deserialize)]\n#[repr(u8)]\nenum D { Y }";
    assert_eq!(decoded_types(text), ["A", "D", "C"]);
}
