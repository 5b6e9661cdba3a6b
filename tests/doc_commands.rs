//! The commands the docs tell a reader to type must exist. Every fenced
//! code block of README.md, EXPERIMENTS.md, DESIGN.md and the verify
//! skill is read line by line (`\` continuations joined), and:
//!
//! - a `--bin NAME` is a file in `src/bin/`;
//! - a `tenoc CMD` — through `--bin tenoc --`, a path ending in `/tenoc`
//!   or a bare `tenoc` — is a command in the listing `tenoc` prints with
//!   no arguments, and every `--flag` after it is in that command's usage;
//! - a `--bench NAME` is a `[[bench]]` of `crates/bench/Cargo.toml`;
//! - an `--example NAME` is a file in `examples/` or `crates/*/examples/`.
//!
//! And every inline backticked repository path in those docs — one that
//! starts `crates/`, `src/`, `tests/` or `scripts/` — exists (a `*` in
//! its file name must match a file), every inline backticked bare
//! `name.rs` is the file name of some `*.rs` file in the sources, every
//! inline backticked `tenoc <command>` names a command `tenoc` lists, and
//! every inline backticked `tenoc_<crate>::…::name` names an item — a
//! `fn`, `struct`, `enum`, `trait`, `type`, `mod`, `const` or `static`, or
//! a `pub use` — declared in `crates/<crate>/src`.
//!
//! README's bench table and the one in `crates/bench/src/lib.rs`'s module
//! docs each list exactly the `[[bench]]` targets, in manifest order.
//!
//! No tracked file outside the roadmap's own documents cites a roadmap
//! item by number: items are renumbered when the roadmap is re-anchored,
//! so a citation rots into a pointer at something else. A comment states
//! its reason, or points at a DESIGN.md section.

use std::path::Path;
use std::process::Command;

const DOCS: [&str; 4] =
    ["README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The lines of `text`'s fenced code blocks, each with its 1-based line
/// number, a line ending in `\` joined with the next.
fn block_lines(text: &str) -> Vec<(usize, String)> {
    let (mut lines, mut fenced, mut pending) = (Vec::new(), false, None);
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if fenced {
            let (n, mut joined) = pending.take().unwrap_or((i + 1, String::new()));
            joined.push(' ');
            joined.push_str(line);
            match joined.strip_suffix('\\') {
                Some(head) => pending = Some((n, head.to_owned())),
                None => lines.push((n, joined)),
            }
        }
    }
    lines
}

/// The `--flags` named anywhere in `text`.
fn flags_in(text: &str) -> Vec<&str> {
    let not_flag_char = |c: char| !(c.is_ascii_alphanumeric() || c == '-');
    text.split(not_flag_char).filter(|t| t.starts_with("--")).collect()
}

/// `tenoc`'s command listing, printed with no arguments: each command's
/// name and usage text, continuation lines included.
fn listing() -> Vec<(String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_tenoc")).output().expect("binary runs");
    let text = String::from_utf8(out.stderr).expect("the listing is text");
    let mut commands: Vec<(String, String)> = Vec::new();
    for line in text.lines().skip_while(|l| *l != "commands:").skip(1) {
        match line.strip_prefix("  ") {
            Some(entry) if !entry.starts_with(' ') => {
                let (name, usage) = entry.split_once(' ').unwrap_or((entry, ""));
                commands.push((name.to_owned(), usage.to_owned()));
            }
            Some(more) => commands.last_mut().expect("a command before its usage").1.push_str(more),
            None => break,
        }
    }
    assert!(commands.iter().any(|(name, _)| name == "sweep"), "no listing in:\n{text}");
    commands
}

/// The `[[bench]]` target names of `crates/bench/Cargo.toml`.
fn bench_targets() -> Vec<String> {
    let manifest = std::fs::read_to_string(root().join("crates/bench/Cargo.toml")).unwrap();
    let mut targets = Vec::new();
    let mut in_bench = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_bench = line == "[[bench]]";
        } else if let Some(name) = line.strip_prefix("name = ").filter(|_| in_bench) {
            targets.push(name.trim_matches('"').to_owned());
        }
    }
    targets
}

/// The first column of the `| target | … |` table in `text`, whose lines
/// may carry a `//!` doc prefix.
fn bench_table(text: &str) -> Vec<String> {
    let rows = text.lines().map(|l| l.trim_start_matches("//!").trim());
    rows.skip_while(|l| !l.starts_with("| target |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|l| l.split('|').nth(1).unwrap_or("").trim().trim_matches('`').to_owned())
        .collect()
}

#[test]
fn bench_tables_list_exactly_the_bench_targets() {
    let targets = bench_targets();
    for doc in ["README.md", "crates/bench/src/lib.rs"] {
        let text = std::fs::read_to_string(root().join(doc)).expect("doc present");
        assert_eq!(bench_table(&text), targets, "{doc}'s bench table vs crates/bench/Cargo.toml");
    }
}

fn example_exists(name: &str) -> bool {
    let file = format!("{name}.rs");
    let crates = std::fs::read_dir(root().join("crates")).expect("crates/ is listable");
    root().join("examples").join(&file).is_file()
        || crates.flatten().any(|c| c.path().join("examples").join(&file).is_file())
}

#[test]
fn fenced_doc_commands_name_binaries_commands_flags_and_targets_that_exist() {
    let commands = listing();
    let benches = bench_targets();
    let mut problems = Vec::new();
    let mut invocations = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root().join(doc)).expect("doc present");
        for (line_no, line) in block_lines(&text) {
            let mut problem = |what: String| problems.push(format!("{doc}:{line_no}: {what}"));
            let tokens: Vec<&str> =
                line.split_whitespace().take_while(|t| !t.starts_with('#')).collect();
            for seg in tokens.split(|t| ["&&", "||", "|", ";", "&"].contains(t)) {
                // Where `tenoc`'s own arguments start, if this segment runs it.
                let mut cmd_at = None;
                let program = seg.iter().position(|t| !t.contains('='));
                for (i, &tok) in seg.iter().enumerate() {
                    let next = seg.get(i + 1).copied().unwrap_or("");
                    match tok {
                        "--bin" if !root().join(format!("src/bin/{next}.rs")).is_file() => {
                            problem(format!("`--bin {next}`: no src/bin/{next}.rs"));
                        }
                        "--bin" if next == "tenoc" && seg.get(i + 2) == Some(&"--") => {
                            cmd_at = Some(i + 3);
                        }
                        "--bench" if !benches.iter().any(|b| b == next) => {
                            problem(format!("`--bench {next}`: not a [[bench]] of crates/bench"));
                        }
                        "--example" if !example_exists(next) => {
                            problem(format!("`--example {next}`: no such example"));
                        }
                        _ if tok.ends_with("/tenoc") || (tok == "tenoc" && program == Some(i)) => {
                            cmd_at = Some(i + 1);
                        }
                        _ => {}
                    }
                }
                let Some((&cmd, args)) = cmd_at.and_then(|at| seg.get(at..)?.split_first()) else {
                    continue;
                };
                invocations += 1;
                let Some((_, usage)) = commands.iter().find(|(name, _)| name == cmd) else {
                    problem(format!("`tenoc {cmd}`: not a command `tenoc` lists"));
                    continue;
                };
                let known = flags_in(usage);
                for flag in args.iter().filter(|a| a.starts_with("--")) {
                    let flag = flag.split('=').next().unwrap_or(flag);
                    if !known.contains(&flag) {
                        problem(format!("`tenoc {cmd} {flag}`: not in its usage ({usage})"));
                    }
                }
            }
        }
    }
    assert!(problems.is_empty(), "stale doc commands:\n  {}", problems.join("\n  "));
    assert!(invocations >= 20, "only {invocations} `tenoc` invocations found: is the parser lost?");
}

/// The inline code spans of `text` outside its fenced blocks, each with
/// the 1-based line it starts on (a span may wrap onto the next line).
fn inline_spans(text: &str) -> Vec<(usize, String)> {
    let (mut spans, mut fenced, mut open) = (Vec::new(), false, None::<(usize, String)>);
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        for (j, piece) in line.split('`').enumerate() {
            if j > 0 {
                open = match open.take() {
                    Some(span) => {
                        spans.push(span);
                        None
                    }
                    None => Some((i + 1, String::new())),
                };
            }
            if let Some((_, span)) = &mut open {
                span.push_str(piece);
            }
        }
        if let Some((_, span)) = &mut open {
            span.push(' ');
        }
    }
    spans
}

/// The repository path a code span names, if it names one: its first
/// word, up to a `:line` suffix, when that starts with a top-level source
/// directory and holds no placeholder.
fn repo_path(span: &str) -> Option<&str> {
    let path = span.split([' ', ':']).next()?;
    let rooted = ["crates/", "src/", "tests/", "scripts/"].iter().any(|d| path.starts_with(d));
    (rooted && !path.contains(['<', '…', '{'])).then_some(path)
}

/// Whether `path` exists, a `*` in its last component matching any run
/// of characters in a file name.
fn path_exists(path: &str) -> bool {
    let Some((dir, (head, tail))) =
        path.rsplit_once('/').and_then(|(dir, name)| Some((dir, name.split_once('*')?)))
    else {
        return root().join(path).exists();
    };
    let names = std::fs::read_dir(root().join(dir)).into_iter().flatten().flatten();
    names
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .any(|n| n.len() >= head.len() + tail.len() && n.starts_with(head) && n.ends_with(tail))
}

/// The bare Rust file name a code span names, if it names one: its first
/// word, up to a `:line` suffix, when that is a `name.rs` with no
/// directory and no placeholder.
fn bare_rs_name(span: &str) -> Option<&str> {
    let name = span.split([' ', ':']).next()?;
    let plain = !name.contains(['/', '*', '<', '…', '{']);
    (plain && name.len() > 3 && name.ends_with(".rs")).then_some(name)
}

/// The file names of every `*.rs` file in the repository's sources,
/// skipping build output (`target/`) and hidden directories.
fn rs_file_names() -> std::collections::BTreeSet<String> {
    let (mut names, mut dirs) = (std::collections::BTreeSet::new(), vec![root().to_path_buf()]);
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("source dir is listable").flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with('.') || name == "target" {
                continue;
            }
            if entry.path().is_dir() {
                dirs.push(entry.path());
            } else if name.ends_with(".rs") {
                names.insert(name);
            }
        }
    }
    names
}

/// The command a code span runs, if it runs one: the word after a
/// leading `tenoc`, when that is a lower-case word and not a placeholder.
fn tenoc_command(span: &str) -> Option<&str> {
    let mut words = span.split_whitespace();
    let cmd = words.next().filter(|w| *w == "tenoc").and(words.next())?;
    cmd.chars().all(|c| c.is_ascii_lowercase()).then_some(cmd)
}

/// The crate and item a code span names, if it names one: its first
/// word, up to any `(` or `<`, when that is `tenoc_<crate>::…::item`.
fn crate_item(span: &str) -> Option<(&str, &str)> {
    let path = span.split([' ', '(', '<']).next()?;
    let (krate, rest) = path.strip_prefix("tenoc_")?.split_once("::")?;
    Some((krate, rest.rsplit("::").next()?))
}

/// Whether `item` is declared in `crates/<krate>/src`: some file holds
/// `fn item`, `struct item`, … `static item`, or a `pub use` statement
/// naming `item`.
fn item_declared(krate: &str, item: &str) -> bool {
    const KEYWORDS: [&str; 8] = ["fn", "struct", "enum", "trait", "type", "mod", "const", "static"];
    let words = |text: &str| -> Vec<String> {
        let not_ident = |c: char| !(c.is_ascii_alphanumeric() || c == '_');
        text.split(not_ident).filter(|w| !w.is_empty()).map(str::to_owned).collect()
    };
    let dir = std::fs::read_dir(root().join("crates").join(krate).join("src"));
    let sources = dir.into_iter().flatten().flatten().map(|e| e.path());
    sources.filter(|p| p.extension().is_some_and(|e| e == "rs")).any(|p| {
        let text = std::fs::read_to_string(p).expect("source is readable");
        let declared = words(&text).windows(2).any(|w| KEYWORDS.contains(&&*w[0]) && w[1] == item);
        let reexported = text.split("pub use ").skip(1).any(|stmt| {
            words(stmt.split(';').next().unwrap_or_default()).iter().any(|w| w == item)
        });
        declared || reexported
    })
}

#[test]
fn backticked_repository_paths_in_the_docs_exist() {
    let rs_names = rs_file_names();
    let commands = listing();
    let mut problems = Vec::new();
    let (mut paths, mut bare, mut items, mut verbs) = (0, 0, 0, 0);
    for doc in DOCS {
        let text = std::fs::read_to_string(root().join(doc)).expect("doc present");
        for (line_no, span) in inline_spans(&text) {
            if let Some(name) = bare_rs_name(&span) {
                bare += 1;
                if !rs_names.contains(name) {
                    problems.push(format!("{doc}:{line_no}: no `{name}` in the sources"));
                }
            }
            if let Some(cmd) = tenoc_command(&span) {
                verbs += 1;
                if !commands.iter().any(|(name, _)| name == cmd) {
                    problems.push(format!("{doc}:{line_no}: `tenoc {cmd}` is not a command"));
                }
            }
            if let Some((krate, item)) = crate_item(&span) {
                items += 1;
                if !item_declared(krate, item) {
                    problems
                        .push(format!("{doc}:{line_no}: `{span}` names no item of tenoc-{krate}"));
                }
            }
            let Some(path) = repo_path(&span) else { continue };
            paths += 1;
            if !path_exists(path) {
                problems.push(format!("{doc}:{line_no}: `{path}` does not exist"));
            }
        }
    }
    assert!(problems.is_empty(), "stale doc paths:\n  {}", problems.join("\n  "));
    assert!(paths >= 30, "only {paths} repository paths found: is the parser lost?");
    assert!(bare >= 10, "only {bare} bare `*.rs` names found: is the parser lost?");
    assert!(items >= 10, "only {items} `tenoc_<crate>::` paths found: is the parser lost?");
    assert!(verbs >= 20, "only {verbs} `tenoc <command>` spans found: is the parser lost?");
}

/// The word a roadmap citation starts with.
const ROADMAP: &str = "ROADMAP";

/// Whether the text just past the word [`ROADMAP`] goes on to an item
/// number: a bare number with an optional sub-item letter, `item` or
/// `items` before it, `.md` or `'s` after the word, and a line break
/// inside a `//`, `#` or `*` comment anywhere in between.
fn cites_an_item(after: &str) -> bool {
    fn gap(s: &str) -> &str {
        s.trim_start_matches([' ', '\t', '\n', '\r', '/', '#', '!', '*', '-', '('])
    }
    let rest = after.strip_prefix(".md").unwrap_or(after);
    let rest = gap(rest.strip_prefix("'s").unwrap_or(rest));
    let rest = ["items", "item"].iter().find_map(|w| rest.strip_prefix(w)).map_or(rest, gap);
    rest.starts_with(|c: char| c.is_ascii_digit())
}

/// Whether a top-level document is a numbered change request: its first
/// line is a heading of one upper-case word and a number (`# WORD 12 · …`).
/// Such a request plans against the roadmap and may cite its items.
fn is_change_request(text: &str) -> bool {
    let heading = text.lines().next().and_then(|l| l.strip_prefix("# ")).unwrap_or("");
    heading.split_once(' ').is_some_and(|(word, rest)| {
        !word.is_empty()
            && word.chars().all(|c| c.is_ascii_uppercase())
            && rest.starts_with(|c: char| c.is_ascii_digit())
    })
}

#[test]
fn no_tracked_file_cites_a_roadmap_item_by_number() {
    const OWN: [&str; 2] = ["ROADMAP.md", "CHANGES.md"];
    for cited in [" 16(b)", " item 5", "\n    // item 6", ".md's item-4", " (items 2, 3)"] {
        assert!(cites_an_item(cited), "{cited:?} slips through");
    }
    for plain in ["'s aim", ".md", ", items", " re-anchor"] {
        assert!(!cites_an_item(plain), "{plain:?} is not a citation");
    }
    let out = Command::new("git").arg("ls-files").current_dir(root()).output();
    let Some(listing) = out.ok().filter(|o| o.status.success()) else {
        eprintln!("not a git checkout: no tracked files to scan");
        return;
    };
    let listing = String::from_utf8(listing.stdout).expect("paths are UTF-8");
    // `benchmark/` is frozen; its citations leave with its next change.
    let files: Vec<&str> =
        listing.lines().filter(|f| !OWN.contains(f) && !f.starts_with("benchmark/")).collect();
    assert!(files.len() >= 100, "only {} tracked files: is the listing lost?", files.len());
    let mut problems = Vec::new();
    for file in &files {
        let Ok(text) = std::fs::read_to_string(root().join(file)) else { continue };
        if !file.contains('/') && file.ends_with(".md") && is_change_request(&text) {
            continue;
        }
        for (at, _) in text.match_indices(ROADMAP) {
            if cites_an_item(&text[at + ROADMAP.len()..]) {
                problems.push(format!("{file}:{}", text[..at].matches('\n').count() + 1));
            }
        }
    }
    assert!(problems.is_empty(), "roadmap item cited by number at:\n  {}", problems.join("\n  "));
}
