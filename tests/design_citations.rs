//! Every citation of a design-document section outside the history file
//! names a heading that exists.  A citation is the document's file name
//! followed by a double-quoted section name, the way comments, tests, CI,
//! the verify skill and ROADMAP.md write it; it must match a `##` or `###`
//! heading exactly.  Renaming or deleting a cited section fails here with
//! the place of every stale citation.  CHANGES.md is history and cites
//! sections as they were, so it is not scanned.  Every test the design
//! document names — `file.rs::name`, `file.rs::{a, b}` or
//! `module::tests::name` in backticks — is a `fn` of that name in a file
//! of that name, so deleting or renaming a cited test fails here too.
//! The design document also stays within [`LINE_CAP`] lines: it says
//! what is, and a PR's own measurements go to CHANGES.md.

use std::fs;
use std::path::{Path, PathBuf};

/// The design document's file name, split so that this file cites nothing.
const DESIGN: &str = concat!("DESIGN", ".md");

/// The most lines the design document may hold.
const LINE_CAP: usize = 1_100;

/// Where citations are looked for, relative to the repository root.
const ROOTS: [&str; 6] = ["crates", "src", "tests", ".github", ".claude", "ROADMAP.md"];

/// Comment markers a citation may be broken across.
const MARKERS: [&str; 4] = ["//!", "///", "//", "#"];

/// The `##` and `###` headings of the design document.
fn headings(design: &str) -> Vec<&str> {
    design
        .lines()
        .filter_map(|l| l.strip_prefix("### ").or_else(|| l.strip_prefix("## ")))
        .map(str::trim)
        .collect()
}

/// `s` without leading blanks, `(`, `,` and comment markers.
fn skip_to_quote(mut s: &str) -> &str {
    loop {
        let t = s.trim_start_matches(|c: char| c.is_whitespace() || c == '(' || c == ',');
        let t = MARKERS.iter().find_map(|m| t.strip_prefix(m)).unwrap_or(t);
        if t.len() == s.len() {
            return s;
        }
        s = t;
    }
}

/// The sections cited in `text`, each with the 1-based line its file name
/// sits on.  A name broken over comment lines is joined with single spaces.
fn citations(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices(DESIGN) {
        let rest = skip_to_quote(&text[at + DESIGN.len()..]);
        let Some(quoted) = rest.strip_prefix('"') else {
            continue;
        };
        let Some(end) = quoted.find('"') else {
            continue;
        };
        let name = quoted[..end]
            .lines()
            .map(|l| {
                let l = l.trim();
                MARKERS.iter().find_map(|m| l.strip_prefix(m)).unwrap_or(l)
            })
            .flat_map(str::split_whitespace)
            .collect::<Vec<_>>()
            .join(" ");
        out.push((text[..at].matches('\n').count() + 1, name));
    }
    out
}

/// Every file under `path` (or `path` itself), build directories skipped.
fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if path.is_dir() && path.file_name().is_none_or(|n| n != "target") {
        let entries = fs::read_dir(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for entry in entries {
            collect(&entry.expect("a directory entry").path(), out);
        }
    }
}

/// A test the design document names: where it lives — a file name,
/// perhaps under directories (`bench/tests/memo_alloc.rs`), or a module
/// path (`stream::engine`) — and its name, in which `*` stands for any
/// run of characters.
struct CitedTest {
    line: usize,
    place: String,
    name: String,
}

/// The tests named in `design`'s backtick spans, fenced blocks skipped.
fn cited_tests(design: &str) -> Vec<CitedTest> {
    let mut out = Vec::new();
    let mut fenced = false;
    let mut text = String::new();
    for line in design.lines() {
        let fence = line.starts_with("```");
        fenced ^= fence;
        if !fenced && !fence {
            text.push_str(line);
        }
        text.push('\n');
    }
    let word = |s: &str, extra: &str| {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || extra.contains(c))
    };
    let mut spans = text.split('`');
    let mut at = spans.next().map_or(0, str::len);
    while let (Some(raw), rest) = (spans.next(), spans.next()) {
        let line = text[..at].matches('\n').count() + 1;
        at += raw.len() + 2 + rest.map_or(0, str::len);
        let span = raw.split_whitespace().collect::<Vec<_>>().join(" ");
        let (place, names) = match span.find(".rs::") {
            Some(i) => (&span[..i + 3], &span[i + 5..]),
            None => match span.find("::tests::") {
                Some(i) => (&span[..i], &span[i + 9..]),
                None => continue,
            },
        };
        let names: Vec<&str> = match names.strip_prefix('{').and_then(|n| n.strip_suffix('}')) {
            Some(list) => list.split(',').map(str::trim).collect(),
            None => vec![names],
        };
        if word(place, "/.:") && names.iter().all(|n| word(n, "*")) {
            out.extend(names.into_iter().map(|name| CitedTest {
                line,
                place: place.to_string(),
                name: name.to_string(),
            }));
        }
    }
    out
}

/// Whether `file` (a path relative to the repository root, `/`-separated)
/// is the file `place` names: a file name with the directories given, or
/// the module path's last module as `name.rs` or as a crate's `lib.rs`,
/// the path's other modules among the file's directories.
fn is_place(file: &str, place: &str) -> bool {
    if place.ends_with(".rs") {
        return file == place || file.ends_with(&format!("/{place}"));
    }
    let mut modules: Vec<&str> = place.split("::").collect();
    let last = modules.pop().unwrap_or_default();
    let dirs: Vec<&str> = file.split('/').collect();
    (file.ends_with(&format!("/{last}.rs")) || file.ends_with(&format!("/{last}/src/lib.rs")))
        && modules.iter().all(|m| dirs.contains(m))
}

/// Whether `text` declares a `fn` whose name matches `pattern`, where a
/// `*` matches any run of characters.
fn declares_fn(text: &str, pattern: &str) -> bool {
    let matches = |name: &str| match pattern.split_once('*') {
        Some((head, tail)) => {
            name.len() >= head.len() + tail.len() && name.starts_with(head) && name.ends_with(tail)
        }
        None => name == pattern,
    };
    text.split("fn ").skip(1).any(|rest| {
        matches(
            rest.split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                .next()
                .unwrap_or_default(),
        )
    })
}

#[test]
fn every_test_the_design_document_names_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = fs::read_to_string(root.join(DESIGN)).expect("read the design document");
    let mut files = Vec::new();
    for r in ["crates", "src", "tests"] {
        collect(&root.join(r), &mut files);
    }
    let sources: Vec<(String, String)> = files
        .iter()
        .filter(|f| f.extension().is_some_and(|e| e == "rs"))
        .map(|f| {
            let shown = f.strip_prefix(root).unwrap_or(f).to_string_lossy();
            let text = fs::read_to_string(f).unwrap_or_else(|e| panic!("{}: {e}", f.display()));
            (shown.replace('\\', "/"), text)
        })
        .collect();
    let cited = cited_tests(&design);
    assert!(
        cited.len() >= 50,
        "only {} tests cited: the scan is broken",
        cited.len()
    );
    let missing: Vec<String> = cited
        .iter()
        .filter(|c| {
            !sources
                .iter()
                .any(|(file, text)| is_place(file, &c.place) && declares_fn(text, &c.name))
        })
        .map(|c| format!("{DESIGN}:{}: `{}::{}`", c.line, c.place, c.name))
        .collect();
    assert!(
        missing.is_empty(),
        "tests named in {DESIGN} that no file of that name declares:\n{}",
        missing.join("\n")
    );
}

#[test]
fn cited_tests_are_read_in_every_form() {
    let design = "`a.rs::one` and `b/c.rs::{two, three}`, `x::y::tests::four`\n\
                  `stream::engine::tests::{five,\n six}` `d.rs::m::f` `a.rs` `e::tests`\n\
                  ```text\n`f.rs::fenced`\n```\n`m::tests::*_agree`";
    let cited = cited_tests(design);
    let got: Vec<_> = cited
        .iter()
        .map(|c| (c.line, c.place.as_str(), c.name.as_str()))
        .collect();
    assert_eq!(
        got,
        [
            (1, "a.rs", "one"),
            (1, "b/c.rs", "two"),
            (1, "b/c.rs", "three"),
            (1, "x::y", "four"),
            (2, "stream::engine", "five"),
            (2, "stream::engine", "six"),
            (7, "m", "*_agree"),
        ]
    );
    assert!(is_place("crates/stream/src/engine.rs", "stream::engine"));
    assert!(!is_place("crates/core/src/engine.rs", "stream::engine"));
    assert!(is_place("crates/index/src/lib.rs", "index"));
    assert!(is_place(
        "crates/bench/tests/name_alloc.rs",
        "bench/tests/name_alloc.rs"
    ));
    assert!(!is_place(
        "crates/core/tests/name_alloc.rs",
        "bench/tests/name_alloc.rs"
    ));
    assert!(declares_fn("fn a() {}\n    fn b_agree_x() {}", "b_*_x"));
    assert!(!declares_fn("fn ab() {}", "a"));
}

#[test]
fn every_design_citation_names_a_heading() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = fs::read_to_string(root.join(DESIGN)).expect("read the design document");
    let headings = headings(&design);
    let mut files = Vec::new();
    for r in ROOTS {
        collect(&root.join(r), &mut files);
    }
    files.sort();
    let (mut cited, mut stale) = (0, Vec::new());
    for file in &files {
        // Binary files hold no citations.
        let Ok(text) = fs::read_to_string(file) else {
            continue;
        };
        for (line, name) in citations(&text) {
            cited += 1;
            if !headings.contains(&name.as_str()) {
                let shown = file.strip_prefix(root).unwrap_or(file);
                stale.push(format!("{}:{line}: \"{name}\"", shown.display()));
            }
        }
    }
    assert!(
        cited >= 10,
        "only {cited} citations found: the scan is broken"
    );
    assert!(
        stale.is_empty(),
        "citations naming no `##` / `###` heading of {DESIGN}:\n{}",
        stale.join("\n")
    );
}

#[test]
fn the_design_document_stays_within_its_line_cap() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = fs::read_to_string(root.join(DESIGN)).expect("read the design document");
    let lines = design.lines().count();
    assert!(
        lines <= LINE_CAP,
        "{DESIGN} holds {lines} lines, over its cap of {LINE_CAP}: move measurements to \
         CHANGES.md and say what is more briefly"
    );
}

#[test]
fn citations_are_read_across_comment_lines() {
    let text = format!(
        "// see {DESIGN} \"Concurrent\n// service\" and ({DESIGN},\n//! \"Not done\" (ii)); {DESIGN}'s words"
    );
    assert_eq!(
        citations(&text),
        vec![
            (1, "Concurrent service".to_string()),
            (2, "Not done".to_string())
        ]
    );
    assert_eq!(headings("# T\n## A b\n### C\n#### D\n"), ["A b", "C"]);
}
