//! Every citation of a design-document section outside the history file
//! names a heading that exists.  A citation is the document's file name
//! followed by a double-quoted section name, the way comments, tests, CI,
//! the verify skill and ROADMAP.md write it; it must match a `##` or `###`
//! heading exactly.  Renaming or deleting a cited section fails here with
//! the place of every stale citation.  CHANGES.md is history and cites
//! sections as they were, so it is not scanned.  The design document
//! also stays within [`LINE_CAP`] lines: it says what is, and a PR's own
//! measurements go to CHANGES.md.

use std::fs;
use std::path::{Path, PathBuf};

/// The design document's file name, split so that this file cites nothing.
const DESIGN: &str = concat!("DESIGN", ".md");

/// The most lines the design document may hold.
const LINE_CAP: usize = 1_100;

/// Where citations are looked for, relative to the repository root.
const ROOTS: [&str; 7] = [
    "crates",
    "src",
    "tests",
    "xtask",
    ".github",
    ".claude",
    "ROADMAP.md",
];

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
