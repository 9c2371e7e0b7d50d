//! Every package of the workspace inherits the workspace lint table, so
//! `unsafe_code = "deny"` and clippy's `undocumented_unsafe_blocks` reach
//! it: a package added without `[lints] workspace = true` would escape
//! both.  The packages are the root manifest's `members` plus the root
//! package itself.

use std::fs;
use std::path::Path;

/// The quoted entries of the root manifest's `members = [...]` list.
fn members(manifest: &str) -> Vec<&str> {
    let list = manifest
        .split_once("\nmembers = [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .expect("the root manifest has a `members` list")
        .0;
    list.split('"').skip(1).step_by(2).collect()
}

/// Whether `manifest` has a `[lints]` table holding `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut table = "";
    manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or_default().trim())
        .any(|l| {
            if l.starts_with('[') {
                table = l;
            }
            table == "[lints]" && l.replace(' ', "") == "workspace=true"
        })
}

#[test]
fn every_package_inherits_the_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |dir: &str| {
        let path = root.join(dir).join("Cargo.toml");
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let workspace = read(".");
    let packages: Vec<&str> = std::iter::once(".").chain(members(&workspace)).collect();
    assert!(packages.len() >= 8, "only {packages:?}: the scan is broken");
    let escaping: Vec<&str> = packages
        .into_iter()
        .filter(|dir| !inherits_workspace_lints(&read(dir)))
        .collect();
    assert!(
        escaping.is_empty(),
        "packages without `[lints] workspace = true`: {escaping:?}"
    );
}

#[test]
fn a_lints_table_counts_only_where_it_inherits() {
    let lints = "[package]\nname = \"a\"\n\n[lints]\nworkspace = true\n";
    assert!(inherits_workspace_lints(lints));
    assert!(!inherits_workspace_lints(
        &lints.replace("[lints]", "[dependencies]")
    ));
    assert!(!inherits_workspace_lints(
        &lints.replace("workspace", "# workspace")
    ));
}
