//! Interned element/attribute names (the labeling alphabet Σ of the paper).
//!
//! Every element label and attribute name is interned into a per-document
//! [`NameTable`]; a [`Name`] is a `u32` index into it.  Node tests then
//! compare labels with a single integer comparison, which keeps the per-node
//! cost of `T(t)` constant — required for the `O(|D|)` axis-step bound of
//! Definition 1 / [11].

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An interned name: an index into the owning document's [`NameTable`].
///
/// `Name`s from different documents must not be mixed; they are plain
/// indices.  Equality of two `Name`s from the same table is equality of the
/// underlying strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name(pub(crate) u32);

impl Name {
    /// The raw index of the interned name.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "name#{}", self.0)
    }
}

/// An interning table for names.
///
/// Σ in the paper's data model: the set of XML tags appearing in the
/// document, plus any names interned while compiling queries against it
/// (so a query's node test `foo` resolves to a `Name` even if no `foo`
/// element exists).
///
/// Each name is allocated once: the index order and the lookup table share
/// one `Arc<str>`.  The lookup table is std's `HashMap` (SipHash, seeded
/// per process), because the names are chosen by whoever wrote the
/// document.
#[derive(Debug, Default)]
pub struct NameTable {
    strings: Vec<Arc<str>>,
    index: HashMap<Arc<str>, Name>,
    /// Number of [`NameTable::get`] calls ever made against this table —
    /// the per-evaluation name-resolution work the compiled-query cache is
    /// supposed to eliminate.  Observable via
    /// [`NameTable::lookup_count`]; tests assert it stays flat across
    /// repeated evaluations of a cached query.  Counted in debug builds
    /// only, so release lookups stay pure reads (no shared-cache-line
    /// atomic traffic on concurrently shared documents).
    lookups: AtomicU64,
}

impl Clone for NameTable {
    fn clone(&self) -> Self {
        NameTable {
            strings: self.strings.clone(),
            index: self.index.clone(),
            lookups: AtomicU64::new(self.lookups.load(Ordering::Relaxed)),
        }
    }
}

impl NameTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning the existing [`Name`] if already present.
    pub fn intern(&mut self, s: &str) -> Name {
        if let Some(&n) = self.index.get(s) {
            return n;
        }
        let n = Name(u32::try_from(self.strings.len()).expect("more than u32::MAX names"));
        let shared: Arc<str> = s.into();
        self.strings.push(Arc::clone(&shared));
        self.index.insert(shared, n);
        n
    }

    /// Looks up a name without interning it.
    pub fn get(&self, s: &str) -> Option<Name> {
        #[cfg(debug_assertions)]
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.index.get(s).copied()
    }

    /// How many [`NameTable::get`] lookups this table has served (see the
    /// field docs; used to verify compiled queries do zero per-evaluation
    /// name resolution).  Always zero in release builds, where the counter
    /// is compiled out.
    pub fn lookup_count(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Returns the string for an interned name.
    ///
    /// # Panics
    /// Panics if `n` was not produced by this table.
    pub fn resolve(&self, n: Name) -> &str {
        &self.strings[n.index()]
    }

    /// Iterates the interned strings in [`Name`] index order (the order
    /// the snapshot writer serializes and the reader re-interns, so
    /// indices — and therefore the packed kind words and postings
    /// offsets — survive a round trip unchanged).
    pub fn strings(&self) -> impl ExactSizeIterator<Item = &str> {
        self.strings.iter().map(|s| &**s)
    }

    /// Number of distinct names interned so far.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether no names have been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = NameTable::new();
        let a1 = t.intern("alpha");
        let b = t.intern("beta");
        let a2 = t.intern("alpha");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut t = NameTable::new();
        let n = t.intern("chapter");
        assert_eq!(t.resolve(n), "chapter");
    }

    #[test]
    fn get_does_not_intern() {
        let mut t = NameTable::new();
        assert!(t.get("x").is_none());
        let n = t.intern("x");
        assert_eq!(t.get("x"), Some(n));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn empty_table() {
        let t = NameTable::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn many_names_distinct() {
        let mut t = NameTable::new();
        let names: Vec<Name> = (0..1000).map(|i| t.intern(&format!("n{i}"))).collect();
        for (i, n) in names.iter().enumerate() {
            assert_eq!(t.resolve(*n), format!("n{i}"));
        }
    }
}
