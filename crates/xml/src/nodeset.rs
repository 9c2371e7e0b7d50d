//! Node sets: subsets of `dom` in document order.
//!
//! A [`NodeSet`] is a deduplicated `Vec<NodeId>` sorted ascending — i.e. in
//! document order, since [`NodeId`] *is* the pre-order index.  All set
//! operations preserve that invariant.  Membership is `O(log n)`; union and
//! intersection are linear merges.
//!
//! [`DenseSet`] is the companion *dense* representation: a capacity-bounded
//! bitset over node indices.  The axis kernels mark origins in it and put
//! what their walks reach out of order back in order through it (a
//! [`Scratch`](crate::axes::Scratch) holds two, reused across calls), and [`NodeSet::from_unsorted_with_capacity`] routes large
//! unsorted intermediate sets — the shape the CVT strategy's accumulation
//! loops produce — through it instead of a comparison sort.

use crate::node::NodeId;
use std::fmt;

/// A set of nodes, maintained sorted in document order and duplicate-free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeSet {
    nodes: Vec<NodeId>,
}

impl NodeSet {
    /// The empty set.
    pub fn new() -> Self {
        NodeSet { nodes: Vec::new() }
    }

    /// Pre-allocates capacity.
    pub fn with_capacity(n: usize) -> Self {
        NodeSet {
            nodes: Vec::with_capacity(n),
        }
    }

    /// A singleton set.
    pub fn singleton(n: NodeId) -> Self {
        NodeSet { nodes: vec![n] }
    }

    /// Builds from an arbitrary vector: sorts and deduplicates.
    pub fn from_unsorted(mut nodes: Vec<NodeId>) -> Self {
        nodes.sort_unstable();
        nodes.dedup();
        NodeSet { nodes }
    }

    /// Builds from an arbitrary vector of nodes drawn from a document with
    /// `capacity` nodes, choosing the cheaper of two routes: a comparison
    /// sort for sparse inputs, or a [`DenseSet`] radix pass (`O(k +
    /// capacity/64)`) for dense ones — the intermediate-set shape the CVT
    /// strategy's per-origin accumulation loops produce.
    pub fn from_unsorted_with_capacity(capacity: usize, nodes: Vec<NodeId>) -> Self {
        // Below ~capacity/64 elements the bitset sweep's word scan
        // dominates; past it the sort's k·log k does.
        if capacity == 0 || nodes.len() < capacity / 64 {
            return NodeSet::from_unsorted(nodes);
        }
        let mut dense = DenseSet::with_capacity(capacity);
        for &n in &nodes {
            dense.insert(n);
        }
        dense.to_node_set()
    }

    /// Builds from a vector the caller guarantees is sorted ascending and
    /// duplicate-free (checked in debug builds).
    pub fn from_sorted_vec(nodes: Vec<NodeId>) -> Self {
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "not sorted/deduped");
        NodeSet { nodes }
    }

    /// Number of nodes in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Membership test, `O(log n)`.
    #[inline]
    pub fn contains(&self, n: NodeId) -> bool {
        self.nodes.binary_search(&n).is_ok()
    }

    /// The position (0-based) of `n` in document order within the set.
    pub fn position_of(&self, n: NodeId) -> Option<usize> {
        self.nodes.binary_search(&n).ok()
    }

    /// The first node in document order (`first_<doc` of the paper).
    #[inline]
    pub fn first(&self) -> Option<NodeId> {
        self.nodes.first().copied()
    }

    /// The last node in document order.
    #[inline]
    pub fn last(&self) -> Option<NodeId> {
        self.nodes.last().copied()
    }

    /// Iterates in document order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + '_ {
        self.nodes.iter().copied()
    }

    /// Read-only view of the underlying sorted slice.
    #[inline]
    pub fn as_slice(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Inserts a node, keeping order; `O(n)` worst case, `O(1)` when
    /// appending in document order (the common construction pattern).
    pub fn insert(&mut self, n: NodeId) {
        match self.nodes.last() {
            Some(&l) if l < n => self.nodes.push(n),
            Some(&l) if l == n => {}
            None => self.nodes.push(n),
            _ => {
                if let Err(pos) = self.nodes.binary_search(&n) {
                    self.nodes.insert(pos, n);
                }
            }
        }
    }

    /// Set union (linear merge; branch-free, as which side is smaller is a
    /// coin flip per step).
    pub fn union(&self, other: &NodeSet) -> NodeSet {
        let (a, b) = (&self.nodes, &other.nodes);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            out.push(x.min(y));
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        NodeSet { nodes: out }
    }

    /// Set intersection (linear merge).
    pub fn intersect(&self, other: &NodeSet) -> NodeSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.nodes.len() && j < other.nodes.len() {
            let (a, b) = (self.nodes[i], other.nodes[j]);
            match a.cmp(&b) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a);
                    i += 1;
                    j += 1;
                }
            }
        }
        NodeSet { nodes: out }
    }

    /// Set difference `self \ other` (linear merge).
    pub fn difference(&self, other: &NodeSet) -> NodeSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.nodes.len() {
            if j >= other.nodes.len() {
                out.extend_from_slice(&self.nodes[i..]);
                break;
            }
            let (a, b) = (self.nodes[i], other.nodes[j]);
            match a.cmp(&b) {
                std::cmp::Ordering::Less => {
                    out.push(a);
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        NodeSet { nodes: out }
    }

    /// Keeps only nodes satisfying `pred`.
    pub fn retain(&mut self, mut pred: impl FnMut(NodeId) -> bool) {
        self.nodes.retain(|&n| pred(n));
    }

    /// Consumes the set, returning the sorted vector.
    pub fn into_vec(self) -> Vec<NodeId> {
        self.nodes
    }

    /// Empties the set, keeping its allocation (for buffer reuse in the
    /// axis kernels).
    pub fn clear(&mut self) {
        self.nodes.clear();
    }

    /// Mutable access to the underlying vector for in-crate kernels that
    /// build results in place.  Callers must restore the sorted/deduped
    /// invariant before the set is observed.
    #[inline]
    pub(crate) fn vec_mut(&mut self) -> &mut Vec<NodeId> {
        &mut self.nodes
    }
}

/// A dense, capacity-bounded set of nodes: one bit per pre-order index.
///
/// Insert/membership are `O(1)`; clearing and conversion to a sorted
/// [`NodeSet`] are `O(capacity/64)`.  Used for the axis kernels' mark/flag
/// sweeps and as the dense leg of the hybrid
/// [`NodeSet::from_unsorted_with_capacity`] constructor.
#[derive(Debug, Clone, Default)]
pub struct DenseSet {
    words: Vec<u64>,
    capacity: usize,
}

impl DenseSet {
    /// An empty set with zero capacity (grow with
    /// [`DenseSet::ensure_capacity`]).
    pub fn new() -> Self {
        DenseSet::default()
    }

    /// An empty set able to hold indices `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        DenseSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The exclusive upper bound on insertable indices.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Grows the capacity to at least `capacity`, preserving contents.
    pub fn ensure_capacity(&mut self, capacity: usize) {
        if capacity > self.capacity {
            self.words.resize(capacity.div_ceil(64), 0);
            self.capacity = capacity;
        }
    }

    /// Removes all members; `O(capacity/64)`.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Inserts a node; returns whether it was newly added.
    ///
    /// # Panics
    /// Panics if the node's index is at or beyond the capacity.
    #[inline]
    pub fn insert(&mut self, n: NodeId) -> bool {
        let i = n.index();
        assert!(i < self.capacity, "DenseSet index {i} out of capacity");
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let fresh = self.words[w] & b == 0;
        self.words[w] |= b;
        fresh
    }

    /// Membership test; indices at or beyond capacity are absent.
    #[inline]
    pub fn contains(&self, n: NodeId) -> bool {
        let i = n.index();
        i < self.capacity && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of members (popcount over the words).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no members are set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Inserts every node of an iterator.
    pub fn extend(&mut self, iter: impl IntoIterator<Item = NodeId>) {
        for n in iter {
            self.insert(n);
        }
    }

    /// In-place union with another dense set.
    ///
    /// # Panics
    /// Panics if `other` has larger capacity than `self`.
    pub fn union_with(&mut self, other: &DenseSet) {
        assert!(other.capacity <= self.capacity, "capacity mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Appends the members with index in `lo..=hi` that `keep` accepts to
    /// `out`, ascending: `O((hi − lo)/64 + members)`.  The axis kernels'
    /// ordering primitive — nodes reached out of document order are
    /// [`insert`](DenseSet::insert)ed, then read back in order over the
    /// span that was written rather than over the whole capacity.
    pub fn append_span_to(
        &self,
        lo: usize,
        hi: usize,
        out: &mut Vec<NodeId>,
        mut keep: impl FnMut(NodeId) -> bool,
    ) {
        if lo > hi || lo >= self.capacity {
            return;
        }
        let hi = hi.min(self.capacity - 1);
        for wi in lo / 64..=hi / 64 {
            let mut bits = self.words[wi];
            if wi == lo / 64 {
                bits &= !0 << (lo % 64);
            }
            if wi == hi / 64 {
                bits &= !0 >> (63 - hi % 64);
            }
            while bits != 0 {
                let n = NodeId::from_index(wi * 64 + bits.trailing_zeros() as usize);
                if keep(n) {
                    out.push(n);
                }
                bits &= bits - 1;
            }
        }
    }

    /// Converts to the sorted sparse representation.
    pub fn to_node_set(&self) -> NodeSet {
        let mut nodes = Vec::new();
        self.append_span_to(0, usize::MAX, &mut nodes, |_| true);
        NodeSet { nodes }
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        NodeSet::from_unsorted(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = NodeId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, NodeId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.nodes.iter().copied()
    }
}

impl fmt::Display for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[usize]) -> NodeSet {
        NodeSet::from_unsorted(v.iter().map(|&i| NodeId::from_index(i)).collect())
    }

    #[test]
    fn from_unsorted_sorts_and_dedups() {
        let s = ids(&[5, 1, 3, 1, 5]);
        assert_eq!(s.len(), 3);
        let v: Vec<usize> = s.iter().map(|n| n.index()).collect();
        assert_eq!(v, vec![1, 3, 5]);
    }

    #[test]
    fn union_intersect_difference() {
        let a = ids(&[1, 3, 5, 7]);
        let b = ids(&[3, 4, 5, 8]);
        assert_eq!(a.union(&b), ids(&[1, 3, 4, 5, 7, 8]));
        assert_eq!(a.intersect(&b), ids(&[3, 5]));
        assert_eq!(a.difference(&b), ids(&[1, 7]));
        assert_eq!(b.difference(&a), ids(&[4, 8]));
    }

    #[test]
    fn union_with_empty() {
        let a = ids(&[2, 4]);
        let e = NodeSet::new();
        assert_eq!(a.union(&e), a);
        assert_eq!(e.union(&a), a);
        assert_eq!(a.intersect(&e), e);
        assert_eq!(a.difference(&e), a);
        assert_eq!(e.difference(&a), e);
    }

    #[test]
    fn contains_and_position() {
        let s = ids(&[10, 20, 30]);
        assert!(s.contains(NodeId::from_index(20)));
        assert!(!s.contains(NodeId::from_index(25)));
        assert_eq!(s.position_of(NodeId::from_index(30)), Some(2));
        assert_eq!(s.position_of(NodeId::from_index(11)), None);
    }

    #[test]
    fn insert_maintains_order() {
        let mut s = NodeSet::new();
        s.insert(NodeId::from_index(5));
        s.insert(NodeId::from_index(2));
        s.insert(NodeId::from_index(9));
        s.insert(NodeId::from_index(5)); // duplicate
        assert_eq!(s, ids(&[2, 5, 9]));
    }

    #[test]
    fn first_and_last() {
        let s = ids(&[4, 2, 8]);
        assert_eq!(s.first().map(|n| n.index()), Some(2));
        assert_eq!(s.last().map(|n| n.index()), Some(8));
        assert_eq!(NodeSet::new().first(), None);
    }

    #[test]
    fn retain_filters() {
        let mut s = ids(&[1, 2, 3, 4, 5]);
        s.retain(|n| n.index() % 2 == 1);
        assert_eq!(s, ids(&[1, 3, 5]));
    }

    #[test]
    fn display_formatting() {
        let s = ids(&[1, 2]);
        assert_eq!(s.to_string(), "{n1, n2}");
    }

    #[test]
    fn from_iterator() {
        let s: NodeSet = (0..4).map(NodeId::from_index).collect();
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn dense_set_insert_contains_len() {
        let mut d = DenseSet::with_capacity(130);
        assert!(d.is_empty());
        assert!(d.insert(NodeId::from_index(0)));
        assert!(d.insert(NodeId::from_index(64)));
        assert!(d.insert(NodeId::from_index(129)));
        assert!(!d.insert(NodeId::from_index(64))); // duplicate
        assert_eq!(d.len(), 3);
        assert!(d.contains(NodeId::from_index(129)));
        assert!(!d.contains(NodeId::from_index(1)));
        // Beyond capacity: absent, not a panic.
        assert!(!d.contains(NodeId::from_index(1000)));
        d.clear();
        assert!(d.is_empty());
        assert!(!d.contains(NodeId::from_index(64)));
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn dense_set_insert_beyond_capacity_panics() {
        let mut d = DenseSet::with_capacity(10);
        d.insert(NodeId::from_index(10));
    }

    #[test]
    fn dense_set_iteration_is_sorted() {
        let mut d = DenseSet::with_capacity(200);
        for i in [150usize, 3, 64, 63, 65, 0, 199] {
            d.insert(NodeId::from_index(i));
        }
        assert_eq!(d.to_node_set(), ids(&[0, 3, 63, 64, 65, 150, 199]));
        // A span is cut exactly, inside a word and across words, and may
        // be filtered on the way out.
        let mut v = Vec::new();
        d.append_span_to(3, 64, &mut v, |_| true);
        d.append_span_to(65, 1_000, &mut v, |n| n.index() != 150);
        d.append_span_to(5, 4, &mut v, |_| true);
        d.append_span_to(200, 300, &mut v, |_| true);
        assert_eq!(NodeSet::from_sorted_vec(v), ids(&[3, 63, 64, 65, 199]));
    }

    #[test]
    fn dense_set_grow_and_union() {
        let mut a = DenseSet::with_capacity(64);
        a.insert(NodeId::from_index(5));
        a.ensure_capacity(256);
        assert!(a.contains(NodeId::from_index(5)));
        a.insert(NodeId::from_index(255));
        let mut b = DenseSet::with_capacity(128);
        b.extend([NodeId::from_index(5), NodeId::from_index(70)]);
        a.union_with(&b);
        assert_eq!(a.to_node_set(), ids(&[5, 70, 255]));
    }

    #[test]
    fn hybrid_constructor_matches_sort_route() {
        // Dense input (≥ capacity/64 members) takes the bitset route; both
        // routes must agree with the plain sort.
        let cap = 1024;
        let dense_input: Vec<NodeId> = (0..cap)
            .rev()
            .step_by(3)
            .chain(0..50)
            .map(NodeId::from_index)
            .collect();
        let sparse_input: Vec<NodeId> = [9usize, 2, 9, 500].map(NodeId::from_index).to_vec();
        for input in [dense_input, sparse_input] {
            let hybrid = NodeSet::from_unsorted_with_capacity(cap, input.clone());
            let sorted = NodeSet::from_unsorted(input);
            assert_eq!(hybrid, sorted);
        }
    }
}
