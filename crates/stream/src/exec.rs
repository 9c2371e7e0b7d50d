//! The one-pass stack-automaton executor.
//!
//! [`Exec`] consumes the tokenizer's event stream and keeps the active
//! automaton states of every open element on two shared stacks:
//!
//! * a `child` state expects its step to match among the element's
//!   children;
//! * a `desc` state expects its step anywhere in the element's subtree.
//!
//! Each open element holds a **mark**: the lengths of both stacks when it
//! opened, so the states it registered are the stacks' tails above the
//! mark.  A node is tested against its parent's `child` range and against
//! the whole `desc` stack (every open ancestor's descendant expectations);
//! closing an element truncates both stacks to its mark.  No state is
//! copied per element.
//!
//! When a node matches a state's step, the step's predicate instances are
//! opened (one **group** per predicate, one **atom** cell per existence
//! atom, each atom backed by a sub-program started at the matching node)
//! and the state advances: `self` and or-`self` parts are checked
//! inline, `attribute` steps are checked against the start tag's
//! attributes, and child/descendant expectations are pushed above the
//! node's mark.  A state's **guard** names the last group opened along
//! its derivation; every group links to the guard it was opened under, so
//! one `u32` names a whole chain and `State` is `Copy`.
//! Completing the final step of the main program records a **candidate**
//! (the node's would-be pre-order id plus its guard); completing an atom
//! program records a witness for that atom.
//!
//! Nothing is ever un-recorded: atoms are monotone (false until a witness
//! arrives), so element close needs no predicate bookkeeping — an existence
//! predicate that never found a witness simply stays false.  At end of
//! stream, [`Exec::finalize`] evaluates every candidate's guard chain
//! (memoized; the dependency order follows creation order, so the
//! recursion terminates), then sorts and deduplicates by pre-order id —
//! this is the *buffered emission* that restores document order when the
//! same node is derivable more than once or attribute matches from
//! distinct states interleave.
//!
//! Memory is `O(depth · live states + predicate instances + candidates)`:
//! the state stacks are bounded by the open path, but groups, atom cells
//! and candidates grow by one per predicate instance or match and are
//! kept until [`Exec::finalize`].

use crate::compile::{CStep, Lit, PExpr, PredTree, ResultKind, SAxis, STest, StreamQuery};
use minctx_core::value::string_to_number;
use minctx_syntax::CmpOp;
use minctx_xml::Attrs;

/// The kind of a matched (or visited) node, mirroring the arena's
/// `NodeKind` without interned names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamNodeKind {
    Root,
    Element,
    Attribute,
    Text,
    Comment,
    Pi,
}

/// One matched node of a streamed node-set query, in document order.
///
/// `ordinal` is the pre-order index the arena builder would assign the
/// node when parsing the same input under the same options — i.e. it
/// equals `NodeId::index()` of the corresponding node in
/// `minctx_xml::parse(...)`, which is what the differential suite checks.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamMatch {
    pub ordinal: u32,
    pub kind: StreamNodeKind,
    /// Element tag / attribute name / PI target.
    pub name: Option<Box<str>>,
    /// The node's own string value where it is locally available:
    /// attribute value, text content, comment content, PI data.  `None`
    /// for elements (an element's string value spans its subtree; use the
    /// arena path when you need it).
    pub value: Option<Box<str>>,
}

/// What a streamed evaluation produced.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamValue {
    /// Matched nodes in document order, deduplicated.
    Nodes(Vec<StreamMatch>),
    /// `count(π)`.
    Number(f64),
    /// `boolean(π)`.
    Boolean(bool),
}

impl StreamValue {
    /// The matched ordinals, for node-set results.
    pub fn ordinals(&self) -> Option<Vec<u32>> {
        match self {
            StreamValue::Nodes(ms) => Some(ms.iter().map(|m| m.ordinal).collect()),
            _ => None,
        }
    }
}

/// A guard chain: `0` is the empty chain, `g` requires group `g − 1` and
/// then that group's own `parent` chain.
type Guard = u32;

/// Which completion a state feeds.
#[derive(Clone, Copy)]
enum Target {
    Main,
    Atom(u32),
}

/// An active automaton state: program `prog` waiting for `step` to match.
#[derive(Clone, Copy)]
struct State {
    prog: u32,
    step: u16,
    target: Target,
    guard: Guard,
}

/// One opened predicate instance, and the guard-chain link through it.
struct Group<'q> {
    tree: &'q PredTree,
    atom_base: usize,
    /// The guard the group was opened under.
    parent: Guard,
    /// Finalize-time memo.
    val: Option<bool>,
}

/// One existence-atom cell: monotone false → true.
#[derive(Default)]
struct Atom {
    /// An unconditional witness was found.
    definite: bool,
    /// Guard chains of conditional witnesses (evaluated at finalize).
    witnesses: Vec<Guard>,
    /// Finalize-time memo.
    resolved: Option<bool>,
}

/// A completed main-path match awaiting guard resolution.
struct Candidate {
    ordinal: u32,
    guard: Guard,
    desc: Option<StreamMatch>,
}

/// A node as seen by the automaton while its event is being processed.
#[derive(Clone, Copy)]
pub(crate) struct NodeView<'e> {
    ordinal: u32,
    kind: StreamNodeKind,
    name: Option<&'e str>,
    /// The node's own string value, where locally available.
    content: Option<&'e str>,
    /// For elements: the start tag's attributes (values decoded).
    attrs: Option<Attrs<'e>>,
    /// Whether child/descendant expectations can be registered (elements
    /// and the root hold a mark; leaves and attributes do not).
    has_mark: bool,
}

pub(crate) struct Exec<'q> {
    sq: &'q StreamQuery,
    /// Child expectations of the open elements, innermost last.
    child: Vec<State>,
    /// Descendant expectations of the open elements, innermost last.
    desc: Vec<State>,
    /// Per open element, the root first: where its states begin in
    /// `child` and in `desc`.
    marks: Vec<(u32, u32)>,
    groups: Vec<Group<'q>>,
    atoms: Vec<Atom>,
    pending: Vec<Candidate>,
    /// `Exists` resolved unconditionally true: stop the stream.
    done: bool,
}

impl<'q> Exec<'q> {
    pub fn new(sq: &'q StreamQuery) -> Exec<'q> {
        let mut ex = Exec {
            sq,
            child: Vec::new(),
            desc: Vec::new(),
            marks: vec![(0, 0)],
            groups: Vec::new(),
            atoms: Vec::new(),
            pending: Vec::new(),
            done: false,
        };
        // Launch the main program at the document root (ordinal 0).
        let root = NodeView {
            ordinal: 0,
            kind: StreamNodeKind::Root,
            name: None,
            content: None,
            attrs: None,
            has_mark: true,
        };
        let main = State {
            prog: 0,
            step: 0,
            target: Target::Main,
            guard: 0,
        };
        if ex.sq.programs[0].steps.is_empty() {
            // `/` — the root node itself is the result.
            ex.complete(Target::Main, 0, &root);
        } else {
            ex.start_from(main, &root);
        }
        ex
    }

    /// Whether the stream can stop early (existence answered).
    pub fn finished(&self) -> bool {
        self.done
    }

    // ---- event entry points ------------------------------------------

    pub fn start_element(&mut self, name: &str, attrs: Attrs<'_>, ordinal: u32) {
        let view = NodeView {
            ordinal,
            kind: StreamNodeKind::Element,
            name: Some(name),
            content: None,
            attrs: Some(attrs),
            has_mark: true,
        };
        // What `visit` registers lands above the current tops: that is
        // this element's range, pushed once its parent's are read.
        let mark = (self.child.len() as u32, self.desc.len() as u32);
        self.visit(&view);
        self.marks.push(mark);
    }

    pub fn end_element(&mut self) {
        let (child, desc) = self.marks.pop().expect("end without start");
        debug_assert!(!self.marks.is_empty(), "root mark popped");
        self.child.truncate(child as usize);
        self.desc.truncate(desc as usize);
    }

    /// A text, comment or PI event (one leaf node).
    pub fn leaf(&mut self, kind: StreamNodeKind, name: Option<&str>, content: &str, ordinal: u32) {
        self.visit(&NodeView {
            ordinal,
            kind,
            name,
            content: Some(content),
            attrs: None,
            has_mark: false,
        });
    }

    // ---- automaton core ----------------------------------------------

    /// Advances every state of the parent's `child` range and of the
    /// `desc` stack that `view` satisfies.  Both bounds are fixed before
    /// the first advance, and advances only push past them, so what
    /// `view` registers for its own subtree is not visited here.
    fn visit(&mut self, view: &NodeView) {
        let (child_end, desc_end) = (self.child.len(), self.desc.len());
        let child_start = self.marks.last().expect("root mark always present").0 as usize;
        for i in child_start..child_end {
            let st = self.child[i];
            if self.step_of(st).test_matches(view) {
                self.advance(st, view);
            }
        }
        for i in 0..desc_end {
            let st = self.desc[i];
            if self.step_of(st).test_matches(view) {
                self.advance(st, view);
            }
        }
    }

    fn step_of(&self, st: State) -> &'q CStep {
        &self.sq.programs[st.prog as usize].steps[st.step as usize]
    }

    /// `view` just matched the step `st` waits on (test already checked):
    /// apply the step's value check and predicates, then complete the
    /// program or start its next step at `view`.
    fn advance(&mut self, st: State, view: &NodeView) {
        let cstep = self.step_of(st);
        if let Some((op, lit)) = &cstep.value_check {
            match view.content {
                Some(s) if scalar_cmp(*op, s, lit) => {}
                _ => return,
            }
        }
        let mut guard = st.guard;
        for tree in &cstep.preds {
            let atom_base = self.atoms.len();
            self.atoms
                .extend(tree.atom_progs.iter().map(|_| Atom::default()));
            self.groups.push(Group {
                tree,
                atom_base,
                parent: guard,
                val: None,
            });
            guard = self.groups.len() as Guard;
            for (slot, &p) in tree.atom_progs.iter().enumerate() {
                // Atom programs run from the candidate node with an empty
                // guard chain: their own truth is what feeds the group,
                // and their inner predicates guard only their own
                // witnesses.
                let atom = State {
                    prog: p as u32,
                    step: 0,
                    target: Target::Atom((atom_base + slot) as u32),
                    guard: 0,
                };
                self.start_from(atom, view);
            }
        }
        if st.step as usize + 1 == self.sq.programs[st.prog as usize].steps.len() {
            self.complete(st.target, guard, view);
        } else {
            let next = State {
                step: st.step + 1,
                guard,
                ..st
            };
            self.start_from(next, view);
        }
    }

    /// Begins step `st.step` of `st.prog` at origin `view`: inline `self`
    /// / or-`self` / `attribute` parts, a push above `view`'s mark for the
    /// rest.
    fn start_from(&mut self, st: State, view: &NodeView) {
        let cstep = self.step_of(st);
        match cstep.axis {
            SAxis::SelfAxis => {
                if cstep.test_matches(view) {
                    self.advance(st, view);
                }
            }
            SAxis::Attribute => {
                if let Some(attrs) = view.attrs {
                    for (i, (name, value)) in attrs.iter().enumerate() {
                        let av = NodeView {
                            ordinal: view.ordinal + 1 + i as u32,
                            kind: StreamNodeKind::Attribute,
                            name: Some(name),
                            content: Some(value),
                            attrs: None,
                            has_mark: false,
                        };
                        if cstep.test_matches(&av) {
                            self.advance(st, &av);
                        }
                    }
                }
            }
            SAxis::Child | SAxis::Descendant | SAxis::DescendantOrSelf => {
                if cstep.axis == SAxis::DescendantOrSelf && cstep.test_matches(view) {
                    self.advance(st, view);
                }
                if view.has_mark {
                    if cstep.axis == SAxis::Child {
                        self.child.push(st);
                    } else {
                        self.desc.push(st);
                    }
                }
            }
        }
    }

    fn complete(&mut self, target: Target, guard: Guard, view: &NodeView) {
        match target {
            Target::Main => {
                // An existence query stops the stream as soon as a match
                // is *definitely* in: no guards, or every guard group
                // already provable from monotone atom state (e.g. the
                // `[@id]` atom of `boolean(//item[@id])` resolves at the
                // very event that completes the candidate).
                if self.sq.result == ResultKind::Exists && self.chain_definitely_true(guard) {
                    self.done = true;
                    return;
                }
                let desc = (self.sq.result == ResultKind::Nodes).then(|| StreamMatch {
                    ordinal: view.ordinal,
                    kind: view.kind,
                    name: view.name.map(Into::into),
                    value: view.content.map(Into::into),
                });
                self.pending.push(Candidate {
                    ordinal: view.ordinal,
                    guard,
                    desc,
                });
            }
            Target::Atom(aid) => {
                let atom = &mut self.atoms[aid as usize];
                if atom.definite {
                    return;
                }
                if guard == 0 {
                    atom.definite = true;
                    atom.witnesses.clear();
                } else {
                    atom.witnesses.push(guard);
                }
            }
        }
    }

    /// Whether a guard chain is already provably true *mid-stream*.
    /// Atoms are monotone (false may still become true), so only
    /// positive evidence counts: an atom proves nothing under `not()`
    /// until end of stream, while constants prove either polarity.
    fn chain_definitely_true(&self, mut guard: Guard) -> bool {
        fn def_true(ex: &Exec<'_>, e: &PExpr, base: usize) -> bool {
            match e {
                PExpr::Atom(slot) => ex.atoms[base + slot].definite,
                PExpr::Not(x) => def_false(ex, x, base),
                PExpr::And(x, y) => def_true(ex, x, base) && def_true(ex, y, base),
                PExpr::Or(x, y) => def_true(ex, x, base) || def_true(ex, y, base),
                PExpr::Const(b) => *b,
            }
        }
        fn def_false(ex: &Exec<'_>, e: &PExpr, base: usize) -> bool {
            match e {
                // A not-yet-witnessed atom may still find a witness.
                PExpr::Atom(_) => false,
                PExpr::Not(x) => def_true(ex, x, base),
                PExpr::And(x, y) => def_false(ex, x, base) || def_false(ex, y, base),
                PExpr::Or(x, y) => def_false(ex, x, base) && def_false(ex, y, base),
                PExpr::Const(b) => !*b,
            }
        }
        while guard != 0 {
            let g = &self.groups[guard as usize - 1];
            if !def_true(self, &g.tree.expr, g.atom_base) {
                return false;
            }
            guard = g.parent;
        }
        true
    }

    // ---- finalize ----------------------------------------------------

    /// Resolves every candidate's guards, then sorts and deduplicates by
    /// pre-order id (buffered emission: restores document order).
    pub fn finalize(mut self) -> StreamValue {
        if self.done {
            return StreamValue::Boolean(true);
        }
        let mut accepted = std::mem::take(&mut self.pending);
        accepted.retain(|c| self.chain_true(c.guard));
        accepted.sort_by_key(|c| c.ordinal);
        accepted.dedup_by_key(|c| c.ordinal);
        match self.sq.result {
            ResultKind::Nodes => StreamValue::Nodes(
                accepted
                    .into_iter()
                    .map(|c| c.desc.expect("Nodes candidates capture a description"))
                    .collect(),
            ),
            ResultKind::Count => StreamValue::Number(accepted.len() as f64),
            ResultKind::Exists => StreamValue::Boolean(!accepted.is_empty()),
        }
    }

    fn chain_true(&mut self, mut guard: Guard) -> bool {
        while guard != 0 {
            if !self.group_true(guard as usize - 1) {
                return false;
            }
            guard = self.groups[guard as usize - 1].parent;
        }
        true
    }

    /// Memoized group evaluation.  Groups opened at a node can only
    /// depend (through atom witnesses) on groups opened strictly later,
    /// so the recursion is well-founded.
    fn group_true(&mut self, gid: usize) -> bool {
        let Group {
            tree,
            atom_base,
            val,
            ..
        } = self.groups[gid];
        if let Some(v) = val {
            return v;
        }
        let v = self.pexpr_true(&tree.expr, atom_base);
        self.groups[gid].val = Some(v);
        v
    }

    fn pexpr_true(&mut self, e: &PExpr, base: usize) -> bool {
        match e {
            PExpr::Atom(slot) => self.atom_true(base + slot),
            PExpr::Not(x) => !self.pexpr_true(x, base),
            PExpr::And(x, y) => self.pexpr_true(x, base) && self.pexpr_true(y, base),
            PExpr::Or(x, y) => self.pexpr_true(x, base) || self.pexpr_true(y, base),
            PExpr::Const(b) => *b,
        }
    }

    fn atom_true(&mut self, aid: usize) -> bool {
        if self.atoms[aid].definite {
            return true;
        }
        if let Some(v) = self.atoms[aid].resolved {
            return v;
        }
        let witnesses = std::mem::take(&mut self.atoms[aid].witnesses);
        let v = witnesses.iter().any(|&w| self.chain_true(w));
        self.atoms[aid].resolved = Some(v);
        v
    }
}

impl CStep {
    /// Whether a node passes this step's (axis-resolved) test.
    fn test_matches(&self, view: &NodeView) -> bool {
        match &self.test {
            STest::AnyNode => true,
            STest::Element => view.kind == StreamNodeKind::Element,
            STest::ElementNamed(n) => {
                view.kind == StreamNodeKind::Element && view.name == Some(&**n)
            }
            STest::AnyAttr => view.kind == StreamNodeKind::Attribute,
            STest::AttrNamed(n) => {
                view.kind == StreamNodeKind::Attribute && view.name == Some(&**n)
            }
            STest::Text => view.kind == StreamNodeKind::Text,
            STest::Comment => view.kind == StreamNodeKind::Comment,
            STest::PiAny => view.kind == StreamNodeKind::Pi,
            STest::PiNamed(n) => view.kind == StreamNodeKind::Pi && view.name == Some(&**n),
            STest::Never => false,
        }
    }
}

/// `strval op literal`, with the §3.4 scalar dispatch (numbers compare
/// numerically; strings compare textually under equality, numerically
/// under the relational operators) — shared with the arena evaluators
/// through [`string_to_number`].
fn scalar_cmp(op: CmpOp, s: &str, lit: &Lit) -> bool {
    match lit {
        Lit::Num(n) => cmp_num(op, string_to_number(s), *n),
        Lit::Str(t) => {
            if op.is_equality() {
                match op {
                    CmpOp::Eq => s == &**t,
                    _ => s != &**t,
                }
            } else {
                cmp_num(op, string_to_number(s), string_to_number(t))
            }
        }
    }
}

fn cmp_num(op: CmpOp, a: f64, b: f64) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Neq => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}
