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
//! program sets the atom, or records a **witness** (the atom plus the
//! witness's guard) when its own chain is not empty.
//!
//! Groups keep the same marks.  Every witness an atom can receive comes
//! from the subtree of the node that opened the atom's group, so when
//! that node closes its groups are decided.  A witness or candidate whose
//! chain is not decided yet **waits** on the open node that opened the
//! chain's first group, in a list headed at that node's mark.  When a
//! node closes, the executor evaluates its groups, latest first (a
//! group's atoms wait only on groups opened after it), shortens each
//! chain waiting on them to its first group that is still open and lists
//! it on the node that opened that group, and pops its states, groups and
//! atoms.  So a chain is touched once per node it passes through, however
//! deep the document.  A leaf opens and closes in its own event.  A
//! witness whose chain is decided true sets its atom; a candidate whose
//! chain is decided true is folded into the answer at once: `count` adds
//! one, `boolean` stops the stream, a node-set query appends the match.
//! All derivations of a node complete in the node's own event, where they
//! are sorted into one **run** that is folded at most once;
//! [`Exec::finalize`] only restores document order, where a guard decided
//! late put a match behind a later one.
//!
//! Memory is `O(depth · (live states + predicate instances) + answer)`,
//! plus the chains still waiting on an open node's groups.

use crate::compile::{CStep, Lit, PExpr, PredTree, ResultKind, SAxis, STest, StreamQuery};
use minctx_core::value::string_to_number;
use minctx_syntax::CmpOp;
use minctx_xml::Attrs;
use std::cmp::Reverse;
use std::ops::{Index, IndexMut};

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
/// node when parsing the same input — i.e. it
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
    /// The mark of the node that opened it.
    node: u32,
    /// The group's value, set when that node closes.
    val: bool,
}

/// The end of a waiting list.
const NIL: u32 = u32::MAX;

/// What a waiting chain settles once it is decided true.
#[derive(Clone, Copy)]
enum Feeds {
    /// An atom cell: the chain is a witness's.
    Atom(u32),
    /// A run: the chain is one derivation of a matched node.
    Run(u32),
}

/// A guard chain not decided yet, listed on the open node that opened
/// its first group.
#[derive(Clone, Copy)]
struct Waiting {
    guard: Guard,
    feeds: Feeds,
    /// The next entry on the same node's list, or `NIL`.
    next: u32,
}

/// A matched node whose derivations wait on their chains.
struct Run {
    desc: Option<StreamMatch>,
    /// Derivations still waiting.
    live: u32,
    /// Folded at the first derivation decided true.
    folded: bool,
}

/// A completed main-path match, held until its node's event ends.
struct Candidate {
    ordinal: u32,
    guard: Guard,
    desc: Option<StreamMatch>,
}

/// Cells addressed by `u32`; a removed cell is reused by the next insert.
struct Slab<T> {
    cells: Vec<T>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    const fn new() -> Slab<T> {
        Slab {
            cells: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, cell: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.cells[i as usize] = cell;
                i
            }
            None => {
                self.cells.push(cell);
                self.cells.len() as u32 - 1
            }
        }
    }

    fn remove(&mut self, i: u32) {
        self.free.push(i);
    }

    fn is_empty(&self) -> bool {
        self.free.len() == self.cells.len()
    }
}

impl<T> Index<u32> for Slab<T> {
    type Output = T;
    fn index(&self, i: u32) -> &T {
        &self.cells[i as usize]
    }
}

impl<T> IndexMut<u32> for Slab<T> {
    fn index_mut(&mut self, i: u32) -> &mut T {
        &mut self.cells[i as usize]
    }
}

/// An open node: the stack lengths when it opened, so that its states
/// and groups are what lies above them, and the head of the list of
/// chains waiting on its groups.
#[derive(Clone, Copy)]
struct Mark {
    child: u32,
    desc: u32,
    groups: u32,
    waiting: u32,
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
    /// Per open node, the root first.
    marks: Vec<Mark>,
    /// The predicate instances opened at the open nodes.
    groups: Vec<Group<'q>>,
    /// Per atom cell of `groups`: an unconditional witness arrived (atoms
    /// are monotone, false → true).
    atoms: Vec<bool>,
    /// The candidates of the current event.
    fresh: Vec<Candidate>,
    /// The waiting chains.
    waiting: Slab<Waiting>,
    /// The matched nodes some of whose derivations wait.
    runs: Slab<Run>,
    /// The closing node's list, gathered to be sorted.
    closing: Vec<u32>,
    /// The folded matches of a node-set query, in the order they folded.
    answer: Vec<StreamMatch>,
    /// The folded matches of a `count` query.
    count: usize,
    /// `Exists` decided true: stop the stream.
    done: bool,
}

impl<'q> Exec<'q> {
    pub fn new(sq: &'q StreamQuery) -> Exec<'q> {
        let mut ex = Exec {
            sq,
            child: Vec::new(),
            desc: Vec::new(),
            marks: Vec::new(),
            groups: Vec::new(),
            atoms: Vec::new(),
            fresh: Vec::new(),
            waiting: Slab::new(),
            runs: Slab::new(),
            closing: Vec::new(),
            answer: Vec::new(),
            count: 0,
            done: false,
        };
        // Launch the main program at the document root (ordinal 0).
        ex.marks.push(ex.new_mark());
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
        ex.settle_event();
        ex
    }

    /// Whether the stream can stop early (existence answered).
    pub fn finished(&self) -> bool {
        self.done
    }

    // ---- event entry points ------------------------------------------

    pub fn start_element(&mut self, name: &str, attrs: Attrs<'_>, ordinal: u32) {
        self.open(&NodeView {
            ordinal,
            kind: StreamNodeKind::Element,
            name: Some(name),
            content: None,
            attrs: Some(attrs),
            has_mark: true,
        });
    }

    pub fn end_element(&mut self) {
        debug_assert!(self.marks.len() > 1, "end without start");
        self.close();
    }

    /// A text, comment or PI event (one leaf node), which opens and
    /// closes at once.
    pub fn leaf(&mut self, kind: StreamNodeKind, name: Option<&str>, content: &str, ordinal: u32) {
        self.open(&NodeView {
            ordinal,
            kind,
            name,
            content: Some(content),
            attrs: None,
            has_mark: false,
        });
        self.close();
    }

    /// Visits `view` as the newest open node: what it registers lands
    /// above the current tops, and is its own until it closes.
    fn open(&mut self, view: &NodeView) {
        let parent = self.marks.last().expect("root mark always present");
        let child_start = parent.child as usize;
        self.marks.push(self.new_mark());
        self.visit(view, child_start);
        self.settle_event();
    }

    fn new_mark(&self) -> Mark {
        Mark {
            child: self.child.len() as u32,
            desc: self.desc.len() as u32,
            groups: self.groups.len() as u32,
            waiting: NIL,
        }
    }

    // ---- automaton core ----------------------------------------------

    /// Advances every state of the parent's `child` range, from
    /// `child_start` on, and of the `desc` stack that `view` satisfies.
    /// Both bounds are fixed before the first advance, and advances only
    /// push past them, so what `view` registers for its own subtree is
    /// not visited here.
    fn visit(&mut self, view: &NodeView, child_start: usize) {
        let (child_end, desc_end) = (self.child.len(), self.desc.len());
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
            self.atoms.resize(atom_base + tree.atom_progs.len(), false);
            self.groups.push(Group {
                tree,
                atom_base,
                parent: guard,
                node: self.marks.len() as u32 - 1,
                val: false,
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
                self.fresh.push(Candidate {
                    ordinal: view.ordinal,
                    guard,
                    desc,
                });
            }
            Target::Atom(atom) => {
                if self.atoms[atom as usize] {
                    return;
                }
                if guard == 0 {
                    self.atoms[atom as usize] = true;
                } else {
                    self.add_waiting(guard, Feeds::Atom(atom));
                }
            }
        }
    }

    /// Whether a guard chain is already provably true *mid-stream*.
    /// Atoms are monotone (false may still become true), so only
    /// positive evidence counts: an atom proves nothing under `not()`
    /// until its group's node closes, while constants prove either
    /// polarity.
    fn chain_definitely_true(&self, mut guard: Guard) -> bool {
        fn def_true(ex: &Exec<'_>, e: &PExpr, base: usize) -> bool {
            match e {
                PExpr::Atom(slot) => ex.atoms[base + slot],
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

    // ---- resolution at close -----------------------------------------

    /// Folds or lists the candidates of the event that just ended, out
    /// of line: most events complete none.
    fn settle_event(&mut self) {
        if !self.fresh.is_empty() {
            self.settle_fresh();
        }
    }

    /// A node's derivations all complete in its own event: sorted by
    /// ordinal they form one run, folded at once if one of its chains is
    /// empty, listed as waiting otherwise.
    #[inline(never)]
    fn settle_fresh(&mut self) {
        let mut fresh = std::mem::take(&mut self.fresh);
        fresh.sort_unstable_by_key(|c| c.ordinal);
        for run in fresh.chunk_by_mut(|a, b| a.ordinal == b.ordinal) {
            let desc = run[0].desc.take();
            if run.iter().any(|c| c.guard == 0) {
                self.fold(desc);
                continue;
            }
            let run_id = self.runs.insert(Run {
                desc,
                live: run.len() as u32,
                folded: false,
            });
            for c in run.iter() {
                self.add_waiting(c.guard, Feeds::Run(run_id));
            }
        }
        fresh.clear();
        self.fresh = fresh;
    }

    /// Lists a new chain `guard` that settles `feeds`.
    fn add_waiting(&mut self, guard: Guard, feeds: Feeds) {
        let i = self.waiting.insert(Waiting {
            guard,
            feeds,
            next: NIL,
        });
        self.wait(i, guard);
    }

    /// Lists entry `i` on the open node that opened its chain's first
    /// group, `guard − 1`.
    fn wait(&mut self, i: u32, guard: Guard) {
        let node = self.groups[guard as usize - 1].node as usize;
        let head = std::mem::replace(&mut self.marks[node].waiting, i);
        self.waiting[i].guard = guard;
        self.waiting[i].next = head;
    }

    /// Entry `i`'s chain is decided, true if `holds`: settles what it
    /// feeds and frees the entry.
    fn decide(&mut self, i: u32, holds: bool) {
        match self.waiting[i].feeds {
            Feeds::Atom(atom) => self.atoms[atom as usize] |= holds,
            Feeds::Run(run_id) => {
                let run = &mut self.runs[run_id];
                run.live -= 1;
                let fold = holds && !run.folded;
                run.folded |= holds;
                let desc = if fold || run.live == 0 {
                    run.desc.take()
                } else {
                    None
                };
                if run.live == 0 {
                    self.runs.remove(run_id);
                }
                if fold {
                    self.fold(desc);
                }
            }
        }
        self.waiting.remove(i);
    }

    /// The newest open node closes: pops its states and, out of line as
    /// most nodes open none, decides its groups.
    fn close(&mut self) {
        let mark = self.marks.pop().expect("root mark always present");
        self.child.truncate(mark.child as usize);
        self.desc.truncate(mark.desc as usize);
        if self.groups.len() > mark.groups as usize {
            self.close_groups(mark);
        }
    }

    /// The node `mark` was taken at has closed, so every witness its
    /// groups can receive has arrived: decides them, latest first, settles
    /// or moves on every chain that waited on them, and pops them with
    /// their atoms.
    #[inline(never)]
    fn close_groups(&mut self, mark: Mark) {
        let decided = mark.groups as usize;
        let mut closing = std::mem::take(&mut self.closing);
        let mut at = mark.waiting;
        while at != NIL {
            closing.push(at);
            at = self.waiting[at].next;
        }
        // A group's atoms are numbered after every earlier group's, so
        // with the witnesses latest atom first, each group's come after
        // those of every group opened later; the runs' come last.
        closing.sort_unstable_by_key(|&i| match self.waiting[i].feeds {
            Feeds::Atom(atom) => Reverse(u64::from(atom) + 1),
            Feeds::Run(_) => Reverse(0),
        });
        let mut next = 0;
        for gid in (decided..self.groups.len()).rev() {
            let atom_base = self.groups[gid].atom_base;
            while let Some(&i) = closing.get(next) {
                let w = self.waiting[i];
                match w.feeds {
                    Feeds::Atom(atom) if atom as usize >= atom_base => {}
                    _ => break,
                }
                // The chain's groups were opened after this one: decided.
                let left = self.shorten(w.guard, gid + 1);
                debug_assert!(
                    matches!(left, None | Some(0)),
                    "a witness waits on an earlier group"
                );
                self.decide(i, left == Some(0));
                next += 1;
            }
            let tree = self.groups[gid].tree;
            self.groups[gid].val = self.pexpr_true(&tree.expr, atom_base);
        }
        // The rest feed atoms of groups still open, or runs.
        for &i in &closing[next..] {
            let w = self.waiting[i];
            let left = match w.feeds {
                Feeds::Run(run_id) if self.runs[run_id].folded => None,
                _ => self.shorten(w.guard, decided),
            };
            match left {
                Some(0) => self.decide(i, true),
                Some(guard) => self.wait(i, guard),
                None => self.decide(i, false),
            }
        }
        closing.clear();
        self.closing = closing;
        self.atoms.truncate(self.groups[decided].atom_base);
        self.groups.truncate(decided);
    }

    /// `guard`'s chain without its decided groups, those from index
    /// `decided` on; `None` if one of them is false.
    fn shorten(&self, mut guard: Guard, decided: usize) -> Option<Guard> {
        while guard as usize > decided {
            let g = &self.groups[guard as usize - 1];
            if !g.val {
                return None;
            }
            guard = g.parent;
        }
        Some(guard)
    }

    /// One node whose chain is decided true.
    fn fold(&mut self, desc: Option<StreamMatch>) {
        match self.sq.result {
            ResultKind::Nodes => self
                .answer
                .push(desc.expect("Nodes candidates capture a description")),
            ResultKind::Count => self.count += 1,
            ResultKind::Exists => self.done = true,
        }
    }

    fn pexpr_true(&self, e: &PExpr, base: usize) -> bool {
        match e {
            PExpr::Atom(slot) => self.atoms[base + slot],
            PExpr::Not(x) => !self.pexpr_true(x, base),
            PExpr::And(x, y) => self.pexpr_true(x, base) && self.pexpr_true(y, base),
            PExpr::Or(x, y) => self.pexpr_true(x, base) || self.pexpr_true(y, base),
            PExpr::Const(b) => *b,
        }
    }

    // ---- finalize ----------------------------------------------------

    /// Closes the root, which decides every chain left, and restores
    /// document order if a late guard put a match behind a later one.
    pub fn finalize(mut self) -> StreamValue {
        if !self.done {
            debug_assert_eq!(self.marks.len(), 1, "an element left open");
            self.close();
            debug_assert!(self.waiting.is_empty() && self.runs.is_empty());
        }
        match self.sq.result {
            ResultKind::Nodes => {
                let mut answer = self.answer;
                if !answer.is_sorted_by_key(|m| m.ordinal) {
                    answer.sort_unstable_by_key(|m| m.ordinal);
                }
                debug_assert!(answer.windows(2).all(|w| w[0].ordinal < w[1].ordinal));
                StreamValue::Nodes(answer)
            }
            ResultKind::Count => StreamValue::Number(self.count as f64),
            ResultKind::Exists => StreamValue::Boolean(self.done),
        }
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
