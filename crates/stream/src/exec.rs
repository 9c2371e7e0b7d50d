//! The one-pass stack-automaton executor.
//!
//! [`Exec`] consumes the tokenizer's event stream and maintains, per open
//! element, a **frame** of active automaton states:
//!
//! * a `child` state expects its step to match among the element's
//!   children;
//! * a `desc` state expects its step anywhere in the element's subtree
//!   (it is carried down into every nested frame).
//!
//! When a node matches a state's step, the step's predicate instances are
//! opened (one **group** per predicate, one **atom** cell per existence
//! atom, each atom backed by a sub-program started at the matching node)
//! and the state advances: `self` and or-`self` parts are checked
//! inline, `attribute` steps are checked against the start tag's
//! attributes, and child/descendant expectations are registered in the
//! node's frame.  Completing the final step of the main program records a
//! **candidate** (the node's would-be pre-order id plus the guard chain
//! of every predicate group opened along its derivation); completing an
//! atom program records a witness for that atom.
//!
//! Nothing is ever un-recorded: atoms are monotone (false until a witness
//! arrives), so element close needs no bookkeeping — an existence
//! predicate that never found a witness simply stays false.  At end of
//! stream, [`Exec::finalize`] evaluates every candidate's guard chain
//! (memoized; the dependency order follows creation order, so the
//! recursion terminates), then sorts and deduplicates by pre-order id —
//! this is the *buffered emission* that restores document order when the
//! same node is derivable more than once or attribute matches from
//! distinct states interleave.
//!
//! Memory is `O(depth · active states + candidates + results)` — no
//! structure is proportional to the document.

use crate::compile::{CStep, Lit, PExpr, PredTree, ProgId, ResultKind, SAxis, STest, StreamQuery};
use minctx_core::value::string_to_number;
use minctx_syntax::CmpOp;
use minctx_xml::Attrs;
use std::rc::Rc;

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

/// A link in a derivation's guard chain: the predicate groups opened at
/// one step, plus the chain accumulated before it.
struct GuardNode {
    groups: Vec<usize>,
    parent: Guards,
}

type Guards = Option<Rc<GuardNode>>;

/// Which completion a state feeds.
#[derive(Clone, Copy)]
enum Target {
    Main,
    Atom(usize),
}

/// An active automaton state: program `prog` waiting for `step` to match.
/// Cloning is cheap — the guard chain is shared through `Rc`.
#[derive(Clone)]
struct State {
    prog: ProgId,
    step: u16,
    target: Target,
    guards: Guards,
}

/// Per-open-element active states.
#[derive(Default)]
struct Frame {
    child: Vec<State>,
    desc: Vec<State>,
}

/// One opened predicate instance.
struct Group<'q> {
    tree: &'q PredTree,
    atom_base: usize,
}

/// One existence-atom cell: monotone false → true.
#[derive(Default)]
struct Atom {
    /// An unconditional witness was found.
    definite: bool,
    /// Guard chains of conditional witnesses (evaluated at finalize).
    witnesses: Vec<Guards>,
    /// Finalize-time memo.
    resolved: Option<bool>,
}

/// A completed main-path match awaiting guard resolution.
struct Candidate {
    ordinal: u32,
    guards: Guards,
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
    /// and the root have frames; leaves and attributes do not).
    has_frame: bool,
}

pub(crate) struct Exec<'q> {
    sq: &'q StreamQuery,
    frames: Vec<Frame>,
    /// Frame recycling pool: steady-state evaluation allocates nothing
    /// per element once the deepest path has been visited.
    spare: Vec<Frame>,
    /// Scratch buffer for the states matched by the current event.
    matched: Vec<State>,
    groups: Vec<Group<'q>>,
    group_vals: Vec<Option<bool>>,
    atoms: Vec<Atom>,
    pending: Vec<Candidate>,
    /// `Exists` resolved unconditionally true: stop the stream.
    done: bool,
}

impl<'q> Exec<'q> {
    pub fn new(sq: &'q StreamQuery) -> Exec<'q> {
        let mut ex = Exec {
            sq,
            frames: vec![Frame::default()],
            spare: Vec::new(),
            matched: Vec::new(),
            groups: Vec::new(),
            group_vals: Vec::new(),
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
            has_frame: true,
        };
        if ex.sq.programs[0].steps.is_empty() {
            // `/` — the root node itself is the result.
            ex.complete(Target::Main, None, &root);
        } else {
            ex.start_from(0, 0, Target::Main, None, &root);
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
            has_frame: true,
        };
        // Collect the parent frame's states this element satisfies.
        let mut matched = std::mem::take(&mut self.matched);
        matched.clear();
        {
            let top = self.frames.last().expect("root frame always present");
            for st in top.child.iter().chain(top.desc.iter()) {
                if self.step_of(st).test_matches(&view) {
                    matched.push(st.clone());
                }
            }
        }
        // Open this element's frame; descendant expectations propagate.
        let mut frame = self.spare.pop().unwrap_or_default();
        frame.child.clear();
        frame.desc.clear();
        {
            let top = self.frames.last().expect("root frame always present");
            frame.desc.extend(top.desc.iter().cloned());
        }
        self.frames.push(frame);
        for st in &matched {
            self.advance(st.prog, st.step, st.target, st.guards.clone(), &view);
        }
        self.matched = matched;
    }

    pub fn end_element(&mut self) {
        let f = self.frames.pop().expect("end without start");
        debug_assert!(!self.frames.is_empty(), "root frame popped");
        self.spare.push(f);
    }

    /// A text, comment or PI event (one leaf node).
    pub fn leaf(&mut self, kind: StreamNodeKind, name: Option<&str>, content: &str, ordinal: u32) {
        let view = NodeView {
            ordinal,
            kind,
            name,
            content: Some(content),
            attrs: None,
            has_frame: false,
        };
        let mut matched = std::mem::take(&mut self.matched);
        matched.clear();
        {
            let top = self.frames.last().expect("root frame always present");
            for st in top.child.iter().chain(top.desc.iter()) {
                if self.step_of(st).test_matches(&view) {
                    matched.push(st.clone());
                }
            }
        }
        for st in &matched {
            self.advance(st.prog, st.step, st.target, st.guards.clone(), &view);
        }
        self.matched = matched;
    }

    // ---- automaton core ----------------------------------------------

    fn step_of(&self, st: &State) -> &'q CStep {
        &self.sq.programs[st.prog].steps[st.step as usize]
    }

    /// `view` just matched step `step` of `prog` (test already checked):
    /// apply the step's value check and predicates, then complete the
    /// program or start its next step at `view`.
    fn advance(
        &mut self,
        prog: ProgId,
        step: u16,
        target: Target,
        guards: Guards,
        view: &NodeView,
    ) {
        // Borrow the step through the compiled query's own lifetime so the
        // recursive calls below can take `&mut self`.
        let sq: &'q StreamQuery = self.sq;
        let cstep = &sq.programs[prog].steps[step as usize];
        if let Some((op, lit)) = &cstep.value_check {
            match view.content {
                Some(s) if scalar_cmp(*op, s, lit) => {}
                _ => return,
            }
        }
        let mut guards = guards;
        if !cstep.preds.is_empty() {
            let mut gids = Vec::with_capacity(cstep.preds.len());
            for tree in &cstep.preds {
                let gid = self.groups.len();
                let atom_base = self.atoms.len();
                self.atoms
                    .extend(tree.atom_progs.iter().map(|_| Atom::default()));
                self.groups.push(Group { tree, atom_base });
                self.group_vals.push(None);
                gids.push(gid);
                for (slot, &p) in tree.atom_progs.iter().enumerate() {
                    // Atom programs run from the candidate node with a
                    // fresh guard chain: their own truth is what feeds the
                    // group, and their inner predicates guard only their
                    // own witnesses.
                    self.start_from(p, 0, Target::Atom(atom_base + slot), None, view);
                }
            }
            guards = Some(Rc::new(GuardNode {
                groups: gids,
                parent: guards,
            }));
        }
        if step as usize + 1 == sq.programs[prog].steps.len() {
            self.complete(target, guards, view);
        } else {
            self.start_from(prog, step + 1, target, guards, view);
        }
    }

    /// Begins step `step` of `prog` at origin `view`: inline `self` /
    /// or-`self` / `attribute` parts, frame registration for the rest.
    fn start_from(
        &mut self,
        prog: ProgId,
        step: u16,
        target: Target,
        guards: Guards,
        view: &NodeView,
    ) {
        let sq: &'q StreamQuery = self.sq;
        let cstep = &sq.programs[prog].steps[step as usize];
        match cstep.axis {
            SAxis::SelfAxis => {
                if cstep.test_matches(view) {
                    self.advance(prog, step, target, guards, view);
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
                            has_frame: false,
                        };
                        if cstep.test_matches(&av) {
                            self.advance(prog, step, target, guards.clone(), &av);
                        }
                    }
                }
            }
            SAxis::Child | SAxis::Descendant | SAxis::DescendantOrSelf => {
                if cstep.axis == SAxis::DescendantOrSelf && cstep.test_matches(view) {
                    self.advance(prog, step, target, guards.clone(), view);
                }
                if view.has_frame {
                    let st = State {
                        prog,
                        step,
                        target,
                        guards,
                    };
                    let frame = self.frames.last_mut().expect("frame for view");
                    if cstep.axis == SAxis::Child {
                        frame.child.push(st);
                    } else {
                        frame.desc.push(st);
                    }
                }
            }
        }
    }

    fn complete(&mut self, target: Target, guards: Guards, view: &NodeView) {
        match target {
            Target::Main => {
                // An existence query stops the stream as soon as a match
                // is *definitely* in: no guards, or every guard group
                // already provable from monotone atom state (e.g. the
                // `[@id]` atom of `boolean(//item[@id])` resolves at the
                // very event that completes the candidate).
                if self.sq.result == ResultKind::Exists && self.chain_definitely_true(&guards) {
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
                    guards,
                    desc,
                });
            }
            Target::Atom(aid) => {
                let atom = &mut self.atoms[aid];
                if atom.definite {
                    return;
                }
                match guards {
                    None => {
                        atom.definite = true;
                        atom.witnesses.clear();
                    }
                    some => atom.witnesses.push(some),
                }
            }
        }
    }

    /// Whether a guard chain is already provably true *mid-stream*.
    /// Atoms are monotone (false may still become true), so only
    /// positive evidence counts: an atom proves nothing under `not()`
    /// until end of stream, while constants prove either polarity.
    fn chain_definitely_true(&self, guards: &Guards) -> bool {
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
        let mut cur = guards.clone();
        while let Some(node) = cur {
            for &gid in &node.groups {
                let g = &self.groups[gid];
                if !def_true(self, &g.tree.expr, g.atom_base) {
                    return false;
                }
            }
            cur = node.parent.clone();
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
        let mut candidates = std::mem::take(&mut self.pending);
        let mut accepted: Vec<(u32, Option<StreamMatch>)> = Vec::new();
        for c in candidates.drain(..) {
            if self.chain_true(&c.guards) {
                accepted.push((c.ordinal, c.desc));
            }
        }
        accepted.sort_by_key(|(o, _)| *o);
        accepted.dedup_by_key(|(o, _)| *o);
        match self.sq.result {
            ResultKind::Nodes => StreamValue::Nodes(
                accepted
                    .into_iter()
                    .map(|(_, d)| d.expect("Nodes candidates capture a description"))
                    .collect(),
            ),
            ResultKind::Count => StreamValue::Number(accepted.len() as f64),
            ResultKind::Exists => StreamValue::Boolean(!accepted.is_empty()),
        }
    }

    fn chain_true(&mut self, guards: &Guards) -> bool {
        let mut cur = guards.clone();
        while let Some(node) = cur {
            for &gid in &node.groups {
                if !self.group_true(gid) {
                    return false;
                }
            }
            cur = node.parent.clone();
        }
        true
    }

    /// Memoized group evaluation.  Groups opened at a node can only
    /// depend (through atom witnesses) on groups opened strictly later,
    /// so the recursion is well-founded.
    fn group_true(&mut self, gid: usize) -> bool {
        if let Some(v) = self.group_vals[gid] {
            return v;
        }
        let (tree, base) = {
            let g = &self.groups[gid];
            (g.tree, g.atom_base)
        };
        let v = self.pexpr_true(&tree.expr, base);
        self.group_vals[gid] = Some(v);
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
        let v = witnesses.iter().any(|w| self.chain_true(w));
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
