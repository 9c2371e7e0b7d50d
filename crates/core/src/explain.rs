//! The EXPLAIN/profile surface: [`Engine::explain`](crate::Engine::explain)
//! and the [`QueryProfile`] it returns.
//!
//! A profile is one instrumented evaluation of a query, reporting what the
//! engine actually did rather than what it might do:
//!
//! * the IR before and after the rewrite pipeline, with the
//!   [`Rule`](crate::rewrite::Rule)s that fired and how often;
//! * per location-path step: the kernel route taken
//!   ([`AxisRoute`](minctx_xml::AxisRoute) — postings fast path, walk over
//!   the structure links, or a scan of arena ordinals, which only
//!   `following`/`preceding` under a non-name test, `self` and `id` still
//!   are), context-set and axis-output
//!   cardinalities, invocation counts, and wall time (inclusive of the
//!   step's predicate filtering); for a predicated step also *how* its
//!   predicates ran ([`PredMode`]: as a set, from backward sets alone, or
//!   per origin) and how many origins survived postings pruning;
//! * MINCONTEXT memo hits/computes and OPTMINCONTEXT backward passes;
//! * fuel consumed under the engine's configured budget;
//! * phase wall times (parse / rewrite / compile / evaluate).
//!
//! The profile is collected by the MINCONTEXT evaluator (the
//! backward-propagating OPTMINCONTEXT variant when the engine's strategy
//! is [`Strategy::OptMinContext`]); the naive and context-value-table
//! strategies share its IR, compilation, and axis kernels, so the plan is
//! representative for them too.
//!
//! [`QueryProfile::plan_text`] renders the deterministic portion — no
//! durations — in a stable line-oriented format, which the `obs_smoke`
//! golden test pins.

use crate::compile::CompiledQuery;
use crate::engine::{Context, Engine, Strategy};
use crate::error::EvalError;
use crate::rewrite::{rewrite_traced, Rule};
use crate::value::Value;
use minctx_syntax::{parse_xpath, ExprId, Node, PathStart, Query, Step};
use minctx_xml::{AxisRoute, Dispatch, Document, Scratch};
use std::fmt;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// How a predicated step's predicates were evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredMode {
    /// Every predicate is position-free: one axis sweep for the whole
    /// context set, then the candidate *set* is filtered, at least one
    /// predicate (or operand of an `and` / `or` / `not`) node by node.
    Set,
    /// As [`PredMode::Set`], and every predicate was answered by
    /// intersecting with OPTMINCONTEXT backward sets: no candidate was
    /// visited.
    Backward,
    /// A positional predicate on an axis where one candidate can have
    /// several origins: candidates are listed per origin in axis order
    /// (leading position-free predicates still run once, as a set).
    PerOrigin,
    /// A positional predicate on `child` / `attribute`, where a candidate's
    /// one origin is its parent: one sweep for the whole context set, then
    /// candidates are ranked among their siblings (leading position-free
    /// predicates run as a set first).  The step's `in` is the number of
    /// candidates ranked.
    SiblingRank,
}

impl PredMode {
    /// A short stable name (used in EXPLAIN plan text).
    pub fn as_str(self) -> &'static str {
        match self {
            PredMode::Set => "set",
            PredMode::Backward => "backward",
            PredMode::PerOrigin => "per-origin",
            PredMode::SiblingRank => "sibling-rank",
        }
    }
}

impl fmt::Display for PredMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One step of one location path, as actually evaluated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepProfile {
    /// Arena index of the owning path expression.
    pub path: usize,
    /// Step position within that path.
    pub index: usize,
    /// `axis::test` (unabbreviated).
    pub display: String,
    /// The step was never built: a predicate-free
    /// `descendant-or-self::node()` in front of a sibling-ranked `child`
    /// step, which sweeps `descendant` from this step's context set
    /// instead.  Only `invocations` is meaningful on such a row.
    pub elided: bool,
    /// How many predicates filter this step.
    pub predicates: usize,
    /// The kernel route of the step's first invocation: the set kernel
    /// that swept the whole context set for a predicate-free or
    /// set-filtered step, the single-origin kernel each origin of a
    /// per-origin step paid.
    pub route: AxisRoute,
    /// How the first invocation evaluated the step's predicates (`None`
    /// for a predicate-free step).
    pub mode: Option<PredMode>,
    /// How many times the step ran (a path under a predicate runs once
    /// per candidate its predicate is computed for; none at all when a
    /// backward set answers the predicate).
    pub invocations: u64,
    /// Total context-set cardinality across invocations.
    pub input: u64,
    /// Total origins actually expanded across invocations: `input` less
    /// the origins postings pruning showed to have no candidate.
    pub origins: u64,
    /// Total axis-output cardinality across invocations (post-predicate).
    pub output: u64,
    /// Wall time across invocations, inclusive of predicate filtering.
    pub time: Duration,
    /// Parallel chunks dispatched across invocations (0 when the step ran
    /// sequentially — the default on a 1-thread engine or below the
    /// parallel size threshold).
    pub par_chunks: u64,
}

/// The result of [`Engine::explain`](crate::Engine::explain): what one
/// evaluation of a query did, per step and per phase.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// The query as given.
    pub source: String,
    /// The engine's strategy.
    pub strategy: Strategy,
    /// Whether the rewrite pipeline ran.
    pub optimizer: bool,
    /// The lowered IR before rewriting.
    pub ir_before: String,
    /// The IR that was compiled and evaluated.
    pub ir_after: String,
    /// Arena traversals the rewriter ran: 1, or 2 with the compacting
    /// copy (0 with the optimizer off).
    pub rewrite_passes: usize,
    /// Rewrite rules that fired, with counts, in [`Rule::ALL`] order.
    pub fired_rules: Vec<(Rule, u32)>,
    /// Per-step evaluation records, outermost path first.
    pub steps: Vec<StepProfile>,
    /// MINCONTEXT memo hits (free re-uses of a computed value).  Answers
    /// read from a backward set are not memo traffic and count as neither.
    pub memo_hits: u64,
    /// Values actually computed: every compute counts, whether or not the
    /// node keeps a table to store the result in.
    pub memo_misses: u64,
    /// OPTMINCONTEXT backward sets built (one per predicate of a
    /// backward-propagatable shape that was asked about).
    pub backward_passes: u64,
    /// Fuel charged under the engine's budget.
    pub fuel_spent: u64,
    /// A one-line result summary (type and cardinality, not contents).
    pub result: String,
    /// Wall time of the parse phase.
    pub parse_time: Duration,
    /// Wall time of the rewrite phase (zero with the optimizer off).
    pub rewrite_time: Duration,
    /// Wall time of node-test resolution.
    pub compile_time: Duration,
    /// Wall time of the instrumented evaluation.
    pub eval_time: Duration,
}

impl QueryProfile {
    /// The deterministic plan tree: everything except wall times, in a
    /// stable line-oriented format (golden-tested by `obs_smoke`).
    pub fn plan_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "query {}", self.source);
        let _ = writeln!(
            s,
            "strategy {} optimizer {}",
            self.strategy,
            if self.optimizer { "on" } else { "off" }
        );
        let _ = writeln!(s, "ir.before {}", self.ir_before);
        let _ = writeln!(s, "ir.after  {}", self.ir_after);
        let fired = if self.fired_rules.is_empty() {
            "-".to_string()
        } else {
            self.fired_rules
                .iter()
                .map(|&(r, n)| format!("{r}:{n}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let _ = writeln!(s, "rewrite passes={} fired={fired}", self.rewrite_passes);
        let _ = writeln!(s, "plan");
        for st in &self.steps {
            if st.elided {
                let _ = writeln!(
                    s,
                    "  [#{} step {}] {} elided calls={}",
                    st.path, st.index, st.display, st.invocations
                );
                continue;
            }
            let preds = if st.predicates > 0 {
                format!(" preds={}", st.predicates)
            } else {
                String::new()
            };
            // ` par=K` appears only when chunked work was actually
            // dispatched, keeping 1-thread plans byte-identical to the
            // pre-parallel format the goldens pin.
            let par = if st.par_chunks > 0 {
                format!(" par={}", st.par_chunks)
            } else {
                String::new()
            };
            let mode = st.mode.map_or(String::new(), |m| format!(" mode={m}"));
            // ` origins=A→B` appears only when pruning dropped origins.
            let origins = if st.origins < st.input {
                format!(" origins={}→{}", st.input, st.origins)
            } else {
                String::new()
            };
            let _ = writeln!(
                s,
                "  [#{} step {}] {}{preds}{mode}{origins} route={} calls={} in={} out={}{par}",
                st.path, st.index, st.display, st.route, st.invocations, st.input, st.output
            );
        }
        let _ = writeln!(
            s,
            "memo hits={} misses={}",
            self.memo_hits, self.memo_misses
        );
        let _ = writeln!(s, "backward passes={}", self.backward_passes);
        let _ = writeln!(s, "fuel {}", self.fuel_spent);
        let _ = write!(s, "result {}", self.result);
        s
    }
}

impl fmt::Display for QueryProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.plan_text())?;
        write!(
            f,
            "time parse={:?} rewrite={:?} compile={:?} eval={:?}",
            self.parse_time, self.rewrite_time, self.compile_time, self.eval_time
        )
    }
}

/// The mutable collection state the MINCONTEXT run reports into when an
/// evaluation is profiled.
#[derive(Debug, Default)]
pub(crate) struct ProfileCollector {
    steps: Vec<StepProfile>,
    memo_hits: u64,
    memo_misses: u64,
    backward_passes: u64,
}

impl ProfileCollector {
    pub(crate) fn memo_hit(&mut self) {
        self.memo_hits += 1;
    }

    pub(crate) fn memo_miss(&mut self) {
        self.memo_misses += 1;
    }

    pub(crate) fn backward_pass(&mut self) {
        self.backward_passes += 1;
    }

    /// The per-(path, index) record, created empty on first sight.
    fn row(&mut self, path: ExprId, index: usize, step: &Step) -> &mut StepProfile {
        let known = |s: &StepProfile| s.path == path.index() && s.index == index;
        let at = self.steps.iter().position(known).unwrap_or_else(|| {
            self.steps.push(StepProfile {
                path: path.index(),
                index,
                display: format!("{}::{}", step.axis, step.test),
                elided: false,
                predicates: step.predicates.len(),
                route: Dispatch::NONE.route,
                mode: None,
                invocations: 0,
                input: 0,
                origins: 0,
                output: 0,
                time: Duration::ZERO,
                par_chunks: 0,
            });
            self.steps.len() - 1
        });
        &mut self.steps[at]
    }

    /// Aggregates one step invocation into the step's record.
    pub(crate) fn record_step(
        &mut self,
        path: ExprId,
        index: usize,
        step: &Step,
        obs: StepObservation,
    ) {
        let s = self.row(path, index, step);
        if s.invocations == 0 {
            (s.route, s.mode) = (obs.route, obs.mode);
        }
        s.invocations += 1;
        s.input += obs.input as u64;
        s.origins += obs.origins as u64;
        s.output += obs.output as u64;
        s.time += obs.time;
        s.par_chunks += obs.chunks as u64;
    }

    /// Counts one pass over a step that was never built
    /// ([`StepProfile::elided`]).
    pub(crate) fn record_elided(&mut self, path: ExprId, index: usize, step: &Step) {
        let s = self.row(path, index, step);
        s.elided = true;
        s.invocations += 1;
    }
}

/// What one profiled step invocation measured: the kernel route it
/// dispatched to, how its predicates ran, its context-set cardinalities
/// (`origins` is `input` less the origins pruned away), and its wall time
/// (including predicate filtering, for predicated steps).
pub(crate) struct StepObservation {
    pub(crate) route: AxisRoute,
    pub(crate) mode: Option<PredMode>,
    pub(crate) input: usize,
    pub(crate) origins: usize,
    pub(crate) output: usize,
    pub(crate) time: Duration,
    pub(crate) chunks: usize,
}

/// Parses, rewrites (traced), compiles, and runs one instrumented
/// MINCONTEXT evaluation of `source` at the document root.
pub(crate) fn explain(
    engine: &Engine,
    doc: &Document,
    source: &str,
) -> Result<QueryProfile, EvalError> {
    let t = Instant::now();
    let query = parse_xpath(source)?;
    let parse_time = t.elapsed();
    let ir_before = render_expr(&query, query.root());

    let optimizer = engine.optimizer();
    let (compiled_query, trace, rewrite_time) = if optimizer {
        let t = Instant::now();
        let (q, trace) = rewrite_traced(&query);
        (q, trace, t.elapsed())
    } else {
        (query, Default::default(), Duration::ZERO)
    };
    let ir_after = render_expr(&compiled_query, compiled_query.root());

    let t = Instant::now();
    let compiled = CompiledQuery::from_query(doc, compiled_query);
    let compile_time = t.elapsed();

    let optimized = engine.strategy() == Strategy::OptMinContext;
    let mut collector = ProfileCollector::default();
    let mut scratch = Scratch::new();
    let mut meter = engine.budget_config().meter();
    let t = Instant::now();
    let value = engine.mincontext(optimized).evaluate_profiled(
        doc,
        &compiled,
        Context::document(doc),
        &mut scratch,
        &mut meter,
        &mut collector,
    )?;
    let eval_time = t.elapsed();

    // Outermost path first: the arena keeps children before parents, so
    // descending path ids put the root path at the top.
    let mut steps = collector.steps;
    steps.sort_by(|a, b| b.path.cmp(&a.path).then(a.index.cmp(&b.index)));

    Ok(QueryProfile {
        source: source.to_string(),
        strategy: engine.strategy(),
        optimizer,
        ir_before,
        ir_after,
        rewrite_passes: trace.passes,
        fired_rules: trace.fired(),
        steps,
        memo_hits: collector.memo_hits,
        memo_misses: collector.memo_misses,
        backward_passes: collector.backward_passes,
        fuel_spent: meter.spent(),
        result: summarize(&value),
        parse_time,
        rewrite_time,
        compile_time,
        eval_time,
    })
}

/// A deterministic one-line value summary: type and cardinality, never
/// node contents (profiles may be logged).
fn summarize(v: &Value) -> String {
    match v {
        Value::NodeSet(ns) => format!("node-set n={}", ns.len()),
        Value::Number(n) => format!("number {n}"),
        Value::String(s) => format!("string len={}", s.len()),
        Value::Boolean(b) => format!("boolean {b}"),
    }
}

/// Renders a lowered query arena back to unabbreviated XPath-ish text.
/// The syntax crate's [`Step`] `Display` prints predicates as raw
/// [`ExprId`]s; the IR summaries need their contents, so the profile
/// walks the arena itself.
pub(crate) fn render_expr(q: &Query, id: ExprId) -> String {
    let mut s = String::new();
    write_expr(q, id, &mut s);
    s
}

fn write_expr(q: &Query, id: ExprId, out: &mut String) {
    match q.node(id) {
        Node::Or(a, b) => write_binary(q, *a, " or ", *b, out),
        Node::And(a, b) => write_binary(q, *a, " and ", *b, out),
        Node::Compare(op, a, b) => {
            let (a, b) = (*a, *b);
            out.push('(');
            write_expr(q, a, out);
            let _ = write!(out, " {op} ");
            write_expr(q, b, out);
            out.push(')');
        }
        Node::Arith(op, a, b) => {
            let (a, b) = (*a, *b);
            out.push('(');
            write_expr(q, a, out);
            let _ = write!(out, " {op} ");
            write_expr(q, b, out);
            out.push(')');
        }
        Node::Neg(a) => {
            out.push_str("(-");
            write_expr(q, *a, out);
            out.push(')');
        }
        Node::Union(a, b) => write_binary(q, *a, " | ", *b, out),
        Node::Call(func, args) => {
            let _ = write!(out, "{func}(");
            for (i, &a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(q, a, out);
            }
            out.push(')');
        }
        Node::Number(n) => {
            let _ = write!(out, "{n}");
        }
        Node::Literal(s) => {
            let _ = write!(out, "'{s}'");
        }
        Node::Path(start, steps) => {
            match start {
                PathStart::Root => out.push('/'),
                PathStart::Context => {
                    if steps.is_empty() {
                        out.push('.');
                    }
                }
                PathStart::Filter {
                    primary,
                    predicates,
                } => {
                    write_expr(q, *primary, out);
                    for &p in predicates {
                        out.push('[');
                        write_expr(q, p, out);
                        out.push(']');
                    }
                    if !steps.is_empty() {
                        out.push('/');
                    }
                }
            }
            for (i, st) in steps.iter().enumerate() {
                if i > 0 {
                    out.push('/');
                }
                let _ = write!(out, "{}::{}", st.axis, st.test);
                for &p in &st.predicates {
                    out.push('[');
                    write_expr(q, p, out);
                    out.push(']');
                }
            }
        }
    }
}

fn write_binary(q: &Query, a: ExprId, op: &str, b: ExprId, out: &mut String) {
    out.push('(');
    write_expr(q, a, out);
    out.push_str(op);
    write_expr(q, b, out);
    out.push(')');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use minctx_xml::parse;

    fn item_doc() -> Document {
        parse(r#"<cat><item id="1"><n/></item><x><item id="2"/></x><item/><other/></cat>"#).unwrap()
    }

    #[test]
    fn explain_reports_routing_rules_and_cardinalities() {
        let doc = item_doc();
        let e = Engine::new(Strategy::MinContext).with_optimizer(true);
        let p = e.explain(&doc, "//item[@id]").unwrap();
        // The rewrite fused `//` and the trace names it (lowering wraps
        // bare node-set predicates in an explicit boolean()).
        assert_eq!(p.ir_after, "/descendant::item[boolean(attribute::id)]");
        assert_eq!(p.fired_rules, vec![(Rule::FuseDescendant, 1)]);
        assert_eq!(p.rewrite_passes, 1);
        // The descendant::item step took the postings fast path from the
        // singleton root origin and saw all three <item>s.
        let outer = &p.steps[0];
        assert_eq!(outer.display, "descendant::item");
        assert_eq!(outer.predicates, 1);
        assert_eq!(outer.route, AxisRoute::Postings);
        assert_eq!(outer.input, 1);
        assert_eq!(outer.output, 2, "two items carry @id");
        // Plain MINCONTEXT filters the candidate set node by node: the
        // predicate path ran per candidate as a local attribute walk.
        assert_eq!(outer.mode, Some(PredMode::Set));
        assert_eq!(outer.origins, 1, "nothing to prune on a set step");
        let pred = p
            .steps
            .iter()
            .find(|s| s.display == "attribute::id")
            .expect("predicate step profiled");
        assert_eq!(pred.route, AxisRoute::Walk);
        assert_eq!(pred.mode, None, "predicate-free step");
        assert_eq!(pred.invocations, 3, "one walk per candidate item");
        assert!(p.memo_misses > 0);
        assert!(p.fuel_spent > 0);
        assert_eq!(p.result, "node-set n=2");
        // The deterministic plan text round-trips through Display.
        assert!(p.to_string().contains(&p.plan_text()));
        assert!(p.plan_text().contains("preds=1 mode=set route=postings"));
        assert!(p.plan_text().contains("fired=fuse-descendant:1"));
    }

    #[test]
    fn explain_says_which_way_a_predicate_ran() {
        let doc = item_doc();
        let e = Engine::new(Strategy::OptMinContext).with_optimizer(true);
        // Answered from the backward set alone: no candidate is visited,
        // so the predicate path has no step row at all.
        let p = e.explain(&doc, "//item[@id]").unwrap();
        assert_eq!(p.steps.len(), 1, "{}", p.plan_text());
        assert_eq!(p.steps[0].mode, Some(PredMode::Backward));
        assert_eq!((p.backward_passes, p.memo_hits), (1, 0));
        assert_eq!(p.result, "node-set n=2");
        // `not` over a backward set is still set algebra only…
        let p = e.explain(&doc, "//item[not(@id)]").unwrap();
        assert_eq!(p.steps[0].mode, Some(PredMode::Backward));
        assert_eq!(p.result, "node-set n=1");
        // …one operand that has to be computed per node makes it `set`,
        // and the set route is the set kernel's, not a per-origin walk.
        let p = e.explain(&doc, "//*[@id or count(*) > 1]").unwrap();
        assert_eq!(p.steps[0].mode, Some(PredMode::Set));
        assert_eq!(p.steps[0].route, AxisRoute::Walk, "singleton-root walk");
        assert_eq!(p.result, "node-set n=3");
        // A positional predicate on `child` ranks candidates among their
        // siblings (after its position-free neighbour ran as a set); the
        // `descendant-or-self::node()` in front is never built.
        let p = e.explain(&doc, "//item[@id][1]").unwrap();
        assert!(p.steps[0].elided);
        let step = p.steps.iter().find(|s| s.predicates == 2).unwrap();
        assert_eq!(step.mode, Some(PredMode::SiblingRank));
        assert_eq!((step.input, step.output), (2, 2), "both @id items rank 1");
        assert!(
            p.plan_text().contains(
                "  [#5 step 0] descendant-or-self::node() elided calls=1\n  \
                 [#5 step 1] child::item preds=2 mode=sibling-rank route=postings calls=1 in=2 out=2"
            ),
            "{}",
            p.plan_text()
        );
        assert_eq!(p.result, "node-set n=2");
        // On an axis where a candidate can have several origins it keeps
        // per-origin lists, and prunes the origins no <item> follows.
        let p = e.explain(&doc, "//*/following-sibling::item[1]").unwrap();
        let step = p.steps.iter().find(|s| s.predicates == 1).unwrap();
        assert_eq!(step.mode, Some(PredMode::PerOrigin));
        assert_eq!((step.input, step.origins), (7, 2));
        assert!(
            p.plan_text()
                .contains("following-sibling::item preds=1 mode=per-origin origins=7→2 route=walk"),
            "{}",
            p.plan_text()
        );
        assert_eq!(p.result, "node-set n=1");
    }

    #[test]
    fn explain_without_optimizer_keeps_the_ir_and_fires_nothing() {
        let doc = item_doc();
        let e = Engine::new(Strategy::MinContext).with_optimizer(false);
        let p = e.explain(&doc, "//item[@id]").unwrap();
        assert_eq!(p.ir_before, p.ir_after);
        assert!(p.fired_rules.is_empty());
        assert_eq!(p.rewrite_passes, 0);
        assert_eq!(p.result, "node-set n=2");
    }

    #[test]
    fn explain_counts_memo_hits_and_backward_passes() {
        let doc = parse("<a><b><c>7</c></b><b><c>9</c></b><b/></a>").unwrap();
        // OPTMINCONTEXT answers the predicate with one backward pass.
        let p = Engine::new(Strategy::OptMinContext)
            .explain(&doc, "/a/b[c = 7]")
            .unwrap();
        assert_eq!(p.backward_passes, 1);
        assert_eq!(p.result, "node-set n=1");
        // MINCONTEXT evaluates it forward: no backward pass, and the
        // shared predicate machinery produces memo traffic.
        let p = Engine::new(Strategy::MinContext)
            .explain(&doc, "/a/b[c = 7]")
            .unwrap();
        assert_eq!(p.backward_passes, 0);
        assert!(p.memo_misses > 0);
    }

    #[test]
    fn explain_respects_the_engine_budget() {
        let doc = item_doc();
        let e = Engine::new(Strategy::MinContext).with_budget(1);
        assert!(matches!(
            e.explain(&doc, "//item[@id]"),
            Err(EvalError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn renderer_covers_every_node_shape() {
        for (src, want) in [
            (
                "//item[@id]",
                "/descendant-or-self::node()/child::item[boolean(attribute::id)]",
            ),
            ("a or b", "(boolean(child::a) or boolean(child::b))"),
            ("1 + -2", "(1 + (-2))"),
            ("a | b", "(child::a | child::b)"),
            (
                "count(//x) > 2",
                "(count(/descendant-or-self::node()/child::x) > 2)",
            ),
            ("'s'", "'s'"),
            // `.` lowers to an explicit self step.
            (".", "self::node()"),
            (
                "(//a)[1]/b",
                "/descendant-or-self::node()/child::a[(position() = 1)]/child::b",
            ),
        ] {
            let q = parse_xpath(src).unwrap();
            assert_eq!(render_expr(&q, q.root()), want, "{src}");
        }
    }
}
