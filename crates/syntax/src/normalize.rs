//! Normalization into the paper's assumed core form.
//!
//! Section 2.2 of the paper: *"W.l.o.g., we assume that all type
//! conversions are made explicit (using the conversion functions string,
//! number, and boolean). Moreover, each variable is replaced by the
//! (constant) value of the input variable binding."*  Section 4 adds the
//! `id(id(…(π)…))` → `π/id/id/…` rewriting (the id-"axis") and the removal
//! of `|` under existential contexts.
//!
//! Concretely this pass:
//!
//! 1. substitutes variables by constants from a [`Bindings`] map (at the
//!    leaf, in the same walk as everything below);
//! 2. expands zero-argument context functions (`string()` → `string(.)`,
//!    `number()`, `string-length()`, `normalize-space()`, `name()`, …);
//! 3. rewrites predicates: number-typed `[e]` becomes `[position() = e]`,
//!    any other non-boolean predicate becomes `[boolean(e)]`;
//! 4. wraps operator and function arguments in explicit `boolean`/`number`/
//!    `string` conversions where XPath 1.0 implies them (comparisons keep
//!    their overloaded operand types — Figure 1 dispatches on them);
//! 5. rewrites `id(π)` with a node-set argument into a location path ending
//!    in the id-"axis" step, so nested `id` calls become step chains;
//! 6. lifts unions out of existential contexts:
//!    `boolean(π₁|π₂)` → `boolean(π₁) or boolean(π₂)` and
//!    `(π₁|π₂) RelOp s` → `(π₁ RelOp s) or (π₂ RelOp s)` for scalar `s`
//!    (required by `propagate_path_backwards`, Section 6; semantics are
//!    preserved because the existential quantifier distributes over union);
//! 7. checks function names and arities, and rejects type errors XPath 1.0
//!    defines as static errors (`count` of a non-node-set, etc.).

use crate::ast::{AstExpr, AstPath, AstStep, CmpOp};
use crate::parser::ParseError;
use crate::query::Func;
use minctx_xml::axes::{Axis, NodeTest};
use std::collections::HashMap;

/// The static type of an expression (every XPath 1.0 expression has one).
pub use crate::query::ValueType as StaticType;

/// A constant value a variable can be bound to (node-set variables are out
/// of scope, as in the paper).
#[derive(Debug, Clone, PartialEq)]
pub enum Constant {
    Number(f64),
    String(String),
    Boolean(bool),
}

/// Variable bindings supplied with the query.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    map: HashMap<String, Constant>,
}

impl Bindings {
    /// Empty bindings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `$name` to a number.
    pub fn number(mut self, name: &str, v: f64) -> Self {
        self.map.insert(name.to_string(), Constant::Number(v));
        self
    }

    /// Binds `$name` to a string.
    pub fn string(mut self, name: &str, v: &str) -> Self {
        self.map
            .insert(name.to_string(), Constant::String(v.to_string()));
        self
    }

    /// Binds `$name` to a boolean.
    pub fn boolean(mut self, name: &str, v: bool) -> Self {
        self.map.insert(name.to_string(), Constant::Boolean(v));
        self
    }

    fn get(&self, name: &str) -> Option<&Constant> {
        self.map.get(name)
    }
}

fn err(message: impl Into<String>) -> ParseError {
    ParseError::syntax(message, 0)
}

/// The static result type of a (substituted) expression.
pub fn static_type(expr: &AstExpr) -> Result<StaticType, ParseError> {
    Ok(match expr {
        AstExpr::Or(..) | AstExpr::And(..) | AstExpr::Compare(..) => StaticType::Boolean,
        AstExpr::Arith(..) | AstExpr::Neg(..) | AstExpr::Number(_) => StaticType::Number,
        AstExpr::Literal(_) => StaticType::String,
        AstExpr::Union(..) | AstExpr::Path(_) | AstExpr::Filter { .. } => StaticType::NodeSet,
        AstExpr::Var(v) => return Err(err(format!("unbound variable ${v}"))),
        AstExpr::Call(name, args) => resolve_call(name, args.len())?.result_type(),
    })
}

/// The core-library function called `name`, checked to take `arity`
/// arguments.
fn resolve_call(name: &str, arity: usize) -> Result<Func, ParseError> {
    let func = Func::from_name(name).ok_or_else(|| err(format!("unknown function {name}()")))?;
    let (min, max) = arities(func);
    if arity < min || arity > max {
        let expected = if min == max {
            format!("{min}")
        } else if max == usize::MAX {
            format!("at least {min}")
        } else {
            format!("{min}..{max}")
        };
        return Err(err(format!(
            "function {name}() expects {expected} argument(s), got {arity}"
        )));
    }
    Ok(func)
}

/// `(min_arity, max_arity)` of the XPath 1.0 core library.
fn arities(func: Func) -> (usize, usize) {
    use Func::*;
    match func {
        Last | Position | True | False => (0, 0),
        LocalName | NamespaceUri | Name | String | StringLength | NormalizeSpace | Number => (0, 1),
        Count | Id | Boolean | Not | Lang | Sum | Floor | Ceiling | Round => (1, 1),
        StartsWith | Contains | SubstringBefore | SubstringAfter => (2, 2),
        Concat => (2, usize::MAX),
        Substring => (2, 3),
        Translate => (3, 3),
    }
}

// ---- steps 2–7: the main normalization ---------------------------------

/// A `self::node()` path (the expansion of `.`).
fn context_node_path() -> AstExpr {
    AstExpr::Path(AstPath {
        absolute: false,
        steps: vec![AstStep::simple(Axis::SelfAxis, NodeTest::AnyNode)],
    })
}

/// Normalizes a parsed expression into the paper's core form.
pub fn normalize(expr: AstExpr, b: &Bindings) -> Result<AstExpr, ParseError> {
    Ok(match expr {
        AstExpr::Or(mut l, mut r) => {
            *l = to_boolean(normalize(*l, b)?)?;
            *r = to_boolean(normalize(*r, b)?)?;
            AstExpr::Or(l, r)
        }
        AstExpr::And(mut l, mut r) => {
            *l = to_boolean(normalize(*l, b)?)?;
            *r = to_boolean(normalize(*r, b)?)?;
            AstExpr::And(l, r)
        }
        AstExpr::Compare(op, l, r) => {
            let l = normalize(*l, b)?;
            let r = normalize(*r, b)?;
            lift_union_in_comparison(op, l, r)?
        }
        AstExpr::Arith(op, mut l, mut r) => {
            *l = to_number(normalize(*l, b)?)?;
            *r = to_number(normalize(*r, b)?)?;
            AstExpr::Arith(op, l, r)
        }
        AstExpr::Neg(mut e) => {
            *e = to_number(normalize(*e, b)?)?;
            AstExpr::Neg(e)
        }
        AstExpr::Union(mut l, mut r) => {
            *l = normalize(*l, b)?;
            *r = normalize(*r, b)?;
            require_nset(&l, "left operand of |")?;
            require_nset(&r, "right operand of |")?;
            AstExpr::Union(l, r)
        }
        AstExpr::Path(mut p) => {
            norm_steps(&mut p.steps, b)?;
            AstExpr::Path(p)
        }
        AstExpr::Filter {
            primary,
            mut predicates,
            mut steps,
        } => {
            let primary = normalize(*primary, b)?;
            require_nset(&primary, "filter expression")?;
            norm_predicates(&mut predicates, b)?;
            norm_steps(&mut steps, b)?;
            simplify_filter(primary, predicates, steps)?
        }
        AstExpr::Call(name, args) => norm_call(name, args, b)?,
        // Rule 1: a variable is the constant it is bound to.
        AstExpr::Var(name) => match b.get(&name) {
            Some(Constant::Number(n)) => AstExpr::Number(*n),
            Some(Constant::String(s)) => AstExpr::Literal(s.clone()),
            Some(Constant::Boolean(true)) => AstExpr::Call("true".into(), vec![]),
            Some(Constant::Boolean(false)) => AstExpr::Call("false".into(), vec![]),
            None => return Err(err(format!("unbound variable ${name}"))),
        },
        leaf @ (AstExpr::Number(_) | AstExpr::Literal(_)) => leaf,
    })
}

fn norm_steps(steps: &mut [AstStep], b: &Bindings) -> Result<(), ParseError> {
    steps
        .iter_mut()
        .try_for_each(|s| norm_predicates(&mut s.predicates, b))
}

/// Rule 3: number predicates become positional tests, everything else
/// becomes boolean.
fn norm_predicates(predicates: &mut [AstExpr], b: &Bindings) -> Result<(), ParseError> {
    for slot in predicates {
        // `Number(0)` is what a leaf costs to leave behind while its
        // predicate is rebuilt.
        let p = normalize(std::mem::replace(slot, AstExpr::Number(0.0)), b)?;
        *slot = match static_type(&p)? {
            StaticType::Boolean => p,
            StaticType::Number => AstExpr::Compare(
                CmpOp::Eq,
                Box::new(AstExpr::Call("position".into(), vec![])),
                Box::new(p),
            ),
            _ => to_boolean(p)?,
        };
    }
    Ok(())
}

/// Wraps in `boolean(…)` unless already boolean.
fn to_boolean(e: AstExpr) -> Result<AstExpr, ParseError> {
    Ok(match static_type(&e)? {
        StaticType::Boolean => e,
        _ => lift_union_in_boolean(e),
    })
}

/// Rule 6a: `boolean(π₁|π₂)` → `boolean(π₁) or boolean(π₂)`.
fn lift_union_in_boolean(e: AstExpr) -> AstExpr {
    match e {
        AstExpr::Union(a, b) => AstExpr::Or(
            Box::new(lift_union_in_boolean(*a)),
            Box::new(lift_union_in_boolean(*b)),
        ),
        other => AstExpr::Call("boolean".into(), vec![other]),
    }
}

/// Rule 6b: distributes scalar comparisons over union operands.
fn lift_union_in_comparison(op: CmpOp, a: AstExpr, b: AstExpr) -> Result<AstExpr, ParseError> {
    let ta = static_type(&a)?;
    let tb = static_type(&b)?;
    // Only when exactly one side is a union and the other side is scalar;
    // nset RelOp nset keeps its (non-Wadler) form.
    if ta == StaticType::NodeSet && tb != StaticType::NodeSet {
        if let AstExpr::Union(l, r) = a {
            let left = lift_union_in_comparison(op, *l, b.clone())?;
            let right = lift_union_in_comparison(op, *r, b)?;
            return Ok(AstExpr::Or(Box::new(left), Box::new(right)));
        }
    }
    if tb == StaticType::NodeSet && ta != StaticType::NodeSet {
        if let AstExpr::Union(l, r) = b {
            let left = lift_union_in_comparison(op, a.clone(), *l)?;
            let right = lift_union_in_comparison(op, a, *r)?;
            return Ok(AstExpr::Or(Box::new(left), Box::new(right)));
        }
    }
    Ok(AstExpr::Compare(op, Box::new(a), Box::new(b)))
}

/// Wraps in `number(…)` unless already a number.
fn to_number(e: AstExpr) -> Result<AstExpr, ParseError> {
    Ok(match static_type(&e)? {
        StaticType::Number => e,
        _ => AstExpr::Call("number".into(), vec![e]),
    })
}

/// Wraps in `string(…)` unless already a string.
fn to_string_arg(e: AstExpr) -> Result<AstExpr, ParseError> {
    Ok(match static_type(&e)? {
        StaticType::String => e,
        _ => AstExpr::Call("string".into(), vec![e]),
    })
}

fn require_nset(e: &AstExpr, what: impl std::fmt::Display) -> Result<(), ParseError> {
    if static_type(e)? != StaticType::NodeSet {
        return Err(err(format!("{what} must be a node-set")));
    }
    Ok(())
}

/// A `Filter` whose pieces may collapse back into a plain path:
/// `Path(p)` with no predicates and extra steps becomes one longer path.
fn simplify_filter(
    primary: AstExpr,
    predicates: Vec<AstExpr>,
    steps: Vec<AstStep>,
) -> Result<AstExpr, ParseError> {
    if predicates.is_empty() {
        if let AstExpr::Path(mut p) = primary {
            p.steps.extend(steps);
            return Ok(AstExpr::Path(p));
        }
        if steps.is_empty() {
            return Ok(primary);
        }
    }
    Ok(AstExpr::Filter {
        primary: Box::new(primary),
        predicates,
        steps,
    })
}

/// Rules 2, 4, 5 for function calls.
fn norm_call(name: String, args: Vec<AstExpr>, b: &Bindings) -> Result<AstExpr, ParseError> {
    // Resolves the name once; also the arity check, up front.
    let func = resolve_call(&name, args.len())?;
    let mut args = args
        .into_iter()
        .map(|a| normalize(a, b))
        .collect::<Result<Vec<_>, _>>()?;
    // Rule 2: zero-argument context forms.
    if args.is_empty() && arities(func) == (0, 1) {
        args.push(context_node_path());
    }
    use Func::*;
    Ok(match func {
        // Conversions collapse when the argument already has the target
        // type (`number(5)` = `5`).
        String | Number if static_type(&args[0])? == func.result_type() => args.remove(0),
        Boolean => to_boolean(args.remove(0))?,
        // Node-set-only functions.
        Count | Sum | LocalName | NamespaceUri | Name => {
            require_nset(&args[0], format_args!("argument of {name}()"))?;
            AstExpr::Call(name, args)
        }
        // Rule 5: id() over a node-set becomes an id-"axis" step chain.
        Id => {
            let arg = args.remove(0);
            if static_type(&arg)? != StaticType::NodeSet {
                return Ok(AstExpr::Call(name, vec![to_string_arg(arg)?]));
            }
            let id_step = AstStep::simple(Axis::Id, NodeTest::AnyNode);
            let (primary, predicates, mut steps) = match arg {
                AstExpr::Path(mut p) => {
                    p.steps.push(id_step);
                    return Ok(AstExpr::Path(p));
                }
                AstExpr::Filter {
                    primary,
                    predicates,
                    steps,
                } => (primary, predicates, steps),
                other => (Box::new(other), vec![], vec![]),
            };
            steps.push(id_step);
            AstExpr::Filter {
                primary,
                predicates,
                steps,
            }
        }
        // Boolean-argument functions.
        Not => AstExpr::Call(name, vec![to_boolean(args.remove(0))?]),
        // String-argument functions.
        Concat | StartsWith | Contains | SubstringBefore | SubstringAfter | Translate | Lang
        | NormalizeSpace | StringLength => {
            let args = args
                .into_iter()
                .map(to_string_arg)
                .collect::<Result<Vec<_>, _>>()?;
            AstExpr::Call(name, args)
        }
        Substring => {
            let mut it = args.into_iter();
            let s = to_string_arg(it.next().expect("arity checked"))?;
            let start = to_number(it.next().expect("arity checked"))?;
            let mut out = vec![s, start];
            if let Some(len) = it.next() {
                out.push(to_number(len)?);
            }
            AstExpr::Call(name, out)
        }
        // Number-argument functions.
        Floor | Ceiling | Round => AstExpr::Call(name, vec![to_number(args.remove(0))?]),
        // Conversions that stay, and the nullary / context-free ones.
        String | Number | True | False | Position | Last => AstExpr::Call(name, args),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn norm(s: &str) -> AstExpr {
        normalize(parse_expr(s).unwrap(), &Bindings::default())
            .unwrap_or_else(|e| panic!("normalize {s:?}: {e}"))
    }

    fn norm_str(s: &str) -> String {
        norm(s).to_string()
    }

    #[test]
    fn number_predicates_become_positional() {
        assert_eq!(norm_str("a[3]"), "child::a[(position() = 3)]");
        assert_eq!(norm_str("a[last()]"), "child::a[(position() = last())]");
        assert_eq!(norm_str("a[1+1]"), "child::a[(position() = (1 + 1))]");
    }

    #[test]
    fn nset_predicates_become_boolean() {
        assert_eq!(norm_str("a[b]"), "child::a[boolean(child::b)]");
        assert_eq!(norm_str("a['x']"), "child::a[boolean('x')]");
    }

    #[test]
    fn boolean_predicates_stay() {
        assert_eq!(norm_str("a[b = 1]"), "child::a[(child::b = 1)]");
    }

    #[test]
    fn and_or_arguments_become_boolean() {
        assert_eq!(norm_str("a and 1"), "(boolean(child::a) and boolean(1))");
        assert_eq!(norm_str("true() or b"), "(true() or boolean(child::b))");
    }

    #[test]
    fn arithmetic_arguments_become_numbers() {
        assert_eq!(norm_str("a + 1"), "(number(child::a) + 1)");
        assert_eq!(norm_str("-'3'"), "(-number('3'))");
        assert_eq!(norm_str("1 + 2"), "(1 + 2)");
    }

    #[test]
    fn comparisons_keep_operand_types() {
        // Figure 1 dispatches nset × num directly; no conversion inserted.
        assert_eq!(norm_str("a = 100"), "(child::a = 100)");
        assert_eq!(norm_str("a = b"), "(child::a = child::b)");
    }

    #[test]
    fn zero_arg_context_functions_expand() {
        assert_eq!(norm_str("string()"), "string(self::node())");
        assert_eq!(
            norm_str("string-length()"),
            "string-length(string(self::node()))"
        );
        assert_eq!(
            norm_str("normalize-space()"),
            "normalize-space(string(self::node()))"
        );
        assert_eq!(norm_str("number()"), "number(self::node())");
        assert_eq!(norm_str("name()"), "name(self::node())");
    }

    #[test]
    fn redundant_conversions_collapse() {
        assert_eq!(norm_str("number(5)"), "5");
        assert_eq!(norm_str("string('x')"), "'x'");
        assert_eq!(norm_str("boolean(true())"), "true()");
        assert_eq!(norm_str("boolean(1 = 1)"), "(1 = 1)");
    }

    #[test]
    fn id_of_path_becomes_id_step() {
        assert_eq!(norm_str("id(/a)"), "/child::a/id::node()");
        assert_eq!(norm_str("id(id(/a))"), "/child::a/id::node()/id::node()");
    }

    #[test]
    fn id_of_scalar_wraps_string() {
        assert_eq!(norm_str("id('x')"), "id('x')");
        assert_eq!(norm_str("id(5)"), "id(string(5))");
        // Nested: id over id over a string.
        assert_eq!(norm_str("id(id('x'))"), "(id('x'))/id::node()");
    }

    #[test]
    fn union_lifting_under_boolean() {
        assert_eq!(
            norm_str("boolean(a | b)"),
            "(boolean(child::a) or boolean(child::b))"
        );
        // Triple union lifts fully.
        assert_eq!(
            norm_str("boolean(a | b | c)"),
            "((boolean(child::a) or boolean(child::b)) or boolean(child::c))"
        );
        // In a predicate position the same lifting applies.
        assert_eq!(
            norm_str("x[a | b]"),
            "child::x[(boolean(child::a) or boolean(child::b))]"
        );
    }

    #[test]
    fn union_lifting_under_scalar_comparison() {
        assert_eq!(
            norm_str("(a | b) = 100"),
            "((child::a = 100) or (child::b = 100))"
        );
        assert_eq!(
            norm_str("100 = (a | b)"),
            "((100 = child::a) or (100 = child::b))"
        );
        // nset RelOp nset is *not* lifted.
        assert_eq!(
            norm_str("(a | b) = c"),
            "((child::a | child::b) = child::c)"
        );
    }

    #[test]
    fn variables_substitute() {
        let b = Bindings::new()
            .number("n", 5.0)
            .string("s", "hi")
            .boolean("t", true);
        let e = normalize(parse_expr("$n + 1").unwrap(), &b).unwrap();
        assert_eq!(e.to_string(), "(5 + 1)");
        let e = normalize(parse_expr("a[$t]").unwrap(), &b).unwrap();
        assert_eq!(e.to_string(), "child::a[true()]");
        let e = normalize(parse_expr("contains($s, 'h')").unwrap(), &b).unwrap();
        assert_eq!(e.to_string(), "contains('hi', 'h')");
        assert!(normalize(parse_expr("$missing").unwrap(), &Bindings::new()).is_err());
        // A variable is resolved wherever the walk meets it — here inside
        // a predicate inside a filter inside a call — and typed as the
        // constant it stands for: `$n` makes a positional predicate, `$s`
        // a boolean one.
        let e = normalize(parse_expr("count((//a)[b[$n]][$s]/c)").unwrap(), &b).unwrap();
        assert_eq!(
            e.to_string(),
            "count((/descendant-or-self::node()/child::a)\
             [boolean(child::b[(position() = 5)])][boolean('hi')]/child::c)"
        );
        let deep = parse_expr("count((//a)[b[$missing]]/c)").unwrap();
        let err = normalize(deep, &b).unwrap_err();
        assert!(
            err.to_string().contains("unbound variable $missing"),
            "{err}"
        );
    }

    #[test]
    fn arity_errors() {
        assert!(normalize(parse_expr("count()").unwrap(), &Bindings::new()).is_err());
        assert!(normalize(parse_expr("count(a, b)").unwrap(), &Bindings::new()).is_err());
        assert!(normalize(parse_expr("true(1)").unwrap(), &Bindings::new()).is_err());
        assert!(normalize(parse_expr("nosuchfn(1)").unwrap(), &Bindings::new()).is_err());
        assert!(normalize(parse_expr("substring('a')").unwrap(), &Bindings::new()).is_err());
    }

    #[test]
    fn type_errors() {
        // count/sum of a non-node-set is a static error.
        assert!(normalize(parse_expr("count(1)").unwrap(), &Bindings::new()).is_err());
        assert!(normalize(parse_expr("sum('x')").unwrap(), &Bindings::new()).is_err());
        // Union operands must be node-sets.
        assert!(normalize(parse_expr("1 | a").unwrap(), &Bindings::new()).is_err());
    }

    #[test]
    fn string_function_arguments_convert() {
        assert_eq!(
            norm_str("contains(a, 5)"),
            "contains(string(child::a), string(5))"
        );
        assert_eq!(
            norm_str("substring(a, b, 2)"),
            "substring(string(child::a), number(child::b), 2)"
        );
        assert_eq!(norm_str("not(a)"), "not(boolean(child::a))");
        assert_eq!(norm_str("floor('2.5')"), "floor(number('2.5'))");
    }

    #[test]
    fn paper_query_e_normalizes() {
        let s = norm_str("/descendant::*/descendant::*[position() > last()*0.5 or self::* = 100]");
        assert_eq!(
            s,
            "/descendant::*/descendant::*[((position() > (last() * 0.5)) or (self::* = 100))]"
        );
    }

    #[test]
    fn paper_query_q_normalizes() {
        let s = norm_str(
            "/child::a/descendant::*[boolean(following::d[(position() != last()) and \
             (preceding-sibling::*/preceding::* = 100)]/following::d)]",
        );
        assert_eq!(
            s,
            "/child::a/descendant::*[boolean(following::d[((position() != last()) and \
             (preceding-sibling::*/preceding::* = 100))]/following::d)]"
        );
    }

    #[test]
    fn filter_simplification() {
        // A parenthesized path with trailing steps collapses to one path.
        assert_eq!(norm_str("(/a)/b"), "/child::a/child::b");
        // With predicates it stays a filter.
        let e = norm("(/a)[1]/b");
        assert!(matches!(e, AstExpr::Filter { .. }));
    }

    #[test]
    fn deeply_nested_normalization() {
        let s = norm_str("a[b[c[d[5]]]]");
        assert_eq!(
            s,
            "child::a[boolean(child::b[boolean(child::c[boolean(child::d[(position() = 5)])])])]"
        );
    }
}
