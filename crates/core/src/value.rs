//! XPath 1.0 values and their conversion / comparison semantics.
//!
//! Every evaluation strategy produces the same [`Value`] type, and all of
//! them share the conversion functions here — so differential tests across
//! strategies exercise the *algorithms*, not divergent copies of the XPath
//! type system.

use crate::error::EvalError;
use minctx_syntax::{CmpOp, ValueType};
use minctx_xml::{Document, NodeId, NodeKind, NodeSet};
use std::borrow::Cow;

/// An XPath 1.0 value: the result of evaluating any expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A set of nodes in document order.
    NodeSet(NodeSet),
    /// An IEEE 754 double.
    Number(f64),
    /// A string.
    String(String),
    /// A boolean.
    Boolean(bool),
}

impl Value {
    /// The runtime type tag (always equal to the static
    /// [`ValueType`] the lowering computed for the producing expression).
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::NodeSet(_) => ValueType::NodeSet,
            Value::Number(_) => ValueType::Number,
            Value::String(_) => ValueType::String,
            Value::Boolean(_) => ValueType::Boolean,
        }
    }

    /// Extracts the node-set, or a [`EvalError::Type`] for scalar values.
    pub fn into_node_set(self) -> Result<NodeSet, EvalError> {
        match self {
            Value::NodeSet(ns) => Ok(ns),
            other => Err(EvalError::Type {
                expected: "node-set",
                got: other.value_type().as_str(),
            }),
        }
    }

    /// Borrows the node-set, if this is one.
    pub fn as_node_set(&self) -> Option<&NodeSet> {
        match self {
            Value::NodeSet(ns) => Some(ns),
            _ => None,
        }
    }

    /// `boolean()` conversion (XPath 1.0 §4.3): numbers are true unless
    /// zero or NaN, strings unless empty, node-sets unless empty.
    pub fn boolean(&self) -> bool {
        match self {
            Value::NodeSet(ns) => !ns.is_empty(),
            Value::Number(n) => *n != 0.0 && !n.is_nan(),
            Value::String(s) => !s.is_empty(),
            Value::Boolean(b) => *b,
        }
    }

    /// `number()` conversion (§4.4).  Needs the document for node-set
    /// operands (number of the string value of the first node).
    pub fn number(&self, doc: &Document) -> f64 {
        match self {
            Value::NodeSet(ns) => ns.first().map_or(f64::NAN, |n| node_number(doc, n)),
            scalar => scalar_number(scalar),
        }
    }

    /// `string()` conversion (§4.2).  A node-set converts to the string
    /// value of its first node in document order (empty set → "").
    pub fn string(&self, doc: &Document) -> String {
        match self {
            Value::NodeSet(ns) => ns.first().map(|n| doc.string_value(n)).unwrap_or_default(),
            scalar => scalar_string(scalar),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Boolean(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Number(n)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl From<NodeSet> for Value {
    fn from(ns: NodeSet) -> Value {
        Value::NodeSet(ns)
    }
}

/// XPath 1.0 string→number: optional whitespace, optional minus, decimal
/// digits with an optional fraction — anything else is NaN (§4.4; no `+`,
/// no exponent notation).
///
/// One scan over the bytes.  With at most 15 significant digits the
/// mantissa `m` and `10^frac` are both exact doubles, so the one correctly
/// rounded division `m / 10^frac` is the correctly rounded value of the
/// decimal — bit for bit what `f64::from_str` returns, `-0` included;
/// longer numerals are validated here and handed to `from_str`.
pub fn string_to_number(s: &str) -> f64 {
    /// `10^k` for every `k` at which the power is an exact double.
    const POW10: [f64; 23] = [
        1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
        1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
    ];
    // (Slice patterns, not `position` / `rposition`: 0.2 ms of the 1.7 ms
    // of `//item[@v > 500]` on the benchmark document.)
    let is_space = |c: &u8| matches!(c, b' ' | b'\t' | b'\r' | b'\n');
    let mut t = s.as_bytes();
    while let [c, rest @ ..] = t {
        if !is_space(c) {
            break;
        }
        t = rest;
    }
    while let [rest @ .., c] = t {
        if !is_space(c) {
            break;
        }
        t = rest;
    }
    let (negative, body) = match t {
        [b'-', body @ ..] => (true, body),
        body => (false, body),
    };
    // `m`: the digits read so far as an integer; `significant`: how many of
    // them follow the leading zeros; `frac`: how many follow the point.
    let (mut m, mut significant, mut frac, mut digits) = (0u64, 0usize, 0usize, 0usize);
    let mut point = false;
    for &c in body {
        match c {
            b'0'..=b'9' => {
                digits += 1;
                frac += usize::from(point);
                significant += usize::from(significant > 0 || c != b'0');
                if significant <= 15 {
                    m = m * 10 + u64::from(c - b'0');
                }
            }
            b'.' if !point => point = true,
            _ => return f64::NAN,
        }
    }
    if digits == 0 {
        return f64::NAN;
    }
    if significant > 15 || frac >= POW10.len() {
        // Valid, but not exactly representable piecewise: `body` is ASCII
        // digits around at most one point, which `from_str` accepts.
        let text = s.trim_matches([' ', '\t', '\r', '\n']);
        return text.parse().unwrap_or(f64::NAN);
    }
    let magnitude = m as f64 / POW10[frac];
    if negative {
        -magnitude
    } else {
        magnitude
    }
}

/// `number(string-value(node))`, reading attribute / text content in place.
pub fn node_number(doc: &Document, node: NodeId) -> f64 {
    string_to_number(&string_value(doc, node))
}

/// XPath 1.0 number→string (§4.2): `NaN`, `Infinity`, integers without a
/// decimal point, otherwise the shortest round-tripping decimal.
pub fn number_to_string(n: f64) -> String {
    if n.is_nan() {
        "NaN".to_string()
    } else if n.is_infinite() {
        if n > 0.0 { "Infinity" } else { "-Infinity" }.to_string()
    } else if n == 0.0 {
        "0".to_string() // covers -0.0
    } else {
        format!("{n}")
    }
}

/// Evaluates `a op b` with the overloaded comparison semantics of XPath 1.0
/// §3.4 — the dispatch table the paper compresses into Figure 1.
///
/// Node-set comparisons against numbers and strings are existential:
/// `A op B` holds iff some member satisfies the scalar comparison (by
/// *string* value against strings under equality, by *number* otherwise).
/// A node-set against a **boolean** is *not* existential: §3.4 converts
/// the whole set with `boolean()` first, so an empty set equals `false()`.
pub fn compare(doc: &Document, op: CmpOp, a: &Value, b: &Value) -> bool {
    use Value::NodeSet;
    match (a, b) {
        // §3.4: a node-set against a boolean converts the *set* with
        // boolean() — never its members — and the relational variants then
        // compare the two booleans as numbers.
        (NodeSet(_), Value::Boolean(_)) | (Value::Boolean(_), NodeSet(_)) => {
            if op.is_equality() {
                cmp_bool(op, a.boolean(), b.boolean())
            } else {
                cmp_num(op, a.boolean() as u8 as f64, b.boolean() as u8 as f64)
            }
        }
        (NodeSet(x), NodeSet(y)) => {
            if op.is_equality() {
                // ∃ x∈X, y∈Y : strval(x) op strval(y).
                let ys: Vec<Cow<'_, str>> = y.iter().map(|n| string_value(doc, n)).collect();
                x.iter().any(|m| {
                    let sx = string_value(doc, m);
                    ys.iter().any(|sy| cmp_str(op, &sx, sy))
                })
            } else {
                let ys: Vec<f64> = y.iter().map(|n| node_number(doc, n)).collect();
                x.iter().any(|m| {
                    let nx = node_number(doc, m);
                    ys.iter().any(|&ny| cmp_num(op, nx, ny))
                })
            }
        }
        (NodeSet(x), _) => x.iter().any(|m| cmp_node_scalar(doc, op, m, b)),
        (_, NodeSet(y)) => {
            let op = op.swapped();
            y.iter().any(|m| cmp_node_scalar(doc, op, m, a))
        }
        _ => compare_scalars(op, a, b),
    }
}

/// `strval(node) op scalar` — the single-node comparison the existential
/// node-set rules quantify over.  Exposed so OPTMINCONTEXT can build its
/// backward-propagation witness sets from exactly the same dispatch.
///
/// # Panics
///
/// Panics if `v` is a node-set or a boolean: node-sets are handled by the
/// existential rules of [`compare`], and boolean comparisons convert the
/// whole node-set, never its members.
pub fn node_scalar_compare(doc: &Document, op: CmpOp, node: NodeId, v: &Value) -> bool {
    cmp_node_scalar(doc, op, node, v)
}

/// The string value of `node` without allocating where it is one stored
/// span: attribute / text / comment / PI nodes borrow their content; only
/// elements and the root concatenate their descendant text.
fn string_value(doc: &Document, node: NodeId) -> Cow<'_, str> {
    match doc.kind(node) {
        NodeKind::Root | NodeKind::Element(_) => Cow::Owned(doc.string_value(node)),
        _ => Cow::Borrowed(doc.content(node)),
    }
}

/// `strval(node) op scalar` with the per-type dispatch of §3.4.
fn cmp_node_scalar(doc: &Document, op: CmpOp, node: NodeId, v: &Value) -> bool {
    let strval = string_value(doc, node);
    match v {
        Value::Number(n) => cmp_num(op, string_to_number(&strval), *n),
        Value::String(s) if op.is_equality() => cmp_str(op, &strval, s),
        Value::String(s) => cmp_num(op, string_to_number(&strval), string_to_number(s)),
        Value::Boolean(_) => {
            unreachable!("boolean comparisons convert the node-set, not its members")
        }
        Value::NodeSet(_) => unreachable!("node-set handled by caller"),
    }
}

/// [`compare`] restricted to *scalar* operands.  No document is needed —
/// scalar conversions never touch it — which is what lets the rewrite
/// pipeline fold constant comparisons at compile time through exactly the
/// §3.4 dispatch the evaluators use.
///
/// # Panics
///
/// Panics if either operand is a node-set (those take the existential
/// rules of [`compare`]).
pub fn compare_scalars(op: CmpOp, a: &Value, b: &Value) -> bool {
    if op.is_equality() {
        // §3.4 priority: boolean > number > string.
        match (a, b) {
            (Value::Boolean(_), _) | (_, Value::Boolean(_)) => {
                cmp_bool(op, a.boolean(), b.boolean())
            }
            (Value::Number(_), _) | (_, Value::Number(_)) => {
                cmp_num(op, scalar_number(a), scalar_number(b))
            }
            _ => cmp_str(op, &scalar_string(a), &scalar_string(b)),
        }
    } else {
        // Relational scalars always go through number() — number(true)=1.
        cmp_num(op, scalar_number(a), scalar_number(b))
    }
}

/// `number()` of a scalar (the document-free subset of [`Value::number`]).
fn scalar_number(v: &Value) -> f64 {
    match v {
        Value::Number(n) => *n,
        Value::String(s) => string_to_number(s),
        Value::Boolean(b) => *b as u8 as f64,
        Value::NodeSet(_) => unreachable!("scalar conversion of a node-set"),
    }
}

/// `string()` of a scalar (the document-free subset of [`Value::string`]).
fn scalar_string(v: &Value) -> String {
    match v {
        Value::Number(n) => number_to_string(*n),
        Value::String(s) => s.clone(),
        Value::Boolean(b) => if *b { "true" } else { "false" }.to_string(),
        Value::NodeSet(_) => unreachable!("scalar conversion of a node-set"),
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

fn cmp_str(op: CmpOp, a: &str, b: &str) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Neq => a != b,
        _ => unreachable!("relational string comparison converts to numbers"),
    }
}

fn cmp_bool(op: CmpOp, a: bool, b: bool) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Neq => a != b,
        // Relational comparison of booleans goes through numbers.
        _ => cmp_num(op, a as u8 as f64, b as u8 as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minctx_xml::parse;

    #[test]
    fn string_to_number_strictness() {
        assert_eq!(string_to_number("42"), 42.0);
        assert_eq!(string_to_number("  -3.5 "), -3.5);
        assert_eq!(string_to_number(".5"), 0.5);
        assert_eq!(string_to_number("5."), 5.0);
        assert!(string_to_number("1e3").is_nan()); // no exponents in XPath
        assert!(string_to_number("+1").is_nan()); // no leading plus
        assert!(string_to_number("").is_nan());
        assert!(string_to_number("abc").is_nan());
        assert!(string_to_number("1.2.3").is_nan());
        assert!(string_to_number(".").is_nan());
        assert!(string_to_number("-").is_nan());
    }

    /// `string_to_number` as it was before the byte scanner — three
    /// `chars()` passes and `f64::from_str` — kept verbatim as the oracle.
    fn string_to_number_oracle(s: &str) -> f64 {
        let t = s.trim_matches([' ', '\t', '\r', '\n']);
        if t.is_empty() {
            return f64::NAN;
        }
        let body = t.strip_prefix('-').unwrap_or(t);
        let valid = !body.is_empty()
            && body.chars().all(|c| c.is_ascii_digit() || c == '.')
            && body.chars().filter(|&c| c == '.').count() <= 1
            && body != ".";
        if !valid {
            return f64::NAN;
        }
        t.parse::<f64>().unwrap_or(f64::NAN)
    }

    #[test]
    fn string_to_number_is_bit_identical_to_the_old_function() {
        let same = |s: &str| {
            let (new, old) = (string_to_number(s), string_to_number_oracle(s));
            // NaN payloads are not part of the contract; everything else,
            // the sign of zero included, is.
            assert!(
                new.to_bits() == old.to_bits() || (new.is_nan() && old.is_nan()),
                "{s:?}: {new:?} vs {old:?}"
            );
        };
        for s in [
            "",
            " ",
            "-",
            ".",
            "-.",
            "-0",
            "-0.0",
            "-.0",
            "0",
            "00",
            "-00.00",
            "5.",
            ".5",
            "-.5",
            "1.2.3",
            "1e3",
            "+1",
            "1 2",
            "- 1",
            "--1",
            "1-",
            "\u{a0}1",
            "1\u{a0}",
            "\t\n 42 \r\n",
            "\u{c}1",
            "1\u{c}",
            "١٢٣",
            "１２",
            "0x10",
            "1,5",
            "Infinity",
            "NaN",
            "inf",
            "999999999999999",
            "9999999999999999",
            "0.1",
            "0.30000000000000004",
            "123456789012345.6",
            "1234567890.12345",
            "0.0000000000000000000001",
            "0.00000000000000000000001",
            "4.35",
            "0.000001",
            "179769313486231570000000000000",
            "2.2250738585072011",
            "0.000000000000000000000000000000000000000000001",
        ] {
            same(s);
        }
        for n in [1usize, 15, 16, 17, 22, 23, 24, 400] {
            let run = "7".repeat(n);
            for s in [
                run.clone(),
                format!("-{run}"),
                format!(".{run}"),
                format!("{run}."),
                format!("{run}.{run}"),
                format!("0.{}{run}", "0".repeat(n)),
                format!("{}{run}", "0".repeat(n)),
                format!("{run}{}", "0".repeat(n)),
                format!("1.{}", "0".repeat(n)),
            ] {
                same(&s);
            }
        }
        // ≥ 10⁵ generated numerals: 1–20 digits, the point anywhere (or
        // nowhere), optional sign, leading zeros and surrounding
        // whitespace, and now and then a byte that makes it not a number.
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
        };
        let mut finite = 0;
        for _ in 0..120_000 {
            let mut s = String::new();
            s.push_str(["", "", "", " ", "\n\t "][next(5) as usize]);
            if next(3) == 0 {
                s.push('-');
            }
            s.push_str(&"0".repeat([0, 0, 0, 1, 3][next(5) as usize]));
            let digits = 1 + next(20);
            let point = next(digits + 6);
            for d in 0..digits {
                if d == point {
                    s.push('.');
                }
                s.push(char::from(b'0' + next(10) as u8));
            }
            if next(40) == 0 {
                let at = next(s.len() as u64 + 1) as usize;
                s.insert(at, ['e', '+', ' ', '.', '-', '\u{a0}'][next(6) as usize]);
            }
            s.push_str(["", "", "", " ", "\r\n"][next(5) as usize]);
            same(&s);
            finite += usize::from(string_to_number(&s).is_finite());
        }
        assert!(finite > 100_000, "only {finite} numerals were numbers");
        // Every `@v` of a benchmark-shaped document (and every other
        // attribute and text value in it).
        let doc = minctx_bench::xmark_doc(&minctx_bench::XmarkConfig::sized(20_000));
        let mut values = 0;
        for n in doc.all_nodes().filter(|&n| !doc.kind(n).is_element()) {
            same(doc.content(n));
            assert_eq!(
                node_number(&doc, n).to_bits(),
                string_to_number_oracle(&doc.string_value(n)).to_bits()
            );
            values += 1;
        }
        assert!(values > 20_000);
    }

    #[test]
    fn number_to_string_forms() {
        assert_eq!(number_to_string(2.0), "2");
        assert_eq!(number_to_string(-0.0), "0");
        assert_eq!(number_to_string(0.5), "0.5");
        assert_eq!(number_to_string(f64::NAN), "NaN");
        assert_eq!(number_to_string(f64::INFINITY), "Infinity");
        assert_eq!(number_to_string(f64::NEG_INFINITY), "-Infinity");
    }

    #[test]
    fn boolean_conversion() {
        assert!(Value::Number(1.0).boolean());
        assert!(!Value::Number(0.0).boolean());
        assert!(!Value::Number(f64::NAN).boolean());
        assert!(Value::String("x".into()).boolean());
        assert!(!Value::String(String::new()).boolean());
        assert!(!Value::NodeSet(NodeSet::new()).boolean());
    }

    #[test]
    fn nodeset_string_is_first_node() {
        let doc = parse("<a><b>one</b><c>two</c></a>").unwrap();
        let a = doc.document_element();
        let ns: NodeSet = doc.children(a).collect();
        let v = Value::NodeSet(ns);
        assert_eq!(v.string(&doc), "one");
        assert_eq!(Value::NodeSet(NodeSet::new()).string(&doc), "");
    }

    #[test]
    fn existential_comparisons() {
        let doc = parse("<a><b>1</b><b>5</b></a>").unwrap();
        let a = doc.document_element();
        let bs: NodeSet = doc.children(a).collect();
        let v = Value::NodeSet(bs);
        // ∃b: b = 5, ∃b: b < 2, but not ∀-style: both = and != hold.
        assert!(compare(&doc, CmpOp::Eq, &v, &Value::Number(5.0)));
        assert!(compare(&doc, CmpOp::Neq, &v, &Value::Number(5.0)));
        assert!(compare(&doc, CmpOp::Lt, &v, &Value::Number(2.0)));
        assert!(!compare(&doc, CmpOp::Gt, &v, &Value::Number(5.0)));
        // Swapped operand order.
        assert!(compare(&doc, CmpOp::Gt, &Value::Number(2.0), &v));
        // String equality against a node-set is by string value.
        assert!(compare(&doc, CmpOp::Eq, &v, &Value::String("1".into())));
        assert!(!compare(&doc, CmpOp::Eq, &v, &Value::String("7".into())));
    }

    #[test]
    fn node_scalar_comparison_reads_every_kind_by_its_string_value() {
        // Leaf kinds compare their own (borrowed) content; elements and
        // the root still compare the concatenation of their text.
        let doc = parse(r#"<a k="7">1<b>2</b><!--5--><?p 9?>3</a>"#).unwrap();
        let num = |n: f64| Value::Number(n);
        let a = doc.document_element();
        assert!(node_scalar_compare(
            &doc,
            CmpOp::Eq,
            doc.root(),
            &num(123.0)
        ));
        assert!(node_scalar_compare(&doc, CmpOp::Eq, a, &num(123.0)));
        assert!(node_scalar_compare(
            &doc,
            CmpOp::Eq,
            a,
            &Value::String("123".into())
        ));
        // Element and root string-values are unchanged, and owned…
        for n in [doc.root(), a] {
            assert!(matches!(string_value(&doc, n), Cow::Owned(s) if s == "123"));
        }
        // …every other kind is its one stored span, borrowed.
        let want = ["7", "1", "2", "2", "5", "9", "3"];
        let inner = doc.all_nodes().filter(|&n| n != doc.root() && n != a);
        for (n, s) in inner.zip(want) {
            let strval = string_value(&doc, n);
            assert_eq!(strval, s, "node {n}");
            let leaf = !doc.kind(n).is_element();
            assert_eq!(matches!(strval, Cow::Borrowed(_)), leaf, "node {n}");
            let eq = |v: Value| node_scalar_compare(&doc, CmpOp::Eq, n, &v);
            assert!(eq(Value::String(s.into())), "node {n} = {s:?}");
            assert!(eq(num(s.parse().unwrap())), "node {n} = {s}");
            assert!(!eq(Value::String("123".into())), "node {n}");
            assert!(node_scalar_compare(
                &doc,
                CmpOp::Lt,
                n,
                &Value::String("10".into())
            ));
        }
    }

    #[test]
    fn scalar_comparison_priorities() {
        let doc = parse("<a/>").unwrap();
        // boolean beats number for equality.
        assert!(compare(
            &doc,
            CmpOp::Eq,
            &Value::Boolean(true),
            &Value::Number(7.0)
        ));
        // number beats string.
        assert!(compare(
            &doc,
            CmpOp::Eq,
            &Value::Number(7.0),
            &Value::String("7".into())
        ));
        // relational always numeric.
        assert!(compare(
            &doc,
            CmpOp::Lt,
            &Value::String("3".into()),
            &Value::String("21".into())
        ));
    }

    #[test]
    fn nodeset_boolean_comparisons_convert_the_set() {
        // §3.4: `A op bool` converts A with boolean(), it is NOT the
        // existential per-member rule — an empty set equals false().
        let doc = parse("<a><b>0</b></a>").unwrap();
        let empty = Value::NodeSet(NodeSet::new());
        assert!(compare(&doc, CmpOp::Eq, &empty, &Value::Boolean(false)));
        assert!(!compare(&doc, CmpOp::Eq, &empty, &Value::Boolean(true)));
        assert!(compare(&doc, CmpOp::Neq, &empty, &Value::Boolean(true)));
        // Relational: boolean(set) compared as a number; empty → 0 < 1.
        assert!(compare(&doc, CmpOp::Lt, &empty, &Value::Boolean(true)));
        let bs: NodeSet = doc.children(doc.document_element()).collect();
        let nonempty = Value::NodeSet(bs);
        // boolean(nonempty) = true even though number(strval) = 0.
        assert!(compare(&doc, CmpOp::Eq, &nonempty, &Value::Boolean(true)));
        assert!(!compare(&doc, CmpOp::Lt, &nonempty, &Value::Boolean(true)));
        assert!(compare(&doc, CmpOp::Ge, &Value::Boolean(true), &nonempty));
    }

    #[test]
    fn scalar_boolean_relational_goes_through_numbers() {
        // `2 > true()` is number(2) > number(true) = 2 > 1, NOT a
        // boolean-vs-boolean comparison.
        let doc = parse("<a/>").unwrap();
        assert!(compare(
            &doc,
            CmpOp::Gt,
            &Value::Number(2.0),
            &Value::Boolean(true)
        ));
        assert!(!compare(
            &doc,
            CmpOp::Lt,
            &Value::Number(0.5),
            &Value::Boolean(false)
        ));
        assert!(compare(
            &doc,
            CmpOp::Gt,
            &Value::Number(0.5),
            &Value::Boolean(false)
        ));
    }

    #[test]
    fn into_node_set_type_error() {
        assert!(Value::NodeSet(NodeSet::new()).into_node_set().is_ok());
        let err = Value::Number(1.0).into_node_set().unwrap_err();
        assert_eq!(
            err,
            EvalError::Type {
                expected: "node-set",
                got: "number"
            }
        );
    }
}
