//! The XPath 1.0 core function library (§4 of the spec), shared by every
//! evaluation strategy.
//!
//! `position()` and `last()` are *not* here: they read the evaluation
//! context directly and each evaluator supplies them from its own context
//! representation.  Everything else is a pure function of the document,
//! the (already evaluated) argument values, and — for `lang()` only — the
//! context node.

use crate::error::EvalError;
use crate::value::{node_number, Value};
use minctx_syntax::Func;
use minctx_xml::{Document, NodeId, NodeSet};

/// Applies a core-library function to evaluated arguments.
///
/// The normalizer guarantees argument types, so type mismatches surface as
/// [`EvalError::Type`] only for hand-constructed queries.
pub fn apply(
    doc: &Document,
    func: Func,
    args: &[Value],
    ctx_node: NodeId,
) -> Result<Value, EvalError> {
    Ok(match func {
        Func::Position | Func::Last => {
            unreachable!("position()/last() are evaluated from the context")
        }
        Func::Count => Value::Number(node_set(&args[0])?.len() as f64),
        Func::Sum => {
            // Attribute and text content is read in place (sum() over large
            // sets is a hot serving shape).
            let numbers = node_set(&args[0])?.iter();
            Value::Number(numbers.map(|n| node_number(doc, n)).sum())
        }
        Func::Id => {
            // After normalization the argument is always a string; `id()`
            // over node-sets became the id-"axis" (Section 4 of the paper).
            Value::NodeSet(doc.deref_ids(&args[0].string(doc)))
        }
        Func::LocalName | Func::Name => {
            let name = node_set(&args[0])?
                .first()
                .and_then(|n| doc.label_str(n))
                .unwrap_or_default();
            Value::String(name.to_string())
        }
        // No namespace support in the document model: always "".
        Func::NamespaceUri => {
            node_set(&args[0])?;
            Value::String(String::new())
        }
        Func::String => Value::String(args[0].string(doc)),
        Func::Concat => {
            let mut out = String::new();
            for a in args {
                out.push_str(&a.string(doc));
            }
            Value::String(out)
        }
        Func::StartsWith => Value::Boolean(args[0].string(doc).starts_with(&args[1].string(doc))),
        Func::Contains => Value::Boolean(args[0].string(doc).contains(&args[1].string(doc))),
        Func::SubstringBefore => {
            let s = args[0].string(doc);
            let pat = args[1].string(doc);
            Value::String(
                s.split_once(&pat)
                    .map(|(b, _)| b.to_string())
                    .unwrap_or_default(),
            )
        }
        Func::SubstringAfter => {
            let s = args[0].string(doc);
            let pat = args[1].string(doc);
            Value::String(
                s.split_once(&pat)
                    .map(|(_, a)| a.to_string())
                    .unwrap_or_default(),
            )
        }
        Func::Substring => {
            let s = args[0].string(doc);
            let start = xpath_round(args[1].number(doc));
            let end = args.get(2).map(|l| start + xpath_round(l.number(doc)));
            // §4.2: character at 1-based position p is kept iff
            // p >= round(start) and (no length or p < round(start+length));
            // NaN makes both comparisons false.
            let kept: String = s
                .chars()
                .enumerate()
                .filter(|(i, _)| {
                    let p = (i + 1) as f64;
                    p >= start && end.is_none_or(|e| p < e)
                })
                .map(|(_, c)| c)
                .collect();
            Value::String(kept)
        }
        Func::StringLength => Value::Number(args[0].string(doc).chars().count() as f64),
        Func::NormalizeSpace => {
            let s = args[0].string(doc);
            Value::String(
                s.split([' ', '\t', '\r', '\n'])
                    .filter(|t| !t.is_empty())
                    .collect::<Vec<_>>()
                    .join(" "),
            )
        }
        Func::Translate => {
            let s = args[0].string(doc);
            let from: Vec<char> = args[1].string(doc).chars().collect();
            let to: Vec<char> = args[2].string(doc).chars().collect();
            let out: String = s
                .chars()
                .filter_map(|c| match from.iter().position(|&f| f == c) {
                    Some(i) => to.get(i).copied(), // None (deleted) if `to` is shorter
                    None => Some(c),
                })
                .collect();
            Value::String(out)
        }
        Func::Boolean => Value::Boolean(args[0].boolean()),
        Func::Not => Value::Boolean(!args[0].boolean()),
        Func::True => Value::Boolean(true),
        Func::False => Value::Boolean(false),
        Func::Lang => Value::Boolean(lang_matches(doc, ctx_node, &args[0].string(doc))),
        Func::Number => Value::Number(args[0].number(doc)),
        Func::Floor => Value::Number(args[0].number(doc).floor()),
        Func::Ceiling => Value::Number(args[0].number(doc).ceil()),
        Func::Round => Value::Number(xpath_round(args[0].number(doc))),
    })
}

/// XPath `round()`: round half *up* (toward +∞); NaN and infinities pass
/// through, and arguments in `[-0.5, -0]` return **negative** zero (§4.4)
/// — so `1 div round(-0.2)` is `-Infinity`, not `+Infinity`.
pub fn xpath_round(n: f64) -> f64 {
    if n.is_nan() || n.is_infinite() {
        n
    } else {
        let r = (n + 0.5).floor();
        if r == 0.0 && n.is_sign_negative() {
            -0.0
        } else {
            r
        }
    }
}

/// `lang(s)` (§4.3): the `xml:lang` attribute of the nearest ancestor-or-
/// self element equals `s` or is a sublanguage of it, case-insensitively.
fn lang_matches(doc: &Document, ctx_node: NodeId, wanted: &str) -> bool {
    let wanted = wanted.to_ascii_lowercase();
    let mut cur = Some(ctx_node);
    while let Some(n) = cur {
        if doc.kind(n).is_element() {
            if let Some(lang) = doc.attribute_value(n, "xml:lang") {
                let lang = lang.to_ascii_lowercase();
                return lang == wanted
                    || (lang.starts_with(&wanted)
                        && lang.as_bytes().get(wanted.len()) == Some(&b'-'));
            }
        }
        cur = doc.parent(n);
    }
    false
}

fn node_set(v: &Value) -> Result<&NodeSet, EvalError> {
    v.as_node_set().ok_or(EvalError::Type {
        expected: "node-set",
        got: v.value_type().as_str(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use minctx_xml::parse;

    fn doc() -> Document {
        parse(r#"<a xml:lang="en-US"><b>7</b><b>3</b></a>"#).unwrap()
    }

    fn call(f: Func, args: &[Value]) -> Value {
        let d = doc();
        apply(&d, f, args, d.root()).unwrap()
    }

    #[test]
    fn string_functions() {
        let s = |v: &str| Value::String(v.to_string());
        assert_eq!(call(Func::Concat, &[s("a"), s("b"), s("c")]), s("abc"));
        assert_eq!(
            call(Func::StartsWith, &[s("abc"), s("ab")]),
            Value::Boolean(true)
        );
        assert_eq!(
            call(Func::Contains, &[s("abc"), s("zz")]),
            Value::Boolean(false)
        );
        assert_eq!(
            call(Func::SubstringBefore, &[s("1999/04"), s("/")]),
            s("1999")
        );
        assert_eq!(call(Func::SubstringAfter, &[s("1999/04"), s("/")]), s("04"));
        assert_eq!(call(Func::SubstringBefore, &[s("abc"), s("z")]), s(""));
        assert_eq!(call(Func::StringLength, &[s("héllo")]), Value::Number(5.0));
        assert_eq!(
            call(Func::NormalizeSpace, &[s("  a \t b\n c ")]),
            s("a b c")
        );
        assert_eq!(
            call(Func::Translate, &[s("--aaa--"), s("abc-"), s("ABC")]),
            s("AAA")
        );
    }

    #[test]
    fn substring_spec_examples() {
        let s = |v: &str| Value::String(v.to_string());
        let n = Value::Number;
        // The famous §4.2 edge cases.
        assert_eq!(
            call(Func::Substring, &[s("12345"), n(2.0), n(3.0)]),
            s("234")
        );
        assert_eq!(call(Func::Substring, &[s("12345"), n(2.0)]), s("2345"));
        assert_eq!(
            call(Func::Substring, &[s("12345"), n(1.5), n(2.6)]),
            s("234")
        );
        assert_eq!(
            call(Func::Substring, &[s("12345"), n(0.0), n(3.0)]),
            s("12")
        );
        assert_eq!(
            call(Func::Substring, &[s("12345"), n(f64::NAN), n(3.0)]),
            s("")
        );
        assert_eq!(
            call(Func::Substring, &[s("12345"), n(1.0), n(f64::NAN)]),
            s("")
        );
        assert_eq!(
            call(Func::Substring, &[s("12345"), n(-42.0), n(f64::INFINITY)]),
            s("12345")
        );
        assert_eq!(
            call(
                Func::Substring,
                &[s("12345"), n(f64::NEG_INFINITY), n(f64::INFINITY)]
            ),
            s("")
        );
    }

    #[test]
    fn numeric_functions() {
        assert_eq!(call(Func::Floor, &[Value::Number(2.6)]), Value::Number(2.0));
        assert_eq!(
            call(Func::Ceiling, &[Value::Number(2.2)]),
            Value::Number(3.0)
        );
        assert_eq!(call(Func::Round, &[Value::Number(2.5)]), Value::Number(3.0));
        assert_eq!(
            call(Func::Round, &[Value::Number(-2.5)]),
            Value::Number(-2.0)
        );
        assert!(xpath_round(f64::NAN).is_nan());
    }

    #[test]
    fn round_returns_negative_zero_on_negative_half_open_interval() {
        // §4.4: for n in [-0.5, -0], round(n) is *negative* zero.  The sign
        // is invisible to `==` but decides `1 div round(n)`.
        for n in [-0.5, -0.2, -0.0, -f64::MIN_POSITIVE] {
            let r = xpath_round(n);
            assert_eq!(r, 0.0, "round({n})");
            assert!(r.is_sign_negative(), "round({n}) lost the sign");
            assert_eq!(1.0 / r, f64::NEG_INFINITY, "1 div round({n})");
        }
        // Positive zero stays positive; half rounds toward +∞.
        assert!(!xpath_round(0.0).is_sign_negative());
        assert!(!xpath_round(0.4).is_sign_negative());
        assert_eq!(xpath_round(-0.5), 0.0);
        assert_eq!(xpath_round(-0.6), -1.0);
        assert_eq!(xpath_round(0.5), 1.0);
    }

    #[test]
    fn node_set_functions() {
        let d = doc();
        let a = d.document_element();
        let bs: NodeSet = d.children(a).collect();
        let v = apply(&d, Func::Count, &[Value::NodeSet(bs.clone())], d.root()).unwrap();
        assert_eq!(v, Value::Number(2.0));
        let v = apply(&d, Func::Sum, &[Value::NodeSet(bs.clone())], d.root()).unwrap();
        assert_eq!(v, Value::Number(10.0));
        let v = apply(&d, Func::Name, &[Value::NodeSet(bs)], d.root()).unwrap();
        assert_eq!(v, Value::String("b".to_string()));
        let v = apply(&d, Func::Name, &[Value::NodeSet(NodeSet::new())], d.root()).unwrap();
        assert_eq!(v, Value::String(String::new()));
        // Type defense.
        assert!(apply(&d, Func::Count, &[Value::Number(1.0)], d.root()).is_err());
    }

    #[test]
    fn lang_checks_ancestors() {
        let d = doc();
        let a = d.document_element();
        let b = d.first_child(a).unwrap();
        let s = |v: &str| Value::String(v.to_string());
        assert_eq!(
            apply(&d, Func::Lang, &[s("en")], b).unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(
            apply(&d, Func::Lang, &[s("en-us")], b).unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(
            apply(&d, Func::Lang, &[s("de")], b).unwrap(),
            Value::Boolean(false)
        );
    }
}
