//! Result digests: what every timed op's answer is reduced to and compared
//! by.  Equality is the differential suites' agreement relation — NaN
//! equals NaN, −0 differs from +0 — and a streamed answer digests like the
//! arena answer with the same ordinals.

use minctx::prelude::{EvalError, StreamOutcome, StreamValue, Value};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    /// A digest no answer has where this one was expected — for the
    /// self-test that a wrong answer is caught (`--flip-expected`).
    pub fn flipped(self) -> Digest {
        Digest(!self.0)
    }
}

const SEED: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(PRIME)
}

fn of_ordinals(ordinals: impl ExactSizeIterator<Item = u32>) -> Digest {
    let h = mix(mix(SEED, 0), ordinals.len() as u64);
    Digest(ordinals.fold(h, |h, o| mix(h, u64::from(o))))
}

fn of_number(x: f64) -> Digest {
    // Every NaN is one value; the sign of zero is kept.
    let bits = if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    };
    Digest(mix(mix(SEED, 1), bits))
}

fn of_boolean(b: bool) -> Digest {
    Digest(mix(mix(SEED, 3), u64::from(b)))
}

pub fn of_value(v: &Value) -> Digest {
    match v {
        Value::NodeSet(ns) => of_ordinals(ns.as_slice().iter().map(|n| n.index() as u32)),
        Value::Number(x) => of_number(*x),
        Value::String(s) => Digest(s.bytes().fold(mix(SEED, 2), |h, b| mix(h, u64::from(b)))),
        Value::Boolean(b) => of_boolean(*b),
    }
}

/// Whether an op failed: it errored (no digest), or the reference could not
/// answer, or the two differ.
pub fn wrong(got: Option<Digest>, want: Option<Digest>) -> bool {
    got.is_none() || got != want
}

/// The digest of an op that may fail; an error never equals an answer.
pub fn of_result(r: &Result<Value, EvalError>) -> Option<Digest> {
    r.as_ref().ok().map(of_value)
}

/// The digest of a streamed answer; `None` for an error *or* a fallback to
/// the arena, which the streaming workload counts as a failure.
pub fn of_stream(r: &Result<StreamOutcome, EvalError>) -> Option<Digest> {
    match r.as_ref().ok()?.streamed()? {
        StreamValue::Nodes(ms) => Some(of_ordinals(ms.iter().map(|m| m.ordinal))),
        StreamValue::Number(x) => Some(of_number(*x)),
        StreamValue::Boolean(b) => Some(of_boolean(*b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_equals_nan_and_zero_signs_differ() {
        let nan_a = Value::Number(f64::NAN);
        let nan_b = Value::Number(f64::from_bits(f64::NAN.to_bits() | 1 << 63 | 7));
        assert_eq!(of_value(&nan_a), of_value(&nan_b));
        assert_ne!(
            of_value(&Value::Number(0.0)),
            of_value(&Value::Number(-0.0))
        );
        assert_eq!(of_value(&Value::Number(1.5)), of_value(&Value::Number(1.5)));
    }

    #[test]
    fn types_and_contents_are_told_apart() {
        let doc = minctx::xml::parse("<a><b/><b/></a>").unwrap();
        let eval = |q: &str| {
            minctx::prelude::Engine::new(minctx::prelude::Strategy::MinContext)
                .evaluate_str(&doc, q)
                .unwrap()
        };
        assert_ne!(of_value(&eval("//b")), of_value(&eval("//b[1]")));
        assert_ne!(of_value(&eval("//nosuch")), of_value(&eval("''")));
        assert_ne!(of_value(&eval("1")), of_value(&eval("true()")));
        assert_ne!(of_value(&eval("'ab'")), of_value(&eval("'ba'")));
        assert_eq!(of_value(&eval("//b")), of_value(&eval("/a/b")));
        assert_eq!(of_result(&Ok(eval("2"))), Some(of_value(&eval("1 + 1"))));
    }

    #[test]
    fn streamed_answers_digest_like_arena_answers() {
        use minctx::prelude::*;
        let xml = r#"<a><b id="1"/><c/><b/></a>"#;
        let doc = parse_xml(xml).unwrap();
        let arena = Engine::new(Strategy::MinContext);
        let stream = Engine::new(Strategy::Streaming);
        for q in ["//b", "count(//b[@id])", "boolean(//c)"] {
            let query = parse_xpath(q).unwrap();
            let streamed = stream.evaluate_reader_str(&query, xml);
            assert_eq!(
                of_stream(&streamed),
                of_result(&arena.evaluate_str(&doc, q)),
                "{q}"
            );
        }
        // A fallback is not an answer of the streaming route.
        let query = parse_xpath("//b[last()]").unwrap();
        assert_eq!(of_stream(&stream.evaluate_reader_str(&query, xml)), None);
    }
}
