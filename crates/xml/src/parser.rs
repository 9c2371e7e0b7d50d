//! The DOM-building XML parser: a thin fold of the shared pull
//! [`Tokenizer`] into a [`DocumentBuilder`].
//!
//! All lexing — elements, attributes, character data with entity and
//! character references, CDATA sections, comments, processing
//! instructions, the optional XML declaration and the skipped-over
//! DOCTYPE — lives in [`crate::token`]; this module only maps events to
//! builder calls, so the DOM parser and the streaming evaluator
//! (`minctx-stream`) are guaranteed to agree on what the nodes of a
//! document are.  Namespaces are treated as plain names with colons,
//! matching the paper's model which omits the namespace axis.

use crate::builder::DocumentBuilder;
use crate::document::Document;
use crate::error::XmlError;
use crate::token::{Tokenizer, XmlEvent};
use std::io::Read;

/// Parses an XML document.
pub fn parse(input: &str) -> Result<Document, XmlError> {
    build(
        Tokenizer::new(input),
        DocumentBuilder::for_text(input.len()),
    )
}

/// Parses an XML document from a reader.  The tokenizer's sliding window
/// keeps peak lexing memory proportional to the largest single token; the
/// arena, of course, holds the document.
pub fn parse_reader(reader: impl Read) -> Result<Document, XmlError> {
    build(Tokenizer::from_reader(reader), DocumentBuilder::new())
}

/// Folds the event stream into a document.
fn build(mut tok: Tokenizer<'_>, mut b: DocumentBuilder) -> Result<Document, XmlError> {
    while let Some(ev) = tok.next_event()? {
        match ev {
            XmlEvent::StartElement { name, attrs } => {
                b.start_element_from(name, attrs.iter());
            }
            XmlEvent::EndElement { .. } => {
                b.end_element();
            }
            XmlEvent::Text(t) => {
                b.text(t);
            }
            XmlEvent::Comment(c) => {
                b.comment(c);
            }
            XmlEvent::Pi { target, data } => {
                b.processing_instruction(target, data);
            }
        }
    }
    // The tokenizer has already validated completeness; `finish` re-checks
    // the same invariants structurally.
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::XmlErrorKind;
    use crate::node::NodeKind;

    #[test]
    fn minimal_document() {
        let doc = parse("<a/>").unwrap();
        assert_eq!(doc.len(), 2);
        assert_eq!(doc.label_str(doc.document_element()), Some("a"));
    }

    #[test]
    fn xml_declaration_and_doctype() {
        let doc = parse("<?xml version=\"1.0\"?><!DOCTYPE a SYSTEM \"x.dtd\"><a/>").unwrap();
        assert_eq!(doc.label_str(doc.document_element()), Some("a"));
    }

    #[test]
    fn doctype_with_internal_subset() {
        let doc = parse("<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]><a>t</a>").unwrap();
        assert_eq!(doc.string_value(doc.root()), "t");
    }

    #[test]
    fn entities_in_text_and_attributes() {
        let doc = parse(r#"<a x="&lt;&amp;&gt;">&quot;&apos;&#65;&#x42;</a>"#).unwrap();
        let a = doc.document_element();
        assert_eq!(doc.attribute_value(a, "x"), Some("<&>"));
        assert_eq!(doc.string_value(a), "\"'AB");
    }

    #[test]
    fn cdata_sections() {
        let doc = parse("<a>x<![CDATA[<not-a-tag> & raw]]>y</a>").unwrap();
        assert_eq!(
            doc.string_value(doc.document_element()),
            "x<not-a-tag> & rawy"
        );
        // CDATA merges with adjacent text into one node.
        let a = doc.document_element();
        assert_eq!(doc.children(a).count(), 1);
    }

    #[test]
    fn comments_and_pis_in_content() {
        let doc = parse("<a><!--c--><?t d?><b/></a>").unwrap();
        let a = doc.document_element();
        let kids: Vec<_> = doc.children(a).collect();
        assert_eq!(kids.len(), 3);
        assert_eq!(doc.kind(kids[0]), NodeKind::Comment);
        assert!(matches!(doc.kind(kids[1]), NodeKind::Pi(_)));
        assert!(doc.kind(kids[2]).is_element());
    }

    #[test]
    fn mismatched_tags_rejected() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn unclosed_element_rejected() {
        let err = parse("<a><b>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::UnexpectedEof));
    }

    #[test]
    fn trailing_content_rejected() {
        let err = parse("<a/><b/>").unwrap_err();
        assert_eq!(*err.kind(), XmlErrorKind::TrailingContent);
        let err = parse("<a/>text").unwrap_err();
        assert_eq!(*err.kind(), XmlErrorKind::TrailingContent);
    }

    #[test]
    fn empty_input_rejected() {
        let err = parse("").unwrap_err();
        assert_eq!(*err.kind(), XmlErrorKind::NoRootElement);
        let err = parse("   \n ").unwrap_err();
        assert_eq!(*err.kind(), XmlErrorKind::NoRootElement);
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = parse(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert_eq!(
            *err.kind(),
            XmlErrorKind::DuplicateAttribute("x".to_string())
        );
    }

    #[test]
    fn bad_entities_rejected() {
        assert!(matches!(
            parse("<a>&nope;</a>").unwrap_err().kind(),
            XmlErrorKind::BadEntity(_)
        ));
        assert!(matches!(
            parse("<a>&#xZZ;</a>").unwrap_err().kind(),
            XmlErrorKind::BadEntity(_)
        ));
        assert!(matches!(
            parse("<a>&#1114112;</a>").unwrap_err().kind(), // > U+10FFFF
            XmlErrorKind::BadEntity(_)
        ));
    }

    #[test]
    fn cdata_end_in_text_rejected() {
        let err = parse("<a>oops ]]> here</a>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::Malformed(_)));
    }

    #[test]
    fn double_dash_in_comment_rejected() {
        let err = parse("<a><!-- bad -- comment --></a>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::Malformed(_)));
    }

    #[test]
    fn lt_in_attribute_rejected() {
        let err = parse(r#"<a x="a<b"/>"#).unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::Malformed(_)));
    }

    #[test]
    fn attribute_value_normalization() {
        let doc = parse("<a x=\"one\ttwo\nthree\"/>").unwrap();
        let a = doc.document_element();
        assert_eq!(doc.attribute_value(a, "x"), Some("one two three"));
    }

    #[test]
    fn error_positions_are_line_column() {
        let err = parse("<a>\n<b></c>\n</a>").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.column() > 1);
    }

    #[test]
    fn unicode_names_and_content() {
        let doc = parse("<café größe=\"1\">héllo ☃</café>").unwrap();
        let e = doc.document_element();
        assert_eq!(doc.label_str(e), Some("café"));
        assert_eq!(doc.attribute_value(e, "größe"), Some("1"));
        assert_eq!(doc.string_value(e), "héllo ☃");
    }

    #[test]
    fn colonized_names_accepted_as_plain() {
        let doc = parse("<ns:a><ns:b/></ns:a>").unwrap();
        assert_eq!(doc.label_str(doc.document_element()), Some("ns:a"));
    }

    #[test]
    fn deep_nesting() {
        let mut s = String::new();
        for i in 0..300 {
            s.push_str(&format!("<n{i}>"));
        }
        for i in (0..300).rev() {
            s.push_str(&format!("</n{i}>"));
        }
        let doc = parse(&s).unwrap();
        assert_eq!(doc.element_count(), 300);
    }

    #[test]
    fn pi_outside_root_is_allowed_but_dropped() {
        // Prolog/epilog PIs and comments have no parent element; they are
        // skipped (our tree keeps only content under the root element, plus
        // the root node itself).
        let doc = parse("<?style x?><a/><!--after-->").unwrap();
        assert_eq!(doc.len(), 2);
    }

    #[test]
    fn parse_reader_round_trips_parse() {
        // The same lexer backs both entry points, so the arenas must be
        // structurally identical.
        let input = r#"<?xml version="1.0"?><a id="r"><b x="1">t&amp;</b><!--c--><?p d?></a>"#;
        let from_str = parse(input).unwrap();
        let from_reader = parse_reader(input.as_bytes()).unwrap();
        assert_eq!(from_str.debug_tree(), from_reader.debug_tree());
    }

    #[test]
    fn leading_bom_is_skipped_once() {
        for input in ["\u{feff}<a/>", "\u{feff}<?xml version=\"1.0\"?><a/>"] {
            assert_eq!(parse(input).unwrap().len(), 2, "{input:?}");
            assert_eq!(
                parse_reader(input.as_bytes()).unwrap().len(),
                2,
                "{input:?}"
            );
        }
        // Offsets count the BOM as three bytes, columns as one character.
        let err = parse("\u{feff}<a></b>").unwrap_err();
        assert_eq!((err.offset(), err.column()), (8, 7));
        // Anywhere else it is content like any other.
        for input in ["\u{feff}\u{feff}<a/>", " \u{feff}<a/>", "<a/>\u{feff}"] {
            let err = parse(input).unwrap_err();
            assert_eq!(*err.kind(), XmlErrorKind::TrailingContent, "{input:?}");
        }
    }

    #[test]
    fn interrupted_reads_are_retried() {
        /// Fails every other `read` with `Interrupted`.
        struct Flaky<'a>(&'a [u8], bool);
        impl Read for Flaky<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                self.1 = !self.1;
                if self.1 {
                    return Err(std::io::ErrorKind::Interrupted.into());
                }
                let n = self.0.len().min(out.len()).min(2);
                out[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let doc = parse_reader(Flaky(b"<a>t</a>", false)).unwrap();
        assert_eq!(doc.string_value(doc.root()), "t");
        // Any other read error still ends the parse.
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::ConnectionReset.into())
            }
        }
        let err = parse_reader(Broken).unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::Malformed(m) if m.contains("read error")));
    }

    #[test]
    fn parse_reader_reports_errors_with_positions() {
        let err = parse_reader("<a>\n<b></c>\n</a>".as_bytes()).unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::MismatchedTag { .. }));
        assert_eq!(err.line(), 2);
    }
}
