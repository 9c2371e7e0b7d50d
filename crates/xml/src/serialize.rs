//! Serialization of [`Document`]s back to XML text.
//!
//! Used by the examples, by debugging output, and by the parse →
//! serialize → parse round-trip property tests.

use crate::document::Document;
use crate::node::{NodeId, NodeKind};
use std::fmt::Write;

/// Serializes the whole document.
pub fn to_xml_string(doc: &Document) -> String {
    let mut out = String::new();
    for child in doc.children(doc.root()) {
        write_node(doc, child, &mut out);
    }
    out
}

fn write_node(doc: &Document, n: NodeId, out: &mut String) {
    match doc.kind(n) {
        NodeKind::Root => {
            for child in doc.children(n) {
                write_node(doc, child, out);
            }
        }
        NodeKind::Element(name) => {
            let tag = doc.names().resolve(name);
            out.push('<');
            out.push_str(tag);
            for attr in doc.attributes(n) {
                let aname = doc
                    .label_str(attr)
                    .expect("attribute nodes always carry a name");
                let _ = write!(out, " {}=\"", aname);
                escape_into(doc.content(attr), true, out);
                out.push('"');
            }
            if doc.first_child(n).is_none() {
                out.push_str("/>");
            } else {
                out.push('>');
                for child in doc.children(n) {
                    write_node(doc, child, out);
                }
                out.push_str("</");
                out.push_str(tag);
                out.push('>');
            }
        }
        NodeKind::Text => escape_into(doc.content(n), false, out),
        NodeKind::Comment => {
            out.push_str("<!--");
            out.push_str(doc.content(n));
            out.push_str("-->");
        }
        NodeKind::Pi(target) => {
            let _ = write!(out, "<?{}", doc.names().resolve(target));
            if !doc.content(n).is_empty() {
                out.push(' ');
                out.push_str(doc.content(n));
            }
            out.push_str("?>");
        }
        NodeKind::Attribute(name) => {
            // Standalone attribute rendering (debugging convenience).
            let _ = write!(out, "{}=\"", doc.names().resolve(name));
            escape_into(doc.content(n), true, out);
            out.push('"');
        }
    }
}

/// Escapes character data; `in_attribute` additionally escapes quotes.
fn escape_into(s: &str, in_attribute: bool, out: &mut String) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' if in_attribute => out.push_str("&quot;"),
            '\t' | '\n' | '\r' if in_attribute => {
                let _ = write!(out, "&#{};", c as u32);
            }
            _ => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn round_trip_simple() {
        let src = r#"<a id="1"><b>x &amp; y</b><c/></a>"#;
        let doc = parse(src).unwrap();
        assert_eq!(to_xml_string(&doc), src);
    }

    #[test]
    fn escapes_special_characters() {
        let doc = parse("<a x=\"&quot;q&quot;\">&lt;&amp;&gt;</a>").unwrap();
        let s = to_xml_string(&doc);
        assert_eq!(s, "<a x=\"&quot;q&quot;\">&lt;&amp;&gt;</a>");
        // And it re-parses to the same content.
        let doc2 = parse(&s).unwrap();
        assert_eq!(doc2.string_value(doc2.root()), "<&>");
    }

    #[test]
    fn comments_and_pis_round_trip() {
        let src = "<a><!--hello--><?pi data?></a>";
        let doc = parse(src).unwrap();
        assert_eq!(to_xml_string(&doc), src);
    }

    #[test]
    fn reparse_equals_original_structure() {
        let src = r#"<root a="1" b="two"><x/>mid<y><z/></y>end</root>"#;
        let doc = parse(src).unwrap();
        let doc2 = parse(&to_xml_string(&doc)).unwrap();
        assert_eq!(doc.len(), doc2.len());
        for (n1, n2) in doc.all_nodes().zip(doc2.all_nodes()) {
            assert_eq!(doc.label_str(n1), doc2.label_str(n2));
            assert_eq!(doc.content(n1), doc2.content(n2));
        }
    }
}
