//! Error types for XML parsing and document construction.

use std::fmt;

/// Classifies an [`XmlError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlErrorKind {
    /// Input ended in the middle of a construct.
    UnexpectedEof,
    /// A character that cannot start or continue the current construct.
    UnexpectedChar(char),
    /// `</b>` closed an element opened as `<a>`.
    MismatchedTag { open: String, close: String },
    /// A close tag without a matching open tag.
    UnmatchedClose(String),
    /// The document ended with unclosed elements.
    UnclosedElements(usize),
    /// More than one top-level element, or text at the top level.
    TrailingContent,
    /// No top-level element at all.
    NoRootElement,
    /// An invalid XML name (element, attribute or PI target).
    InvalidName(String),
    /// Malformed entity or character reference such as `&foo` or `&#xZZ;`.
    BadEntity(String),
    /// An attribute appeared twice on the same element.
    DuplicateAttribute(String),
    /// `--` inside a comment, `]]>` in text, and similar lexical violations.
    Malformed(String),
    /// Element nesting exceeded
    /// [`ParseOptions::max_element_depth`](crate::ParseOptions): the
    /// document is deeper than the configured limit allows (tokenizer
    /// stack slots and consumer state frames grow with depth, so
    /// adversarially deep inputs are cut off instead of exhausting
    /// memory).
    TooDeep {
        /// The configured [`ParseOptions::max_element_depth`](crate::ParseOptions).
        limit: usize,
    },
}

impl fmt::Display for XmlErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlErrorKind::UnexpectedEof => write!(f, "unexpected end of input"),
            XmlErrorKind::UnexpectedChar(c) => write!(f, "unexpected character {c:?}"),
            XmlErrorKind::MismatchedTag { open, close } => {
                write!(f, "close tag </{close}> does not match open tag <{open}>")
            }
            XmlErrorKind::UnmatchedClose(name) => {
                write!(f, "close tag </{name}> without matching open tag")
            }
            XmlErrorKind::UnclosedElements(n) => {
                write!(f, "document ended with {n} unclosed element(s)")
            }
            XmlErrorKind::TrailingContent => write!(f, "content after the document element"),
            XmlErrorKind::NoRootElement => write!(f, "document has no root element"),
            XmlErrorKind::InvalidName(n) => write!(f, "invalid XML name {n:?}"),
            XmlErrorKind::BadEntity(e) => write!(f, "malformed entity reference {e:?}"),
            XmlErrorKind::DuplicateAttribute(a) => write!(f, "duplicate attribute {a:?}"),
            XmlErrorKind::Malformed(m) => write!(f, "malformed XML: {m}"),
            XmlErrorKind::TooDeep { limit } => write!(
                f,
                "element nesting exceeds the configured depth limit of {limit}"
            ),
        }
    }
}

/// An XML parse error with the byte offset and line/column where it occurred.
///
/// One pointer wide: the tokenizer returns a `Result<_, XmlError>` per
/// event, and an inline 72-byte error made every one of those returns a
/// 10-word move.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError(Box<Inner>);

#[derive(Debug, Clone, PartialEq, Eq)]
struct Inner {
    kind: XmlErrorKind,
    offset: usize,
    line: u32,
    column: u32,
}

impl XmlError {
    pub(crate) fn new(kind: XmlErrorKind, offset: usize, line: u32, column: u32) -> Self {
        XmlError(Box::new(Inner {
            kind,
            offset,
            line,
            column,
        }))
    }

    /// What went wrong.
    pub fn kind(&self) -> &XmlErrorKind {
        &self.0.kind
    }

    /// Byte offset into the input where the error was detected.
    pub fn offset(&self) -> usize {
        self.0.offset
    }

    /// 1-based line number of the error.
    pub fn line(&self) -> u32 {
        self.0.line
    }

    /// 1-based column number (in characters) of the error.
    pub fn column(&self) -> u32 {
        self.0.column
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at line {}, column {}",
            self.0.kind, self.0.line, self.0.column
        )
    }
}

impl std::error::Error for XmlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let e = XmlError::new(XmlErrorKind::UnexpectedEof, 10, 2, 5);
        let s = e.to_string();
        assert!(s.contains("line 2"), "{s}");
        assert!(s.contains("column 5"), "{s}");
    }

    #[test]
    fn kind_accessors() {
        let e = XmlError::new(XmlErrorKind::TrailingContent, 3, 1, 4);
        assert_eq!(*e.kind(), XmlErrorKind::TrailingContent);
        assert_eq!(e.offset(), 3);
        assert_eq!(e.line(), 1);
        assert_eq!(e.column(), 4);
    }

    #[test]
    fn mismatched_tag_message() {
        let k = XmlErrorKind::MismatchedTag {
            open: "a".into(),
            close: "b".into(),
        };
        assert_eq!(k.to_string(), "close tag </b> does not match open tag <a>");
    }
}
