//! XML document model, parser and axis algebra for the `minctx` XPath engine.
//!
//! This crate is the *data substrate* of the reproduction of
//! Gottlob/Koch/Pichler, "XPath Query Evaluation: Improving Time and Space
//! Efficiency" (ICDE 2003).  It provides everything Section 2.1 of the paper
//! assumes about the data:
//!
//! * the node domain `dom` — an unranked, ordered, labeled tree
//!   ([`Document`], [`NodeId`]),
//! * the node-test function `T : (Σ ∪ {*}) → 2^dom` ([`Document::label`],
//!   [`axes::NodeTest`]),
//! * the binary axis relations `χ ⊆ dom × dom` and the axis functions
//!   `χ(X)` / `χ⁻¹(X)`, computable in time `O(|D|)`
//!   ([`axes::axis_image`], [`axes::axis_preimage`]),
//! * document order `<doc` and the axis-relative order `<doc,χ`
//!   ([`NodeId`] ordering, [`axes::Axis::is_reverse`]),
//! * string values `strval : dom → string` ([`Document::string_value`]) and
//!   the id dereferencing function `deref_ids` ([`Document::deref_ids`]).
//!
//! The XML parser ([`parse`], [`parse_with_options`]) and serializer
//! ([`serialize::to_xml_string`]) are written from scratch — no third-party
//! XML crate is used anywhere in the workspace.
//!
//! # Example
//!
//! ```
//! use minctx_xml::{parse, axes::{Axis, NodeTest}};
//!
//! let doc = parse("<a><b/><c><b/></c></a>").unwrap();
//! let root = doc.root();
//! let bs = doc.axis_nodes(Axis::Descendant, root, &NodeTest::name("b"));
//! assert_eq!(bs.len(), 2);
//! ```

pub mod axes;
pub mod builder;
pub mod document;
pub mod error;
pub mod name;
pub mod node;
pub mod nodeset;
pub mod par;
pub mod parser;
pub mod serialize;
pub mod store;
pub mod sweep;
pub mod token;

pub use axes::{
    sibling_ranks, Axis, AxisRoute, Dispatch, NodeTest, ResolvedTest, Scratch, SiblingRank,
};
pub use builder::DocumentBuilder;
pub use document::Document;
pub use error::{XmlError, XmlErrorKind};
pub use name::{Name, NameTable};
pub use node::{NodeId, NodeKind};
pub use nodeset::{DenseSet, NodeSet};
pub use par::{Exec, WorkerPool};
pub use parser::{
    parse, parse_reader, parse_reader_with_options, parse_with_options, ParseOptions,
};
pub use store::{ColumnError, RawColumns, StableBytes};
pub use sweep::ColumnSweep;
pub use token::{Tokenizer, XmlEvent, DEFAULT_MAX_ELEMENT_DEPTH};
