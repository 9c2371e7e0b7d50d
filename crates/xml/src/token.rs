//! The pull-based XML tokenizer — the workspace's one and only XML lexer.
//!
//! [`Tokenizer`] turns XML text into a stream of [`XmlEvent`]s
//! (start/end-element with attributes, merged text runs, comments,
//! processing instructions), handling entity and character references,
//! CDATA sections, the XML declaration, DOCTYPE skipping, and the
//! [`ParseOptions`] filters.  Two consumers sit on top of it:
//!
//! * the DOM builder ([`parse`](crate::parse) /
//!   [`parse_reader`](crate::parser::parse_reader)) folds the events into a
//!   [`DocumentBuilder`](crate::DocumentBuilder), and
//! * the streaming evaluator (`minctx-stream`) runs its stack automaton
//!   directly over the events without materializing a document.
//!
//! Because both consume the *same* event stream under the same options,
//! the streamer can mirror the arena's pre-order node numbering exactly:
//! one `StartElement` is one element node followed by one node per
//! attribute, one `Text`/`Comment`/`Pi` event is one node.  Text runs are
//! merged exactly as the DOM parser merges them (CDATA joins the
//! surrounding character data; comments and PIs split runs even when the
//! options drop them).
//!
//! The input can be a borrowed `&str` (zero-copy names and bodies) or any
//! [`io::Read`] ([`Tokenizer::from_reader`]): reader mode keeps a sliding
//! window that is refilled on demand and compacted as events are
//! consumed, so tokenizing a multi-gigabyte feed holds memory proportional
//! to the largest single token, not the input.

use crate::error::{XmlError, XmlErrorKind};
use std::io::Read;

/// Options controlling document construction and event filtering.
#[derive(Debug, Clone)]
pub struct ParseOptions {
    /// Drop text nodes consisting entirely of XML whitespace.  This matches
    /// the paper's examples (Figure 2 is pretty-printed; its `dom` contains
    /// no whitespace nodes).  Default: `false`.
    pub strip_whitespace_text: bool,
    /// Drop comment nodes.  Default: `false`.
    pub keep_comments: bool,
    /// Drop processing-instruction nodes.  Default: `false`.
    pub keep_processing_instructions: bool,
    /// Attribute name supplying element ids for `id()` (DTDs, the standard
    /// source of ID-typed attributes, are not interpreted).  Default: `id`.
    pub id_attribute: String,
    /// Maximum element nesting depth.  Every open element costs a stack
    /// slot in the tokenizer *and* a state frame in every consumer (the
    /// DOM builder's ancestor chain, the streaming automaton's per-depth
    /// frames), so an adversarially deep document — `<a><a><a>…` — would
    /// otherwise grow memory without bound.  Opening an element below
    /// `max_element_depth` ancestors fails with a clean
    /// [`XmlErrorKind::TooDeep`](crate::XmlErrorKind) instead.
    /// Default: 1024 (far above any realistic document; raise it
    /// explicitly for trusted deep inputs).
    pub max_element_depth: usize,
}

/// Default for [`ParseOptions::max_element_depth`].
pub const DEFAULT_MAX_ELEMENT_DEPTH: usize = 1024;

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            strip_whitespace_text: false,
            keep_comments: true,
            keep_processing_instructions: true,
            id_attribute: "id".to_string(),
            max_element_depth: DEFAULT_MAX_ELEMENT_DEPTH,
        }
    }
}

impl ParseOptions {
    /// Options matching the paper's data model: whitespace-only text
    /// stripped, comments and PIs kept.
    pub fn paper_model() -> Self {
        ParseOptions {
            strip_whitespace_text: true,
            ..Default::default()
        }
    }
}

/// One lexical event of an XML document, in document order.
///
/// Borrowed data is valid until the next [`Tokenizer::next_event`] call.
#[derive(Debug, Clone, PartialEq)]
pub enum XmlEvent<'t> {
    /// An element opens.  Attribute values are fully decoded and
    /// whitespace-normalized; a self-closing element is followed
    /// immediately by its [`XmlEvent::EndElement`].
    StartElement {
        name: &'t str,
        attrs: &'t [(String, String)],
    },
    /// The most recently opened element closes.
    EndElement { name: &'t str },
    /// A maximal run of character data (entities decoded, CDATA merged);
    /// never empty, never whitespace-only when the options strip it.
    Text(&'t str),
    /// A comment inside the document element (prolog/epilog comments are
    /// skipped, matching the tree model which roots content at `/`).
    Comment(&'t str),
    /// A processing instruction inside the document element.
    Pi { target: &'t str, data: &'t str },
}

/// Reader-mode refill granularity.
const READ_CHUNK: usize = 16 * 1024;
/// Reader-mode window compaction threshold: once this many bytes are
/// consumed they are dropped from the front of the window (line/column
/// bookkeeping is carried over).
const COMPACT_AT: usize = 64 * 1024;
/// Longest entity body the lexer accepts (`&#x10FFFF;` needs 9).
const MAX_ENTITY: usize = 32;

// Byte classes.  Every run — a name, an attribute value, character
// data — is lexed by `Source::scan`: advance to the first byte carrying
// a given class bit.  Name runs therefore stop on the complemented class
// `NAME_END`, which every byte >= 0x80 is in: `lex_name` decodes that one
// character, asks the Unicode predicate, and resumes the run.
const NAME_START: u8 = 1; // [A-Za-z_:]
const NAME_END: u8 = 2; // not [A-Za-z0-9_:.-]
const TEXT_STOP: u8 = 4; // < & ]
const ATTR_STOP: u8 = 8; // " ' < & \t \n \r
const DOCTYPE_STOP: u8 = 16; // [ ] " ' >

static CLASS: [u8; 256] = {
    let mut t = [NAME_END; 256];
    let mut b = 0;
    while b < 128 {
        let c = b as u8;
        if c.is_ascii_alphabetic() || c == b'_' || c == b':' {
            t[b] |= NAME_START;
        }
        if c.is_ascii_alphanumeric() || matches!(c, b'_' | b':' | b'-' | b'.') {
            t[b] &= !NAME_END;
        }
        if matches!(c, b'<' | b'&' | b']') {
            t[b] |= TEXT_STOP;
        }
        if matches!(c, b'"' | b'\'' | b'<' | b'&' | b'\t' | b'\n' | b'\r') {
            t[b] |= ATTR_STOP;
        }
        if matches!(c, b'[' | b']' | b'"' | b'\'' | b'>') {
            t[b] |= DOCTYPE_STOP;
        }
        b += 1;
    }
    t
};

/// Where the lexer's window comes from.  The lexer is written once
/// against this trait and instantiated for a borrowed string and for a
/// reader, so its hot loops read the window through a plain field
/// instead of deciding the mode again on every access.
trait Feed {
    /// Whether [`Feed::drain`] drops bytes (a borrowed string stays whole).
    const SLIDES: bool;
    /// The text in hand.  [`Feed::refill`] only appends to it.
    fn window(&self) -> &str;
    /// Appends more input to the window.  Returns `false` once the input
    /// is exhausted (repeated calls after EOF stay `false`).
    fn refill(&mut self) -> Result<bool, XmlErrorKind>;
    /// Drops the window's first `n` bytes.
    fn drain(&mut self, n: usize);
}

impl Feed for &str {
    const SLIDES: bool = false;

    #[inline]
    fn window(&self) -> &str {
        self
    }

    fn refill(&mut self) -> Result<bool, XmlErrorKind> {
        Ok(false)
    }

    fn drain(&mut self, _n: usize) {}
}

/// An [`io::Read`](Read) behind a sliding window of decoded text.
struct ReaderFeed<'a> {
    rd: Box<dyn Read + 'a>,
    buf: String,
    /// No more bytes will ever be appended to `buf`.
    eof: bool,
    /// Read scratch, `READ_CHUNK` long; its first `carry` bytes are input
    /// not yet moved to `buf`: an incomplete trailing UTF-8 sequence (at
    /// most 3 bytes) or, once `eof` is set, the start of an invalid one.
    chunk: Vec<u8>,
    carry: usize,
}

impl Feed for ReaderFeed<'_> {
    const SLIDES: bool = true;

    #[inline]
    fn window(&self) -> &str {
        &self.buf
    }

    /// One `read` into the scratch chunk, validated and appended.  Invalid
    /// UTF-8 is reported only once the lexer has consumed the valid text
    /// before it, so what precedes the error does not depend on how the
    /// reader chunks its input.
    fn refill(&mut self) -> Result<bool, XmlErrorKind> {
        if !self.eof {
            let n = loop {
                match self.rd.read(&mut self.chunk[self.carry..]) {
                    Ok(n) => break n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(XmlErrorKind::Malformed(format!("read error: {e}"))),
                }
            };
            let have = self.carry + n;
            let (text, invalid) = match std::str::from_utf8(&self.chunk[..have]) {
                Ok(text) => (text, false),
                Err(e) => (
                    std::str::from_utf8(&self.chunk[..e.valid_up_to()]).expect("validated prefix"),
                    e.error_len().is_some(),
                ),
            };
            self.buf.push_str(text);
            let valid = text.len();
            self.chunk.copy_within(valid..have, 0);
            self.carry = have - valid;
            self.eof = n == 0 || invalid;
            if valid > 0 || !self.eof {
                return Ok(true);
            }
        }
        if self.carry > 0 {
            return Err(XmlErrorKind::Malformed(
                "invalid UTF-8 in input".to_string(),
            ));
        }
        Ok(false)
    }

    fn drain(&mut self, n: usize) {
        self.buf.drain(..n);
    }
}

/// Index of the first byte of `w` whose class has a bit of `stop`.  Eight
/// bytes are classified into a bit mask per step, so a short run costs
/// one predictable loop turn rather than a branch per byte that
/// mispredicts wherever the run happens to end.
#[inline]
fn first_of_class(w: &[u8], stop: u8) -> Option<usize> {
    let hit = |b: &u8| CLASS[*b as usize] & stop != 0;
    // Many scans end where they start (character data at a `<`, a name at
    // its delimiter after a wide character): not worth a wide step.
    if w.first().is_some_and(hit) {
        return Some(0);
    }
    let mut chunks = w.chunks_exact(8);
    for (n, chunk) in chunks.by_ref().enumerate() {
        let mask = chunk
            .iter()
            .enumerate()
            .fold(0u32, |m, (k, b)| m | (u32::from(hit(b)) << k));
        if mask != 0 {
            return Some(n * 8 + mask.trailing_zeros() as usize);
        }
    }
    let tail = chunks.remainder();
    tail.iter().position(hit).map(|k| w.len() - tail.len() + k)
}

/// Advances a zero-based `(line, col)` over `text`; columns count
/// characters.
fn advance_line_col(text: &str, line: &mut u32, col: &mut u32) {
    let sat = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
    let mut tail = text;
    if let Some(nl) = text.rfind('\n') {
        let lines = text.as_bytes()[..=nl].iter().filter(|&&b| b == b'\n');
        *line = line.saturating_add(sat(lines.count()));
        *col = 0;
        tail = &text[nl + 1..];
    }
    *col = col.saturating_add(sat(tail.chars().count()));
}

/// The window and the cursor into it.  All indices are window-local; they
/// stay valid while a token is lexed because the window is refilled only
/// by appending (when a scan reaches its end) and trimmed only between
/// tokens ([`Source::compact`]).
struct Source<F> {
    feed: F,
    /// Start of the next token.
    pos: usize,
    /// Bytes dropped from the front of the window so far, and the
    /// zero-based line/column that prefix ends at.
    drained: usize,
    drained_lines: u32,
    drained_cols: u32,
    /// Bytes examined by `scan`/`find`, for the linearity test.
    #[cfg(test)]
    scanned: usize,
}

impl<F: Feed> Source<F> {
    #[inline]
    fn bytes(&self) -> &[u8] {
        self.feed.window().as_bytes()
    }

    #[inline]
    fn byte(&self, i: usize) -> Option<u8> {
        self.bytes().get(i).copied()
    }

    /// The window text `a..b` (character boundaries: every scan stops on
    /// an ASCII byte or on the first byte of a sequence).
    #[inline]
    fn text(&self, a: usize, b: usize) -> &str {
        &self.feed.window()[a..b]
    }

    fn char_at(&self, i: usize) -> Option<char> {
        self.feed.window().get(i..)?.chars().next()
    }

    #[inline]
    fn note_scanned(&mut self, _n: usize) {
        #[cfg(test)]
        {
            self.scanned += _n;
        }
    }

    #[cold]
    fn refill(&mut self) -> Result<bool, XmlError> {
        let more = self.feed.refill();
        more.map_err(|kind| self.err_at(kind, self.bytes().len()))
    }

    /// Makes the window at least `n` bytes long, or reaches EOF.
    #[inline]
    fn ensure(&mut self, n: usize) -> Result<(), XmlError> {
        while self.bytes().len() < n {
            if !self.refill()? {
                break;
            }
        }
        Ok(())
    }

    /// Window index of the first byte at or after `i` whose class has a
    /// bit of `stop`; the window's end only at EOF.  Resumes where it
    /// stopped after a refill, so a token is scanned once however many
    /// refills it spans.
    #[inline]
    fn scan(&mut self, mut i: usize, stop: u8) -> Result<usize, XmlError> {
        loop {
            let w = self.bytes();
            let len = w.len();
            let run = first_of_class(&w[i..], stop);
            self.note_scanned(run.unwrap_or(len - i));
            match run {
                Some(n) => return Ok(i + n),
                None => i = len,
            }
            if !self.refill()? {
                return Ok(i);
            }
        }
    }

    /// Window index of the first occurrence of `pat` at or after `from`;
    /// `None` only at EOF.  After a refill only the tail that could still
    /// complete a match is looked at again.
    fn find(&mut self, mut from: usize, pat: &[u8]) -> Result<Option<usize>, XmlError> {
        loop {
            let w = self.bytes();
            let len = w.len();
            let hit = w[from..].windows(pat.len()).position(|x| x == pat);
            self.note_scanned(hit.unwrap_or(len - from));
            if let Some(i) = hit {
                return Ok(Some(from + i));
            }
            from = from.max(len.saturating_sub(pat.len() - 1));
            if !self.refill()? {
                return Ok(None);
            }
        }
    }

    /// Whether the window holds `pat` at index `i` (refilling as needed).
    #[inline]
    fn at(&mut self, i: usize, pat: &[u8]) -> Result<bool, XmlError> {
        self.ensure(i + pat.len())?;
        Ok(self.bytes()[i..].starts_with(pat))
    }

    /// Drops the consumed window prefix (reader mode), carrying line and
    /// column counts so error positions stay exact.
    #[inline]
    fn compact(&mut self) {
        if F::SLIDES && self.pos >= COMPACT_AT {
            let prefix = &self.feed.window()[..self.pos];
            advance_line_col(prefix, &mut self.drained_lines, &mut self.drained_cols);
            self.drained += self.pos;
            self.feed.drain(self.pos);
            self.pos = 0;
        }
    }

    /// Builds an error positioned at window index `i`.
    #[cold]
    fn err_at(&self, kind: XmlErrorKind, i: usize) -> XmlError {
        let (mut line, mut col) = (self.drained_lines, self.drained_cols);
        let w = self.feed.window();
        advance_line_col(&w[..i.min(w.len())], &mut line, &mut col);
        XmlError::new(
            kind,
            self.drained + i,
            line.saturating_add(1),
            col.saturating_add(1),
        )
    }

    /// The error for finding something other than what the grammar wants
    /// at window index `i`.
    #[cold]
    fn unexpected(&self, i: usize) -> XmlError {
        let kind = match self.char_at(i) {
            Some(c) => XmlErrorKind::UnexpectedChar(c),
            None => XmlErrorKind::UnexpectedEof,
        };
        self.err_at(kind, i)
    }

    /// Window index of the first non-whitespace byte at or after `i`.
    /// Whitespace inside markup is a byte or none, which a plain loop
    /// handles better than [`Source::scan`]'s wide steps.
    #[inline]
    fn skip_ws(&mut self, mut i: usize) -> Result<usize, XmlError> {
        loop {
            match self.byte(i) {
                Some(b' ' | b'\t' | b'\n' | b'\r') => i += 1,
                Some(_) => return Ok(i),
                None if self.refill()? => {}
                None => return Ok(i),
            }
        }
    }

    /// Skips whitespace from `i`, wants `want` there; returns the index
    /// after it.
    #[inline]
    fn skip_ws_then(&mut self, i: usize, want: u8) -> Result<usize, XmlError> {
        let i = self.skip_ws(i)?;
        if self.byte(i) == Some(want) {
            Ok(i + 1)
        } else {
            Err(self.unexpected(i))
        }
    }

    /// Length of the non-ASCII name character at window index `i`, if
    /// there is one.
    #[cold]
    fn wide_name_char(&self, i: usize, first: bool) -> Option<usize> {
        let c = self.char_at(i)?;
        let ok = !c.is_ascii()
            && if first {
                is_name_start(c)
            } else {
                is_name_char(c)
            };
        ok.then_some(c.len_utf8())
    }

    /// Lexes an XML name starting at window index `start`; returns its
    /// end.
    #[inline]
    fn lex_name(&mut self, start: usize) -> Result<usize, XmlError> {
        self.ensure(start + 1)?;
        let mut i = match self.byte(start) {
            Some(b) if CLASS[b as usize] & NAME_START != 0 => start + 1,
            _ => match self.wide_name_char(start, true) {
                Some(n) => start + n,
                None => return Err(self.unexpected(start)),
            },
        };
        loop {
            i = self.scan(i, NAME_END)?;
            match self.byte(i) {
                Some(0x80..) => match self.wide_name_char(i, false) {
                    Some(n) => i += n,
                    None => return Ok(i),
                },
                _ => return Ok(i),
            }
        }
    }

    /// Lexes the `&...;` at window index `amp` (named entity or character
    /// reference), appending the replacement text to `out`; returns the
    /// index after the `;`.
    fn lex_reference(&mut self, amp: usize, out: &mut String) -> Result<usize, XmlError> {
        // Enough for the `;` search below and for the MAX_ENTITY + 1
        // characters an unterminated reference is reported with.
        self.ensure(amp + 1 + 4 * (MAX_ENTITY + 1))?;
        let w = &self.feed.window()[amp + 1..];
        let semi = w
            .as_bytes()
            .iter()
            .take(MAX_ENTITY + 2)
            .position(|&b| b == b';');
        let bad = |body: &str| self.err_at(XmlErrorKind::BadEntity(body.to_string()), amp);
        let Some(semi) = semi else {
            // No terminator in sight: report the would-be body (or the bare
            // ampersand when nothing readable follows).
            let body: String = w.chars().take(MAX_ENTITY + 1).collect();
            return Err(bad(if body.is_empty() { "&" } else { &body }));
        };
        let body = &w[..semi];
        if body.len() > MAX_ENTITY {
            return Err(bad(body));
        }
        out.push(if let Some(num) = body.strip_prefix('#') {
            let code = match num.strip_prefix(['x', 'X']) {
                Some(hex) => u32::from_str_radix(hex, 16),
                None => num.parse::<u32>(),
            };
            code.ok()
                .and_then(char::from_u32)
                .ok_or_else(|| bad(body))?
        } else {
            match body {
                "lt" => '<',
                "gt" => '>',
                "amp" => '&',
                "apos" => '\'',
                "quot" => '"',
                _ => return Err(bad(body)),
            }
        });
        Ok(amp + 1 + semi + 1)
    }

    /// Lexes the quoted attribute value at window index `q` into `out`,
    /// decoding references and normalizing whitespace characters to
    /// spaces; returns the index after the closing quote.
    #[inline]
    fn lex_attr_value(&mut self, q: usize, out: &mut String) -> Result<usize, XmlError> {
        let quote = match self.byte(q) {
            Some(c @ (b'"' | b'\'')) => c,
            _ => return Err(self.unexpected(q)),
        };
        let (mut run, mut i) = (q + 1, q + 1);
        loop {
            i = self.scan(i, ATTR_STOP)?;
            let stop = self.byte(i);
            if matches!(stop, Some(b'"' | b'\'')) && stop != Some(quote) {
                i += 1; // the other quote is plain data
                continue;
            }
            out.push_str(self.text(run, i));
            match stop {
                None => return Err(self.err_at(XmlErrorKind::UnexpectedEof, i)),
                Some(b'<') => {
                    let kind = XmlErrorKind::Malformed("'<' in attribute value".to_string());
                    return Err(self.err_at(kind, i));
                }
                Some(b'&') => i = self.lex_reference(i, out)?,
                Some(b'\t' | b'\n' | b'\r') => {
                    out.push(' ');
                    i += 1;
                }
                Some(_) => return Ok(i + 1),
            }
            run = i;
        }
    }

    /// Skips the `<!DOCTYPE ... >` at window index `at`, including a
    /// bracketed internal subset and quoted literals.
    fn skip_doctype(&mut self, at: usize) -> Result<(), XmlError> {
        let mut i = at + "<!DOCTYPE".len();
        let mut depth = 0usize;
        loop {
            i = self.scan(i, DOCTYPE_STOP)?;
            match self.byte(i) {
                Some(b'[') => depth += 1,
                Some(b']') => depth = depth.saturating_sub(1),
                Some(b'>') if depth == 0 => {
                    self.pos = i + 1;
                    return Ok(());
                }
                Some(b'>') => {}
                Some(q) => match self.find(i + 1, &[q])? {
                    Some(close) => i = close,
                    None => {
                        let end = self.bytes().len();
                        return Err(self.err_at(XmlErrorKind::UnexpectedEof, end));
                    }
                },
                None => return Err(self.err_at(XmlErrorKind::UnexpectedEof, i)),
            }
            i += 1;
        }
    }
}

/// The `xml/tokenizers_created` counter in the process-wide metrics
/// registry, resolved once.  Every path that reads XML *text* — the DOM
/// parser and the streamer alike — goes through exactly one `Tokenizer`,
/// so the index and serve smokes assert this counter stays flat across
/// `open_snapshot` (a reopened snapshot is adopted column-for-column,
/// never re-lexed).
fn tokenizers_counter() -> &'static minctx_obs::Counter {
    static C: std::sync::OnceLock<minctx_obs::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| minctx_obs::global().counter("xml/tokenizers_created"))
}

/// The pull tokenizer.  Obtain events with [`Tokenizer::next_event`] until
/// it returns `Ok(None)` (clean end of document) or an error.
pub struct Tokenizer<'a>(Mode<'a>);

/// The one lexer, instantiated per source.
enum Mode<'a> {
    Str(Lexer<&'a str>),
    Reader(Lexer<ReaderFeed<'a>>),
}

/// Applies `$body` to the lexer of either mode.
macro_rules! either {
    ($mode:expr, $lx:ident => $body:expr) => {
        match $mode {
            Mode::Str($lx) => $body,
            Mode::Reader($lx) => $body,
        }
    };
}

struct Lexer<F> {
    src: Source<F>,
    opts: ParseOptions,
    /// Names of the open elements, concatenated outermost first;
    /// `open_ends[d]` is where the name at depth `d` ends.
    open_names: String,
    open_ends: Vec<usize>,
    /// Window range of the current element / close-tag / PI-target name.
    name: (usize, usize),
    /// Attribute slots of the current start tag; first `attrs_live` valid.
    attrs: Vec<(String, String)>,
    attrs_live: usize,
    /// The current text run, when it could not be borrowed from the
    /// window (entities decoded, CDATA merged).
    text_buf: String,
    /// A self-closing element's `EndElement` is due before reading on.
    pending_end: bool,
    /// The optional BOM and XML declaration have been consumed.
    started: bool,
    /// A complete top-level element has been seen.
    seen_root: bool,
}

impl<'a> Tokenizer<'a> {
    /// Tokenizes a borrowed string with default options.
    pub fn new(input: &'a str) -> Tokenizer<'a> {
        Tokenizer::with_options(input, ParseOptions::default())
    }

    /// Tokenizes a borrowed string.
    pub fn with_options(input: &'a str, opts: ParseOptions) -> Tokenizer<'a> {
        Tokenizer(Mode::Str(Lexer::new(input, opts)))
    }

    /// Tokenizes from a reader through a sliding window; memory stays
    /// proportional to the largest single token, not the input.
    pub fn from_reader(rd: impl Read + 'a, opts: ParseOptions) -> Tokenizer<'a> {
        let feed = ReaderFeed {
            rd: Box::new(rd),
            buf: String::new(),
            eof: false,
            chunk: vec![0; READ_CHUNK],
            carry: 0,
        };
        Tokenizer(Mode::Reader(Lexer::new(feed, opts)))
    }

    /// The options this tokenizer filters events with.
    pub fn options(&self) -> &ParseOptions {
        either!(&self.0, lx => &lx.opts)
    }

    /// Number of currently open elements.
    pub fn depth(&self) -> usize {
        either!(&self.0, lx => lx.open_ends.len() + usize::from(lx.pending_end))
    }

    /// The next event, or `Ok(None)` at the clean end of the document.
    ///
    /// Borrowed event data is valid until the next call.
    pub fn next_event(&mut self) -> Result<Option<XmlEvent<'_>>, XmlError> {
        either!(&mut self.0, lx => lx.next_event())
    }
}

impl<F: Feed> Lexer<F> {
    fn new(feed: F, opts: ParseOptions) -> Lexer<F> {
        tokenizers_counter().inc();
        Lexer {
            src: Source {
                feed,
                pos: 0,
                drained: 0,
                drained_lines: 0,
                drained_cols: 0,
                #[cfg(test)]
                scanned: 0,
            },
            opts,
            open_names: String::new(),
            open_ends: Vec::new(),
            name: (0, 0),
            attrs: Vec::new(),
            attrs_live: 0,
            text_buf: String::new(),
            pending_end: false,
            started: false,
            seen_root: false,
        }
    }

    fn next_event(&mut self) -> Result<Option<XmlEvent<'_>>, XmlError> {
        if self.pending_end {
            self.pending_end = false;
            self.seen_root |= self.open_ends.is_empty();
            let name = self.src.text(self.name.0, self.name.1);
            return Ok(Some(XmlEvent::EndElement { name }));
        }
        self.text_buf.clear();
        if !self.started {
            self.started = true;
            if self.src.at(0, "\u{feff}".as_bytes())? {
                self.src.pos = 3;
            }
            if self.src.at(self.src.pos, b"<?xml")? {
                match self.src.find(self.src.pos, b"?>")? {
                    Some(i) => self.src.pos = i + 2,
                    None => return Err(self.src.err_at(XmlErrorKind::UnexpectedEof, self.src.pos)),
                }
            }
        }
        loop {
            self.src.compact();
            if self.open_ends.is_empty() {
                // Prolog or epilog: misc items only; content is rejected.
                let at = self.src.skip_ws(self.src.pos)?;
                self.src.pos = at;
                if self.src.byte(at).is_none() {
                    return if self.seen_root {
                        Ok(None)
                    } else {
                        Err(self.src.err_at(XmlErrorKind::NoRootElement, at))
                    };
                }
                if self.src.at(at, b"<!--")? {
                    self.consume_comment(at)?; // always dropped outside the root
                } else if self.src.at(at, b"<!DOCTYPE")? {
                    self.src.skip_doctype(at)?;
                } else if self.src.at(at, b"<?")? {
                    self.consume_pi(at)?; // always dropped outside the root
                } else if self.src.byte(at) == Some(b'<') && !self.seen_root {
                    return self.start_element(at);
                } else {
                    return Err(self.src.err_at(XmlErrorKind::TrailingContent, at));
                }
                continue;
            }
            // Element content: one text run up to the next markup.  The run
            // is `text_buf` followed by the window's `raw..at`; it stays
            // borrowed unless a reference or CDATA section forces a copy.
            let (mut raw, mut at) = (self.src.pos, self.src.pos);
            let next = loop {
                at = self.src.scan(at, TEXT_STOP)?;
                match self.src.byte(at) {
                    None => return Err(self.src.err_at(XmlErrorKind::UnexpectedEof, at)),
                    Some(b']') => {
                        if self.src.at(at, b"]]>")? {
                            let kind =
                                XmlErrorKind::Malformed("']]>' in character data".to_string());
                            return Err(self.src.err_at(kind, at));
                        }
                        at += 1;
                        continue;
                    }
                    Some(b'&') => {
                        self.text_buf.push_str(self.src.text(raw, at));
                        at = self.src.lex_reference(at, &mut self.text_buf)?;
                    }
                    Some(_) => {
                        self.src.ensure(at + 2)?;
                        let next = self.src.byte(at + 1);
                        if next != Some(b'!') || !self.src.at(at, b"<![CDATA[")? {
                            break next;
                        }
                        // CDATA merges into the text run.
                        self.text_buf.push_str(self.src.text(raw, at));
                        let body = at + "<![CDATA[".len();
                        let Some(end) = self.src.find(body, b"]]>")? else {
                            return Err(self.src.err_at(XmlErrorKind::UnexpectedEof, body));
                        };
                        self.text_buf.push_str(self.src.text(body, end));
                        at = end + 3;
                    }
                }
                raw = at;
            };
            // Markup other than CDATA ends the run (comments and PIs split
            // runs even when dropped): emit it first, the markup next call.
            self.src.pos = at;
            let owned = !self.text_buf.is_empty();
            if owned {
                self.text_buf.push_str(self.src.text(raw, at));
            }
            let run = if owned {
                &self.text_buf[..]
            } else {
                self.src.text(raw, at)
            };
            let keep =
                !self.opts.strip_whitespace_text || run.bytes().any(|b| !b.is_ascii_whitespace());
            if keep && !run.is_empty() {
                return Ok(Some(XmlEvent::Text(if owned {
                    &self.text_buf
                } else {
                    self.src.text(raw, at)
                })));
            }
            self.text_buf.clear();
            match next {
                Some(b'/') => return self.end_element(at),
                Some(b'!') if self.src.at(at, b"<!--")? => {
                    if let Some((a, b)) = self.consume_comment(at)? {
                        return Ok(Some(XmlEvent::Comment(self.src.text(a, b))));
                    }
                }
                Some(b'?') => {
                    if let Some((a, b)) = self.consume_pi(at)? {
                        return Ok(Some(XmlEvent::Pi {
                            target: self.src.text(self.name.0, self.name.1),
                            data: self.src.text(a, b).trim_start(),
                        }));
                    }
                }
                _ => return self.start_element(at),
            }
        }
    }

    /// Consumes the `<tag attr="v"…>` or `<tag…/>` start tag at window
    /// index `at`.
    fn start_element(&mut self, at: usize) -> Result<Option<XmlEvent<'_>>, XmlError> {
        if self.open_ends.len() >= self.opts.max_element_depth {
            let limit = self.opts.max_element_depth;
            return Err(self.src.err_at(XmlErrorKind::TooDeep { limit }, at));
        }
        let name_end = self.src.lex_name(at + 1)?;
        self.name = (at + 1, name_end);
        self.attrs_live = 0;
        let mut i = name_end;
        loop {
            i = self.src.skip_ws(i)?;
            match self.src.byte(i) {
                Some(b'>') => {
                    self.open_names.push_str(self.src.text(at + 1, name_end));
                    self.open_ends.push(self.open_names.len());
                    self.src.pos = i + 1;
                    break;
                }
                Some(b'/') => {
                    if !self.src.at(i, b"/>")? {
                        return Err(self.src.err_at(XmlErrorKind::UnexpectedChar('/'), i));
                    }
                    self.pending_end = true;
                    self.src.pos = i + 2;
                    break;
                }
                Some(_) => {
                    let aname_end = self.src.lex_name(i)?;
                    let aname = self.src.text(i, aname_end);
                    if self.attrs[..self.attrs_live]
                        .iter()
                        .any(|(n, _)| n == aname)
                    {
                        let kind = XmlErrorKind::DuplicateAttribute(aname.to_string());
                        return Err(self.src.err_at(kind, i));
                    }
                    if self.attrs.len() == self.attrs_live {
                        self.attrs.push((String::new(), String::new()));
                    }
                    let slot = &mut self.attrs[self.attrs_live];
                    slot.0.clear();
                    slot.0.push_str(aname);
                    slot.1.clear();
                    let eq = self.src.skip_ws_then(aname_end, b'=')?;
                    let q = self.src.skip_ws(eq)?;
                    i = self.src.lex_attr_value(q, &mut slot.1)?;
                    self.attrs_live += 1;
                }
                None => return Err(self.src.err_at(XmlErrorKind::UnexpectedEof, i)),
            }
        }
        Ok(Some(XmlEvent::StartElement {
            name: self.src.text(at + 1, name_end),
            attrs: &self.attrs[..self.attrs_live],
        }))
    }

    /// Consumes the `</tag>` close tag at window index `at`, validating
    /// nesting (the caller has checked an element is open).
    fn end_element(&mut self, at: usize) -> Result<Option<XmlEvent<'_>>, XmlError> {
        let name_end = self.src.lex_name(at + 2)?;
        self.src.pos = self.src.skip_ws_then(name_end, b'>')?;
        let close = self.src.text(at + 2, name_end);
        self.open_ends.pop();
        let open_start = self.open_ends.last().copied().unwrap_or(0);
        if self.open_names[open_start..] != *close {
            let kind = XmlErrorKind::MismatchedTag {
                open: self.open_names[open_start..].to_string(),
                close: close.to_string(),
            };
            return Err(self.src.err_at(kind, at + 2));
        }
        self.open_names.truncate(open_start);
        self.seen_root |= self.open_ends.is_empty();
        Ok(Some(XmlEvent::EndElement { name: close }))
    }

    /// Consumes the comment at window index `at`; returns the body's
    /// window range when the options keep comments (and we are inside the
    /// root element).
    fn consume_comment(&mut self, at: usize) -> Result<Option<(usize, usize)>, XmlError> {
        let body = at + "<!--".len();
        let Some(end) = self.src.find(body, b"-->")? else {
            return Err(self.src.err_at(XmlErrorKind::UnexpectedEof, body));
        };
        self.src.note_scanned(end - body);
        if self.src.text(body, end).contains("--") {
            let kind = XmlErrorKind::Malformed("'--' in comment".to_string());
            return Err(self.src.err_at(kind, body));
        }
        self.src.pos = end + 3;
        let keep = self.opts.keep_comments && !self.open_ends.is_empty();
        Ok(keep.then_some((body, end)))
    }

    /// Consumes the processing instruction at window index `at`; returns
    /// the data's window range when the options keep PIs (and we are
    /// inside the root element).  The target's range is left in `name`.
    fn consume_pi(&mut self, at: usize) -> Result<Option<(usize, usize)>, XmlError> {
        let data = self.src.lex_name(at + 2)?;
        self.name = (at + 2, data);
        if self.src.text(at + 2, data).eq_ignore_ascii_case("xml") {
            let kind =
                XmlErrorKind::Malformed("'<?xml' only allowed at document start".to_string());
            return Err(self.src.err_at(kind, data));
        }
        let Some(end) = self.src.find(data, b"?>")? else {
            return Err(self.src.err_at(XmlErrorKind::UnexpectedEof, data));
        };
        self.src.pos = end + 2;
        let keep = self.opts.keep_processing_instructions && !self.open_ends.is_empty();
        Ok(keep.then_some((data, end)))
    }
}

pub(crate) fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_' || c == ':'
}

pub(crate) fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | ':' | '-' | '.' | '\u{b7}')
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collects `(kind, detail)` descriptions of every event.
    fn trace(input: &str) -> Result<Vec<String>, XmlError> {
        trace_opts(input, ParseOptions::default())
    }

    fn trace_opts(input: &str, opts: ParseOptions) -> Result<Vec<String>, XmlError> {
        let mut tok = Tokenizer::with_options(input, opts);
        let mut out = Vec::new();
        while let Some(ev) = tok.next_event()? {
            out.push(describe(&ev));
        }
        Ok(out)
    }

    fn describe(ev: &XmlEvent<'_>) -> String {
        match ev {
            XmlEvent::StartElement { name, attrs } => {
                let attrs: Vec<String> = attrs.iter().map(|(n, v)| format!("{n}={v}")).collect();
                format!("<{name} [{}]", attrs.join(","))
            }
            XmlEvent::EndElement { name } => format!(">{name}"),
            XmlEvent::Text(t) => format!("t:{t}"),
            XmlEvent::Comment(c) => format!("c:{c}"),
            XmlEvent::Pi { target, data } => format!("pi:{target}:{data}"),
        }
    }

    #[test]
    fn event_stream_shapes() {
        assert_eq!(
            trace(r#"<a x="1"><b/>hi<!--c--><?p d?></a>"#).unwrap(),
            vec!["<a [x=1]", "<b []", ">b", "t:hi", "c:c", "pi:p:d", ">a"]
        );
    }

    #[test]
    fn cdata_merges_comments_split() {
        assert_eq!(
            trace("<a>x<![CDATA[<&]]>y<!--c-->z</a>").unwrap(),
            vec!["<a []", "t:x<&y", "c:c", "t:z", ">a"]
        );
        // A dropped comment still splits the run.
        let opts = ParseOptions {
            keep_comments: false,
            ..Default::default()
        };
        assert_eq!(
            trace_opts("<a>x<!--c-->z</a>", opts).unwrap(),
            vec!["<a []", "t:x", "t:z", ">a"]
        );
    }

    #[test]
    fn whitespace_stripping_filters_text_events() {
        assert_eq!(
            trace_opts("<a>\n  <b> x </b>\n</a>", ParseOptions::paper_model()).unwrap(),
            vec!["<a []", "<b []", "t: x ", ">b", ">a"]
        );
    }

    #[test]
    fn reader_mode_matches_str_mode() {
        // A reader that trickles 3 bytes at a time exercises every refill
        // boundary; the event stream must be byte-identical.
        struct Trickle<'a>(&'a [u8]);
        impl Read for Trickle<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                let n = self.0.len().min(out.len()).min(3);
                out[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let input = "<?xml version=\"1.0\"?><!DOCTYPE a><a häuser=\"größe\">héllo \
                     ☃<![CDATA[<raw>]]>&amp;<!--co--><b x='1' y=\"2\"/><?pi data?></a>";
        let want = trace(input).unwrap();
        let mut tok = Tokenizer::from_reader(Trickle(input.as_bytes()), ParseOptions::default());
        let mut got = Vec::new();
        while let Some(ev) = tok.next_event().unwrap() {
            got.push(describe(&ev));
        }
        assert_eq!(got, want);
    }

    #[test]
    fn reader_mode_reports_positions() {
        let input = "<a>\n<b></c>\n</a>";
        let mut tok = Tokenizer::from_reader(input.as_bytes(), ParseOptions::default());
        let err = loop {
            match tok.next_event() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("expected an error"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err.kind(), XmlErrorKind::MismatchedTag { .. }));
        assert_eq!(err.line(), 2);
        assert!(err.column() > 1);
    }

    #[test]
    fn reader_mode_rejects_cdata_end_at_chunk_boundary() {
        // A `]]>` whose `>` is the last byte of a read chunk once slipped
        // past the guard band (the first `]` was consumed before the
        // needle could re-form): str and reader modes must agree.
        struct Chunks<'a>(Vec<&'a [u8]>);
        impl Read for Chunks<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Ok(0);
                }
                let c = self.0.remove(0);
                out[..c.len()].copy_from_slice(c);
                Ok(c.len())
            }
        }
        let mut tok =
            Tokenizer::from_reader(Chunks(vec![b"<a>xx]]>", b"y</a>"]), ParseOptions::default());
        let err = loop {
            match tok.next_event() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("expected an error"),
                Err(e) => break e,
            }
        };
        assert!(
            matches!(err.kind(), XmlErrorKind::Malformed(m) if m.contains("]]>")),
            "{err}"
        );
        assert!(trace("<a>xx]]>y</a>").is_err());
    }

    #[test]
    fn reader_mode_rejects_invalid_utf8() {
        let bytes: &[u8] = b"<a>\xff</a>";
        let mut tok = Tokenizer::from_reader(bytes, ParseOptions::default());
        let err = loop {
            match tok.next_event() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("expected an error"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err.kind(), XmlErrorKind::Malformed(_)));
    }

    #[test]
    fn big_documents_compact_the_window() {
        // > COMPACT_AT of input through a reader: the window must shrink
        // (indirectly observed: positions stay correct past the threshold).
        let mut input = String::from("<a>");
        while input.len() < COMPACT_AT + 10_000 {
            input.push_str("<b>text</b>");
        }
        input.push_str("<b></c>"); // mismatch far past the threshold
        input.push_str("</a>");
        let mut tok = Tokenizer::from_reader(input.as_bytes(), ParseOptions::default());
        let err = loop {
            match tok.next_event() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("expected an error"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err.kind(), XmlErrorKind::MismatchedTag { .. }));
        assert_eq!(err.line(), 1);
        assert!(err.offset() > COMPACT_AT);
    }

    #[test]
    fn depth_limit_cuts_off_adversarially_deep_documents() {
        // Default limit: a 2000-deep chain errors cleanly instead of
        // growing a 2000-slot stack per consumer.
        let deep = format!("{}{}", "<a>".repeat(2000), "</a>".repeat(2000));
        let err = trace(&deep).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                XmlErrorKind::TooDeep {
                    limit: DEFAULT_MAX_ELEMENT_DEPTH
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("1024"), "{err}");

        // Custom limit: depth == limit is fine, limit + 1 is not — and a
        // self-closing element counts as a node at its depth.
        let opts = |n| ParseOptions {
            max_element_depth: n,
            ..Default::default()
        };
        let at = format!("{}{}", "<a>".repeat(8), "</a>".repeat(8));
        assert!(trace_opts(&at, opts(8)).is_ok());
        let over = format!("{}{}", "<a>".repeat(9), "</a>".repeat(9));
        assert!(matches!(
            trace_opts(&over, opts(8)).unwrap_err().kind(),
            XmlErrorKind::TooDeep { limit: 8 }
        ));
        let leaf = format!("{}<b/>{}", "<a>".repeat(8), "</a>".repeat(8));
        assert!(matches!(
            trace_opts(&leaf, opts(8)).unwrap_err().kind(),
            XmlErrorKind::TooDeep { limit: 8 }
        ));

        // Reader mode enforces the same limit.
        let mut tok = Tokenizer::from_reader(over.as_bytes(), opts(8));
        let err = loop {
            match tok.next_event() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("expected an error"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err.kind(), XmlErrorKind::TooDeep { limit: 8 }));
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 20 MB through the interpreter
    fn giant_tokens_are_scanned_once() {
        // A token that outruns the window is resumed where the scan
        // stopped, never re-scanned from its start: with 4 KB reads a
        // restart per refill would examine each 4 MB token ~500 times.
        struct Chunks<'a>(&'a [u8]);
        impl Read for Chunks<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                let n = self.0.len().min(out.len()).min(4096);
                out[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let big = "x".repeat(4 << 20);
        for (input, events) in [
            (format!("<a v=\"{big}\"/>"), 2),
            (format!("<a>{big}</a>"), 3),
            (format!("<a><!--{big}--></a>"), 3),
            (format!("<a><?p {big}?></a>"), 3),
            (format!("<{big}/>"), 2),
        ] {
            let mut tok = Tokenizer::from_reader(Chunks(input.as_bytes()), ParseOptions::default());
            let mut seen = 0;
            while let Some(ev) = tok.next_event().unwrap() {
                let len = match ev {
                    XmlEvent::StartElement { name, attrs } => name.len() + attrs.len(),
                    XmlEvent::Text(t) | XmlEvent::Comment(t) | XmlEvent::Pi { data: t, .. } => {
                        assert_eq!(t.len(), big.len());
                        0
                    }
                    XmlEvent::EndElement { .. } => 0,
                };
                assert!(len < 3 || len == big.len(), "{len}");
                seen += 1;
            }
            assert_eq!(seen, events);
            let scanned = either!(&tok.0, lx => lx.src.scanned);
            assert!(
                scanned <= 3 * input.len(),
                "{scanned} bytes scanned for {} of input",
                input.len()
            );
        }
    }

    #[test]
    fn depth_tracks_open_elements() {
        let mut tok = Tokenizer::new("<a><b/></a>");
        assert_eq!(tok.depth(), 0);
        tok.next_event().unwrap(); // <a>
        assert_eq!(tok.depth(), 1);
        tok.next_event().unwrap(); // <b/> start
        assert_eq!(tok.depth(), 2);
        tok.next_event().unwrap(); // b end
        assert_eq!(tok.depth(), 1);
    }
}
