//! The pull-based XML tokenizer — the workspace's one and only XML lexer.
//!
//! [`Tokenizer`] turns XML text into a stream of [`XmlEvent`]s
//! (start/end-element with attributes, merged text runs, comments,
//! processing instructions), handling entity and character references,
//! CDATA sections, the XML declaration, DOCTYPE skipping, and the
//! [`MAX_ELEMENT_DEPTH`] nesting bound.  Two consumers sit on top of it:
//!
//! * the DOM builder ([`parse`](crate::parse) /
//!   [`parse_reader`](crate::parser::parse_reader)) folds the events into a
//!   [`DocumentBuilder`](crate::DocumentBuilder), and
//! * the streaming evaluator (`minctx-stream`) runs its stack automaton
//!   directly over the events without materializing a document.
//!
//! Because both consume the *same* event stream, the streamer can mirror
//! the arena's pre-order node numbering exactly: one `StartElement` is one
//! element node followed by one node per attribute, one `Text`/`Comment`/`Pi`
//! event is one node.  Text runs are merged exactly as the DOM parser
//! merges them (CDATA joins the surrounding character data; comments and
//! PIs split runs).
//!
//! The input can be a borrowed `&str` (zero-copy names and bodies) or any
//! [`io::Read`](Read) ([`Tokenizer::from_reader`]): reader mode keeps a
//! sliding window that is refilled on demand and compacted as events are
//! consumed, so tokenizing a multi-gigabyte feed holds memory proportional
//! to the largest single token, not the input.

use crate::error::{XmlError, XmlErrorKind};
use std::fmt;
use std::io::Read;

/// Maximum element nesting depth.  Every open element costs a stack slot
/// in the tokenizer *and* state in every consumer (the DOM builder's
/// ancestor chain, the streaming automaton's mark and the states above
/// it), so an adversarially deep document — `<a><a><a>…` — would
/// otherwise grow memory without bound.  Opening an element below
/// `MAX_ELEMENT_DEPTH` ancestors fails with a clean
/// [`XmlErrorKind::TooDeep`](crate::XmlErrorKind) instead; 1024 is far
/// above any realistic document.
pub const MAX_ELEMENT_DEPTH: usize = 1024;

/// One lexical event of an XML document, in document order.
///
/// Borrowed data is valid until the next [`Tokenizer::next_event`] call.
#[derive(Debug, Clone, PartialEq)]
pub enum XmlEvent<'t> {
    /// An element opens.  Attribute values are fully decoded and
    /// whitespace-normalized; a self-closing element is followed
    /// immediately by its [`XmlEvent::EndElement`].
    StartElement { name: &'t str, attrs: Attrs<'t> },
    /// The most recently opened element closes.
    EndElement { name: &'t str },
    /// A maximal run of character data (entities decoded, CDATA merged);
    /// never empty.
    Text(&'t str),
    /// A comment inside the document element (prolog/epilog comments are
    /// skipped, matching the tree model which roots content at `/`).
    Comment(&'t str),
    /// A processing instruction inside the document element.
    Pi { target: &'t str, data: &'t str },
}

/// The attributes of a start tag, in source order: `(name, value)` pairs
/// borrowed like the rest of an event.  A name is a slice of the window; so
/// is a value, unless a reference or a `\t`/`\n`/`\r` made it differ from
/// its source text, in which case it is a slice of one buffer the lexer
/// reuses for every start tag.
#[derive(Clone, Copy)]
pub struct Attrs<'t> {
    window: &'t str,
    decoded: &'t str,
    slots: &'t [AttrSlot],
}

/// Where one attribute of the current start tag lies: window ranges, the
/// value's in the decoded buffer instead when `decoded`.
#[derive(Debug, Clone, Copy)]
struct AttrSlot {
    name: (usize, usize),
    value: (usize, usize),
    decoded: bool,
}

impl<'t> Attrs<'t> {
    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the start tag has no attributes.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The `(name, value)` pairs in source order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&'t str, &'t str)> + 't {
        let Attrs {
            window,
            decoded,
            slots,
        } = *self;
        slots.iter().map(move |s| {
            let text = if s.decoded { decoded } else { window };
            (&window[s.name.0..s.name.1], &text[s.value.0..s.value.1])
        })
    }
}

impl fmt::Debug for Attrs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for Attrs<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// Reader-mode refill granularity.
const READ_CHUNK: usize = 16 * 1024;
/// Reader-mode window compaction threshold: once this many bytes are
/// consumed they are dropped from the front of the window (line/column
/// bookkeeping is carried over).
const COMPACT_AT: usize = 64 * 1024;
/// Longest entity body the lexer accepts (`&#x10FFFF;` needs 9).
const MAX_ENTITY: usize = 32;

// Byte classes.  A name ends at the first byte carrying the complemented
// class `NAME_END`, which every byte >= 0x80 is in: the name lexer
// decodes that one character, asks the Unicode predicate, and resumes
// the run.  Text and attribute values end at a stop byte, and a
// reader's window is extended past the next `<` (`LT`): these are found
// eight bytes a step by `first_stop`, and their bits here serve the
// scan's first byte and its tail.
const NAME_START: u8 = 1; // [A-Za-z_:]
const NAME_END: u8 = 2; // not [A-Za-z0-9_:.-]
const TEXT_STOP: u8 = 4; // < & ]
const ATTR_STOP: u8 = 8; // " ' < & \t \n \r
const DOCTYPE_STOP: u8 = 16; // [ ] " ' >
const LT: u8 = 32; // <

/// The `TEXT_STOP`, `ATTR_STOP` and `LT` classes as byte sets.
const TEXT_STOPS: &[u8] = b"<&]";
const ATTR_STOPS: &[u8] = b"\"'<&\t\n\r";
const LTS: &[u8] = b"<";

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
        if c == b'<' {
            t[b] |= LT;
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

/// Index of the first byte of `w` whose class has a bit of `class`.
/// Eight bytes are tested per step by `flags`, which marks byte `k` of a
/// chunk in bits `8k..8k + 8` (only the lowest mark is read), so a short
/// run costs one predictable loop turn rather than a branch per byte that
/// mispredicts wherever the run happens to end.  Many runs end where they
/// start (character data at a `<`, a name at its delimiter after a wide
/// character), so the first byte is looked up in `CLASS` alone, and so is
/// a tail shorter than eight bytes.
#[inline(always)]
fn first_of(w: &[u8], class: u8, flags: impl Fn(&[u8]) -> u64) -> Option<usize> {
    let hit = |b: &u8| CLASS[*b as usize] & class != 0;
    if w.first().is_some_and(hit) {
        return Some(0);
    }
    let mut chunks = w.chunks_exact(8);
    for (n, chunk) in chunks.by_ref().enumerate() {
        let marks = flags(chunk);
        if marks != 0 {
            return Some(n * 8 + marks.trailing_zeros() as usize / 8);
        }
    }
    let tail = chunks.remainder();
    tail.iter().position(hit).map(|k| w.len() - tail.len() + k)
}

/// [`first_of`] with each byte of a chunk looked up in `CLASS`.
#[inline(always)]
fn first_of_class(w: &[u8], class: u8) -> Option<usize> {
    first_of(w, class, |chunk| {
        let hit = |b: &u8| u64::from(CLASS[*b as usize] & class != 0);
        chunk
            .iter()
            .enumerate()
            .fold(0, |m, (k, b)| m | hit(b) << (8 * k))
    })
}

/// [`first_of`] with the bytes of `stops`, the byte set of class bit
/// `class`, found a word at a time by [`stop_flags`].
#[inline]
fn first_stop(w: &[u8], stops: &[u8], class: u8) -> Option<usize> {
    first_of(w, class, |chunk| {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks of eight"));
        stop_flags(word, stops)
    })
}

/// Flags the top bit of each byte of `word` (little-endian: byte 0 is the
/// lowest) that is in `stops` — and possibly of bytes above such a byte,
/// so only the lowest flag may be read.
///
/// With `L` = `0x0101…01`, `v = word ^ c·L` has a zero byte exactly where
/// `word` holds `c`, and `(v − L) & !v & 0x8080…80` flags every zero
/// byte of `v`.  It flags a nonzero byte only when the subtraction
/// borrows into it, which needs a zero byte below it (a `c ^ 1` right
/// after a `c` is the case).  So the lowest flag is exact: a false flag
/// has a true one below it.  OR-ing the masks of several stops keeps
/// that, since every true stop is flagged in its own mask.
#[inline(always)]
fn stop_flags(word: u64, stops: &[u8]) -> u64 {
    const L: u64 = u64::from_le_bytes([1; 8]);
    stops.iter().fold(0, |m, &c| {
        let v = word ^ (L * u64::from(c));
        m | (v.wrapping_sub(L) & !v & (L << 7))
    })
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
/// by appending and trimmed only between tokens ([`Source::compact`]).
///
/// A start tag, an end tag or a text run holds no `<`, so once
/// [`Source::hold`] has put the next `<` in the window, each is lexed
/// from the window as it stands: the helpers that take `&self` never
/// refill, and treat the window's end as the input's.  Comments, PIs,
/// CDATA, DOCTYPE and reference lookahead refill as they go
/// ([`Source::find`], [`Source::ensure`]).
struct Source<F> {
    feed: F,
    /// Start of the next token.
    pos: usize,
    /// One past the input offset of the `<` the last [`Source::hold`]
    /// put in the window; `usize::MAX` once the window holds the rest of
    /// the input.
    held: usize,
    /// Bytes dropped from the front of the window so far, and the
    /// zero-based line/column that prefix ends at.
    drained: usize,
    drained_lines: u32,
    drained_cols: u32,
    /// Bytes examined by the scans (a run and the byte that ends it),
    /// for the linearity tests.
    #[cfg(test)]
    scanned: std::cell::Cell<usize>,
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
    fn note_scanned(&self, _n: usize) {
        #[cfg(test)]
        self.scanned.set(self.scanned.get() + _n);
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

    /// Makes the window hold a `<` at or after index `i` and the byte
    /// after it, or the rest of the input.  A borrowed string holds it
    /// all already.  A reader is searched only when `i` has passed the
    /// `<` the last search found, and then from `i`, so each byte is
    /// searched once.
    #[inline]
    fn hold(&mut self, i: usize) -> Result<(), XmlError> {
        if F::SLIDES && self.held <= self.drained + i {
            self.extend_past_lt(i)?;
        }
        Ok(())
    }

    /// The search behind [`Source::hold`]: from `i`, refilling until the
    /// window holds a `<` and the byte after it, or the input ends.
    fn extend_past_lt(&mut self, mut i: usize) -> Result<(), XmlError> {
        loop {
            let w = self.bytes();
            let hit = first_stop(&w[i..], LTS, LT);
            self.note_scanned(hit.map_or(w.len() - i, |k| k + 1));
            if let Some(k) = hit {
                self.held = self.drained + i + k + 1;
                return self.ensure(i + k + 2);
            }
            i = w.len();
            if !self.refill()? {
                self.held = usize::MAX;
                return Ok(());
            }
        }
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

    /// Window index of the first byte at or after `i` in `stops` (class
    /// bit `class`), or the window's end; no refill.
    #[inline]
    fn next_stop(&self, i: usize, stops: &[u8], class: u8) -> usize {
        let w = &self.bytes()[i..];
        let run = first_stop(w, stops, class).unwrap_or(w.len());
        self.note_scanned((run + 1).min(w.len()));
        i + run
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
    /// handles better than a wide step.
    #[inline]
    fn skip_ws(&self, mut i: usize) -> usize {
        let w = self.bytes();
        while matches!(w.get(i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            i += 1;
        }
        i
    }

    /// Skips whitespace from `i`, wants `want` there; returns its index.
    #[inline]
    fn want(&self, i: usize, want: u8) -> Result<usize, XmlError> {
        let i = self.skip_ws(i);
        match self.byte(i) {
            Some(b) if b == want => Ok(i),
            _ => Err(self.unexpected(i)),
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
    #[inline(always)]
    fn lex_name(&self, start: usize) -> Result<usize, XmlError> {
        let w = self.bytes();
        let mut i = match w.get(start) {
            Some(&b) if CLASS[b as usize] & NAME_START != 0 => start + 1,
            _ => match self.wide_name_char(start, true) {
                Some(n) => start + n,
                None => return Err(self.unexpected(start)),
            },
        };
        loop {
            let run = first_of_class(&w[i..], NAME_END).unwrap_or(w.len() - i);
            self.note_scanned((run + 1).min(w.len() - i));
            i += run;
            match w.get(i) {
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

    /// Lexes the quoted attribute value at window index `q`, decoding
    /// references and normalizing whitespace characters to spaces; returns
    /// the index after the closing quote and the value's range.  The range
    /// is the window's unless decoding changed the text: then the value is
    /// appended to `buf` and the range is `buf`'s (the `bool`).
    #[inline]
    fn lex_attr_value(
        &mut self,
        q: usize,
        buf: &mut String,
    ) -> Result<(usize, (usize, usize), bool), XmlError> {
        let quote = match self.byte(q) {
            Some(c @ (b'"' | b'\'')) => c,
            _ => return Err(self.unexpected(q)),
        };
        let (mut run, mut i) = (q + 1, q + 1);
        // Where the value starts in `buf`, once it has been copied there.
        let mut copied = None;
        loop {
            i = self.next_stop(i, ATTR_STOPS, ATTR_STOP);
            let stop = self.byte(i);
            if matches!(stop, Some(b'"' | b'\'')) && stop != Some(quote) {
                i += 1; // the other quote is plain data
                continue;
            }
            match stop {
                None => return Err(self.err_at(XmlErrorKind::UnexpectedEof, i)),
                Some(b'<') => {
                    let kind = XmlErrorKind::Malformed("'<' in attribute value".to_string());
                    return Err(self.err_at(kind, i));
                }
                Some(b'"' | b'\'') => {
                    return Ok(match copied {
                        None => (i + 1, (q + 1, i), false),
                        Some(start) => {
                            buf.push_str(self.text(run, i));
                            (i + 1, (start, buf.len()), true)
                        }
                    });
                }
                _ => {}
            }
            copied.get_or_insert(buf.len());
            buf.push_str(self.text(run, i));
            if stop == Some(b'&') {
                i = self.lex_reference(i, buf)?;
            } else {
                buf.push(' '); // \t, \n or \r
                i += 1;
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
/// so `crates/bench/tests/open_alloc.rs` and `serve_alloc.rs` assert this
/// counter stays flat across `open_snapshot` and a warm serving pool (a
/// reopened snapshot is adopted column-for-column, never re-lexed).
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
    /// Names of the open elements, concatenated outermost first;
    /// `open_ends[d]` is where the name at depth `d` ends.
    open_names: Vec<u8>,
    open_ends: Vec<usize>,
    /// Window range of the current element / close-tag / PI-target name.
    name: (usize, usize),
    /// Attribute slots of the current start tag, and the values decoding
    /// changed (see [`Attrs`]).
    attrs: Vec<AttrSlot>,
    attr_buf: String,
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
    /// Tokenizes a borrowed string.
    pub fn new(input: &'a str) -> Tokenizer<'a> {
        Tokenizer(Mode::Str(Lexer::new(input)))
    }

    /// Tokenizes from a reader through a sliding window; memory stays
    /// proportional to the largest single token, not the input.
    pub fn from_reader(rd: impl Read + 'a) -> Tokenizer<'a> {
        let feed = ReaderFeed {
            rd: Box::new(rd),
            buf: String::new(),
            eof: false,
            chunk: vec![0; READ_CHUNK],
            carry: 0,
        };
        Tokenizer(Mode::Reader(Lexer::new(feed)))
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
    fn new(feed: F) -> Lexer<F> {
        tokenizers_counter().inc();
        Lexer {
            src: Source {
                feed,
                pos: 0,
                held: 0,
                drained: 0,
                drained_lines: 0,
                drained_cols: 0,
                #[cfg(test)]
                scanned: std::cell::Cell::new(0),
            },
            open_names: Vec::new(),
            open_ends: Vec::new(),
            name: (0, 0),
            attrs: Vec::new(),
            attr_buf: String::new(),
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
            self.src.hold(self.src.pos)?;
            if self.open_ends.is_empty() {
                // Prolog or epilog: misc items only; content is rejected.
                let at = self.src.skip_ws(self.src.pos);
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
                at = self.src.next_stop(at, TEXT_STOPS, TEXT_STOP);
                match self.src.byte(at) {
                    None => return Err(self.src.err_at(XmlErrorKind::UnexpectedEof, at)),
                    Some(b']') => {
                        if self.src.bytes()[at..].starts_with(b"]]>") {
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
                        self.src.hold(at)?;
                    }
                }
                raw = at;
            };
            // Markup other than CDATA ends the run (comments and PIs split
            // runs): emit it first, the markup next call.
            self.src.pos = at;
            if !self.text_buf.is_empty() {
                self.text_buf.push_str(self.src.text(raw, at));
                return Ok(Some(XmlEvent::Text(&self.text_buf)));
            } else if raw < at {
                return Ok(Some(XmlEvent::Text(self.src.text(raw, at))));
            }
            return match next {
                Some(b'/') => self.end_element(at),
                Some(b'!') if self.src.at(at, b"<!--")? => {
                    let (a, b) = self.consume_comment(at)?;
                    Ok(Some(XmlEvent::Comment(self.src.text(a, b))))
                }
                Some(b'?') => {
                    let (a, b) = self.consume_pi(at)?;
                    Ok(Some(XmlEvent::Pi {
                        target: self.src.text(self.name.0, self.name.1),
                        data: self.src.text(a, b).trim_start(),
                    }))
                }
                _ => self.start_element(at),
            };
        }
    }

    /// Consumes the `<tag attr="v"…>` or `<tag…/>` start tag at window
    /// index `at`.
    fn start_element(&mut self, at: usize) -> Result<Option<XmlEvent<'_>>, XmlError> {
        if self.open_ends.len() >= MAX_ELEMENT_DEPTH {
            let limit = MAX_ELEMENT_DEPTH;
            return Err(self.src.err_at(XmlErrorKind::TooDeep { limit }, at));
        }
        self.src.hold(at + 1)?;
        let name_end = self.src.lex_name(at + 1)?;
        self.name = (at + 1, name_end);
        self.attrs.clear();
        self.attr_buf.clear();
        let mut i = name_end;
        loop {
            let w = self.src.bytes();
            let at_ws = i;
            i = self.src.skip_ws(i);
            match w.get(i) {
                Some(b'>') => {
                    self.open_names.extend_from_slice(&w[at + 1..name_end]);
                    self.open_ends.push(self.open_names.len());
                    self.src.pos = i + 1;
                    break;
                }
                Some(b'/') => {
                    if w.get(i + 1) != Some(&b'>') {
                        return Err(self.src.err_at(XmlErrorKind::UnexpectedChar('/'), i));
                    }
                    self.pending_end = true;
                    self.src.pos = i + 2;
                    break;
                }
                // XML 1.0 [40]: whitespace comes before every attribute.
                Some(_) if i == at_ws => return Err(self.src.unexpected(i)),
                Some(_) => {
                    let aname_end = self.src.lex_name(i)?;
                    let aname = &w[i..aname_end];
                    if self.attrs.iter().any(|a| w[a.name.0..a.name.1] == *aname) {
                        let aname = self.src.text(i, aname_end).to_string();
                        return Err(self.src.err_at(XmlErrorKind::DuplicateAttribute(aname), i));
                    }
                    let eq = match w.get(aname_end) {
                        Some(b'=') => aname_end,
                        _ => self.src.want(aname_end, b'=')?,
                    };
                    let q = match w.get(eq + 1) {
                        Some(b'"' | b'\'') => eq + 1,
                        _ => self.src.skip_ws(eq + 1),
                    };
                    let (end, value, decoded) = self.src.lex_attr_value(q, &mut self.attr_buf)?;
                    self.attrs.push(AttrSlot {
                        name: (i, aname_end),
                        value,
                        decoded,
                    });
                    i = end;
                }
                None => return Err(self.src.err_at(XmlErrorKind::UnexpectedEof, i)),
            }
        }
        Ok(Some(XmlEvent::StartElement {
            name: self.src.text(at + 1, name_end),
            attrs: Attrs {
                window: self.src.feed.window(),
                decoded: &self.attr_buf,
                slots: &self.attrs,
            },
        }))
    }

    /// Consumes the `</tag>` close tag at window index `at`, validating
    /// nesting (the caller has checked an element is open).  A close tag
    /// that repeats the open name byte for byte and then `>` is confirmed
    /// by that one compare; any other is lexed and compared as a name.
    fn end_element(&mut self, at: usize) -> Result<Option<XmlEvent<'_>>, XmlError> {
        self.src.hold(at + 1)?;
        let start = at + 2;
        let outer = self.open_ends.len().checked_sub(2);
        let open_start = outer.map_or(0, |d| self.open_ends[d]);
        let open = &self.open_names[open_start..];
        let end = start + open.len();
        let w = self.src.bytes();
        let confirmed = w.get(start..end) == Some(open) && w.get(end) == Some(&b'>');
        let (name_end, gt) = if confirmed {
            self.src.note_scanned(open.len() + 1);
            (end, end)
        } else {
            let name_end = self.src.lex_name(start)?;
            (name_end, self.src.want(name_end, b'>')?)
        };
        self.src.pos = gt + 1;
        self.open_ends.pop();
        if !confirmed && self.open_names[open_start..] != self.src.bytes()[start..name_end] {
            let kind = XmlErrorKind::MismatchedTag {
                open: String::from_utf8_lossy(&self.open_names[open_start..]).into_owned(),
                close: self.src.text(start, name_end).to_string(),
            };
            return Err(self.src.err_at(kind, start));
        }
        self.open_names.truncate(open_start);
        self.seen_root |= self.open_ends.is_empty();
        Ok(Some(XmlEvent::EndElement {
            name: self.src.text(start, name_end),
        }))
    }

    /// Consumes the comment at window index `at`; returns the body's
    /// window range.
    fn consume_comment(&mut self, at: usize) -> Result<(usize, usize), XmlError> {
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
        Ok((body, end))
    }

    /// Consumes the processing instruction at window index `at`; returns
    /// the data's window range.  The target's range is left in `name`.
    fn consume_pi(&mut self, at: usize) -> Result<(usize, usize), XmlError> {
        self.src.hold(at + 1)?;
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
        Ok((data, end))
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
        let mut tok = Tokenizer::new(input);
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

    /// A reader handing out at most `.1` bytes a read.
    struct Trickle<'a>(&'a [u8], usize);

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.len().min(out.len()).min(self.1);
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
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
    }

    #[test]
    fn attribute_values_are_borrowed_unless_decoded() {
        // Window slices and decoded values interleave within a tag, and the
        // decoded buffer starts afresh at the next tag.
        let input = "<a p=\"plain\" d=\"x&amp;y\" w=\"t\tn\" q='say \"hi\"'>\
                     <b e=\"&#65;\" f=\"\" g=\"last\"/></a>";
        assert_eq!(
            trace(input).unwrap(),
            vec![
                "<a [p=plain,d=x&y,w=t n,q=say \"hi\"]",
                "<b [e=A,f=,g=last]",
                ">b",
                ">a"
            ]
        );
        let mut tok = Tokenizer::new(input);
        let Some(XmlEvent::StartElement { attrs, .. }) = tok.next_event().unwrap() else {
            panic!("start tag expected");
        };
        assert_eq!((attrs.len(), attrs.is_empty()), (4, false));
        let decoded: Vec<bool> = attrs.slots.iter().map(|s| s.decoded).collect();
        assert_eq!(decoded, [false, true, true, false]);
    }

    #[test]
    fn reader_mode_matches_str_mode() {
        // A reader that trickles 3 bytes at a time exercises every refill
        // boundary; the event stream must be byte-identical.
        let input = "<?xml version=\"1.0\"?><!DOCTYPE a><a häuser=\"größe\">héllo \
                     ☃<![CDATA[<raw>]]>&amp;<!--co--><b x='1' y=\"2\"/><?pi data?></a>";
        let want = trace(input).unwrap();
        let mut tok = Tokenizer::from_reader(Trickle(input.as_bytes(), 3));
        let mut got = Vec::new();
        while let Some(ev) = tok.next_event().unwrap() {
            got.push(describe(&ev));
        }
        assert_eq!(got, want);
    }

    #[test]
    fn reader_mode_reports_positions() {
        let input = "<a>\n<b></c>\n</a>";
        let mut tok = Tokenizer::from_reader(input.as_bytes());
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
        let mut tok = Tokenizer::from_reader(Chunks(vec![b"<a>xx]]>", b"y</a>"]));
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
        let mut tok = Tokenizer::from_reader(bytes);
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
        let mut tok = Tokenizer::from_reader(input.as_bytes());
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
        // A 2000-deep chain errors cleanly instead of growing a 2000-slot
        // stack per consumer.
        let deep = format!("{}{}", "<a>".repeat(2000), "</a>".repeat(2000));
        let err = trace(&deep).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                XmlErrorKind::TooDeep {
                    limit: MAX_ELEMENT_DEPTH
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("1024"), "{err}");

        // Depth == limit is fine, limit + 1 is not — and a self-closing
        // element counts as a node at its depth.
        let n = MAX_ELEMENT_DEPTH;
        let at = format!("{}{}", "<a>".repeat(n), "</a>".repeat(n));
        assert!(trace(&at).is_ok());
        let over = format!("{}{}", "<a>".repeat(n + 1), "</a>".repeat(n + 1));
        let err = trace(&over).unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::TooDeep { limit: 1024 }));
        assert_eq!(err.offset(), 3 * n);
        let leaf = format!("{}<b/>{}", "<a>".repeat(n), "</a>".repeat(n));
        assert!(matches!(
            trace(&leaf).unwrap_err().kind(),
            XmlErrorKind::TooDeep { limit: 1024 }
        ));

        // Reader mode enforces the same limit at the same place.
        let mut tok = Tokenizer::from_reader(over.as_bytes());
        let err = loop {
            match tok.next_event() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("expected an error"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err.kind(), XmlErrorKind::TooDeep { limit: 1024 }));
        assert_eq!(err.offset(), 3 * n);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 20 MB through the interpreter
    fn giant_tokens_are_scanned_once() {
        // A token that outruns the window is resumed where the scan
        // stopped, never re-scanned from its start: with 4 KB reads a
        // restart per refill would examine each 4 MB token ~500 times.
        let big = "x".repeat(4 << 20);
        for (input, events) in [
            (format!("<a v=\"{big}\"/>"), 2),
            (format!("<a>{big}</a>"), 3),
            (format!("<a><!--{big}--></a>"), 3),
            (format!("<a><?p {big}?></a>"), 3),
            (format!("<{big}/>"), 2),
        ] {
            let rd = Trickle(input.as_bytes(), 4096);
            let mut tok = Tokenizer::from_reader(rd);
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
            let scanned = either!(&tok.0, lx => lx.src.scanned.get());
            assert!(
                scanned <= 3 * input.len(),
                "{scanned} bytes scanned for {} of input",
                input.len()
            );
        }
    }

    /// The events of `input`, or the error kind and offset it stops at;
    /// reader mode (one byte a read, and 4 KB) must agree with `Str` mode.
    fn both_modes(input: &str) -> Result<Vec<String>, (XmlErrorKind, usize)> {
        fn drain(mut tok: Tokenizer<'_>) -> Result<Vec<String>, (XmlErrorKind, usize)> {
            let mut out = Vec::new();
            loop {
                match tok.next_event() {
                    Ok(Some(ev)) => out.push(describe(&ev)),
                    Ok(None) => return Ok(out),
                    Err(e) => return Err((e.kind().clone(), e.offset())),
                }
            }
        }
        let want = drain(Tokenizer::new(input));
        for size in [1, 4096] {
            let rd = Trickle(input.as_bytes(), size);
            let got = drain(Tokenizer::from_reader(rd));
            assert_eq!(got, want, "read size {size} on {input:?}");
        }
        want
    }

    #[test]
    fn attributes_are_separated_by_whitespace() {
        // XML 1.0 [40]: STag ::= '<' Name (S Attribute)* S? '>'.
        for input in [r#"<a x="1"y="2"/>"#, "<a x='1'y='2'></a>"] {
            let err = (XmlErrorKind::UnexpectedChar('y'), 8);
            assert_eq!(both_modes(input), Err(err), "{input}");
        }
        for input in [r#"<a x="1" y="2"/>"#, "<a x='1'\ny='2'></a>"] {
            assert_eq!(both_modes(input).unwrap()[0], "<a [x=1,y=2]", "{input}");
        }
    }

    #[test]
    fn end_tag_shapes() {
        let ok = |input| both_modes(input).expect(input);
        assert_eq!(ok("<a></a >"), ["<a []", ">a"]);
        assert_eq!(ok("<a></a\n>"), ["<a []", ">a"]);
        assert_eq!(
            ok("<größe><b/></größe>"),
            ["<größe []", "<b []", ">b", ">größe"]
        );
        let mismatch = |open: &str, close: &str, at| {
            let (open, close) = (open.to_string(), close.to_string());
            Err((XmlErrorKind::MismatchedTag { open, close }, at))
        };
        assert_eq!(both_modes("<a></ab>"), mismatch("a", "ab", 5));
        assert_eq!(both_modes("<item></ita>"), mismatch("item", "ita", 8));
        assert_eq!(
            both_modes("<r><a></a"),
            Err((XmlErrorKind::UnexpectedEof, 9))
        );
        assert_eq!(both_modes("<größe></größ>"), mismatch("größe", "größ", 11));
        assert_eq!(both_modes("<a></é>"), mismatch("a", "é", 5));
        let bad = XmlErrorKind::UnexpectedChar('☃');
        assert_eq!(both_modes("<a></a☃>"), Err((bad, 6)));
    }

    #[test]
    fn markup_is_scanned_once() {
        // A borrowed string needs no look-ahead for `<`, and a close tag
        // confirmed by its compare is not lexed again.
        let item = "<catalogue_entry id=\"i1\" v='2'>x &amp; y<b/><c>t]</c></catalogue_entry>\n";
        let input = format!("<r>{}</r>", item.repeat(100));
        let mut tok = Tokenizer::new(&input);
        while tok.next_event().unwrap().is_some() {}
        let scanned = either!(&tok.0, lx => lx.src.scanned.get());
        assert!(scanned <= input.len(), "{scanned} of {}", input.len());
    }

    #[test]
    fn word_scan_matches_the_class_table() {
        // Every byte value at every offset of a 16-byte window (two words;
        // cut to 12, offsets 8.. go through the tail instead), and each
        // true stop `c` also followed by `c ^ 1`, the byte its borrow can
        // flag.
        for (stops, class) in [(TEXT_STOPS, TEXT_STOP), (ATTR_STOPS, ATTR_STOP), (LTS, LT)] {
            let table = |w: &[u8]| w.iter().position(|&b| CLASS[b as usize] & class != 0);
            for b in 0..=255u8 {
                let after: &[u8] = if table(&[b]).is_some() {
                    &[b'x', b ^ 1]
                } else {
                    b"x"
                };
                for at in 0..16 {
                    for &n in after {
                        let mut w = [b'x'; 17];
                        (w[at], w[at + 1]) = (b, n);
                        for w in [&w[..16], &w[..12]] {
                            assert_eq!(first_stop(w, stops, class), table(w), "{b:#x} at {at}");
                        }
                    }
                }
            }
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
