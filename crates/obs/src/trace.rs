//! Query-lifecycle tracing: a lightweight [`Recorder`]/span API with no
//! external dependencies (the same spirit as `minctx-serve`'s `sync`
//! facade — exactly the surface the workspace needs, nothing more).
//!
//! A [`Recorder`] is either *disabled* (the default everywhere) or wired
//! to a [`Sink`].  Instrumented code opens a [`Span`] per lifecycle
//! phase (parse → rewrite → compile → evaluate/stream → serve), attaches
//! attributes, and lets RAII report the span on drop.
//!
//! # The disabled path is near-zero
//!
//! `Recorder::span` on a disabled recorder builds `Span { data: None }` —
//! no clock read, no allocation, no atomic; attribute calls and the drop
//! are one untaken branch each.  `benchmark/` measures what a recorder
//! costs an evaluation pass (`obs.recorder_overhead_pct`,
//! `trace.overhead_pct`).

use std::fmt;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The query-lifecycle phases spans are reported under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Lexing + parsing + lowering an XPath string.
    Parse,
    /// The query-IR rewrite pipeline.
    Rewrite,
    /// Node-test resolution (`CompiledQuery` construction).
    Compile,
    /// Arena evaluation of a compiled query.
    Evaluate,
    /// One-pass streaming evaluation over XML text.
    Stream,
    /// One served request, end to end (queue wait included).
    Serve,
}

impl Phase {
    /// Stable lowercase name (JSON-lines `phase` field).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Rewrite => "rewrite",
            Phase::Compile => "compile",
            Phase::Evaluate => "evaluate",
            Phase::Stream => "stream",
            Phase::Serve => "serve",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.as_str())
    }
}

/// An attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    U64(u64),
    Str(String),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::Str(s) => write!(f, "{s}"),
        }
    }
}

/// One finished span, as delivered to a [`Sink`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub phase: Phase,
    pub duration: Duration,
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// The value of attribute `key`, if the span carries it.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Receives finished spans.  Implementations must tolerate concurrent
/// calls (spans finish on whatever thread ran the phase).
pub trait Sink: Send + Sync {
    /// Delivers one finished span.  Must not panic: spans finish in
    /// `Drop`, outside any caller's panic fence, and the serve pool's
    /// request log relies on it.
    fn record(&self, span: SpanRecord);
}

/// A handle instrumented code keeps; disabled by default everywhere.
/// Cloning shares the sink.
#[derive(Clone, Default)]
pub struct Recorder {
    sink: Option<Arc<dyn Sink>>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Recorder {
    /// The no-op recorder: spans cost one untaken branch.
    pub fn disabled() -> Recorder {
        Recorder { sink: None }
    }

    /// A recorder delivering finished spans to `sink`.
    pub fn to_sink(sink: Arc<dyn Sink>) -> Recorder {
        Recorder { sink: Some(sink) }
    }

    /// Whether spans are actually recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Opens a span for `phase`.  Disabled recorders return an inert
    /// span without reading the clock.
    #[inline]
    pub fn span(&self, phase: Phase) -> Span {
        Span {
            data: self.sink.as_ref().map(|sink| SpanData {
                sink: Arc::clone(sink),
                phase,
                start: Instant::now(),
                attrs: Vec::new(),
            }),
        }
    }
}

struct SpanData {
    sink: Arc<dyn Sink>,
    phase: Phase,
    start: Instant,
    attrs: Vec<(&'static str, AttrValue)>,
}

/// An in-flight span; reports itself to the recorder's sink on drop.
/// All methods are no-ops on a disabled recorder's span.
pub struct Span {
    data: Option<SpanData>,
}

impl Span {
    /// Attaches an integer attribute.
    #[inline]
    pub fn attr_u64(&mut self, key: &'static str, value: u64) {
        if let Some(d) = &mut self.data {
            d.attrs.push((key, AttrValue::U64(value)));
        }
    }

    /// Attaches a string attribute, evaluating `value` only when the
    /// span is live (so disabled paths never format).
    #[inline]
    pub fn attr_str(&mut self, key: &'static str, value: impl FnOnce() -> String) {
        if let Some(d) = &mut self.data {
            d.attrs.push((key, AttrValue::Str(value())));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(d) = self.data.take() {
            let duration = d.start.elapsed();
            d.sink.record(SpanRecord {
                phase: d.phase,
                duration,
                attrs: d.attrs,
            });
        }
    }
}

/// A test/diagnostics sink that collects spans in memory.
#[derive(Debug, Default)]
pub struct CollectSink {
    spans: Mutex<Vec<SpanRecord>>,
}

impl CollectSink {
    pub fn new() -> CollectSink {
        CollectSink::default()
    }

    /// Drains the collected spans.
    pub fn take(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut self.spans.lock().expect("collect sink poisoned"))
    }

    /// Number of spans collected so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("collect sink poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for CollectSink {
    fn record(&self, span: SpanRecord) {
        self.spans.lock().expect("collect sink poisoned").push(span);
    }
}

/// A JSON-lines event sink — the serve request log.  Each recorded span
/// becomes one line:
///
/// ```json
/// {"phase":"serve","us":1234,"outcome":"ok","query":"count(//a)"}
/// ```
pub struct JsonLinesSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl fmt::Debug for JsonLinesSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonLinesSink").finish_non_exhaustive()
    }
}

impl JsonLinesSink {
    /// Logs every span to `out`.
    pub fn new(out: impl Write + Send + 'static) -> JsonLinesSink {
        JsonLinesSink {
            out: Mutex::new(Box::new(out)),
        }
    }
}

impl Sink for JsonLinesSink {
    fn record(&self, span: SpanRecord) {
        use std::fmt::Write as _;
        let mut line = String::with_capacity(64);
        let _ = write!(
            line,
            "{{\"phase\":\"{}\",\"us\":{}",
            span.phase.as_str(),
            span.duration.as_micros()
        );
        for (k, v) in &span.attrs {
            match v {
                AttrValue::U64(n) => {
                    let _ = write!(line, ",\"{}\":{n}", json_escape(k));
                }
                AttrValue::Str(s) => {
                    let _ = write!(line, ",\"{}\":\"{}\"", json_escape(k), json_escape(s));
                }
            }
        }
        line.push('}');
        line.push('\n');
        // A `Sink` must not panic, but the writer is the caller's: one that
        // panics loses its line, not the thread recording the span (a
        // serve worker), and the lock stays usable after it.
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = catch_unwind(AssertUnwindSafe(|| out.write_all(line.as_bytes())));
    }
}

/// Minimal JSON string escaping (names and attr values are ASCII in
/// practice, but correctness is cheap).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_produces_inert_spans() {
        let r = Recorder::disabled();
        assert!(!r.enabled());
        let mut s = r.span(Phase::Evaluate);
        s.attr_u64("n", 1);
        s.attr_str("q", || unreachable!("disabled spans must not format"));
        drop(s);
    }

    #[test]
    fn spans_report_phase_duration_and_attrs() {
        let sink = Arc::new(CollectSink::new());
        let r = Recorder::to_sink(Arc::clone(&sink) as Arc<dyn Sink>);
        assert!(r.enabled());
        {
            let mut s = r.span(Phase::Parse);
            s.attr_u64("len", 7);
            s.attr_str("query", || "//a".to_string());
        }
        let spans = sink.take();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].phase, Phase::Parse);
        assert_eq!(spans[0].attr("len"), Some(&AttrValue::U64(7)));
        assert_eq!(
            spans[0].attr("query"),
            Some(&AttrValue::Str("//a".to_string()))
        );
        assert_eq!(spans[0].attr("absent"), None);
    }

    /// Shared buffer a JsonLinesSink can write into while the test reads.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_span() {
        let buf = SharedBuf::default();
        let sink = JsonLinesSink::new(buf.clone());
        for i in 0..3u64 {
            let mut span = SpanRecord {
                phase: Phase::Serve,
                duration: Duration::from_micros(10),
                attrs: vec![("seq", AttrValue::U64(i))],
            };
            span.attrs.push(("outcome", AttrValue::Str("ok".into())));
            sink.record(span);
        }
        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert!(line.starts_with("{\"phase\":\"serve\",\"us\":10"));
            assert!(line.ends_with("\"outcome\":\"ok\"}"));
        }
        assert!(lines[1].contains("\"seq\":1"));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn phase_names_are_stable() {
        for (p, s) in [
            (Phase::Parse, "parse"),
            (Phase::Rewrite, "rewrite"),
            (Phase::Compile, "compile"),
            (Phase::Evaluate, "evaluate"),
            (Phase::Stream, "stream"),
            (Phase::Serve, "serve"),
        ] {
            assert_eq!(p.as_str(), s);
            assert_eq!(p.to_string(), s);
        }
    }
}
