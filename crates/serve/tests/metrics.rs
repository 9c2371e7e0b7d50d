//! The serving pool's observability surface: per-engine registry
//! exposition, queue-wait quantiles in [`ServeStats`], per-outcome
//! latency histograms, and the builder-attached request log.

use minctx_obs::{AttrValue, CollectSink, JsonLinesSink, Phase, Recorder};
use minctx_serve::{Corpus, ServeEngine, ServeError};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

fn small_doc() -> Arc<minctx_xml::Document> {
    Arc::new(minctx_xml::parse("<a><b/><b/><c/></a>").unwrap())
}

#[test]
fn stats_and_exposition_track_requests_per_engine() {
    let doc = small_doc();
    let serve = ServeEngine::builder().workers(2).build();
    for _ in 0..10 {
        let v = serve
            .query(Corpus::Document(Arc::clone(&doc)), "count(//b)")
            .wait()
            .unwrap();
        assert_eq!(v, minctx_core::Value::Number(2.0));
    }
    // One failing request lands in the error latency histogram.
    let err = serve
        .query(Corpus::Document(Arc::clone(&doc)), "//b[")
        .wait()
        .unwrap_err();
    assert!(matches!(err, ServeError::Eval(_)));

    let stats = serve.stats();
    assert_eq!(stats.requests, 11);
    assert_eq!(stats.shed, 0);
    // Quantiles come from the bucketed queue-wait histogram; ordering
    // must hold even when every wait rounds to the same bucket.
    assert!(stats.queue_wait_p50 <= stats.queue_wait_p99);

    // The exposition parses, and carries the numbers the stats do.
    let text = check_prometheus(&serve.metrics_text());
    assert_eq!(text["serve_requests"], 11.0);
    assert_eq!(text["serve_queue_wait_us_bucket{le=\"+Inf\"}"], 11.0);
    assert_eq!(text["serve_latency_ok_us_count"], 10.0);
    assert_eq!(text["serve_latency_error_us_count"], 1.0);
    // So does the process-global registry, where the xml counters live.
    let global = check_prometheus(&minctx_obs::metrics_text());
    assert!(global.contains_key("xml_documents_built"), "{global:?}");

    // A second pool's registry is independent: fresh counters.
    let other = ServeEngine::builder().workers(1).build();
    other
        .query(Corpus::Document(doc), "count(//c)")
        .wait()
        .unwrap();
    let requests = |s: &ServeEngine| check_prometheus(&s.metrics_text())["serve_requests"];
    assert_eq!((requests(&other), requests(&serve)), (1.0, 11.0));
}

#[test]
fn request_log_emits_one_serve_span_per_request() {
    let doc = small_doc();
    let sink = Arc::new(CollectSink::new());
    let serve = ServeEngine::builder()
        .workers(1)
        .request_log(Recorder::to_sink(sink.clone()))
        .build();
    for _ in 0..3 {
        serve
            .query(Corpus::Document(Arc::clone(&doc)), "count(//b)")
            .wait()
            .unwrap();
    }
    serve
        .query(Corpus::Document(doc), "//b[")
        .wait()
        .unwrap_err();
    let spans = sink.take();
    assert_eq!(spans.len(), 4);
    assert!(spans.iter().all(|s| s.phase == Phase::Serve));
    let outcomes: Vec<_> = spans
        .iter()
        .filter_map(|s| match s.attr("outcome") {
            Some(AttrValue::Str(o)) => Some(o.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(outcomes.iter().filter(|o| **o == "ok").count(), 3);
    assert_eq!(outcomes.iter().filter(|o| **o == "error").count(), 1);
    assert!(spans
        .iter()
        .all(|s| matches!(s.attr("wait_us"), Some(&AttrValue::U64(_)))));
    assert!(spans
        .iter()
        .any(|s| { matches!(s.attr("query"), Some(AttrValue::Str(q)) if q == "count(//b)") }));
}

#[test]
fn a_panicking_request_log_writer_loses_lines_not_workers() {
    // The request log runs outside the worker's panic fence, so a writer
    // that panics must cost its line, not the worker — nor, through a
    // poisoned lock, every worker after it.
    struct PanicsOnce(bool);
    impl std::io::Write for PanicsOnce {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if !std::mem::replace(&mut self.0, true) {
                panic!("request log writer fails");
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let doc = small_doc();
    let log = JsonLinesSink::new(PanicsOnce(false));
    let serve = ServeEngine::builder()
        .workers(1)
        .request_log(Recorder::to_sink(Arc::new(log)))
        .build();
    for _ in 0..2 {
        let ticket = serve.query(Corpus::Document(Arc::clone(&doc)), "count(//b)");
        let reply = ticket.wait_timeout(Duration::from_secs(10));
        assert_eq!(reply, Some(Ok(minctx_core::Value::Number(2.0))));
    }
}

/// Reads a Prometheus text exposition strictly enough that a renderer
/// regression cannot hide behind a matching substring: every sample
/// belongs to a `# TYPE`-declared family, every value is a number, and
/// histogram buckets are cumulative and close at `+Inf`.  Returns the
/// samples by series (labels included).
fn check_prometheus(text: &str) -> BTreeMap<String, f64> {
    let mut declared = HashSet::new();
    let mut samples = BTreeMap::new();
    // The histogram whose buckets are being read, and its running total.
    let mut open: Option<(&str, f64)> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let [name, kind] = rest.split(' ').collect::<Vec<_>>()[..] else {
                panic!("malformed {line:?}");
            };
            assert!(matches!(kind, "counter" | "histogram"), "{line:?}");
            declared.insert(name);
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("{line:?} is not `series value`"));
        let value: f64 = value.parse().unwrap_or_else(|_| panic!("{line:?}"));
        assert!(value.is_finite() && value >= 0.0, "{line:?}");
        let name = series.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "{line:?} leaves the Prometheus alphabet"
        );
        let family = ["_bucket", "_sum", "_count", "_max"]
            .iter()
            .find_map(|s| name.strip_suffix(s).filter(|f| declared.contains(f)))
            .unwrap_or(name);
        assert!(declared.contains(family), "{line:?} has no # TYPE");
        if family != name && name.ends_with("_bucket") {
            if let Some((f, total)) = open {
                assert_eq!(f, family, "histogram {f} never closed at +Inf");
                assert!(value >= total, "non-cumulative bucket {line:?}");
            }
            open = (!series.ends_with("{le=\"+Inf\"}")).then_some((family, value));
        }
        samples.insert(series.to_string(), value);
    }
    assert_eq!(open, None, "a histogram never closed at +Inf");
    samples
}
