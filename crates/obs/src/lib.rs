//! # minctx-obs — metrics, tracing and profiling substrate
//!
//! The workspace's zero-dependency observability core, sitting below
//! every other crate (it depends on `std` alone):
//!
//! * [`registry`] — named [`Counter`]s and lock-free fixed-bucket
//!   [`Histogram`]s behind a get-or-register [`Registry`],
//!   with point-in-time snapshots and a Prometheus-style text exposition
//!   renderer.  [`global()`] is the process-wide registry (the counters
//!   of `minctx-xml`, its snapshots' included, live there);
//!   `minctx-serve` builds one registry per engine.
//! * [`trace`] — the [`Recorder`]/[`Span`] API instrumented code emits
//!   query-lifecycle phases through (parse → rewrite → compile →
//!   evaluate/stream → serve).  Disabled recorders (the default
//!   everywhere) cost one untaken branch per span; [`JsonLinesSink`]
//!   is the serve request log, [`CollectSink`] the test harness.
//!
//! The paper's claims are quantitative (context-set sizes, memo hit
//! rates, per-step sweep volumes); this crate is how the rest of the
//! workspace reports those numbers from the inside instead of inferring
//! them from wall clocks.  DESIGN.md "Observability" states the overhead
//! budget and the format stability promises.

#![forbid(unsafe_code)]

pub mod registry;
pub mod trace;

pub use registry::{
    global, metrics_text, Counter, Histogram, HistogramSnapshot, Registry, RegistrySnapshot,
    HISTOGRAM_BUCKETS,
};
pub use trace::{AttrValue, CollectSink, JsonLinesSink, Phase, Recorder, Sink, Span, SpanRecord};
