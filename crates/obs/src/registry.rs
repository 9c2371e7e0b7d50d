//! The metrics registry: named [`Counter`]s and fixed-bucket lock-free
//! [`Histogram`]s, with point-in-time snapshots and one stable renderer,
//! the Prometheus-style text exposition.
//!
//! # Concurrency model
//!
//! Every instrument is a handle around shared atomics; recording is a
//! `Relaxed` RMW on the hot path — no locks, no allocation, no ordering
//! stronger than the monotonicity of each individual cell.  The registry
//! maps (a `RwLock<BTreeMap>` per instrument kind) are touched only at
//! *registration* time; steady-state code resolves its handles once and
//! increments forever after.
//!
//! A [`Histogram`] keeps its observation count implicit: the count **is**
//! the sum of the bucket cells.  A snapshot therefore conserves
//! observations exactly — every recorded value landed in exactly one
//! bucket, so `sum(buckets) == records` holds at every quiescent point
//! (the concurrency suite hammers this from many threads).  `sum` and
//! `max` are separate cells updated after the bucket, so a mid-flight
//! snapshot may momentarily see a bucket increment whose `sum` update has
//! not landed yet; both are monotone, which is the invariant snapshots
//! rely on.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A monotone event counter.  Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket count: 4 unit buckets for 0..=3, then 4 sub-buckets per power
/// of two up to `u64::MAX` (two significant bits, so any bucket's bounds
/// are within 25% of each other).
pub const HISTOGRAM_BUCKETS: usize = 4 + 62 * 4;

/// The bucket index a value lands in.  Exact for 0..=3; above that,
/// log2 exponent `e` selects a group of four sub-buckets keyed on the
/// two bits below the leading one.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros() as usize;
    let sub = ((v >> (e - 2)) & 3) as usize;
    4 + (e - 2) * 4 + sub
}

/// The smallest value that lands in bucket `idx`.
fn bucket_lower(idx: usize) -> u64 {
    if idx < 4 {
        return idx as u64;
    }
    let e = (idx - 4) / 4 + 2;
    let sub = ((idx - 4) % 4) as u64;
    (4 + sub) << (e - 2)
}

/// The largest value that lands in bucket `idx` (the Prometheus `le`
/// upper bound).
fn bucket_upper(idx: usize) -> u64 {
    if idx + 1 >= HISTOGRAM_BUCKETS {
        return u64::MAX;
    }
    bucket_lower(idx + 1) - 1
}

#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    /// Sum of recorded values (wraps only after ~58 000 years of
    /// microsecond latencies; acceptable).
    sum: AtomicU64,
    /// Exact maximum recorded value.
    max: AtomicU64,
}

impl Default for HistogramCells {
    fn default() -> HistogramCells {
        HistogramCells {
            buckets: [(); HISTOGRAM_BUCKETS].map(|()| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket latency/size histogram.  Recording is three `Relaxed`
/// atomic RMWs (bucket, sum, max) — lock-free and allocation-free.
/// Cloning shares the underlying cells.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCells>);

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a `Duration` in microseconds (the workspace's latency
    /// convention: `*_us` histogram names).
    #[inline]
    pub fn record_micros(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// A point-in-time copy of the cells.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n != 0 {
                buckets.push((bucket_upper(i), n));
                count += n;
            }
        }
        HistogramSnapshot {
            buckets,
            count,
            sum: self.0.sum.load(Ordering::Relaxed),
            max: self.0.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time view of one histogram: the non-empty buckets as
/// `(inclusive upper bound, count)` pairs in ascending order, plus the
/// derived totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: Vec<(u64, u64)>,
    /// Total observations — by construction the sum of bucket counts.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Exact maximum recorded value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0 ..= 1.0`), estimated as the upper bound of
    /// the bucket containing the target rank, clamped to the exact
    /// maximum.  `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(upper, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(upper.min(self.max));
            }
        }
        Some(self.max)
    }
}

/// A point-in-time copy of every instrument in a [`Registry`], in stable
/// (lexicographic) name order.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    pub counters: Vec<(String, u64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// A named collection of instruments.  `counter`/`histogram` are
/// get-or-register: the first call under a name creates the instrument,
/// later calls return a handle to the same cells — so independent
/// subsystems can meet at a shared name without coordination.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Counter>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.counters.read().expect("registry poisoned").get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .expect("registry poisoned")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = self.histograms.read().expect("registry poisoned").get(name) {
            return h.clone();
        }
        self.histograms
            .write()
            .expect("registry poisoned")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// A point-in-time copy of every instrument, in name order.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .read()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Prometheus-style text exposition of a fresh snapshot.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }
}

/// Maps a registry name onto the Prometheus metric-name alphabet
/// (`[a-zA-Z0-9_:]`); the workspace's `/`-namespaced names become
/// `_`-separated.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | ':' => c,
            _ => '_',
        })
        .collect()
}

impl RegistrySnapshot {
    /// Prometheus-style text exposition: one `TYPE` header per metric,
    /// cumulative `_bucket{le="…"}` series plus `_sum`/`_count`/`_max`
    /// for histograms.  Line order is deterministic (name order), so the
    /// output is diffable and golden-testable.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {v}");
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cum = 0u64;
            for &(upper, count) in &h.buckets {
                cum += count;
                if upper == u64::MAX {
                    continue; // folded into the +Inf bucket below
                }
                let _ = writeln!(out, "{n}_bucket{{le=\"{upper}\"}} {cum}");
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{n}_sum {}", h.sum);
            let _ = writeln!(out, "{n}_count {}", h.count);
            let _ = writeln!(out, "{n}_max {}", h.max);
        }
        out
    }
}

/// The process-wide registry most instrumentation hangs off (the serve
/// layer builds per-engine registries instead, so two pools' stats never
/// mix).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Prometheus-style text exposition of the [`global`] registry.
pub fn metrics_text() -> String {
    global().render_prometheus()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_total_and_monotone() {
        // Every representable value has exactly one bucket, boundaries
        // included, and indices never decrease with the value.
        let mut prev = 0usize;
        for v in 0u64..=4096 {
            let i = bucket_index(v);
            assert!(i >= prev, "index regressed at {v}");
            assert!(bucket_lower(i) <= v && v <= bucket_upper(i), "v={v} i={i}");
            prev = i;
        }
        for e in 2..64u32 {
            for off in [0u64, 1] {
                let v = (1u64 << e).wrapping_add(off.wrapping_sub(1));
                let i = bucket_index(v);
                assert!(bucket_lower(i) <= v && v <= bucket_upper(i), "v={v}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn bucket_bounds_are_within_25_percent() {
        for i in 4..HISTOGRAM_BUCKETS - 1 {
            let lo = bucket_lower(i) as f64;
            let hi = bucket_upper(i) as f64;
            assert!(hi / lo <= 1.25, "bucket {i}: {lo}..{hi}");
        }
    }

    #[test]
    fn histogram_snapshot_totals_are_consistent() {
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 5, 100, 1000, u64::MAX / 2] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 9);
        assert_eq!(s.buckets.iter().map(|&(_, n)| n).sum::<u64>(), s.count);
        assert_eq!(s.max, u64::MAX / 2);
        assert_eq!(s.quantile(0.0), Some(0));
        assert_eq!(s.quantile(1.0), Some(u64::MAX / 2));
        // p50 of 9 values is the 5th smallest (4); its bucket is exact.
        assert_eq!(s.quantile(0.5), Some(4));
        assert_eq!(Histogram::default().snapshot().quantile(0.5), None);
    }

    #[test]
    fn registry_get_or_register_shares_cells() {
        let r = Registry::new();
        r.counter("a/b").inc();
        r.counter("a/b").add(2);
        assert_eq!(r.counter("a/b").get(), 3);
        r.histogram("h").record(10);
        assert_eq!(r.histogram("h").snapshot().count, 1);
    }

    #[test]
    fn prometheus_rendering_is_stable_and_sanitized() {
        let r = Registry::new();
        r.counter("serve/requests").add(5);
        let h = r.histogram("serve/latency_us");
        h.record(3);
        h.record(300);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE serve_requests counter\nserve_requests 5\n"));
        assert!(text.contains("serve_latency_us_bucket{le=\"3\"} 1"));
        assert!(text.contains("serve_latency_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("serve_latency_us_sum 303"));
        assert!(text.contains("serve_latency_us_count 2"));
        assert!(text.contains("serve_latency_us_max 300"));
        // Deterministic: rendering twice gives the same bytes.
        assert_eq!(text, r.render_prometheus());
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let c = global().counter("obs/self_test");
        let before = c.get();
        global().counter("obs/self_test").inc();
        assert_eq!(c.get(), before + 1);
        assert!(metrics_text().contains("obs_self_test"));
    }
}
