//! One run of one workload: set-up, time slices, statistics, report.
//!
//! A timed run is five times (set-up + a warm-up slice + a fifth of the
//! forty time slices), then one counted pass for `peak_mb`.  Every sample
//! carries the machine's slowdown factor read beside it
//! (`workload::Calibrator`), and every timing metric is a statistic of the
//! *quietest third* of a kind's samples, each divided by its factor: the
//! run's calmest moments, scaled by what little slowdown they still had.
//! README, "Noise", has the measurements this rests on.

use crate::alloc::MB;
use crate::manifest::{self, WorkloadSpec};
use crate::span::{self, Span, Tracer};
use crate::workload::{Calibrator, Ctx, Round, Sample, Workload};
use crate::{env, probes, stats, workloads};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Time slices of a run.  Short, so that the multi-threaded workload,
/// which can read the machine's speed only between slices, reads it within
/// a fraction of a second of every request.
const SLICES: u32 = 40;
/// Set-ups per run; `setup_s` is their median, and each measures a fifth
/// of the slices.
const SETUP_REPS: usize = 5;
/// The share of a kind's samples, quietest first, the statistics use.
const QUIET_SHARE: f64 = 1.0 / 3.0;
/// Spans a traced run keeps; the replay stops when they are used up.
const SPAN_CAPACITY: usize = 600_000;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub ctx: Ctx,
    /// `--flip-expected`: corrupt one expected answer after set-up; the
    /// run must then report failed ops and exit non-zero.
    pub flip_expected: bool,
}

/// What a run hands to `main`: the metric values by name, the op counts
/// and the human-readable report.
pub struct Outcome {
    pub values: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub report: String,
}

fn setup(spec: &WorkloadSpec, seed: u64, dir: &Path) -> Box<dyn Workload> {
    workloads::setup(spec.name, seed, dir).expect("every manifest workload has a set-up")
}

/// The samples taken at the run's quietest moments — those whose factor is
/// within the lowest [`QUIET_SHARE`] of `samples`' factors — as times on
/// the quiet machine.
fn quiet(samples: &[Sample]) -> Vec<f64> {
    let factors = stats::sorted(samples.iter().map(|s| s.factor).collect());
    let cut = stats::quantile(&factors, QUIET_SHARE);
    samples
        .iter()
        .filter(|s| s.factor <= cut)
        .map(Sample::quiet_ns)
        .collect()
}

/// The timing statistics of a set of samples per kind.
struct Summary {
    latency_ms: f64,
    tail_ms: f64,
    geomean_us: f64,
    /// Mean time of one pass over the kinds (list workloads only).
    mean_pass_ns: f64,
    /// Fewest samples any kind contributed, and fewest beyond its tail.
    quiet_n: usize,
    beyond: usize,
}

/// `latency_ms` and `latency_tail_ms` are the median and the `tail_q`
/// quantile of a unit's time: over all requests when `pooled`, else summed
/// over the kinds — one pass over the workload's op list.
fn summarize(per_kind: &[Vec<Sample>], pooled: bool, tail_q: f64) -> Summary {
    let medians: Vec<f64> = per_kind.iter().map(|s| stats::median(&quiet(s))).collect();
    let units: Vec<Vec<f64>> = if pooled {
        vec![quiet(&per_kind.concat())]
    } else {
        per_kind.iter().map(|s| quiet(s)).collect()
    };
    let mut summary = Summary {
        latency_ms: 0.0,
        tail_ms: 0.0,
        geomean_us: stats::geomean(&medians) / 1e3,
        mean_pass_ns: 0.0,
        quiet_n: usize::MAX,
        beyond: usize::MAX,
    };
    for unit in units {
        let sorted = stats::sorted(unit);
        let tail = stats::quantile(&sorted, tail_q);
        summary.latency_ms += stats::quantile(&sorted, 0.5) / 1e6;
        summary.tail_ms += tail / 1e6;
        summary.mean_pass_ns += sorted.iter().sum::<f64>() / sorted.len() as f64;
        summary.quiet_n = summary.quiet_n.min(sorted.len());
        summary.beyond = summary
            .beyond
            .min(sorted.iter().filter(|s| **s > tail).count());
    }
    summary
}

/// Requests per second of the quietest third of a closed loop's slices, on
/// the quiet machine.
fn pooled_throughput(rounds: &[Round]) -> f64 {
    let slices: Vec<(f64, f64, u64)> = rounds
        .iter()
        .filter_map(|r| {
            let factor = r.samples.iter().flatten().next()?.factor;
            Some((factor, r.wall.as_secs_f64() / factor, r.ops))
        })
        .collect();
    let factors = stats::sorted(slices.iter().map(|s| s.0).collect());
    let cut = stats::quantile(&factors, QUIET_SHARE);
    let (wall, ops) = slices
        .iter()
        .filter(|s| s.0 <= cut)
        .fold((0.0, 0), |(w, o), s| (w + s.1, o + s.2));
    ops as f64 / wall
}

/// How far from a sample a reading of the machine's speed may be and
/// still count towards the sample's factor: 50 ms for a single-threaded
/// sample, and for a closed loop's slice, whose only readings are at its
/// two ends, half the slice and a little.
fn smoothing_window(pooled: bool, slice: Duration) -> f64 {
    if pooled {
        slice.as_secs_f64() * 0.6
    } else {
        0.05
    }
}

fn smooth(rounds: &mut [Round], cal: &Calibrator, window: f64) {
    for samples in rounds.iter_mut().flat_map(|r| r.samples.iter_mut()) {
        cal.smooth(samples, window);
    }
}

fn per_kind(rounds: &[Round], kinds: usize) -> Vec<Vec<Sample>> {
    (0..kinds)
        .map(|k| {
            rounds
                .iter()
                .flat_map(|r| r.samples[k].iter().copied())
                .collect()
        })
        .collect()
}

fn describe_factors(cal: &Calibrator) -> String {
    let f = stats::sorted(cal.readings());
    format!(
        "machine slowdown factor, {} readings: min {:.2} p25 {:.2} median {:.2} p75 {:.2} max {:.2}",
        f.len(),
        f[0],
        stats::quantile(&f, 0.25),
        stats::quantile(&f, 0.5),
        stats::quantile(&f, 0.75),
        f[f.len() - 1]
    )
}

/// The timed run: every end-to-end metric.
pub fn end_to_end(spec: &WorkloadSpec, cfg: &RunConfig, dir: &Path) -> Outcome {
    let steal = env::steal_jiffies();
    let mut cal = Calibrator::new();
    let (mut setup_s, mut setup_raw_s) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let slice = Duration::from_secs_f64(cfg.seconds) / SLICES;
    let mut rounds: Vec<Round> = Vec::with_capacity(SLICES as usize);
    let mut workload = None;
    // Each set-up is also measured on: what varies from one instance of
    // the program's state to the next (heap layout, the hash seeds behind
    // the service's shards, which worker picks up what) is averaged inside
    // a run instead of showing up between runs.
    for rep in 0..SETUP_REPS {
        // The previous instance goes first: its teardown is not set-up.
        drop(workload.take());
        let before = cal.refresh();
        let start = Instant::now();
        let mut instance = setup(spec, cfg.seed, dir);
        let raw = start.elapsed().as_secs_f64();
        setup_raw_s.push(raw);
        setup_s.push(raw / ((before + cal.refresh()) / 2.0));
        if cfg.flip_expected {
            instance.flip_expected();
        }
        let checks = instance.setup_checks();
        attempted += checks.0;
        failed += checks.1;
        instance.round(slice, cfg.ctx, &mut cal);
        let share = SLICES as usize * (rep + 1) / SETUP_REPS - rounds.len();
        rounds.extend((0..share).map(|_| instance.round(slice, cfg.ctx, &mut cal)));
        workload = Some(instance);
    }
    let mut workload = workload.expect("SETUP_REPS is at least 1");
    smooth(
        &mut rounds,
        &cal,
        smoothing_window(workload.pooled(), slice),
    );
    let peak_mb = workload.peak_bytes() as f64 / MB;
    for r in &rounds {
        attempted += r.ops;
        failed += r.failed;
    }

    let kinds = workload.kinds();
    let pooled = workload.pooled();
    let samples = per_kind(&rounds, kinds.len());
    let summary = summarize(&samples, pooled, spec.tail_q);
    let throughput = if pooled {
        pooled_throughput(&rounds)
    } else {
        (kinds.len() as u64 * workload.ops_per_unit()) as f64 / (summary.mean_pass_ns / 1e9)
    };
    let values = vec![
        ("setup_s", stats::median(&setup_s)),
        ("latency_ms", summary.latency_ms),
        ("latency_tail_ms", summary.tail_ms),
        ("kind_geomean_us", summary.geomean_us),
        ("throughput_per_s", throughput),
        ("peak_mb", peak_mb),
    ];

    let n: usize = samples.iter().map(Vec::len).sum();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "== {} seed {}: {SLICES} slices of {:.3} s, {n} samples, {attempted} ops and checks",
        spec.name,
        cfg.seed,
        slice.as_secs_f64()
    );
    let _ = writeln!(report, "{}", env::describe(cfg.seed, steal));
    let _ = writeln!(report, "{}", describe_factors(&cal));
    if cfg.ctx.handicap_pct > 0.0 {
        let _ = writeln!(
            report,
            "HANDICAP: {}% of every op's time busy-waited inside the harness",
            cfg.ctx.handicap_pct
        );
    }
    let _ = writeln!(
        report,
        "setup_s: median of {setup_s:.4?} (as the clock read: {setup_raw_s:.4?})"
    );
    let _ = writeln!(
        report,
        "timing metrics: the quietest third of each kind's samples, scaled to the quiet machine; at least {} samples per kind, {} beyond the p{} tail",
        summary.quiet_n,
        summary.beyond,
        spec.tail_q * 100.0
    );
    let _ = writeln!(report, "per kind, as the clock read: n, median us, tail us (highest percentile with >= 10 samples beyond it) | quiet third: n, median us");
    for (kind, kind_samples) in kinds.iter().zip(&samples) {
        let raw = stats::sorted(kind_samples.iter().map(|s| s.ns).collect());
        let tail = stats::tail_quantile(raw.len()).map_or("-".to_string(), |q| {
            format!("p{} {:.3}", q * 100.0, stats::quantile(&raw, q) / 1e3)
        });
        let calm = quiet(kind_samples);
        let _ = writeln!(
            report,
            "  {kind:<48} {:>6} {:>12.3} {tail:>18} | {:>6} {:>12.3}",
            raw.len(),
            stats::quantile(&raw, 0.5) / 1e3,
            calm.len(),
            stats::median(&calm) / 1e3
        );
    }
    for (name, value) in &values {
        let _ = writeln!(report, "{name:<18} {value}");
    }
    let _ = writeln!(report, "failed {failed} of {attempted} ops and checks");
    Outcome {
        values,
        attempted,
        failed,
        report,
    }
}

fn op_roots(spans: &[Span]) -> impl Iterator<Item = &Span> {
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == "op")
}

const SHARES: [(&str, &str); 12] = [
    ("xml.parse", "share.xml.parse_pct"),
    ("xml.drop", "share.xml.drop_pct"),
    ("syntax.parse_xpath", "share.syntax.parse_xpath_pct"),
    ("core.rewrite", "share.core.rewrite_pct"),
    ("core.compile", "share.core.compile_pct"),
    ("core.cache.hit", "share.core.cache_hit_pct"),
    ("core.eval", "share.core.eval_pct"),
    ("index.open", "share.index.open_pct"),
    ("index.drop", "share.index.drop_pct"),
    ("stream.eval", "share.stream.eval_pct"),
    ("serve.submit", "share.serve.submit_pct"),
    ("serve.wait", "share.serve.wait_pct"),
];

/// The traced run: every per-layer metric, and the span file.
pub fn per_layer(spec: &WorkloadSpec, cfg: &RunConfig, dir: &Path, out_dir: &Path) -> Outcome {
    let steal = env::steal_jiffies();
    let mut cal = Calibrator::new();
    let mut workload = setup(spec, cfg.seed, dir);
    let (mut attempted, mut failed) = workload.setup_checks();
    let pooled = workload.pooled();
    let kinds = workload.kinds().len();
    let ops_per_unit = workload.ops_per_unit() as usize;
    let slice = Duration::from_secs_f64(cfg.seconds) / SLICES;
    let quarter = SLICES / 4;

    // Untraced first, in this process and seconds before the replay: the
    // figure the traced ops are held against.
    workload.round(slice * 2, cfg.ctx, &mut cal);
    let window = smoothing_window(pooled, slice);
    let mut untraced: Vec<Round> = (0..quarter)
        .map(|_| workload.round(slice, cfg.ctx, &mut cal))
        .collect();
    smooth(&mut untraced, &cal, window);
    for r in &untraced {
        attempted += r.ops;
        failed += r.failed;
    }
    let untraced_ms = summarize(&per_kind(&untraced, kinds), pooled, spec.tail_q).latency_ms;

    let mut tracer = Tracer::new(Instant::now(), SPAN_CAPACITY);
    let replay = workload.replay(&mut tracer, slice * quarter, &mut cal);
    workload.side_span(&mut tracer);
    attempted += replay.ops;
    failed += replay.failed;
    drop(workload);

    // The replayed ops as samples: a unit is `ops_per_unit` consecutive op
    // spans, and units come kind after kind, whole passes only.
    let spans = tracer.spans();
    let op_ns: Vec<f64> = op_roots(spans).map(|s| s.duration_ns() as f64).collect();
    let op_total: f64 = op_ns.iter().sum();
    let mut traced: Vec<Vec<Sample>> = vec![Vec::new(); if pooled { 1 } else { kinds }];
    for (unit, (ops, at)) in op_ns.chunks(ops_per_unit).zip(&replay.at).enumerate() {
        let sample = Sample {
            ns: ops.iter().sum(),
            at: *at,
            factor: 1.0,
        };
        traced[if pooled { 0 } else { unit % kinds }].push(sample);
    }
    for samples in &mut traced {
        cal.smooth(samples, window);
    }
    let traced_ms = summarize(&traced, pooled, spec.tail_q).latency_ms;

    let by_name = span::self_time_by_name(spans);
    let self_of = |name: &str| {
        by_name
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, t)| *t) as f64
    };
    let mut values: Vec<(&'static str, f64)> = vec![
        ("trace.op_ms", traced_ms),
        (
            "trace.overhead_pct",
            (traced_ms - untraced_ms) / untraced_ms * 100.0,
        ),
        ("trace.unaccounted_pct", self_of("op") / op_total * 100.0),
    ];
    for (span_name, row) in SHARES {
        values.push((row, self_of(span_name) / op_total * 100.0));
    }
    let mean_op_ns = op_total / op_ns.len() as f64;
    values.push((
        "share.xml.token_side_pct",
        self_of("xml.token.side") / mean_op_ns * 100.0,
    ));

    let span_file = out_dir.join(format!("trace-{}.jsonl", spec.name));
    let written = std::fs::File::create(&span_file)
        .and_then(|f| span::write_jsonl(spans, std::io::BufWriter::new(f)));
    attempted += 1;
    if let Err(e) = &written {
        eprintln!("cannot write {}: {e}", span_file.display());
        failed += 1;
    }
    let span_count = spans.len();
    drop(tracer);

    let (rows, checks) = probes::run(cfg.seed, dir);
    attempted += checks.counts().0;
    failed += checks.counts().1;
    values.extend(rows);

    let mut report = String::new();
    let _ = writeln!(
        report,
        "== {} seed {} traced: {} ops replayed under {span_count} spans -> {}",
        spec.name,
        cfg.seed,
        replay.ops,
        span_file.display()
    );
    let _ = writeln!(report, "{}", env::describe(cfg.seed, steal));
    let _ = writeln!(report, "{}", describe_factors(&cal));
    let _ = writeln!(
        report,
        "latency_ms untraced {untraced_ms:.4}, traced {traced_ms:.4}"
    );
    for (name, value) in &values {
        let unit = manifest::PER_LAYER
            .iter()
            .find(|m| m.name == *name)
            .map_or("?", |m| m.unit);
        let _ = writeln!(report, "  {name:<34} {value:>16.4} {unit}");
    }
    let _ = writeln!(report, "failed {failed} of {attempted} ops and checks");
    Outcome {
        values,
        attempted,
        failed,
        report,
    }
}
