//! What a workload is to the harness, and the driver shared by the six
//! workloads that walk a list of op kinds from one thread.

use crate::alloc;
use crate::span::Tracer;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Knobs of one run that reach into the timed loops.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// `--handicap-pct`: after each op the harness busy-waits this share
    /// of the op's measured time, inside the timed region.  The program is
    /// untouched; the metrics must move as if it had slowed by that much.
    pub handicap_pct: f64,
}

/// The machine's speed, measured beside the ops.
///
/// The sandbox this benchmark is sized for shares its two cores with other
/// tenants, and for up to tens of seconds at a time everything that leans
/// on the caches and the allocator runs 1.3 to 1.8 times slower than in
/// the quiet phases between (README, "Noise").  A run is shorter than such
/// a phase, so no statistic of raw times repeats from run to run.  What
/// does repeat is an op's time relative to a fixed piece of the harness's
/// own work timed within milliseconds of it: the calibration kernel below.
/// A sample divided by the kernel's slowdown factor at that moment is, to a
/// first approximation, its time on the quiet machine.
pub struct Calibrator {
    state: u64,
    epoch: Instant,
    taken: Instant,
    factor: f64,
    /// (seconds since `epoch`, factor read then), in time order.
    readings: Vec<(f64, f64)>,
}

/// Iterations of one kernel execution.
const KERNEL_STEPS: usize = 600;
/// Kernel executions per calibration; the reading is their median.
const KERNEL_RUNS: usize = 3;
/// What one kernel execution takes on the quiet seed machine.  A constant,
/// not a per-run minimum: a run that never sees a quiet moment must still
/// be scaled to the same unit.  On other hardware every time metric is off
/// by one common factor, which no comparison between two builds sees.
const KERNEL_NOMINAL_NS: f64 = 42_000.0;
/// A reading older than this is taken again before the next sample.
const MAX_AGE: Duration = Duration::from_millis(8);

type FixedState = std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>;

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut c = Calibrator {
            state: 0x2545_f491_4f6c_dd1d,
            epoch: Instant::now(),
            taken: Instant::now(),
            factor: 1.0,
            readings: Vec::with_capacity(4096),
        };
        c.refresh();
        c
    }

    /// What the slow phases slow is not arithmetic (a register loop runs
    /// at full speed through them) but everything that leans on the caches
    /// and the allocator.  So the kernel does what an evaluator's inner
    /// loops do, with none of the program's code: SipHash map inserts and
    /// lookups, short strings formatted, sorted and freed.
    fn kernel(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = self.state;
        let mut acc = 0u64;
        let mut map: std::collections::HashMap<u64, u64, FixedState> = Default::default();
        let mut strings: Vec<String> = Vec::new();
        for i in 0..KERNEL_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            map.insert(x % 1024, i as u64);
            if let Some(v) = map.get(&((x >> 20) % 1024)) {
                acc = acc.wrapping_add(*v);
            }
            if i % 4 == 0 {
                strings.push(format!("id{}", x % 100_000));
            }
            if i % 64 == 63 {
                strings.sort_unstable();
                acc += strings.iter().filter(|s| s.as_bytes()[2] == b'7').count() as u64;
                strings.clear();
            }
        }
        self.state = x ^ black_box(acc);
        start.elapsed().as_nanos() as f64
    }

    /// Takes a fresh reading and returns the slowdown factor: 1.0 on the
    /// quiet seed machine, 1.5 when everything takes half as long again.
    pub fn refresh(&mut self) -> f64 {
        let mut runs = [0.0; KERNEL_RUNS];
        for r in &mut runs {
            *r = self.kernel();
        }
        runs.sort_by(|a, b| a.total_cmp(b));
        self.factor = runs[KERNEL_RUNS / 2] / KERNEL_NOMINAL_NS;
        self.taken = Instant::now();
        self.readings.push((self.now(), self.factor));
        self.factor
    }

    /// Seconds on the clock the readings are stamped with.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// The current factor, re-read when the last reading is stale.
    pub fn factor(&mut self) -> f64 {
        if self.taken.elapsed() > MAX_AGE {
            self.refresh();
        }
        self.factor
    }

    /// Every factor read so far, for the report.
    pub fn readings(&self) -> Vec<f64> {
        self.readings.iter().map(|r| r.1).collect()
    }

    /// Replaces each sample's factor — one reading, a tenth off either way
    /// as often as not — by the median of the readings within `window`
    /// seconds of the sample: the slow phases last far longer than that,
    /// single readings' noise does not.  Where the window holds fewer than
    /// two readings (a long op), the nearest on either side stand in.
    pub fn smooth(&self, samples: &mut [Sample], window: f64) {
        let r = &self.readings;
        for s in samples {
            let mut lo = r.partition_point(|x| x.0 < s.at - window);
            let mut hi = r.partition_point(|x| x.0 <= s.at + window);
            if hi - lo < 2 {
                lo = lo.saturating_sub(1);
                hi = (hi + 1).min(r.len());
            }
            let mut near: Vec<f64> = r[lo..hi].iter().map(|x| x.1).collect();
            near.sort_by(|a, b| a.total_cmp(b));
            if !near.is_empty() {
                s.factor = (near[(near.len() - 1) / 2] + near[near.len() / 2]) / 2.0;
            }
        }
    }
}

/// One timed region: the wall time as the clock read it and the machine's
/// slowdown factor read beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub ns: f64,
    /// When, on the calibrator's clock: the middle of the region.
    pub at: f64,
    pub factor: f64,
}

impl Sample {
    /// The time this region takes on the quiet machine.
    pub fn quiet_ns(&self) -> f64 {
        self.ns / self.factor
    }
}

/// Times `f` on the wall clock, handicap included.
pub fn timed_raw<R>(ctx: Ctx, f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = black_box(f());
    let mut elapsed = start.elapsed();
    if ctx.handicap_pct > 0.0 {
        let until = elapsed.mul_f64(1.0 + ctx.handicap_pct / 100.0);
        while elapsed < until {
            std::hint::spin_loop();
            elapsed = start.elapsed();
        }
    }
    (r, elapsed)
}

/// [`timed_raw`] with the machine's speed read before the region and, when
/// the region outlasts a reading's shelf life, after it.
pub fn timed<R>(ctx: Ctx, cal: &mut Calibrator, f: impl FnOnce() -> R) -> (R, Sample) {
    let before = cal.factor();
    let at = cal.now();
    let (r, elapsed) = timed_raw(ctx, f);
    let factor = if elapsed > MAX_AGE {
        (before + cal.refresh()) / 2.0
    } else {
        before
    };
    let sample = Sample {
        ns: elapsed.as_nanos() as f64,
        at: at + elapsed.as_secs_f64() / 2.0,
        factor,
    };
    (r, sample)
}

/// One time slice of a run.
#[derive(Debug, Default)]
pub struct Round {
    /// Per op kind, the latency samples of this slice, per unit.
    pub samples: Vec<Vec<Sample>>,
    /// Ops attempted (a unit may be several ops) and ops that errored or
    /// answered wrong.
    pub ops: u64,
    pub failed: u64,
    pub wall: Duration,
}

/// What the staged, traced replay of a workload's ops found.
#[derive(Debug, Default)]
pub struct Replay {
    pub ops: u64,
    pub failed: u64,
    /// When each replayed unit started, on the calibrator's clock, in op
    /// order.
    pub at: Vec<f64>,
}

pub trait Workload {
    /// Names of the op kinds (queries, documents or request classes).
    fn kinds(&self) -> Vec<String>;
    /// Whether `latency_ms` pools every sample (a request stream) or sums
    /// the kinds' medians (one pass over an op list).
    fn pooled(&self) -> bool {
        false
    }
    /// Ops in one sampled unit (a sample is the latency of one unit).
    fn ops_per_unit(&self) -> u64 {
        1
    }
    /// Checks made once in set-up: (attempted, failed).
    fn setup_checks(&self) -> (u64, u64);
    /// Runs ops for about `budget` and returns the samples.
    fn round(&mut self, budget: Duration, ctx: Ctx, cal: &mut Calibrator) -> Round;
    /// Peak live heap above the level at op start, max over ops, in bytes.
    fn peak_bytes(&mut self) -> usize;
    /// Replays ops stage by stage through public calls, one `op` span per
    /// op, until `budget` is spent or the tracer is full.
    fn replay(&mut self, tracer: &mut Tracer, budget: Duration, cal: &mut Calibrator) -> Replay;
    /// Corrupts an expected answer, so that a correct op must be counted
    /// as failed: the self-test of the checking itself.
    fn flip_expected(&mut self);
    /// Records work that runs beside the ops rather than inside one, as a
    /// root span of its own (see [`ListOps::side_span`]).
    fn side_span(&self, _tracer: &mut Tracer) {}
}

/// A workload that is a list of op kinds run in turn from one thread.
pub trait ListOps {
    type Out;
    fn kinds(&self) -> Vec<String>;
    /// Units timed back to back as one sample (the sample is their mean).
    fn batch(&self) -> usize {
        1
    }
    /// Ops in one unit of kind `kind`.
    fn ops_per_unit(&self) -> u64 {
        1
    }
    fn setup_checks(&self) -> (u64, u64);
    /// One unit through the single public call the workload measures.
    fn run(&self, kind: usize) -> Self::Out;
    /// The same unit stage by stage: one `op` span per op, each stage a
    /// child span of it.
    fn run_staged(&self, kind: usize, tracer: &mut Tracer) -> Self::Out;
    /// Failed ops among a unit's answers; runs untimed.
    fn failures(&self, kind: usize, out: Self::Out) -> u64;
    /// The expected digest of the first op of kind 0.
    fn first_expected(&mut self) -> &mut Option<crate::digest::Digest>;
    /// The ingest workloads tokenize their text once more under an
    /// `xml.token.side` span: the same bytes through the tokenizer alone,
    /// to set beside the stage that contains it.
    fn side_span(&self, _tracer: &mut Tracer) {}
}

/// Spans one replayed op may open, its `op` span included.
const MAX_SPANS_PER_OP: usize = 8;

/// [`ListOps`] as a [`Workload`]: kinds run round-robin, and a slice ends
/// at the first kind boundary past its budget, the next slice taking up
/// where it stopped.
pub struct List<W> {
    ops: W,
    kinds: usize,
    cursor: usize,
}

impl<W: ListOps> List<W> {
    pub fn new(ops: W) -> List<W> {
        let kinds = ops.kinds().len();
        List {
            ops,
            kinds,
            cursor: 0,
        }
    }
}

impl<W: ListOps> Workload for List<W> {
    fn kinds(&self) -> Vec<String> {
        self.ops.kinds()
    }

    fn ops_per_unit(&self) -> u64 {
        self.ops.ops_per_unit()
    }

    fn setup_checks(&self) -> (u64, u64) {
        self.ops.setup_checks()
    }

    fn round(&mut self, budget: Duration, ctx: Ctx, cal: &mut Calibrator) -> Round {
        let ops = &self.ops;
        let kinds = self.kinds;
        let batch = ops.batch();
        let mut round = Round {
            samples: vec![Vec::new(); kinds],
            ..Round::default()
        };
        let mut outs = Vec::with_capacity(batch);
        let start = Instant::now();
        while start.elapsed() < budget {
            let kind = self.cursor;
            self.cursor = (kind + 1) % kinds;
            let ((), mut sample) = timed(ctx, cal, || {
                for _ in 0..batch {
                    outs.push(ops.run(kind));
                }
            });
            sample.ns /= batch as f64;
            round.samples[kind].push(sample);
            round.ops += batch as u64 * ops.ops_per_unit();
            for out in outs.drain(..) {
                round.failed += ops.failures(kind, out);
            }
        }
        round.wall = start.elapsed();
        round
    }

    fn peak_bytes(&mut self) -> usize {
        (0..self.kinds)
            .map(|kind| {
                alloc::measure(|| drop(black_box(self.ops.run(kind))))
                    .1
                    .peak
            })
            .max()
            .unwrap_or(0)
    }

    fn replay(&mut self, tracer: &mut Tracer, budget: Duration, cal: &mut Calibrator) -> Replay {
        let kinds = self.kinds;
        let spans_per_unit = MAX_SPANS_PER_OP * self.ops.ops_per_unit() as usize;
        let mut replay = Replay::default();
        let start = Instant::now();
        // Whole passes only: the replay's pass time is compared with the
        // untraced one kind by kind.
        while start.elapsed() < budget && tracer.room() >= spans_per_unit * kinds {
            for kind in 0..kinds {
                cal.factor();
                replay.at.push(cal.now());
                let out = self.ops.run_staged(kind, tracer);
                replay.ops += self.ops.ops_per_unit();
                replay.failed += self.ops.failures(kind, out);
            }
        }
        replay
    }

    fn flip_expected(&mut self) {
        let slot = self.ops.first_expected();
        *slot = slot.map(crate::digest::Digest::flipped);
    }

    fn side_span(&self, tracer: &mut Tracer) {
        self.ops.side_span(tracer);
    }
}
