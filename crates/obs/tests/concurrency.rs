//! Registry concurrency suite: a seeded multi-thread hammer proving
//! exact observation conservation across histogram buckets, plus a
//! `protocol_model.rs`-style exhaustive interleaving check (cf.
//! `crates/serve/tests/protocol_model.rs`) for snapshot-vs-increment
//! consistency.
//!
//! The load-bearing design fact under test: a [`Histogram`] has **no
//! separate count cell** — the count is derived as the sum of the bucket
//! cells, and every `record` lands in exactly one bucket.  Conservation
//! (`sum(buckets) == count`) therefore holds at *every* point any
//! snapshot can observe, not just at quiescence.  The negative control
//! shows the checker has teeth: a model with a separate count cell is
//! caught violating conservation under some interleaving.

use minctx_obs::{Counter, Histogram, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

/// The workspace's seeded PRNG idiom (cf. `minctx-bench`): deterministic,
/// dependency-free, good enough to scatter values across buckets.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

#[test]
fn histogram_hammer_conserves_counts_exactly() {
    const THREADS: u64 = 8;
    const RECORDS: u64 = 20_000;
    let reg = Arc::new(Registry::new());
    let hist = reg.histogram("hammer/values");
    let ctr = reg.counter("hammer/records");
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let hist = hist.clone();
            let ctr = ctr.clone();
            thread::spawn(move || {
                let mut state = 0x9e37_79b9_7f4a_7c15 ^ (t + 1);
                let mut sum = 0u128;
                let mut max = 0u64;
                for _ in 0..RECORDS {
                    // Spread magnitudes across the whole bucket range.
                    let shift = (xorshift(&mut state) % 64) as u32;
                    let v = xorshift(&mut state) >> shift;
                    hist.record(v);
                    ctr.inc();
                    sum += v as u128;
                    max = max.max(v);
                }
                (sum, max)
            })
        })
        .collect();
    let mut want_sum = 0u128;
    let mut want_max = 0u64;
    for h in handles {
        let (sum, max) = h.join().unwrap();
        want_sum += sum;
        want_max = want_max.max(max);
    }
    let snap = hist.snapshot();
    // Exact conservation: every record landed in exactly one bucket.
    assert_eq!(snap.count, THREADS * RECORDS);
    assert_eq!(
        snap.buckets.iter().map(|&(_, n)| n).sum::<u64>(),
        THREADS * RECORDS,
        "bucket counts must sum to the observation count"
    );
    assert_eq!(snap.sum as u128, want_sum & (u128::from(u64::MAX)));
    assert_eq!(snap.max, want_max);
    assert_eq!(ctr.get(), THREADS * RECORDS);
    // Quantiles are sane on a full histogram.
    let p50 = snap.quantile(0.5).unwrap();
    let p99 = snap.quantile(0.99).unwrap();
    assert!(p50 <= p99 && p99 <= snap.max);
}

#[test]
fn snapshots_during_hammer_are_monotone_and_conserving() {
    // One observer snapshots continuously while writers hammer; every
    // snapshot it takes must be internally conserving (count == sum of
    // buckets, by construction of `snapshot`) and monotone in count,
    // sum, and max against the previous one.
    const WRITERS: u64 = 4;
    const RECORDS: u64 = 30_000;
    let hist = Histogram::detached();
    let ctr = Counter::detached();
    let done = Arc::new(AtomicU64::new(0));
    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            let hist = hist.clone();
            let ctr = ctr.clone();
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let mut state = 0xdead_beef ^ (t + 1);
                for _ in 0..RECORDS {
                    hist.record(xorshift(&mut state) % 10_000);
                    ctr.inc();
                }
                done.fetch_add(1, Ordering::Release);
            })
        })
        .collect();
    let mut prev_count = 0u64;
    let mut prev_sum = 0u64;
    let mut prev_max = 0u64;
    let mut observations = 0u64;
    while done.load(Ordering::Acquire) < WRITERS || observations == 0 {
        let snap = hist.snapshot();
        // Internal conservation at every mid-flight observation point:
        // the count *is* the bucket sum, so no interleaving can show a
        // count the buckets don't account for.  (Cross-cell bounds
        // against the counter are deliberately not asserted: the cells
        // are independent Relaxed atomics with no visibility order.)
        assert_eq!(
            snap.buckets.iter().map(|&(_, n)| n).sum::<u64>(),
            snap.count,
        );
        assert!(snap.count <= WRITERS * RECORDS, "count overshot the total");
        assert!(snap.count >= prev_count, "count went backwards");
        assert!(snap.sum >= prev_sum, "sum went backwards");
        assert!(snap.max >= prev_max, "max went backwards");
        (prev_count, prev_sum, prev_max) = (snap.count, snap.sum, snap.max);
        observations += 1;
    }
    for w in writers {
        w.join().unwrap();
    }
    let final_snap = hist.snapshot();
    assert_eq!(final_snap.count, WRITERS * RECORDS);
    assert_eq!(ctr.get(), WRITERS * RECORDS);
}

// ---- exhaustive interleaving checks (protocol_model.rs style) --------

// `for_each_schedule` and its self-check, shared by the three model suites.
include!("../../../tests/support/schedules.rs");

/// One atomic step of a histogram-model thread.  `Record` is a single
/// step because a bucket increment is one atomic RMW — the derived count
/// changes exactly when the bucket cell does.
#[derive(Clone, Copy)]
enum Op {
    Record(u64),
    Snapshot,
}

/// Replays `programs` under `schedule` against a fresh **real**
/// [`Histogram`], checking every snapshot any observer could take.
fn replay_histogram(programs: &[Vec<Op>], schedule: &[usize]) {
    let hist = Histogram::detached();
    let mut pc = vec![0usize; programs.len()];
    let mut recorded = 0u64;
    let mut recorded_sum = 0u64;
    let mut prev_count = 0u64;
    for &t in schedule {
        let op = programs[t][pc[t]];
        pc[t] += 1;
        match op {
            Op::Record(v) => {
                hist.record(v);
                recorded += 1;
                recorded_sum += v;
            }
            Op::Snapshot => {
                let snap = hist.snapshot();
                // Conservation at every observable point: count is the
                // bucket sum by construction, and both equal the records
                // completed so far.
                assert_eq!(snap.count, recorded);
                assert_eq!(snap.buckets.iter().map(|&(_, n)| n).sum::<u64>(), recorded);
                assert_eq!(snap.sum, recorded_sum);
                assert!(snap.count >= prev_count, "snapshot count regressed");
                prev_count = snap.count;
            }
        }
    }
    assert_eq!(hist.snapshot().count, recorded);
}

#[test]
fn snapshot_vs_increment_is_consistent_under_every_interleaving() {
    // Two recorders (two records each, values in different buckets) and
    // one observer snapshotting three times: 7!/(2!·2!·3!) = 210
    // schedules, each replayed against the real histogram.
    let programs = vec![
        vec![Op::Record(1), Op::Record(100)],
        vec![Op::Record(5000), Op::Record(1)],
        vec![Op::Snapshot; 3],
    ];
    let lens: Vec<usize> = programs.iter().map(Vec::len).collect();
    let n = for_each_schedule(&lens, |s| replay_histogram(&programs, s));
    assert_eq!(n, 210);
}

/// Negative control: a histogram whose count lives in a *separate* cell
/// incremented before the bucket — the design [`Histogram`] deliberately
/// avoids.  Its two-step record is modeled as two schedule steps; the
/// checker must catch a schedule where a snapshot sees the count and the
/// buckets disagree, proving the conservation assertions above have
/// teeth.
#[test]
fn separate_count_cell_would_break_conservation_and_the_checker_sees_it() {
    #[derive(Clone, Copy)]
    enum BadOp {
        BumpCount,
        BumpBucket,
        Snapshot,
    }
    struct BadHistogram {
        count: AtomicU64,
        bucket: AtomicU64,
    }
    let programs = [
        vec![BadOp::BumpCount, BadOp::BumpBucket],
        vec![BadOp::Snapshot; 2],
    ];
    let lens: Vec<usize> = programs.iter().map(Vec::len).collect();
    let mut violation_found = false;
    for_each_schedule(&lens, |schedule| {
        let h = BadHistogram {
            count: AtomicU64::new(0),
            bucket: AtomicU64::new(0),
        };
        let mut pc = vec![0usize; programs.len()];
        for &t in schedule {
            let op = programs[t][pc[t]];
            pc[t] += 1;
            match op {
                BadOp::BumpCount => {
                    h.count.fetch_add(1, Ordering::Relaxed);
                }
                BadOp::BumpBucket => {
                    h.bucket.fetch_add(1, Ordering::Relaxed);
                }
                BadOp::Snapshot => {
                    if h.count.load(Ordering::Relaxed) != h.bucket.load(Ordering::Relaxed) {
                        violation_found = true;
                    }
                }
            }
        }
    });
    assert!(
        violation_found,
        "the checker failed to expose the separate-count-cell race"
    );
}

#[test]
fn registry_registration_races_resolve_to_one_cell() {
    // Many threads get-or-register the same names concurrently; every
    // handle must land on the same cells (no lost increments).
    const THREADS: u64 = 8;
    const NAMES: u64 = 16;
    let reg = Arc::new(Registry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let reg = Arc::clone(&reg);
            thread::spawn(move || {
                for i in 0..NAMES {
                    reg.counter(&format!("race/c{i}")).inc();
                    reg.histogram(&format!("race/h{i}")).record(i);
                    reg.gauge(&format!("race/g{i}")).add(1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = reg.snapshot();
    assert_eq!(snap.counters.len(), NAMES as usize);
    assert_eq!(snap.histograms.len(), NAMES as usize);
    for (name, v) in &snap.counters {
        assert_eq!(*v, THREADS, "{name} lost increments");
    }
    for (name, h) in &snap.histograms {
        assert_eq!(h.count, THREADS, "{name} lost observations");
    }
    for (name, g) in &snap.gauges {
        assert_eq!(*g, THREADS as i64, "{name} lost adjustments");
    }
}
