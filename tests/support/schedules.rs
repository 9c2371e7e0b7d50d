// The exhaustive interleaving enumerator shared by the protocol-model
// suites — `crates/xml/tests/par_protocol.rs`,
// `crates/serve/tests/protocol_model.rs` and
// `crates/obs/tests/concurrency.rs` — each of which `include!`s this file
// (a subdirectory of `tests/` is not a test target of its own), so every
// suite also runs the enumerator's self-check.

/// Drives `explore` over every interleaving of threads with the given
/// program lengths: each schedule is a sequence of thread indices in
/// which thread `t` appears exactly `lens[t]` times, preserving each
/// thread's program order.  Returns the number of schedules visited.
fn for_each_schedule(lens: &[usize], mut explore: impl FnMut(&[usize])) -> usize {
    fn rec(
        lens: &[usize],
        done: &mut [usize],
        schedule: &mut Vec<usize>,
        count: &mut usize,
        explore: &mut impl FnMut(&[usize]),
    ) {
        if schedule.len() == lens.iter().sum() {
            *count += 1;
            explore(schedule);
            return;
        }
        for t in 0..lens.len() {
            if done[t] < lens[t] {
                done[t] += 1;
                schedule.push(t);
                rec(lens, done, schedule, count, explore);
                schedule.pop();
                done[t] -= 1;
            }
        }
    }
    let mut count = 0;
    rec(
        lens,
        &mut vec![0; lens.len()],
        &mut Vec::new(),
        &mut count,
        &mut explore,
    );
    count
}

#[test]
fn schedule_enumeration_is_exhaustive() {
    // Sanity-check the enumerator itself: merges of (2, 2) = C(4, 2).
    assert_eq!(for_each_schedule(&[2, 2], |_| {}), 6);
    // Multinomial 6! / (2! 2! 2!).
    assert_eq!(for_each_schedule(&[2, 2, 2], |_| {}), 90);
}
