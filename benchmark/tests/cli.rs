//! The command as the driver runs it: exit codes and the result line.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

const QUICK: [&str; 6] = [
    "--workload",
    "adhoc-corpus",
    "--seed",
    "5",
    "--seconds",
    "0.4",
];

#[test]
fn a_run_ends_with_the_result_line_and_exits_zero() {
    let (ok, stdout) = run(&[&QUICK[..], &["--trace", "0"]].concat());
    let last = stdout.lines().last().unwrap_or_default();
    assert!(ok, "{stdout}");
    assert!(
        last.starts_with(r#"{"correct": true, "attempted": "#),
        "{last}"
    );
    for name in [
        "setup_s",
        "latency_ms",
        "latency_tail_ms",
        "kind_geomean_us",
        "throughput_per_s",
        "peak_mb",
    ] {
        assert!(
            last.contains(&format!(r#""{name}": {{"value": "#)),
            "{name} missing in {last}"
        );
    }
}

#[test]
fn a_flipped_expected_digest_makes_the_command_exit_non_zero() {
    let (ok, stdout) = run(&[&QUICK[..], &["--flip-expected"]].concat());
    assert!(!ok);
    let last = stdout.lines().last().unwrap_or_default();
    assert!(last.starts_with(r#"{"correct": false, "#), "{last}");
}

#[test]
fn the_manifest_on_disk_is_what_the_binary_emits() {
    let (ok, stdout) = run(&["--check-manifest"]);
    assert!(ok, "{stdout}");
    let (ok, _) = run(&["--workload", "no-such-workload"]);
    assert!(!ok);
}
