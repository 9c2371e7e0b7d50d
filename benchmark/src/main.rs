//! The repo's benchmark.  One invocation runs one workload:
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints a report and, as the last line of standard output, one JSON
//! object with the run's metrics (README.md has the contract and the other
//! modes: `--all`, `--aa K`, `--handicap-pct P`, `--check-manifest`).

mod alloc;
mod digest;
mod env;
mod gen;
mod manifest;
mod measure;
mod probes;
mod span;
mod stats;
mod workload;
mod workloads;

use manifest::WorkloadSpec;
use measure::{Outcome, RunConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::CountingAllocator = alloc::CountingAllocator;

const USAGE: &str = "usage: benchmark (--workload <name> | --all) [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--handicap-pct <p>] [--aa <k>] [--flip-expected]
       benchmark --check-manifest | --print-manifest";

struct Args {
    workloads: Vec<&'static WorkloadSpec>,
    cfg: RunConfig,
    traced: bool,
    aa: usize,
}

enum Mode {
    Run(Args),
    CheckManifest,
    PrintManifest,
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workloads = Vec::new();
    let mut cfg = RunConfig {
        seed: manifest::DEFAULT_SEED,
        seconds: manifest::RUN_SECONDS as f64,
        ctx: workload::Ctx { handicap_pct: 0.0 },
        flip_expected: false,
    };
    let (mut traced, mut aa) = (false, 0);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: {v} is not a number"))
        };
        match flag.as_str() {
            "--check-manifest" => return Ok(Mode::CheckManifest),
            "--print-manifest" => return Ok(Mode::PrintManifest),
            "--all" => workloads = manifest::WORKLOADS.iter().collect(),
            "--workload" => {
                let name = value()?;
                let spec = manifest::WORKLOADS
                    .iter()
                    .find(|w| w.name == name)
                    .ok_or(format!("unknown workload {name}"))?;
                workloads = vec![spec];
            }
            "--seed" => {
                let v = value()?;
                cfg.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: {v} is not a whole number"))?;
            }
            "--seconds" => cfg.seconds = number(value()?)?,
            "--handicap-pct" => cfg.ctx.handicap_pct = number(value()?)?,
            "--trace" => traced = number(value()?)? != 0.0,
            "--traced" => traced = true,
            "--flip-expected" => cfg.flip_expected = true,
            "--aa" => aa = number(value()?)? as usize,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if workloads.is_empty() {
        return Err("name a workload with --workload, or pass --all".to_string());
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(Mode::Run(Args {
        workloads,
        cfg,
        traced,
        aa,
    }))
}

/// The benchmark's own directory: `benchmark/` under the working directory
/// when run from a checkout's root, as the contract's command does, else
/// where the package was built.
fn bench_dir() -> PathBuf {
    let local = Path::new("benchmark");
    if local.join("Cargo.toml").is_file() {
        local.to_path_buf()
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// Scratch files (snapshots) live under a per-process directory that is
/// removed when the run ends, panics included.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(out_dir: &Path) -> std::io::Result<ScratchDir> {
        let dir = out_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_one(spec: &WorkloadSpec, args: &Args, scratch: &Path, out_dir: &Path) -> Outcome {
    if args.traced {
        measure::per_layer(spec, &args.cfg, scratch, out_dir)
    } else {
        measure::end_to_end(spec, &args.cfg, scratch)
    }
}

/// `--aa K`: K sets of the same build; per metric and workload, the largest
/// relative distance between two sets next to the metric's bound.
fn aa(args: &Args, scratch: &Path, out_dir: &Path) -> bool {
    let mut all_within = true;
    let mut table = String::new();
    for spec in &args.workloads {
        let sets: Vec<Outcome> = (0..args.aa)
            .map(|_| {
                let outcome = run_one(spec, args, scratch, out_dir);
                print!("{}", outcome.report);
                outcome
            })
            .collect();
        all_within &= sets.iter().all(|s| s.failed == 0);
        for metric in &manifest::END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|s| {
                    s.values
                        .iter()
                        .find(|(n, _)| *n == metric.name)
                        .map(|(_, v)| *v)
                })
                .collect();
            let deviation = stats::spread(&values);
            let within = deviation <= metric.bound;
            all_within &= within;
            table.push_str(&format!(
                "{:<14} {:<18} {:>8.2}% of bound {:>5.1}%  {}  {values:?}\n",
                spec.name,
                metric.name,
                deviation * 100.0,
                metric.bound * 100.0,
                if within { "ok  " } else { "OVER" },
            ));
        }
    }
    print!(
        "A/A over {} sets: largest relative deviation between sets\n{table}",
        args.aa
    );
    all_within
}

fn run(args: &Args) -> Result<bool, String> {
    let out_dir = bench_dir().join("out");
    let scratch = ScratchDir::create(&out_dir).map_err(|e| {
        format!(
            "cannot create a scratch directory under {}: {e}",
            out_dir.display()
        )
    })?;
    if args.aa > 0 {
        return Ok(aa(args, &scratch.0, &out_dir));
    }
    let specs = if args.traced {
        manifest::per_layer_specs()
    } else {
        manifest::end_to_end_specs()
    };
    let mut all_correct = true;
    for spec in &args.workloads {
        let outcome = run_one(spec, args, &scratch.0, &out_dir);
        print!("{}", outcome.report);
        let line =
            manifest::result_line(&specs, &outcome.values, outcome.attempted, outcome.failed)?;
        println!("{line}");
        all_correct &= outcome.failed == 0;
    }
    Ok(all_correct)
}

fn check_manifest() -> Result<bool, String> {
    let path = bench_dir().join("..").join("BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let rendered = manifest::render();
    if on_disk == rendered {
        println!(
            "{} matches the names, units and bounds this binary emits",
            path.display()
        );
        return Ok(true);
    }
    for (i, (a, b)) in on_disk.lines().zip(rendered.lines()).enumerate() {
        if a != b {
            eprintln!("line {}:\n  file:   {a}\n  binary: {b}", i + 1);
        }
    }
    eprintln!(
        "{} differs from what this binary emits (--print-manifest)",
        path.display()
    );
    Ok(false)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match parse_args(&args) {
        Ok(Mode::Run(args)) => run(&args),
        Ok(Mode::CheckManifest) => check_manifest(),
        Ok(Mode::PrintManifest) => {
            print!("{}", manifest::render());
            Ok(true)
        }
        Err(e) => Err(format!("{e}\n{USAGE}")),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
