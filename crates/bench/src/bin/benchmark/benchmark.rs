//! The seeded end-to-end benchmark of the planner, the resident service and
//! the elastic re-planning loop, driven through the public API only.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--out PATH] [--chrome-trace PATH]
//! benchmark run --out PATH [--seed N] [--seconds S] [--trace]
//! benchmark compare A.json... -- B.json...
//! ```
//!
//! The first form runs one workload in this process and prints each metric
//! by name and unit, then one JSON result line: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics of `BENCHMARK.json`
//! untraced, its per-layer metrics with `--trace 1`. `run` runs every
//! workload, each in its own child process, and writes one
//! `primepar.bench.v1` document (plus, traced, one Chrome trace beside it).
//! `compare` applies the contract's bounds to two sets of such documents.
//! See `README.md` in this directory for the workloads and metrics.

mod compare;
mod draw;
mod elastic;
mod host;
mod plan;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use primepar::obs::{parse_json, parse_trace, peak_rss_bytes, render_trace, Json};

use host::HostRef;
use report::{bench_doc, Outcome, Phase};
use spec::spec;
use trace::{LayerSamples, Tracer};

/// Every workload, in the order `run` runs them. `BENCHMARK.json` lists all
/// but `serve-zipf`, whose open-loop latencies swing too far from run to run
/// on a shared 2-vCPU host for any bound the contract allows (README.md).
pub const WORKLOADS: [&str; 4] = ["plan-t2", "plan-chain512", "serve-zipf", "replan-harsh"];

/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Command-line arguments of one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
    pub chrome_trace: Option<PathBuf>,
}

/// The traced run's in-memory state.
pub struct Traced {
    pub tracer: Tracer,
    pub samples: LayerSamples,
}

/// One closed-loop operation: its timed wall and whether its output checked
/// out.
pub struct OpResult {
    pub elapsed: Duration,
    pub ok: bool,
}

/// Runs `setup` [`SETUP_REPS`] times, recording each one's time scaled to
/// the nominal host speed (see [`host`]) into `outcome.setup_s`, and keeps
/// the last result.
pub fn timed_setup<T>(
    outcome: &mut Outcome,
    host: &mut HostRef,
    mut setup: impl FnMut() -> T,
) -> T {
    let mut last = None;
    let mut before = host.time_ms();
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        let wall = start.elapsed().as_secs_f64();
        let after = host.time_ms();
        outcome.setup_s.push(wall * host::scale(before, after));
        before = after;
    }
    last.expect("at least one set-up")
}

/// Issues ops back to back until `seconds` have passed (at least one), with
/// a pass of the host reference between every two. Each op's time is its
/// wall time scaled by the passes on either side of it; the phase's CPU
/// time, less the passes', is scaled by the same overall factor.
fn closed_phase(
    seconds: f64,
    first: u64,
    host: &mut HostRef,
    mut traced: Option<&mut Traced>,
    op: &mut impl FnMut(u64, Option<&mut Traced>) -> OpResult,
) -> Phase {
    let mut phase = Phase::default();
    let cpu_before = stats::process_cpu_seconds();
    let start = Instant::now();
    let mut before = host.time_ms();
    let (mut reference_s, mut wall_s) = (before / 1e3, 0.0);
    let mut i = first;
    loop {
        let result = op(i, traced.as_deref_mut());
        let after = host.time_ms();
        let wall = result.elapsed.as_secs_f64();
        let scaled = wall * host::scale(before, after);
        phase.latencies_ms.push(scaled * 1e3);
        phase.wall_ms.push(wall * 1e3);
        phase.timed_s += scaled;
        wall_s += wall;
        reference_s += after / 1e3;
        before = after;
        if result.ok {
            phase.ok += 1;
        } else {
            phase.failed += 1;
        }
        i += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let cpu_s = (stats::process_cpu_seconds() - cpu_before - reference_s).max(0.0);
    phase.cpu_s = cpu_s * phase.timed_s / wall_s.max(f64::MIN_POSITIVE);
    phase
}

/// The closed loop of one caller. Traced, the first third of the time runs
/// untraced and the rest traced, so the two medians give the tracing
/// overhead.
pub fn closed_loop(
    args: &Args,
    outcome: &mut Outcome,
    host: &mut HostRef,
    traced: Option<&mut Traced>,
    mut op: impl FnMut(u64, Option<&mut Traced>) -> OpResult,
) {
    match traced {
        None => outcome.untraced = closed_phase(args.seconds, 0, host, None, &mut op),
        Some(traced) => {
            outcome.untraced = closed_phase(args.seconds / 3.0, 0, host, None, &mut op);
            let next = outcome.untraced.attempted();
            outcome.traced_phase =
                closed_phase(args.seconds * 2.0 / 3.0, next, host, Some(traced), &mut op);
        }
    }
}

/// Runs one workload in this process.
fn run_workload(args: &Args) -> Outcome {
    // First, so its buffer is resident for the whole process and its share
    // of the peak RSS is exactly `host.bytes()`.
    let mut host = HostRef::new();
    let mut traced = args.trace.then(|| Traced {
        tracer: Tracer::new(Instant::now()),
        samples: LayerSamples::default(),
    });
    let mut outcome = match args.workload.as_str() {
        "plan-t2" | "plan-chain512" => plan::run(args, &mut host, traced.as_mut()),
        "serve-zipf" => serve::run(args, &mut host, traced.as_mut()),
        _ => elastic::run(args, &mut host, traced.as_mut()),
    };
    outcome.peak_rss_bytes = peak_rss_bytes().saturating_sub(host.bytes());
    outcome.workload = args.workload.clone();
    outcome.seed = args.seed;
    outcome.seconds = args.seconds;
    outcome.traced = args.trace;
    outcome.ref_loop_ms = stats::median(host.samples());
    if let Some(traced) = traced {
        outcome.layers = traced.samples.finish();
        outcome.self_time_ms = traced.tracer.self_time_ms();
        outcome.chrome = traced.tracer.chrome_events(1);
    }
    outcome
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out PATH] [--chrome-trace PATH]\n\
         \x20      benchmark run --out PATH [--seed N] [--seconds S] [--trace]\n\
         \x20      benchmark compare A.json... -- B.json...\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The single-workload form: metric lines, then the result line last.
fn workload_main(args: &Args) -> Result<bool, String> {
    let outcome = run_workload(args);
    for (m, value) in outcome.reported() {
        println!("{} {} {value} {}", args.workload, m.name, m.unit);
    }
    // Zero on a healthy run, so the contract carries it as `failed` and
    // `attempted` rather than as a metric.
    println!(
        "{} fail_frac {} fraction",
        args.workload,
        outcome.fail_frac()
    );
    for flag in &outcome.flags {
        eprintln!("{}: run flagged invalid: {flag}", args.workload);
    }
    if let Some(why) = &outcome.mismatch {
        eprintln!("{}: wrong output: {why}", args.workload);
    }
    if let Some(path) = &args.out {
        write(path, &bench_doc(vec![outcome.entry()]).render_pretty())?;
    }
    if let Some(path) = &args.chrome_trace {
        write(path, &render_trace(&outcome.chrome))?;
    }
    println!("{}", outcome.result_line().render());
    Ok(outcome.correct())
}

/// `run`: every workload in its own child process.
fn run_main(args: &Args) -> Result<bool, String> {
    let out = args.out.as_ref().ok_or("run needs --out PATH")?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut entries = Vec::new();
    let mut events = Vec::new();
    let mut all_correct = true;
    for (pid, workload) in (1u64..).zip(WORKLOADS) {
        let part = out.with_extension(format!("{workload}.part.json"));
        let trace_part = out.with_extension(format!("{workload}.part.trace.json"));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&part)
            .stdout(Stdio::piped());
        if args.trace {
            cmd.arg("--chrome-trace").arg(&trace_part);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {workload}: {e}"))?;
        for line in BufReader::new(child.stdout.take().expect("piped stdout")).lines() {
            println!("{}", line.map_err(|e| e.to_string())?);
        }
        // A child exits non-zero exactly when an output was wrong or it failed.
        all_correct &= child.wait().map_err(|e| e.to_string())?.success();
        let text = std::fs::read_to_string(&part).map_err(|e| format!("{workload}: {e}"))?;
        let _ = std::fs::remove_file(&part);
        let doc = parse_json(&text).map_err(|e| e.to_string())?;
        entries.extend(
            doc.get("workloads")
                .and_then(Json::as_array)
                .unwrap_or_default()
                .iter()
                .cloned(),
        );
        if args.trace {
            let text = std::fs::read_to_string(&trace_part).map_err(|e| e.to_string())?;
            let _ = std::fs::remove_file(&trace_part);
            let mut part_events = parse_trace(&text).map_err(|e| e.to_string())?;
            for e in &mut part_events {
                e.pid = pid;
            }
            events.extend(part_events);
        }
    }
    write(out, &bench_doc(entries).render_pretty())?;
    println!("result written to {}", out.display());
    if args.trace {
        let path = out.with_extension("trace.json");
        write(&path, &render_trace(&events))?;
        println!("chrome trace written to {}", path.display());
    }
    Ok(all_correct)
}

/// Parses the flags of the single-workload form, which needs `--workload`,
/// or of `run` (which runs every workload, and where `--trace` takes no
/// value).
fn parse_args(argv: &[String], run: bool) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: spec().run_seconds as f64,
        trace: false,
        out: None,
        chrome_trace: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" if !run => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}"));
                }
                args.workload = name.clone();
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" if run => args.trace = true,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--chrome-trace" => args.chrome_trace = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !run && args.workload.is_empty() {
        return Err("--workload NAME is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("compare") => {
            let rest = &argv[1..];
            match rest.iter().position(|a| a == "--") {
                Some(split) if split > 0 && split + 1 < rest.len() => {
                    compare::compare(&rest[..split], &rest[split + 1..]).map(|regressed| !regressed)
                }
                _ => return usage(),
            }
        }
        Some(first) => {
            let run = first == "run";
            match parse_args(&argv[usize::from(run)..], run) {
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    return usage();
                }
                Ok(args) if run => run_main(&args),
                Ok(args) => workload_main(&args),
            }
        }
        None => return usage(),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn workload_and_run_flags_parse() {
        let args = parse_args(
            &argv(&[
                "--workload",
                "serve-zipf",
                "--seed",
                "7",
                "--seconds",
                "12",
                "--trace",
                "1",
            ]),
            false,
        )
        .unwrap();
        assert_eq!(args.workload, "serve-zipf");
        assert_eq!((args.seed, args.seconds, args.trace), (7, 12.0, true));
        let run = parse_args(&argv(&["--trace", "--out", "a.json"]), true).unwrap();
        assert!(run.trace);
        assert_eq!(run.out, Some(PathBuf::from("a.json")));
        assert!(parse_args(&argv(&["--workload", "nope"]), false).is_err());
        assert!(
            parse_args(&argv(&["--seed", "7"]), false).is_err(),
            "no workload"
        );
        assert!(parse_args(&argv(&["--trace", "2"]), false).is_err());
        assert!(parse_args(&argv(&["--seconds", "0"]), false).is_err());
        assert!(parse_args(&argv(&["--seed"]), false).is_err());
        assert!(parse_args(&argv(&["run"]), false).is_err());
        // `run` always runs every workload.
        assert!(parse_args(&argv(&["--workload", "plan-t2"]), true).is_err());
    }
}
