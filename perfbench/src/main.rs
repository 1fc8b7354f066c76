//! Host wall-clock benchmark of the blockreorg stack.
//!
//! ```text
//! perfbench --workload <serve_hot|serve_cold|chain_batch> --seed <n>
//!           --seconds <s> --trace <0|1> [--tiny] [--inject-wrong]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` replays the
//! workload's request stream layer by layer and reports per-layer metrics.
//! Every output is checked; the last stdout line is the JSON result, and
//! the exit code is 0 only when every check passed. `--tiny` swaps in
//! small inputs and `--inject-wrong` corrupts one expected result (both
//! for the benchmark's own tests). See `perfbench/README.md`.

mod chain;
mod layers;
mod replay;
mod serve;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use br_sparse::par;

use crate::stats::Metrics;
use crate::workload::{Kind, Workload, CHAIN_THREADS, SERVE_THREADS};

/// What one run measured and checked.
pub struct RunOutput {
    /// Requests (chains) attempted.
    pub attempted: u64,
    /// Requests that failed a check, plus failed aggregate checks.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// The metrics to report.
    pub metrics: Metrics,
    /// Extra facts about the run, as a JSON object.
    pub detail: String,
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    inject: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut tiny = false;
    let mut inject = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds")?;
                if s.is_nan() || s <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--tiny" => tiny = true,
            "--inject-wrong" => inject = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        tiny,
        inject,
    })
}

/// Where the traced run writes its spans: next to the binary, inside the
/// build directory.
fn spans_path(args: &Args, name: &str) -> Option<PathBuf> {
    let dir = std::env::current_exe().ok()?.parent()?.to_path_buf();
    Some(dir.join(format!("spans-{name}-{}.jsonl", args.seed)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let name = args.kind.name();
    // Pin host threads so workers × threads fits two cores.
    par::set_global_threads(match args.kind {
        Kind::ChainBatch => CHAIN_THREADS,
        _ => SERVE_THREADS,
    });
    let w = Workload::new(args.kind, args.seed, args.tiny);
    let outcome = match (args.kind, args.trace) {
        (Kind::ChainBatch, false) => chain::run(&w, args.seconds, args.inject),
        (Kind::ChainBatch, true) => chain::trace(&w, args.seconds, args.inject).map(|(o, t)| {
            write_spans(&args, name, &t);
            o
        }),
        (_, false) => serve::run(&w, args.seconds, args.inject),
        (_, true) => serve::trace(&w, args.seconds, args.inject).map(|(o, t)| {
            write_spans(&args, name, &t);
            o
        }),
    };
    let out = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::from(1);
        }
    };
    for p in &out.problems {
        eprintln!("perfbench: {name}: CHECK FAILED: {p}");
    }
    let bad_values = out.metrics.non_finite();
    for m in &bad_values {
        eprintln!("perfbench: {name}: metric {m} is not a finite number");
    }
    let correct = out.failed == 0 && out.problems.is_empty() && bad_values.is_empty();
    println!(
        "{{\"detail\": {{\"workload\": \"{name}\", \"seed\": {}, \"trace\": {}, \"cores\": {}, \"run\": {}}}}}",
        args.seed,
        args.trace,
        par::available_threads(),
        out.detail
    );
    // A traced run whose replay does not match the program refuses to
    // report per-layer numbers: they would describe a different program.
    let metrics = if args.trace && !correct {
        Metrics::default()
    } else {
        out.metrics
    };
    println!(
        "{}",
        stats::result_line(correct, out.attempted.max(1), out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn write_spans(args: &Args, name: &str, t: &trace::Tracer) {
    if let Some(path) = spans_path(args, name) {
        if let Err(e) = t.write_jsonl(&path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
    }
}
