//! Command line of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dense64|stall16|noc-synthetic --seed N --seconds S --trace 0|1 [--workers N]
//! ```
//!
//! Prints the run environment, every metric by name with its unit, the
//! failed share and a digest of all simulated results, and, as the last
//! line, one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! A traced run also writes its spans to `perfbench/out/`.

use loco_perfbench::metrics::{result_line, unit_of, END_TO_END};
use loco_perfbench::{env, run, RunConfig, Workload};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: loco-perfbench --workload dense64|stall16|noc-synthetic --seed N \
                     --seconds S --trace 0|1 [--workers N]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    workers: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut workers) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, not '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    format!(
                        "unknown workload '{value}' (known: {})",
                        Workload::NAMES.join(", ")
                    )
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--workers" => workers = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        workers,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = env::nproc();
    let workers = match args.workers {
        Some(w) if w == 0 || w > nproc => {
            eprintln!(
                "error: --workers {w} is outside 1..={nproc} (the hardware threads available)"
            );
            return ExitCode::from(2);
        }
        Some(w) => w,
        None => args.workload.default_workers().min(nproc),
    };
    let name = args.workload.name();
    let env_json = env::env_json(
        name,
        args.seed,
        args.seconds,
        workers,
        args.trace,
        &args.workload.params_json(),
    );
    println!("env {env_json}");

    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        workers,
        trace: args.trace,
    };
    let mut outcome = run(&args.workload, &cfg);
    for problem in &outcome.problems {
        println!("problem {problem}");
    }
    for name in outcome.metrics.names() {
        let value = outcome.metrics.get(name).expect("listed name");
        println!(
            "metric {name} = {value} {}",
            unit_of(name).expect("known metric")
        );
    }
    println!(
        "metric failed_share = {} share ({} of {} operations failed)",
        outcome.failed_share(),
        outcome.failed,
        outcome.attempted
    );
    if !outcome.walls.is_empty() {
        let walls: Vec<String> = outcome.walls.iter().map(|w| format!("{w:.4}")).collect();
        println!("samples wall_s [{}] s", walls.join(", "));
    }
    println!("digest {name} seed={} {:016x}", args.seed, outcome.digest);

    if args.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{name}-seed{}.jsonl", args.seed));
        match outcome.tracer.write(&path, &env_json) {
            Ok(()) => println!("spans {}", path.display()),
            Err(e) => outcome.fail(0, format!("cannot write {}: {e}", path.display())),
        }
    }
    let complete = if args.trace {
        outcome.metrics.names().count() == loco_perfbench::metrics::PER_LAYER.len()
    } else {
        END_TO_END
            .iter()
            .all(|&(n, _)| outcome.metrics.get(n).is_some())
    };
    let correct =
        outcome.failed == 0 && outcome.attempted > 0 && complete && outcome.problems.is_empty();
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    ExitCode::SUCCESS
}
