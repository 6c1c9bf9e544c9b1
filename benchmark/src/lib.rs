//! The repository benchmark: five workloads that follow a graph from a text
//! edge list to a served query. See `README.md` beside this package.
//!
//! ```text
//! benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run
//! benchmark/run.sh [--seed N] [--trace 1] [--quick]                all five
//! benchmark/run.sh --selfcheck                                     repeatability
//! ```
//!
//! A single run prints one line per metric (`workload metric value unit`)
//! and, last, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0` (the default), the
//! per-layer metrics with `--trace 1`. It exits non-zero when a check or an
//! operation failed.

mod adapter;
mod client;
pub mod json;
mod probes;
mod run;
mod selfcheck;
mod serve;
pub mod spec;
pub mod stats;
mod trace;
mod train;
mod verify;

use json::Access;
use run::{Args, Run};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Results, traces and the per-run scratch directories live here
/// (git-ignored), relative to the repository root the benchmark runs from.
const OUT_DIR: &str = "benchmark/out";

/// Parsed command line.
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    selfcheck: bool,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        selfcheck: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => cli.workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                cli.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer")?
            }
            "--seconds" => {
                let s: f64 = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|_| "--seconds expects a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value(&mut i, "--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_string()),
                }
            }
            "--quick" => cli.quick = true,
            "--selfcheck" => cli.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if let Some(w) = &cli.workload {
        if !spec::WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?}; known: {}",
                spec::WORKLOADS.join(", ")
            ));
        }
    }
    Ok(cli)
}

/// `run_seconds` of `BENCHMARK.json`: the window when `--seconds` is absent.
fn declared_seconds() -> Result<f64, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    json::parse(&text)?
        .get("run_seconds")
        .and_then(json::Access::as_f64)
        .ok_or_else(|| "BENCHMARK.json has no run_seconds".to_string())
}

/// The command line: parse, dispatch, and map the outcome to an exit code
/// (0 every check passed, 1 a check or operation failed, 2 could not run).
pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_cli(&argv).and_then(|cli| {
        let seconds = match (cli.seconds, cli.quick) {
            (Some(s), _) => s,
            (None, true) => 0.5,
            (None, false) => declared_seconds()?,
        };
        if cli.selfcheck {
            return selfcheck::run(seconds, cli.quick);
        }
        match cli.workload {
            Some(workload) => run_one(Args {
                workload,
                seed: cli.seed,
                seconds,
                trace: cli.trace,
                quick: cli.quick,
            }),
            None => run_all(&argv),
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Every workload, each in a fresh process so that its peak RSS is its own.
fn run_all(argv: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for workload in spec::WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(argv)
            .status()
            .map_err(|e| format!("starting {workload}: {e}"))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

/// One workload in this process. Returns whether every check passed.
fn run_one(args: Args) -> Result<bool, String> {
    let started = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let out_dir = PathBuf::from(OUT_DIR);
    let mut run =
        Run::new(args.clone(), &out_dir).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;

    // A panic inside the program is a failed run, not a crashed benchmark:
    // the scratch directory is still removed and the exit code is non-zero.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if args.workload.starts_with("train_") {
            train::run(&mut run)
        } else {
            serve::run(&mut run)
        }
    }));
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(format!("{}: {e}", args.workload)),
        Err(_) => return Err(format!("{}: the program panicked", args.workload)),
    }

    let run_s = run.tracer.elapsed_s();
    if args.trace {
        run.put("obs.top_level_coverage", run.tracer.top_level_s() / run_s);
        run.put("bench.run_s", run_s);
    }
    for note in &run.notes {
        eprintln!("# {}: {note}", args.workload);
    }

    let declared: &[(&str, &str)] = if args.trace {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    let mut metrics = Vec::with_capacity(declared.len());
    let mut all_finite = true;
    for &(name, unit) in declared {
        let value = match run.value(name) {
            Some(v) => v,
            // a layer that did no work on this workload
            None if args.trace => 0.0,
            None => {
                return Err(format!(
                    "{}: end-to-end metric {name} was not measured",
                    args.workload
                ))
            }
        };
        all_finite &= value.is_finite();
        println!("{} {name} {} {unit}", args.workload, json::number(value));
        metrics.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json::quote(name),
            json::number(value),
            json::quote(unit)
        ));
    }
    let correct = run.failed == 0 && all_finite;
    let result_line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.attempted.max(1),
        run.failed,
        metrics.join(",")
    );

    write_results(&run, &out_dir, started, &result_line)?;
    println!("{result_line}");
    Ok(correct)
}

/// `out/<workload>.<traced|untraced>.json` (result, provenance, and for a
/// traced run the ledger) and `out/<workload>.trace.json` (chrome trace).
fn write_results(run: &Run, out_dir: &Path, started: u64, result_line: &str) -> Result<(), String> {
    let args = &run.args;
    let ledger: Vec<String> = run
        .tracer
        .ledger()
        .iter()
        .map(|r| {
            format!(
                "{{\"span\":{},\"count\":{},\"total_s\":{},\"self_s\":{}}}",
                json::quote(r.name),
                r.count,
                json::number(r.total_s),
                json::number(r.self_s)
            )
        })
        .collect();
    let document = format!(
        "{{\n\"workload\":{},\n\"provenance\":{},\n\"wall_s\":{},\n\"result\":{result_line},\n\"ledger\":[\n{}\n]\n}}\n",
        json::quote(&args.workload),
        provenance(args, started),
        json::number(run.tracer.elapsed_s()),
        ledger.join(",\n")
    );
    let kind = if args.trace { "traced" } else { "untraced" };
    let path = out_dir.join(format!("{}.{kind}.json", args.workload));
    std::fs::write(&path, document).map_err(|e| format!("writing {}: {e}", path.display()))?;
    if args.trace {
        let path = out_dir.join(format!("{}.trace.json", args.workload));
        std::fs::write(&path, run.tracer.chrome_trace(&args.workload))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Where a result came from: revision, compiler, host, seed, sizes.
fn provenance(args: &Args, started: u64) -> String {
    let (constants, threads) = if args.workload.starts_with("train_") {
        (
            format!("{:?}", train::shape(&args.workload, args.quick)),
            adapter::host_cores(),
        )
    } else {
        (serve::constants(args.quick), serve::workers())
    };
    format!(
        "{{\"git_rev\":{},\"rustc\":{},\"host_cores\":{},\"threads\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"quick\":{},\"simd_backend\":{},\"started_unix_s\":{started},\"constants\":{}}}",
        json::quote(&command_line("git", &["rev-parse", "HEAD"])),
        json::quote(&command_line("rustc", &["-V"])),
        adapter::host_cores(),
        threads,
        args.seed,
        json::number(args.seconds),
        args.trace,
        args.quick,
        json::quote(adapter::simd_backend()),
        json::quote(&constants)
    )
}
