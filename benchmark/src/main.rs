//! The repo benchmark: four workloads on two clocks — host wall time
//! of the functional CKKS path and modeled TPU/pod time — with
//! per-layer probes and a traced run. See `README.md` beside this
//! package for the metric glossary and how to read the output.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --seed <u64> [--workload <name>] [--seconds <s>] [--trace [0|1]] [--quick] [--check]
//! ```
//!
//! With `--workload` the process runs that workload and ends its
//! standard output with one JSON result line (the driver's contract).
//! Without it, every workload runs in a child process of its own, so
//! set-up time, peak memory and lazily built plans do not leak from
//! one to the next.

mod gen;
mod json;
mod metrics;
mod oracle;
mod probes;
mod report;
mod span;
mod stats;
mod sysinfo;
mod workloads;

use json::Value;
use metrics::MetricDef;
use std::process::{Command, ExitCode};
use workloads::{RunCfg, WorkloadDef, WORKLOADS};

const USAGE: &str = "usage: cross-benchmark --seed <u64> [--workload <name>] [--seconds <s>] \
[--trace [0|1]] [--quick] [--check] | --print-benchmark-json";

/// Seconds one `--quick` run measures: a smoke run.
const QUICK_SECONDS: f64 = 1.0;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    check: bool,
    print_benchmark_json: bool,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: None,
        trace: false,
        quick: false,
        check: false,
        print_benchmark_json: false,
    };
    let mut seed_given = false;
    let mut it = argv.into_iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if workloads::find(&name).is_none() {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a u64"))?;
                seed_given = true;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v:?} is not a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {v} is out of range"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // `--trace`, `--trace 0` and `--trace 1` are all accepted.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !seed_given && !args.print_benchmark_json {
        return Err("--seed is required".into());
    }
    Ok(args)
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            f64::from(report::RUN_SECONDS)
        })
    }
}

/// Runs one workload in this process and prints its result line.
fn run_one(w: &WorkloadDef, args: &Args) -> ExitCode {
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds(),
        trace: args.trace,
        quick: args.quick,
    };
    println!("{}", sysinfo::header(cfg.seed, cfg.seconds));
    println!(
        "# workload {} | {} run",
        w.name,
        if cfg.trace { "traced" } else { "untraced" }
    );
    let outcome = (w.run)(&cfg);
    for note in &outcome.notes {
        println!("# {note}");
    }
    let values = metrics::complete(metrics::defs(args.trace), &outcome.values);
    print!("{}", report::table(&values));
    println!("{}", report::result_json(outcome.tally, &values));
    if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a child process reported.
struct ChildResult {
    attempted: u64,
    failed: u64,
    values: Vec<(&'static MetricDef, f64)>,
}

/// Runs one workload in a child process and reads its result line.
fn run_child(w: &WorkloadDef, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child, so none outlives this process.
    let out = cmd
        .output()
        .map_err(|e| format!("starting {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines().filter(|l| l.starts_with('#')) {
        println!("{line}");
    }
    let last = stdout.lines().last().unwrap_or("");
    let doc = json::parse(last).map_err(|e| {
        format!(
            "{} printed no result line ({e}); exit {:?}; stderr:\n{}",
            w.name,
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let count = |key: &str| {
        doc.get(key)
            .and_then(Value::as_f64)
            .map(|x| x as u64)
            .ok_or(format!("{}: result line lacks {key}", w.name))
    };
    let values = metrics::defs(trace)
        .iter()
        .map(|d| {
            doc.get("metrics")
                .and_then(|m| m.get(d.name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .map(|v| (d, v))
                .ok_or(format!("{}: result line lacks {}", w.name, d.name))
        })
        .collect::<Result<_, _>>()?;
    Ok(ChildResult {
        attempted: count("attempted")?,
        failed: count("failed")?,
        values,
    })
}

/// The workloads a run covers.
fn selected(args: &Args) -> Vec<&'static WorkloadDef> {
    WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
        .collect()
}

/// One set of runs: every selected workload untraced, and traced too
/// when asked. Returns per workload and mode what the child reported.
fn run_set(args: &Args) -> Result<Vec<(&'static WorkloadDef, bool, ChildResult)>, String> {
    let mut results = Vec::new();
    for w in selected(args) {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            results.push((w, trace, run_child(w, args, trace)?));
        }
    }
    Ok(results)
}

/// Prints one table per mode: metrics down, workloads across.
fn print_set(results: &[(&'static WorkloadDef, bool, ChildResult)]) {
    for trace in [false, true] {
        let cols: Vec<_> = results.iter().filter(|(_, t, _)| *t == trace).collect();
        if cols.is_empty() {
            continue;
        }
        println!(
            "\n== {} ==",
            if trace {
                "per-layer metrics (traced run)"
            } else {
                "end-to-end metrics (untraced run)"
            }
        );
        print!("{:<28} {:<6} {:<8}", "metric", "unit", "clock");
        for (w, _, _) in &cols {
            print!(" {:>15}", w.name);
        }
        println!();
        for (i, d) in metrics::defs(trace).iter().enumerate() {
            print!("{:<28} {:<6} {:<8}", d.name, d.unit, d.clock.label());
            for (_, _, r) in &cols {
                print!(" {:>15.6}", r.values[i].1);
            }
            println!();
        }
        print!("{:<44}", "operations failed / attempted");
        for (_, _, r) in &cols {
            print!(" {:>15}", format!("{} / {}", r.failed, r.attempted));
        }
        println!();
    }
}

/// Every workload in a child of its own; non-zero when any operation
/// failed its oracle.
fn suite(args: &Args) -> ExitCode {
    match run_set(args) {
        Ok(results) => {
            print_set(&results);
            if results.iter().all(|(_, _, r)| r.failed == 0) {
                ExitCode::SUCCESS
            } else {
                eprintln!("an output failed its oracle");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// `--check`: the quick set twice on one seed. Fails unless every
/// exact metric repeats bit for bit and every bounded host metric's
/// two values agree within its bound; prints the spread of each.
fn check(args: &Args) -> ExitCode {
    let args = Args {
        quick: true,
        trace: true,
        ..args.clone()
    };
    let (a, b) = match (run_set(&args), run_set(&args)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "\n{:<28} {:<14} {:>16} {:>16} {:>9}  verdict",
        "metric", "workload", "first", "second", "spread"
    );
    let mut ok = true;
    for ((w, _, ra), (_, _, rb)) in a.iter().zip(&b) {
        ok &= ra.failed == 0 && rb.failed == 0;
        for ((d, x), (_, y)) in ra.values.iter().zip(&rb.values) {
            let spread = if x == y {
                0.0
            } else {
                (x - y).abs() / ((x.abs() + y.abs()) / 2.0)
            };
            let verdict = match (d.exact, d.bound) {
                (true, _) if x.to_bits() == y.to_bits() => "exact",
                (true, _) => {
                    ok = false;
                    "NOT EXACT"
                }
                (false, Some(bound)) if spread <= bound => "within bound",
                (false, Some(_)) => {
                    ok = false;
                    "BEYOND BOUND"
                }
                (false, None) => "host, no bound",
            };
            println!(
                "{:<28} {:<14} {:>16.6} {:>16.6} {:>8.2}%  {verdict}",
                d.name,
                w.name,
                x,
                y,
                spread * 100.0
            );
        }
    }
    if ok {
        println!("\ncheck passed: exact metrics repeat, bounded metrics agree within their bounds");
        ExitCode::SUCCESS
    } else {
        eprintln!("\ncheck FAILED");
        ExitCode::FAILURE
    }
}

/// glibc gives every thread a malloc arena of its own, and how much
/// of each stays resident depends on thread timing: the high-water
/// mark of `serve_tenants` then varies by a tenth from run to run of
/// one binary, while its throughput does not change (README, "Peak
/// memory"). One arena makes `peak_rss_mb` repeat within a percent.
const ALLOCATOR_ENV: (&str, &str) = ("MALLOC_ARENA_MAX", "1");

fn main() -> ExitCode {
    if std::env::var_os(ALLOCATOR_ENV.0).is_none() {
        use std::os::unix::process::CommandExt;
        // Replaces this process, so there is no child to wait for.
        let err = match std::env::current_exe() {
            Ok(exe) => Command::new(exe)
                .args(std::env::args_os().skip(1))
                .env(ALLOCATOR_ENV.0, ALLOCATOR_ENV.1)
                .exec(),
            Err(e) => e,
        };
        eprintln!(
            "restarting with {}={}: {err}",
            ALLOCATOR_ENV.0, ALLOCATOR_ENV.1
        );
        return ExitCode::FAILURE;
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", report::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.check {
        return check(&args);
    }
    match &args.workload {
        Some(name) => run_one(
            workloads::find(name).expect("validated by parse_args"),
            &args,
        ),
        None => suite(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&[
            "--workload",
            "model_sweep",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("model_sweep"));
        assert_eq!((a.seed, a.seconds(), a.trace), (7, 20.0, false));
        assert!(parse(&["--seed", "7", "--trace", "1"]).unwrap().trace);
        assert!(parse(&["--seed", "7", "--trace"]).unwrap().trace);
        assert!(parse(&["--trace", "--seed", "7"]).unwrap().trace);
        assert_eq!(
            parse(&["--seed", "7", "--quick"]).unwrap().seconds(),
            QUICK_SECONDS
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--workload", "nope", "--seed", "1"],
            &["--seed", "1", "--seconds", "0"],
            &["--seed", "1", "--bogus"],
            &["--workload", "eager_chain"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }
}
