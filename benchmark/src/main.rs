//! `syno-benchmark`: the repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! syno-benchmark [--seed N] [--runs N] [--seconds N] [--workload NAME]... [--out FILE] [--no-trace]
//! syno-benchmark --workload NAME --seed N --seconds N --trace 0|1
//! syno-benchmark compare PARENT.json CHANGE.json
//! ```
//!
//! The first form runs every workload, each pass in a child process of its
//! own, prints every metric and writes the result file. The second is that
//! child — and the command the benchmark contract runs. All three expect
//! the repository root as working directory (`run.sh` sees to it).

mod child;
mod compare;
mod host;
mod json;
mod layers;
mod metrics;
mod seed;
mod session;
mod specs;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// The benchmark's own directory, relative to the repository root.
pub fn package_dir() -> PathBuf {
    PathBuf::from("benchmark")
}

/// Where traces, results and scratch repositories go (git-ignored).
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    runs: u64,
    trace: Option<bool>,
    no_trace: bool,
    out: PathBuf,
    positional: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: child::DEFAULT_SEED,
        seconds: 36,
        runs: 1,
        trace: None,
        no_trace: false,
        out: out_dir().join("result.json"),
        positional: Vec::new(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag} needs a value"));
        let number = |flag: &str, text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: '{text}' is not a whole number"))
        };
        match arg.as_str() {
            "--workload" => args.workloads.push(value("--workload")?),
            "--seed" => args.seed = number("--seed", value("--seed")?)?,
            "--seconds" => args.seconds = number("--seconds", value("--seconds")?)?.max(1),
            "--runs" => args.runs = number("--runs", value("--runs")?)?.max(1),
            "--trace" => args.trace = Some(number("--trace", value("--trace")?)? != 0),
            "--no-trace" => args.no_trace = true,
            "--out" => args.out = PathBuf::from(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

fn read_json(path: &std::path::Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload, one pass, in this process. Prints the result object as
/// the last line of standard output.
fn run_child(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<bool, String> {
    child::install_panic_hook();
    std::fs::create_dir_all(out_dir())
        .map_err(|e| format!("create {}: {e}", out_dir().display()))?;
    let outcome = std::panic::catch_unwind(|| {
        if traced {
            child::traced(workload, seed)
        } else {
            child::timed(workload, seed, seconds)
        }
    })
    .map_err(|_| format!("panic: {}", child::last_panic()))??;
    for (metric, value) in &outcome.metrics {
        println!(
            "metric {workload} {} = {value} {}",
            metric.name, metric.unit
        );
    }
    for (name, ok) in &outcome.checks {
        println!("check.{name}: {}", if *ok { "ok" } else { "FAIL" });
    }
    println!("{}", outcome.to_json().render());
    Ok(outcome.correct() && outcome.failed == 0)
}

/// Spawns this executable for one pass, echoes its output and returns the
/// result object from its last line.
fn spawn_pass(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{workload}: the pass printed nothing"))?;
    let result =
        Json::parse(last).map_err(|e| format!("{workload}: last line is not a result: {e}"))?;
    Ok((result, output.status.success()))
}

/// Every selected workload, `runs` times (seeds `seed`, `seed+1`, …), both
/// passes; writes the result file and prints the summary.
fn run_all(args: &Args) -> Result<bool, String> {
    let selected: Vec<&str> = if args.workloads.is_empty() {
        workloads::NAMES.to_vec()
    } else {
        args.workloads.iter().map(String::as_str).collect()
    };
    let mut ok = true;
    let mut report: Vec<(String, Json)> = Vec::new();
    for workload in selected {
        // metric → (unit, one value per run), in print order.
        let mut tables: [Vec<(String, String, Vec<f64>)>; 2] = [Vec::new(), Vec::new()];
        let (mut attempted, mut failed) = (Vec::new(), Vec::new());
        for run in 0..args.runs {
            for traced in [false, true] {
                if traced && args.no_trace {
                    continue;
                }
                let (result, clean) = spawn_pass(workload, args.seed + run, args.seconds, traced)?;
                ok &= clean && result.get("correct") == Some(&Json::Bool(true));
                for (name, entry) in result.get("metrics").map(Json::fields).unwrap_or_default() {
                    let value = entry
                        .get("value")
                        .and_then(Json::as_f64)
                        .unwrap_or(f64::NAN);
                    let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
                    let table = &mut tables[usize::from(traced)];
                    match table.iter_mut().find(|(n, ..)| n == name) {
                        Some(row) => row.2.push(value),
                        None => table.push((name.clone(), unit.to_owned(), vec![value])),
                    }
                }
                if !traced {
                    attempted.push(result.get("attempted").cloned().unwrap_or(Json::Null));
                    failed.push(result.get("failed").cloned().unwrap_or(Json::Null));
                }
            }
        }
        let section = |table: &[(String, String, Vec<f64>)]| {
            Json::Obj(
                table
                    .iter()
                    .map(|(name, unit, values)| {
                        let (q1, q3) = stats::quartiles(values);
                        let fields = [
                            ("unit", Json::str(unit.as_str())),
                            ("median", Json::Num(stats::median(values))),
                            ("q1", Json::Num(q1)),
                            ("q3", Json::Num(q3)),
                            ("spread", Json::Num(stats::spread(values))),
                            (
                                "values",
                                Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                            ),
                        ];
                        (name.clone(), Json::obj(fields))
                    })
                    .collect(),
            )
        };
        report.push((
            workload.to_owned(),
            Json::obj([
                ("end_to_end", section(&tables[0])),
                ("per_layer", section(&tables[1])),
                ("attempted", Json::Arr(attempted)),
                ("failed", Json::Arr(failed)),
            ]),
        ));
    }

    println!(
        "\nsummary (median over {} run(s); spread = (q3 - q1) / median)",
        args.runs
    );
    for (workload, sections) in &report {
        for section in ["end_to_end", "per_layer"] {
            for (name, m) in sections.get(section).map(Json::fields).unwrap_or_default() {
                let number = |key: &str| m.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
                println!(
                    "{workload:<20} {name:<38} {:>14.6} {:<8} spread {:.4}",
                    number("median"),
                    m.get("unit").and_then(Json::as_str).unwrap_or(""),
                    number("spread"),
                );
            }
        }
    }

    let document = Json::obj([
        ("host", host::descriptor(args.seed)),
        ("seed", Json::Num(args.seed as f64)),
        ("runs", Json::Num(args.runs as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("workloads", Json::Obj(report)),
    ]);
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&args.out, document.pretty())
        .map_err(|e| format!("write {}: {e}", args.out.display()))?;
    println!("\nresult written to {}", args.out.display());
    Ok(ok)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if args.positional.first().map(String::as_str) == Some("compare") {
        let [_, parent, change] = args.positional.as_slice() else {
            return Err("usage: compare PARENT.json CHANGE.json".into());
        };
        let contract = read_json("BENCHMARK.json".as_ref())?;
        return compare::run(
            &read_json(parent.as_ref())?,
            &read_json(change.as_ref())?,
            &contract,
        );
    }
    if let Some(unexpected) = args.positional.first() {
        return Err(format!("unexpected argument '{unexpected}'"));
    }
    if !package_dir().join("Cargo.toml").is_file() {
        return Err("run me from the repository root, as benchmark/run.sh does".into());
    }
    match (args.trace, args.workloads.as_slice()) {
        (Some(traced), [workload]) => run_child(workload, args.seed, args.seconds, traced),
        (Some(_), _) => Err("--trace needs exactly one --workload".into()),
        (None, _) => run_all(&args),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("syno-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
