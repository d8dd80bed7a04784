//! `rdabench` — the repository's one benchmark.
//!
//! ```text
//! rdabench run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]
//! rdabench check A.json B.json
//! rdabench repeat [--seed N] [--seconds S] [--out DIR]
//! rdabench manifest
//! ```
//!
//! See `README.md` beside this package for the metric glossary, the
//! workloads and why they were chosen.

mod affinity;
mod check;
mod data;
mod harness;
mod json;
mod layers;
mod rng;
mod stats;
mod trace;
mod workloads;

use harness::{Cfg, RunResult};
use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Seconds of measurement the op counts are sized for when `--seconds`
/// is not given; `BENCHMARK.json` passes the same figure.
pub const RUN_SECONDS: u64 = 10;
const SMOKE_SECONDS: f64 = 0.1;

/// `BENCHMARK.json`, from the tables the harness emits from.
pub fn manifest() -> Json {
    let metric = |name: &str, unit: &str, better: &str| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better)),
        ]
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "rdabench/Cargo.toml",
                    "--",
                    "run",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("rdabench")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                workloads::ALL
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                layers::END_TO_END
                    .iter()
                    .map(|m| {
                        let mut fields = metric(m.name, m.unit, m.better);
                        fields.push(("bound", Json::Num(m.bound)));
                        Json::obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                layers::PER_LAYER
                    .iter()
                    .map(|m| Json::obj(metric(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    /// `None`: both an untraced and a traced run.
    trace: Option<bool>,
    smoke: bool,
    out: PathBuf,
    files: Vec<String>,
}

fn parse_args(mut argv: std::iter::Peekable<impl Iterator<Item = String>>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        out: PathBuf::from("rdabench/out"),
        files: Vec::new(),
    };
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare `--trace`.
                args.trace = Some(match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                });
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value("a directory")?),
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => args.files.push(other.to_string()),
        }
    }
    if let Some(w) = &args.workload {
        if !workloads::ALL.iter().any(|(name, _)| name == w) {
            let known: Vec<&str> = workloads::ALL.iter().map(|(n, _)| *n).collect();
            return Err(format!("unknown workload {w}; known: {}", known.join(", ")));
        }
    }
    Ok(args)
}

fn run_one(workload: &str, cfg: &Cfg) -> RunResult {
    use workloads::{cold_query, direct_access, served_churn, served_pages};
    match workload {
        "direct_access" => harness::run::<direct_access::DirectAccess>(cfg),
        "served_pages" => harness::run::<served_pages::ServedPages>(cfg),
        "served_churn" => harness::run::<served_churn::ServedChurn>(cfg),
        "cold_query" => harness::run::<cold_query::ColdQuery>(cfg),
        other => unreachable!("parse_args admitted workload {other}"),
    }
}

fn print_result(r: &RunResult) {
    println!(
        "== {} (seed {}, {} s, {}{}) ==",
        r.workload,
        r.seed,
        r.seconds,
        if r.traced { "traced" } else { "untraced" },
        if r.smoke {
            ", smoke: numbers not for claims"
        } else {
            ""
        },
    );
    println!(
        "   attempted {}  failed {}  answer_checksum {:016x}  host parallelism {}  calib {:.2} ns",
        r.attempted, r.failed, r.checksum, r.host_parallelism, r.calib_ns
    );
    for f in &r.failures {
        println!("   FAILED: {f}");
    }
    let section = |title: &str, ms: &[harness::Metric]| {
        if !ms.is_empty() {
            println!("   {title}");
        }
        for m in ms {
            println!(
                "     {:<42} {:>16.4} {:<6} spread {:>5.1}%  n={}",
                m.name,
                m.value,
                m.unit,
                m.spread * 100.0,
                m.samples
            );
        }
    };
    if !r.traced {
        section("end-to-end (quiet figures)", &r.end_to_end);
        section(
            "per op kind (quiet figure, then p50 and p99 over single ops)",
            &r.detail,
        );
    }
    section("per layer (traced rounds)", &r.per_layer);
    if !r.counts.is_empty() {
        println!("   counts");
        for (k, v) in &r.counts {
            println!("     {k:<42} {v:>16}");
        }
    }
}

/// Write a result set: every run of one invocation.
pub fn write_results(path: &Path, runs: &[RunResult]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let body = Json::obj([
        ("schema", Json::str("rdabench/v1")),
        (
            "runs",
            Json::Arr(runs.iter().map(RunResult::to_json).collect()),
        ),
    ]);
    std::fs::write(path, body.to_pretty())
}

fn cmd_run(args: &Args) -> ExitCode {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::ALL.iter().map(|(n, _)| *n).collect(),
    };
    let modes: &[bool] = match args.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        RUN_SECONDS as f64
    });
    let mut runs = Vec::new();
    for name in names {
        for &traced in modes {
            let cfg = Cfg {
                seed: args.seed,
                seconds,
                traced,
                smoke: args.smoke,
                out: args.out.clone(),
            };
            let r = run_one(name, &cfg);
            print_result(&r);
            runs.push(r);
        }
    }
    let file = args.out.join("result.json");
    if let Err(e) = write_results(&file, &runs) {
        eprintln!("rdabench: cannot write {}: {e}", file.display());
        return ExitCode::from(2);
    }
    println!("wrote {}", file.display());
    // The driver reads the last line of standard output: the one run it
    // asked for, or the whole invocation folded together.
    let ok = runs.iter().all(RunResult::correct);
    let line = match &runs[..] {
        [only] => only.driver_line(),
        all => Json::obj([
            ("correct", Json::Bool(ok)),
            (
                "attempted",
                Json::Num(all.iter().map(|r| r.attempted).sum::<u64>() as f64),
            ),
            (
                "failed",
                Json::Num(all.iter().map(|r| r.failed).sum::<u64>() as f64),
            ),
            ("metrics", Json::obj::<&str>([])),
        ])
        .to_line(),
    };
    println!("{line}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    // Every `Engine` constructor reads this variable and would shard
    // the structures under measurement.
    if std::env::var_os("RDA_FORCE_SHARDS").is_some() {
        eprintln!(
            "rdabench: RDA_FORCE_SHARDS is set; unset it, the benchmark measures unsharded engines"
        );
        return ExitCode::from(2);
    }
    let mut argv = std::env::args().skip(1).peekable();
    let command = argv.next().unwrap_or_default();
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rdabench: {e}");
            return ExitCode::from(2);
        }
    };
    harness::OUT_DIR
        .set(args.out.clone())
        .expect("the output directory is set once");
    match command.as_str() {
        "run" => cmd_run(&args),
        "check" => check::cmd_check(&args.files),
        "repeat" => check::cmd_repeat(
            args.seed,
            args.seconds.unwrap_or(RUN_SECONDS as f64),
            &args.out,
        ),
        "manifest" => {
            print!("{}", manifest().to_pretty());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: rdabench run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]\n       rdabench check A.json B.json\n       rdabench repeat [--seed N] [--seconds S] [--out DIR]\n       rdabench manifest"
            );
            ExitCode::from(2)
        }
    }
}
