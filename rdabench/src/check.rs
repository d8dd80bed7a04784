//! `check`: compare two result sets metric by metric against the bounds
//! of `BENCHMARK.json`. `repeat`: produce two sets from the same code,
//! back to back, and hold the benchmark to its own bounds.

use crate::harness::RunResult;
use crate::json::Json;
use crate::layers::END_TO_END;
use crate::{stats, workloads};
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

/// Two hosts (or one host on two days) are comparable when the fixed
/// calibration kernel ran within this share of each other.
const CALIB_TOLERANCE: f64 = 0.10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Better,
    Regression,
    /// The spread between runs is wider than the bound: the data cannot
    /// say "unchanged".
    Unresolved,
    /// The calibration kernel says the two sets ran on hosts (or in
    /// hours) of different speed: equally unresolved, for another reason.
    OtherHost,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Better => "better",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::OtherHost => "unresolved: host differs",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub bound: f64,
    pub a: (f64, f64),
    pub b: (f64, f64),
    /// How much worse B's median is than A's, as a share of A's.
    pub worse: f64,
    pub verdict: Verdict,
}

pub struct Report {
    pub rows: Vec<Row>,
    /// Checksums or exact counts that differ between runs of one seed,
    /// and runs that failed their own correctness checks.
    pub mismatches: Vec<String>,
}

impl Report {
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty() && self.rows.iter().all(|r| r.verdict != Verdict::Regression)
    }
}

/// Median over a set's runs, and the spread between them to hold
/// against the bound. A set of one run has no spread to show (a run's
/// own `spread` says how unquiet the host was, not how far two runs
/// land apart), so it reads 0 and the verdict rests on the bound alone:
/// compare sets of several runs.
fn summarize(runs: &[&RunResult], metric: &str) -> Option<(f64, f64, Vec<f64>)> {
    let values: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.end_to_end.iter().find(|m| m.name == metric))
        .map(|m| m.value)
        .collect();
    let median = stats::median(&values)?;
    // Quartiles of two or three values are extrapolations; below four
    // runs the spread is simply the whole range.
    let spread = if values.len() >= 4 {
        stats::iqr_share(&values)
    } else if median != 0.0 {
        let (lo, hi) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        (hi - lo) / median.abs()
    } else {
        0.0
    };
    Some((median, spread, values))
}

pub fn judge(
    better: &str,
    bound: f64,
    a: &[f64],
    b: &[f64],
    spread: f64,
    hosts_differ: bool,
) -> (f64, Verdict) {
    let (ma, mb) = (
        stats::median(a).unwrap_or(0.0),
        stats::median(b).unwrap_or(0.0),
    );
    let lower = better == "lower";
    let worse = if ma == 0.0 {
        0.0
    } else if lower {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    let b_beats = |x: f64, y: f64| if lower { y < x } else { y > x };
    let every_b_better = a.iter().all(|&x| b.iter().all(|&y| b_beats(x, y)));
    let every_b_worse = a.iter().all(|&x| b.iter().all(|&y| b_beats(y, x)));
    let verdict = if hosts_differ {
        Verdict::OtherHost
    } else if spread > bound {
        // Too noisy to call unchanged; a clean separation still counts.
        if every_b_better && worse < -bound {
            Verdict::Better
        } else if every_b_worse && worse > bound {
            Verdict::Regression
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regression
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    };
    (worse, verdict)
}

fn pick<'a>(set: &'a [RunResult], workload: &str, traced: bool) -> Vec<&'a RunResult> {
    set.iter()
        .filter(|r| r.workload == workload && r.traced == traced)
        .collect()
}

pub fn compare(a: &[RunResult], b: &[RunResult]) -> Report {
    let mut rows = Vec::new();
    let mut mismatches = Vec::new();
    for r in a.iter().chain(b) {
        if !r.correct() {
            mismatches.push(format!(
                "{} seed {}: {} of {} ops failed ({})",
                r.workload,
                r.seed,
                r.failed,
                r.attempted,
                r.failures.first().map_or("", String::as_str)
            ));
        }
    }
    for (workload, _) in workloads::ALL {
        // Same inputs must give the same answers and the same counts.
        for ra in a.iter().filter(|r| r.workload == *workload) {
            for rb in b.iter().filter(|r| {
                r.workload == *workload
                    && (r.seed, r.traced, r.smoke) == (ra.seed, ra.traced, ra.smoke)
                    && r.seconds == ra.seconds
            }) {
                let tag = format!(
                    "{workload} seed {} ({})",
                    ra.seed,
                    if ra.traced { "traced" } else { "untraced" }
                );
                if ra.checksum != rb.checksum {
                    mismatches.push(format!(
                        "{tag}: answer_checksum {:016x} vs {:016x}",
                        ra.checksum, rb.checksum
                    ));
                }
                for (name, va) in &ra.counts {
                    let vb = rb.counts.get(name).copied();
                    if vb != Some(*va) {
                        mismatches.push(format!("{tag}: count {name} is {va} vs {vb:?}"));
                    }
                }
            }
        }
        let (ua, ub) = (pick(a, workload, false), pick(b, workload, false));
        if ua.is_empty() || ub.is_empty() {
            continue;
        }
        let calib = |rs: &[&RunResult]| {
            stats::median(&rs.iter().map(|r| r.calib_ns).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        let (ca, cb) = (calib(&ua), calib(&ub));
        let hosts_differ = ca > 0.0 && ((cb - ca) / ca).abs() > CALIB_TOLERANCE;
        for m in END_TO_END {
            let (Some((ma, sa, va)), Some((mb, sb, vb))) =
                (summarize(&ua, m.name), summarize(&ub, m.name))
            else {
                continue;
            };
            let (worse, verdict) = judge(m.better, m.bound, &va, &vb, sa.max(sb), hosts_differ);
            rows.push(Row {
                workload: (*workload).to_string(),
                metric: m.name,
                unit: m.unit,
                bound: m.bound,
                a: (ma, sa),
                b: (mb, sb),
                worse,
                verdict,
            });
        }
    }
    Report { rows, mismatches }
}

/// One row per (workload, metric), as a markdown table (which reads
/// fine in a terminal too).
pub fn render(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("| workload | metric | unit | A median | A spread | B median | B spread | B worse by | bound | verdict |\n");
    out.push_str("|---|---|---|---:|---:|---:|---:|---:|---:|---|\n");
    for r in &report.rows {
        writeln!(
            out,
            "| {} | {} | {} | {:.4} | {:.1}% | {:.4} | {:.1}% | {:+.1}% | {:.0}% | {} |",
            r.workload,
            r.metric,
            r.unit,
            r.a.0,
            r.a.1 * 100.0,
            r.b.0,
            r.b.1 * 100.0,
            r.worse * 100.0,
            r.bound * 100.0,
            r.verdict.word()
        )
        .expect("write to a String");
    }
    for m in &report.mismatches {
        writeln!(out, "\nMISMATCH: {m}").expect("write to a String");
    }
    out
}

pub fn load(path: &str) -> Result<Vec<RunResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if json.get("schema").and_then(Json::as_str) != Some("rdabench/v1") {
        return Err(format!("{path}: not an rdabench/v1 result set"));
    }
    json.get("runs")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|r| RunResult::from_json(r).ok_or(format!("{path}: malformed run")))
        .collect()
}

pub fn cmd_check(files: &[String]) -> ExitCode {
    let [a, b] = files else {
        eprintln!("usage: rdabench check A.json B.json");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("rdabench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = compare(&a, &b);
    print!("{}", render(&report));
    if report.rows.is_empty() {
        eprintln!("rdabench: the two sets share no workload");
        return ExitCode::from(2);
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// One run as the driver makes it: a process of its own (a run inherits
/// nothing from the one before it, not a warm heap and not a resident-set
/// mark), read back from the result file it writes under `dir`.
fn run_in_own_process(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    dir: &Path,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let status = std::process::Command::new(exe)
        .arg("run")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(dir)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot start a run of {workload}: {e}"))?;
    if !status.success() {
        return Err(format!("a run of {workload} ended with {status}"));
    }
    let file = dir.join("result.json");
    load(&file.to_string_lossy())?
        .pop()
        .ok_or(format!("{} holds no run", file.display()))
}

/// Two sets from the same code: per workload A, B, A, B untraced, then
/// A, B traced. Every end-to-end metric must hold its own bound between
/// them; one that does not is named for demotion to per-layer.
pub fn cmd_repeat(seed: u64, seconds: f64, out: &Path) -> ExitCode {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for (workload, _) in workloads::ALL {
        for (i, traced) in [false, false, false, false, true, true]
            .into_iter()
            .enumerate()
        {
            eprintln!(
                "repeat: {workload} run {} ({})",
                i + 1,
                if traced { "traced" } else { "untraced" }
            );
            match run_in_own_process(workload, seed, seconds, traced, &out.join("repeat-run")) {
                Ok(r) => if i % 2 == 0 { &mut a } else { &mut b }.push(r),
                Err(e) => {
                    eprintln!("rdabench: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }
    let report = compare(&a, &b);
    let demote: Vec<String> = report
        .rows
        .iter()
        // `setup_s` stays whatever it does: the driver's contract names
        // it. A host that changed speed between the sets says nothing
        // about the metric.
        .filter(|r| {
            !matches!(r.verdict, Verdict::Unchanged | Verdict::OtherHost) && r.metric != "setup_s"
        })
        .map(|r| format!("{}@{}", r.metric, r.workload))
        .collect();
    let mut md = String::new();
    writeln!(
        md,
        "# rdabench repeat\n\nTwo sets of runs of the same code, back to back (per workload: A, B, A, B untraced, then A, B traced), seed {seed}, {seconds} s per run, host parallelism {}. Every run is a process of its own. `A`/`B median` is the median over a set's two untraced runs; spread is the distance between the two as a share of it.\n",
        crate::harness::host_parallelism()
    )
    .expect("write to a String");
    md.push_str(&render(&report));
    writeln!(
        md,
        "\nAnswer checksums and exact counts of equal seeds: {}.\n\nDemotion rule (a metric that cannot hold its bound between two sets of the same code leaves `end_to_end`): {}.",
        if report.mismatches.is_empty() { "identical" } else { "DIFFER" },
        if demote.is_empty() { "nothing to demote".to_string() } else { format!("demote {}", demote.join(", ")) },
    )
    .expect("write to a String");
    print!("{md}");
    let written = crate::write_results(&out.join("repeat-A.json"), &a)
        .and_then(|()| crate::write_results(&out.join("repeat-B.json"), &b))
        .and_then(|()| std::fs::write(out.join("REPEAT.md"), &md));
    if let Err(e) = written {
        eprintln!("rdabench: cannot write under {}: {e}", out.display());
        return ExitCode::from(2);
    }
    if report.passed() && demote.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let j = |better, a: &[f64], b: &[f64], spread| judge(better, 0.10, a, b, spread, false).1;
        assert_eq!(
            j("lower", &[100.0, 101.0], &[104.0, 105.0], 0.02),
            Verdict::Unchanged
        );
        assert_eq!(
            j("lower", &[100.0, 101.0], &[120.0, 121.0], 0.02),
            Verdict::Regression
        );
        assert_eq!(
            j("lower", &[100.0, 101.0], &[80.0, 81.0], 0.02),
            Verdict::Better
        );
        assert_eq!(
            j("higher", &[100.0, 101.0], &[80.0, 81.0], 0.02),
            Verdict::Regression
        );
        assert_eq!(
            j("higher", &[100.0, 101.0], &[120.0, 121.0], 0.02),
            Verdict::Better
        );
        // Spread past the bound: unresolved, unless the runs separate.
        assert_eq!(
            j("lower", &[100.0, 130.0], &[104.0, 125.0], 0.2),
            Verdict::Unresolved
        );
        assert_eq!(
            j("lower", &[100.0, 130.0], &[50.0, 60.0], 0.2),
            Verdict::Better
        );
        assert_eq!(
            j("lower", &[100.0, 130.0], &[200.0, 260.0], 0.2),
            Verdict::Regression
        );
        // A different host resolves nothing.
        assert_eq!(
            judge("lower", 0.10, &[100.0], &[300.0], 0.0, true).1,
            Verdict::OtherHost
        );
    }
}
