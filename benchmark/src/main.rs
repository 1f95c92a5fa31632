//! Two-clock benchmark harness for the Hidet reproduction: host wall time
//! (`host_*`, the Rust in this repository) and simulated device time
//! (`sim_*`, the analytic model) reported side by side, end to end and per
//! layer. See `README.md` in this directory.
//!
//! ```text
//! hidet-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one pass
//! hidet-benchmark run [--seed n] [--seconds s] [--traced]                    all workloads, both passes
//! hidet-benchmark compare <a.json>[,<a2.json>...] <b.json>[,...]             B against A
//! hidet-benchmark repeat --sets <n> [--seed n] [--seconds s]                 n runs, compared pairwise
//! ```

mod catalog;
mod compare;
mod gen;
mod harness;
mod models;
mod oracle;
mod outcome;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{SystemTime, UNIX_EPOCH};

use hidet_sched::json::{Json, JsonWriter};

use crate::harness::Ctx;
use crate::outcome::Outcome;
use crate::report::{RunDoc, WorkloadResult};

const USAGE: &str = "usage:
  hidet-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--detail <path>]
  hidet-benchmark run [--seed <n>] [--seconds <s>] [--traced]
  hidet-benchmark compare <a.json>[,<a2.json>...] <b.json>[,<b2.json>...]
  hidet-benchmark repeat --sets <n> [--seed <n>] [--seconds <s>]
workloads: zoo_compile decode_mixed oneshot_batched wire_mixed";

/// `--flag value` lookup.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn number(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name} wants a whole number, got \"{text}\"")),
    }
}

/// One workload, one pass, in this process: prints the report, then — as the
/// last line of stdout — the one-line result the PR driver reads.
fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let name = flag(args, "--workload").ok_or("--workload is required")?;
    let ctx = Ctx {
        seed: number(args, "--seed", catalog::DEFAULT_SEED)?,
        seconds: number(args, "--seconds", catalog::DEFAULT_SECONDS)?,
        traced: number(args, "--trace", 0)? != 0,
    };
    let outcome =
        workloads::run(name, &ctx).ok_or_else(|| format!("unknown workload \"{name}\""))?;
    report::print_outcome(&outcome);
    if let Some(path) = flag(args, "--detail") {
        let mut w = JsonWriter::new();
        outcome.write_json(&mut w);
        std::fs::write(path, w.finish()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", outcome.contract_line());
    Ok(ExitCode::SUCCESS)
}

/// Runs one pass of one workload in a child process (so peak RSS, the
/// tracer and every cache start clean) and reads back its detailed outcome.
fn run_child(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    std::fs::create_dir_all(report::RESULTS_DIR).map_err(|e| e.to_string())?;
    let detail = Path::new(report::RESULTS_DIR).join(format!(
        "pass_{workload}_{}.json",
        if ctx.traced { "traced" } else { "untraced" }
    ));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--seconds", &ctx.seconds.to_string()])
        .args(["--trace", if ctx.traced { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail)
        .status()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    if !status.success() {
        return Err(format!("{workload} exited with {status}"));
    }
    let text =
        std::fs::read_to_string(&detail).map_err(|e| format!("{}: {e}", detail.display()))?;
    Outcome::from_json(&Json::parse(&text)?)
}

/// All four workloads: the untraced pass (unless `traced_only`), then the
/// traced pass. Returns the document and where it was written.
fn run_all(seed: u64, seconds: u64, traced_only: bool) -> Result<(RunDoc, PathBuf), String> {
    let mut doc = RunDoc {
        host: report::describe_host(),
        workloads: Vec::new(),
    };
    for workload in catalog::WORKLOADS {
        let pass = |traced: bool| {
            run_child(
                workload.name,
                &Ctx {
                    seed,
                    seconds,
                    traced,
                },
            )
        };
        let untraced = if traced_only {
            None
        } else {
            Some(pass(false)?)
        };
        let traced = Some(pass(true)?);
        doc.workloads.push((
            workload.name.to_string(),
            WorkloadResult { untraced, traced },
        ));
    }
    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let path = doc
        .save(&format!("run_seed{seed}_{stamp}"))
        .map_err(|e| e.to_string())?;
    println!("\nhost: {:?}", doc.host);
    println!("result: {}", path.display());
    Ok((doc, path))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let seed = number(args, "--seed", catalog::DEFAULT_SEED)?;
    let seconds = number(args, "--seconds", catalog::DEFAULT_SECONDS)?;
    let (doc, _) = run_all(seed, seconds, args.iter().any(|a| a == "--traced"))?;
    let failing = doc
        .workloads
        .iter()
        .flat_map(|(_, r)| [&r.untraced, &r.traced])
        .flatten()
        .any(|o| o.checks.failed > 0);
    Ok(if failing {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(
            "compare wants two sides, each one result file or a comma-separated list".into(),
        );
    };
    // Several runs per side are pooled: medians over runs, and the quartiles
    // over runs are the run-to-run spread the verdicts are judged against.
    let side = |list: &str| -> Result<RunDoc, String> {
        let runs: Result<Vec<RunDoc>, String> = list
            .split(',')
            .map(|path| RunDoc::load(Path::new(path)))
            .collect();
        Ok(RunDoc::pool(&runs?))
    };
    let cmp = compare::compare(&side(a)?, &side(b)?);
    compare::print(&cmp, a, b);
    Ok(if cmp.has_regression() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_repeat(args: &[String]) -> Result<ExitCode, String> {
    let sets = number(args, "--sets", 2)?.max(2);
    let seed = number(args, "--seed", catalog::DEFAULT_SEED)?;
    let seconds = number(args, "--seconds", catalog::DEFAULT_SECONDS)?;
    let mut runs = Vec::new();
    for set in 1..=sets {
        println!("\n######## set {set} of {sets} ########");
        runs.push(run_all(seed, seconds, false)?);
    }
    let mut agree = true;
    for pair in runs.windows(2) {
        let [(a, a_path), (b, b_path)] = pair else {
            unreachable!("windows(2) yields pairs");
        };
        println!();
        let cmp = compare::compare(a, b);
        compare::print(
            &cmp,
            &a_path.display().to_string(),
            &b_path.display().to_string(),
        );
        agree &= cmp.agrees();
    }
    println!(
        "\n{sets} sets of one commit {}",
        if agree {
            "agree: every end-to-end metric within its bound, every deterministic metric identical, nothing failed"
        } else {
            "DISAGREE (see the rows above that are not `within`)"
        }
    );
    Ok(if agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("repeat") => cmd_repeat(&args[1..]),
        Some(first) if first.starts_with("--") && first != "--help" => run_one(&args),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
