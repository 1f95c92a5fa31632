//! Result documents and their rendering. Data and rendering stay apart:
//! `results/*.json` holds raw numbers (every metric with quartiles, sample
//! count, unit and clock); the tables printed here are derived from them.

use std::path::{Path, PathBuf};
use std::process::Command;

use hidet_sched::json::{get, Json, JsonWriter};

use crate::catalog::{self, MetricDef};
use crate::outcome::Outcome;

/// Where raw results and Chrome traces go, relative to the working
/// directory (the repository root).
pub const RESULTS_DIR: &str = "benchmark/results";

/// One workload's two passes.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    /// End-to-end metrics, tracer at its production default.
    pub untraced: Option<Outcome>,
    /// Per-layer metrics from the traced pass.
    pub traced: Option<Outcome>,
}

/// One full `run`: the host it ran on and every workload's outcomes.
#[derive(Debug, Clone, Default)]
pub struct RunDoc {
    /// Host description (`nproc`, CPU model, kernel, rustc).
    pub host: Vec<(String, String)>,
    /// Workload name → its passes, in run order.
    pub workloads: Vec<(String, WorkloadResult)>,
}

/// Describes the machine the numbers were taken on. Host-clock numbers from
/// two different descriptions are not comparable.
pub fn describe_host() -> Vec<(String, String)> {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".into());
    vec![
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(1, usize::from)
                .to_string(),
        ),
        ("cpu".into(), cpu),
        (
            "kernel".into(),
            read("/proc/sys/kernel/osrelease").trim().to_string(),
        ),
        ("rustc".into(), rustc),
    ]
}

impl RunDoc {
    /// Serialises the document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("host").begin_object();
        for (k, v) in &self.host {
            w.key(k).string(v);
        }
        w.end();
        w.key("workloads").begin_array();
        for (name, result) in &self.workloads {
            w.begin_object();
            w.key("name").string(name);
            for (key, pass) in [("untraced", &result.untraced), ("traced", &result.traced)] {
                w.key(key);
                match pass {
                    Some(outcome) => outcome.write_json(&mut w),
                    None => {
                        w.null();
                    }
                }
            }
            w.end();
        }
        w.end();
        w.end();
        w.finish()
    }

    /// Parses a document written by [`RunDoc::to_json`].
    pub fn from_json(text: &str) -> Result<RunDoc, String> {
        let doc = Json::parse(text)?;
        let obj = doc.as_object("run document")?;
        let mut out = RunDoc::default();
        for (k, v) in get(obj, "host")?.as_object("host")? {
            out.host.push((k.clone(), v.as_str(k)?.to_string()));
        }
        for item in get(obj, "workloads")?.as_array("workloads")? {
            let item = item.as_object("workload")?;
            let pass = |key: &str| -> Result<Option<Outcome>, String> {
                match get(item, key)? {
                    Json::Null => Ok(None),
                    doc => Outcome::from_json(doc).map(Some),
                }
            };
            out.workloads.push((
                get(item, "name")?.as_str("name")?.to_string(),
                WorkloadResult {
                    untraced: pass("untraced")?,
                    traced: pass("traced")?,
                },
            ));
        }
        Ok(out)
    }

    /// One pass of one workload, if this run has it.
    fn pass(&self, workload: &str, traced: bool) -> Option<&Outcome> {
        let (_, result) = self.workloads.iter().find(|(name, _)| name == workload)?;
        if traced {
            result.traced.as_ref()
        } else {
            result.untraced.as_ref()
        }
    }

    /// Several runs of one commit as one document (workloads and passes as
    /// in the first run): see [`Outcome::pooled`]. This is what gives
    /// `compare` a run-to-run spread to judge against.
    pub fn pool(runs: &[RunDoc]) -> RunDoc {
        let mut pooled = runs.first().cloned().unwrap_or_default();
        for (name, result) in &mut pooled.workloads {
            for (traced, slot) in [(false, &mut result.untraced), (true, &mut result.traced)] {
                let passes: Vec<&Outcome> = runs
                    .iter()
                    .filter_map(|run| run.pass(name, traced))
                    .collect();
                if let Some(slot) = slot {
                    *slot = Outcome::pooled(&passes);
                }
            }
        }
        pooled
    }

    /// Reads a document from disk.
    pub fn load(path: &Path) -> Result<RunDoc, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        RunDoc::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Writes the document under [`RESULTS_DIR`] and returns the path.
    pub fn save(&self, stem: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(RESULTS_DIR)?;
        let path = Path::new(RESULTS_DIR).join(format!("{stem}.json"));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

fn direction(def: &MetricDef) -> String {
    let arrow = def.better.label();
    match def.bound {
        Some(bound) => format!("{arrow} is better, bound {:.0}%", bound * 100.0),
        None => format!("{arrow} is better"),
    }
}

/// Prints every metric of `outcome` by name with its unit, clock, direction
/// (and bound), quartiles and sample count.
pub fn print_outcome(outcome: &Outcome) {
    println!(
        "== {} ({}; seed {}, {} s, {} rep(s)) ==",
        outcome.workload,
        if outcome.traced {
            "traced pass"
        } else {
            "untraced"
        },
        outcome.seed,
        outcome.seconds,
        outcome.reps
    );
    if let Some(def) = catalog::WORKLOADS
        .iter()
        .find(|w| w.name == outcome.workload)
    {
        println!("  # why: {}", def.why);
    }
    for (k, v) in &outcome.config {
        println!("  # {k}: {v}");
    }
    println!(
        "  {:<34} {:>16} {:<10} {:<10} {:>14} {:>14} {:>6}  direction",
        "metric", "value", "unit", "clock", "q1", "q3", "n"
    );
    for def in catalog::METRICS {
        let Some(s) = outcome.metrics.get(def.name) else {
            continue;
        };
        println!(
            "  {:<34} {:>16.6} {:<10} {:<10} {:>14.6} {:>14.6} {:>6}  {}",
            def.name,
            s.median,
            def.unit,
            def.clock.label(),
            s.q1,
            s.q3,
            s.n,
            direction(def)
        );
    }
    println!(
        "  fail_share {:.6} ratio ({} failed of {} attempted; lower is better, bound +0)",
        outcome.fail_share(),
        outcome.checks.failed,
        outcome.checks.attempted
    );
    for msg in &outcome.checks.failures {
        println!("    FAILED: {msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    #[test]
    fn run_documents_round_trip() {
        let mut outcome = Outcome {
            workload: "decode_mixed".into(),
            seed: 3,
            seconds: 10,
            reps: 1,
            ..Outcome::default()
        };
        outcome.set("host_work_per_s", Summary::of(&[7.5, 7.7]));
        let doc = RunDoc {
            host: vec![("nproc".into(), "2".into())],
            workloads: vec![(
                "decode_mixed".into(),
                WorkloadResult {
                    untraced: Some(outcome.clone()),
                    traced: None,
                },
            )],
        };
        let back = RunDoc::from_json(&doc.to_json()).unwrap();
        assert_eq!(back.host, doc.host);
        assert_eq!(back.workloads.len(), 1);
        let (name, result) = &back.workloads[0];
        assert_eq!(name, "decode_mixed");
        assert!(result.traced.is_none());
        assert_eq!(result.untraced.as_ref().unwrap().metrics, outcome.metrics);
    }

    #[test]
    fn pooling_runs_gives_each_metric_a_run_to_run_spread() {
        let run = |value: f64, failed: u64| {
            let mut outcome = Outcome {
                workload: "wire_mixed".into(),
                reps: 3,
                ..Outcome::default()
            };
            outcome.set_value("host_work_per_s", value);
            outcome.checks.attempted = 10;
            outcome.checks.failed = failed;
            RunDoc {
                host: vec![("nproc".into(), "2".into())],
                workloads: vec![(
                    "wire_mixed".into(),
                    WorkloadResult {
                        untraced: Some(outcome),
                        traced: None,
                    },
                )],
            }
        };
        let pooled = RunDoc::pool(&[run(9.0, 0), run(10.0, 1), run(11.0, 0)]);
        let outcome = pooled.workloads[0].1.untraced.as_ref().unwrap();
        let s = outcome.metrics["host_work_per_s"];
        assert_eq!((s.median, s.q1, s.q3, s.n), (10.0, 9.0, 11.0, 3));
        assert_eq!(outcome.checks.attempted, 30);
        assert_eq!(outcome.checks.failed, 1);
        assert_eq!(outcome.reps, 9);
        // One run pools to itself.
        let single = RunDoc::pool(&[run(9.0, 0)]);
        let outcome = single.workloads[0].1.untraced.as_ref().unwrap();
        assert_eq!(outcome.metrics["host_work_per_s"], Summary::single(9.0));
    }
}
