//! What one workload run produces — metrics by catalog name plus the
//! attempted/failed tally — and its two JSON forms: the one-line result the
//! PR driver reads from stdout, and the detailed document `run` merges into
//! `results/*.json`.

use std::collections::BTreeMap;

use hidet_sched::json::{get, Json, JsonWriter};

use crate::catalog;
use crate::stats::Summary;

/// Tally of operations attempted and operations that failed — refused when
/// they should have been served, served when they should have been refused,
/// or answered with an output the oracle rejects.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(describe());
            }
        }
    }
}

/// The result of running one workload once (`--trace 0`) or once traced
/// (`--trace 1`).
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds the body was asked to measure for.
    pub seconds: u64,
    /// Whether this was the traced pass.
    pub traced: bool,
    /// Timed body repetitions.
    pub reps: usize,
    /// Attempted/failed tally including every oracle check.
    pub checks: Checks,
    /// Workload sizes and engine settings, recorded with the numbers.
    pub config: Vec<(String, String)>,
    /// Metric values by catalog name.
    pub metrics: BTreeMap<String, Summary>,
}

impl Outcome {
    /// Records `summary` under `name`, which must be a catalog name.
    pub fn set(&mut self, name: &str, summary: Summary) {
        assert!(
            catalog::metric(name).is_some(),
            "metric {name} is not in the catalog"
        );
        assert!(
            summary.median.is_finite(),
            "metric {name} is not finite: {summary:?}"
        );
        self.metrics.insert(name.to_string(), summary);
    }

    /// Records a value read or computed once.
    pub fn set_value(&mut self, name: &str, value: f64) {
        self.set(name, Summary::single(value));
    }

    /// Records a workload size or setting.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.config.push((key.to_string(), value.to_string()));
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn fail_share(&self) -> f64 {
        if self.checks.attempted == 0 {
            0.0
        } else {
            self.checks.failed as f64 / self.checks.attempted as f64
        }
    }

    /// The one JSON object the PR driver reads as the last line of stdout:
    /// every end-to-end metric untraced, every per-layer metric traced. A
    /// per-layer metric this workload does not produce reads 0 — the layer
    /// was not exercised.
    pub fn contract_line(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("correct").boolean(self.checks.failed == 0);
        w.key("attempted")
            .integer(self.checks.attempted.max(1) as i64);
        w.key("failed").integer(self.checks.failed as i64);
        w.key("metrics").begin_object();
        for def in catalog::METRICS {
            if def.bound.is_some() == self.traced {
                continue;
            }
            let value = self.metrics.get(def.name).map_or(0.0, |s| s.median);
            w.key(def.name).begin_object();
            w.key("value").number(value);
            w.key("unit").string(def.unit);
            w.end();
        }
        w.end();
        w.end();
        w.finish()
    }

    /// The detailed document: everything above plus quartiles, sample
    /// counts, clocks and the recorded configuration.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("workload").string(&self.workload);
        w.key("seed").integer(self.seed as i64);
        w.key("seconds").integer(self.seconds as i64);
        w.key("traced").boolean(self.traced);
        w.key("reps").integer(self.reps as i64);
        w.key("attempted").integer(self.checks.attempted as i64);
        w.key("failed").integer(self.checks.failed as i64);
        w.key("fail_share").number(self.fail_share());
        w.key("failures").begin_array();
        for msg in &self.checks.failures {
            w.string(msg);
        }
        w.end();
        w.key("config").begin_object();
        for (k, v) in &self.config {
            w.key(k).string(v);
        }
        w.end();
        w.key("metrics").begin_object();
        for (name, s) in &self.metrics {
            let def = catalog::metric(name).expect("set() checked the name");
            w.key(name).begin_object();
            w.key("value").number(s.median);
            w.key("unit").string(def.unit);
            w.key("clock").string(def.clock.label());
            w.key("better").string(def.better.label());
            w.key("q1").number(s.q1);
            w.key("q3").number(s.q3);
            w.key("n").integer(s.n as i64);
            w.end();
        }
        w.end();
        w.end();
    }

    /// Several runs of one pass as one outcome: each metric becomes the median
    /// of the runs' values with quartiles over the runs (`n` = runs that
    /// reported it); tallies and repetition counts add up; everything else is
    /// the first run's. One run pools to itself.
    pub fn pooled(runs: &[&Outcome]) -> Outcome {
        let Some(&first) = runs.first() else {
            return Outcome::default();
        };
        if runs.len() == 1 {
            return first.clone();
        }
        let mut pooled = Outcome {
            reps: runs.iter().map(|r| r.reps).sum(),
            checks: Checks {
                attempted: runs.iter().map(|r| r.checks.attempted).sum(),
                failed: runs.iter().map(|r| r.checks.failed).sum(),
                failures: runs
                    .iter()
                    .flat_map(|r| r.checks.failures.clone())
                    .collect(),
            },
            metrics: BTreeMap::new(),
            ..first.clone()
        };
        for def in catalog::METRICS {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.get(def.name))
                .map(|s| s.median)
                .collect();
            if !values.is_empty() {
                pooled
                    .metrics
                    .insert(def.name.to_string(), Summary::of(&values));
            }
        }
        pooled
    }

    /// Parses a document written by [`Outcome::write_json`]. Metrics whose
    /// names have since left the catalog are dropped, so an old baseline
    /// still compares on the names both sides know.
    pub fn from_json(doc: &Json) -> Result<Outcome, String> {
        let obj = doc.as_object("outcome")?;
        let int =
            |key: &str| -> Result<u64, String> { Ok(get(obj, key)?.as_i64(key)?.max(0) as u64) };
        let mut outcome = Outcome {
            workload: get(obj, "workload")?.as_str("workload")?.to_string(),
            seed: int("seed")?,
            seconds: int("seconds")?,
            traced: matches!(get(obj, "traced")?, Json::Bool(true)),
            reps: int("reps")? as usize,
            checks: Checks {
                attempted: int("attempted")?,
                failed: int("failed")?,
                failures: get(obj, "failures")?
                    .as_array("failures")?
                    .iter()
                    .filter_map(|f| f.as_str("failure").ok().map(str::to_string))
                    .collect(),
            },
            ..Outcome::default()
        };
        for (k, v) in get(obj, "config")?.as_object("config")? {
            outcome.config.push((k.clone(), v.as_str(k)?.to_string()));
        }
        for (name, m) in get(obj, "metrics")?.as_object("metrics")? {
            if catalog::metric(name).is_none() {
                continue;
            }
            let m = m.as_object(name)?;
            let num = |key: &str| -> Result<f64, String> { get(m, key)?.as_f64(key) };
            outcome.metrics.insert(
                name.clone(),
                Summary {
                    median: num("value")?,
                    q1: num("q1")?,
                    q3: num("q3")?,
                    n: num("n")? as usize,
                },
            );
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outcome {
        let mut o = Outcome {
            workload: "zoo_compile".into(),
            seed: 7,
            seconds: 10,
            reps: 2,
            ..Outcome::default()
        };
        o.checks.check(true, String::new);
        o.checks.check(false, || "bad output".into());
        o.note("models", 5);
        for def in catalog::end_to_end() {
            o.set(def.name, Summary::of(&[1.0, 2.0, 4.0]));
        }
        o.set_value("sim_tuning_s", 12.5);
        o
    }

    #[test]
    fn detail_json_round_trips() {
        let o = sample();
        let mut w = JsonWriter::new();
        o.write_json(&mut w);
        let back = Outcome::from_json(&Json::parse(&w.finish()).unwrap()).unwrap();
        assert_eq!(back.workload, o.workload);
        assert_eq!(back.metrics, o.metrics);
        assert_eq!(back.checks.failed, 1);
        assert_eq!(back.checks.failures, ["bad output"]);
        assert_eq!(back.config, o.config);
        assert_eq!(back.fail_share(), 0.5);
    }

    #[test]
    fn contract_line_lists_exactly_the_class_for_its_pass() {
        let mut o = sample();
        let parse = |line: &str| -> Vec<String> {
            let doc = Json::parse(line).unwrap();
            let obj = doc.as_object("line").unwrap();
            let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(get(obj, "correct").unwrap(), &Json::Bool(false));
            get(obj, "metrics")
                .unwrap()
                .as_object("metrics")
                .unwrap()
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        let untraced = parse(&o.contract_line());
        let e2e: Vec<String> = catalog::end_to_end().map(|m| m.name.to_string()).collect();
        assert_eq!(untraced, e2e);
        o.traced = true;
        let traced = parse(&o.contract_line());
        let layers: Vec<String> = catalog::per_layer().map(|m| m.name.to_string()).collect();
        assert_eq!(traced, layers);
        assert!(!o.contract_line().contains('\n'));
    }

    #[test]
    #[should_panic(expected = "not in the catalog")]
    fn unknown_metric_names_are_rejected() {
        Outcome::default().set_value("no.such.metric", 1.0);
    }
}
