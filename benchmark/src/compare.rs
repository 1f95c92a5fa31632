//! `compare <a.json> <b.json>`: one row per workload × end-to-end metric with
//! both medians, their quartiles, the ratio **and its base**, and a verdict.
//! Deterministic metrics (simulated time, counters) are compared exactly.

use crate::catalog::{self, Better};
use crate::report::RunDoc;
use crate::stats::Summary;

/// What a comparison concluded about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The medians differ by no more than the metric's bound.
    Within,
    /// B is better than A by more than the bound.
    Improved,
    /// B is worse than A by more than the bound.
    Regressed,
    /// Run-to-run spread on one side exceeds the bound and the two sides'
    /// quartile ranges overlap: the data cannot tell.
    Unresolved,
    /// A deterministic metric (simulated time, counter) differs at all.
    Changed,
}

impl Verdict {
    /// The word printed in the table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "changed",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The verdict for one bounded metric. With a spread wider than the bound on
/// either side the medians alone prove nothing: the verdict is `Unresolved`
/// unless the quartile ranges do not even touch.
pub fn judge(better: Better, bound: f64, a: &Summary, b: &Summary) -> Verdict {
    let change = worse_by(better, a.median, b.median);
    let by_median = if change > bound {
        Verdict::Regressed
    } else if change < -bound {
        Verdict::Improved
    } else {
        Verdict::Within
    };
    if a.spread().max(b.spread()) <= bound {
        return by_median;
    }
    let (b_best, b_worst, a_best, a_worst) = match better {
        Better::Lower => (b.q1, b.q3, a.q1, a.q3),
        Better::Higher => (b.q3, b.q1, a.q3, a.q1),
    };
    if worse_by(better, a_worst, b_best) > 0.0 && by_median == Verdict::Regressed {
        Verdict::Regressed
    } else if worse_by(better, a_best, b_worst) < 0.0 && by_median == Verdict::Improved {
        Verdict::Improved
    } else {
        Verdict::Unresolved
    }
}

/// One printed row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Side A (the base of the ratio).
    pub a: Summary,
    /// Side B.
    pub b: Summary,
    /// The verdict.
    pub verdict: Verdict,
}

/// The outcome of comparing two run documents.
#[derive(Debug, Default)]
pub struct Comparison {
    /// End-to-end rows, then rows for deterministic metrics that differ.
    pub rows: Vec<Row>,
    /// Workloads whose `fail_share` rose from A to B, with both values.
    pub fail_share_increases: Vec<(String, f64, f64)>,
    /// Workloads whose `fail_share` is non-zero on side B.
    pub failing: Vec<(String, f64)>,
}

impl Comparison {
    /// `compare`'s exit rule: any regression or any `fail_share` increase.
    pub fn has_regression(&self) -> bool {
        !self.fail_share_increases.is_empty()
            || self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }

    /// `repeat`'s rule for two sets of *one* commit: every bounded metric
    /// within its bound, every deterministic metric identical, nothing
    /// failing.
    pub fn agrees(&self) -> bool {
        self.failing.is_empty()
            && self.fail_share_increases.is_empty()
            && self.rows.iter().all(|r| r.verdict == Verdict::Within)
    }
}

/// Compares B against A (A is the base of every ratio).
pub fn compare(a: &RunDoc, b: &RunDoc) -> Comparison {
    let mut out = Comparison::default();
    for (name, ra) in &a.workloads {
        let Some((_, rb)) = b.workloads.iter().find(|(n, _)| n == name) else {
            continue;
        };
        for (traced, pa, pb) in [
            (false, &ra.untraced, &rb.untraced),
            (true, &ra.traced, &rb.traced),
        ] {
            let (Some(pa), Some(pb)) = (pa, pb) else {
                continue;
            };
            if pb.fail_share() > pa.fail_share() {
                out.fail_share_increases
                    .push((name.clone(), pa.fail_share(), pb.fail_share()));
            }
            if pb.fail_share() > 0.0 {
                out.failing.push((name.clone(), pb.fail_share()));
            }
            for def in catalog::METRICS {
                let (Some(sa), Some(sb)) = (pa.metrics.get(def.name), pb.metrics.get(def.name))
                else {
                    continue;
                };
                // End-to-end metrics are judged where they are defined: on
                // the untraced pass (the traced pass has them from one body).
                let verdict = match def.bound {
                    Some(bound) if !traced => judge(def.better, bound, sa, sb),
                    None if def.exact && sa.median != sb.median => Verdict::Changed,
                    _ => continue,
                };
                out.rows.push(Row {
                    workload: name.clone(),
                    metric: def.name,
                    a: *sa,
                    b: *sb,
                    verdict,
                });
            }
        }
    }
    out
}

/// Prints the comparison table.
pub fn print(cmp: &Comparison, a_label: &str, b_label: &str) {
    println!("A (base of every ratio) = {a_label}");
    println!("B                       = {b_label}");
    println!(
        "{:<16} {:<24} {:>14} {:>25} {:>14} {:>25} {:>9}  verdict",
        "workload", "metric", "A median", "A q1..q3 (n)", "B median", "B q1..q3 (n)", "B/A"
    );
    for row in &cmp.rows {
        let def = catalog::metric(row.metric).expect("rows carry catalog names");
        let range = |s: &Summary| format!("{:.4}..{:.4} ({})", s.q1, s.q3, s.n);
        let ratio = if row.a.median == 0.0 {
            "n/a".to_string()
        } else {
            format!("{:.4}", row.b.median / row.a.median)
        };
        println!(
            "{:<16} {:<24} {:>14.4} {:>25} {:>14.4} {:>25} {:>9}  {} ({} {}, {} is better{})",
            row.workload,
            row.metric,
            row.a.median,
            range(&row.a),
            row.b.median,
            range(&row.b),
            ratio,
            row.verdict.label(),
            def.unit,
            def.clock.label(),
            def.better.label(),
            def.bound
                .map_or(String::new(), |b| format!(", bound {:.0}%", b * 100.0)),
        );
    }
    for (workload, a, b) in &cmp.fail_share_increases {
        println!("{workload}: fail_share rose from {a:.6} (A) to {b:.6} (B)");
    }
    for (workload, share) in &cmp.failing {
        println!("{workload}: fail_share is {share:.6} on side B");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Outcome;
    use crate::report::WorkloadResult;

    fn tight(v: f64) -> Summary {
        Summary {
            median: v,
            q1: v * 0.995,
            q3: v * 1.005,
            n: 5,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        // Lower is better, bound 10 %.
        assert_eq!(
            judge(Better::Lower, 0.10, &tight(100.0), &tight(105.0)),
            Verdict::Within
        );
        assert_eq!(
            judge(Better::Lower, 0.10, &tight(100.0), &tight(111.0)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Lower, 0.10, &tight(100.0), &tight(80.0)),
            Verdict::Improved
        );
        // Higher is better: the same numbers flip.
        assert_eq!(
            judge(Better::Higher, 0.10, &tight(100.0), &tight(80.0)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Higher, 0.10, &tight(100.0), &tight(120.0)),
            Verdict::Improved
        );
        assert_eq!(
            judge(Better::Higher, 0.10, &tight(100.0), &tight(95.0)),
            Verdict::Within
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_ranges_do_not_touch() {
        let noisy = |v: f64| Summary {
            median: v,
            q1: v * 0.8,
            q3: v * 1.2,
            n: 5,
        };
        // 15 % worse by median, but each side wobbles by 40 %: cannot tell.
        assert_eq!(
            judge(Better::Lower, 0.10, &noisy(100.0), &noisy(115.0)),
            Verdict::Unresolved
        );
        // Even "within" by median is unresolved when the spread hides a
        // bound-sized change.
        assert_eq!(
            judge(Better::Lower, 0.10, &noisy(100.0), &noisy(101.0)),
            Verdict::Unresolved
        );
        // Twice as slow: B's best quartile is worse than A's worst.
        assert_eq!(
            judge(Better::Lower, 0.10, &noisy(100.0), &noisy(200.0)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Lower, 0.10, &noisy(200.0), &noisy(100.0)),
            Verdict::Improved
        );
    }

    fn doc(work_per_s: f64, sim_tokens: f64, failed: u64) -> RunDoc {
        let mut untraced = Outcome {
            workload: "decode_mixed".into(),
            ..Outcome::default()
        };
        untraced.set("host_work_per_s", tight(work_per_s));
        untraced.set_value("sim_tokens_per_s", sim_tokens);
        untraced.checks.attempted = 10;
        untraced.checks.failed = failed;
        RunDoc {
            host: Vec::new(),
            workloads: vec![(
                "decode_mixed".into(),
                WorkloadResult {
                    untraced: Some(untraced),
                    traced: None,
                },
            )],
        }
    }

    #[test]
    fn documents_compare_row_by_row() {
        let same = compare(&doc(8.0, 20_000.0, 0), &doc(8.1, 20_000.0, 0));
        assert_eq!(same.rows.len(), 1);
        assert_eq!(same.rows[0].verdict, Verdict::Within);
        assert!(same.agrees() && !same.has_regression());

        let slower = compare(&doc(8.0, 20_000.0, 0), &doc(5.0, 20_000.0, 0));
        assert_eq!(slower.rows[0].verdict, Verdict::Regressed);
        assert!(slower.has_regression() && !slower.agrees());

        // A simulated statistic moved: not a regression by itself, but two
        // sets of one commit no longer agree.
        let drifted = compare(&doc(8.0, 20_000.0, 0), &doc(8.0, 20_000.5, 0));
        assert_eq!(drifted.rows.len(), 2);
        assert_eq!(drifted.rows[1].verdict, Verdict::Changed);
        assert!(!drifted.has_regression() && !drifted.agrees());

        let failing = compare(&doc(8.0, 20_000.0, 0), &doc(8.0, 20_000.0, 1));
        assert!(failing.has_regression());
        assert_eq!(failing.fail_share_increases.len(), 1);
    }
}
