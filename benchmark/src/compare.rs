//! `syno-benchmark compare A.json B.json`: parent against change, one row
//! per workload × end-to-end metric, judged by the bound `BENCHMARK.json`
//! fixes and the spread the runs themselves measured.

use crate::json::Json;
use crate::stats::{median, quartiles, spread};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric. `lower_is_better` orients the values; `bound` is the
/// share of the parent's median the metric may worsen by.
///
/// Where the run-to-run spread of either side is wider than the bound the
/// medians cannot show a change of that size: the verdict is `Unresolved`
/// unless every run of the change reads better than every run of the
/// parent. Otherwise a median worse by more than the bound is `Worse`, one
/// better by more than that spread is `Better`, anything else `Same`.
pub fn judge(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (p, c) = (median(parent), median(change));
    if p == 0.0 || parent.is_empty() || change.is_empty() {
        return if p == c {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (c - p) / p.abs();
    let noise = spread(parent).max(spread(change));
    let beats = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let clean_win = change.iter().all(|&x| parent.iter().all(|&y| beats(x, y)));
    if noise > bound {
        return if clean_win {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > noise {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The numbers at `path` inside `workload`'s section of a result file: the
/// `values` of a metric, or one of the `attempted`/`failed` lists.
fn numbers(doc: &Json, workload: &str, path: &[&str]) -> Vec<f64> {
    let section = doc.get("workloads").and_then(|w| w.get(workload));
    path.iter()
        .fold(section, |at, key| at?.get(key))
        .map(|v| v.as_arr().iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Prints the comparison; `Ok(true)` when nothing is worse and no workload
/// failed more operations than it did at the parent.
pub fn run(parent: &Json, change: &Json, contract: &Json) -> Result<bool, String> {
    let mut ok = true;
    println!(
        "{:<20} {:<24} {:>12} {:>12} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "parent", "[q1", "q3]", "change", "ratio", "bound"
    );
    // Every workload the parent ran, also one the contract leaves out.
    for (workload, _) in parent
        .get("workloads")
        .ok_or("parent lists no workloads")?
        .fields()
    {
        for metric in contract
            .get("end_to_end")
            .ok_or("contract lists no end_to_end")?
            .as_arr()
        {
            let field = |f: &str| {
                metric
                    .get(f)
                    .and_then(Json::as_str)
                    .ok_or(format!("metric without {f}"))
            };
            let (name, better) = (field("name")?, field("better")?);
            let bound = metric
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let metric_values = |doc| numbers(doc, workload, &["end_to_end", name, "values"]);
            let (p, c) = (metric_values(parent), metric_values(change));
            if p.is_empty() || c.is_empty() {
                println!("{workload:<20} {name:<24} missing on one side  unresolved");
                ok = false;
                continue;
            }
            let verdict = judge(&p, &c, better == "lower", bound);
            let (q1, q3) = quartiles(&p);
            let (cq1, cq3) = quartiles(&c);
            println!(
                "{workload:<20} {name:<24} {:>12.5} {q1:>12.5} {q3:>12.5} {:>12.5} {:>8.4} {bound:>7.3}  {}   change [{cq1:.5} {cq3:.5}] n={}/{}",
                median(&p),
                median(&c),
                median(&c) / median(&p),
                verdict.name(),
                p.len(),
                c.len(),
            );
            ok &= verdict != Verdict::Worse;
        }
        let rate = |doc: &Json| {
            let total = |key| numbers(doc, workload, &[key]).iter().sum::<f64>();
            total("failed") / total("attempted").max(1.0)
        };
        let (p, c) = (rate(parent), rate(change));
        let verdict = if c > p { "worse" } else { "same" };
        println!(
            "{workload:<20} {:<24} {p:>12.5} {:>12} {:>12} {c:>12.5}  {verdict}",
            "failed_frac", "", ""
        );
        ok &= c <= p;
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIGHT: [f64; 5] = [1.00, 1.01, 0.99, 1.005, 0.995];

    fn scaled(values: &[f64], by: f64) -> Vec<f64> {
        values.iter().map(|v| v * by).collect()
    }

    #[test]
    fn verdicts_on_synthetic_inputs() {
        // Within the bound and within the noise: same.
        assert_eq!(
            judge(&TIGHT, &scaled(&TIGHT, 1.004), true, 0.10),
            Verdict::Same
        );
        // Slower by 20% against a 10% bound: worse (for a time)…
        assert_eq!(
            judge(&TIGHT, &scaled(&TIGHT, 1.20), true, 0.10),
            Verdict::Worse
        );
        // …and better for a throughput.
        assert_eq!(
            judge(&TIGHT, &scaled(&TIGHT, 1.20), false, 0.10),
            Verdict::Better
        );
        assert_eq!(
            judge(&TIGHT, &scaled(&TIGHT, 0.80), false, 0.10),
            Verdict::Worse
        );
        // Faster by 20%, every run ahead of every parent run: better.
        assert_eq!(
            judge(&TIGHT, &scaled(&TIGHT, 0.80), true, 0.10),
            Verdict::Better
        );
        // Worse by 5% against a 10% bound is tolerated.
        assert_eq!(
            judge(&TIGHT, &scaled(&TIGHT, 1.05), true, 0.10),
            Verdict::Same
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = [1.0, 1.4, 0.7, 1.2, 0.8];
        assert_eq!(
            judge(&noisy, &scaled(&noisy, 1.02), true, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &scaled(&noisy, 1.30), true, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &scaled(&noisy, 0.40), true, 0.10),
            Verdict::Better
        );
    }

    #[test]
    fn exact_counts_compare_exactly() {
        assert_eq!(
            judge(&[0.5, 0.5, 0.5], &[0.5, 0.5, 0.5], true, 0.01),
            Verdict::Same
        );
        assert_eq!(
            judge(&[0.5, 0.5, 0.5], &[0.6, 0.6, 0.6], true, 0.01),
            Verdict::Worse
        );
        assert_eq!(judge(&[0.0], &[0.0], true, 0.01), Verdict::Same);
        assert_eq!(judge(&[0.0], &[0.1], true, 0.01), Verdict::Unresolved);
    }
}
