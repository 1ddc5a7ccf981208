//! `--compare`: two saved results side by side, judged against the
//! bounds `BENCHMARK.json` fixes for each end-to-end metric.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::json::{as_f64, as_str, get, items};
use crate::stats::Summary;

/// A comparison's outcome for one workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Head is better by more than the bound, or every head run beats
    /// every base run.
    Improved,
    /// Head is worse by more than the bound.
    Regressed,
    /// Within the bound either way.
    Unchanged,
    /// A side's run-to-run spread is wider than the bound.
    Unresolved,
}

/// One end-to-end metric's regression bound, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the base median.
    pub bound: f64,
}

/// The `end_to_end` bounds of a parsed `BENCHMARK.json`.
pub fn bounds(benchmark: &Value) -> Vec<Bound> {
    get(benchmark, "end_to_end")
        .map(items)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some(Bound {
                name: as_str(get(m, "name")?)?.to_owned(),
                lower_is_better: as_str(get(m, "better")?)? == "lower",
                bound: as_f64(get(m, "bound")?)?,
            })
        })
        .collect()
}

/// Every run's metric values in a saved result, by `(workload, metric)`.
pub fn values(result: &Value) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in get(result, "runs").map(items).unwrap_or_default() {
        let Some(workload) = get(run, "workload").and_then(as_str) else {
            continue;
        };
        if let Some(Value::Object(metrics)) = get(run, "metrics") {
            for (name, metric) in metrics {
                if let Some(v) = get(metric, "value").and_then(as_f64) {
                    out.entry((workload.to_owned(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    out
}

/// Judges `head` against `base` under `bound`.
pub fn verdict(base: &[f64], head: &[f64], bound: &Bound) -> Verdict {
    let (Some(b), Some(h)) = (Summary::of(base), Summary::of(head)) else {
        return Verdict::Unresolved;
    };
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let head_dominates = if bound.lower_is_better {
        max(head) < min(base)
    } else {
        min(head) > max(base)
    };
    if head_dominates {
        return Verdict::Improved;
    }
    if b.spread() > bound.bound || h.spread() > bound.bound {
        return Verdict::Unresolved;
    }
    let worse = worsening(b.median, h.median, bound.lower_is_better);
    if worse > bound.bound {
        Verdict::Regressed
    } else if worse < -bound.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// How much worse `head` is than `base`, as a share of `base` (negative
/// when better).
pub fn worsening(base: f64, head: f64, lower_is_better: bool) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    let delta = (head - base) / base.abs();
    if lower_is_better {
        delta
    } else {
        -delta
    }
}

/// Prints one row per workload and end-to-end metric; returns whether
/// any metric regressed.
pub fn print(benchmark: &Value, base: &Value, head: &Value) -> bool {
    let base = values(base);
    let head = values(head);
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = base.keys().map(|(w, _)| w).collect();
        w.dedup();
        w
    };
    let quartiles = |v: &[f64]| {
        Summary::of(v).map_or_else(
            || "-".to_owned(),
            |s| format!("{:.4} [{:.4}, {:.4}] n={}", s.median, s.q1, s.q3, s.n),
        )
    };
    println!("workload metric base head delta bound verdict");
    let mut regressed = false;
    for workload in workloads {
        for bound in bounds(benchmark) {
            let key = (workload.clone(), bound.name.clone());
            let b = base.get(&key).map_or(&[][..], Vec::as_slice);
            let h = head.get(&key).map_or(&[][..], Vec::as_slice);
            let verdict = verdict(b, h, &bound);
            regressed |= verdict == Verdict::Regressed;
            let delta = match (Summary::of(b), Summary::of(h)) {
                (Some(b), Some(h)) => format!(
                    "{:+.2}%",
                    -100.0 * worsening(b.median, h.median, bound.lower_is_better)
                ),
                _ => "-".to_owned(),
            };
            println!(
                "{workload} {} {} {} {delta} ±{:.1}% {verdict:?}",
                bound.name,
                quartiles(b),
                quartiles(h),
                100.0 * bound.bound,
            );
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "latency".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_bounds_spread_and_dominance() {
        let base = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            verdict(&base, &[100.2, 99.8, 100.4, 100.1], &lower(0.05)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&base, &[120.0, 121.0, 119.0, 120.5], &lower(0.05)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &[90.0, 91.0, 89.0, 90.5], &lower(0.05)),
            Verdict::Improved
        );
        let noisy = [80.0, 120.0, 100.0, 140.0];
        assert_eq!(verdict(&base, &noisy, &lower(0.05)), Verdict::Unresolved);
        // Every head run beats every base run: a gain despite the spread.
        assert_eq!(
            verdict(&noisy, &[50.0, 60.0, 70.0], &lower(0.05)),
            Verdict::Improved
        );
        let higher = Bound {
            lower_is_better: false,
            ..lower(0.05)
        };
        assert_eq!(
            verdict(&base, &[120.0, 121.0, 119.0, 120.5], &higher),
            Verdict::Improved
        );
    }
}
