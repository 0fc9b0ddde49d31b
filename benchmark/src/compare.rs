//! `compare <base> <new>`: judges a change against its parent from two
//! files of run records (one JSON object per line, as `--report` appends
//! them), per workload and end-to-end metric:
//!
//! * **gain** — the change wins at least 9 of 10 pairs (run i of the base
//!   against run i of the change, ties counting for neither) and the
//!   medians differ by more than the base's interquartile range;
//! * **regression** — the change's median is worse than the base's by
//!   more than the metric's allowance: its bound times the base median,
//!   and for `setup_s` at least [`SETUP_FLOOR_S`];
//! * **unresolved** — neither, but a side's interquartile range exceeds
//!   the allowance, so "unchanged" cannot be claimed — unless every run of
//!   the change reads better than every run of the base (**better**);
//! * **unchanged** — otherwise.

use std::collections::BTreeMap;
use std::path::Path;

use scibench_trace::{parse_json, JsonValue};

use crate::contract::{Contract, Spec};
use crate::harness::quantile;

/// Per workload: each untraced run's end-to-end metric values.
type Runs = BTreeMap<String, Vec<BTreeMap<String, f64>>>;

/// Set-up takes microseconds, so a share of it is too small to judge:
/// `setup_s` may worsen by this many (host-normalized) seconds before it
/// counts as a regression, whatever its bound.
pub const SETUP_FLOOR_S: f64 = 0.020;

/// By how much a metric may move from a median of `median` before the
/// move counts: its bound times the median, with `setup_s`'s floor.
fn allowance(spec: &Spec, median: f64) -> f64 {
    let relative = spec.bound.unwrap_or(0.0) * median.abs();
    if spec.name == "setup_s" {
        relative.max(SETUP_FLOOR_S)
    } else {
        relative
    }
}

fn load(path: &Path) -> Result<Runs, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = format!("{}:{}", path.display(), i + 1);
        let record = parse_json(line).map_err(|e| format!("{at}: {e}"))?;
        if record.get("trace").and_then(JsonValue::as_f64) != Some(0.0) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or(format!("{at}: no workload"))?;
        let Some(JsonValue::Object(metrics)) = record.get("metrics") else {
            return Err(format!("{at}: no metrics object"));
        };
        let values = metrics
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(JsonValue::as_f64)
                    .map(|v| (name.clone(), v))
                    .ok_or(format!("{at}: {name} has no value"))
            })
            .collect::<Result<_, _>>()?;
        runs.entry(workload.to_owned()).or_default().push(values);
    }
    Ok(runs)
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    Regression,
    Unresolved,
    Better,
    Unchanged,
}

/// Applies the rule to one metric's base and new values (run order pairs
/// them).
pub fn judge(spec: &Spec, base: &[f64], new: &[f64]) -> Verdict {
    let (mb, mn) = (quantile(base, 0.5), quantile(new, 0.5));
    let iqr = |xs: &[f64]| quantile(xs, 0.75) - quantile(xs, 0.25);
    // Positive when `a` is better than `b`.
    let gain = |a: f64, b: f64| if spec.lower_is_better() { b - a } else { a - b };
    let pairs = base.len().min(new.len());
    let won = base
        .iter()
        .zip(new)
        .filter(|(b, n)| gain(**n, **b) > 0.0)
        .count();
    if pairs > 0 && won * 10 >= pairs * 9 && gain(mn, mb) > iqr(base) {
        return Verdict::Gain;
    }
    if -gain(mn, mb) > allowance(spec, mb) {
        return Verdict::Regression;
    }
    if iqr(base) > allowance(spec, mb) || iqr(new) > allowance(spec, mn) {
        let all_better = new.iter().all(|n| base.iter().all(|b| gain(*n, *b) > 0.0));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    Verdict::Unchanged
}

/// Prints the comparison; returns whether any metric regressed.
pub fn run(base: &Path, new: &Path, contract: &Contract) -> Result<bool, String> {
    let (base, new) = (load(base)?, load(new)?);
    let mut regressed = false;
    for (workload, base_runs) in &base {
        let Some(new_runs) = new.get(workload) else {
            println!("{workload}: no runs of the change");
            continue;
        };
        println!(
            "{workload}: {} base runs, {} new runs",
            base_runs.len(),
            new_runs.len()
        );
        for spec in &contract.end_to_end {
            let pick = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get(&spec.name).copied())
                    .collect()
            };
            let (b, n) = (pick(base_runs), pick(new_runs));
            if b.is_empty() || n.is_empty() {
                println!("  {}: missing", spec.name);
                continue;
            }
            let verdict = judge(spec, &b, &n);
            regressed |= verdict == Verdict::Regression;
            let (mb, mn) = (quantile(&b, 0.5), quantile(&n, 0.5));
            println!(
                "  {name} [{unit}, {better} is better, bound {bound}, allowance {allow} {unit}]: \
                 base {mb} (q1 {bq1}, q3 {bq3}) -> new {mn} (q1 {nq1}, q3 {nq3}); \
                 ratio {ratio:.4} of base {mb} {unit}: {verdict:?}",
                name = spec.name,
                unit = spec.unit,
                better = spec.better,
                bound = spec.bound.unwrap_or(0.0),
                allow = allowance(spec, mb),
                bq1 = quantile(&b, 0.25),
                bq3 = quantile(&b, 0.75),
                nq1 = quantile(&n, 0.25),
                nq3 = quantile(&n, 0.75),
                ratio = mn / mb,
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(better: &str, bound: f64) -> Spec {
        Spec {
            name: "wall_s".into(),
            unit: "s".into(),
            better: better.into(),
            bound: Some(bound),
        }
    }

    const BASE: [f64; 10] = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00];

    #[test]
    fn a_clear_win_is_a_gain() {
        let new: Vec<f64> = BASE.iter().map(|x| x * 0.8).collect();
        assert_eq!(judge(&spec("lower", 0.1), &BASE, &new), Verdict::Gain);
        assert_eq!(judge(&spec("higher", 0.1), &new, &BASE), Verdict::Gain);
    }

    #[test]
    fn a_median_worse_than_the_bound_is_a_regression() {
        let new: Vec<f64> = BASE.iter().map(|x| x * 1.2).collect();
        assert_eq!(judge(&spec("lower", 0.1), &BASE, &new), Verdict::Regression);
        assert_eq!(judge(&spec("higher", 0.1), &BASE, &new), Verdict::Gain);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [1.0, 1.3, 0.8, 1.2, 0.9, 1.1, 0.7, 1.25, 1.0, 0.95];
        assert_eq!(
            judge(&spec("lower", 0.1), &BASE, &noisy),
            Verdict::Unresolved
        );
        assert_eq!(judge(&spec("lower", 0.1), &BASE, &BASE), Verdict::Unchanged);
    }

    #[test]
    fn set_up_regresses_only_beyond_its_floor() {
        let setup = Spec {
            name: "setup_s".into(),
            ..spec("lower", 0.25)
        };
        let base: Vec<f64> = BASE.iter().map(|x| x * 1e-4).collect();
        let doubled: Vec<f64> = base.iter().map(|x| x * 2.0).collect();
        assert_eq!(judge(&setup, &base, &doubled), Verdict::Unchanged);
        let slower: Vec<f64> = base.iter().map(|x| x + 0.025).collect();
        assert_eq!(judge(&setup, &base, &slower), Verdict::Regression);
    }

    #[test]
    fn eight_of_ten_pairs_is_not_a_gain() {
        let mut new: Vec<f64> = BASE.iter().map(|x| x * 0.95).collect();
        new[0] = 1.5;
        new[1] = 1.5;
        assert_ne!(judge(&spec("lower", 0.1), &BASE, &new), Verdict::Gain);
    }
}
