//! `--compare a.json b.json`: the run-to-run agreement check. Each file holds
//! the standard output of one set of runs (one report object per line; other
//! lines are skipped), any number of seeds per workload and mode. Runs are
//! matched by workload, seed and mode. An end-to-end metric is judged on the
//! set's median over its runs, as the driver judges it: single runs on this
//! host have a tail no bound can hold (README, "Steadiness"). Counts and
//! simulated values are judged run by run.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::{self, as_f64, as_str, get, Json};
use crate::spec::{Kind, END_TO_END, PER_LAYER};
use crate::stats::Summary;

type RunKey = (String, u64, bool);
type Runs = BTreeMap<RunKey, Json>;

/// The report lines of `text`, by (workload, seed, traced); a later line
/// replaces an earlier one with the same key.
fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = BTreeMap::new();
    for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
        let doc = json::parse(line)?;
        let (Some(workload), Some(seed), Some(Json::Bool(traced))) =
            (get(&doc, "workload").and_then(as_str), get(&doc, "seed").and_then(as_f64), get(&doc, "trace"))
        else {
            continue;
        };
        runs.insert((workload.to_string(), seed as u64, *traced), doc);
    }
    Ok(runs)
}

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let runs = parse_runs(&text).map_err(|e| format!("{path}: {e}"))?;
    if runs.is_empty() {
        return Err(format!("{path}: no benchmark reports found"));
    }
    Ok(runs)
}

/// One metric's median in one report.
fn median(doc: &Json, section: &str, name: &str) -> Option<f64> {
    get(get(get(doc, section)?, name)?, "median").and_then(as_f64)
}

/// Prints one row per workload x metric, each side summarised over its runs'
/// medians, and returns whether the two sets agree: both hold the same
/// runs, no operation failed, every end-to-end metric's median over the runs
/// is within its bound, and every count and simulated value is identical in
/// every matched pair of runs.
fn compare_runs(a: &Runs, b: &Runs, name_a: &str, name_b: &str) -> bool {
    let mut agree = true;
    for (runs, other, other_name) in [(a, b, name_b), (b, a, name_a)] {
        for key in runs.keys().filter(|k| !other.contains_key(*k)) {
            println!("{} seed {} trace {}: missing from {other_name}", key.0, key.1, key.2);
            agree = false;
        }
    }
    for (runs, name) in [(a, name_a), (b, name_b)] {
        for ((workload, seed, _), doc) in runs {
            let failed = get(doc, "failed").and_then(as_f64).unwrap_or(f64::NAN);
            if failed != 0.0 {
                println!("{workload} seed {seed}: {failed} failed operations in {name}");
                agree = false;
            }
        }
    }
    println!(
        "{:<22} {:<40} {:>8} | {:>14} {:>25} {:>4} | {:>14} {:>25} {:>4} | {:>8} verdict",
        "workload",
        "metric",
        "unit",
        "a median",
        "a [q1, q3]",
        "runs",
        "b median",
        "b [q1, q3]",
        "runs",
        "diff"
    );
    let workloads: BTreeSet<&str> = a.keys().map(|key| key.0.as_str()).collect();
    for workload in workloads {
        for (traced, section, table) in [(false, "end_to_end", END_TO_END), (true, "per_layer", PER_LAYER)] {
            let pairs: Vec<(&Json, &Json)> = a
                .iter()
                .filter(|(key, _)| key.0 == workload && key.2 == traced)
                .filter_map(|(key, doc_a)| Some((doc_a, b.get(key)?)))
                .collect();
            if pairs.is_empty() {
                continue;
            }
            for metric in table {
                let medians: Option<Vec<(f64, f64)>> = pairs
                    .iter()
                    .map(|(doc_a, doc_b)| {
                        Some((median(doc_a, section, metric.name)?, median(doc_b, section, metric.name)?))
                    })
                    .collect();
                let Some(medians) = medians else {
                    println!("{workload:<22} {:<40} missing from a report", metric.name);
                    agree = false;
                    continue;
                };
                let sa = Summary::of(&medians.iter().map(|m| m.0).collect::<Vec<_>>());
                let sb = Summary::of(&medians.iter().map(|m| m.1).collect::<Vec<_>>());
                let diff = if sa.median == sb.median {
                    0.0
                } else {
                    (sb.median - sa.median).abs() / sa.median.abs().max(f64::MIN_POSITIVE)
                };
                let verdict = match (metric.kind, metric.bound) {
                    (Kind::Exact, _) if medians.iter().all(|m| m.0 == m.1) => "same",
                    (Kind::Exact, _) => "DIFFERS",
                    (Kind::Host, Some(bound)) if diff <= bound => "within bound",
                    (Kind::Host, Some(_)) => "OUT OF BOUND",
                    (Kind::Host, None) => "-",
                };
                agree &= !matches!(verdict, "DIFFERS" | "OUT OF BOUND");
                println!(
                    "{workload:<22} {:<40} {:>8} | {:>14.4} {:>25} {:>4} | {:>14.4} {:>25} {:>4} | {:>7.2}% {verdict}",
                    metric.name,
                    metric.unit,
                    sa.median,
                    format!("[{:.4}, {:.4}]", sa.q1, sa.q3),
                    sa.n,
                    sb.median,
                    format!("[{:.4}, {:.4}]", sb.q1, sb.q3),
                    sb.n,
                    diff * 100.0,
                );
            }
        }
    }
    println!("{}", if agree { "AGREE" } else { "DISAGREE" });
    agree
}

pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    Ok(compare_runs(&load(path_a)?, &load(path_b)?, path_a, path_b))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One report line with every metric of its mode: host metrics at `host`,
    /// counts and simulated values at `exact`.
    fn report(seed: u64, traced: bool, host: f64, exact: f64) -> String {
        let (section, table) = if traced { ("per_layer", PER_LAYER) } else { ("end_to_end", END_TO_END) };
        let rows = table
            .iter()
            .map(|m| {
                let value = if m.kind == Kind::Exact { exact } else { host };
                (m.name.to_string(), Json::obj([("median", value.into())]))
            })
            .collect();
        Json::obj([
            ("workload", Json::str("cache_stw")),
            ("seed", seed.into()),
            ("trace", traced.into()),
            ("failed", 0u64.into()),
            (section, Json::Obj(rows)),
        ])
        .render()
    }

    fn set(lines: &[String]) -> Runs {
        parse_runs(&lines.join("\n")).unwrap()
    }

    #[test]
    fn end_to_end_is_judged_on_the_median_over_the_runs() {
        let a =
            set(&[report(1, false, 100.0, 0.0), report(2, false, 101.0, 0.0), report(3, false, 102.0, 0.0)]);
        // One run of three lands in a loud minute: the set's median holds.
        let b =
            set(&[report(1, false, 100.0, 0.0), report(2, false, 160.0, 0.0), report(3, false, 99.0, 0.0)]);
        assert!(compare_runs(&a, &b, "a", "b"));
        // All three do: it does not.
        let c =
            set(&[report(1, false, 140.0, 0.0), report(2, false, 160.0, 0.0), report(3, false, 150.0, 0.0)]);
        assert!(!compare_runs(&a, &c, "a", "c"));
    }

    #[test]
    fn a_count_that_differs_in_one_run_disagrees() {
        let a = set(&[report(1, true, 5.0, 7.0), report(2, true, 5.0, 7.0), report(3, true, 5.0, 7.0)]);
        let same = set(&[report(1, true, 9.0, 7.0), report(2, true, 9.0, 7.0), report(3, true, 9.0, 7.0)]);
        assert!(compare_runs(&a, &same, "a", "b"), "host per-layer values are printed, not judged");
        let off = set(&[report(1, true, 5.0, 7.0), report(2, true, 5.0, 7.0), report(3, true, 5.0, 8.0)]);
        assert!(!compare_runs(&a, &off, "a", "b"), "the medians agree, run 3 does not");
    }

    #[test]
    fn a_run_missing_from_either_set_disagrees() {
        let a = set(&[report(1, false, 100.0, 0.0), report(2, false, 100.0, 0.0)]);
        let b = set(&[report(1, false, 100.0, 0.0)]);
        assert!(!compare_runs(&a, &b, "a", "b"));
        assert!(!compare_runs(&b, &a, "b", "a"));
    }
}
