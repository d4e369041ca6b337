//! `benchmark compare A.json… -- B.json…`: judges every (workload,
//! end-to-end metric) pair of a change (B) against its parent (A) with the
//! bounds `BENCHMARK.json` fixes.
//!
//! * **regressed** — B's median is worse than A's by more than the bound.
//! * **improved** — B wins at least nine tenths of the runs paired by
//!   position, and the medians differ by more than A's own interquartile
//!   range.
//! * **unresolved** — either side's run-to-run spread (IQR over median)
//!   exceeds the bound, unless every B run beats every A run; or a side has
//!   fewer than two valid runs.
//! * **unchanged** — otherwise.
//!
//! A flagged run — an open-loop generator behind schedule — offered another
//! load than the workload names, so it is left out of both sides' numbers
//! and counted in the row. Host drift needs no flag: closed-loop and set-up
//! times are already scaled by the host reference timed around them.

use std::collections::BTreeMap;

use crate::report::{parse_bench_doc, RunEntry};
use crate::spec::spec;
use crate::stats::{python_median, quartiles, relative_spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The comparison rule for one metric: `a` are the parent's valid runs,
/// `b` the change's, `bound` the share of A's median B may worsen by.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    if a.len() < 2 || b.len() < 2 {
        return Verdict::Unresolved;
    }
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let (ma, mb) = (python_median(a), python_median(b));
    let worse_by = (mb - ma) / ma.abs() * if lower_is_better { 1.0 } else { -1.0 };
    let every_b_beats_every_a = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let too_wide = |v: &[f64]| relative_spread(v).is_none_or(|s| s > bound);
    if too_wide(a) || too_wide(b) {
        return if every_b_beats_every_a {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        return Verdict::Regressed;
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| better(y, x)).count();
    let (q1, q3) = quartiles(a).expect("two or more runs");
    if worse_by < 0.0 && wins * 10 >= pairs * 9 && (mb - ma).abs() > q3 - q1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Splits a set into its valid runs and the number that flagged themselves.
fn valid(runs: Vec<RunEntry>) -> (Vec<RunEntry>, usize) {
    let total = runs.len();
    let kept: Vec<RunEntry> = runs.into_iter().filter(|r| r.flags.is_empty()).collect();
    let flagged = total - kept.len();
    (kept, flagged)
}

fn load(paths: &[String]) -> Result<Vec<RunEntry>, String> {
    let mut runs = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let entries = parse_bench_doc(&text).map_err(|e| format!("{path}: {e}"))?;
        runs.extend(entries.into_iter().filter(|e| !e.trace));
    }
    Ok(runs)
}

/// Prints one row per (workload, metric) and returns whether any metric
/// regressed.
pub fn compare(a_paths: &[String], b_paths: &[String]) -> Result<bool, String> {
    let (a_runs, b_runs) = (load(a_paths)?, load(b_paths)?);
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>9} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "A iqr", "B iqr", "bound"
    );
    for workload in crate::WORKLOADS {
        let side = |runs: &[RunEntry]| -> Vec<RunEntry> {
            runs.iter()
                .filter(|r| r.name == workload)
                .cloned()
                .collect()
        };
        let (a, b) = (side(&a_runs), side(&b_runs));
        if a.is_empty() || b.is_empty() {
            continue;
        }
        let worst = |runs: &[RunEntry]| runs.iter().map(|r| r.fail_frac).fold(0.0, f64::max);
        let (fail_a, fail_b) = (worst(&a), worst(&b));
        let ((a, flagged_a), (b, flagged_b)) = (valid(a), valid(b));
        let note = if flagged_a + flagged_b == 0 {
            String::new()
        } else {
            format!(" (flagged runs left out: A {flagged_a}, B {flagged_b})")
        };
        for m in &spec().end_to_end {
            let values = |runs: &[RunEntry]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&m.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&a), values(&b));
            let bound = m.bound.unwrap_or(0.0);
            let verdict = judge(&va, &vb, m.lower_is_better, bound);
            *counts.entry(verdict.label()).or_default() += 1;
            let (ma, mb) = (python_median(&va), python_median(&vb));
            let pct = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{:.1}%", v * 100.0));
            println!(
                "{:<14} {:<16} {:>12.4} {:>12.4} {:>9} {:>8} {:>8} {:>7}  {}{}",
                workload,
                m.name,
                ma,
                mb,
                pct((ma != 0.0).then(|| (mb - ma) / ma)),
                pct(relative_spread(&va)),
                pct(relative_spread(&vb)),
                pct(Some(bound)),
                verdict.label(),
                note
            );
        }
        // Failures have an absolute bound of zero: any rise regresses, in
        // flagged runs too.
        let verdict = if fail_b > fail_a {
            Verdict::Regressed
        } else {
            Verdict::Unchanged
        };
        *counts.entry(verdict.label()).or_default() += 1;
        println!(
            "{:<14} {:<16} {:>12.4} {:>12.4} {:>9} {:>8} {:>8} {:>7}  {}",
            workload,
            "fail_frac",
            fail_a,
            fail_b,
            "-",
            "-",
            "-",
            "0",
            verdict.label()
        );
    }
    let summary: Vec<String> = counts.iter().map(|(k, n)| format!("{n} {k}")).collect();
    println!("\n{}", summary.join(", "));
    Ok(counts.contains_key("regressed"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUND: f64 = 0.10;

    #[test]
    fn steady_equal_runs_are_unchanged() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [100.2, 99.8, 100.9, 99.1, 100.0];
        assert_eq!(judge(&a, &b, true, BOUND), Verdict::Unchanged);
    }

    #[test]
    fn worsening_past_the_bound_regresses_in_either_direction() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [115.0, 116.0, 114.0, 115.5, 114.5];
        assert_eq!(judge(&a, &slower, true, BOUND), Verdict::Regressed);
        // For a higher-is-better metric the same numbers are a gain.
        assert_eq!(judge(&a, &slower, false, BOUND), Verdict::Improved);
        let fewer = [85.0, 86.0, 84.0, 85.5, 84.5];
        assert_eq!(judge(&a, &fewer, false, BOUND), Verdict::Regressed);
        // Within the bound is not a regression.
        let slightly = [105.0, 106.0, 104.0, 105.5, 104.5];
        assert_ne!(judge(&a, &slightly, true, BOUND), Verdict::Regressed);
    }

    #[test]
    fn a_gain_needs_nine_in_ten_wins_and_to_clear_the_parent_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let faster = [90.0, 91.0, 89.0, 90.5, 89.5];
        assert_eq!(judge(&a, &faster, true, BOUND), Verdict::Improved);
        // Faster median, but one pair in five lost: 80% wins is not enough.
        let mixed = [90.0, 91.0, 89.0, 101.0, 89.5];
        assert_eq!(judge(&a, &mixed, true, BOUND), Verdict::Unchanged);
        // Every pair won, but by less than the parent's own IQR.
        let a_wide = [100.0, 104.0, 96.0, 102.0, 98.0];
        let nudged = [99.0, 103.0, 95.0, 101.0, 97.0];
        assert_eq!(judge(&a_wide, &nudged, true, BOUND), Verdict::Unchanged);
    }

    #[test]
    fn wide_spreads_and_single_runs_are_unresolved() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let noisy = [80.0, 130.0, 95.0, 120.0, 100.0];
        assert_eq!(judge(&a, &noisy, true, BOUND), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &a, true, BOUND), Verdict::Unresolved);
        // ...unless every run of the change beats every run of the parent.
        let noisy_but_faster = [60.0, 90.0, 70.0, 85.0, 75.0];
        assert_eq!(judge(&a, &noisy_but_faster, true, BOUND), Verdict::Improved);
        assert_eq!(judge(&a[..1], &a, true, BOUND), Verdict::Unresolved);
    }

    fn run(flags: Vec<String>) -> RunEntry {
        RunEntry {
            name: "plan-t2".into(),
            trace: false,
            fail_frac: 0.0,
            flags,
            metrics: BTreeMap::new(),
        }
    }

    #[test]
    fn only_self_flagged_runs_are_left_out() {
        assert_eq!(valid(vec![run(vec![]), run(vec![])]).1, 0);
        let lagging = vec![run(vec!["loadgen.lag_p99_ms 12 > 10".into()]), run(vec![])];
        let (kept, flagged) = valid(lagging);
        assert_eq!((kept.len(), flagged), (1, 1));
        assert!(kept[0].flags.is_empty());
    }
}
