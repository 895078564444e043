//! The A/A command: the same build against itself.
//!
//! Two sets of runs, interleaved (A B A B …) so that drift of the host
//! hits both, every run in a process of its own and with a seed of its
//! own, as the acceptance check runs them. A cell misses when the two
//! medians differ by more than the metric's bound (half of it where a later
//! change may claim a gain). The inter-quartile ranges are printed beside
//! them; a cell whose runs spread wider than its bound is marked
//! unresolved, because its medians agreeing says little.

use std::process::Command;

use crate::metrics::{EndToEnd, END_TO_END};
use crate::report::parse_summary;
use crate::stats::{median, relative_iqr};
use crate::workload::Workload;

/// One workload/metric pair of the A/A table.
#[derive(Debug, Clone)]
pub struct Cell {
    pub workload: Workload,
    pub metric: &'static EndToEnd,
    pub median_a: f64,
    pub median_b: f64,
    pub iqr_a: f64,
    pub iqr_b: f64,
}

impl Cell {
    /// Relative difference of the medians, signed so that positive means
    /// set B is worse.
    pub fn difference(&self) -> f64 {
        let d = self.median_b / self.median_a - 1.0;
        if self.metric.higher_is_better {
            -d
        } else {
            d
        }
    }

    /// A later change may claim a gain on this cell, so it has to repeat
    /// within half the bound.
    pub fn claimable(&self) -> bool {
        self.metric.claimable_on.contains(&self.workload)
    }

    pub fn misses(&self) -> bool {
        let limit = if self.claimable() {
            self.metric.bound / 2.0
        } else {
            self.metric.bound
        };
        self.difference().abs() > limit
    }

    /// The runs of a set spread wider than the bound.
    pub fn unresolved(&self) -> bool {
        self.iqr_a.max(self.iqr_b) > self.metric.bound
    }

    pub fn verdict(&self) -> &'static str {
        if self.misses() {
            "MISS"
        } else if self.unresolved() {
            "unresolved"
        } else {
            "ok"
        }
    }
}

fn run_once(workload: Workload, seed: u64, seconds: u64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let context = || {
        format!(
            "{} seed {seed}: {}",
            workload.name(),
            String::from_utf8_lossy(&out.stderr)
        )
    };
    if !out.status.success() {
        return Err(format!("run failed, {}", context()));
    }
    // A run the host disturbed says so; pass it on beside its numbers.
    for warning in String::from_utf8_lossy(&out.stderr)
        .lines()
        .filter(|l| l.starts_with("warning:"))
    {
        eprintln!("  {warning}");
    }
    match parse_summary(line) {
        Some(s) if s.correct && s.failed == 0 => Ok(s.metrics),
        Some(_) => Err(format!("run was not correct, {}", context())),
        None => Err(format!("no summary line, {}", context())),
    }
}

/// Runs the A/A comparison and prints its table; `Ok(true)` when no cell
/// missed.
pub fn run(workloads: &[Workload], runs: usize, seconds: u64) -> Result<bool, String> {
    let mut cells = Vec::new();
    for &workload in workloads {
        let mut sets: [Vec<Vec<(String, f64)>>; 2] = [Vec::new(), Vec::new()];
        for i in 0..runs {
            for (set, results) in sets.iter_mut().enumerate() {
                let seed = (1 + i + set * runs) as u64;
                eprintln!(
                    "{} set {} run {} (seed {seed})",
                    workload.name(),
                    ["A", "B"][set],
                    i + 1
                );
                let metrics = run_once(workload, seed, seconds)?;
                let values: Vec<String> = metrics
                    .iter()
                    .map(|(name, v)| format!("{name} {v:.4}"))
                    .collect();
                eprintln!("  {}", values.join("  "));
                results.push(metrics);
            }
        }
        for metric in &END_TO_END {
            let values = |set: &Vec<Vec<(String, f64)>>| -> Vec<f64> {
                set.iter()
                    .filter_map(|run| run.iter().find(|m| m.0 == metric.name).map(|m| m.1))
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            if a.len() != runs || b.len() != runs {
                return Err(format!("a run did not report {}", metric.name));
            }
            cells.push(Cell {
                workload,
                metric,
                median_a: median(&a),
                median_b: median(&b),
                iqr_a: relative_iqr(&a),
                iqr_b: relative_iqr(&b),
            });
        }
    }
    println!("| workload | metric | median A | IQR A | median B | IQR B | B vs A | bound | |");
    println!("|---|---|---:|---:|---:|---:|---:|---:|---|");
    for c in &cells {
        println!(
            "| {} | `{}` {} | {:.4} | {:.1} % | {:.4} | {:.1} % | {:+.1} % | {:.0} % | {} |",
            c.workload.name(),
            c.metric.name,
            if c.claimable() { "●" } else { "" },
            c.median_a,
            c.iqr_a * 100.0,
            c.median_b,
            c.iqr_b * 100.0,
            c.difference() * 100.0,
            c.metric.bound * 100.0,
            c.verdict(),
        );
    }
    Ok(cells.iter().all(|c| !c.misses()))
}
