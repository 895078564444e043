//! Shared harness for the figure-reproduction binaries.
//!
//! Every binary sweeps cluster sizes, runs the paper's workload through the
//! simulator, and prints the series the corresponding figure plots (plus a
//! CSV under `target/figures/` for replotting). Environment knobs:
//!
//! * `APUAMA_SF` — TPC-H scale factor (default 0.01). The paper uses SF 5
//!   on 32 physical nodes; the default keeps a full five-figure run under
//!   a few minutes on a laptop while preserving every shape (see
//!   DESIGN.md §2 on why the RAM:database ratio, not the absolute size, is
//!   what matters).
//! * `APUAMA_NODES` — comma-separated node counts (default `1,2,4,8,16,32`).
//! * `APUAMA_SEED` — generator/parameter seed (default 42).
//!
//! Every cluster runs the paper's configuration, SVP; the `ablation`
//! binary builds its comparison arms (the inter-query baseline, AVP, the
//! balancer policies, the failure arm) itself.

use std::io::Write as _;

use apuama_sim::{SimCluster, SimClusterConfig};
use apuama_tpch::{generate, TpchConfig, TpchData};

/// Harness configuration resolved from the environment.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    pub scale_factor: f64,
    pub node_counts: Vec<usize>,
    pub seed: u64,
}

impl HarnessConfig {
    /// Reads `APUAMA_SF`, `APUAMA_NODES`, `APUAMA_SEED`.
    pub fn from_env() -> HarnessConfig {
        let scale_factor = std::env::var("APUAMA_SF")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.01);
        let node_counts = std::env::var("APUAMA_NODES")
            .ok()
            .map(|v| {
                v.split(',')
                    .filter_map(|s| s.trim().parse().ok())
                    .collect::<Vec<usize>>()
            })
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| vec![1, 2, 4, 8, 16, 32]);
        let seed = std::env::var("APUAMA_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(42);
        HarnessConfig {
            scale_factor,
            node_counts,
            seed,
        }
    }

    /// Generates the dataset once (it is cloned into each cluster).
    pub fn dataset(&self) -> TpchData {
        generate(TpchConfig {
            scale_factor: self.scale_factor,
            seed: self.seed,
        })
    }

    /// Builds a paper-configured cluster of `n` nodes over `data`.
    pub fn cluster(&self, data: &TpchData, n: usize) -> SimCluster {
        SimCluster::new(data, SimClusterConfig::paper(n))
            .expect("replica loading cannot fail on generated data")
    }

    /// Refresh-transaction count for the mixed-workload figures: the
    /// paper's 52,500 transactions were for SF 5; scale proportionally,
    /// keep it even (insert half + delete half) and at least 20.
    pub fn update_txns(&self) -> usize {
        let scaled = 52_500.0 * self.scale_factor / 5.0;
        ((scaled as usize).max(20) / 2) * 2
    }
}

/// A result table: header plus rows, printed aligned and mirrored to CSV.
pub struct FigureTable {
    pub title: String,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl FigureTable {
    pub fn new(title: impl Into<String>, columns: &[&str]) -> FigureTable {
        FigureTable {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len());
        self.rows.push(cells);
    }

    /// Prints the aligned table to stdout.
    pub fn print(&self) {
        println!("\n== {} ==", self.title);
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:>width$}  ", c, width = widths[i]));
            }
            s
        };
        println!("{}", line(&self.columns));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            println!("{}", line(row));
        }
    }

    /// Writes `target/figures/<name>.csv`.
    pub fn write_csv(&self, name: &str) -> std::io::Result<std::path::PathBuf> {
        let dir = std::path::Path::new("target/figures");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "{}", self.columns.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(path)
    }
}

/// Formats a millisecond value compactly.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 10_000.0 {
        format!("{:.1}s", ms / 1000.0)
    } else {
        format!("{ms:.1}ms")
    }
}

/// Formats a ratio with two decimals.
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        let c = HarnessConfig {
            scale_factor: 0.01,
            node_counts: vec![1, 2, 4],
            seed: 42,
        };
        assert_eq!(c.update_txns(), 104);
    }

    #[test]
    fn table_roundtrip() {
        let mut t = FigureTable::new("t", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.print();
        let p = t.write_csv("test_table").unwrap();
        let s = std::fs::read_to_string(p).unwrap();
        assert_eq!(s, "a,b\n1,2\n");
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_ms(1234.5), "1234.5ms");
        assert_eq!(fmt_ms(22_000.0), "22.0s");
        assert_eq!(fmt_ratio(1.234), "1.23");
    }
}
