//! The paper's figures, one per argument: `fig <2|3a|3b|4a|4b|all>`.
//!
//! Every figure sweeps `APUAMA_NODES` over one dataset (generated once,
//! also under `all`), prints the series the paper plots and mirrors it to
//! `target/figures/<figure>_*.csv`. Figure 2 times isolated queries; the
//! other four run a [`WorkloadSpec`] and differ only in it and in which
//! metric they tabulate: throughput of three read sequences (3a, 4a) or
//! the time of n sequences on n nodes (3b, 4b), without (3) or with (4) the
//! refresh stream beside them.

use apuama_bench::{fmt_ms, fmt_ratio, FigureTable, HarnessConfig};
use apuama_sim::{run_isolated, run_workload, SimReport, WorkloadSpec};
use apuama_tpch::{QueryParams, TpchData, ALL_QUERIES};

const FIGURES: [&str; 5] = ["2", "3a", "3b", "4a", "4b"];

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_default();
    let figures: &[&str] = match FIGURES.iter().position(|f| *f == arg) {
        Some(i) => &FIGURES[i..=i],
        None if arg == "all" => &FIGURES,
        None => {
            eprintln!("usage: fig <2|3a|3b|4a|4b|all>");
            std::process::exit(2);
        }
    };
    let cfg = HarnessConfig::from_env();
    let data = cfg.dataset();
    for &figure in figures {
        eprintln!(
            "\nfig{figure}: SF={} nodes={:?} seed={}",
            cfg.scale_factor, cfg.node_counts, cfg.seed
        );
        match figure {
            "2" => fig2(&cfg, &data),
            "3a" => throughput(&cfg, &data, false),
            "3b" => scaleup(&cfg, &data, false),
            "4a" => throughput(&cfg, &data, true),
            _ => scaleup(&cfg, &data, true),
        }
    }
}

fn finish(table: &FigureTable, csv: &str) {
    table.print();
    let path = table.write_csv(csv).expect("csv writable");
    eprintln!("wrote {}", path.display());
}

/// Figure 2 — speedup experiments: normalized execution time of each
/// evaluation query, isolated, for 1–32 nodes.
///
/// Paper methodology (§5): each (query, cluster size) runs five times; the
/// metric is the mean of the last four (warm) runs, normalized by the
/// one-node time. The paper reports ~50% at 2 nodes for every query,
/// super-linear drops for the highly selective Q4/Q6 once the virtual
/// partition fits in node memory, and near-linear scaling for the
/// CPU-bound Q1/Q21.
fn fig2(cfg: &HarnessConfig, data: &TpchData) {
    let params = QueryParams::default();

    // times[qi][ni] = warm-mean latency.
    let mut times = vec![vec![0.0f64; cfg.node_counts.len()]; ALL_QUERIES.len()];
    for (ni, &n) in cfg.node_counts.iter().enumerate() {
        let cluster = cfg.cluster(data, n);
        for (qi, q) in ALL_QUERIES.iter().enumerate() {
            cluster.drop_caches();
            let report = run_isolated(&cluster, &q.sql(&params), 5)
                .unwrap_or_else(|e| panic!("{} on {n} nodes failed: {e}", q.label()));
            times[qi][ni] = report.warm_mean_ms();
            eprintln!(
                "  {} n={n}: cold={:.1}ms warm={:.1}ms",
                q.label(),
                report.cold_ms(),
                report.warm_mean_ms()
            );
        }
    }

    // Normalized table (1.0 at the first configuration), as the paper
    // plots it, plus the ideal-linear reference.
    let mut header: Vec<&str> = vec!["nodes", "linear"];
    let labels: Vec<String> = ALL_QUERIES.iter().map(|q| q.label()).collect();
    header.extend(labels.iter().map(String::as_str));
    let mut table = FigureTable::new(
        "Fig. 2 — normalized query execution time (isolated queries)",
        &header,
    );
    let base_nodes = cfg.node_counts[0] as f64;
    for (ni, &n) in cfg.node_counts.iter().enumerate() {
        let mut row = vec![n.to_string(), fmt_ratio(base_nodes / n as f64)];
        row.extend(times.iter().map(|qt| fmt_ratio(qt[ni] / qt[0])));
        table.push_row(row);
    }
    finish(&table, "fig2_speedup");

    // Absolute times for reference.
    let mut abs = FigureTable::new("Fig. 2 — absolute warm-mean latency (ms)", &header);
    for (ni, &n) in cfg.node_counts.iter().enumerate() {
        let mut row = vec![n.to_string(), String::from("-")];
        row.extend(times.iter().map(|qt| format!("{:.1}", qt[ni])));
        abs.push_row(row);
    }
    finish(&abs, "fig2_absolute");
}

/// One workload on a fresh `n`-node cluster.
fn run(cfg: &HarnessConfig, data: &TpchData, n: usize, spec: WorkloadSpec) -> SimReport {
    let report = run_workload(&mut cfg.cluster(data, n), spec).expect("workload runs");
    eprintln!(
        "  n={n}: {} reads + {} updates in {:.1}s",
        report.read_queries_done,
        report.updates_done,
        report.makespan_ms / 1000.0
    );
    report
}

/// Figures 3(a) and 4(a) — throughput (queries per minute) of three
/// concurrent read-only query sequences, alone or beside one update
/// sequence of `update_txns` transactions, versus the linear-scaling
/// reference.
///
/// Paper §5, read-only: "the throughput rises super-linearly. With 2 nodes,
/// it is near linear. With 4 nodes, the throughput is almost 2 times higher
/// than if a linear gain was obtained. From 8 to 32 nodes, the throughput
/// is constantly about 6 times higher than linear gain." Mixed: "From 2 to
/// 8 nodes, performance of Apuama is near linear. For 16 and 32 nodes, the
/// consistency protocol makes the update propagation delay hurt
/// performance. There is almost no performance gain from 16 to 32 nodes."
fn throughput(cfg: &HarnessConfig, data: &TpchData, mixed: bool) {
    let (title, csv, update_txns) = if mixed {
        (
            "Fig. 4(a) — throughput, 3 read-only sequences + 1 update sequence (queries/min)",
            "fig4a_mixed_throughput",
            cfg.update_txns(),
        )
    } else {
        (
            "Fig. 3(a) — throughput, 3 concurrent read-only sequences (queries/min)",
            "fig3a_throughput",
            0,
        )
    };
    let mut columns = vec!["nodes", "qpm", "updates", "linear_qpm", "vs_linear"];
    if !mixed {
        columns.remove(2);
    }
    let mut table = FigureTable::new(title, &columns);
    let mut base_qpm = None;
    let base_nodes = cfg.node_counts[0] as f64;
    for &n in &cfg.node_counts {
        let spec = WorkloadSpec {
            read_streams: 3,
            rounds: 2,
            update_txns,
            seed: cfg.seed,
        };
        let report = run(cfg, data, n, spec);
        let qpm = report.throughput_qpm();
        let base = *base_qpm.get_or_insert(qpm);
        let linear = base * n as f64 / base_nodes;
        let mut row = vec![
            n.to_string(),
            format!("{qpm:.2}"),
            report.updates_done.to_string(),
            format!("{linear:.2}"),
            fmt_ratio(qpm / linear),
        ];
        if !mixed {
            row.remove(2);
        }
        table.push_row(row);
    }
    finish(&table, csv);
}

/// Figures 3(b) and 4(b) — scale-up: total execution time of n concurrent
/// read-only sequences on n nodes, alone or beside one update sequence.
///
/// Paper §5, read-only: "the ideal situation is that the execution time
/// would be the same for all cluster configurations, as the Linear curve
/// shows. [...] From 8 to 32 nodes, the performance is always about 3 times
/// better than expected." Mixed: "There is a performance gain up to 16
/// nodes. However, for 32 nodes, the performance is almost the same as with
/// 4 nodes. This is due to the replica synchronization when using a large
/// number of nodes."
fn scaleup(cfg: &HarnessConfig, data: &TpchData, mixed: bool) {
    let (title, csv, update_txns) = if mixed {
        (
            "Fig. 4(b) — scale-up: n read-only sequences + 1 update sequence on n nodes",
            "fig4b_mixed_scaleup",
            cfg.update_txns(),
        )
    } else {
        (
            "Fig. 3(b) — scale-up: time for n read-only sequences on n nodes",
            "fig3b_scaleup",
            0,
        )
    };
    let mut table = FigureTable::new(
        title,
        &["nodes", "sequences", "time", "linear_time", "linear/actual"],
    );
    let mut base_ms = None;
    for &n in &cfg.node_counts {
        let spec = WorkloadSpec {
            read_streams: n,
            rounds: 1,
            update_txns,
            seed: cfg.seed,
        };
        let ms = run(cfg, data, n, spec).read_span_ms();
        let base = *base_ms.get_or_insert(ms);
        table.push_row(vec![
            n.to_string(),
            n.to_string(),
            fmt_ms(ms),
            fmt_ms(base),
            fmt_ratio(base / ms),
        ]);
    }
    finish(&table, csv);
}
