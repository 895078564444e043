//! An interactive SQL shell over a live Apuama cluster.
//!
//! Spins up a 4-node replicated TPC-H cluster (SF 0.002) with Apuama
//! between the C-JDBC controller and the replicas, then reads statements
//! from stdin. Anything you can send over the virtual database works:
//! OLAP queries get SVP-parallelized, writes are broadcast, `explain ...`
//! shows a node's plan. Shell commands: `\\q` quits, `\\counters` prints
//! the per-replica transaction counters, `\\svp <query>` shows the SVP
//! rewrite without executing.
//!
//! ```text
//! cargo run --release --example sql_shell
//! echo "select count(*) as n from lineitem" | cargo run --release --example sql_shell
//! ```

use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Instant;

use apuama::{ApuamaConfig, ApuamaEngine, DataCatalog, Rewritten};
use apuama_cjdbc::{Connection, Controller, ControllerConfig, EngineNode, NodeConnection};
use apuama_engine::{Database, QueryOutput};
use apuama_tpch::{generate, load_into, TpchConfig};

fn main() {
    eprintln!("loading 4 replicas of TPC-H SF 0.002 ...");
    let data = generate(TpchConfig {
        scale_factor: 0.002,
        seed: 42,
    });
    let mut conns: Vec<Arc<dyn Connection>> = Vec::new();
    for i in 0..4 {
        let mut db = Database::in_memory();
        load_into(&mut db, &data).expect("replica loads");
        conns.push(Arc::new(NodeConnection::new(EngineNode::new(
            format!("node-{i}"),
            db,
        ))));
    }
    let engine = ApuamaEngine::new(
        conns,
        DataCatalog::tpch(data.config.orders() as i64),
        ApuamaConfig::default(),
    );
    let controller = Controller::new(engine.connections(), ControllerConfig::default());
    eprintln!("ready. tables: region nation supplier part partsupp customer orders lineitem");
    eprintln!("commands: \\q quit, \\counters, \\svp <query>. statements end at newline.");

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        eprint!("apuama> ");
        let _ = std::io::stderr().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("stdin error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "\\q" || line == "quit" || line == "exit" {
            break;
        }
        if line == "\\counters" {
            println!("replica txn counters: {:?}", engine.txn_counters());
            continue;
        }
        if let Some(query) = line.strip_prefix("\\svp ") {
            match engine.rewriter().rewrite(query, engine.node_count()) {
                Ok(Rewritten::Svp(plan)) => {
                    println!("partitioned: {:?}", plan.partitioned_tables);
                    for (i, &(lo, hi)) in plan.ranges.iter().enumerate() {
                        println!("node {i}: {}", plan.template.subquery_for_range(lo, hi));
                    }
                    println!("compose: {}", plan.composition_sql);
                }
                Ok(Rewritten::Passthrough { reason }) => println!("passthrough: {reason}"),
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        let started = Instant::now();
        match controller.execute(line) {
            Ok((result, backend)) => {
                print_result(&mut out, &result);
                eprintln!(
                    "({} rows, {:.1} ms, via backend {backend})",
                    result.rows.len().max(result.rows_affected as usize),
                    started.elapsed().as_secs_f64() * 1000.0
                );
            }
            Err(e) => println!("error: {e}"),
        }
    }
}

fn print_result(out: &mut impl Write, result: &QueryOutput) {
    if result.columns.is_empty() {
        let _ = writeln!(out, "ok ({} rows affected)", result.rows_affected);
        return;
    }
    // Column widths from header + data.
    let mut widths: Vec<usize> = result.columns.iter().map(String::len).collect();
    let rendered: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| r.iter().map(|v| v.to_string()).collect())
        .collect();
    for row in &rendered {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join(" | ")
    };
    let header: Vec<String> = result.columns.clone();
    let _ = writeln!(out, "{}", line(&header));
    let _ = writeln!(
        out,
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 3 * widths.len())
    );
    for row in &rendered {
        let _ = writeln!(out, "{}", line(row));
    }
}
