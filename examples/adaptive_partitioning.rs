//! SVP vs AVP: static partitions against adaptive chunks + work stealing.
//!
//! The paper (§6) compares Apuama's Simple Virtual Partitioning with the
//! Adaptive Virtual Partitioning of SmaQ. This example runs both executors
//! over the same replicas — first with uniform nodes, then with one node
//! artificially 5× slower — and prints the per-node work distribution, so
//! you can watch AVP's work stealing route keys around the straggler while
//! SVP's makespan stays pinned to it.
//!
//! ```text
//! cargo run --release --example adaptive_partitioning
//! ```

use apuama::{execute_avp, AvpConfig, Rewritten};
use apuama_sim::{SimCluster, SimClusterConfig};
use apuama_tpch::{generate, QueryParams, TpchConfig, TpchQuery};

fn main() {
    let data = generate(TpchConfig {
        scale_factor: 0.005,
        seed: 42,
    });
    let nodes = 4;
    let cluster = SimCluster::new(&data, SimClusterConfig::paper(nodes)).expect("cluster");
    let sql = TpchQuery::Q6.sql(&QueryParams::default());
    println!("query: Q6 over {nodes} nodes\n");

    for (scenario, straggler_factor) in [("uniform nodes", 1.0f64), ("node 0 is 5x slower", 5.0)] {
        println!("=== {scenario} ===");
        let slowdown = |node: usize, ms: f64| if node == 0 { ms * straggler_factor } else { ms };

        // SVP: static ranges.
        cluster.drop_caches();
        let Rewritten::Svp(plan) = cluster.rewrite(&sql).expect("parses") else {
            panic!("Q6 must be SVP-eligible");
        };
        let mut svp_makespan = 0.0f64;
        print!("SVP  per-node ms:");
        for node in 0..plan.ranges.len() {
            let (_, ms) = cluster.exec_range(node, &plan, node).expect("subquery");
            let ms = slowdown(node, ms);
            print!(" {ms:7.1}");
            svp_makespan = svp_makespan.max(ms);
        }
        println!("   -> makespan {svp_makespan:.1} ms");

        // AVP: adaptive chunks with stealing.
        cluster.drop_caches();
        let template = cluster.template(&sql).expect("parses").expect("eligible");
        let outcome = execute_avp(&template, nodes, AvpConfig::default(), |node, sub| {
            let (out, ms) = cluster.exec_subquery(node, sub)?;
            Ok((out, slowdown(node, ms)))
        })
        .expect("avp");
        print!("AVP  per-node ms:");
        for t in &outcome.per_node {
            print!(" {:7.1}", t.cost);
        }
        println!("   -> makespan {:.1} ms", outcome.makespan_cost);
        print!("AVP  keys/node:  ");
        for t in &outcome.per_node {
            print!(" {:7}", t.keys);
        }
        println!();
        print!("AVP  chunks/node:");
        for t in &outcome.per_node {
            print!(" {:7}", t.chunks);
        }
        println!("\n");
    }
    println!(
        "With uniform nodes the two tie; with a straggler, AVP's stealing\n\
         shifts keys to the fast nodes and cuts the makespan roughly in half."
    );
}
