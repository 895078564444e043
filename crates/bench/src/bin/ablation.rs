//! Ablation benches for the design choices DESIGN.md §5 calls out:
//!
//! 1. **SVP vs inter-query-only** — Apuama against the plain C-JDBC
//!    baseline (the paper's implicit comparator).
//! 2. **Optimizer interference** — sub-queries planned as under
//!    `enable_seqscan = off`, on/off; the paper (§3) claims SVP "can be
//!    severely hurt" without it.
//! 3. **Consistency cost** — read-only vs mixed workload at a fixed size.
//! 4. **SVP vs AVP** — static partitions vs adaptive chunks + stealing.
//! 5. **Load-balancer policy** — pass-through read balancing arms.
//! 6. **Composer strategy** — one composition priced on two timelines:
//!    staged (HSQLDB-style staging table) vs streaming, which folds
//!    partials as they arrive.
//! 7. **Fault tolerance** — one node failing all of its SVP sub-queries;
//!    the failed range is detected, retried, and reassigned to a survivor.
//!    Answers must stay byte-identical; the table prices the slowdown.
//! 8. **Recovery & rejoin** — a node misses a write burst while down, the
//!    cluster runs degraded, then the recovery log replays the missed
//!    suffix (live rounds + a final drain under the write pause) and the
//!    node re-enters rotation. The table compares healthy, degraded, and
//!    post-rejoin makespans and prices the rejoin itself.
//! 9. **Resource governance under overload** — an open-loop arrival storm
//!    at ~4× the cluster's service rate, with and without admission
//!    control. Ungoverned, every query completes but the backlog (and the
//!    tail latency) grows with the storm; governed, excess arrivals are
//!    shed and the admitted queries keep their latency budget
//!    (DESIGN.md §11).
//!
//! Run with the same `APUAMA_*` environment knobs as the figure binaries.

use apuama_bench::{fmt_ms, fmt_ratio, FigureTable, HarnessConfig};
use apuama_sim::{
    price_rejoin, run_isolated, run_workload, SimCluster, SimClusterConfig, SimFault, WorkloadSpec,
};
use apuama_tpch::{QueryParams, TpchQuery};

fn main() {
    let cfg = HarnessConfig::from_env();
    eprintln!("ablation: SF={} seed={}", cfg.scale_factor, cfg.seed);
    let data = cfg.dataset();
    let n = *cfg.node_counts.iter().find(|&&n| n >= 4).unwrap_or(&4);
    let params = QueryParams::default();

    // -- 1. SVP vs inter-query-only baseline (isolated latency) -------------
    let mut t1 = FigureTable::new(
        format!("Ablation 1 — Apuama SVP vs plain C-JDBC, isolated queries, {n} nodes"),
        &["query", "svp", "baseline", "speedup"],
    );
    let svp_cluster = cfg.cluster(&data, n);
    let mut base_cfg = SimClusterConfig::paper(n);
    base_cfg.svp = false;
    let base_cluster = SimCluster::new(&data, base_cfg).expect("cluster builds");
    for q in apuama_tpch::ALL_QUERIES {
        svp_cluster.drop_caches();
        base_cluster.drop_caches();
        let sql = q.sql(&params);
        let svp = run_isolated(&svp_cluster, &sql, 5)
            .expect("svp run")
            .warm_mean_ms();
        let base = run_isolated(&base_cluster, &sql, 5)
            .expect("baseline run")
            .warm_mean_ms();
        t1.push_row(vec![
            q.label(),
            fmt_ms(svp),
            fmt_ms(base),
            fmt_ratio(base / svp),
        ]);
    }
    t1.print();
    t1.write_csv("ablation_svp_vs_baseline")
        .expect("csv writable");

    // -- 2. enable_seqscan interference ---------------------------------------
    // Three arms: (a) Apuama's interference (index forced); (b) optimizer
    // free choice — with this engine's exact histograms it coincides with
    // (a) for clustered ranges; (c) the failure mode the paper guards
    // against: the optimizer picks full table scans for the sub-queries
    // ("the virtual partition is ignored and the performance of SVP can be
    // severely hurt", §3) — forced here via `enable_indexscan = off`.
    let mut t2 = FigureTable::new(
        format!("Ablation 2 — optimizer interference around SVP sub-queries, {n} nodes"),
        &[
            "query",
            "index_forced",
            "free_choice",
            "full_scans",
            "fullscan/forced",
        ],
    );
    let mut noforce_cfg = SimClusterConfig::paper(n);
    noforce_cfg.force_index = false;
    let noforce_cluster = SimCluster::new(&data, noforce_cfg).expect("cluster builds");
    let fullscan_cluster = SimCluster::new(&data, noforce_cfg).expect("cluster builds");
    for i in 0..n {
        fullscan_cluster
            .node(i)
            .query("set enable_indexscan = off")
            .expect("set applies");
    }
    for q in [TpchQuery::Q1, TpchQuery::Q6, TpchQuery::Q12, TpchQuery::Q14] {
        svp_cluster.drop_caches();
        noforce_cluster.drop_caches();
        fullscan_cluster.drop_caches();
        let sql = q.sql(&params);
        let forced = run_isolated(&svp_cluster, &sql, 5)
            .expect("run")
            .warm_mean_ms();
        let unforced = run_isolated(&noforce_cluster, &sql, 5)
            .expect("run")
            .warm_mean_ms();
        let fullscan = run_isolated(&fullscan_cluster, &sql, 5)
            .expect("run")
            .warm_mean_ms();
        t2.push_row(vec![
            q.label(),
            fmt_ms(forced),
            fmt_ms(unforced),
            fmt_ms(fullscan),
            fmt_ratio(fullscan / forced),
        ]);
    }
    t2.print();
    t2.write_csv("ablation_force_index").expect("csv writable");

    // -- 3. consistency cost: read-only vs mixed ----------------------------
    let mut t3 = FigureTable::new(
        format!("Ablation 3 — update-stream cost at {n} nodes (3 read sequences)"),
        &["workload", "qpm", "makespan"],
    );
    let mut ro = cfg.cluster(&data, n);
    let r1 = run_workload(
        &mut ro,
        WorkloadSpec {
            read_streams: 3,
            rounds: 2,
            update_txns: 0,
            seed: cfg.seed,
        },
    )
    .expect("workload runs");
    t3.push_row(vec![
        "read-only".into(),
        format!("{:.2}", r1.throughput_qpm()),
        fmt_ms(r1.makespan_ms),
    ]);
    let mut mixed = cfg.cluster(&data, n);
    let r2 = run_workload(
        &mut mixed,
        WorkloadSpec {
            read_streams: 3,
            rounds: 2,
            update_txns: cfg.update_txns(),
            seed: cfg.seed,
        },
    )
    .expect("workload runs");
    t3.push_row(vec![
        format!("+{} update txns", cfg.update_txns()),
        format!("{:.2}", r2.throughput_qpm()),
        fmt_ms(r2.makespan_ms),
    ]);
    t3.print();
    t3.write_csv("ablation_consistency").expect("csv writable");

    svp_vs_avp(&cfg, &data, n);
    balancer_policies(&cfg, &data, n);
    composer_strategies(&cfg, &data, n);
    fault_tolerance(&cfg, &data, n);
    recovery_rejoin(&cfg, &data, n);
    overload_governance(&cfg, &data, n);
}

/// Ablation 4 — SVP's static partitions vs AVP's adaptive chunks with work
/// stealing (the paper's §6 comparison). Two scenarios:
///
/// * **uniform** nodes: SVP should win or tie — AVP pays per-chunk query
///   overhead and breaks long sequential scans (the paper's critique of
///   AVP's "bad memory cache use");
/// * **straggler**: one node 5× slower. SVP's makespan is pinned to the
///   straggler's full partition; AVP steals work around it.
fn svp_vs_avp(cfg: &HarnessConfig, data: &apuama_tpch::TpchData, n: usize) {
    use apuama::{execute_avp, AvpConfig, Rewritten};

    let mut t4 = FigureTable::new(
        format!("Ablation 4 — SVP vs AVP (adaptive chunks + work stealing), {n} nodes"),
        &["query", "scenario", "svp", "avp", "avp/svp"],
    );
    let params = QueryParams::default();
    let avp_cfg = AvpConfig::default();
    for q in [TpchQuery::Q1, TpchQuery::Q6] {
        let sql = q.sql(&params);
        for (scenario, slow_node_factor) in [("uniform", 1.0f64), ("straggler", 5.0)] {
            let cluster = cfg.cluster(data, n);
            let slowdown =
                |node: usize, ms: f64| if node == 0 { ms * slow_node_factor } else { ms };

            // SVP: one static sub-query per node; makespan = slowest node.
            cluster.drop_caches();
            let Rewritten::Svp(plan) = cluster.rewrite(&sql).expect("parses") else {
                panic!("{} must be eligible", q.label());
            };
            let mut svp_ms = 0.0f64;
            // Warm run (cold pass first, as in Fig. 2 methodology).
            for _ in 0..2 {
                svp_ms = 0.0;
                for node in 0..plan.ranges.len() {
                    let (_, ms) = cluster.exec_range(node, &plan, node).expect("subquery");
                    svp_ms = svp_ms.max(slowdown(node, ms));
                }
            }

            // AVP over the same replicas (cold again for fairness).
            cluster.drop_caches();
            let template = cluster.template(&sql).expect("parses").expect("eligible");
            let mut avp_ms = 0.0f64;
            for _ in 0..2 {
                let outcome = execute_avp(&template, n, avp_cfg, |node, sub| {
                    let (out, ms) = cluster.exec_subquery(node, sub)?;
                    Ok((out, slowdown(node, ms)))
                })
                .expect("avp run");
                avp_ms = outcome.makespan_cost;
            }

            t4.push_row(vec![
                q.label(),
                scenario.into(),
                fmt_ms(svp_ms),
                fmt_ms(avp_ms),
                fmt_ratio(avp_ms / svp_ms),
            ]);
        }
    }
    t4.print();
    t4.write_csv("ablation_svp_vs_avp").expect("csv writable");
}

/// Ablation 5 — read load-balancer policies on the inter-query-only
/// baseline (every query is a pass-through read, so the balancer is on the
/// critical path). The paper configures least-pending.
fn balancer_policies(cfg: &HarnessConfig, data: &apuama_tpch::TpchData, n: usize) {
    use apuama_sim::cluster::SimBalancer;

    let mut t5 = FigureTable::new(
        format!("Ablation 5 — load-balancer policy, inter-query baseline, {n} nodes"),
        &["policy", "qpm", "read_span"],
    );
    for (name, balancer) in [
        ("least-pending", SimBalancer::LeastPending),
        ("round-robin", SimBalancer::RoundRobin),
        ("random", SimBalancer::Random { seed: cfg.seed }),
    ] {
        let mut ccfg = SimClusterConfig::paper(n);
        ccfg.svp = false;
        ccfg.balancer = balancer;
        let mut cluster = SimCluster::new(data, ccfg).expect("cluster builds");
        let r = run_workload(
            &mut cluster,
            WorkloadSpec {
                read_streams: n.max(3),
                rounds: 1,
                update_txns: 0,
                seed: cfg.seed,
            },
        )
        .expect("workload runs");
        t5.push_row(vec![
            name.into(),
            format!("{:.2}", r.throughput_qpm()),
            fmt_ms(r.read_span_ms()),
        ]);
    }
    t5.print();
    t5.write_csv("ablation_balancer_policy")
        .expect("csv writable");
}

/// Ablation 6 — staged vs streaming result composition over all eight
/// evaluation queries and two node profiles. Each query's partials are
/// composed once, through the streaming composer, and priced on both
/// timelines: streaming folds each partial as it lands, staged runs the
/// same transfers, folds and statement after the last partial (the
/// HSQLDB staging table). The comparison isolates the composition
/// timeline; streaming never loses, and the ablation asserts it.
fn composer_strategies(cfg: &HarnessConfig, data: &apuama_tpch::TpchData, n: usize) {
    use apuama::Rewritten;

    let mut t6 = FigureTable::new(
        format!("Ablation 6 — staged vs streaming result composition, {n} nodes"),
        &[
            "query",
            "profile",
            "staged",
            "streaming",
            "streaming/staged",
        ],
    );
    let params = QueryParams::default();
    let cluster = cfg.cluster(data, n);
    for q in apuama_tpch::ALL_QUERIES {
        let sql = q.sql(&params);
        let Rewritten::Svp(plan) = cluster.rewrite(&sql).expect("parses") else {
            panic!("{} must be eligible", q.label());
        };
        // One execution of the sub-queries; each profile then prices the
        // identical partial set.
        cluster.drop_caches();
        let mut partials = Vec::with_capacity(n);
        let mut durs = Vec::with_capacity(n);
        for node in 0..plan.ranges.len() {
            let (out, ms) = cluster.exec_range(node, &plan, node).expect("subquery");
            partials.push(out);
            durs.push(ms);
        }
        for (profile, factor) in [("uniform", 1.0f64), ("straggler", 5.0)] {
            let mut finish = durs.clone();
            finish[0] *= factor;
            let timed = cluster
                .compose_timed(&plan, &partials, &finish)
                .expect("compose");
            assert!(
                timed.done_ms <= timed.staged_done_ms,
                "{} {profile}: streaming {}ms must not lose to staged {}ms",
                q.label(),
                timed.done_ms,
                timed.staged_done_ms
            );
            t6.push_row(vec![
                q.label(),
                profile.into(),
                fmt_ms(timed.staged_done_ms),
                fmt_ms(timed.done_ms),
                fmt_ratio(timed.done_ms / timed.staged_done_ms),
            ]);
        }
    }
    t6.print();
    t6.write_csv("ablation_composer_strategy")
        .expect("csv writable");
}

/// Ablation 7 — degraded-mode SVP: node 0 fails every sub-query it is
/// handed, the failure is detected after the configured retries, and the
/// orphaned VPA range is re-executed at once on the survivor the engine
/// routes it to. The answer must not change — only the makespan may. The
/// ratio column is the price of losing one node mid-query.
fn fault_tolerance(_cfg: &HarnessConfig, data: &apuama_tpch::TpchData, n: usize) {
    let mut t7 = FigureTable::new(
        format!("Ablation 7 — fault tolerance: node 0 dead mid-query, {n} nodes"),
        &["query", "healthy", "degraded", "degraded/healthy"],
    );
    let params = QueryParams::default();
    let healthy = SimCluster::new(data, SimClusterConfig::paper(n)).expect("cluster builds");
    let mut degraded_cfg = SimClusterConfig::paper(n);
    degraded_cfg.fault = Some(SimFault {
        node: 0,
        detect_ms: 50.0,
        retries: 1,
    });
    let degraded = SimCluster::new(data, degraded_cfg).expect("cluster builds");
    for q in apuama_tpch::ALL_QUERIES {
        let sql = q.sql(&params);
        healthy.drop_caches();
        degraded.drop_caches();
        let h = healthy.run_query_isolated(&sql).expect("healthy run");
        let d = degraded.run_query_isolated(&sql).expect("degraded run");
        assert_eq!(
            h.output.rows,
            d.output.rows,
            "{}: degraded mode must stay byte-identical",
            q.label()
        );
        assert!(
            d.makespan_ms >= h.makespan_ms,
            "{}: reassignment cannot be free (healthy {}ms, degraded {}ms)",
            q.label(),
            h.makespan_ms,
            d.makespan_ms
        );
        t7.push_row(vec![
            q.label(),
            fmt_ms(h.makespan_ms),
            fmt_ms(d.makespan_ms),
            fmt_ratio(d.makespan_ms / h.makespan_ms),
        ]);
    }
    t7.print();
    t7.write_csv("ablation_fault_tolerance")
        .expect("csv writable");
}

/// Ablation 8 — recovery & rejoin: node 0 is down while a refresh burst
/// lands on the survivors, the cluster answers queries degraded (node 0's
/// ranges reassigned), then the missed suffix is replayed — live rounds
/// first, the tail under the write pause — and node 0 re-enters rotation.
/// Answers must stay byte-identical through all three arms; the makespan
/// columns price running one node short, and the replay cost line prices
/// the rejoin itself.
fn recovery_rejoin(_cfg: &HarnessConfig, data: &apuama_tpch::TpchData, n: usize) {
    let mut t8 = FigureTable::new(
        format!("Ablation 8 — recovery & rejoin: node 0 down for a write burst, {n} nodes"),
        &[
            "query",
            "healthy",
            "degraded",
            "rejoined",
            "degraded/healthy",
        ],
    );
    let params = QueryParams::default();
    let mut healthy = SimCluster::new(data, SimClusterConfig::paper(n)).expect("cluster builds");
    let mut degraded = SimCluster::new(data, SimClusterConfig::paper(n)).expect("cluster builds");

    // The same refresh burst lands on both clusters — on every healthy
    // replica, but only on the survivors of the degraded one. These are the
    // scripts the recovery log would retain for node 0.
    let burst = 16i64;
    let key = healthy.reserve_refresh_keys(burst);
    degraded.reserve_refresh_keys(burst);
    let scripts: Vec<String> = (0..burst)
        .map(|i| {
            format!(
                "insert into orders values ({}, 1, 'O', 1.0, date '1995-01-01', \
                 '1-URGENT', 'c', 0, 'x')",
                key + i
            )
        })
        .collect();
    for s in &scripts {
        healthy.broadcast_write(s).expect("healthy broadcast");
        for node in 1..n {
            degraded.exec_write(node, s).expect("survivor write");
        }
    }
    degraded.set_fault(Some(SimFault {
        node: 0,
        detect_ms: 50.0,
        retries: 1,
    }));

    let mut degraded_runs = Vec::new();
    for q in apuama_tpch::ALL_QUERIES {
        let sql = q.sql(&params);
        healthy.drop_caches();
        degraded.drop_caches();
        let h = healthy.run_query_isolated(&sql).expect("healthy run");
        let d = degraded.run_query_isolated(&sql).expect("degraded run");
        assert_eq!(
            h.output.rows,
            d.output.rows,
            "{}: degraded answers must stay byte-identical",
            q.label()
        );
        degraded_runs.push((q, h, d));
    }

    // Rejoin: replay the whole missed suffix onto node 0, charging the
    // final catch-up batch to the write pause, then lift the fault.
    let cost = price_rejoin(&mut degraded, 0, &scripts, 4).expect("rejoin replays");
    degraded.set_fault(None);

    for (q, h, d) in degraded_runs {
        let sql = q.sql(&params);
        degraded.drop_caches();
        let r = degraded.run_query_isolated(&sql).expect("rejoined run");
        assert_eq!(
            h.output.rows,
            r.output.rows,
            "{}: post-rejoin answers must stay byte-identical",
            q.label()
        );
        assert!(
            r.makespan_ms <= d.makespan_ms,
            "{}: rejoining cannot be slower than degraded ({}ms vs {}ms)",
            q.label(),
            r.makespan_ms,
            d.makespan_ms
        );
        t8.push_row(vec![
            q.label(),
            fmt_ms(h.makespan_ms),
            fmt_ms(d.makespan_ms),
            fmt_ms(r.makespan_ms),
            fmt_ratio(d.makespan_ms / h.makespan_ms),
        ]);
    }
    t8.print();
    println!(
        "rejoin replay: {} scripts, live {} + pause {} = {} total",
        cost.replayed,
        fmt_ms(cost.live_ms),
        fmt_ms(cost.pause_ms),
        fmt_ms(cost.total_ms())
    );
    t8.write_csv("ablation_recovery_rejoin")
        .expect("csv writable");
}

/// Ablation 9 — admission control under an open-loop arrival storm
/// (DESIGN.md §11). Arrivals land at ~4× the cluster's isolated service
/// rate; the governed arm admits at most `2 × servers_per_node` queries
/// with a short bounded queue and sheds the rest. The claim being priced:
/// shedding excess load keeps the *admitted* queries' tail latency near
/// the unloaded baseline, while the ungoverned arm completes everything
/// only by letting every query's latency absorb the whole backlog.
fn overload_governance(cfg: &HarnessConfig, data: &apuama_tpch::TpchData, n: usize) {
    use apuama_sim::{run_overload, OverloadGovernance, OverloadSpec};

    let cluster = cfg.cluster(data, n);

    // Calibrate the storm: mean warm isolated latency over the eight
    // queries approximates the service time of one SVP query (which
    // occupies the whole cluster).
    let params = QueryParams::default();
    let mut mean_ms = 0.0;
    for q in apuama_tpch::ALL_QUERIES {
        cluster.drop_caches();
        mean_ms += run_isolated(&cluster, &q.sql(&params), 3)
            .expect("calibration run")
            .warm_mean_ms();
    }
    mean_ms /= apuama_tpch::ALL_QUERIES.len() as f64;

    let mut t9 = FigureTable::new(
        format!("Ablation 9 — admission control under a 4x open-loop storm, {n} nodes"),
        &[
            "arm",
            "submitted",
            "completed",
            "shed",
            "peak_backlog",
            "median",
            "p99",
            "makespan",
        ],
    );
    let storm = |governance| OverloadSpec {
        arrivals: 64,
        interval_ms: mean_ms / 4.0,
        seed: cfg.seed,
        governance,
    };
    let governance = OverloadGovernance {
        max_concurrent: 2 * cluster.config().servers_per_node,
        queue_depth: 8,
        queue_timeout_ms: mean_ms * 4.0,
    };
    let ungoverned = run_overload(&cluster, storm(None)).expect("ungoverned storm");
    let governed = run_overload(&cluster, storm(Some(governance))).expect("governed storm");
    for (name, r) in [("ungoverned", &ungoverned), ("governed", &governed)] {
        t9.push_row(vec![
            name.into(),
            r.submitted.to_string(),
            r.completed.to_string(),
            r.shed.to_string(),
            r.peak_backlog.to_string(),
            fmt_ms(r.median_ms()),
            fmt_ms(r.p99_ms()),
            fmt_ms(r.makespan_ms),
        ]);
    }
    assert_eq!(
        governed.completed + governed.shed,
        governed.submitted,
        "every arrival must be accounted for"
    );
    assert!(
        governed.p99_ms() < ungoverned.p99_ms(),
        "governed p99 {:.0}ms must beat ungoverned {:.0}ms",
        governed.p99_ms(),
        ungoverned.p99_ms()
    );
    t9.print();
    t9.write_csv("ablation_overload_governance")
        .expect("csv writable");
}
