//! `EXPLAIN ANALYZE` golden tests over a representative TPC-H query: the
//! rendered tree must expose per-operator actual row counts that match the
//! plain query's output, and the per-operator self times must be
//! internally consistent with the reported total execution time.

use apuama_engine::Database;
use apuama_tpch::{generate, load_into, QueryParams, TpchConfig, ALL_QUERIES};

fn tpch_db() -> Database {
    let data = generate(TpchConfig {
        scale_factor: 0.001,
        seed: 7,
    });
    let mut db = Database::in_memory();
    load_into(&mut db, &data).unwrap();
    db
}

fn plan_lines(db: &Database, sql: &str) -> Vec<String> {
    let out = db.query(sql).unwrap();
    assert_eq!(out.columns, vec!["plan"]);
    out.rows
        .iter()
        .map(|r| r[0].as_str().unwrap().to_string())
        .collect()
}

/// Pulls `name=<float>` out of an operator line.
fn field(line: &str, name: &str) -> f64 {
    let marker = format!("{name}=");
    let start = line.find(&marker).unwrap_or_else(|| {
        panic!("line {line:?} has no {marker}");
    }) + marker.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    rest[..end].parse().unwrap()
}

#[test]
fn explain_analyze_tpch_q1ish_reports_consistent_tree() {
    let db = tpch_db();
    // Every operator runs on the statement's thread, so the exclusive
    // times below sum to the execution time with nothing overlapping.
    let q = &ALL_QUERIES[0];
    let sql = q.sql(&QueryParams::random(7));
    let expected_rows = db.query(&sql).unwrap().rows.len() as f64;

    // With the fusion kernel on, Q1 collapses to a fused aggregate.
    let fused = plan_lines(&db, &format!("explain analyze {sql}"));
    assert!(
        fused.iter().any(|l| l.contains("fused aggregate over")),
        "{fused:?}"
    );

    // With it off, the full general tree is visible: scan → … → aggregate.
    db.query("set enable_kernel = off").unwrap();
    let lines = plan_lines(&db, &format!("explain analyze {sql}"));
    let (footer, ops) = lines.split_last().expect("non-empty plan");

    // Footer: `execution time: X.XXX ms`.
    assert!(footer.starts_with("execution time: "), "{footer}");
    let total_ms: f64 = footer
        .trim_start_matches("execution time: ")
        .trim_end_matches(" ms")
        .parse()
        .unwrap();

    // Every operator line carries the actual-rows annotation.
    for op in ops {
        assert!(
            op.contains("(actual rows=") && op.contains("self_ms="),
            "{op}"
        );
    }
    // A scan and an aggregate appear, and the root reports exactly the
    // query's rows.
    assert!(
        ops.iter().any(|l| l.trim_start().starts_with("scan ")),
        "{lines:?}"
    );
    assert!(
        ops.iter().any(|l| l.trim_start().starts_with("aggregate")),
        "{lines:?}"
    );
    let root = &ops[0];
    assert!(!root.starts_with(' '), "root must be unindented: {root}");
    assert_eq!(field(root, "rows"), expected_rows, "{root}");

    // Self times are exclusive, so they sum to at most the root's
    // inclusive time (small slack for float rendering), and the root time
    // is bounded by the footer's wall-clock total.
    let self_sum: f64 = ops.iter().map(|l| field(l, "self_ms")).sum();
    let root_total = field(root, "total_ms");
    assert!(
        self_sum <= root_total * 1.01 + 0.1,
        "self_ms sum {self_sum} exceeds root total {root_total}\n{lines:?}"
    );
    assert!(
        root_total <= total_ms * 1.01 + 0.1,
        "root total {root_total} exceeds execution time {total_ms}"
    );
    // And the accounting is not degenerate: the probes did record time.
    assert!(total_ms > 0.0, "{footer}");
}

/// The instrumented execution answers exactly like the plain one for every
/// evaluation query — instrumentation must not change what runs.
#[test]
fn explain_analyze_runs_every_eval_query() {
    let db = tpch_db();
    let params = QueryParams::random(7);
    for q in ALL_QUERIES {
        let sql = q.sql(&params);
        let expected = db.query(&sql).unwrap().rows.len() as f64;
        let lines = plan_lines(&db, &format!("explain analyze {sql}"));
        let root = &lines[0];
        assert_eq!(field(root, "rows"), expected, "{}: {root}", q.label());
    }
}

/// Pulls `name=<integer>` out of a probe line.
fn count(line: &str, name: &str) -> u64 {
    field(line, name) as u64
}

/// Q4 and Q21 name the path each correlated subquery takes: plain EXPLAIN
/// on the scan line, EXPLAIN ANALYZE as one line per probe under the
/// operator that evaluates it — Q4's scan, Q21's join block — with
/// evaluation / candidate / match counts that reconcile with the
/// operator's output and the statement's `index_probes`.
#[test]
fn explain_names_the_exists_probes_of_q4_and_q21() {
    let db = tpch_db();
    let params = QueryParams::default();

    // Q4: one semi-join probe on the orders scan.
    let q4 = ALL_QUERIES[2].sql(&params);
    let plan = plan_lines(&db, &format!("explain {q4}"));
    let scan = plan
        .iter()
        .find(|l| l.trim_start().starts_with("scan orders"))
        .unwrap_or_else(|| panic!("{plan:?}"));
    assert!(
        scan.contains("3 filter(s) [semi-probe lineitem via index(l_orderkey)]"),
        "{scan}"
    );
    let analyzed = plan_lines(&db, &format!("explain analyze {q4}"));
    let at = analyzed
        .iter()
        .position(|l| l.trim_start().starts_with("scan orders"))
        .unwrap_or_else(|| panic!("{analyzed:?}"));
    let (scan, probe) = (&analyzed[at], &analyzed[at + 1]);
    assert!(
        probe
            .trim_start()
            .starts_with("semi-probe lineitem via index(l_orderkey) (evaluations="),
        "{probe}"
    );
    // The probe line is a child of the scan, and every match is a scan row.
    assert!(probe.len() - probe.trim_start().len() > scan.len() - scan.trim_start().len());
    assert_eq!(count(probe, "matches"), count(scan, "rows"), "{analyzed:?}");
    assert!(count(probe, "candidates") >= count(probe, "matches"));
    let stats = db.query(&q4).unwrap().stats;
    assert_eq!(count(probe, "evaluations"), stats.index_probes);

    // Q21: a semi- and an anti-join probe on the l1 scan, in written order.
    let q21 = ALL_QUERIES[7].sql(&params);
    let plan = plan_lines(&db, &format!("explain {q21}"));
    let scan = plan
        .iter()
        .find(|l| l.trim_start().starts_with("scan lineitem as l1"))
        .unwrap_or_else(|| panic!("{plan:?}"));
    assert!(
        scan.contains(
            "3 filter(s) [semi-probe lineitem l2 via index(l_orderkey), \
             anti-probe lineitem l3 via index(l_orderkey)]"
        ),
        "{scan}"
    );
    // Executed, `l1` drives its join block and the two probes run behind
    // the joins, on the tuples that survive them: they are listed under
    // the block, after its steps, not under the scan.
    let analyzed = plan_lines(&db, &format!("explain analyze {q21}"));
    let at = |prefix: &str| {
        analyzed
            .iter()
            .position(|l| l.trim_start().starts_with(prefix))
            .unwrap_or_else(|| panic!("no {prefix}: {analyzed:?}"))
    };
    let indent = |l: &str| l.len() - l.trim_start().len();
    let block = &analyzed[at("hash join block")];
    let scan = &analyzed[at("scan lineitem as l1")];
    assert!(analyzed[at("scan lineitem as l1") + 1]
        .trim_start()
        .starts_with("scan orders"));
    assert_eq!(
        analyzed[at("drive ")].trim_start(),
        format!("drive l1: {} rows", count(scan, "rows"))
    );
    // `nation` hangs off `supplier` alone: the suppliers of the other
    // nations are shed before the order is fixed, one line for it between
    // the `drive` line and the steps, and `l1`'s first step builds on the
    // suppliers that are left. Before the steps, the keys of the two build
    // sides `l1` probes narrow its selection, the suppliers' first.
    let shed = analyzed[at("drive ") + 1].trim_start();
    assert!(
        shed.starts_with("⋉ supplier by nation on s_nationkey = n_nationkey: "),
        "{analyzed:?}"
    );
    let left = shed.rsplit("→ ").next().unwrap();
    assert!(
        analyzed[at("drive ") + 2]
            .trim_start()
            .starts_with(&format!(
                "∈ keys of supplier on s_suppkey = l1.l_suppkey: {} → ",
                count(scan, "rows")
            )),
        "{analyzed:?}"
    );
    assert!(analyzed[at("drive ") + 3]
        .trim_start()
        .starts_with("∈ keys of orders on o_orderkey = l1.l_orderkey: "));
    assert!(
        analyzed[at("drive ") + 4]
            .trim_start()
            .starts_with(&format!(
                "⋈ supplier on s_suppkey = l1.l_suppkey: build supplier {left},"
            )),
        "{analyzed:?}"
    );
    let last_step = analyzed
        .iter()
        .rposition(|l| l.trim_start().starts_with('⋈'));
    let last_step = last_step.unwrap_or_else(|| panic!("{analyzed:?}"));
    let (semi, anti) = (&analyzed[last_step + 1], &analyzed[last_step + 2]);
    assert!(
        semi.trim_start()
            .starts_with("semi-probe lineitem l2 via index(l_orderkey) (evaluations="),
        "{semi}"
    );
    assert!(
        anti.trim_start()
            .starts_with("anti-probe lineitem l3 via index(l_orderkey) (evaluations="),
        "{anti}"
    );
    assert_eq!(indent(semi), indent(scan));
    assert_eq!(indent(anti), indent(scan));
    // Every tuple the joins keep is probed once; rows that pass the
    // semi-probe reach the anti-probe; rows the anti-probe finds no match
    // for leave the block.
    let joined: u64 = analyzed[last_step]
        .rsplit("→ ")
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("{}", analyzed[last_step]));
    assert_eq!(count(semi, "evaluations"), joined, "{analyzed:?}");
    assert!(joined < count(scan, "rows") / 10, "{analyzed:?}");
    assert_eq!(count(anti, "evaluations"), count(semi, "matches"));
    assert_eq!(
        count(block, "rows"),
        count(anti, "evaluations") - count(anti, "matches"),
        "{analyzed:?}"
    );
    let stats = db.query(&q21).unwrap().stats;
    assert_eq!(
        count(semi, "evaluations") + count(anti, "evaluations"),
        stats.index_probes
    );
}

/// A subquery predicate the probe does not cover says so, a probe without
/// a key says that, and an `EXISTS` the framed interpreter serves from the
/// memo's probe is listed with it.
#[test]
fn explain_names_the_interpreted_fallback_and_memo_probes() {
    let db = tpch_db();
    // Grouped subquery: not a probe shape.
    let grouped = "select count(*) as n from orders where exists \
        (select l_orderkey from lineitem where l_orderkey = o_orderkey group by l_orderkey)";
    let plan = plan_lines(&db, &format!("explain {grouped}"));
    assert!(
        plan.iter()
            .any(|l| l.contains("1 filter(s) [subquery (interpreted)]")),
        "{plan:?}"
    );
    // No equality on an indexed column: the probe runs over the heap.
    let unkeyed = "select count(*) as n from nation where exists \
        (select * from region where r_name = n_name)";
    let plan = plan_lines(&db, &format!("explain {unkeyed}"));
    assert!(
        plan.iter()
            .any(|l| l.contains("1 filter(s) [semi-probe region via seq scan]")),
        "{plan:?}"
    );
    // EXISTS under OR: the predicate is interpreted, the EXISTS inside it
    // is still an index probe.
    let under_or = "select count(*) as n from orders where o_orderstatus = 'F' or not exists \
        (select * from lineitem where l_orderkey = o_orderkey and l_quantity > 49.0)";
    let plan = plan_lines(&db, &format!("explain {under_or}"));
    assert!(
        plan.iter().any(|l| l.contains(
            "[subquery (interpreted), anti-probe lineitem via index(l_orderkey) (memo)]"
        )),
        "{plan:?}"
    );
    let analyzed = plan_lines(&db, &format!("explain analyze {under_or}"));
    let probe = analyzed
        .iter()
        .find(|l| l.trim_start().starts_with("anti-probe lineitem"))
        .unwrap_or_else(|| panic!("{analyzed:?}"));
    let stats = db.query(under_or).unwrap().stats;
    assert!(stats.index_probes > 0);
    assert_eq!(
        count(probe, "evaluations"),
        stats.index_probes,
        "{analyzed:?}"
    );
}

/// The join block's subtree of an `EXPLAIN ANALYZE`, each line reduced to
/// its label and row count (timings vary run to run).
fn join_block_lines(lines: &[String]) -> Vec<String> {
    let at = lines
        .iter()
        .position(|l| l.trim_start().starts_with("hash join block"))
        .unwrap_or_else(|| panic!("{lines:?}"));
    let indent = |l: &str| l.len() - l.trim_start().len();
    let depth = indent(&lines[at]);
    lines[at + 1..]
        .iter()
        .take_while(|l| indent(l) > depth)
        .map(|l| match l.find(" (actual rows=") {
            Some(p) => format!("{} rows={}", l[..p].trim_start(), count(l, "rows")),
            None => l.trim_start().to_string(),
        })
        .collect()
}

/// Q3 and Q5 say what their join block did: how many of its table's
/// columns each input scan kept, which input drove, which build sides
/// were reduced through a leaf (one `⋉` line each: the edge and the rows
/// before and after), which build sides' keys narrowed the driving
/// selection (one `∈` line each, rows in and out) and per greedy step the
/// keys, the build side and the row counts in and out. The step lines
/// carry counts only — no `self_ms=` token, so a consumer summing operator
/// self times never sees them — and every operator label keeps its prefix.
#[test]
fn explain_analyze_accounts_for_the_join_block_of_q3_and_q5() {
    let db = tpch_db();
    let params = QueryParams::default();

    let q3 = plan_lines(
        &db,
        &format!("explain analyze {}", ALL_QUERIES[1].sql(&params)),
    );
    assert_eq!(
        join_block_lines(&q3),
        [
            "scan customer cols 1/8 rows=34",
            "scan orders cols 4/9 rows=737",
            "scan lineitem cols 3/16 rows=3171",
            "drive lineitem: 3171 rows",
            "⋉ orders by customer on c_custkey = o_custkey: 737 → 166",
            "∈ keys of orders on l_orderkey = o_orderkey: 3171 → 39",
            "⋈ orders on l_orderkey = o_orderkey: build orders 166, probe 39 → 39",
            "⋈ customer on c_custkey = o_custkey: build customer 34, probe 39 → 39",
        ]
    );
    let q5 = plan_lines(
        &db,
        &format!("explain analyze {}", ALL_QUERIES[3].sql(&params)),
    );
    assert_eq!(
        join_block_lines(&q5),
        [
            "scan customer cols 2/8 rows=150",
            "scan orders cols 2/9 rows=206",
            "scan lineitem cols 4/16 rows=5930",
            "scan supplier cols 2/7 rows=10",
            "scan nation cols 3/4 rows=25",
            "scan region cols 1/3 rows=1",
            "drive lineitem: 5930 rows",
            "⋉ nation by region on n_regionkey = r_regionkey: 25 → 5",
            "⋉ supplier by nation on s_nationkey = n_nationkey: 10 → 1",
            "∈ keys of supplier on l_suppkey = s_suppkey: 5930 → 599",
            "∈ keys of orders on l_orderkey = o_orderkey: 599 → 85",
            "⋈ supplier on l_suppkey = s_suppkey: build supplier 1, probe 85 → 85",
            "⋈ orders on l_orderkey = o_orderkey: build orders 206, probe 85 → 85",
            "⋈ nation on s_nationkey = n_nationkey: build nation 5, probe 85 → 85",
            "⋈ region on n_regionkey = r_regionkey: build region 1, probe 85 → 85",
            "⋈ customer on c_custkey = o_custkey and c_nationkey = s_nationkey: \
             build customer 150, probe 85 → 3",
        ]
    );
    // (The last line of each plan is the `execution time` footer.)
    for line in q3[..q3.len() - 1].iter().chain(&q5[..q5.len() - 1]) {
        let label = line.trim_start();
        let is_step = ["drive ", "⋉", "∈", "⋈"]
            .iter()
            .any(|p| label.starts_with(p));
        assert_eq!(is_step, !line.contains("self_ms="), "{line}");
    }

    // Plain EXPLAIN names the kept columns on the scan lines of a join,
    // and only there: Q1's lone scan computes no projection.
    let plain = plan_lines(&db, &format!("explain {}", ALL_QUERIES[1].sql(&params)));
    let scan = |table: &str| {
        plain
            .iter()
            .find(|l| l.trim_start().starts_with(&format!("scan {table}")))
            .unwrap_or_else(|| panic!("{plain:?}"))
    };
    assert!(
        scan("lineitem").contains("1 filter(s), cols 3/16, ~"),
        "{plain:?}"
    );
    assert!(
        scan("customer").contains("1 filter(s), cols 1/8, ~"),
        "{plain:?}"
    );
    let q1 = plan_lines(&db, &format!("explain {}", ALL_QUERIES[0].sql(&params)));
    assert!(q1.iter().all(|l| !l.contains("cols ")), "{q1:?}");
}

/// The lines of `lines` that start, once trimmed, with one of `prefixes`.
fn lines_starting<'a>(lines: &'a [String], prefixes: &[&str]) -> Vec<&'a str> {
    (lines.iter().map(|l| l.trim_start()))
        .filter(|l| prefixes.iter().any(|p| l.starts_with(p)))
        .collect()
}

/// The two loops a pass spends its node time in take their dense-key
/// forms, visibly, at SF 0.002: Q1's and Q6's fused folds run every batch
/// vectorized and column-major, Q1's group ids from its two coded flag
/// columns; and every join query's block narrows its driving selection by
/// the integer keys of the build sides it probes, before any tuple is
/// probed — each `∈` line with its exact counts, and the step behind it
/// probing only what the filter kept.
#[test]
fn explain_analyze_shows_coded_group_ids_and_key_filters() {
    let data = generate(TpchConfig {
        scale_factor: 0.002,
        seed: 7,
    });
    let mut db = Database::in_memory();
    load_into(&mut db, &data).unwrap();
    let params = QueryParams::random(7);
    let segments = db.table("lineitem").unwrap().heap.segments().len();
    assert_eq!(segments, 12);
    for (q, coded) in [(0, segments), (4, 0)] {
        let plan = plan_lines(
            &db,
            &format!("explain analyze {}", ALL_QUERIES[q].sql(&params)),
        );
        assert_eq!(
            lines_starting(&plan, &["fold: ", "column-major: "]),
            [
                format!("fold: {segments} batch(es) vectorized, 0 row-major"),
                format!("column-major: {segments} batch(es), {coded} by coded group keys"),
            ],
            "{}",
            ALL_QUERIES[q].label()
        );
    }

    let blocks: [(usize, &[&str]); 5] = [
        (
            1,
            &[
                "∈ keys of orders on l_orderkey = o_orderkey: 6469 → 68",
                "⋈ orders on l_orderkey = o_orderkey: build orders 249, probe 68 → 68",
                "⋈ customer on c_custkey = o_custkey: build customer 54, probe 68 → 68",
            ],
        ),
        (
            3,
            &[
                "∈ keys of orders on l_orderkey = o_orderkey: 11970 → 1804",
                "∈ keys of supplier on l_suppkey = s_suppkey: 1804 → 441",
                "⋈ orders on l_orderkey = o_orderkey: build orders 449, probe 441 → 441",
                "⋈ supplier on l_suppkey = s_suppkey: build supplier 5, probe 441 → 441",
                "⋈ nation on s_nationkey = n_nationkey: build nation 5, probe 441 → 441",
                "⋈ region on n_regionkey = r_regionkey: build region 1, probe 441 → 441",
                "⋈ customer on c_custkey = o_custkey and c_nationkey = s_nationkey: \
                 build customer 300, probe 441 → 16",
            ],
        ),
        (
            5,
            &[
                "∈ keys of lineitem on o_orderkey = l_orderkey: 3000 → 57",
                "⋈ lineitem on o_orderkey = l_orderkey: build lineitem 61, probe 57 → 61",
            ],
        ),
        (
            6,
            &[
                "∈ keys of lineitem on l_partkey = p_partkey: 400 → 129",
                "⋈ lineitem on l_partkey = p_partkey: build lineitem 154, probe 129 → 154",
            ],
        ),
        (
            7,
            &[
                "∈ keys of supplier on s_suppkey = l1.l_suppkey: 7715 → 402",
                "∈ keys of orders on o_orderkey = l1.l_orderkey: 402 → 200",
                "⋈ supplier on s_suppkey = l1.l_suppkey: build supplier 1, probe 200 → 200",
                "⋈ nation on s_nationkey = n_nationkey: build nation 1, probe 200 → 200",
                "⋈ orders on o_orderkey = l1.l_orderkey: build orders 1459, probe 200 → 200",
            ],
        ),
    ];
    for (q, want) in blocks {
        let plan = plan_lines(
            &db,
            &format!("explain analyze {}", ALL_QUERIES[q].sql(&params)),
        );
        assert_eq!(
            lines_starting(&plan, &["∈", "⋈"]),
            want,
            "{}",
            ALL_QUERIES[q].label()
        );
        for line in lines_starting(&plan, &["∈"]) {
            assert!(!line.contains("self_ms="), "{line}");
        }
    }
}
