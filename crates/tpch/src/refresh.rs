//! Refresh streams for the mixed-workload experiments.
//!
//! Paper §5: "the update operations consist of 52,500 transactions [...]
//! First, the update queries insert an amount of data on the lineitem and
//! orders tables. In a second step, the updates remove all inserted tuples
//! from lineitem and orders tables."
//!
//! We reproduce that exactly: a stream of [`RefreshTransaction`]s whose
//! first half (RF1-style) each insert one new order plus its lineitems, and
//! whose second half (RF2-style) delete them again, keyed above the
//! existing `o_orderkey` range so the base data is untouched.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::gen::{start_date, TpchConfig, PRIORITIES, SHIP_MODES};
use apuama_sql::Date;

/// One update transaction: a list of SQL statements executed atomically by
/// the cluster (C-JDBC broadcasts each transaction to every replica).
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshTransaction {
    /// Statements in execution order.
    pub statements: Vec<String>,
    /// The order key this transaction touches.
    pub orderkey: i64,
    /// True for the insert (RF1) half.
    pub is_insert: bool,
}

impl RefreshTransaction {
    /// The statements joined into one script.
    pub fn script(&self) -> String {
        self.statements.join("; ")
    }
}

/// Builds a refresh stream of `transactions` transactions: the first half
/// inserts orders `start_key..`, the second half deletes them in the same
/// order. Odd counts get the extra transaction in the insert half (it is
/// then never deleted — callers who need exact restoration pass an even
/// count, as the paper's two-phase stream implies).
pub fn refresh_stream(
    config: &TpchConfig,
    transactions: usize,
    start_key: i64,
    seed: u64,
) -> Vec<RefreshTransaction> {
    let mut rng = StdRng::seed_from_u64(seed);
    let inserts = transactions.div_ceil(2);
    let deletes = transactions / 2;
    let n_part = config.parts() as i64;
    let n_supp = config.suppliers() as i64;
    let n_cust = config.customers() as i64;
    let mut out = Vec::with_capacity(transactions);
    for i in 0..inserts {
        let ok = start_key + i as i64;
        let odate = Date(start_date().0 + rng.random_range(0..2_400));
        let lines = rng.random_range(1..=7i64);
        let mut stmts = Vec::with_capacity(1 + lines as usize);
        stmts.push(format!(
            "insert into orders values ({ok}, {}, 'O', {:.2}, date '{odate}', '{}', 'Clerk#{:09}', 0, 'refresh')",
            rng.random_range(1..=n_cust),
            rng.random_range(1_000..500_000) as f64 / 100.0,
            PRIORITIES[rng.random_range(0..PRIORITIES.len())],
            rng.random_range(1..1_000),
        ));
        for ln in 1..=lines {
            let ship = Date(odate.0 + rng.random_range(1..=121));
            let commit = Date(odate.0 + rng.random_range(30..=90));
            let receipt = Date(ship.0 + rng.random_range(1..=30));
            stmts.push(format!(
                "insert into lineitem values ({ok}, {}, {}, {ln}, {}.0, {:.2}, {:.2}, {:.2}, \
                 'N', 'O', date '{ship}', date '{commit}', date '{receipt}', 'NONE', '{}', 'refresh')",
                rng.random_range(1..=n_part),
                rng.random_range(1..=n_supp),
                rng.random_range(1..=50i64),
                rng.random_range(1_000..100_000) as f64 / 100.0,
                rng.random_range(0..=10i64) as f64 / 100.0,
                rng.random_range(0..=8i64) as f64 / 100.0,
                SHIP_MODES[rng.random_range(0..SHIP_MODES.len())],
            ));
        }
        out.push(RefreshTransaction {
            statements: stmts,
            orderkey: ok,
            is_insert: true,
        });
    }
    for i in 0..deletes {
        let ok = start_key + i as i64;
        out.push(RefreshTransaction {
            statements: vec![
                format!("delete from lineitem where l_orderkey = {ok}"),
                format!("delete from orders where o_orderkey = {ok}"),
            ],
            orderkey: ok,
            is_insert: false,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use apuama_engine::Database;

    #[test]
    fn stream_halves_insert_then_delete() {
        let cfg = TpchConfig::default();
        let txns = refresh_stream(&cfg, 10, 1_000_000, 1);
        assert_eq!(txns.len(), 10);
        assert!(txns[..5].iter().all(|t| t.is_insert));
        assert!(txns[5..].iter().all(|t| !t.is_insert));
        // Deletes cover exactly the inserted keys.
        let ins: Vec<i64> = txns[..5].iter().map(|t| t.orderkey).collect();
        let del: Vec<i64> = txns[5..].iter().map(|t| t.orderkey).collect();
        assert_eq!(ins, del);
    }

    #[test]
    fn statements_parse() {
        let cfg = TpchConfig::default();
        for t in refresh_stream(&cfg, 6, 500_000, 2) {
            for s in &t.statements {
                apuama_sql::parse_statement(s)
                    .unwrap_or_else(|e| panic!("refresh stmt failed to parse: {e}\n{s}"));
            }
        }
    }

    #[test]
    fn applying_full_stream_restores_row_counts() {
        let mut db = Database::in_memory();
        let cfg = TpchConfig {
            scale_factor: 0.001,
            seed: 3,
        };
        let data = crate::gen::generate(cfg);
        crate::gen::load_into(&mut db, &data).unwrap();
        let before_orders = db.table("orders").unwrap().row_count();
        let before_lines = db.table("lineitem").unwrap().row_count();
        let start_key = before_orders as i64 + 1;
        let txns = refresh_stream(&cfg, 20, start_key, 4);
        for t in &txns {
            db.execute_script(&t.script()).unwrap();
        }
        assert_eq!(db.table("orders").unwrap().row_count(), before_orders);
        assert_eq!(db.table("lineitem").unwrap().row_count(), before_lines);
    }

    #[test]
    fn midway_counts_are_higher() {
        let mut db = Database::in_memory();
        let cfg = TpchConfig {
            scale_factor: 0.001,
            seed: 3,
        };
        let data = crate::gen::generate(cfg);
        crate::gen::load_into(&mut db, &data).unwrap();
        let before = db.table("orders").unwrap().row_count();
        let txns = refresh_stream(&cfg, 8, before as i64 + 1, 4);
        for t in txns.iter().take(4) {
            db.execute_script(&t.script()).unwrap();
        }
        assert_eq!(db.table("orders").unwrap().row_count(), before + 4);
    }

    #[test]
    fn deterministic_stream() {
        let cfg = TpchConfig::default();
        assert_eq!(
            refresh_stream(&cfg, 6, 10, 9),
            refresh_stream(&cfg, 6, 10, 9)
        );
    }
}
