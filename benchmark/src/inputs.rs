//! Everything the program under test is sent, as SQL text.
//!
//! OLTP inputs (point-read keys, refresh rows, short aggregate ranges) are
//! drawn per round from `rng(seed, round, client)`. The OLAP statements are
//! the eight evaluation queries under a fixed pool of two parameter sets:
//! at this scale factor TPC-H's parameter substitution moves the cost of a
//! pass by ±15 % (Q21's nation alone selects 4 to 14 suppliers), which
//! would make runs with different seeds incomparable, and every distinct
//! statement needs a reference answer computed during set-up.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use apuama_tpch::{
    query_sequence, refresh_stream, QueryParams, RefreshTransaction, TpchConfig, TpchQuery,
    ALL_QUERIES,
};

/// Point reads are timed in blocks of this many statements.
pub const READ_BLOCK: usize = 50;
/// Width of the key range a short SVP aggregate covers.
pub const SHORT_RANGE_KEYS: i64 = 64;
/// Refresh keys of client `c` start this far above the loaded key range.
const CLIENT_KEY_STRIDE: i64 = 1_000_000;
/// Room for one round's refresh keys inside a client's key space.
const ROUND_KEY_STRIDE: i64 = 1_000;

/// Number of parameter sets in the evaluation pool.
pub const PARAM_SETS: usize = 2;

/// Parameter set `set` of the pool: the TPC-H validation parameters, and
/// one fixed draw of the spec's substitution rules.
pub fn eval_params(set: usize) -> QueryParams {
    match set % PARAM_SETS {
        0 => QueryParams::default(),
        _ => QueryParams::random(0x5EED_0001),
    }
}

/// Which parameter set query stream `stream` runs under.
pub fn param_set_of(stream: u64) -> usize {
    stream as usize % PARAM_SETS
}

/// One evaluation query as sent.
#[derive(Debug, Clone)]
pub struct OlapStatement {
    /// Index into [`ALL_QUERIES`].
    pub index: usize,
    pub query: TpchQuery,
    pub sql: String,
}

/// Stream `stream`'s pass: the eight queries in that stream's order.
/// Stream 0 is the power-test order.
pub fn olap_pass(stream: u64) -> Vec<OlapStatement> {
    let params = eval_params(param_set_of(stream));
    query_sequence(stream)
        .into_iter()
        .map(|query| OlapStatement {
            index: ALL_QUERIES
                .iter()
                .position(|q| *q == query)
                .expect("sequences permute ALL_QUERIES"),
            query,
            sql: query.sql(&params),
        })
        .collect()
}

/// Row order is part of the answer for every evaluation query with an
/// `ORDER BY`; Q6 and Q14 return one row.
pub fn is_ordered(query: TpchQuery) -> bool {
    !matches!(query, TpchQuery::Q6 | TpchQuery::Q14)
}

/// Primary-key read of a dimension table: no fact table, so it takes the
/// pass-through path (`orders` by key would be rewritten into an SVP query).
pub fn point_read_sql(custkey: i64) -> String {
    format!("select c_custkey, c_nationkey, c_acctbal from customer where c_custkey = {custkey}")
}

/// SVP-eligible aggregate over a few dozen order keys: all dispatch and
/// composition, almost no scanning. The range is written half-open because
/// `between lo and hi` with `hi` on a partition boundary counts the boundary
/// order twice under SVP at the parent commit (see README, "Found on the
/// way").
pub fn short_aggregate_sql(lo: i64) -> String {
    format!(
        "select sum(o_totalprice) as total, count(*) as n from orders \
         where o_orderkey >= {lo} and o_orderkey < {}",
        lo + SHORT_RANGE_KEYS
    )
}

/// Seed of `rng(seed, round, client)`; `StdRng::seed_from_u64` does the
/// mixing.
pub fn round_seed(seed: u64, round: u64, client: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(round.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(client.wrapping_mul(0x94D0_49BB_1331_11EB))
}

/// One client's OLTP inputs for one round.
#[derive(Debug, Clone, PartialEq)]
pub struct OltpRound {
    /// Customer keys to read, with the statement text.
    pub reads: Vec<(i64, String)>,
    /// Insert transactions, then the transactions deleting the same orders
    /// in the same order.
    pub inserts: Vec<RefreshTransaction>,
    pub deletes: Vec<RefreshTransaction>,
    /// First order key of each short aggregate, with the statement text.
    pub aggregates: Vec<(i64, String)>,
}

/// How many of each OLTP operation a round holds.
#[derive(Debug, Clone, Copy)]
pub struct OltpShape {
    pub reads: usize,
    pub refresh_pairs: usize,
    pub aggregates: usize,
}

/// Draws the round's OLTP inputs. With `clients` > 1 each client reads its
/// own slice of the customer and order key space, and refresh keys never
/// collide between clients or rounds.
pub fn oltp_round(
    tpch: &TpchConfig,
    shape: OltpShape,
    seed: u64,
    round: u64,
    client: u64,
    clients: u64,
) -> OltpRound {
    let rs = round_seed(seed, round, client);
    let mut rng = StdRng::seed_from_u64(rs);
    let slice = |n: u64| {
        let per = (n / clients).max(1) as i64;
        let lo = 1 + per * client as i64;
        (lo, lo + per)
    };
    let (c_lo, c_hi) = slice(tpch.customers());
    let reads = (0..shape.reads)
        .map(|_| {
            let k = rng.random_range(c_lo..c_hi);
            (k, point_read_sql(k))
        })
        .collect();
    let (o_lo, o_hi) = slice(tpch.orders());
    let aggregates = (0..shape.aggregates)
        .map(|_| {
            let lo = rng.random_range(o_lo..(o_hi - SHORT_RANGE_KEYS).max(o_lo + 1));
            (lo, short_aggregate_sql(lo))
        })
        .collect();
    assert!((shape.refresh_pairs as i64) <= ROUND_KEY_STRIDE);
    let start_key = tpch.orders() as i64
        + 1
        + CLIENT_KEY_STRIDE * (client as i64 + 1)
        + ROUND_KEY_STRIDE * (round as i64 % (CLIENT_KEY_STRIDE / ROUND_KEY_STRIDE));
    let mut inserts = refresh_stream(tpch, 2 * shape.refresh_pairs, start_key, rs);
    let deletes = inserts.split_off(shape.refresh_pairs);
    OltpRound {
        reads,
        inserts,
        deletes,
        aggregates,
    }
}

/// The two-phase refresh stream of the mixed workload: `txns / 2` inserts,
/// then the deletes of the same orders.
pub fn mixed_refresh_stream(tpch: &TpchConfig, txns: usize, seed: u64) -> Vec<RefreshTransaction> {
    let start_key = tpch.orders() as i64 + 1 + CLIENT_KEY_STRIDE * 8;
    refresh_stream(tpch, txns & !1, start_key, round_seed(seed, 0, 8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clients_get_disjoint_keys() {
        let tpch = TpchConfig::new(0.002);
        let shape = OltpShape {
            reads: 100,
            refresh_pairs: 10,
            aggregates: 10,
        };
        let a = oltp_round(&tpch, shape, 7, 3, 0, 2);
        let b = oltp_round(&tpch, shape, 7, 3, 1, 2);
        let max_a = a.reads.iter().map(|r| r.0).max().unwrap();
        let min_b = b.reads.iter().map(|r| r.0).min().unwrap();
        assert!(max_a < min_b);
        let keys = |r: &OltpRound| r.inserts.iter().map(|t| t.orderkey).collect::<Vec<_>>();
        assert!(keys(&a).iter().all(|k| !keys(&b).contains(k)));
        assert_eq!(
            keys(&a),
            a.deletes.iter().map(|t| t.orderkey).collect::<Vec<_>>()
        );
        assert!(keys(&a).iter().all(|k| *k > tpch.orders() as i64));
    }

    #[test]
    fn streams_permute_the_same_eight_queries() {
        for stream in 0..3 {
            let mut idx: Vec<usize> = olap_pass(stream).iter().map(|s| s.index).collect();
            idx.sort_unstable();
            assert_eq!(idx, (0..8).collect::<Vec<_>>());
        }
        assert_ne!(olap_pass(1)[0].sql, olap_pass(2)[0].sql);
    }
}
