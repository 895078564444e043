//! Seeded TPC-H data generator.
//!
//! Not a byte-for-byte `dbgen` clone: it preserves the *distributions the
//! evaluation queries and the SVP mechanism depend on* at a laptop scale
//! factor, and it is fully deterministic given `(scale_factor, seed)` so
//! every replica of the cluster loads identical data:
//!
//! * dense, uniform `o_orderkey` in `[1, orders]` (SVP splits this range),
//! * 1–7 lineitems per order with dates derived from the order date,
//! * `o_orderdate` uniform in [1992-01-01, 1998-08-02],
//! * the categorical domains the queries filter on (market segments,
//!   order priorities, ship modes, `PROMO%` part types, return flags
//!   consistent with receipt dates, nation/region names).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use apuama_engine::{Database, EngineResult};
use apuama_sql::{Date, Value};
use apuama_storage::Row;

use crate::schema;

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpchConfig {
    /// TPC-H scale factor. SF 1 ≙ 1.5 M orders; the reproduction defaults
    /// to 0.01–0.05.
    pub scale_factor: f64,
    /// RNG seed; same seed ⇒ identical database.
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            scale_factor: 0.01,
            seed: 42,
        }
    }
}

impl TpchConfig {
    pub fn new(scale_factor: f64) -> Self {
        TpchConfig {
            scale_factor,
            ..TpchConfig::default()
        }
    }

    fn scaled(&self, base: u64) -> u64 {
        ((base as f64 * self.scale_factor).round() as u64).max(1)
    }

    /// Number of orders at this scale factor.
    pub fn orders(&self) -> u64 {
        self.scaled(1_500_000)
    }

    /// Number of customers.
    pub fn customers(&self) -> u64 {
        self.scaled(150_000)
    }

    /// Number of parts.
    pub fn parts(&self) -> u64 {
        self.scaled(200_000)
    }

    /// Number of suppliers.
    pub fn suppliers(&self) -> u64 {
        self.scaled(10_000)
    }
}

/// The generated dataset: rows per table, ready for bulk loading into any
/// number of replicas.
#[derive(Debug, Clone)]
pub struct TpchData {
    pub config: TpchConfig,
    pub region: Vec<Row>,
    pub nation: Vec<Row>,
    pub supplier: Vec<Row>,
    pub part: Vec<Row>,
    pub partsupp: Vec<Row>,
    pub customer: Vec<Row>,
    pub orders: Vec<Row>,
    pub lineitem: Vec<Row>,
}

pub(crate) const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// The 25 TPC-H nations with their region keys.
pub(crate) const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

pub(crate) const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];

pub(crate) const PRIORITIES: [&str; 5] =
    ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

pub(crate) const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

const SHIP_INSTRUCT: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];

const TYPE_PREFIX: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_MIDDLE: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_SUFFIX: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];

/// Start of the TPC-H order-date window.
pub fn start_date() -> Date {
    Date::from_ymd(1992, 1, 1).expect("valid constant")
}

/// End of the TPC-H order-date window (exclusive).
pub fn end_date() -> Date {
    Date::from_ymd(1998, 8, 3).expect("valid constant")
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

fn money(cents: i64) -> Value {
    Value::Float(cents as f64 / 100.0)
}

/// TPC-H retail price formula (deterministic per part key).
fn retail_price(partkey: i64) -> i64 {
    90_000 + (partkey / 10) % 20_001 + 100 * (partkey % 1_000)
}

fn comment(rng: &mut StdRng, len: usize) -> Value {
    const WORDS: [&str; 12] = [
        "carefully",
        "quickly",
        "furiously",
        "deposits",
        "requests",
        "accounts",
        "packages",
        "special",
        "pending",
        "ironic",
        "express",
        "regular",
    ];
    let n = (len / 8).max(1);
    let mut out = String::new();
    for i in 0..n {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(WORDS[rng.random_range(0..WORDS.len())]);
    }
    Value::Str(out)
}

/// Generates the full dataset.
pub fn generate(config: TpchConfig) -> TpchData {
    let mut rng = StdRng::seed_from_u64(config.seed);

    let region: Vec<Row> = REGIONS
        .iter()
        .enumerate()
        .map(|(i, name)| vec![Value::Int(i as i64), s(name), comment(&mut rng, 24)])
        .collect();

    let nation: Vec<Row> = NATIONS
        .iter()
        .enumerate()
        .map(|(i, (name, region))| {
            vec![
                Value::Int(i as i64),
                s(name),
                Value::Int(*region),
                comment(&mut rng, 24),
            ]
        })
        .collect();

    let n_supp = config.suppliers() as i64;
    let supplier: Vec<Row> = (1..=n_supp)
        .map(|k| {
            vec![
                Value::Int(k),
                Value::Str(format!("Supplier#{k:09}")),
                comment(&mut rng, 16),
                Value::Int(rng.random_range(0..25)),
                Value::Str(format!("{}-{}", rng.random_range(10..35), k)),
                money(rng.random_range(-99_999..1_000_000)),
                comment(&mut rng, 32),
            ]
        })
        .collect();

    let n_part = config.parts() as i64;
    let part: Vec<Row> = (1..=n_part)
        .map(|k| {
            let ty = format!(
                "{} {} {}",
                TYPE_PREFIX[rng.random_range(0..TYPE_PREFIX.len())],
                TYPE_MIDDLE[rng.random_range(0..TYPE_MIDDLE.len())],
                TYPE_SUFFIX[rng.random_range(0..TYPE_SUFFIX.len())],
            );
            vec![
                Value::Int(k),
                Value::Str(format!("part {k}")),
                Value::Str(format!("Manufacturer#{}", 1 + k % 5)),
                Value::Str(format!("Brand#{}{}", 1 + k % 5, 1 + (k / 5) % 5)),
                Value::Str(ty),
                Value::Int(rng.random_range(1..51)),
                s("MED BOX"),
                money(retail_price(k)),
                comment(&mut rng, 16),
            ]
        })
        .collect();

    // 4 suppliers per part, TPC-H's partsupp layout.
    let mut partsupp: Vec<Row> = Vec::with_capacity((n_part * 4) as usize);
    for pk in 1..=n_part {
        for i in 0..4 {
            let sk = 1 + (pk + i * (n_supp / 4).max(1)) % n_supp;
            partsupp.push(vec![
                Value::Int(pk),
                Value::Int(sk),
                Value::Int(rng.random_range(1..10_000)),
                money(rng.random_range(100..100_001)),
                comment(&mut rng, 24),
            ]);
        }
    }

    let n_cust = config.customers() as i64;
    let customer: Vec<Row> = (1..=n_cust)
        .map(|k| {
            vec![
                Value::Int(k),
                Value::Str(format!("Customer#{k:09}")),
                comment(&mut rng, 16),
                Value::Int(rng.random_range(0..25)),
                Value::Str(format!("{}-{}", rng.random_range(10..35), k)),
                money(rng.random_range(-99_999..1_000_000)),
                s(SEGMENTS[rng.random_range(0..SEGMENTS.len())]),
                comment(&mut rng, 32),
            ]
        })
        .collect();

    let n_orders = config.orders() as i64;
    let date_lo = start_date().0;
    let date_hi = end_date().0;
    let cutoff = Date::from_ymd(1995, 6, 17).expect("valid constant").0;
    let mut orders: Vec<Row> = Vec::with_capacity(n_orders as usize);
    let mut lineitem: Vec<Row> = Vec::new();
    for ok in 1..=n_orders {
        let odate = Date(rng.random_range(date_lo..date_hi));
        let lines = rng.random_range(1..=7i64);
        let mut total = 0.0f64;
        let mut all_shipped = true;
        for ln in 1..=lines {
            let pk = rng.random_range(1..=n_part);
            let sk = rng.random_range(1..=n_supp);
            let qty = rng.random_range(1..=50i64);
            let price_cents = retail_price(pk) * qty;
            let discount = rng.random_range(0..=10i64) as f64 / 100.0;
            let tax = rng.random_range(0..=8i64) as f64 / 100.0;
            let ship = Date(odate.0 + rng.random_range(1..=121));
            let commit = Date(odate.0 + rng.random_range(30..=90));
            let receipt = Date(ship.0 + rng.random_range(1..=30));
            // dbgen's rules: the return flag depends on the *receipt* date,
            // the line status on the *ship* date — independently, which is
            // what produces Q1's four (flag, status) groups.
            let returnflag = if receipt.0 <= cutoff {
                if rng.random_bool(0.5) {
                    "R"
                } else {
                    "A"
                }
            } else {
                "N"
            };
            let linestatus = if ship.0 > cutoff {
                all_shipped = false;
                "O"
            } else {
                "F"
            };
            total += price_cents as f64 / 100.0 * (1.0 - discount) * (1.0 + tax);
            lineitem.push(vec![
                Value::Int(ok),
                Value::Int(pk),
                Value::Int(sk),
                Value::Int(ln),
                Value::Float(qty as f64),
                money(price_cents),
                Value::Float(discount),
                Value::Float(tax),
                s(returnflag),
                s(linestatus),
                Value::Date(ship),
                Value::Date(commit),
                Value::Date(receipt),
                s(SHIP_INSTRUCT[rng.random_range(0..SHIP_INSTRUCT.len())]),
                s(SHIP_MODES[rng.random_range(0..SHIP_MODES.len())]),
                comment(&mut rng, 20),
            ]);
        }
        let status = if all_shipped { "F" } else { "O" };
        orders.push(vec![
            Value::Int(ok),
            Value::Int(rng.random_range(1..=n_cust)),
            s(status),
            Value::Float(total),
            Value::Date(odate),
            s(PRIORITIES[rng.random_range(0..PRIORITIES.len())]),
            Value::Str(format!("Clerk#{:09}", rng.random_range(1..1_000))),
            Value::Int(0),
            comment(&mut rng, 32),
        ]);
    }

    TpchData {
        config,
        region,
        nation,
        supplier,
        part,
        partsupp,
        customer,
        orders,
        lineitem,
    }
}

impl TpchData {
    /// Rows of a table by name.
    pub fn rows(&self, table: &str) -> Option<&Vec<Row>> {
        match table {
            "region" => Some(&self.region),
            "nation" => Some(&self.nation),
            "supplier" => Some(&self.supplier),
            "part" => Some(&self.part),
            "partsupp" => Some(&self.partsupp),
            "customer" => Some(&self.customer),
            "orders" => Some(&self.orders),
            "lineitem" => Some(&self.lineitem),
            _ => None,
        }
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        schema::TABLES
            .iter()
            .map(|t| self.rows(t).map_or(0, Vec::len))
            .sum()
    }
}

/// Creates the schema and bulk-loads a replica — one call per cluster node.
pub fn load_into(db: &mut Database, data: &TpchData) -> EngineResult<()> {
    schema::create_schema(db)?;
    for t in schema::TABLES {
        // By reference: every replica reads the one generated copy.
        let rows: Vec<&Row> = data.rows(t).expect("TABLES is exhaustive").iter().collect();
        db.load_table(t, rows)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TpchData {
        generate(TpchConfig {
            scale_factor: 0.001,
            seed: 7,
        })
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(TpchConfig {
            scale_factor: 0.001,
            seed: 7,
        });
        let b = generate(TpchConfig {
            scale_factor: 0.001,
            seed: 7,
        });
        assert_eq!(a.orders, b.orders);
        assert_eq!(a.lineitem, b.lineitem);
    }

    #[test]
    fn different_seed_differs() {
        let a = generate(TpchConfig {
            scale_factor: 0.001,
            seed: 7,
        });
        let b = generate(TpchConfig {
            scale_factor: 0.001,
            seed: 8,
        });
        assert_ne!(a.lineitem, b.lineitem);
    }

    #[test]
    fn cardinalities_scale() {
        let d = small();
        assert_eq!(d.region.len(), 5);
        assert_eq!(d.nation.len(), 25);
        assert_eq!(d.orders.len(), 1_500);
        assert_eq!(d.customer.len(), 150);
        // 1..=7 lines per order.
        let lpo = d.lineitem.len() as f64 / d.orders.len() as f64;
        assert!((1.0..=7.0).contains(&lpo));
    }

    #[test]
    fn order_keys_dense_from_one() {
        let d = small();
        let keys: Vec<i64> = d.orders.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(keys[0], 1);
        assert_eq!(*keys.last().unwrap(), d.orders.len() as i64);
    }

    #[test]
    fn lineitem_dates_consistent() {
        let d = small();
        for row in d.lineitem.iter().take(500) {
            let ship = row[10].as_date().unwrap();
            let receipt = row[12].as_date().unwrap();
            assert!(receipt > ship, "receiptdate must follow shipdate");
        }
    }

    #[test]
    fn promo_parts_exist() {
        let d = small();
        let promo = d
            .part
            .iter()
            .filter(|r| r[4].as_str().unwrap().starts_with("PROMO"))
            .count();
        assert!(promo > 0);
        assert!(promo < d.part.len());
    }

    #[test]
    fn load_into_database() {
        let mut db = Database::in_memory();
        let d = small();
        load_into(&mut db, &d).unwrap();
        assert_eq!(db.table("orders").unwrap().row_count(), 1_500);
        assert_eq!(
            db.table("lineitem").unwrap().row_count() as usize,
            d.lineitem.len()
        );
        // Clustered order: lineitem heap sorted by l_orderkey.
        let li = db.table("lineitem").unwrap();
        let mut last = i64::MIN;
        for (_, row) in li.heap.iter().take(1000) {
            let k = row[0].as_i64().unwrap();
            assert!(k >= last);
            last = k;
        }
    }

    /// `load_into` hands the replica the generated rows by reference. It
    /// answers the evaluation queries byte for byte — counters included —
    /// like a replica loaded from an owned clone of every table, and so
    /// does a fork of it.
    #[test]
    fn a_replica_loaded_by_reference_equals_one_loaded_from_a_clone() {
        use crate::{QueryParams, ALL_QUERIES};
        let d = small();
        let mut by_ref = Database::in_memory();
        load_into(&mut by_ref, &d).unwrap();
        let mut owned = Database::in_memory();
        schema::create_schema(&mut owned).unwrap();
        for t in schema::TABLES {
            owned.load_table(t, d.rows(t).unwrap().clone()).unwrap();
        }
        let fork = by_ref.fork().unwrap();
        for t in schema::TABLES {
            let heap = |db: &Database| db.table(t).unwrap().heap.iter().collect::<Vec<_>>();
            assert_eq!(heap(&by_ref), heap(&owned), "{t}: heap order");
            assert_eq!(heap(&by_ref), heap(&fork), "{t}: heap order of the fork");
        }
        let params = QueryParams::default();
        for q in ALL_QUERIES {
            let sql = q.sql(&params);
            let want = owned.query(&sql).unwrap();
            for (db, what) in [(&by_ref, "by reference"), (&fork, "fork")] {
                let got = db.query(&sql).unwrap();
                assert_eq!(got.rows, want.rows, "{} {what}", q.label());
                assert_eq!(got.stats, want.stats, "{} {what}", q.label());
            }
        }
        // A row the schema rejects is rejected by reference too.
        let mut db = Database::in_memory();
        schema::create_schema(&mut db).unwrap();
        let mut bad = d.region.clone();
        bad[2][0] = Value::Null;
        let by_ref: Vec<&Row> = bad.iter().collect();
        assert_eq!(
            db.load_table("region", by_ref).unwrap_err().to_string(),
            db.load_table("region", bad.clone())
                .unwrap_err()
                .to_string()
        );
    }

    #[test]
    fn saudi_arabia_and_asia_present() {
        let d = small();
        assert!(d
            .nation
            .iter()
            .any(|r| r[1].as_str() == Some("SAUDI ARABIA")));
        assert!(d.region.iter().any(|r| r[1].as_str() == Some("ASIA")));
    }
}
