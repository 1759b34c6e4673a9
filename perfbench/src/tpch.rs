//! `tpch_lineitem`: flat TPC-H `lineitem` in unpartitioned Parquet files,
//! queried by a fixed suite on the single-node engine.
//!
//! The table is TPC-H data at a fixed size, so its answers are fixed and
//! pinned; the seed picks the needle's order key and each pass's query
//! order.

use std::sync::Arc;
use std::time::Instant;

use presto_common::{Page, Value};
use presto_connectors::hive::HiveConnector;
use presto_connectors::tpch::{generate_lineitem, lineitem_schema};
use presto_core::{PrestoEngine, Session};
use presto_parquet::{WriterMode, WriterProperties};
use presto_storage::{FileSystem, HdfsFileSystem};

use crate::answers::{bigints, digest_rows, doubles, integers, Check, Class};
use crate::harness::{secs, Rng};
use crate::suite::{Suite, SuiteQuery, SuiteWorkload, NEEDLE_REPEAT};
use crate::trace::{self, TracedConnector, TracedFs};

/// Rows in `lineitem`.
pub const ROWS: usize = 500_000;
/// Parquet files the rows are written as.
pub const FILES: usize = 10;
/// Rows per row group.
pub const ROW_GROUP_ROWS: usize = 10_000;
/// The generator seed of the table (fixed: TPC-H data is a function of its
/// size, and the pinned digests below depend on it).
const DATA_SEED: u64 = 1;

const LOCATION: &str = "/warehouse/tpch/lineitem";

pub struct TpchLineitem;

impl SuiteWorkload for TpchLineitem {
    const PASSES_PER_SECOND: f64 = 0.4;

    /// The generated rows, one page per file.
    type Data = Vec<Page>;

    fn setup(traced: bool) -> (Suite, Vec<Page>) {
        let start = Instant::now();
        let hdfs = HdfsFileSystem::with_defaults();
        let register = |fs: Arc<dyn FileSystem>| {
            let hive = HiveConnector::new(fs, presto_common::CounterSet::new());
            hive.register_table("tpch", "lineitem", lineitem_schema(), LOCATION, None);
            hive
        };
        let writer = if traced {
            register(Arc::new(TracedFs::new(Arc::new(hdfs.clone()))))
        } else {
            register(Arc::new(hdfs.clone()))
        };
        let rows_per_file = ROWS / FILES;
        let mut pages = Vec::with_capacity(FILES);
        let mut writes = Vec::with_capacity(FILES);
        for f in 0..FILES {
            let page = generate_lineitem(f * rows_per_file, rows_per_file, DATA_SEED)
                .expect("lineitem generation");
            let write = Instant::now();
            trace::span("parquet.write", || {
                writer.write_data_file(
                    "tpch",
                    "lineitem",
                    None,
                    &format!("part-{f:02}.parquet"),
                    std::slice::from_ref(&page),
                    WriterMode::Native,
                    WriterProperties {
                        row_group_rows: ROW_GROUP_ROWS,
                        ..WriterProperties::default()
                    },
                )
            })
            .expect("lineitem write");
            writes.push((format!("{rows_per_file} rows"), secs(write) * 1e3));
            pages.push(page);
        }
        let plain = register(Arc::new(hdfs));
        let engine = PrestoEngine::new();
        engine.register_catalog("hive", Arc::new(plain));
        let setup_s = secs(start);
        let traced = traced.then(|| {
            let engine = PrestoEngine::new();
            engine.register_catalog(
                "hive",
                Arc::new(TracedConnector::new(Arc::new(writer.clone()), trace::HIVE)),
            );
            (engine, writer)
        });
        let suite = Suite {
            engine,
            traced,
            session: Session::new("hive", "tpch"),
            writes,
            rows_written: ROWS as u64,
            setup_s,
        };
        (suite, pages)
    }

    fn queries(_: &Suite, pages: Vec<Page>, seed: u64) -> Vec<SuiteQuery> {
        queries(seed, Arc::new(pages))
    }
}

/// Row index of `(orderkey, linenumber)`: the generator makes four lines per
/// order, in row order.
fn row_index(orderkey: i64, linenumber: i32) -> Option<usize> {
    let i = (orderkey - 1) * 4 + i64::from(linenumber) - 1;
    usize::try_from(i).ok().filter(|&i| i < ROWS && (1..=4).contains(&linenumber))
}

/// The value at `column` of row `i` of the generated table.
fn cell(pages: &[Page], column: usize, i: usize) -> Value {
    let per_file = ROWS / FILES;
    pages[i / per_file].block(column).value(i % per_file)
}

fn queries(seed: u64, pages: Arc<Vec<Page>>) -> Vec<SuiteQuery> {
    let q = |name: &str, class, sql: String, check| {
        let repeat = if class == Class::Needle { NEEDLE_REPEAT } else { 1 };
        SuiteQuery { name: name.into(), class, sql, check, repeat }
    };
    let needle_key = 1 + Rng::new(seed).below(ROWS / 4) as i64;
    let mut needle_rows = Vec::new();
    for line in 1..=4 {
        let i = row_index(needle_key, line).expect("needle key is in range");
        needle_rows.push(vec![
            cell(&pages, 0, i),
            cell(&pages, 3, i),
            cell(&pages, 4, i),
            cell(&pages, 5, i),
        ]);
    }
    vec![
        q("q1_pricing_summary", Class::Agg,
          "SELECT returnflag, linestatus, sum(quantity), sum(extendedprice), \
           sum(extendedprice * (1 - discount)), sum(extendedprice * (1 - discount) * (1 + tax)), \
           avg(quantity), avg(extendedprice), avg(discount), count(*) FROM lineitem \
           WHERE shipdate <= CAST(10471 AS date) GROUP BY returnflag, linestatus \
           ORDER BY returnflag, linestatus".into(),
          Check::Digest(0xd383_7bb2_36e3_d347)),
        q("q6_revenue_change", Class::Agg,
          "SELECT sum(extendedprice * discount) FROM lineitem \
           WHERE shipdate >= CAST(8766 AS date) AND shipdate < CAST(9131 AS date) \
           AND discount BETWEEN 0.05 AND 0.07 AND quantity < 24".into(),
          Check::Digest(0x77e4_d5b0_6ed2_cd30)),
        q("group_by_orderkey", Class::Agg,
          "SELECT orderkey, sum(quantity) FROM lineitem GROUP BY orderkey".into(),
          Check::Digest(0x1051_4fa4_cd26_049f)),
        q("self_join", Class::Join,
          "SELECT l.shipmode, count(*), sum(l.extendedprice) FROM lineitem l \
           JOIN (SELECT orderkey, sum(quantity) AS total FROM lineitem GROUP BY orderkey) big \
           ON l.orderkey = big.orderkey WHERE big.total > 150 GROUP BY l.shipmode".into(),
          Check::Digest(0x9531_beec_5afe_9b47)),
        q("count_star", Class::Scan, "SELECT count(*) FROM lineitem".into(),
          Check::Rows { count: 1, row_ok: Box::new(|r| r == [Value::Bigint(ROWS as i64)]) }),
        q("needle_orderkey", Class::Needle,
          format!("SELECT orderkey, linenumber, quantity, extendedprice FROM lineitem WHERE orderkey = {needle_key}"),
          Check::Digest(digest_rows(&needle_rows))),
        q("topn_extendedprice", Class::TopnLimit,
          "SELECT orderkey, linenumber, extendedprice FROM lineitem ORDER BY extendedprice DESC LIMIT 10".into(),
          topn_check(&pages, 10)),
        q("limit_10", Class::TopnLimit, "SELECT * FROM lineitem LIMIT 10".into(), {
            let pages = pages.clone();
            Check::Rows {
                count: 10,
                row_ok: Box::new(move |r| {
                    let (Some(Value::Bigint(o)), Some(Value::Integer(l))) = (r.first(), r.get(3)) else {
                        return false;
                    };
                    row_index(*o, *l).is_some_and(|i| {
                        r.len() == 16 && (0..16).all(|c| r[c] == cell(&pages, c, i))
                    })
                }),
            }
        }),
    ]
}

/// The reference for `ORDER BY extendedprice DESC LIMIT n`: every row whose
/// price reaches the n-th highest, in price order.
fn topn_check(pages: &[Page], n: usize) -> Check {
    let mut rows: Vec<(f64, i64, i32)> = Vec::new();
    for page in pages {
        let (o, l, p) = (bigints(page.block(0)), integers(page.block(3)), doubles(page.block(5)));
        for i in 0..page.positions() {
            rows.push((p[i], o[i], l[i]));
        }
    }
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));
    let cut = rows[n - 1].0;
    let reference: Vec<Vec<Value>> = rows
        .into_iter()
        .take_while(|r| r.0 >= cut)
        .map(|(p, o, l)| vec![Value::Bigint(o), Value::Integer(l), Value::Double(p)])
        .collect();
    Check::limited(reference, vec![2], n)
}
