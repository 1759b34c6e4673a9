//! `trips_nested`: Fig 17's nested trips table (two `datestr` partitions of
//! 60k rows, 20 leaf columns) and its 21 queries on the new reader, plus a
//! TopN and a LIMIT so every query class is present.
//!
//! The table is built by `presto_bench::fig17::build`, which takes no seed,
//! so the answers are fixed and pinned; the seed picks each pass's query
//! order. Set-up also stages one day of trips into a second table through
//! `HiveConnector::write_data_file`, so the nested Parquet writer is timed.

use std::sync::Arc;
use std::time::Instant;

use presto_bench::fig17::{self, QueryKind};
use presto_common::{CounterSet, Value};
use presto_connectors::hive::HiveConnector;
use presto_core::{PrestoEngine, Session};
use presto_parquet::{WriterMode, WriterProperties};

use crate::answers::{digest_rows, strip_limit, Check, Class};
use crate::harness::secs;
use crate::suite::{Suite, SuiteQuery, SuiteWorkload, NEEDLE_REPEAT};
use crate::trace::{self, TracedConnector, TracedFs};

/// Rows per `datestr` partition (the size `paper-experiments fig17` uses).
pub const ROWS_PER_PARTITION: usize = 60_000;
const DAYS: [&str; 2] = ["2017-03-01", "2017-03-02"];
const LOCATION: &str = "/warehouse/rawdata/trips";
const STAGING: &str = "/warehouse/rawdata/trips_staging";
/// Rows per staged file.
const STAGING_FILE_ROWS: usize = 10_000;

/// Order-insensitive answer digests, pinned. For a query with a LIMIT the
/// digest is of its answer without the LIMIT.
const PINNED: &[(&str, u64)] = &[
    ("q01", 0xf05d_0429_5ec7_d149),
    ("q02", 0x583d_1443_19ec_61c1),
    ("q03", 0x0bf7_e0e1_81f1_721a),
    ("q04", 0x6697_efa5_07da_c6ed),
    ("q05", 0x7d5a_2b8e_d48b_453d),
    ("q06", 0xb364_af48_7a3a_f5aa),
    ("q07", 0x6aab_b8a0_af91_c6a5),
    ("q08", 0x1524_73e5_bdde_f0fe),
    ("q09", 0xf6bd_8e0d_7ca1_a281),
    ("q10", 0x9308_3227_670c_874e),
    ("q11", 0x1c55_db2c_2fc1_7455),
    ("q12", 0x30e8_424e_6653_8c95),
    ("q13", 0x4291_d792_a97f_ce33),
    ("q14", 0x417b_7802_3eb3_62d9),
    ("q15", 0x7326_601b_6679_7d9a),
    ("q16", 0x76e9_c3ed_6ede_b651),
    ("q17", 0x9547_f61d_8678_0305),
    ("q18", 0x6391_0e0d_cec9_79f6),
    ("q19", 0x626e_8b1a_19bb_54b6),
    ("q20", 0x88e4_c2d3_1c20_36c8),
    ("q21", 0xc9c9_99d7_9881_84c3),
    ("t22", 0xe73d_4fd0_ead5_d63d),
    ("t23", 0x16fb_b7f8_1742_1974),
];

/// Output columns each LIMIT query is ordered by (none: no ORDER BY).
const SORT_KEYS: &[(&str, &[usize])] = &[
    ("q06", &[1]),
    ("q10", &[1]),
    ("q12", &[]),
    ("q14", &[1]),
    ("q16", &[]),
    ("q17", &[1]),
    ("q19", &[1]),
    ("q21", &[0]),
    ("t22", &[1]),
    ("t23", &[]),
];

pub struct TripsNested;

impl SuiteWorkload for TripsNested {
    const PASSES_PER_SECOND: f64 = 1.5;

    /// The Fig 17 workload as built (its engine becomes the suite's).
    type Data = Vec<fig17::Fig17Query>;

    fn setup(traced: bool) -> (Suite, Self::Data) {
        let start = Instant::now();
        let workload = fig17::build(ROWS_PER_PARTITION);
        let session = Session::new("hive", "rawdata");
        let writer = if traced {
            let hive = HiveConnector::new(
                Arc::new(TracedFs::new(Arc::new(workload.hdfs.clone()))),
                CounterSet::new(),
            );
            hive.register_table(
                "rawdata",
                "trips",
                fig17::trips_schema(),
                LOCATION,
                Some("datestr"),
            );
            for day in DAYS {
                hive.add_partition("rawdata", "trips", day, true).expect("trips partition");
            }
            hive
        } else {
            workload.hive.clone()
        };
        let (writes, rows_written) = stage_one_day(&workload.engine, &session, &writer);
        let setup_s = secs(start);

        let traced = traced.then(|| {
            let engine = PrestoEngine::new();
            let mysql = workload.engine.catalogs().get("mysql").expect("fig17 registers mysql");
            engine.register_catalog(
                "hive",
                Arc::new(TracedConnector::new(Arc::new(writer.clone()), trace::HIVE)),
            );
            engine.register_catalog("mysql", Arc::new(TracedConnector::new(mysql, trace::MYSQL)));
            (engine, writer)
        });
        let suite =
            Suite { engine: workload.engine, traced, session, writes, rows_written, setup_s };
        (suite, workload.queries)
    }

    fn queries(suite: &Suite, fig17: Self::Data, _seed: u64) -> Vec<SuiteQuery> {
        let mut queries: Vec<(String, Class, String)> = fig17
            .into_iter()
            .map(|q| {
                let class = match q.kind {
                    QueryKind::Scan => Class::Scan,
                    QueryKind::NeedleScan => Class::Needle,
                    QueryKind::GroupBy => Class::Agg,
                    QueryKind::Join => Class::Join,
                };
                (q.name, class, q.sql)
            })
            .collect();
        queries.push((
            "t22".into(),
            Class::TopnLimit,
            "SELECT base.driver_uuid, base.fare FROM trips ORDER BY 2 DESC LIMIT 10".into(),
        ));
        queries.push((
            "t23".into(),
            Class::TopnLimit,
            "SELECT base.driver_uuid, base.city_id, datestr FROM trips LIMIT 10".into(),
        ));
        queries
            .into_iter()
            .map(|(name, class, sql)| {
                let check = check_for(&suite.engine, &suite.session, &name, &sql);
                let repeat = if class == Class::Needle { NEEDLE_REPEAT } else { 1 };
                SuiteQuery { name, class, sql, check, repeat }
            })
            .collect()
    }
}

/// Copy the first day's trips into `rawdata.trips_staging` as files of
/// [`STAGING_FILE_ROWS`] rows, and time each `write_data_file`.
fn stage_one_day(
    engine: &PrestoEngine,
    session: &Session,
    hive: &HiveConnector,
) -> (Vec<(String, f64)>, u64) {
    hive.register_table("rawdata", "trips_staging", fig17::trips_schema(), STAGING, None);
    let day = engine
        .execute_with_session(
            &format!("SELECT base FROM trips WHERE datestr = '{}'", DAYS[0]),
            session,
        )
        .expect("staging scan");
    let mut writes = Vec::new();
    let mut rows = 0;
    let pieces = day.pages.iter().flat_map(|page| {
        (0..page.positions())
            .step_by(STAGING_FILE_ROWS)
            .map(|at| page.slice(at, STAGING_FILE_ROWS.min(page.positions() - at)))
    });
    for (i, page) in pieces.enumerate() {
        let start = Instant::now();
        trace::span("parquet.write", || {
            hive.write_data_file(
                "rawdata",
                "trips_staging",
                None,
                &format!("part-{i:03}.parquet"),
                std::slice::from_ref(&page),
                WriterMode::Native,
                WriterProperties::default(),
            )
        })
        .expect("staging write");
        writes.push((format!("{} rows", page.positions()), secs(start) * 1e3));
        rows += page.positions() as u64;
    }
    (writes, rows)
}

/// A query's check: its pinned digest, or for a LIMIT query the answer
/// without the LIMIT, whose own digest must match the pin.
fn check_for(engine: &PrestoEngine, session: &Session, name: &str, sql: &str) -> Check {
    let pinned =
        PINNED.iter().find(|(n, _)| *n == name).map(|(_, d)| *d).expect("every query is pinned");
    let Some((unlimited, limit)) = strip_limit(sql) else {
        return Check::Digest(pinned);
    };
    let reference: Vec<Vec<Value>> = match engine.execute_with_session(&unlimited, session) {
        Ok(r) => r.rows(),
        Err(e) => {
            eprintln!("query failed: {name} without LIMIT: {e}");
            return Check::Never;
        }
    };
    let got = digest_rows(&reference);
    if got != pinned {
        eprintln!(
            "wrong answer: {name} without LIMIT has digest {got:#018x}, pinned {pinned:#018x}"
        );
        return Check::Never;
    }
    let keys = SORT_KEYS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, k)| k.to_vec())
        .expect("sort keys listed");
    Check::limited(reference, keys, limit)
}
