//! Scan work the engine avoids: `count(*)` decodes no column, and a plain
//! `LIMIT` stops reading once it holds enough rows.

use std::sync::Arc;

use presto_common::metrics::{names, CounterSet};
use presto_common::{Block, DataType, Field, Page, Schema, Value};
use presto_connectors::hive::{HiveConnector, HiveReaderConfig};
use presto_core::{PrestoEngine, Session};
use presto_parquet::{WriterMode, WriterProperties};
use presto_storage::HdfsFileSystem;

const FILES: usize = 10;
const ROWS_PER_FILE: usize = 1_000;
const ROW_GROUP_ROWS: usize = 250;

/// An unpartitioned three-column table of `FILES` files, each of four
/// row groups.
fn warehouse() -> (PrestoEngine, HiveConnector, CounterSet) {
    let metrics = CounterSet::new();
    let hive = HiveConnector::new(Arc::new(HdfsFileSystem::with_defaults()), metrics.clone());
    let schema = Schema::new(vec![
        Field::new("id", DataType::Bigint),
        Field::new("name", DataType::Varchar),
        Field::new("price", DataType::Double),
    ])
    .unwrap();
    hive.register_table("default", "items", schema, "/w/items", None);
    for f in 0..FILES {
        let ids: Vec<i64> = (0..ROWS_PER_FILE).map(|i| (f * ROWS_PER_FILE + i) as i64).collect();
        let names: Vec<String> = ids.iter().map(|i| format!("item-{i}")).collect();
        let prices: Vec<f64> = ids.iter().map(|&i| i as f64 / 4.0).collect();
        let page =
            Page::new(vec![Block::bigint(ids), Block::varchar(&names), Block::double(prices)])
                .unwrap();
        // the writer flushes a row group per written page that fills one
        let pages: Vec<Page> = (0..ROWS_PER_FILE / ROW_GROUP_ROWS)
            .map(|g| page.slice(g * ROW_GROUP_ROWS, ROW_GROUP_ROWS))
            .collect();
        hive.write_data_file(
            "default",
            "items",
            None,
            &format!("part-{f}.upq"),
            &pages,
            WriterMode::Native,
            WriterProperties { row_group_rows: ROW_GROUP_ROWS, ..WriterProperties::default() },
        )
        .unwrap();
    }
    let engine = PrestoEngine::new();
    engine.register_catalog("hive", Arc::new(hive.clone()));
    (engine, hive, metrics)
}

#[test]
fn count_star_decodes_no_column_on_either_reader() {
    let (engine, hive, metrics) = warehouse();
    let session = Session::new("hive", "default");
    for legacy in [false, true] {
        hive.set_reader_config(HiveReaderConfig {
            use_legacy_reader: legacy,
            ..HiveReaderConfig::default()
        });
        let before = metrics.get(names::HIVE_LEAVES_DECODED);
        let result = engine.execute_with_session("SELECT count(*) FROM items", &session).unwrap();
        assert_eq!(result.rows(), vec![vec![Value::Bigint((FILES * ROWS_PER_FILE) as i64)]]);
        assert_eq!(
            metrics.get(names::HIVE_LEAVES_DECODED) - before,
            0,
            "count(*) decoded columns (legacy reader: {legacy})"
        );
    }
}

#[test]
fn limit_decodes_one_row_group_of_ten_files() {
    let (engine, _hive, metrics) = warehouse();
    let session = Session::new("hive", "default");
    let result = engine.execute_with_session("SELECT * FROM items LIMIT 10", &session).unwrap();
    assert_eq!(result.row_count(), 10);
    // three leaves of the first row group of the first file, nothing else
    assert_eq!(metrics.get(names::HIVE_LEAVES_DECODED), 3);
    // against every leaf of every row group without the LIMIT
    let all = engine.execute_with_session("SELECT * FROM items", &session).unwrap();
    assert_eq!(all.row_count(), FILES * ROWS_PER_FILE);
    let row_groups = FILES * ROWS_PER_FILE / ROW_GROUP_ROWS;
    assert_eq!(metrics.get(names::HIVE_LEAVES_DECODED), 3 + 3 * row_groups as u64);
}
