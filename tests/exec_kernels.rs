//! Differential property suite for the executor's typed kernels.
//!
//! Seeded random pages go through GROUP BY, inner and LEFT hash joins, and
//! sort / top-N, and each answer is checked against a naive oracle written
//! here: a `BTreeMap` of groups fed row by row, nested loops for joins, and
//! a stable sort over materialized rows. Every operator also runs spilled
//! under a tiny memory budget and must give the in-memory answer.
//!
//! The pages hold every key kind the kernels read from typed buffers:
//! bigint, integer, double (with `0.0`, `-0.0` and NaN), varchar (with `""`
//! and prefix-colliding values), date, boolean, NULLs in every column, and
//! dictionary-encoded varchar (always for `city`, on odd pages for `s1`).

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

use presto_common::{Block, DataType, Field, Page, Schema, Value};
use presto_connectors::CatalogRegistry;
use presto_exec::executor::execute_to_rows;
use presto_exec::ExecutionContext;
use presto_expr::{Accumulator, AggregateFunction, FunctionHandle, RowExpression};
use presto_plan::logical::{AggregateExpr, AggregateStep, JoinKind, LogicalPlan, SortKey};
use presto_resource::SpillManager;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BIG: usize = 0;
const INT: usize = 1;
const DBL: usize = 2;
const S1: usize = 3;
const S2: usize = 4;
const DAY: usize = 5;
const FLAG: usize = 6;
const CITY: usize = 7;
const AMOUNT: usize = 8;
const PRICE: usize = 9;
/// Columns usable as group, join or sort keys.
const KEY_COLUMNS: [usize; 8] = [BIG, INT, DBL, S1, S2, DAY, FLAG, CITY];

const STRINGS: [&str; 5] = ["", "a", "ab", "bc", "c"];
const CITIES: [&str; 3] = ["sf", "nyc", "la"];

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("big", DataType::Bigint),
        Field::new("int", DataType::Integer),
        Field::new("dbl", DataType::Double),
        Field::new("s1", DataType::Varchar),
        Field::new("s2", DataType::Varchar),
        Field::new("day", DataType::Date),
        Field::new("flag", DataType::Boolean),
        Field::new("city", DataType::Varchar),
        Field::new("amount", DataType::Bigint),
        Field::new("price", DataType::Double),
    ])
    .unwrap()
}

fn column(c: usize) -> RowExpression {
    let field = schema().field_at(c).clone();
    RowExpression::column(&field.name, c, field.data_type)
}

/// A dictionary block over `domain` (a NULL entry included), one id per row.
fn dictionary(domain: &[Value], values: &[Value]) -> Block {
    let ids = values.iter().map(|v| domain.iter().position(|d| d == v).unwrap() as u32).collect();
    Block::Dictionary {
        dictionary: Box::new(Block::from_values(&DataType::Varchar, domain).unwrap()),
        ids,
    }
}

fn random_page(rng: &mut StdRng, ordinal: usize, rows: usize) -> Page {
    let mut pick = |choices: &[Value]| -> Vec<Value> {
        (0..rows)
            .map(|_| {
                if rng.gen_range(0..10) == 0 {
                    Value::Null
                } else {
                    choices[rng.gen_range(0..choices.len())].clone()
                }
            })
            .collect()
    };
    let strings: Vec<Value> = STRINGS.iter().map(|&s| s.into()).collect();
    let cities: Vec<Value> = CITIES.iter().map(|&s| s.into()).collect();
    let big = pick(&(-3..3).map(Value::Bigint).collect::<Vec<_>>());
    let int = pick(&(0..4).map(Value::Integer).collect::<Vec<_>>());
    let dbl = pick(&[0.0, -0.0, f64::NAN, 1.5, -2.25, 1e300].map(Value::Double));
    let s1 = pick(&strings);
    let s2 = pick(&strings);
    let day = pick(&(0..3).map(Value::Date).collect::<Vec<_>>());
    let flag = pick(&[Value::Boolean(false), Value::Boolean(true)]);
    let city = pick(&cities);
    let amount = pick(&(-1000..1000).map(Value::Bigint).collect::<Vec<_>>());
    let price = pick(&(0..400).map(|x| Value::Double(f64::from(x) * 0.37)).collect::<Vec<_>>());

    let plain = |t: &DataType, v: &[Value]| Block::from_values(t, v).unwrap();
    let mut with_null = strings.clone();
    with_null.push(Value::Null);
    let mut cities_with_null = cities.clone();
    cities_with_null.push(Value::Null);
    Page::new(vec![
        plain(&DataType::Bigint, &big),
        plain(&DataType::Integer, &int),
        plain(&DataType::Double, &dbl),
        if ordinal % 2 == 1 { dictionary(&with_null, &s1) } else { plain(&DataType::Varchar, &s1) },
        plain(&DataType::Varchar, &s2),
        plain(&DataType::Date, &day),
        plain(&DataType::Boolean, &flag),
        dictionary(&cities_with_null, &city),
        plain(&DataType::Bigint, &amount),
        plain(&DataType::Double, &price),
    ])
    .unwrap()
}

/// A page count drawn from `pages`, each of up to `max_rows` rows (some may
/// be empty).
fn random_pages(rng: &mut StdRng, pages: std::ops::Range<usize>, max_rows: usize) -> Vec<Page> {
    let count = rng.gen_range(pages);
    (0..count)
        .map(|ordinal| {
            let rows = rng.gen_range(0..max_rows + 1);
            random_page(rng, ordinal, rows)
        })
        .collect()
}

fn source(fragment: u32) -> LogicalPlan {
    LogicalPlan::RemoteSource { fragment, schema: schema() }
}

fn context(sources: &[&[Page]]) -> ExecutionContext {
    let mut ctx = ExecutionContext::new(CatalogRegistry::new());
    for (fragment, pages) in sources.iter().enumerate() {
        ctx.bind_remote_source(fragment as u32, pages.to_vec());
    }
    ctx
}

/// A context capped at `budget` bytes with an in-memory spill manager.
fn spilling_context(sources: &[&[Page]], budget: usize) -> ExecutionContext {
    let ctx = context(sources).with_memory_budget(budget);
    let spill = SpillManager::in_memory(ctx.metrics.clone());
    let pool = ctx.pool.clone();
    ctx.with_resources(pool, Some(Arc::new(spill)))
}

fn rows_of(pages: &[Page]) -> Vec<Vec<Value>> {
    pages.iter().flat_map(Page::rows).collect()
}

// ------------------------------------------------------------------ oracle

/// NULLS LAST; doubles: NaN after every number, NaNs by bit pattern,
/// `-0.0 == 0.0`; everything else as `Value::total_cmp`.
fn oracle_cmp(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Null, _) => Ordering::Greater,
        (_, Value::Null) => Ordering::Less,
        (Value::Double(x), Value::Double(y)) => match (x.is_nan(), y.is_nan()) {
            (true, true) => x.to_bits().cmp(&y.to_bits()),
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => x.partial_cmp(y).unwrap(),
        },
        _ => a.total_cmp(b),
    }
}

fn oracle_cmp_rows(a: &[Value], b: &[Value]) -> Ordering {
    a.iter().zip(b).map(|(x, y)| oracle_cmp(x, y)).find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
}

/// A group key ordered by `oracle_cmp`.
#[derive(Clone, Debug)]
struct Key(Vec<Value>);

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        oracle_cmp_rows(&self.0, &other.0)
    }
}

// ----------------------------------------------------------------- GROUP BY

/// Every accumulator over a spread of argument kinds.
fn aggregates() -> Vec<(AggregateFunction, Option<usize>)> {
    use AggregateFunction::*;
    vec![
        (CountStar, None),
        (Count, Some(S1)),
        (Count, Some(CITY)),
        (Sum, Some(AMOUNT)),
        (Sum, Some(PRICE)),
        (Sum, Some(INT)),
        (Avg, Some(AMOUNT)),
        (Avg, Some(DBL)),
        // avg reads BIGINT, INTEGER and DOUBLE only: over dates it is NULL
        (Avg, Some(DAY)),
        (Min, Some(PRICE)),
        (Max, Some(DBL)),
        (Min, Some(S2)),
        (Max, Some(CITY)),
        (Max, Some(DAY)),
        (Min, Some(FLAG)),
        (Max, Some(BIG)),
    ]
}

fn aggregate_plan(keys: &[usize]) -> LogicalPlan {
    LogicalPlan::Aggregate {
        input: Box::new(source(0)),
        group_by: keys.iter().map(|&k| column(k)).collect(),
        aggregates: aggregates()
            .into_iter()
            .enumerate()
            .map(|(i, (function, arg))| AggregateExpr {
                function,
                argument: arg.map(column),
                name: format!("a{i}"),
            })
            .collect(),
        step: AggregateStep::Single,
    }
}

fn oracle_group_by(pages: &[Page], keys: &[usize]) -> Vec<Vec<Value>> {
    let aggs = aggregates();
    let mut groups: BTreeMap<Key, Vec<Accumulator>> = BTreeMap::new();
    for row in rows_of(pages) {
        let key = Key(keys.iter().map(|&k| row[k].clone()).collect());
        let accs = groups
            .entry(key)
            .or_insert_with(|| aggs.iter().map(|(f, _)| f.new_accumulator()).collect());
        for (acc, (_, arg)) in accs.iter_mut().zip(&aggs) {
            match arg {
                None => acc.add_count(1),
                Some(c) => acc.add(&row[*c]),
            }
        }
    }
    if keys.is_empty() && groups.is_empty() {
        // a global aggregate over no rows still answers one row
        groups.insert(Key(Vec::new()), aggs.iter().map(|(f, _)| f.new_accumulator()).collect());
    }
    groups
        .into_iter()
        .map(|(key, accs)| key.0.into_iter().chain(accs.iter().map(Accumulator::finish)).collect())
        .collect()
}

#[test]
fn group_by_matches_the_oracle_in_memory_and_spilled() {
    let mut spilled_cases = 0;
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let pages = random_pages(&mut rng, 1..5, 60);
        let width = rng.gen_range(1..4);
        let mut keys = Vec::new();
        while keys.len() < width {
            let k = KEY_COLUMNS[rng.gen_range(0..KEY_COLUMNS.len())];
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        let plan = aggregate_plan(&keys);
        let expected = oracle_group_by(&pages, &keys);
        let actual = execute_to_rows(&plan, &context(&[&pages])).unwrap();
        assert_eq!(actual, expected, "seed {seed}, keys {keys:?}");

        // One byte short of the in-memory table forces the Grace fallback;
        // with 8+ groups every partition's table fits.
        if expected.len() >= 8 {
            let budget = expected.len() * (64 + 48 * aggregates().len()) - 1;
            let ctx = spilling_context(&[&pages], budget);
            let spilled = execute_to_rows(&plan, &ctx).unwrap();
            assert!(ctx.metrics.get("spill.files") > 0, "seed {seed}: aggregation did not spill");
            assert_eq!(spilled, actual, "seed {seed}: spilled answer differs");
            spilled_cases += 1;
        }
    }
    assert!(spilled_cases >= 10, "only {spilled_cases} cases spilled");
}

#[test]
fn group_by_over_no_input_answers_no_rows_at_full_width() {
    for keys in [&[BIG][..], &[S1, DAY], &[DBL, FLAG, CITY]] {
        let plan = aggregate_plan(keys);
        for pages in [Vec::new(), vec![random_page(&mut StdRng::seed_from_u64(3), 0, 0)]] {
            let out = presto_exec::execute(&plan, &context(&[&pages])).unwrap();
            assert_eq!(out.len(), 1, "keys {keys:?}");
            assert_eq!(out[0].positions(), 0);
            assert_eq!(out[0].column_count(), keys.len() + aggregates().len(), "keys {keys:?}");
        }
    }
}

#[test]
fn global_aggregate_counts_rows_and_handles_empty_input() {
    let mut rng = StdRng::seed_from_u64(7);
    for pages in [random_pages(&mut rng, 3..4, 40), Vec::new()] {
        let actual = execute_to_rows(&aggregate_plan(&[]), &context(&[&pages])).unwrap();
        assert_eq!(actual, oracle_group_by(&pages, &[]));
        assert_eq!(actual.len(), 1);
    }
}

// -------------------------------------------------------------------- joins

fn amount_lt(width: usize) -> RowExpression {
    RowExpression::Call {
        handle: FunctionHandle::new(
            "lt",
            vec![DataType::Bigint, DataType::Bigint],
            DataType::Boolean,
        ),
        args: vec![
            column(AMOUNT),
            RowExpression::column("r_amount", width + AMOUNT, DataType::Bigint),
        ],
    }
}

fn join_plan(keys: &[usize], kind: JoinKind, residual: bool) -> LogicalPlan {
    LogicalPlan::Join {
        left: Box::new(source(0)),
        right: Box::new(source(1)),
        kind,
        on: keys.iter().map(|&k| (column(k), column(k))).collect(),
        residual: residual.then(|| amount_lt(schema().len())),
    }
}

/// Per probe page: matching pairs in (probe row, build row) order, then —
/// for LEFT joins — the page's unmatched probe rows, NULL-extended.
fn oracle_join(
    probe: &[Page],
    build: &[Page],
    keys: &[usize],
    kind: JoinKind,
    residual: bool,
) -> Vec<Vec<Value>> {
    let build_rows = rows_of(build);
    let width = schema().len();
    let mut out = Vec::new();
    for page in probe {
        let mut unmatched = Vec::new();
        for left in page.rows() {
            let mut matched = false;
            for right in &build_rows {
                let keys_match = keys.iter().all(|&k| !left[k].is_null() && left[k] == right[k]);
                let passes =
                    !residual || left[AMOUNT].sql_cmp(&right[AMOUNT]) == Some(Ordering::Less);
                if keys_match && passes {
                    matched = true;
                    out.push(left.iter().chain(right).cloned().collect());
                }
            }
            if !matched && kind == JoinKind::Left {
                unmatched.push(left.into_iter().chain(vec![Value::Null; width]).collect());
            }
        }
        out.extend(unmatched);
    }
    out
}

#[test]
fn hash_joins_match_the_oracle_in_memory_and_spilled() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(1_000 + seed);
        let probe = random_pages(&mut rng, 1..4, 40);
        // two or more build pages, so the build side concatenates to plain
        // blocks whose partitions are each smaller than the whole
        let build = random_pages(&mut rng, 2..4, 40);
        let mut keys = vec![KEY_COLUMNS[rng.gen_range(0..KEY_COLUMNS.len())]];
        if rng.gen_bool(0.4) {
            let k = KEY_COLUMNS[rng.gen_range(0..KEY_COLUMNS.len())];
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        let kind = if rng.gen_bool(0.5) { JoinKind::Left } else { JoinKind::Inner };
        let residual = rng.gen_bool(0.5);
        let plan = join_plan(&keys, kind, residual);
        let expected = oracle_join(&probe, &build, &keys, kind, residual);
        let actual = execute_to_rows(&plan, &context(&[&probe, &build])).unwrap();
        assert_eq!(actual, expected, "seed {seed}: keys {keys:?}, {kind:?}, residual {residual}");

        let build_size = Page::concat(&build).unwrap().memory_size();
        if build_size > 0 {
            let ctx = spilling_context(&[&probe, &build], build_size - 1);
            let mut spilled = execute_to_rows(&plan, &ctx).unwrap();
            assert!(ctx.metrics.get("spill.files") > 0, "seed {seed}: join did not spill");
            // Grace partitioning reorders rows across partitions
            let mut sorted = actual.clone();
            sorted.sort_by(|a, b| oracle_cmp_rows(a, b));
            spilled.sort_by(|a, b| oracle_cmp_rows(a, b));
            assert_eq!(spilled, sorted, "seed {seed}: spilled join differs");
        }
    }
}

// --------------------------------------------------------------- sort, top-N

fn oracle_sort(pages: &[Page], keys: &[SortKey], columns: &[usize]) -> Vec<Vec<Value>> {
    let mut rows = rows_of(pages);
    rows.sort_by(|a, b| {
        for (key, &c) in keys.iter().zip(columns) {
            let ord = oracle_cmp(&a[c], &b[c]);
            let ord = if key.descending { ord.reverse() } else { ord };
            if ord.is_ne() {
                return ord;
            }
        }
        Ordering::Equal
    });
    rows
}

#[test]
fn sort_and_top_n_match_a_stable_sort_in_memory_and_spilled() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(2_000 + seed);
        let pages = random_pages(&mut rng, 1..5, 50);
        let columns: Vec<usize> = (0..rng.gen_range(1..3))
            .map(|_| KEY_COLUMNS[rng.gen_range(0..KEY_COLUMNS.len())])
            .collect();
        let keys: Vec<SortKey> = columns
            .iter()
            .map(|&c| SortKey { expr: column(c), descending: rng.gen_bool(0.5) })
            .collect();
        let expected = oracle_sort(&pages, &keys, &columns);
        let count = rng.gen_range(0..expected.len() + 3);
        let sort = LogicalPlan::Sort { input: Box::new(source(0)), keys: keys.clone() };
        let top_n = LogicalPlan::TopN { input: Box::new(source(0)), keys, count };

        let sorted = execute_to_rows(&sort, &context(&[&pages])).unwrap();
        assert_eq!(sorted, expected, "seed {seed}: sort by {columns:?}");
        let top = execute_to_rows(&top_n, &context(&[&pages])).unwrap();
        let mut truncated = expected.clone();
        truncated.truncate(count);
        assert_eq!(top, truncated, "seed {seed}: top {count} by {columns:?}");

        // the whole input does not fit, so both sort externally
        let total: usize = pages.iter().map(Page::memory_size).sum();
        if pages.iter().filter(|p| !p.is_empty()).count() >= 2 {
            for (plan, want) in [(&sort, &sorted), (&top_n, &top)] {
                let ctx = spilling_context(&[&pages], total - 1);
                let spilled = execute_to_rows(plan, &ctx).unwrap();
                assert!(ctx.metrics.get("spill.files") > 0, "seed {seed}: sort did not spill");
                assert_eq!(&spilled, want, "seed {seed}: spilled sort differs");
            }
        }
    }
}
