//! `dashboard_ingest`: a 4-worker `PrestoCluster` with affinity scheduling
//! and the fragment result cache serves dashboard queries over a `ds`-
//! partitioned `lineitem` while files keep landing in an open partition.
//!
//! One closed-loop client runs a fixed operation sequence drawn from the
//! seed: five query templates over days skewed toward the newest, and every
//! tenth operation appends a file to the live partition, which is sealed
//! after eight files. Every answer is checked against one computed straight
//! from the generated rows (each template's aggregates are exact, so digests
//! compare bit for bit).

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use presto_cluster::{ClusterConfig, PrestoCluster};
use presto_common::metrics::{names, Fnv};
use presto_common::{CounterSet, Page, Result, SimClock, Value};
use presto_connectors::hive::HiveConnector;
use presto_connectors::tpch::{generate_lineitem, lineitem_schema};
use presto_core::{PrestoEngine, QueryResult, Session};
use presto_parquet::{WriterMode, WriterProperties};
use presto_storage::{FileSystem, HdfsFileSystem};

use crate::answers::{bigints, digest, digest_rows, doubles, integers, text, Class};
use crate::calibrate::{Calibrator, SETUP_KERNEL_RUNS};
use crate::harness::{
    per_layer, secs, Args, CounterDelta, QuerySample, Report, Rng, Samples, TraceInputs,
};
use crate::suite::{timed_planning, HIVE_COUNTERS};
use crate::trace::{self, TracedConnector, TracedFs};

pub const WORKERS: u32 = 4;
pub const FRAGMENT_CACHE_ENTRIES: usize = 4096;
pub const SEALED_DAYS: usize = 7;
pub const FILES_PER_SEALED_DAY: usize = 2;
pub const ROWS_PER_SEALED_FILE: usize = 25_000;
pub const ROWS_PER_LIVE_FILE: usize = 5_000;
pub const LIVE_FILES_BEFORE_SEAL: usize = 8;
/// Every `WRITE_EVERY`-th operation is an append.
pub const WRITE_EVERY: usize = 10;
/// Share of queries on the live partition; the rest fall on the sealed
/// days, the k-th newest with weight 1/k.
const LIVE_SHARE: f64 = 0.3;
/// Queries measured per `--seconds` of the run (never fewer than 1,000).
const QUERIES_PER_SECOND: f64 = 100.0;
const MIN_QUERIES: usize = 1_000;
const SETUP_REPS: usize = 5;
/// Operations per turn of the traced run's twins.
const TRACE_CHUNK: usize = 100;

const LOCATION: &str = "/warehouse/dash/lineitem";

/// The five templates: name, class, SQL with `{ds}` and `{key}` holes.
const TEMPLATES: [(&str, Class, &str); 5] = [
    (
        "flags_by_day",
        Class::Agg,
        "SELECT returnflag, linestatus, count(*), sum(quantity), max(extendedprice) FROM lineitem \
      WHERE ds = '{ds}' GROUP BY returnflag, linestatus",
    ),
    (
        "top_prices",
        Class::TopnLimit,
        "SELECT orderkey, linenumber, extendedprice FROM lineitem WHERE ds = '{ds}' \
      ORDER BY extendedprice DESC, orderkey, linenumber LIMIT 10",
    ),
    ("rows_in_day", Class::Scan, "SELECT count(*) FROM lineitem WHERE ds = '{ds}'"),
    (
        "order_lookup",
        Class::Needle,
        "SELECT orderkey, linenumber, quantity, extendedprice FROM lineitem \
      WHERE ds = '{ds}' AND orderkey = {key}",
    ),
    (
        "big_orders_by_mode",
        Class::Join,
        "SELECT l.shipmode, count(*), sum(l.quantity) FROM lineitem l \
      JOIN (SELECT orderkey FROM lineitem WHERE ds = '{ds}' AND quantity >= 48) big \
      ON l.orderkey = big.orderkey WHERE l.ds = '{ds}' GROUP BY l.shipmode",
    ),
];

/// What each template needs to know of one written file.
struct FileSummary {
    rows: i64,
    /// (returnflag, linestatus) → (count, sum(quantity), max(extendedprice)).
    flags: BTreeMap<(String, String), (i64, f64, f64)>,
    /// The file's ten best (extendedprice desc, orderkey, linenumber).
    top: Vec<(f64, i64, i32)>,
    /// Rows of the day's needle order.
    needle: Vec<Vec<Value>>,
    /// shipmode → (count, sum(quantity)) of the join. Orders never span
    /// files, so each file joins with itself only.
    join: BTreeMap<String, (i64, f64)>,
}

fn summarize(page: &Page, needle_key: i64) -> FileSummary {
    let (orderkey, linenumber) = (bigints(page.block(0)), integers(page.block(3)));
    let (quantity, price) = (doubles(page.block(4)), doubles(page.block(5)));
    let (flag, status, mode) = (page.block(8), page.block(9), page.block(14));
    let mut s = FileSummary {
        rows: page.positions() as i64,
        flags: BTreeMap::new(),
        top: Vec::new(),
        needle: Vec::new(),
        join: BTreeMap::new(),
    };
    let mut big: BTreeMap<i64, i64> = BTreeMap::new();
    for i in 0..page.positions() {
        let e = s.flags.entry((text(flag, i).into(), text(status, i).into())).or_insert((
            0,
            0.0,
            f64::MIN,
        ));
        e.0 += 1;
        e.1 += quantity[i];
        e.2 = e.2.max(price[i]);
        s.top.push((price[i], orderkey[i], linenumber[i]));
        if orderkey[i] == needle_key {
            s.needle.push(vec![
                Value::Bigint(orderkey[i]),
                Value::Integer(linenumber[i]),
                Value::Double(quantity[i]),
                Value::Double(price[i]),
            ]);
        }
        if quantity[i] >= 48.0 {
            *big.entry(orderkey[i]).or_default() += 1;
        }
    }
    for i in 0..page.positions() {
        if let Some(&n) = big.get(&orderkey[i]) {
            let e = s.join.entry(text(mode, i).into()).or_default();
            e.0 += n;
            e.1 += quantity[i] * n as f64;
        }
    }
    sort_top(&mut s.top);
    s
}

fn sort_top(top: &mut Vec<(f64, i64, i32)>) {
    top.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    top.truncate(10);
}

/// One `ds` partition and what its files hold.
struct Day {
    ds: String,
    needle_key: i64,
    files: Vec<FileSummary>,
}

impl Day {
    /// The right answer of template `t` over this day.
    fn expected(&self, t: usize) -> Vec<Vec<Value>> {
        match t {
            0 => {
                let mut flags: BTreeMap<&(String, String), (i64, f64, f64)> = BTreeMap::new();
                for f in &self.files {
                    for (k, v) in &f.flags {
                        let e = flags.entry(k).or_insert((0, 0.0, f64::MIN));
                        e.0 += v.0;
                        e.1 += v.1;
                        e.2 = e.2.max(v.2);
                    }
                }
                flags
                    .into_iter()
                    .map(|((rf, ls), (n, q, p))| {
                        vec![
                            rf.as_str().into(),
                            ls.as_str().into(),
                            Value::Bigint(n),
                            Value::Double(q),
                            Value::Double(p),
                        ]
                    })
                    .collect()
            }
            1 => {
                let mut top: Vec<(f64, i64, i32)> =
                    self.files.iter().flat_map(|f| f.top.iter().copied()).collect();
                sort_top(&mut top);
                top.into_iter()
                    .map(|(p, o, l)| vec![Value::Bigint(o), Value::Integer(l), Value::Double(p)])
                    .collect()
            }
            2 => vec![vec![Value::Bigint(self.files.iter().map(|f| f.rows).sum())]],
            3 => self.files.iter().flat_map(|f| f.needle.iter().cloned()).collect(),
            _ => {
                let mut join: BTreeMap<&str, (i64, f64)> = BTreeMap::new();
                for f in &self.files {
                    for (k, v) in &f.join {
                        let e = join.entry(k).or_default();
                        e.0 += v.0;
                        e.1 += v.1;
                    }
                }
                join.into_iter()
                    .map(|(m, (n, q))| vec![m.into(), Value::Bigint(n), Value::Double(q)])
                    .collect()
            }
        }
    }

    fn sql(&self, t: usize) -> String {
        TEMPLATES[t].2.replace("{ds}", &self.ds).replace("{key}", &self.needle_key.to_string())
    }
}

/// One operation of the sequence.
#[derive(Clone, Copy)]
enum Op {
    /// Template `template` on the live partition (`back` 0) or the
    /// `back`-th newest sealed day.
    Query { template: usize, back: usize },
    /// Append one file to the live partition.
    Write,
}

fn operations(seed: u64, queries: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let weights: Vec<f64> = (1..=SEALED_DAYS).map(|k| 1.0 / k as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut ops = Vec::new();
    let mut issued = 0;
    while issued < queries {
        if (ops.len() + 1) % WRITE_EVERY == 0 {
            ops.push(Op::Write);
            continue;
        }
        let template = rng.below(TEMPLATES.len());
        let back = if rng.unit() < LIVE_SHARE {
            0
        } else {
            let mut u = rng.unit() * total;
            let mut k = SEALED_DAYS;
            for (i, w) in weights.iter().enumerate() {
                if u < *w {
                    k = i + 1;
                    break;
                }
                u -= w;
            }
            k
        };
        ops.push(Op::Query { template, back });
        issued += 1;
    }
    ops
}

/// The built cluster and the state of its table.
struct Dashboard {
    cluster: Arc<PrestoCluster>,
    hive: HiveConnector,
    session: Session,
    seed: u64,
    days: Vec<Day>,
    /// `(day index, template)` pairs queried since the day was sealed, so
    /// the fragment cache holds their answers.
    cached: HashSet<(usize, usize)>,
    next_row: usize,
    rows_written: u64,
}

impl Dashboard {
    fn setup(seed: u64, traced: bool) -> (Dashboard, f64) {
        let start = Instant::now();
        let hdfs = HdfsFileSystem::with_defaults();
        let fs: Arc<dyn FileSystem> =
            if traced { Arc::new(TracedFs::new(Arc::new(hdfs))) } else { Arc::new(hdfs) };
        let hive = HiveConnector::new(fs, CounterSet::new());
        hive.register_table("dash", "lineitem", lineitem_schema(), LOCATION, Some("ds"));
        let engine = PrestoEngine::new();
        let catalog: Arc<dyn presto_connectors::Connector> = if traced {
            Arc::new(TracedConnector::new(Arc::new(hive.clone()), trace::HIVE))
        } else {
            Arc::new(hive.clone())
        };
        engine.register_catalog("hive", catalog);
        let config = ClusterConfig {
            initial_workers: WORKERS,
            affinity_scheduling: true,
            fragment_cache_entries: FRAGMENT_CACHE_ENTRIES,
            ..ClusterConfig::default()
        };
        let cluster = PrestoCluster::new("dashboards", engine, config, SimClock::new());
        let mut dash = Dashboard {
            cluster,
            hive,
            session: Session::new("hive", "dash"),
            seed,
            days: Vec::new(),
            cached: HashSet::new(),
            next_row: 0,
            rows_written: 0,
        };
        for _ in 0..SEALED_DAYS {
            dash.open_day(true);
            for _ in 0..FILES_PER_SEALED_DAY {
                dash.write_file(ROWS_PER_SEALED_FILE).expect("sealed-day write");
            }
        }
        dash.open_day(false);
        (dash, secs(start))
    }

    fn open_day(&mut self, sealed: bool) {
        let ds = format!("d{:04}", self.days.len());
        self.hive.add_partition("dash", "lineitem", &ds, sealed).expect("new partition");
        let needle_key = (self.next_row / 4) as i64 + 1 + 1000;
        self.days.push(Day { ds, needle_key, files: Vec::new() });
    }

    /// Generate `rows` rows and append them as one file to the newest day.
    /// Returns the wall milliseconds of `write_data_file` alone.
    fn write_file(&mut self, rows: usize) -> Result<f64> {
        let page = generate_lineitem(self.next_row, rows, self.seed)?;
        let day = self.days.last_mut().expect("a day is open");
        let name = format!("part-{:03}.parquet", day.files.len());
        let start = Instant::now();
        trace::span("parquet.write", || {
            self.hive.write_data_file(
                "dash",
                "lineitem",
                Some(&day.ds),
                &name,
                std::slice::from_ref(&page),
                WriterMode::Native,
                WriterProperties::default(),
            )
        })?;
        let ms = secs(start) * 1e3;
        day.files.push(summarize(&page, day.needle_key));
        self.next_row += rows;
        self.rows_written += rows as u64;
        Ok(ms)
    }

    /// Append to the live partition; seal it once full and open the next.
    fn ingest(&mut self) -> Result<f64> {
        let ms = self.write_file(ROWS_PER_LIVE_FILE)?;
        let live = self.day(0);
        if live.files.len() == LIVE_FILES_BEFORE_SEAL {
            self.hive.seal_partition("dash", "lineitem", &live.ds)?;
            self.open_day(false);
        }
        Ok(ms)
    }

    /// The day `back` steps behind the live one.
    fn day(&self, back: usize) -> &Day {
        &self.days[self.days.len() - 1 - back]
    }

    /// What sets the work of template `template` on day `back`: the
    /// template, the day's file count, and whether the day is live, sealed
    /// but not yet in the fragment cache, or cached. Marks the day cached.
    fn shape(&mut self, template: usize, back: usize) -> String {
        let index = self.days.len() - 1 - back;
        let state = if back == 0 {
            "live"
        } else if self.cached.insert((index, template)) {
            "cold"
        } else {
            "cached"
        };
        format!("{} on {} files, {state}", TEMPLATES[template].0, self.days[index].files.len())
    }

    fn execute(&self, sql: &str, traced: bool) -> Result<QueryResult> {
        if traced {
            trace::span("op", || {
                timed_planning(self.cluster.engine(), sql, &self.session, true)?;
                trace::span("query", || self.cluster.execute(sql, &self.session))
            })
        } else {
            self.cluster.execute(sql, &self.session)
        }
    }
}

/// Outcome of running the operation sequence.
#[derive(Default)]
struct Outcome {
    samples: Samples,
    /// The untraced run's calibrator, ticked before every operation.
    cal: Option<Calibrator>,
    attempted: u64,
    failed: u64,
    answers: u64,
    rows_out: f64,
    rows_scanned: f64,
    peak_reserved: f64,
}

impl Outcome {
    /// Check one answer against the day's expected rows.
    fn judge(
        &mut self,
        op: usize,
        name: &str,
        day: &Day,
        template: usize,
        result: Result<QueryResult>,
    ) {
        self.attempted += 1;
        let mut seq = Fnv::new();
        seq.write(self.answers);
        seq.write(op as u64);
        match result {
            Ok(r) => {
                self.rows_out += r.row_count() as f64;
                self.rows_scanned += r.metrics.get(names::EXEC_ROWS_SCANNED) as f64;
                self.peak_reserved =
                    self.peak_reserved.max(r.metrics.get(names::MEMORY_RESERVED_PEAK) as f64);
                let (got, want) = (digest(&r.pages), digest_rows(&day.expected(template)));
                if got != want {
                    eprintln!("wrong answer: op {op} {name} on {}: digest {got:#018x}, expected {want:#018x}", day.ds);
                    self.failed += 1;
                }
                seq.write(got);
            }
            Err(e) => {
                eprintln!("query failed: op {op} {name} on {}: {e}", day.ds);
                self.failed += 1;
            }
        }
        self.answers = seq.finish();
    }
}

/// Fill the fragment cache: every template once on every queried day.
fn warm_up(dash: &mut Dashboard, out: &mut Outcome) {
    for back in 0..=SEALED_DAYS {
        for (t, (name, _, _)) in TEMPLATES.iter().enumerate() {
            dash.shape(t, back);
            let day = dash.day(back);
            let result = dash.execute(&day.sql(t), false);
            out.judge(0, name, day, t, result);
        }
    }
}

/// Run `ops`, the first of which is operation number `first` of the
/// sequence.
fn run_ops(dash: &mut Dashboard, ops: &[Op], first: usize, traced: bool, out: &mut Outcome) {
    for (i, op) in (first..).zip(ops) {
        if let Some(cal) = &mut out.cal {
            cal.tick();
        }
        trace::set_query(i as u64 + 1);
        match *op {
            Op::Write => {
                out.attempted += 1;
                let shape = format!("append to {} files", dash.day(0).files.len());
                let start = Instant::now();
                let written =
                    if traced { trace::span("op", || dash.ingest()) } else { dash.ingest() };
                out.samples.wall_s += secs(start);
                match written {
                    Ok(ms) => out.samples.writes.push((shape, ms)),
                    Err(e) => {
                        eprintln!("append failed: op {i}: {e}");
                        out.failed += 1;
                    }
                }
            }
            Op::Query { template, back } => {
                let sql = dash.day(back).sql(template);
                let shape = dash.shape(template, back);
                let start = Instant::now();
                let result = dash.execute(&sql, traced);
                let s = secs(start);
                out.samples.wall_s += s;
                let (name, class, _) = TEMPLATES[template];
                out.samples.latency_of.push(out.samples.queries.len());
                out.samples.queries.push(QuerySample { name: name.to_string(), class, shape, s });
                out.judge(i + 1, name, dash.day(back), template, result);
            }
        }
    }
}

fn query_count(args: &Args) -> usize {
    ((args.seconds as f64 * QUERIES_PER_SECOND).round() as usize).max(MIN_QUERIES)
}

/// The untraced run: set up, warm up, then the operations, with the other
/// [`SETUP_REPS`]` - 1` set-ups (built and dropped) spread between them, so
/// set-up times sample the same host as the operations.
pub fn run_untraced(args: &Args) -> Report {
    let mut cal = Calibrator::new();
    let mut setups_s = Vec::new();
    let mut set_up = |cal: &mut Calibrator| {
        cal.sample(SETUP_KERNEL_RUNS);
        let (dash, s) = Dashboard::setup(args.seed, false);
        setups_s.push(s);
        dash
    };
    let mut dash = set_up(&mut cal);
    let ops = operations(args.seed, query_count(args));
    let mut out = Outcome { cal: Some(cal), ..Outcome::default() };
    warm_up(&mut dash, &mut out);
    let chunk = ops.len().div_ceil(SETUP_REPS - 1);
    for (k, part) in ops.chunks(chunk).enumerate() {
        run_ops(&mut dash, part, k * chunk, false, &mut out);
        drop(set_up(out.cal.as_mut().expect("the untraced run calibrates")));
    }
    let cal = out.cal.take().expect("the untraced run calibrates");
    out.samples.setups_s = setups_s;
    out.samples.writes_in_run = true;
    out.samples.latency_as_measured = true;
    let notes = vec![
        format!(
            "samples: {} setups, {} queries, {} appends, {} days at the end",
            out.samples.setups_s.len(),
            out.samples.queries.len(),
            out.samples.writes.len(),
            dash.days.len()
        ),
        format!("answer sequence digest {:#018x}", out.answers),
        cal.note(),
    ];
    Report {
        metrics: out.samples.end_to_end(cal.factor()),
        attempted: out.attempted,
        failed: out.failed,
        notes,
    }
}

pub fn run_traced(args: &Args) -> Report {
    let ops = operations(args.seed, query_count(args));
    // an untraced twin, for trace.overhead_pct
    let (mut plain, _) = Dashboard::setup(args.seed, false);
    let mut untraced = Outcome::default();
    warm_up(&mut plain, &mut untraced);
    let (mut dash, _) = Dashboard::setup(args.seed, true);
    let mut out = Outcome::default();
    warm_up(&mut dash, &mut out);
    let (hive_metrics, cluster_metrics) =
        (dash.hive.metrics().clone(), dash.cluster.metrics().clone());
    let hive = CounterDelta::start(&hive_metrics, HIVE_COUNTERS);
    let cluster = CounterDelta::start(&cluster_metrics, CLUSTER_COUNTERS);
    let rows_before = dash.rows_written;
    // the twins take turns by chunks, which side first alternating, so the
    // host's drifting speed favours neither
    for (k, chunk) in ops.chunks(TRACE_CHUNK).enumerate() {
        let first = k * TRACE_CHUNK;
        let traced_chunk = |dash: &mut Dashboard, out: &mut Outcome| {
            trace::set_enabled(true);
            run_ops(dash, chunk, first, true, out);
            trace::set_enabled(false);
        };
        if k % 2 == 0 {
            run_ops(&mut plain, chunk, first, false, &mut untraced);
            traced_chunk(&mut dash, &mut out);
        } else {
            traced_chunk(&mut dash, &mut out);
            run_ops(&mut plain, chunk, first, false, &mut untraced);
        }
    }
    drop(plain);
    let spans = trace::take();
    let qps = |o: &Outcome| o.samples.queries.len() as f64 / o.samples.wall_s;
    let inputs = TraceInputs {
        queries: out.samples.queries.len() as f64,
        rows_out: out.rows_out,
        rows_scanned: out.rows_scanned,
        peak_reserved: out.peak_reserved,
        rows_written: (dash.rows_written - rows_before) as f64,
        leaves_decoded: hive.get(names::HIVE_LEAVES_DECODED),
        row_groups_skipped: hive.get(names::HIVE_ROW_GROUPS_SKIPPED),
        flc_hits: hive.get(names::FLC_HITS),
        flc_misses: hive.get(names::FLC_MISSES),
        flc_bypass: hive.get(names::FLC_BYPASS_OPEN_PARTITION),
        fhc_hits: hive.get(names::FHC_HITS),
        fhc_misses: hive.get(names::FHC_MISSES),
        frc_hits: cluster.get(names::FRC_HITS),
        frc_misses: cluster.get(names::FRC_MISSES),
        cluster_queries: cluster.get(names::CLUSTER_QUERIES),
        cluster_tasks: cluster.get(names::CLUSTER_TASKS),
        split_retries: cluster.get(names::CLUSTER_SPLIT_RETRIES),
        on_cluster: true,
        overhead_pct: (qps(&untraced) / qps(&out) - 1.0) * 100.0,
    };
    let mut failed = untraced.failed + out.failed;
    if untraced.answers != out.answers {
        eprintln!("traced and untraced answer sequences differ");
        failed += 1;
    }
    crate::write_spans(args, &spans);
    let notes = vec![
        format!("untraced qps {:.3}, traced qps {:.3}", qps(&untraced), qps(&out)),
        format!("answer sequence digest {:#018x}", out.answers),
    ];
    Report {
        metrics: per_layer(&spans, &inputs),
        attempted: untraced.attempted + out.attempted,
        failed,
        notes,
    }
}

const CLUSTER_COUNTERS: &[&str] = &[
    names::FRC_HITS,
    names::FRC_MISSES,
    names::CLUSTER_QUERIES,
    names::CLUSTER_TASKS,
    names::CLUSTER_SPLIT_RETRIES,
];
