//! The fixed-suite workloads (`tpch_lineitem`, `trips_nested`): one
//! closed-loop client runs every query of the suite once per pass (needle
//! queries [`NEEDLE_REPEAT`] times), in an order shuffled per pass from the
//! seed, on the single-node engine.

use std::time::Instant;

use presto_common::metrics::names;
use presto_common::Result;
use presto_connectors::hive::HiveConnector;
use presto_core::{PrestoEngine, QueryResult, Session};
use presto_expr::Evaluator;
use presto_plan::{fragment_plan, optimize};
use presto_sql::{analyze, parse_sql, AnalyzerContext, Statement};

use crate::answers::{digest, Check, Class};
use crate::calibrate::{Calibrator, SETUP_KERNEL_RUNS};
use crate::harness::{
    least, per_layer, secs, Args, CounterDelta, QuerySample, Report, Rng, Samples, TraceInputs,
};
use crate::trace;

/// One suite query and the check its every answer must pass.
pub struct SuiteQuery {
    pub name: String,
    pub class: Class,
    pub sql: String,
    pub check: Check,
    /// Executions per pass: cheap queries run several times, so their
    /// samples spread over the whole run.
    pub repeat: usize,
}

/// How often a needle query runs per pass.
pub const NEEDLE_REPEAT: usize = 8;

/// A built suite.
pub struct Suite {
    /// The engine over the plain catalogs.
    pub engine: PrestoEngine,
    /// In the traced run only: an engine over the same files behind the
    /// traced wrappers, and its Hive connector (for its counters).
    pub traced: Option<(PrestoEngine, HiveConnector)>,
    pub session: Session,
    /// `(shape, milliseconds)` per file the set-up wrote through
    /// `write_data_file`; a write's shape is its row count.
    pub writes: Vec<(String, f64)>,
    /// Rows the set-up wrote.
    pub rows_written: u64,
    /// Wall seconds the set-up took.
    pub setup_s: f64,
}

/// The workload-specific half of a suite workload.
pub trait SuiteWorkload {
    /// Suite passes measured per `--seconds` of the run.
    const PASSES_PER_SECOND: f64;

    /// What the answer checks need from the set-up besides the engine.
    type Data;

    /// Build the inputs. With `traced`, the set-up writes through
    /// [`trace::TracedFs`] (timed as `parquet.write` spans) and also builds
    /// [`Suite::traced`].
    fn setup(traced: bool) -> (Suite, Self::Data);

    /// The suite and its checks (built after the set-up, untimed).
    fn queries(suite: &Suite, data: Self::Data, seed: u64) -> Vec<SuiteQuery>;
}

/// Time the planning calls the engine makes internally, through the same
/// public functions, as `sql.parse` → `sql.analyze` → `plan.optimize`
/// (→ `plan.fragment` with `fragment`).
pub fn timed_planning(
    engine: &PrestoEngine,
    sql: &str,
    session: &Session,
    fragment: bool,
) -> Result<()> {
    let statement = trace::span("sql.parse", || parse_sql(sql))?;
    let (Statement::Query(query) | Statement::Explain(query) | Statement::ExplainAnalyze(query)) =
        &statement;
    let ctx = AnalyzerContext {
        catalogs: engine.catalogs().clone(),
        registry: engine.functions().clone(),
        default_catalog: session.catalog.clone(),
        default_schema: session.schema.clone(),
    };
    let plan = trace::span("sql.analyze", || analyze(query, &ctx))?;
    let evaluator = Evaluator::new(engine.functions().clone());
    let plan = trace::span("plan.optimize", || {
        optimize(plan, engine.catalogs(), &evaluator, &session.optimizer)
    })?;
    if fragment {
        trace::span("plan.fragment", || fragment_plan(plan))?;
    }
    Ok(())
}

/// Counters read off each answer.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    rows_out: f64,
    rows_scanned: f64,
    peak_reserved: f64,
}

impl Tally {
    fn judge(&mut self, q: &SuiteQuery, result: Result<QueryResult>) {
        self.attempted += 1;
        match result {
            Ok(r) => {
                self.rows_out += r.row_count() as f64;
                self.rows_scanned += r.metrics.get(names::EXEC_ROWS_SCANNED) as f64;
                self.peak_reserved =
                    self.peak_reserved.max(r.metrics.get(names::MEMORY_RESERVED_PEAK) as f64);
                if !q.check.holds(&r.pages) {
                    let d = digest(&r.pages);
                    eprintln!(
                        "wrong answer: {} ({} rows, digest {d:#018x})",
                        q.name,
                        r.row_count()
                    );
                    self.failed += 1;
                }
            }
            Err(e) => {
                eprintln!("query failed: {}: {e}", q.name);
                self.failed += 1;
            }
        }
    }
}

/// Run one pass: every query `repeat` times, in `order` (indices into
/// `queries`). Untraced passes call only `PrestoEngine::execute_with_session`;
/// traced ones wrap it in an `op` span beside the timed planning calls.
/// Returns each execution's wall seconds, in `order`. The untraced run's
/// calibrator `cal` ticks between executions.
fn pass(
    suite: &Suite,
    queries: &[SuiteQuery],
    order: &[usize],
    traced: bool,
    tally: &mut Tally,
    next_op: &mut u64,
    mut cal: Option<&mut Calibrator>,
) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(order.len());
    for &i in order {
        if let Some(cal) = cal.as_deref_mut() {
            cal.tick();
        }
        let q = &queries[i];
        let start = Instant::now();
        let result = if traced {
            let (engine, _) = suite.traced.as_ref().expect("traced run builds a traced engine");
            *next_op += 1;
            trace::set_query(*next_op);
            trace::span("op", || {
                timed_planning(engine, &q.sql, &suite.session, false)?;
                trace::span("query", || engine.execute_with_session(&q.sql, &suite.session))
            })
        } else {
            suite.engine.execute_with_session(&q.sql, &suite.session)
        };
        latencies.push(secs(start));
        tally.judge(q, result);
    }
    latencies
}

fn passes<W: SuiteWorkload>(args: &Args) -> usize {
    ((args.seconds as f64 * W::PASSES_PER_SECOND).round() as usize).max(3)
}

/// Each query index `repeat` times.
fn executions(queries: &[SuiteQuery]) -> Vec<usize> {
    queries.iter().enumerate().flat_map(|(i, q)| std::iter::repeat_n(i, q.repeat)).collect()
}

const SETUP_REPS: usize = 5;

/// Set up once for the untraced run, recording the set-up's time and writes.
fn set_up<W: SuiteWorkload>(samples: &mut Samples, cal: &mut Calibrator) -> (Suite, W::Data) {
    cal.sample(SETUP_KERNEL_RUNS);
    let (suite, data) = W::setup(false);
    samples.setups_s.push(suite.setup_s);
    samples.writes.extend(suite.writes.iter().cloned());
    (suite, data)
}

/// The untraced run: set up, one warm-up pass, then the measured passes,
/// with the other [`SETUP_REPS`]` - 1` set-ups (built and dropped) spread
/// between them, so set-up times sample the same host as the queries. Each
/// query is one shape, so its typical latency is the least of its
/// executions.
pub fn run_untraced<W: SuiteWorkload>(args: &Args) -> Report {
    let mut samples = Samples::default();
    let mut cal = Calibrator::new();
    let (suite, data) = set_up::<W>(&mut samples, &mut cal);
    let queries = W::queries(&suite, data, args.seed);
    let mut rng = Rng::new(args.seed);
    let mut tally = Tally::default();
    let mut order = executions(&queries);
    let mut op = 0;
    pass(&suite, &queries, &order, false, &mut tally, &mut op, Some(&mut cal));
    let n = passes::<W>(args);
    let extra_setups = SETUP_REPS - 1;
    for p in 0..n {
        rng.shuffle(&mut order);
        let latencies = pass(&suite, &queries, &order, false, &mut tally, &mut op, Some(&mut cal));
        let mut seen = vec![false; queries.len()];
        for (&i, s) in order.iter().zip(latencies) {
            let q = &queries[i];
            if !std::mem::replace(&mut seen[i], true) {
                samples.latency_of.push(samples.queries.len());
            }
            samples.queries.push(QuerySample {
                name: q.name.clone(),
                class: q.class,
                shape: q.name.clone(),
                s,
            });
        }
        while samples.setups_s.len() - 1 < (p + 1) * extra_setups / n {
            drop(set_up::<W>(&mut samples, &mut cal));
        }
    }
    Report {
        metrics: samples.end_to_end(cal.factor()),
        attempted: tally.attempted,
        failed: tally.failed,
        notes: vec![
            format!(
                "samples: {} setups, {} passes of {} executions, {} writes",
                samples.setups_s.len(),
                n,
                order.len(),
                samples.writes.len()
            ),
            samples.per_query(),
            cal.note(),
        ],
    }
}

/// The traced run: one traced set-up, then passes alternating untraced
/// (for `trace.overhead_pct`) and traced (for the spans).
pub fn run_traced<W: SuiteWorkload>(args: &Args) -> Report {
    trace::set_enabled(true);
    let (suite, data) = W::setup(true);
    trace::set_enabled(false);
    let queries = W::queries(&suite, data, args.seed);
    let mut rng = Rng::new(args.seed);
    let mut tally = Tally::default();
    let mut order = executions(&queries);
    let mut op = 0;
    pass(&suite, &queries, &order, false, &mut tally, &mut op, None);
    pass(&suite, &queries, &order, true, &mut tally, &mut op, None);

    let (_, hive) = suite.traced.as_ref().expect("traced run builds a traced engine");
    let counters = CounterDelta::start(hive.metrics(), HIVE_COUNTERS);
    let mut traced_tally = Tally::default();
    let (mut plain, mut timed) = (vec![Vec::new(); queries.len()], vec![Vec::new(); queries.len()]);
    for p in 0..passes::<W>(args) {
        rng.shuffle(&mut order);
        // alternate which side runs first, so warmth favours neither
        let mut run = |traced: bool| {
            trace::set_enabled(traced);
            let t = if traced { &mut traced_tally } else { &mut tally };
            let latencies = pass(&suite, &queries, &order, traced, t, &mut op, None);
            trace::set_enabled(false);
            latencies
        };
        let (untraced, traced) = if p % 2 == 0 {
            let u = run(false);
            (u, run(true))
        } else {
            let t = run(true);
            (run(false), t)
        };
        for (k, &i) in order.iter().enumerate() {
            plain[i].push(untraced[k]);
            timed[i].push(traced[k]);
        }
    }
    let suite_plain: f64 = plain.iter().map(|v| least(v)).sum();
    let suite_timed: f64 = timed.iter().map(|v| least(v)).sum();
    let spans = trace::take();
    let inputs = TraceInputs {
        queries: traced_tally.attempted as f64,
        rows_out: traced_tally.rows_out,
        rows_scanned: traced_tally.rows_scanned,
        peak_reserved: traced_tally.peak_reserved,
        rows_written: suite.rows_written as f64,
        leaves_decoded: counters.get(names::HIVE_LEAVES_DECODED),
        row_groups_skipped: counters.get(names::HIVE_ROW_GROUPS_SKIPPED),
        flc_hits: counters.get(names::FLC_HITS),
        flc_misses: counters.get(names::FLC_MISSES),
        flc_bypass: counters.get(names::FLC_BYPASS_OPEN_PARTITION),
        fhc_hits: counters.get(names::FHC_HITS),
        fhc_misses: counters.get(names::FHC_MISSES),
        overhead_pct: (suite_timed / suite_plain - 1.0) * 100.0,
        ..TraceInputs::default()
    };
    crate::write_spans(args, &spans);
    Report {
        metrics: per_layer(&spans, &inputs),
        attempted: tally.attempted + traced_tally.attempted,
        failed: tally.failed + traced_tally.failed,
        notes: vec![format!("untraced suite_s {suite_plain:.6}, traced suite_s {suite_timed:.6}")],
    }
}

/// The Hive counters a traced run reads.
pub const HIVE_COUNTERS: &[&str] = &[
    names::HIVE_LEAVES_DECODED,
    names::HIVE_ROW_GROUPS_SKIPPED,
    names::FLC_HITS,
    names::FLC_MISSES,
    names::FLC_BYPASS_OPEN_PARTITION,
    names::FHC_HITS,
    names::FHC_MISSES,
];
