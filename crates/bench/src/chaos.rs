//! §XII chaos experiment: a query stream against a cluster under seeded
//! fault injection, with and without coordinator fault recovery.
//!
//! Every task start may be failed (probability `fault_rate`) or turned into
//! a worker crash by the declarative [`FaultPlan`]; all decisions are pure
//! functions of `(seed, worker, task ordinal)`, and retry backoff advances
//! the virtual clock, so one `(seed, config)` pair replays the exact same
//! schedule — the experiment is a determinism check as much as a
//! survival-rate one.

use std::sync::Arc;
use std::time::Duration;

use presto_cluster::{ClusterConfig, PrestoCluster, SpeculationConfig};
use presto_common::metrics::{names, Fnv};
use presto_common::{Block, DataType, FaultInjector, FaultPlan, Field, Page, Schema, SimClock};
use presto_connectors::memory::MemoryConnector;
use presto_core::{PrestoEngine, Session};

/// Chaos run parameters.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Workers in the cluster.
    pub workers: u32,
    /// Queries submitted serially.
    pub queries: usize,
    /// Per-task transient fault probability.
    pub fault_rate: f64,
    /// Injector seed — same seed, same schedule.
    pub seed: u64,
    /// Coordinator split-reassignment recovery on/off.
    pub recovery: bool,
    /// Also crash worker 0 when it starts its 25th task (exercises abrupt
    /// node loss on top of the flaky-task noise).
    pub crash_worker: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            workers: 6,
            queries: 40,
            fault_rate: 0.10,
            seed: 42,
            recovery: true,
            crash_worker: true,
        }
    }
}

/// Outcome of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// The fault rate this run used.
    pub fault_rate: f64,
    /// Whether recovery was on.
    pub recovery: bool,
    /// Queries submitted.
    pub queries: usize,
    /// Queries that returned rows.
    pub succeeded: usize,
    /// `cluster.split_retries` at the end of the run.
    pub split_retries: u64,
    /// `cluster.worker_failures` at the end of the run.
    pub worker_failures: u64,
    /// `cluster.blacklisted_workers` at the end of the run.
    pub blacklisted_workers: u64,
    /// Worker crashes the injector fired.
    pub crashes_injected: u64,
    /// Transient task faults the injector fired.
    pub task_faults_injected: u64,
    /// Virtual time consumed by the run (admission waits + retry backoff).
    pub virtual_ms: u64,
    /// Order-sensitive digest over every successful query's rows — two runs
    /// with the same seed must agree bit-for-bit.
    pub rows_digest: u64,
    /// Order-sensitive fold of every successful query's virtual-time trace
    /// digest. Stronger than `rows_digest`: it pins not just *what* each
    /// query answered but the whole span tree — which worker ran which
    /// split, every injected failure, every retry round, every timestamp.
    pub trace_digest: u64,
}

impl ChaosResult {
    /// Fraction of queries that completed.
    pub fn success_rate(&self) -> f64 {
        self.succeeded as f64 / self.queries.max(1) as f64
    }
}

fn engine_with_table() -> PrestoEngine {
    let engine = PrestoEngine::new();
    let memory = MemoryConnector::new();
    let schema = Schema::new(vec![Field::new("x", DataType::Bigint)])
        .unwrap_or_else(|e| panic!("chaos schema: {e}"));
    // 12 pages → 12 splits per query, spread over the workers
    let pages: Vec<Page> = (0..12)
        .map(|p| {
            Page::new(vec![Block::bigint((p * 50..p * 50 + 50).collect())])
                .unwrap_or_else(|e| panic!("chaos page: {e}"))
        })
        .collect();
    memory
        .create_table("default", "t", schema, pages)
        .unwrap_or_else(|e| panic!("chaos table: {e}"));
    engine.register_catalog("memory", Arc::new(memory));
    engine
}

/// Run the chaos workload: `config.queries` aggregations over a 12-split
/// table while the injector fails tasks (and optionally crashes a worker).
pub fn run(config: &ChaosConfig) -> ChaosResult {
    let mut plan = FaultPlan::new().fail_rate(config.fault_rate);
    if config.crash_worker {
        plan = plan.crash_on_task(0, 25);
    }
    let injector = FaultInjector::new(config.seed, plan);
    let clock = SimClock::new();
    let cluster = PrestoCluster::new(
        "chaos",
        engine_with_table(),
        ClusterConfig {
            initial_workers: config.workers,
            fault_injector: injector.clone(),
            fault_recovery: config.recovery,
            max_split_attempts: 4,
            // rate 0.2 would trip a 3-strike blacklist constantly; the
            // experiment is about retries, so quarantine only real streaks
            blacklist_after: 4,
            ..ClusterConfig::default()
        },
        clock.clone(),
    );
    let session = Session::default();
    let start = clock.now();
    let mut succeeded = 0;
    let mut digest = Fnv::new();
    let mut trace_digest = Fnv::new();
    for _ in 0..config.queries {
        if let Ok(result) = cluster.execute("SELECT sum(x), count(*) FROM t", &session) {
            succeeded += 1;
            presto_exec::kernels::fold_rows(&result.pages, &mut digest);
            // Only successful queries fold in: a doomed query's cancel flag
            // races sibling workers, so its span count is timing-dependent.
            trace_digest.write(result.info.trace.digest());
        }
    }
    let virtual_ms = (clock.now() - start).as_millis() as u64;
    ChaosResult {
        fault_rate: config.fault_rate,
        recovery: config.recovery,
        queries: config.queries,
        succeeded,
        split_retries: cluster.metrics().get(names::CLUSTER_SPLIT_RETRIES),
        worker_failures: cluster.metrics().get(names::CLUSTER_WORKER_FAILURES),
        blacklisted_workers: cluster.metrics().get(names::CLUSTER_BLACKLISTED_WORKERS),
        crashes_injected: injector.crashes_injected(),
        task_faults_injected: injector.task_faults_injected(),
        virtual_ms,
        rows_digest: digest.finish(),
        trace_digest: trace_digest.finish(),
    }
}

/// Straggler scenario parameters: the same query stream, but instead of
/// failing tasks the injector *stalls* scan pages mid-stream, turning a
/// random subset of splits into stragglers hundreds of times slower than
/// their siblings. Run twice — speculation on and off — on the same seed
/// to measure what duplicate attempts buy at the tail.
#[derive(Debug, Clone)]
pub struct StragglerConfig {
    /// Workers in the cluster.
    pub workers: u32,
    /// Queries submitted serially.
    pub queries: usize,
    /// Injector seed — same seed, same stall schedule.
    pub seed: u64,
    /// Per-scan-page stall probability.
    pub stall_rate: f64,
    /// Injected stall length (virtual time) — each stalled page costs this.
    pub stall: Duration,
    /// Speculative execution on/off.
    pub speculation: bool,
}

impl Default for StragglerConfig {
    fn default() -> Self {
        StragglerConfig {
            workers: 4,
            queries: 30,
            seed: 42,
            stall_rate: 0.10,
            stall: Duration::from_millis(20),
            speculation: true,
        }
    }
}

/// Outcome of one straggler run.
#[derive(Debug, Clone)]
pub struct StragglerResult {
    /// Whether speculation was on.
    pub speculation: bool,
    /// Queries submitted.
    pub queries: usize,
    /// Queries that returned rows.
    pub succeeded: usize,
    /// Query latency percentiles (virtual µs) over the whole stream.
    pub p50_us: u64,
    /// 95th percentile latency (virtual µs).
    pub p95_us: u64,
    /// 99th percentile latency (virtual µs).
    pub p99_us: u64,
    /// `cluster.speculative_launches` at the end of the run.
    pub speculative_launches: u64,
    /// `cluster.speculative_wins` at the end of the run.
    pub speculative_wins: u64,
    /// `cluster.speculative_wasted` at the end of the run.
    pub speculative_wasted: u64,
    /// Mid-stream stalls the injector fired.
    pub stalls_injected: u64,
    /// Virtual time consumed by the run.
    pub virtual_ms: u64,
    /// Order-sensitive digest over every successful query's rows.
    pub rows_digest: u64,
    /// Order-sensitive fold of every successful query's trace digest.
    pub trace_digest: u64,
}

/// Run the straggler workload: `config.queries` aggregations over a
/// 12-split table while the injector stalls scan pages mid-stream.
pub fn run_straggler(config: &StragglerConfig) -> StragglerResult {
    let injector = FaultInjector::new(
        config.seed,
        FaultPlan::new().scan_stall_rate(config.stall_rate, config.stall),
    );
    let clock = SimClock::new();
    let cluster = PrestoCluster::new(
        "straggler",
        engine_with_table(),
        ClusterConfig {
            initial_workers: config.workers,
            fault_injector: injector.clone(),
            speculation: SpeculationConfig {
                enabled: config.speculation,
                ..SpeculationConfig::default()
            },
            ..ClusterConfig::default()
        },
        clock.clone(),
    );
    let session = Session::default();
    let start = clock.now();
    let mut succeeded = 0;
    let mut digest = Fnv::new();
    let mut trace_digest = Fnv::new();
    for _ in 0..config.queries {
        if let Ok(result) = cluster.execute("SELECT sum(x), count(*) FROM t", &session) {
            succeeded += 1;
            presto_exec::kernels::fold_rows(&result.pages, &mut digest);
            trace_digest.write(result.info.trace.digest());
        }
    }
    let latency = cluster.histograms().get(names::HIST_CLUSTER_QUERY_LATENCY_US);
    StragglerResult {
        speculation: config.speculation,
        queries: config.queries,
        succeeded,
        p50_us: latency.quantile(0.50),
        p95_us: latency.quantile(0.95),
        p99_us: latency.quantile(0.99),
        speculative_launches: cluster.metrics().get(names::CLUSTER_SPECULATIVE_LAUNCHES),
        speculative_wins: cluster.metrics().get(names::CLUSTER_SPECULATIVE_WINS),
        speculative_wasted: cluster.metrics().get(names::CLUSTER_SPECULATIVE_WASTED),
        stalls_injected: injector.stalls_injected(),
        virtual_ms: (clock.now() - start).as_millis() as u64,
        rows_digest: digest.finish(),
        trace_digest: trace_digest.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_materially_beats_no_recovery_at_ten_percent() {
        let on = run(&ChaosConfig::default());
        let off = run(&ChaosConfig { recovery: false, ..ChaosConfig::default() });
        assert!(on.success_rate() >= 0.95, "recovery on: {}/{} queries", on.succeeded, on.queries);
        assert!(on.split_retries > 0, "recovery must actually have retried splits");
        assert!(
            off.success_rate() <= on.success_rate() - 0.25,
            "recovery off must be materially worse: {} vs {}",
            off.success_rate(),
            on.success_rate()
        );
        assert_eq!(off.split_retries, 0, "no recovery, no retries");
    }

    #[test]
    fn same_seed_replays_the_same_schedule() {
        let a = run(&ChaosConfig::default());
        let b = run(&ChaosConfig::default());
        assert_eq!(a.rows_digest, b.rows_digest);
        assert_eq!(a.trace_digest, b.trace_digest, "span trees must replay bit-for-bit");
        assert_eq!(a.succeeded, b.succeeded);
        assert_eq!(a.split_retries, b.split_retries);
        assert_eq!(a.worker_failures, b.worker_failures);
        assert_eq!(a.task_faults_injected, b.task_faults_injected);
        assert_eq!(a.virtual_ms, b.virtual_ms);
        // and a different seed gives a different schedule
        let c = run(&ChaosConfig { seed: 43, ..ChaosConfig::default() });
        assert_ne!(
            (a.split_retries, a.task_faults_injected),
            (c.split_retries, c.task_faults_injected)
        );
    }

    #[test]
    fn zero_fault_rate_is_failure_free_without_the_crash() {
        let r =
            run(&ChaosConfig { fault_rate: 0.0, crash_worker: false, ..ChaosConfig::default() });
        assert_eq!(r.succeeded, r.queries);
        assert_eq!(r.split_retries, 0);
        assert_eq!(r.worker_failures, 0);
        assert_eq!(r.crashes_injected, 0);
    }

    #[test]
    fn speculation_beats_stragglers_at_the_tail() {
        let on = run_straggler(&StragglerConfig::default());
        let off = run_straggler(&StragglerConfig { speculation: false, ..Default::default() });
        // every query answers either way — stalls delay, they don't fail
        assert_eq!(on.succeeded, on.queries);
        assert_eq!(off.succeeded, off.queries);
        assert_eq!(on.rows_digest, off.rows_digest, "speculation must not change answers");
        assert!(on.stalls_injected > 0, "the plan must actually stall pages");
        assert!(on.speculative_launches > 0, "stalled splits must trigger duplicates");
        assert!(on.speculative_wins > 0, "some duplicates must win their race");
        assert_eq!(off.speculative_launches, 0, "speculation off launches nothing");
        assert!(
            on.p99_us < off.p99_us,
            "speculation must cut tail latency: on p99 {} vs off p99 {}",
            on.p99_us,
            off.p99_us
        );
    }

    #[test]
    fn straggler_runs_replay_on_the_same_seed() {
        let a = run_straggler(&StragglerConfig::default());
        let b = run_straggler(&StragglerConfig::default());
        assert_eq!(a.rows_digest, b.rows_digest);
        assert_eq!(a.trace_digest, b.trace_digest, "span trees must replay bit-for-bit");
        assert_eq!(a.speculative_launches, b.speculative_launches);
        assert_eq!(a.speculative_wins, b.speculative_wins);
        assert_eq!(a.stalls_injected, b.stalls_injected);
        assert_eq!(a.virtual_ms, b.virtual_ms);
    }
}
