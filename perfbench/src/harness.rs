//! What every workload shares: the command line, the seeded generator,
//! wall-clock samples, the metric formulas and the result line.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use presto_common::CounterSet;

use crate::answers::Class;
use crate::trace::{self, Span, Totals};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|_| format!("bad --seconds {value}"))?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10).max(1),
            trace: trace.unwrap_or(false),
        })
    }
}

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Least value of a sample (0 for an empty one).
pub fn least(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Each sample `(shape, value)` with its value replaced by the least value
/// any sample of its shape took. Operations of one shape do the same work,
/// so they differ only by how much of the host they were given; the least
/// of them is the program's own cost.
pub fn at_best(samples: &[(&str, f64)]) -> Vec<f64> {
    let mut best: HashMap<&str, f64> = HashMap::new();
    for &(shape, v) in samples {
        let b = best.entry(shape).or_insert(v);
        *b = b.min(v);
    }
    samples.iter().map(|(shape, _)| best[shape]).collect()
}

/// Nearest-rank percentile `p` in `(0, 1]` (0 for an empty sample).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One named, unit-tagged metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// One measured query execution.
pub struct QuerySample {
    pub name: String,
    pub class: Class,
    /// What sets the execution's work: the query, and for the dashboard
    /// also the partition's files and whether its cache was filled.
    pub shape: String,
    pub s: f64,
}

/// Wall-clock samples of an untraced run.
///
/// The host lends this process its CPU at a speed that drifts by up to half
/// for seconds to minutes at a time. So the end-to-end metrics take each
/// execution [`at_best`], the least time its shape took in the run (but for
/// the dashboard's latency percentiles), and scale every time by the run's
/// calibration (see `calibrate.rs`).
#[derive(Default)]
pub struct Samples {
    /// Every measured query execution, in order.
    pub queries: Vec<QuerySample>,
    /// Indices into `queries` of the latency distribution: every query of
    /// the dashboard, and one execution per query and pass of a suite (so
    /// repeats of cheap queries do not move the percentiles).
    pub latency_of: Vec<usize>,
    /// Whether the latency percentiles take each execution as measured
    /// rather than at its shape's best: so on the dashboard, whose tail is
    /// made of slow executions within a shape (a live partition's file
    /// opens, a cold fragment cache), not of slow shapes.
    pub latency_as_measured: bool,
    /// `(shape, milliseconds)` per file written through
    /// `HiveConnector::write_data_file`.
    pub writes: Vec<(String, f64)>,
    /// Whether the writes were operations of the measured run (so their
    /// time counts against `qps`) rather than of the set-ups.
    pub writes_in_run: bool,
    /// Seconds per set-up.
    pub setups_s: Vec<f64>,
    /// Wall seconds of the measured operations as measured (answer checks
    /// excluded), for the dashboard's traced run.
    pub wall_s: f64,
}

impl Samples {
    /// Each query execution's seconds, at its shape's best.
    fn queries_at_best(&self) -> Vec<f64> {
        let timed: Vec<(&str, f64)> =
            self.queries.iter().map(|q| (q.shape.as_str(), q.s)).collect();
        at_best(&timed)
    }

    /// Per query name: its class and its typical latency, the mean of its
    /// executions at their best.
    fn typical(&self) -> BTreeMap<&str, (Class, f64)> {
        let mut by_name: BTreeMap<&str, (Class, f64, usize)> = BTreeMap::new();
        for (q, s) in self.queries.iter().zip(self.queries_at_best()) {
            let e = by_name.entry(&q.name).or_insert((q.class, 0.0, 0));
            e.1 += s;
            e.2 += 1;
        }
        by_name.into_iter().map(|(n, (c, sum, k))| (n, (c, sum / k as f64))).collect()
    }

    /// `<name> <ms>` of every query's typical latency, on one line.
    pub fn per_query(&self) -> String {
        let parts: Vec<String> =
            self.typical().iter().map(|(n, (_, m))| format!("{n} {:.3}", m * 1e3)).collect();
        format!("typical ms: {}", parts.join(", "))
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order, with every time
    /// multiplied by the run's calibration `factor`.
    pub fn end_to_end(&self, factor: f64) -> Vec<Metric> {
        let typical = self.typical();
        let sum = |class: Option<Class>| -> f64 {
            typical.values().filter(|(k, _)| class.is_none_or(|c| *k == c)).map(|(_, m)| m).sum()
        };
        let queries = self.queries_at_best();
        let latencies_ms: Vec<f64> = self
            .latency_of
            .iter()
            .map(|&i| if self.latency_as_measured { self.queries[i].s } else { queries[i] } * 1e3)
            .collect();
        let timed: Vec<(&str, f64)> = self.writes.iter().map(|(w, ms)| (w.as_str(), *ms)).collect();
        let writes_ms = at_best(&timed);
        let mut busy_s = queries.iter().sum::<f64>();
        if self.writes_in_run {
            busy_s += writes_ms.iter().sum::<f64>() / 1e3;
        }
        let time = |name, value: f64, unit| Metric { name, value: value * factor, unit };
        let mut out =
            vec![time("setup_s", least(&self.setups_s), "s"), time("suite_s", sum(None), "s")];
        for c in Class::ALL {
            out.push(time(c.metric(), sum(Some(c)), "s"));
        }
        out.extend([
            Metric {
                name: "qps",
                value: queries.len() as f64 / busy_s / factor,
                unit: "queries/s",
            },
            time("latency_p50_ms", median(&latencies_ms), "ms"),
            time("latency_p99_ms", percentile(&latencies_ms, 0.99), "ms"),
            time("write_p50_ms", median(&writes_ms), "ms"),
            Metric { name: "peak_rss_mb", value: peak_rss_mb(), unit: "MiB" },
        ]);
        out
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counter readings taken before and after the traced phase.
pub struct CounterDelta<'a> {
    set: &'a CounterSet,
    before: BTreeMap<&'static str, u64>,
}

impl<'a> CounterDelta<'a> {
    pub fn start(set: &'a CounterSet, names: &[&'static str]) -> CounterDelta<'a> {
        CounterDelta { set, before: names.iter().map(|n| (*n, set.get(n))).collect() }
    }

    pub fn get(&self, name: &'static str) -> f64 {
        let before = self.before.get(name).copied().expect("counter registered at start");
        self.set.get(name).saturating_sub(before) as f64
    }
}

/// What a traced run measured besides its spans.
#[derive(Default)]
pub struct TraceInputs {
    /// Queries traced (the base of every per-query mean).
    pub queries: f64,
    /// Rows the traced queries returned.
    pub rows_out: f64,
    /// `exec.rows_scanned` summed over the traced queries.
    pub rows_scanned: f64,
    /// Largest `memory.reserved_peak` of a traced query, in bytes.
    pub peak_reserved: f64,
    /// Rows written through `write_data_file` while tracing.
    pub rows_written: f64,
    /// Hive counters over the traced phase: leaves decoded, row groups
    /// skipped, file-list cache hits, misses and open-partition bypasses,
    /// file-handle cache hits and misses.
    pub leaves_decoded: f64,
    pub row_groups_skipped: f64,
    pub flc_hits: f64,
    pub flc_misses: f64,
    pub flc_bypass: f64,
    pub fhc_hits: f64,
    pub fhc_misses: f64,
    /// Cluster counters over the traced phase (0 off the cluster).
    pub frc_hits: f64,
    pub frc_misses: f64,
    pub cluster_queries: f64,
    pub cluster_tasks: f64,
    pub split_retries: f64,
    /// Whether queries ran through `PrestoCluster::execute`.
    pub on_cluster: bool,
    /// Traced against untraced `suite_s` (or `qps`), in percent.
    pub overhead_pct: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order. Times are means per
/// traced query unless the name says otherwise.
pub fn per_layer(spans: &[Span], t: &TraceInputs) -> Vec<Metric> {
    let totals = trace::totals(spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let q = t.queries;
    let per_q = |x: f64| ratio(x, q);
    let both = |a: &str, b: &str| {
        let (x, y) = (get(a), get(b));
        Totals {
            calls: x.calls + y.calls,
            total_ns: x.total_ns + y.total_ns,
            self_ns: x.self_ns + y.self_ns,
            count: x.count + y.count,
        }
    };
    let parse = get("sql.parse").total_ns as f64;
    let analyze = get("sql.analyze").total_ns as f64;
    let optimize = get("plan.optimize").total_ns as f64;
    let fragment = get("plan.fragment").total_ns as f64;
    // the query span minus the connector (and, below them, storage) calls
    // it covers, minus the planning the benchmark timed beside it
    let remainder = (get("query").self_ns as f64 - parse - analyze - optimize - fragment).max(0.0);
    let splits = both(trace::HIVE.splits, trace::MYSQL.splits);
    let scans = both(trace::HIVE.scan, trace::MYSQL.scan);
    let hive_scan = get(trace::HIVE.scan);
    let reads = get("storage.read");
    let write = get("parquet.write");
    let stored = get("storage.write");
    let (exec_self, cluster_self) = if t.on_cluster { (0.0, remainder) } else { (remainder, 0.0) };
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        m("trace.queries", q, "count"),
        m("sql.parse_us", per_q(parse) / 1e3, "us"),
        m("sql.analyze_us", per_q(analyze) / 1e3, "us"),
        m("plan.optimize_us", per_q(optimize) / 1e3, "us"),
        m("plan.fragment_us", per_q(fragment) / 1e3, "us"),
        m("exec.self_ms", per_q(exec_self) / 1e6, "ms"),
        m("exec.rows_out", t.rows_out, "count"),
        m("exec.rows_scanned_per_row_out", ratio(t.rows_scanned, t.rows_out), "ratio"),
        m("connectors.splits_us", per_q(splits.total_ns as f64) / 1e3, "us"),
        m("connectors.scan_calls", per_q(scans.calls as f64), "count"),
        m("connectors.scan_ms", per_q(scans.self_ns as f64) / 1e6, "ms"),
        m("connectors.rows_out", per_q(scans.count as f64), "count"),
        m("parquet.scan_ns_per_row", ratio(hive_scan.self_ns as f64, hive_scan.count as f64), "ns"),
        m("parquet.leaves_decoded", per_q(t.leaves_decoded), "count"),
        m("parquet.row_groups_skipped", per_q(t.row_groups_skipped), "count"),
        m("parquet.write_ms", ratio(write.self_ns as f64, write.calls as f64) / 1e6, "ms"),
        m("parquet.rows_written", t.rows_written, "count"),
        m("parquet.bytes_written_per_row", ratio(stored.count as f64, t.rows_written), "bytes"),
        m("storage.read_calls", per_q(reads.calls as f64), "count"),
        m("storage.bytes_read_mb", per_q(reads.count as f64) / (1024.0 * 1024.0), "MiB"),
        m("storage.read_ms", per_q(reads.total_ns as f64) / 1e6, "ms"),
        m("storage.list_calls", per_q(get("storage.list").calls as f64), "count"),
        m("storage.getinfo_calls", per_q(get("storage.getinfo").calls as f64), "count"),
        m("cache.fragment_lookups", t.frc_hits + t.frc_misses, "count"),
        m("cache.fragment_hit_ratio", ratio(t.frc_hits, t.frc_hits + t.frc_misses), "ratio"),
        m("cache.file_list_lookups", t.flc_hits + t.flc_misses, "count"),
        m("cache.file_list_hit_ratio", ratio(t.flc_hits, t.flc_hits + t.flc_misses), "ratio"),
        m("cache.file_list_bypass", t.flc_bypass, "count"),
        m("cache.file_handle_lookups", t.fhc_hits + t.fhc_misses, "count"),
        m("cache.file_handle_hit_ratio", ratio(t.fhc_hits, t.fhc_hits + t.fhc_misses), "ratio"),
        m("cluster.self_ms", per_q(cluster_self) / 1e6, "ms"),
        m("cluster.queries", t.cluster_queries, "count"),
        m("cluster.tasks_per_query", ratio(t.cluster_tasks, t.cluster_queries), "count"),
        m("cluster.split_retries", t.split_retries, "count"),
        m("resource.peak_reserved_mb", t.peak_reserved / (1024.0 * 1024.0), "MiB"),
        m("trace.overhead_pct", t.overhead_pct, "%"),
    ]
}

/// Outcome of one run: its metrics and how many operations were right.
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Extra `name value` lines for the human-readable table (sample
    /// counts, digests).
    pub notes: Vec<String>,
}

impl Report {
    /// Print the table to stderr and the result object as the last line of
    /// stdout.
    pub fn emit(&self) {
        for m in &self.metrics {
            eprintln!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        eprintln!(
            "{:<34} {:>16.6} ratio ({} of {} operations)",
            "failed_frac",
            ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        for n in &self.notes {
            eprintln!("{n}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, value, m.unit)
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_best_gives_each_sample_its_shapes_least() {
        let v = [("a", 3.0), ("b", 9.0), ("a", 2.0), ("b", 7.0), ("a", 5.0)];
        assert_eq!(at_best(&v), [2.0, 7.0, 2.0, 7.0, 2.0]);
        assert_eq!(least(&[4.0, 1.5, 3.0]), 1.5);
        assert_eq!(least(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(median(&v), 50.0);
    }
}
