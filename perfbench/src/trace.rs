//! Outside-in tracing for the traced run.
//!
//! Spans are recorded only around calls *into* each layer's public
//! functions and traits: the planning calls the benchmark makes itself,
//! the query entry points, a delegating [`Connector`] registered as the
//! catalog, and a delegating [`FileSystem`] handed to `HiveConnector::new`.
//! No crate of the engine is changed. The engine runs on one thread, so the
//! open-span stack is thread-local. Spans stay in memory until the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use presto_common::{Page, Result, Schema};
use presto_connectors::{Connector, ConnectorSplit, ScanCapabilities, ScanHooks, ScanRequest};
use presto_storage::{FileStatus, FileSystem};

/// One timed call: its layer boundary, the operation (query id) that caused
/// it, and the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub query: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work the call reports: rows for scans, bytes for storage I/O.
    pub count: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct State {
    on: bool,
    epoch: Instant,
    query: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State {
        on: false,
        epoch: Instant::now(),
        query: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turn span recording on or off for this thread.
pub fn set_enabled(on: bool) {
    STATE.with(|s| s.borrow_mut().on = on);
}

/// Attribute the spans that follow to operation `query`.
pub fn set_query(query: u64) {
    STATE.with(|s| s.borrow_mut().query = query);
}

/// Time `f` as a span named `name` under the innermost open span.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    span_counted(name, f, |_| 0)
}

/// As [`span`], also recording the work `count` reads off the result.
pub fn span_counted<R>(
    name: &'static str,
    f: impl FnOnce() -> R,
    count: impl FnOnce(&R) -> u64,
) -> R {
    let opened = STATE.with(|s| {
        let mut s = s.borrow_mut();
        if !s.on {
            return None;
        }
        let span = Span {
            parent: s.open.last().copied(),
            query: s.query,
            name,
            start_ns: s.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            count: 0,
        };
        s.spans.push(span);
        let idx = s.spans.len() - 1;
        s.open.push(idx);
        Some(idx)
    });
    let result = f();
    if let Some(idx) = opened {
        let n = count(&result);
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            s.open.pop();
            let now = s.epoch.elapsed().as_nanos() as u64;
            let span = &mut s.spans[idx];
            span.end_ns = now;
            span.count = n;
        });
    }
    result
}

/// Take every span recorded so far.
pub fn take() -> Vec<Span> {
    STATE.with(|s| std::mem::take(&mut s.borrow_mut().spans))
}

/// Totals per span name: calls, wall time, self time (wall minus the direct
/// children it covers) and reported work.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub count: u64,
}

/// Fold spans into per-name totals.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let t = out.entry(span.name).or_default();
        t.calls += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += span.duration_ns().saturating_sub(children);
        t.count += span.count;
    }
    out
}

/// Spans as JSON lines: `{"id","parent","query","name","start_ns","end_ns","count"}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"query\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
            s.query, s.name, s.start_ns, s.end_ns, s.count
        );
    }
    out
}

/// Span names of one traced connector.
#[derive(Debug, Clone, Copy)]
pub struct ConnectorSpans {
    pub splits: &'static str,
    pub scan: &'static str,
}

/// Hive catalog spans (their self time is the Parquet decode).
pub const HIVE: ConnectorSpans = ConnectorSpans { splits: "hive.splits", scan: "hive.scan_split" };
/// MySQL dimension-table spans.
pub const MYSQL: ConnectorSpans =
    ConnectorSpans { splits: "mysql.splits", scan: "mysql.scan_split" };

/// A delegating connector that times `splits` and `scan_split`.
pub struct TracedConnector {
    inner: Arc<dyn Connector>,
    spans: ConnectorSpans,
}

impl TracedConnector {
    pub fn new(inner: Arc<dyn Connector>, spans: ConnectorSpans) -> TracedConnector {
        TracedConnector { inner, spans }
    }
}

impl Connector for TracedConnector {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn list_schemas(&self) -> Vec<String> {
        self.inner.list_schemas()
    }

    fn list_tables(&self, schema: &str) -> Result<Vec<String>> {
        self.inner.list_tables(schema)
    }

    fn table_schema(&self, schema: &str, table: &str) -> Result<Schema> {
        self.inner.table_schema(schema, table)
    }

    fn capabilities(&self) -> ScanCapabilities {
        self.inner.capabilities()
    }

    fn splits(
        &self,
        schema: &str,
        table: &str,
        request: &ScanRequest,
    ) -> Result<Vec<ConnectorSplit>> {
        span(self.spans.splits, || self.inner.splits(schema, table, request))
    }

    fn scan_split(
        &self,
        split: &ConnectorSplit,
        request: &ScanRequest,
        hooks: &ScanHooks,
    ) -> Result<Vec<Page>> {
        span_counted(
            self.spans.scan,
            || self.inner.scan_split(split, request, hooks),
            |r| r.as_ref().map_or(0, |pages| pages.iter().map(|p| p.positions() as u64).sum()),
        )
    }
}

/// A delegating filesystem that times and counts every storage call.
pub struct TracedFs {
    inner: Arc<dyn FileSystem>,
}

impl TracedFs {
    pub fn new(inner: Arc<dyn FileSystem>) -> TracedFs {
        TracedFs { inner }
    }
}

impl FileSystem for TracedFs {
    fn list_files(&self, dir: &str) -> Result<Vec<FileStatus>> {
        span("storage.list", || self.inner.list_files(dir))
    }

    fn get_file_info(&self, path: &str) -> Result<FileStatus> {
        span("storage.getinfo", || self.inner.get_file_info(path))
    }

    fn read(&self, path: &str) -> Result<Vec<u8>> {
        span_counted("storage.read", || self.inner.read(path), byte_len)
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        span_counted("storage.read", || self.inner.read_range(path, offset, len), byte_len)
    }

    fn write(&self, path: &str, data: &[u8]) -> Result<()> {
        span_counted("storage.write", || self.inner.write(path, data), |_| data.len() as u64)
    }

    fn delete(&self, path: &str) -> Result<()> {
        span("storage.delete", || self.inner.delete(path))
    }
}

fn byte_len(r: &Result<Vec<u8>>) -> u64 {
    r.as_ref().map_or(0, |b| b.len() as u64)
}
