//! Wall-clock benchmark of the query engine.
//!
//! ```text
//! perfbench --workload <tpch_lineitem|trips_nested|dashboard_ingest>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation in
//! the path. `--trace 1` is a separate run that times each layer from
//! outside (see `trace.rs`) and writes its spans to
//! `perfbench/out/spans-<workload>-<seed>.jsonl`. Either way the human-
//! readable table goes to stderr and the last line of stdout is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. A wrong answer or
//! a failed operation makes the exit code 1.

mod answers;
mod calibrate;
mod dashboard;
mod harness;
mod suite;
mod tpch;
mod trace;
mod trips;

use std::process::ExitCode;

use harness::{Args, Report};
use suite::{run_traced, run_untraced};
use tpch::TpchLineitem;
use trips::TripsNested;

pub const WORKLOADS: [&str; 3] = ["tpch_lineitem", "trips_nested", "dashboard_ingest"];

fn run(args: &Args) -> Option<Report> {
    Some(match (args.workload.as_str(), args.trace) {
        ("tpch_lineitem", false) => run_untraced::<TpchLineitem>(args),
        ("tpch_lineitem", true) => run_traced::<TpchLineitem>(args),
        ("trips_nested", false) => run_untraced::<TripsNested>(args),
        ("trips_nested", true) => run_traced::<TripsNested>(args),
        ("dashboard_ingest", false) => dashboard::run_untraced(args),
        ("dashboard_ingest", true) => dashboard::run_traced(args),
        _ => return None,
    })
}

/// Write the traced run's spans next to the benchmark's sources.
pub fn write_spans(args: &Args, spans: &[trace::Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace::to_jsonl(spans)));
    match written {
        Ok(()) => eprintln!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let Some(report) = run(&args) else {
        eprintln!("unknown workload {}; one of {}", args.workload, WORKLOADS.join(", "));
        return ExitCode::from(2);
    };
    report.emit();
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
