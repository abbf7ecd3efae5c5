//! Layer timings the benchmark takes by calling a layer directly, after
//! the measured run: `protocol::parse` over the run's request lines and
//! `QueryOp::execute` per operation kind over the run's queries.

use crate::inputs;
use crate::report::Metric;
use crate::spans::{Spans, UPDATE_ID_BASE};
use quts_db::QueryOp;
use quts_workload::Trace;
use std::hint::black_box;
use std::time::Instant;

/// Passes over the inputs, so each mean covers enough calls.
const PASSES: usize = 20;

/// The execute metric of each operation kind, indexed by [`kind`].
const KINDS: [&str; 4] = [
    "db.exec_lookup_us_mean",
    "db.exec_avg_us_mean",
    "db.exec_compare_us_mean",
    "db.exec_portfolio_us_mean",
];

fn kind(op: &QueryOp) -> usize {
    match op {
        QueryOp::Lookup(_) => 0,
        QueryOp::MovingAverage { .. } => 1,
        QueryOp::Compare(_) => 2,
        QueryOp::Portfolio(_) => 3,
    }
}

/// Parse and execute timings for `trace`'s requests, with one `parse`
/// and one `execute` span per request recorded on the first pass.
pub fn layers(trace: &Trace, spans: &mut Spans) -> Vec<Metric> {
    let lines: Vec<(u64, String)> = trace
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| (i as u64, inputs::wire_query(q)))
        .chain(
            trace
                .updates
                .iter()
                .enumerate()
                .map(|(i, u)| (UPDATE_ID_BASE + i as u64, inputs::wire_update(u))),
        )
        .collect();
    for (id, line) in &lines {
        let start = Instant::now();
        let parsed = black_box(quts_server::protocol::parse(black_box(line)));
        spans.record(*id, "parse", start, Instant::now());
        assert!(parsed.is_ok(), "generated request {line:?} must parse");
    }
    let start = Instant::now();
    for _ in 0..PASSES {
        for (_, line) in &lines {
            let _ = black_box(quts_server::protocol::parse(black_box(line)));
        }
    }
    let parse_us = start.elapsed().as_secs_f64() * 1e6 / (PASSES * lines.len()).max(1) as f64;

    // A store with the run's price history, so moving averages read it.
    let mut store = inputs::store();
    for u in &trace.updates {
        store.apply_update(&u.trade);
    }
    for (i, q) in trace.queries.iter().enumerate() {
        let start = Instant::now();
        black_box(q.op.execute(black_box(&store)));
        spans.record(i as u64, "execute", start, Instant::now());
    }
    let mut out = vec![Metric::new("server.parse_us_mean", parse_us, "us")
        .note(format!("{} lines x {PASSES}", lines.len()))];
    for (k, name) in KINDS.into_iter().enumerate() {
        let ops: Vec<&QueryOp> = trace
            .queries
            .iter()
            .map(|q| &q.op)
            .filter(|op| kind(op) == k)
            .collect();
        let start = Instant::now();
        for _ in 0..PASSES {
            for op in &ops {
                black_box(op.execute(black_box(&store)));
            }
        }
        let us = start.elapsed().as_secs_f64() * 1e6 / (PASSES * ops.len()).max(1) as f64;
        out.push(Metric::new(name, us, "us").note(format!("{} ops x {PASSES}", ops.len())));
    }
    out
}
