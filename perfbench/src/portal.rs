//! `portal_sessions`: short query sessions plus an update pipeline
//! against a two-shard TCP server (see [`Workload::PortalSessions`]).

use crate::inputs::{self, Workload};
use crate::report::{engine_layers, Answer, Metric, Run};
use crate::served::{exposition_value, fetch, replay};
use crate::{drained, setups, setups_after, Ctx};
use quts_db::StockId;
use quts_engine::shard_of;
use quts_server::{Server, ServerConfig};
use quts_workload::Trace;

/// Engine shards behind the server.
const SHARDS: u32 = 2;

struct Sys {
    trace: Trace,
    sessions: Vec<usize>,
    server: Server,
}

/// Runs the workload.
pub fn bench(ctx: &Ctx) -> Run {
    let make = |_| {
        let mut trace = inputs::trace(
            ctx.seed,
            ctx.horizon(),
            ctx.rates,
            Workload::PortalSessions.preset(),
        );
        inputs::pace_updates(&mut trace, ctx.horizon());
        let sessions = inputs::session_sizes(ctx.seed, trace.queries.len());
        let config = ServerConfig {
            shards: SHARDS,
            engine: ServerConfig::default()
                .engine
                .with_seed(inputs::sub_seed(ctx.seed, 4)),
            ..ServerConfig::default()
        };
        let server = Server::start(inputs::store(), config).expect("server starts");
        Sys {
            trace,
            sessions,
            server,
        }
    };
    let teardown = |sys: Sys| {
        sys.server.shutdown();
    };
    let (setup_s, sys) = setups(ctx, make, teardown);
    let Sys {
        trace,
        sessions,
        server,
    } = sys;
    let addr = server.addr();
    let (mut run, samples) = replay(ctx, addr, &trace, &sessions, || server.stats(), || 0);
    run.setup_s = setup_s;
    for (rec, spec) in run.queries.iter_mut().zip(&trace.queries) {
        let op = inputs::wire_op(&spec.op);
        let items = op.accessed_items();
        let home = |id: &StockId| shard_of(*id, SHARDS);
        rec.cross_shard = items
            .as_slice()
            .iter()
            .any(|id| home(id) != home(&items.as_slice()[0]));
    }

    // Counts after the drain.
    let accepted = run.updates.iter().filter(|u| u.acked.is_some()).count() as u64;
    let ok = drained(|| {
        let s = server.stats();
        s.pending_queries == 0
            && s.updates_applied + s.updates_invalidated + s.updates_dropped_overload >= accepted
    });
    let s = server.stats();
    let metrics = fetch(addr, "METRICS");
    let cross = |outcome: &str| {
        exposition_value(
            &metrics,
            &format!("quts_cross_shard_txns_total{{outcome=\"{outcome}\"}}"),
        )
        .unwrap_or(0.0) as u64
    };
    let cross_total = cross("committed") + cross("expired") + cross("failed");
    let answered = run
        .queries
        .iter()
        .filter(|q| matches!(q.answer, Answer::Ok { .. }))
        .count() as u64;
    let cross_sent = run.queries.iter().filter(|q| q.cross_shard).count() as u64;
    let settled = s.updates_applied + s.updates_invalidated + s.updates_dropped_overload;
    run.checks
        .check("engine drained", ok, || "updates never settled".into());
    run.checks
        .check("METRICS answered", !metrics.is_empty(), || {
            "no METRICS reply".into()
        });
    run.checks.check(
        "cross-shard queries = coordinator transactions",
        cross_sent == cross_total,
        || format!("client {cross_sent} coordinator {cross_total}"),
    );
    run.checks.check(
        "queries answered = shard commits + coordinator commits",
        answered == s.aggregates.committed + cross("committed"),
        || {
            format!(
                "client {answered} shards {} coordinator {}",
                s.aggregates.committed,
                cross("committed")
            )
        },
    );
    run.checks.check(
        "single-shard queries = shard submissions",
        run.queries.len() as u64 - cross_sent == s.aggregates.submitted,
        || {
            format!(
                "client {} shards {}",
                run.queries.len() as u64 - cross_sent,
                s.aggregates.submitted
            )
        },
    );
    run.checks.check(
        "accepted updates = applied + invalidated + dropped",
        accepted == settled,
        || format!("client {accepted} engine {settled}"),
    );

    if ctx.trace {
        let jobs = exposition_value(&metrics, "quts_shard_executor_jobs_total").unwrap_or(0.0);
        let steals = exposition_value(&metrics, "quts_shard_executor_steals_total").unwrap_or(0.0);
        run.layer = run.client_layers();
        run.layer.extend(engine_layers(&s, &samples));
        run.layer.extend([
            Metric::new("shard.cross_txns", cross_total as f64, "count"),
            Metric::new("shard.cross_txn_failed", cross("failed") as f64, "count"),
            Metric::new(
                "shard.lock_timeouts",
                s.cross_shard_lock_timeouts as f64,
                "count",
            ),
            Metric::new(
                "shard.executor_steals_per_job",
                steals / jobs.max(1.0),
                "ratio",
            )
            .note(format!("jobs={jobs}")),
        ]);
        run.layer
            .extend(crate::micro::layers(&trace, &mut run.spans));
    }
    server.shutdown();
    run.setup_s.extend(setups_after(ctx, make, teardown));
    run
}
