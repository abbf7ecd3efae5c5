//! `replicated_feed`: a fast update feed beside paper-rate reads on a
//! durable, replicated, routed TCP server (see
//! [`Workload::ReplicatedFeed`]).

use crate::inputs::{self, Workload};
use crate::measure::Dist;
use crate::report::{engine_layers, ms, Answer, Metric, Run, Sample};
use crate::served::{fetch, replay, status_value};
use crate::{drained, setups, setups_after, Ctx};
use quts_db::{QueryOp, QueryResult, StockId};
use quts_engine::{
    DurabilityConfig, FsyncPolicy, GroupCommitConfig, Replica, ReplicaConfig, RouterConfig,
    ShipConfig,
};
use quts_server::{Server, ServerConfig};
use quts_workload::Trace;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Items whose final price is compared across primary and replica.
const PRICE_SAMPLE: usize = 64;

struct Sys {
    trace: Trace,
    dir: PathBuf,
    server: Server,
    replica: Replica,
}

fn start(ctx: &Ctx, rep: usize) -> Sys {
    let mut trace = inputs::trace(
        ctx.seed,
        ctx.horizon(),
        ctx.rates,
        Workload::ReplicatedFeed.preset(),
    );
    inputs::pace_updates(&mut trace, ctx.horizon());
    let dir = ctx.workdir.join(format!("feed{rep}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("primary")).expect("create the primary's directory");
    let durability = DurabilityConfig::new(dir.join("primary"))
        .with_fsync(FsyncPolicy::Always)
        .with_group_commit(GroupCommitConfig::default());
    let config = ServerConfig {
        engine: ServerConfig::default()
            .engine
            .with_seed(inputs::sub_seed(ctx.seed, 4))
            .with_durability(durability),
        repl_ship: Some(ShipConfig::default()),
        router: Some(RouterConfig::default()),
        ..ServerConfig::default()
    };
    let server = Server::start(inputs::store(), config).expect("server starts");
    let repl_addr = server.repl_addr().expect("shipping is on");
    let replica =
        Replica::start(repl_addr, ReplicaConfig::new("r1", dir.join("replica"))).expect("replica");
    server.attach_replica(replica.handle());
    assert!(
        drained(|| replica.stats().ready),
        "replica never became ready"
    );
    Sys {
        trace,
        dir,
        server,
        replica,
    }
}

/// Shuts the system down and removes its durable directories.
fn stop(sys: Sys) {
    sys.replica.shutdown();
    sys.server.shutdown();
    let _ = std::fs::remove_dir_all(&sys.dir);
}

/// Runs the workload.
pub fn bench(ctx: &Ctx) -> Run {
    let (setup_s, sys) = setups(ctx, |rep| start(ctx, rep), stop);
    let Sys {
        trace,
        dir,
        server,
        replica,
    } = sys;
    let addr = server.addr();
    let replica_handle = replica.handle();
    let (mut run, samples) = replay(
        ctx,
        addr,
        &trace,
        &[trace.queries.len()],
        || server.stats(),
        || replica_handle.stats().applied_lsn,
    );
    run.setup_s = setup_s;

    // The client's ledger: the last accepted price of each stock.
    let mut ledger: BTreeMap<StockId, f64> = BTreeMap::new();
    for (rec, spec) in run.updates.iter().zip(&trace.updates) {
        if rec.acked.is_some() {
            ledger.insert(spec.trade.stock, spec.trade.price);
        }
    }
    let accepted = run.updates.iter().filter(|u| u.acked.is_some()).count() as u64;
    let ok = drained(|| {
        let s = server.stats();
        s.pending_queries == 0
            && s.updates_applied + s.updates_invalidated + s.updates_dropped_overload >= accepted
            && replica.stats().applied_lsn >= s.wal_last_lsn
    });
    let s = server.stats();
    let r = replica.stats();
    let repl = fetch(addr, "REPL");
    let router = |key: &str| status_value(&repl, "router ", key).unwrap_or(-1.0);
    let answered = run
        .queries
        .iter()
        .filter(|q| matches!(q.answer, Answer::Ok { .. }))
        .count() as u64;
    let settled = s.updates_applied + s.updates_invalidated + s.updates_dropped_overload;
    run.checks
        .check("engine and replica drained", ok, || "never settled".into());
    run.checks
        .check("REPL answered", !repl.is_empty(), || "no REPL reply".into());
    run.checks.check(
        "router qod_violations = 0",
        router("qod_violations") == 0.0,
        || format!("qod_violations={}", router("qod_violations")),
    );
    run.checks.check(
        "queries answered = primary commits + replica reads",
        answered as f64 == s.aggregates.committed as f64 + router("routed_replica"),
        || {
            format!(
                "client {answered} primary {} replica {}",
                s.aggregates.committed,
                router("routed_replica")
            )
        },
    );
    run.checks.check(
        "accepted updates = applied + invalidated + dropped",
        accepted == settled,
        || format!("client {accepted} engine {settled}"),
    );
    run.checks.check(
        "accepted updates = WAL appends",
        accepted == s.wal_last_lsn,
        || format!("client {accepted} wal_last_lsn {}", s.wal_last_lsn),
    );
    run.checks.check(
        "replica applied_lsn = primary wal_last_lsn",
        r.applied_lsn == s.wal_last_lsn,
        || format!("replica {} primary {}", r.applied_lsn, s.wal_last_lsn),
    );
    let sample: Vec<(StockId, f64)> = ledger
        .iter()
        .step_by((ledger.len() / PRICE_SAMPLE).max(1))
        .map(|(&id, &p)| (id, p))
        .collect();
    let replica_off = sample
        .iter()
        .filter(|&&(id, p)| {
            replica_handle.execute(&QueryOp::Lookup(id)) != Some(QueryResult::Price(p))
        })
        .count();
    run.checks.check(
        "replica prices = last accepted UPD",
        replica_off == 0,
        || format!("{replica_off} of {} sampled items differ", sample.len()),
    );

    if ctx.trace {
        let wal_bytes = wal_bytes(&dir.join("primary"));
        run.layer = run.client_layers();
        run.layer.extend(engine_layers(&s, &samples));
        // Snapshots garbage-collect the segments they cover, so the
        // segments on disk hold the records after the last snapshot.
        let records = s.wal_last_lsn.saturating_sub(s.snapshot_last_lsn);
        run.layer.push(
            Metric::new(
                "db.wal_bytes_per_update",
                wal_bytes as f64 / records.max(1) as f64,
                "bytes",
            )
            .note(format!("{wal_bytes} bytes on disk for {records} records")),
        );
        run.layer.extend(repl_layers(&samples, &r));
        let routed = router("routed_replica") + router("routed_primary");
        run.layer.push(Metric::new(
            "router.replica_read_share",
            100.0 * router("routed_replica") / routed.max(1.0),
            "%",
        ));
        run.layer.push(Metric::new(
            "router.shed_busy",
            router("shed_busy"),
            "count",
        ));
        run.layer
            .extend(crate::micro::layers(&trace, &mut run.spans));
    }
    replica.shutdown();
    server.shutdown();

    // The primary's durable state, recovered from its directory after a
    // clean shutdown, holds the same prices.
    let primary_off = match quts_db::snapshot::recover(&dir.join("primary")) {
        Ok(mut rec) => {
            for t in &rec.pending {
                rec.store.apply_update(t);
            }
            sample
                .iter()
                .filter(|&&(id, p)| rec.store.record(id).price() != p)
                .count()
        }
        Err(_) => sample.len().max(1),
    };
    run.checks.check(
        "recovered primary prices = last accepted UPD",
        primary_off == 0,
        || format!("{primary_off} of {} sampled items differ", sample.len()),
    );
    let _ = std::fs::remove_dir_all(&dir);
    run.setup_s
        .extend(setups_after(ctx, |rep| start(ctx, rep), stop));
    run
}

/// Bytes in the WAL segments under `dir`.
fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Replica lag from the sampled LSNs: for each sample at which the
/// primary's WAL had grown, the time until the replica applied that LSN,
/// and the frames it was behind.
fn repl_layers(samples: &[Sample], r: &quts_engine::ReplicaStats) -> Vec<Metric> {
    let mut lags = Vec::new();
    let mut j = 0;
    let mut prev = 0;
    for (i, x) in samples.iter().enumerate() {
        if x.primary_lsn == prev {
            continue;
        }
        prev = x.primary_lsn;
        j = j.max(i);
        while j < samples.len() && samples[j].replica_lsn < x.primary_lsn {
            j += 1;
        }
        if let Some(caught_up) = samples.get(j) {
            lags.push(ms(caught_up.at, x.at));
        }
    }
    let lags = Dist::new(lags);
    let frames = Dist::new(
        samples
            .iter()
            .map(|x| x.primary_lsn.saturating_sub(x.replica_lsn) as f64)
            .collect(),
    );
    vec![
        Metric::new("repl.apply_lag_ms_p50", lags.pct(50.0), "ms").note(format!("n={}", lags.n())),
        Metric::new("repl.apply_lag_ms_p99", lags.pct(99.0), "ms"),
        Metric::new("repl.lag_frames_p99", frames.pct(99.0), "count"),
        Metric::new("repl.bootstraps", r.bootstraps as f64, "count"),
        Metric::new("repl.connections", r.connections as f64, "count"),
    ]
}
