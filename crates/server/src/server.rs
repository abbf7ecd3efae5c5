//! The TCP listener: one thread per connection over a shared engine
//! handle.
//!
//! Overload behavior is explicit: a full engine admission queue answers
//! `ERR overloaded`, a dead engine `ERR unavailable`, an expired query
//! `ERR expired`, and a connection past the cap is told `ERR busy` and
//! closed. Connections idle past `idle_timeout` are closed to reclaim
//! their threads.
//!
//! With replication enabled ([`ServerConfig::repl_ship`] +
//! [`ServerConfig::router`]) the server also serves its WAL to replicas
//! and routes reads through the QC-aware degradation ladder: cheapest
//! qualifying replica, then the primary, then a bounded `ERR busy`.

use crate::protocol::{parse, Request};
use quts_db::{QueryOp, QueryResult, StockId, Store, Trade};
use quts_engine::{
    accept_until_stopped, merge_shard_stats, wake_acceptor, ClusterHandle, Engine, EngineConfig,
    EngineHandle, LiveStats, QueryError, QueryReply, ReplicaHandle, RoutedReadError, Router,
    RouterConfig, ShardConfig, ShardedEngine, ShardedHandle, ShipConfig, ShipListener,
    ShipRegistry, ShipTrace, SubmitError, TraceConfig,
};
use quts_metrics::exposition::{Exposition, COUNT_BOUNDS, LATENCY_BOUNDS_US};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: SocketAddr,
    /// Engine configuration.
    pub engine: EngineConfig,
    /// Per-query wait budget before the server answers `ERR timeout`.
    pub query_timeout: Duration,
    /// Close connections that stay silent this long; `None` waits
    /// forever.
    pub idle_timeout: Option<Duration>,
    /// Maximum simultaneous connections; excess clients get `ERR busy`
    /// and are disconnected.
    pub max_connections: usize,
    /// Serve the engine's WAL to replicas on this listener. Requires
    /// `engine.durability` (the shipped stream IS the durable WAL).
    pub repl_ship: Option<ShipConfig>,
    /// Route reads through the QC-aware degradation ladder. Replicas
    /// join the pool via [`Server::attach_replica`]; until one does,
    /// every read falls back to the primary. The router's reply budget
    /// is overridden by `query_timeout` so `ERR timeout` means the same
    /// thing on both paths.
    pub router: Option<RouterConfig>,
    /// Number of engine shards. `1` (the default) runs the classic
    /// single-scheduler engine; above that the server fronts a
    /// [`ShardedEngine`] — per-shard QUTS schedulers and WAL streams,
    /// with cross-shard aggregates served by the 2PL coordinator.
    /// Incompatible with `repl_ship`/`router` (replication ships *one*
    /// WAL stream; shard a replicated deployment at the cluster layer
    /// instead).
    pub shards: u32,
    /// Record the intent to pin shard coordinator workers to cores (see
    /// [`ShardedHandle::affinity_applied`] — never actually applied in
    /// this `forbid(unsafe)` build, but carried in configs).
    pub pin_shard_workers: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".parse().expect("static address"),
            // Spans level feeds the `METRICS` histograms; its overhead is
            // a handful of histogram increments per committed query.
            engine: EngineConfig::default().with_trace(TraceConfig::spans()),
            query_timeout: Duration::from_secs(10),
            idle_timeout: Some(Duration::from_secs(300)),
            max_connections: 1024,
            repl_ship: None,
            router: None,
            shards: 1,
            pin_shard_workers: false,
        }
    }
}

/// A running QUTS web-database server.
pub struct Server {
    engine: Option<Engine>,
    sharded_engine: Option<ShardedEngine>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    ship: Option<ShipListener>,
    router: Option<Arc<Router>>,
    shared: Arc<Shared>,
}

struct Shared {
    /// The single engine's handle, or shard 0's with sharding on (the
    /// `FLIGHT` verb and replication watermarks read through it; the
    /// query/update paths go through `sharded` when present).
    handle: EngineHandle,
    /// Present when `ServerConfig::shards > 1`: all traffic routes
    /// through it.
    sharded: Option<ShardedHandle>,
    symbols: HashMap<String, StockId>,
    trade_seq: AtomicU64,
    query_timeout: Duration,
    idle_timeout: Option<Duration>,
    max_connections: usize,
    active_connections: AtomicUsize,
    router: Option<Arc<Router>>,
    registry: Option<Arc<ShipRegistry>>,
    /// Failover stats reader, attached by [`Server::attach_cluster`]
    /// when a cluster controller fronts this server's engine.
    cluster: std::sync::RwLock<Option<ClusterHandle>>,
}

impl Shared {
    fn cluster(&self) -> Option<ClusterHandle> {
        self.cluster.read().expect("cluster handle lock").clone()
    }

    /// Engine-wide statistics: the single engine's snapshot, or the
    /// merged per-shard snapshots with sharding on.
    fn stats(&self) -> LiveStats {
        match &self.sharded {
            Some(sharded) => sharded.merged_stats(),
            None => self.handle.stats(),
        }
    }
}

/// Holds one slot in the connection cap; releases it on drop (however
/// the connection thread exits).
struct ConnGuard {
    shared: Arc<Shared>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.shared
            .active_connections
            .fetch_sub(1, Ordering::AcqRel);
    }
}

impl Server {
    /// Starts an engine over `store` and serves it on `config.addr`.
    ///
    /// # Errors
    /// Fails if an address cannot be bound, or if `repl_ship` is set
    /// without `engine.durability` (there is no WAL to ship).
    pub fn start(store: Store, config: ServerConfig) -> io::Result<Server> {
        let symbols: HashMap<String, StockId> = store
            .iter()
            .map(|(id, rec)| (rec.symbol().to_ascii_uppercase(), id))
            .collect();
        let wal_dir = config.engine.durability.as_ref().map(|d| d.dir.clone());
        if config.repl_ship.is_some() && wal_dir.is_none() {
            return Err(io::Error::new(
                ErrorKind::InvalidInput,
                "replication requires a durable engine (set engine.durability)",
            ));
        }
        if config.shards == 0 {
            return Err(io::Error::new(
                ErrorKind::InvalidInput,
                "shards must be at least 1",
            ));
        }
        if config.shards > 1 && (config.repl_ship.is_some() || config.router.is_some()) {
            return Err(io::Error::new(
                ErrorKind::InvalidInput,
                "sharding is incompatible with repl_ship/router: replication ships one WAL \
                 stream; shard a replicated deployment at the cluster layer instead",
            ));
        }
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;
        let (engine, sharded_engine) = if config.shards > 1 {
            let sharded = ShardedEngine::try_start(
                store,
                ShardConfig::new(config.shards)
                    .with_engine(config.engine)
                    .with_pin_workers(config.pin_shard_workers),
            )?;
            (None, Some(sharded))
        } else {
            (Some(Engine::start(store, config.engine)), None)
        };
        let handle = match (&engine, &sharded_engine) {
            (Some(engine), _) => engine.handle(),
            (None, Some(sharded)) => sharded.handle().shard_handle(0).clone(),
            (None, None) => unreachable!("one backend always starts"),
        };
        let ship = match config.repl_ship {
            // The shipper inherits the engine's trace seed and sinks so
            // ship_frame events land in the primary's decision ring and
            // replicas can derive the same per-LSN trace ids. Sharding
            // was rejected above, so the single engine exists here.
            Some(ship_config) => Some(ShipListener::start(
                wal_dir.expect("checked above"),
                ship_config.with_trace(ShipTrace::from_handle(&handle)),
            )?),
            None => None,
        };
        let router = config.router.map(|rc| {
            Arc::new(Router::new(
                handle.clone(),
                rc.with_query_timeout(config.query_timeout),
            ))
        });
        let shared = Arc::new(Shared {
            handle,
            sharded: sharded_engine.as_ref().map(ShardedEngine::handle),
            symbols,
            trade_seq: AtomicU64::new(0),
            query_timeout: config.query_timeout,
            idle_timeout: config.idle_timeout,
            max_connections: config.max_connections,
            active_connections: AtomicUsize::new(0),
            router: router.clone(),
            registry: ship.as_ref().map(ShipListener::registry),
            cluster: std::sync::RwLock::new(None),
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let server_shared = Arc::clone(&shared);

        let accept_shutdown = Arc::clone(&shutdown);
        let acceptor = std::thread::Builder::new()
            .name("quts-server-accept".into())
            .spawn(move || {
                accept_until_stopped(&listener, &accept_shutdown, |stream| {
                    accept_one(stream, &shared);
                });
            })
            .expect("spawn acceptor");

        Ok(Server {
            engine,
            sharded_engine,
            addr,
            shutdown,
            acceptor: Some(acceptor),
            ship,
            router,
            shared: server_shared,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The replication listener's address, when `repl_ship` is enabled —
    /// this is where replicas connect.
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        self.ship.as_ref().map(ShipListener::addr)
    }

    /// Adds a replica to the read-routing pool.
    ///
    /// # Panics
    /// Panics if the server was started without a `router` config.
    pub fn attach_replica(&self, handle: ReplicaHandle) {
        self.router
            .as_ref()
            .expect("server started without a router")
            .add_replica(handle);
    }

    /// Wires a cluster controller's stats into the `REPL` and `METRICS`
    /// verbs (role/term/failover lines, `quts_failover*` series).
    pub fn attach_cluster(&self, handle: ClusterHandle) {
        *self.shared.cluster.write().expect("cluster handle lock") = Some(handle);
    }

    /// Engine statistics snapshot (merged over shards when sharded).
    pub fn stats(&self) -> LiveStats {
        match (&self.engine, &self.sharded_engine) {
            (Some(engine), _) => engine.stats(),
            (None, Some(sharded)) => merge_shard_stats(&sharded.shard_stats()),
            (None, None) => unreachable!("taken only in shutdown"),
        }
    }

    /// Per-shard statistics, shard-id order; `None` unless the server
    /// was started with `shards > 1`.
    pub fn shard_stats(&self) -> Option<Vec<LiveStats>> {
        self.sharded_engine.as_ref().map(ShardedEngine::shard_stats)
    }

    /// Stops accepting, stops shipping, drains the engine, and returns
    /// final statistics (merged over shards when sharded).
    pub fn shutdown(mut self) -> LiveStats {
        self.shutdown.store(true, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            wake_acceptor(self.addr);
            let _ = acceptor.join();
        }
        if let Some(ship) = self.ship.take() {
            ship.shutdown();
        }
        if let Some(sharded) = self.sharded_engine.take() {
            return merge_shard_stats(&sharded.shutdown());
        }
        self.engine.take().expect("running").shutdown()
    }
}

fn accept_one(mut stream: TcpStream, shared: &Arc<Shared>) {
    // Each reply is one write of a whole line (see `send_reply`); with
    // Nagle off it leaves at once instead of waiting on an ACK.
    let _ = stream.set_nodelay(true);
    let active = &shared.active_connections;
    if active
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
            (n < shared.max_connections).then_some(n + 1)
        })
        .is_err()
    {
        let _ = send_reply(&mut stream, "ERR busy".into());
        return;
    }
    let guard = ConnGuard {
        shared: Arc::clone(shared),
    };
    let shared = Arc::clone(shared);
    let _ = std::thread::Builder::new()
        .name("quts-server-conn".into())
        .spawn(move || {
            let _guard = guard;
            let _ = serve_connection(stream, &shared);
        });
}

fn serve_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_read_timeout(shared.idle_timeout)?;
    let mut writer = stream.try_clone()?;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = match line {
            Ok(line) => line,
            // Read timeout: the connection sat idle too long; close it.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match parse(&line) {
            Err(e) => format!("ERR {e}"),
            Ok(Request::Quit) => return send_reply(&mut writer, "BYE".into()),
            Ok(request) => handle(request, shared),
        };
        send_reply(&mut writer, response)?;
    }
    Ok(())
}

/// Sends one response — a single line or a multi-line body — and its
/// final newline in one write, so the whole reply leaves as one segment
/// and never waits on the client's delayed ACK for a trailing fragment.
fn send_reply(stream: &mut TcpStream, mut response: String) -> io::Result<()> {
    response.push('\n');
    stream.write_all(response.as_bytes())
}

fn handle(request: Request, shared: &Shared) -> String {
    match request {
        Request::Get { symbol, qc } => match shared.symbols.get(&symbol) {
            Some(&id) => run_query(QueryOp::Lookup(id), qc, shared),
            None => format!("ERR unknown symbol {symbol}"),
        },
        Request::Avg { symbol, window, qc } => match shared.symbols.get(&symbol) {
            Some(&stock) => run_query(QueryOp::MovingAverage { stock, window }, qc, shared),
            None => format!("ERR unknown symbol {symbol}"),
        },
        Request::Cmp { symbols, qc } => {
            let mut ids = Vec::with_capacity(symbols.len());
            for s in &symbols {
                match shared.symbols.get(s) {
                    Some(&id) => ids.push(id),
                    None => return format!("ERR unknown symbol {s}"),
                }
            }
            run_query(QueryOp::Compare(ids), qc, shared)
        }
        Request::Upd {
            symbol,
            price,
            volume,
        } => match shared.symbols.get(&symbol) {
            Some(&stock) => {
                let seq = shared.trade_seq.fetch_add(1, Ordering::Relaxed);
                let trade = Trade {
                    stock,
                    price,
                    volume,
                    trade_time_ms: seq,
                };
                let outcome = match &shared.sharded {
                    Some(sharded) => sharded.submit_update(trade),
                    None => shared.handle.submit_update(trade),
                };
                match outcome {
                    Ok(()) => "OK".into(),
                    Err(e) => submit_error(e),
                }
            }
            None => format!("ERR unknown symbol {symbol}"),
        },
        Request::Stats => {
            let s = shared.stats();
            let shards = shared.sharded.as_ref().map_or(1, |sh| sh.map().shards());
            format!(
                "OK submitted={} committed={} profit={:.2} of={:.2} rho={:.3} applied={} \
                 invalidated={} rejected={} shed={} dropped={} restarts={} shards={}",
                s.aggregates.submitted,
                s.aggregates.committed,
                s.aggregates.q_gained(),
                s.aggregates.q_max(),
                s.rho,
                s.updates_applied,
                s.updates_invalidated,
                s.queue_full_rejections,
                s.shed_expired,
                s.updates_dropped_overload,
                s.engine_restarts,
                shards,
            )
        }
        Request::Metrics => render_metrics(shared),
        Request::Repl => render_repl_status(shared),
        Request::Flight => render_flight(shared),
        Request::Quit => unreachable!("handled by the connection loop"),
    }
}

/// Renders the `REPL` response: router counters plus one line per
/// replica the ship listener has ever seen, `# EOF`-terminated like
/// `METRICS`.
fn render_repl_status(shared: &Shared) -> String {
    if shared.router.is_none() && shared.registry.is_none() {
        return "ERR replication disabled".into();
    }
    let primary_lsn = shared.handle.wal_last_lsn();
    let mut out = format!("OK replication primary_lsn={primary_lsn}");
    // Role and term. The serving node is by definition the primary of
    // its term; the term itself comes from the cluster controller when
    // one fronts this engine, else from the ship listener's MANIFEST
    // read.
    if let Some(cluster) = shared.cluster() {
        out.push_str(&format!(
            "\nrole primary term={} failovers={} failed={} lost_replicas={}",
            cluster.term(),
            cluster.failovers(),
            cluster.failed_failovers(),
            cluster.lost_replicas(),
        ));
        match cluster.last_failover_age_us() {
            Some(age) => out.push_str(&format!("\nlast_failover age_us={age}")),
            None => out.push_str("\nlast_failover never"),
        }
        for (term, name) in cluster.promotions() {
            out.push_str(&format!("\npromotion term={term} replica={name}"));
        }
    } else if let Some(registry) = &shared.registry {
        out.push_str(&format!("\nrole primary term={}", registry.term()));
    }
    if let Some(router) = &shared.router {
        let s = router.stats();
        out.push_str(&format!(
            "\nrouter replicas={} routed_replica={} routed_primary={} shed_busy={} \
             demotions={} rejoins={} qod_violations={} repoints={}",
            router.replica_count(),
            s.routed_replica,
            s.routed_primary,
            s.shed_busy,
            s.demotions,
            s.rejoins,
            s.qod_violations,
            s.repoints,
        ));
    }
    if let Some(registry) = &shared.registry {
        for peer in registry.peers() {
            out.push_str(&format!(
                "\nreplica name={} connected={} applied={} durable={} lag={} uu={} \
                 frames_shipped={} bootstraps={} connections={}",
                peer.name,
                peer.connected,
                peer.applied_lsn,
                peer.durable_lsn,
                primary_lsn.saturating_sub(peer.applied_lsn),
                peer.uu,
                peer.frames_shipped,
                peer.bootstraps,
                peer.connections,
            ));
        }
    }
    out.push_str("\n# EOF");
    out
}

/// Renders the `FLIGHT` response: the engine's live flight-recorder
/// contents (recent events plus 1-second timeseries) in the same JSONL
/// encoding the supervisor dumps on a crash, `# EOF`-terminated.
fn render_flight(shared: &Shared) -> String {
    match shared.handle.flight_snapshot() {
        Some(jsonl) if jsonl.is_empty() => "# EOF".into(),
        Some(jsonl) => format!("{}\n# EOF", jsonl.trim_end()),
        None => "ERR flight recorder disabled".into(),
    }
}

/// Renders the stats snapshot as Prometheus-style text exposition
/// (plus per-replica and routing series when replication is enabled).
/// The final `# EOF` line doubles as the end-of-response marker.
fn render_metrics(shared: &Shared) -> String {
    // With sharding on, the headline series are sums/means over shards
    // (see `merge_shard_stats`); the per-shard breakdown follows below
    // under `quts_shard_*` with a `shard` label.
    let s = &shared.stats();
    let mut exp = Exposition::new();
    exp.counter(
        "quts_queries_submitted_total",
        "Queries admitted by the engine",
        s.aggregates.submitted,
    );
    exp.counter(
        "quts_queries_committed_total",
        "Queries answered within their contract lifetime",
        s.aggregates.committed,
    );
    exp.gauge(
        "quts_profit_gained",
        "Profit earned under Quality Contracts",
        s.aggregates.q_gained(),
    );
    exp.gauge(
        "quts_profit_offered",
        "Maximum profit offered by submitted contracts",
        s.aggregates.q_max(),
    );
    exp.gauge("quts_rho", "Current query-class bias (rho)", s.rho);
    exp.counter(
        "quts_adaptations_total",
        "Completed rho adaptation periods",
        s.adaptations,
    );
    exp.counter(
        "quts_rho_history_truncated_total",
        "Adaptation-period rho values discarded from the bounded history",
        s.rho_history_truncated,
    );
    exp.labeled_gauges(
        "quts_queue_depth",
        "Admitted transactions not yet executed",
        "class",
        &[
            ("query", s.pending_queries as f64),
            ("update", s.pending_updates as f64),
        ],
    );
    exp.counter(
        "quts_updates_applied_total",
        "Updates whose value reached the store",
        s.updates_applied,
    );
    exp.counter(
        "quts_updates_invalidated_total",
        "Updates dropped unapplied by register-table invalidation",
        s.updates_invalidated,
    );
    let shed: Vec<(&str, f64)> = s
        .shed_breakdown()
        .iter()
        .map(|&(reason, n)| (reason, n as f64))
        .collect();
    exp.labeled_gauges(
        "quts_shed",
        "Work lost to overload, by cause",
        "reason",
        &shed,
    );
    exp.counter(
        "quts_engine_restarts_total",
        "Scheduler restarts after panics",
        s.engine_restarts,
    );
    // Durability & recovery: how much the WAL wrote, what recovery
    // replayed, and what a torn tail cost — the counters that make
    // post-crash QoD auditable.
    exp.counter(
        "quts_wal_appended_total",
        "Updates appended to the write-ahead log before enqueue",
        s.wal_appended,
    );
    exp.counter(
        "quts_wal_io_errors_total",
        "WAL and snapshot IO errors absorbed (fail-stop appends, failed shutdown snapshots)",
        s.wal_io_errors,
    );
    exp.counter(
        "quts_snapshots_written_total",
        "Snapshots published (periodic cadence plus clean shutdown)",
        s.snapshots_written,
    );
    exp.gauge(
        "quts_snapshot_last_lsn",
        "WAL LSN covered by the most recent snapshot",
        s.snapshot_last_lsn as f64,
    );
    exp.counter(
        "quts_recovery_replayed_updates",
        "Updates replayed from the WAL tail across recoveries",
        s.recovery_replayed_updates,
    );
    exp.counter(
        "quts_wal_truncated_bytes",
        "Torn or corrupt WAL bytes truncated during recoveries",
        s.wal_truncated_bytes,
    );
    // Group commit: fsync amortization (`quts_wal_appended_total /
    // quts_wal_fsync_total` is the realized records-per-fsync) plus the
    // batch-size and added-wait distributions.
    exp.counter(
        "quts_wal_fsync_total",
        "WAL fsyncs issued across all engine incarnations",
        s.wal_fsyncs,
    );
    exp.counter(
        "quts_group_commits_total",
        "Commit groups closed (one batched append, at most one fsync each)",
        s.group_commits,
    );
    exp.gauge(
        "quts_group_commit_buffered",
        "Updates parked in the commit buffer, not yet durable or acked",
        s.group_buffered as f64,
    );
    exp.histogram(
        "quts_group_commit_batch_size",
        "Records per committed group",
        &s.group_commit_batch,
        COUNT_BOUNDS,
    );
    exp.histogram(
        "quts_group_commit_wait_us",
        "Per-update wait from commit-buffer entry to covering fsync return",
        &s.group_commit_wait_us,
        LATENCY_BOUNDS_US,
    );
    exp.histogram(
        "quts_response_us",
        "Submission-to-answer latency of committed queries",
        &s.spans.response_us,
        LATENCY_BOUNDS_US,
    );
    exp.histogram(
        "quts_queue_wait_us",
        "Submission-to-dispatch wait of committed queries",
        &s.spans.queue_wait_us,
        LATENCY_BOUNDS_US,
    );
    exp.histogram(
        "quts_service_us",
        "Dispatch-to-answer service time of committed queries",
        &s.spans.service_us,
        LATENCY_BOUNDS_US,
    );
    exp.histogram(
        "quts_staleness",
        "Unapplied updates observed at answer time",
        &s.spans.staleness,
        COUNT_BOUNDS,
    );
    exp.histogram(
        "quts_update_delay_us",
        "Arrival-to-apply delay of applied updates",
        &s.spans.update_delay_us,
        LATENCY_BOUNDS_US,
    );
    exp.gauge(
        "quts_wal_last_lsn",
        "Highest LSN appended to the primary WAL (replication watermark)",
        s.wal_last_lsn as f64,
    );
    if let Some(registry) = &shared.registry {
        exp.gauge(
            "quts_repl_term",
            "Fencing term this primary ships under",
            registry.term() as f64,
        );
        exp.counter(
            "quts_fenced_frames_total",
            "Stale-term sessions, frames and acks fenced by the listener",
            registry.fenced_total(),
        );
        let peers = registry.peers();
        let names: Vec<&str> = peers.iter().map(|p| p.name.as_str()).collect();
        let gauge_series =
            |values: Vec<f64>| -> Vec<(&str, f64)> { names.iter().copied().zip(values).collect() };
        let counter_series =
            |values: Vec<u64>| -> Vec<(&str, u64)> { names.iter().copied().zip(values).collect() };
        exp.labeled_gauges(
            "quts_repl_connected",
            "Whether the replica's shipping connection is up",
            "replica",
            &gauge_series(
                peers
                    .iter()
                    .map(|p| f64::from(u8::from(p.connected)))
                    .collect(),
            ),
        );
        exp.labeled_gauges(
            "quts_repl_applied_lsn",
            "Highest LSN the replica acknowledged applying",
            "replica",
            &gauge_series(peers.iter().map(|p| p.applied_lsn as f64).collect()),
        );
        exp.labeled_gauges(
            "quts_repl_durable_lsn",
            "Highest LSN the replica acknowledged as fsync'd",
            "replica",
            &gauge_series(peers.iter().map(|p| p.durable_lsn as f64).collect()),
        );
        exp.labeled_gauges(
            "quts_repl_lag",
            "Primary WAL LSNs the replica has not yet applied",
            "replica",
            &gauge_series(
                peers
                    .iter()
                    .map(|p| s.wal_last_lsn.saturating_sub(p.applied_lsn) as f64)
                    .collect(),
            ),
        );
        exp.labeled_counters(
            "quts_repl_frames_shipped_total",
            "WAL frames shipped to the replica (retransmissions included)",
            "replica",
            &counter_series(peers.iter().map(|p| p.frames_shipped).collect()),
        );
        exp.labeled_counters(
            "quts_repl_bootstraps_total",
            "Snapshot bootstraps sent to the replica",
            "replica",
            &counter_series(peers.iter().map(|p| p.bootstraps).collect()),
        );
        exp.labeled_counters(
            "quts_repl_connections_total",
            "Shipping sessions the replica has established",
            "replica",
            &counter_series(peers.iter().map(|p| p.connections).collect()),
        );
        exp.histogram(
            "quts_repl_lag_frames",
            "Unapplied WAL frames per replica, sampled at each heartbeat",
            &registry.lag_frames_histogram(),
            COUNT_BOUNDS,
        );
        exp.histogram(
            "quts_repl_apply_lag_us",
            "Ship-to-apply-ack latency of shipped WAL frames",
            &registry.apply_lag_histogram(),
            LATENCY_BOUNDS_US,
        );
    }
    if let Some(cluster) = shared.cluster() {
        exp.counter(
            "quts_failovers_total",
            "Completed controller failovers (term bumps)",
            cluster.failovers(),
        );
        exp.counter(
            "quts_failovers_failed_total",
            "Failovers that errored after demotion (rolled back or degraded)",
            cluster.failed_failovers(),
        );
        exp.counter(
            "quts_failover_lost_replicas_total",
            "Replicas dropped from the fleet during failovers",
            cluster.lost_replicas(),
        );
        exp.histogram(
            "quts_failover_detect_us",
            "Primary-failure detection latency (first suspicion to verdict)",
            &cluster.detect_histogram(),
            LATENCY_BOUNDS_US,
        );
        exp.histogram(
            "quts_failover_mttr_us",
            "Failover MTTR (first suspicion to router re-point)",
            &cluster.mttr_histogram(),
            LATENCY_BOUNDS_US,
        );
    }
    if let Some(sharded) = &shared.sharded {
        let per_shard = sharded.shard_stats();
        let states = sharded.shard_states();
        let labels: Vec<String> = (0..per_shard.len()).map(|k| k.to_string()).collect();
        let gauge_series = |values: Vec<f64>| -> Vec<(&str, f64)> {
            labels.iter().map(String::as_str).zip(values).collect()
        };
        let counter_series = |values: Vec<u64>| -> Vec<(&str, u64)> {
            labels.iter().map(String::as_str).zip(values).collect()
        };
        exp.gauge(
            "quts_shards",
            "Number of QUTS shards this server partitions the store over",
            per_shard.len() as f64,
        );
        exp.gauge(
            "quts_shard_affinity_applied",
            "Whether worker CPU pinning took effect (recorded-only on this build)",
            f64::from(u8::from(sharded.affinity_applied())),
        );
        exp.labeled_gauges(
            "quts_shard_up",
            "Whether the shard's scheduler is running (0 = poisoned or restarting)",
            "shard",
            &gauge_series(
                states
                    .iter()
                    .map(|st| f64::from(u8::from(*st == quts_engine::EngineState::Running)))
                    .collect(),
            ),
        );
        exp.labeled_gauges(
            "quts_shard_rho",
            "Per-shard query-class bias (rho)",
            "shard",
            &gauge_series(per_shard.iter().map(|s| s.rho).collect()),
        );
        exp.labeled_counters(
            "quts_shard_queries_submitted_total",
            "Queries admitted, by owning shard",
            "shard",
            &counter_series(per_shard.iter().map(|s| s.aggregates.submitted).collect()),
        );
        exp.labeled_counters(
            "quts_shard_queries_committed_total",
            "Queries answered within their lifetime, by owning shard",
            "shard",
            &counter_series(per_shard.iter().map(|s| s.aggregates.committed).collect()),
        );
        exp.labeled_counters(
            "quts_shard_updates_applied_total",
            "Updates whose value reached the shard's store",
            "shard",
            &counter_series(per_shard.iter().map(|s| s.updates_applied).collect()),
        );
        exp.labeled_gauges(
            "quts_shard_pending_queries",
            "Admitted queries not yet executed, by shard",
            "shard",
            &gauge_series(per_shard.iter().map(|s| s.pending_queries as f64).collect()),
        );
        exp.labeled_gauges(
            "quts_shard_pending_updates",
            "Admitted updates not yet applied, by shard",
            "shard",
            &gauge_series(per_shard.iter().map(|s| s.pending_updates as f64).collect()),
        );
        exp.labeled_counters(
            "quts_shard_restarts_total",
            "Per-shard scheduler restarts after panics",
            "shard",
            &counter_series(per_shard.iter().map(|s| s.engine_restarts).collect()),
        );
        exp.labeled_counters(
            "quts_shard_cross_locks_total",
            "Cross-shard 2PL grants served, by granting shard",
            "shard",
            &counter_series(per_shard.iter().map(|s| s.cross_shard_locks).collect()),
        );
        let cross = sharded.cross_shard_stats();
        exp.labeled_counters(
            "quts_cross_shard_txns_total",
            "Spanning aggregates through the 2PL coordinator, by outcome",
            "outcome",
            &[
                ("committed", cross.committed),
                ("expired", cross.expired),
                ("failed", cross.failed),
            ],
        );
        exp.counter(
            "quts_shard_executor_jobs_total",
            "Jobs run by the shard executor (cross-shard txns and routed work)",
            sharded.executor_jobs(),
        );
        exp.counter(
            "quts_shard_executor_steals_total",
            "Jobs a worker stole from another worker's queue",
            sharded.executor_steals(),
        );
    }
    if let Some(router) = &shared.router {
        let r = router.stats();
        exp.labeled_counters(
            "quts_routed_reads_total",
            "Reads answered, by the node class that served them",
            "target",
            &[("replica", r.routed_replica), ("primary", r.routed_primary)],
        );
        exp.counter(
            "quts_reads_shed_busy_total",
            "Reads shed with ERR busy (no replica qualified, primary full)",
            r.shed_busy,
        );
        exp.counter(
            "quts_router_demotions_total",
            "Replica demotions for excessive lag",
            r.demotions,
        );
        exp.counter(
            "quts_router_rejoins_total",
            "Demoted replicas readmitted after catching up",
            r.rejoins,
        );
        exp.counter(
            "quts_router_qod_violations_total",
            "Replica reads whose dispatch bound broke the contract (must stay 0)",
            r.qod_violations,
        );
        exp.counter(
            "quts_router_repoints_total",
            "Primary swaps performed at failover",
            r.repoints,
        );
    }
    // `send_reply` in the connection loop supplies the final newline.
    let text = exp.finish();
    text.trim_end().to_string()
}

fn submit_error(e: SubmitError) -> String {
    match e {
        SubmitError::QueueFull => "ERR overloaded".into(),
        SubmitError::EngineDown => "ERR unavailable".into(),
    }
}

fn render_reply(reply: &QueryReply) -> String {
    let payload = match &reply.result {
        QueryResult::Price(p) => format!("price={p:.2}"),
        QueryResult::Average(a) => format!("avg={a:.2}"),
        QueryResult::Spread { min, max, spread } => {
            format!("min={min:.2} max={max:.2} spread={spread:.2}")
        }
        QueryResult::Value(v) => format!("value={v:.2}"),
    };
    format!(
        "OK {payload} rt={:.2}ms uu={} qos={:.2} qod={:.2}",
        reply.rt_ms, reply.staleness, reply.qos, reply.qod
    )
}

fn run_query(op: QueryOp, qc: quts_qc::QualityContract, shared: &Shared) -> String {
    // With a router, reads ride the degradation ladder: cheapest
    // qualifying replica → primary → bounded `ERR busy` shed.
    if let Some(router) = &shared.router {
        return match router.route(op, qc) {
            Ok(reply) => render_reply(&reply),
            Err(RoutedReadError::Busy) => "ERR busy".into(),
            Err(RoutedReadError::Expired) => "ERR expired".into(),
            Err(RoutedReadError::Timeout) => "ERR timeout".into(),
            Err(RoutedReadError::EngineDown) => "ERR unavailable".into(),
        };
    }
    // With sharding, the sharded handle routes single-item queries to
    // their home shard and runs spanning aggregates through the
    // cross-shard 2PL coordinator.
    let ticket = match &shared.sharded {
        Some(sharded) => sharded.submit_query(op, qc),
        None => shared.handle.submit_query(op, qc),
    };
    let ticket = match ticket {
        Ok(ticket) => ticket,
        Err(e) => return submit_error(e),
    };
    match ticket.recv_timeout(shared.query_timeout) {
        Ok(reply) => render_reply(&reply),
        Err(QueryError::Expired) => "ERR expired".into(),
        Err(QueryError::EngineDown) => "ERR unavailable".into(),
        Err(QueryError::Timeout) => "ERR timeout".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Client {
        /// Fallible connect: wire errors come back as `io::Error`
        /// instead of a panic, so callers can retry.
        fn try_connect(addr: SocketAddr) -> io::Result<Client> {
            let stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(10)))?;
            stream.set_nodelay(true)?;
            Ok(Client {
                reader: BufReader::new(stream.try_clone()?),
                writer: stream,
            })
        }

        fn connect(addr: SocketAddr) -> Client {
            Client::try_connect(addr).expect("connect")
        }

        /// Sends one request line and its newline in a single write.
        fn write_line(&mut self, line: &str) -> io::Result<()> {
            self.writer.write_all(format!("{line}\n").as_bytes())
        }

        /// Fallible request/response round trip.
        fn try_send(&mut self, line: &str) -> io::Result<String> {
            self.write_line(line)?;
            self.try_read()
        }

        /// Fallible single-line read. An EOF (server closed the
        /// connection) is an `UnexpectedEof` error, not an empty string.
        fn try_read(&mut self) -> io::Result<String> {
            let mut response = String::new();
            if self.reader.read_line(&mut response)? == 0 {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            Ok(response.trim_end().to_string())
        }

        fn send(&mut self, line: &str) -> String {
            self.try_send(line).expect("request round trip")
        }

        fn read(&mut self) -> String {
            self.try_read().expect("read response line")
        }

        /// Sends a line and reads the multi-line response up to and
        /// including the `# EOF` terminator.
        fn send_multiline(&mut self, line: &str) -> Vec<String> {
            self.write_line(line).expect("send");
            let mut lines = Vec::new();
            loop {
                let l = self.read();
                let done = l == "# EOF";
                lines.push(l);
                if done {
                    return lines;
                }
            }
        }
    }

    /// One request over a fresh connection, retrying `ERR busy` (and
    /// accept races, which surface as IO errors) on the shared jittered
    /// exponential backoff — the polite client a capped server expects.
    fn request_with_retry(addr: SocketAddr, request: &str) -> String {
        let mut backoff =
            quts_engine::Backoff::new(Duration::from_millis(2), Duration::from_millis(50));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match Client::try_connect(addr).and_then(|mut c| c.try_send(request)) {
                // A capped server answers the first read `ERR busy`;
                // anything else is the real response.
                Ok(r) if r != "ERR busy" => return r,
                Ok(_busy) => {}
                // Reset/EOF while racing the acceptor: same as busy.
                Err(_) => {}
            }
            assert!(
                std::time::Instant::now() < deadline,
                "server stayed busy for 10s"
            );
            std::thread::sleep(backoff.next_sleep());
        }
    }

    fn test_server_with(config: ServerConfig) -> Server {
        let mut store = Store::new();
        store.insert("IBM", 120.0);
        store.insert("AOL", 55.0);
        store.insert("GE", 52.0);
        Server::start(store, config).expect("start")
    }

    fn test_server() -> Server {
        test_server_with(ServerConfig::default())
    }

    #[test]
    fn full_session() {
        let server = test_server();
        let mut c = Client::connect(server.addr());

        let r = c.send("GET IBM QOS 5 1000 QOD 2 1");
        assert!(r.starts_with("OK price=120.00"), "{r}");
        assert!(r.contains("qos=5.00"), "{r}");

        assert_eq!(c.send("UPD IBM 121.5 300"), "OK");
        // Wait for the update to apply, then read it back.
        std::thread::sleep(Duration::from_millis(50));
        let r = c.send("GET IBM");
        assert!(r.starts_with("OK price=121.50"), "{r}");

        let r = c.send("CMP IBM AOL GE");
        assert!(r.contains("min=52.00"), "{r}");
        assert!(r.contains("spread=69.50"), "{r}");

        let r = c.send("AVG IBM 2");
        assert!(r.starts_with("OK avg=120.75"), "{r}");

        let r = c.send("STATS");
        assert!(r.contains("applied=1"), "{r}");
        assert!(r.contains("rejected=0"), "{r}");
        assert!(r.contains("restarts=0"), "{r}");

        assert_eq!(c.send("QUIT"), "BYE");
        let stats = server.shutdown();
        assert_eq!(stats.aggregates.committed, 4);
        assert_eq!(stats.updates_applied, 1);
    }

    /// The metric names clients may depend on; renames are breaking.
    const STABLE_METRICS: &[&str] = &[
        "quts_queries_submitted_total",
        "quts_queries_committed_total",
        "quts_profit_gained",
        "quts_profit_offered",
        "quts_rho",
        "quts_adaptations_total",
        "quts_rho_history_truncated_total",
        "quts_queue_depth",
        "quts_updates_applied_total",
        "quts_updates_invalidated_total",
        "quts_shed",
        "quts_engine_restarts_total",
        "quts_wal_appended_total",
        "quts_wal_io_errors_total",
        "quts_snapshots_written_total",
        "quts_snapshot_last_lsn",
        "quts_recovery_replayed_updates",
        "quts_wal_truncated_bytes",
        "quts_wal_fsync_total",
        "quts_group_commits_total",
        "quts_group_commit_buffered",
        "quts_group_commit_batch_size",
        "quts_group_commit_wait_us",
        "quts_response_us",
        "quts_queue_wait_us",
        "quts_service_us",
        "quts_staleness",
        "quts_update_delay_us",
        "quts_wal_last_lsn",
    ];

    #[test]
    fn metrics_exposition_over_the_wire() {
        let server = test_server();
        let mut c = Client::connect(server.addr());
        assert!(c.send("GET IBM QOS 5 1000 QOD 2 1").starts_with("OK"));
        assert_eq!(c.send("UPD IBM 121.5 300"), "OK");
        std::thread::sleep(Duration::from_millis(50));

        let lines = c.send_multiline("METRICS");
        assert_eq!(lines.last().map(String::as_str), Some("# EOF"));
        // Every line parses: a comment, or `name{labels}? value`.
        for line in &lines {
            if line == "# EOF" {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# ") {
                assert!(
                    rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                    "bad comment: {line}"
                );
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(value.parse::<f64>().is_ok(), "bad value in: {line}");
            let bare = name.split('{').next().unwrap();
            assert!(
                bare.chars()
                    .all(|ch| ch.is_ascii_alphanumeric() || ch == '_'),
                "bad metric name in: {line}"
            );
        }
        let text = lines.join("\n");
        for name in STABLE_METRICS {
            assert!(
                text.contains(&format!("# TYPE {name} ")),
                "missing metric {name}"
            );
        }
        // The headline samples a scraper would alert on.
        assert!(text.contains("quts_queries_committed_total 1"));
        assert!(text.contains("quts_updates_applied_total 1"));
        assert!(text.contains("quts_queue_depth{class=\"query\"}"));
        assert!(text.contains("quts_queue_depth{class=\"update\"}"));
        assert!(text.contains("quts_shed{reason=\"queue_full\"} 0"));
        assert!(text.contains("quts_shed{reason=\"restart_lost_update\"} 0"));
        assert!(text.contains("quts_rho 0.75"));
        // Durability is off on the default server engine, so the
        // recovery counters expose zeroes — present, not absent.
        assert!(text.contains("quts_recovery_replayed_updates 0"));
        assert!(text.contains("quts_wal_truncated_bytes 0"));
        assert!(text.contains("quts_snapshot_last_lsn 0"));
        // Spans are on by default, so the histograms carry the commit.
        assert!(text.contains("quts_response_us_count 1"));
        assert!(text.contains("quts_response_us_bucket{le=\"+Inf\"} 1"));

        // The connection still serves single-line requests afterwards.
        assert!(c.send("GET IBM").starts_with("OK"));
        server.shutdown();
    }

    /// An 8-symbol store so a 2-shard partition is guaranteed to put
    /// traffic on both sides; returns the server plus one symbol from
    /// each shard (for a spanning CMP).
    fn sharded_test_server(shards: u32) -> (Server, Vec<String>) {
        let mut store = Store::new();
        for i in 0..8u32 {
            store.insert(&format!("S{i}"), 100.0 + i as f64);
        }
        let map = quts_engine::ShardMap::new(8, shards);
        let spanning: Vec<String> = (0..shards)
            .map(|k| format!("S{}", map.members(k)[0].0))
            .collect();
        let server = Server::start(
            store,
            ServerConfig {
                shards,
                ..ServerConfig::default()
            },
        )
        .expect("sharded server starts");
        (server, spanning)
    }

    #[test]
    fn sharded_session_routes_updates_and_spanning_reads() {
        let (server, spanning) = sharded_test_server(2);
        let mut c = Client::connect(server.addr());

        // Single-item traffic on every symbol: each shard serves its own.
        for i in 0..8 {
            let r = c.send(&format!("GET S{i}"));
            assert!(r.starts_with(&format!("OK price=10{i}.00")), "{r}");
        }
        assert_eq!(c.send(&format!("UPD {} 150.5 10", spanning[0])), "OK");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let r = c.send(&format!("GET {}", spanning[0]));
            if r.starts_with("OK price=150.50") {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "update never applied: {r}"
            );
            std::thread::yield_now();
        }

        // A CMP over one symbol per shard exercises the 2PL coordinator.
        let cmp = format!("CMP {}", spanning.join(" "));
        let r = c.send(&cmp);
        assert!(r.starts_with("OK min="), "{r}");

        let stats = c.send("STATS");
        assert!(stats.contains("shards=2"), "{stats}");
        assert!(stats.contains("restarts=0"), "{stats}");

        let text = c.send_multiline("METRICS").join("\n");
        assert!(text.contains("quts_shards 2"), "missing shard gauge");
        for k in 0..2 {
            assert!(
                text.contains(&format!("quts_shard_rho{{shard=\"{k}\"}}")),
                "missing per-shard rho for shard {k}"
            );
            assert!(
                text.contains(&format!("quts_shard_up{{shard=\"{k}\"}} 1")),
                "shard {k} must report up"
            );
        }
        assert!(
            text.contains("quts_cross_shard_txns_total{outcome=\"committed\"} 1"),
            "the spanning CMP must commit through the coordinator"
        );
        assert!(text.contains("quts_shard_executor_jobs_total"), "{text}");

        let stats = server.shutdown();
        // Merged accounting: 8 lookups + the spanning CMP + the applied
        // poll loop all committed; exactly one update applied somewhere.
        assert!(stats.aggregates.committed >= 9, "{stats:?}");
        assert_eq!(stats.updates_applied, 1);
    }

    #[test]
    fn sharding_rejects_replication_and_zero_shards() {
        let mut store = Store::new();
        store.insert("IBM", 120.0);
        match Server::start(
            store.clone(),
            ServerConfig {
                shards: 0,
                ..ServerConfig::default()
            },
        ) {
            Err(err) => assert_eq!(err.kind(), ErrorKind::InvalidInput),
            Ok(_) => panic!("zero shards must be rejected"),
        }

        match Server::start(
            store,
            ServerConfig {
                shards: 2,
                router: Some(RouterConfig::default()),
                ..ServerConfig::default()
            },
        ) {
            Err(err) => assert_eq!(err.kind(), ErrorKind::InvalidInput),
            Ok(_) => panic!("sharding plus a replica router must be rejected"),
        }
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let server = test_server();
        let mut c = Client::connect(server.addr());
        assert!(c.send("GET MSFT").starts_with("ERR unknown symbol"));
        assert!(c.send("BOGUS").starts_with("ERR"));
        assert!(c.send("GET IBM QOS 1").starts_with("ERR"));
        // The connection still works afterwards.
        assert!(c.send("GET IBM").starts_with("OK"));
        server.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let server = test_server();
        let addr = server.addr();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr);
                    for i in 0..10 {
                        let r = c.send(&format!("GET IBM QOS 1 1000 QOD 1 {}", i + 1));
                        assert!(r.starts_with("OK"), "{r}");
                        assert_eq!(c.send("UPD AOL 60.0 10"), "OK");
                    }
                    c.send("QUIT");
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let stats = server.shutdown();
        assert_eq!(stats.aggregates.committed, 40);
        assert_eq!(stats.updates_applied + stats.updates_invalidated, 40);
    }

    #[test]
    fn connection_cap_answers_busy() {
        let server = test_server_with(ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        });
        let mut first = Client::connect(server.addr());
        // A round-trip guarantees the acceptor has registered the slot.
        assert!(first.send("GET IBM").starts_with("OK"));

        let mut second = Client::connect(server.addr());
        assert_eq!(second.read(), "ERR busy");

        // Releasing the slot lets the next client in; the retry helper
        // absorbs the window where the acceptor hasn't freed it yet.
        assert_eq!(first.send("QUIT"), "BYE");
        let r = request_with_retry(server.addr(), "GET IBM");
        assert!(r.starts_with("OK"), "{r}");
        server.shutdown();
    }

    #[test]
    fn graceful_shutdown_leaves_a_cleanly_recoverable_directory() {
        use quts_engine::DurabilityConfig;
        let dir = std::env::temp_dir().join(format!("quts-server-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = test_server_with(ServerConfig {
            engine: EngineConfig::default().with_durability(DurabilityConfig::new(&dir)),
            ..ServerConfig::default()
        });
        let mut c = Client::connect(server.addr());
        assert_eq!(c.send("UPD IBM 150.25 10"), "OK");
        assert_eq!(c.send("UPD AOL 61.5 5"), "OK");
        assert_eq!(c.send("QUIT"), "BYE");

        // Graceful shutdown drains the backlog, flushes the WAL, and
        // publishes a final snapshot.
        let stats = server.shutdown();
        assert_eq!(stats.wal_appended, 2);
        assert!(stats.snapshots_written >= 1, "clean-shutdown snapshot");

        // The directory recovers with an empty replay and the applied
        // prices — nothing was owed at shutdown, nothing is owed now.
        let rec = quts_db::snapshot::recover(&dir).expect("recoverable");
        assert_eq!(rec.replayed, 0);
        assert!(rec.pending.is_empty());
        let ibm = rec.store.id_of("IBM").unwrap();
        let aol = rec.store.id_of("AOL").unwrap();
        assert_eq!(rec.store.record(ibm).price(), 150.25);
        assert_eq!(rec.store.record(aol).price(), 61.5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn busy_clients_retry_until_admitted() {
        // Six workers share two connection slots: every request must
        // eventually land through backoff + retry, none may panic on
        // the `ERR busy` turn-away.
        let server = test_server_with(ServerConfig {
            max_connections: 2,
            ..ServerConfig::default()
        });
        let addr = server.addr();
        let workers: Vec<_> = (0..6)
            .map(|w| {
                std::thread::spawn(move || {
                    for i in 0..3u32 {
                        let r = request_with_retry(
                            addr,
                            &format!("GET IBM QOS 1 1000 QOD 1 {}", (w + i) % 5 + 1),
                        );
                        assert!(r.starts_with("OK"), "{r}");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let stats = server.shutdown();
        assert_eq!(stats.aggregates.committed, 18, "all retried requests land");
    }

    #[test]
    fn replication_requires_a_durable_engine() {
        let mut store = Store::new();
        store.insert("IBM", 120.0);
        let result = Server::start(
            store,
            ServerConfig {
                repl_ship: Some(quts_engine::ShipConfig::default()),
                ..ServerConfig::default()
            },
        );
        match result {
            Err(err) => assert_eq!(err.kind(), ErrorKind::InvalidInput),
            Ok(_) => panic!("shipping without a WAL must be rejected"),
        }
    }

    #[test]
    fn repl_without_replication_is_a_polite_error() {
        let server = test_server();
        let mut c = Client::connect(server.addr());
        assert_eq!(c.send("REPL"), "ERR replication disabled");
        // The connection still serves requests afterwards.
        assert!(c.send("GET IBM").starts_with("OK"));
        server.shutdown();
    }

    #[test]
    fn flight_without_recorder_is_a_polite_error() {
        let server = test_server();
        let mut c = Client::connect(server.addr());
        assert_eq!(c.send("FLIGHT"), "ERR flight recorder disabled");
        assert!(c.send("GET IBM").starts_with("OK"));
        server.shutdown();
    }

    #[test]
    fn flight_serves_the_live_recorder_as_jsonl() {
        use quts_engine::FlightRecorderConfig;
        let dir = std::env::temp_dir().join(format!(
            "quts-server-flight-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let server = test_server_with(ServerConfig {
            engine: EngineConfig::default()
                .with_trace(TraceConfig::full())
                .with_flight_recorder(FlightRecorderConfig::new(&dir)),
            ..ServerConfig::default()
        });
        let mut c = Client::connect(server.addr());
        assert!(c.send("GET IBM QOS 5 1000 QOD 2 1").starts_with("OK"));
        assert_eq!(c.send("UPD IBM 121.5 300"), "OK");
        std::thread::sleep(Duration::from_millis(50));

        let lines = c.send_multiline("FLIGHT");
        assert_eq!(lines.last().map(String::as_str), Some("# EOF"));
        let events = lines
            .iter()
            .filter(|l| l.starts_with("{\"rec\":\"event\","))
            .count();
        assert!(events >= 2, "query + update events expected: {lines:?}");
        for line in &lines {
            if line == "# EOF" {
                continue;
            }
            assert!(
                line.starts_with("{\"rec\":\"event\",") || line.starts_with("{\"rec\":\"series\","),
                "unparseable flight line: {line}"
            );
            assert!(line.ends_with('}'), "truncated flight line: {line}");
        }

        // The connection still serves single-line requests afterwards.
        assert!(c.send("GET IBM").starts_with("OK"));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replicated_server_routes_reads_and_exposes_replica_metrics() {
        use quts_engine::{DurabilityConfig, Replica, ReplicaConfig};
        let base = std::env::temp_dir().join(format!(
            "quts-server-repl-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&base);
        let primary_dir = base.join("primary");
        std::fs::create_dir_all(&primary_dir).expect("mkdir");
        let server = test_server_with(ServerConfig {
            engine: EngineConfig::default()
                .with_trace(TraceConfig::spans())
                .with_durability(
                    DurabilityConfig::new(&primary_dir)
                        .with_fsync(quts_engine::FsyncPolicy::Always),
                ),
            repl_ship: Some(quts_engine::ShipConfig::default()),
            router: Some(RouterConfig::default()),
            ..ServerConfig::default()
        });
        let repl_addr = server.repl_addr().expect("shipping enabled");
        let replica = Replica::start(
            repl_addr,
            ReplicaConfig::new("r1", base.join("replica"))
                .with_fsync(quts_engine::FsyncPolicy::Always)
                .with_ack_every(1),
        )
        .expect("replica starts");
        server.attach_replica(replica.handle());

        let mut c = Client::connect(server.addr());
        for i in 0..8 {
            assert_eq!(c.send(&format!("UPD IBM {} 10", 121 + i)), "OK");
        }
        // Wait until the replica has applied the whole feed.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while replica.stats().applied_lsn < 8 {
            assert!(
                std::time::Instant::now() < deadline,
                "replica never caught up"
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        // A caught-up replica (lag 0, #uu 0) qualifies for any contract,
        // even a zero-tolerance one: both reads ride the ladder to it.
        let r = c.send("GET IBM QOS 5 1000 QOD 5 64");
        assert!(r.starts_with("OK price=128.00"), "{r}");
        let r = c.send("GET IBM QOS 5 1000 QOD 5 1");
        assert!(r.starts_with("OK price=128.00"), "{r}");

        // The primary's registry view advances on acks; poll REPL until
        // the peer line reports the whole feed applied.
        let text = loop {
            let text = c.send_multiline("REPL").join("\n");
            if text.contains("applied=8") {
                break text;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "registry never saw applied=8: {text}"
            );
            std::thread::sleep(Duration::from_millis(5));
        };
        assert!(text.starts_with("OK replication primary_lsn=8"), "{text}");
        // A fresh (never-promoted) primary ships under term 0.
        assert!(text.contains("role primary term=0"), "{text}");
        assert!(text.contains("router replicas=1"), "{text}");
        assert!(text.contains("routed_replica=2"), "{text}");
        assert!(text.contains("routed_primary=0"), "{text}");
        assert!(text.contains("qod_violations=0"), "{text}");
        assert!(text.contains("repoints=0"), "{text}");
        assert!(text.contains("replica name=r1"), "{text}");

        // METRICS carries the per-replica series and the routing split.
        let text = c.send_multiline("METRICS").join("\n");
        assert!(text.contains("quts_repl_term 0"), "{text}");
        assert!(text.contains("quts_fenced_frames_total 0"), "{text}");
        assert!(text.contains("quts_router_repoints_total 0"), "{text}");
        assert!(text.contains("quts_wal_last_lsn 8"), "{text}");
        assert!(
            text.contains("quts_repl_applied_lsn{replica=\"r1\"} 8"),
            "{text}"
        );
        assert!(text.contains("quts_repl_lag{replica=\"r1\"} 0"), "{text}");
        assert!(
            text.contains("quts_routed_reads_total{target=\"replica\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("quts_router_qod_violations_total 0"),
            "{text}"
        );
        // The replication-lag histograms ride along: ack_every(1) means
        // every applied frame recorded one ship-to-ack latency sample.
        assert!(
            text.contains("# TYPE quts_repl_lag_frames histogram"),
            "{text}"
        );
        assert!(text.contains("quts_repl_apply_lag_us_count 8"), "{text}");

        replica.shutdown();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn idle_connections_are_closed() {
        let server = test_server_with(ServerConfig {
            idle_timeout: Some(Duration::from_millis(100)),
            ..ServerConfig::default()
        });
        let mut c = Client::connect(server.addr());
        assert!(c.send("GET IBM").starts_with("OK"));
        std::thread::sleep(Duration::from_millis(400));
        // The server closed the socket: the next read sees EOF.
        c.write_line("GET IBM").expect("send");
        let mut response = String::new();
        let n = c.reader.read_line(&mut response).unwrap_or(0);
        assert_eq!(n, 0, "expected EOF after idle timeout, got {response:?}");
        server.shutdown();
    }

    #[test]
    fn warm_connection_round_trips_do_not_wait_on_delayed_acks() {
        // A reply split over two segments leaves its second one only
        // when the client's delayed ACK fires (about 40 ms on Linux).
        let server = test_server();
        let mut c = Client::connect(server.addr());
        assert!(c.send("GET IBM").starts_with("OK"));
        let started = std::time::Instant::now();
        for _ in 0..50 {
            assert!(c.send("GET IBM").starts_with("OK"));
        }
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "50 round trips took {took:?}"
        );
        server.shutdown();
    }

    #[test]
    fn fresh_sessions_are_accepted_without_a_poll_delay() {
        let server = test_server();
        let started = std::time::Instant::now();
        for _ in 0..100 {
            let mut c = Client::connect(server.addr());
            assert!(c.send("GET IBM").starts_with("OK"));
            assert_eq!(c.send("QUIT"), "BYE");
        }
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(250),
            "100 sessions took {took:?}"
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_wakes_an_acceptor_bound_to_an_unspecified_address() {
        let server = test_server_with(ServerConfig {
            addr: "0.0.0.0:0".parse().expect("static address"),
            ..ServerConfig::default()
        });
        let started = std::time::Instant::now();
        server.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    }
}
