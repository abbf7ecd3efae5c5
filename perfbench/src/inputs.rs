//! Seeded input generation, kept in one place: the workloads, their
//! rates, the trace each run replays, the query-session split, and the
//! mapping from trace operations to wire requests.
//!
//! The system under test receives only what is generated here. The same
//! seed gives the same trace, contracts and sessions.

use quts_db::{QueryOp, StockId, Store, Trade};
use quts_engine::splitmix64;
use quts_qc::QualityContract;
use quts_sim::{QuerySpec, SimTime, UpdateSpec};
use quts_workload::qcgen::assign_qcs;
use quts_workload::stockgen::BurstModel;
use quts_workload::{QcPreset, QcShape, StockWorkloadConfig, Trace};

/// The paper trace's mean query rate: 82,129 queries in 30 minutes.
pub const PAPER_QUERY_RATE: f64 = 82_129.0 / 1_800.0;
/// The paper trace's mean update rate: 496,892 updates in 30 minutes.
pub const PAPER_UPDATE_RATE: f64 = 496_892.0 / 1_800.0;
/// Stocks in the paper trace (and in every store the benchmark builds).
pub const STOCKS: u32 = 4_608;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's claim. Phases contracts (Fig 9, so ρ adaptation
    /// matters) on the step-shaped paper trace, replayed open-loop at
    /// 1.5× the paper's rates through one in-process engine with the
    /// paper's service costs and no WAL. At 1× the live engine is not
    /// saturated (the register table collapses about a quarter of the
    /// updates); at 1.5× the scheduler decides the outcome. It goes
    /// in-process because the server answers each connection in order,
    /// so a two-connection wire client could never let the scheduler
    /// hold more than two queries.
    PaperOverload,
    /// The front door. The trace's queries at the paper rate as short
    /// client sessions (connect, a few queries, `QUIT`) on one
    /// connection slot, and its updates pipelined on a second,
    /// long-lived connection (evenly spaced, see [`pace_updates`]),
    /// against a two-shard TCP server with native service costs and no
    /// WAL. Accept, parse, reply write and shard routing do almost all
    /// the work and the scheduler almost none; about a fifth of the
    /// queries span several stocks, so the cross-shard 2PL coordinator
    /// runs here and nowhere else.
    PortalSessions,
    /// Writes beside reads. A one-shard TCP server with a durable engine
    /// (fsync on every commit, group commit), WAL shipping, a read
    /// router and one in-process replica. The trace's updates are
    /// pipelined at about seven times the paper's rate, evenly spaced
    /// (see [`pace_updates`]), and its queries arrive at the paper rate.
    /// WAL append, fsync, group commit, shipping, replica apply and
    /// QoD-aware routing do most of the work here and none in the other
    /// workloads; a run crosses several 4,096-append snapshot cycles.
    ReplicatedFeed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperOverload,
        Workload::PortalSessions,
        Workload::ReplicatedFeed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperOverload => "paper_overload",
            Workload::PortalSessions => "portal_sessions",
            Workload::ReplicatedFeed => "replicated_feed",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Default `(query, update)` rate multipliers over the paper's mean
    /// rates.
    pub fn default_rates(self) -> (f64, f64) {
        match self {
            Workload::PaperOverload => (1.5, 1.5),
            Workload::PortalSessions => (1.0, 1.0),
            // ≈ 2,000 updates/s.
            Workload::ReplicatedFeed => (1.0, 2_000.0 / PAPER_UPDATE_RATE),
        }
    }

    /// Seconds replayed before the measured window, whose requests are
    /// checked but not measured. `paper_overload` starts from an initial
    /// ρ and an empty update backlog (the backlog drives register-table
    /// invalidation, hence the load) and takes about eight seconds to
    /// settle; `replicated_feed` needs a few seconds for its first
    /// snapshot and shipping cycles; `portal_sessions` only warms its
    /// threads.
    pub fn warmup_s(self) -> f64 {
        match self {
            Workload::PaperOverload => 10.0,
            Workload::PortalSessions => 2.0,
            Workload::ReplicatedFeed => 5.0,
        }
    }

    /// How the trace's contracts are drawn.
    pub fn preset(self) -> QcPreset {
        match self {
            Workload::PaperOverload => QcPreset::Phases,
            Workload::PortalSessions | Workload::ReplicatedFeed => QcPreset::Balanced,
        }
    }
}

/// Derives an independent stream seed from the run seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream))
}

/// The trace a run replays: `seconds` long, with the paper's shape and
/// its mean rates scaled by `rates`, contracts from `preset` (step
/// shaped, as on the wire).
///
/// The load is kept stationary: arrivals are Poisson at the mean rates.
/// The generator's slower modulations are left out because squeezed
/// into a run of tens of seconds they would let the seed, not the
/// system, decide the result: flash-crowd bursts (10–20 s each, in
/// absolute time, so one would cover half the run), the update rate's
/// decline over the paper's half hour (the first seconds would be the
/// heaviest), and the ±25 % per-minute query-rate jitter (each "minute"
/// would last under a second, and at 1.5× a few high ones decide p99).
pub fn trace(seed: u64, seconds: f64, rates: (f64, f64), preset: QcPreset) -> Trace {
    let cfg = StockWorkloadConfig {
        query_bursts: BurstModel::none(),
        update_bursts: BurstModel::none(),
        // The update rate's end-to-start ratio: 1 is flat.
        update_rate_decline: 1.0,
        query_rate_jitter: 0.0,
        num_stocks: STOCKS,
        num_queries: (PAPER_QUERY_RATE * seconds * rates.0).round().max(1.0) as usize,
        num_updates: (PAPER_UPDATE_RATE * seconds * rates.1).round().max(1.0) as usize,
        horizon_s: seconds,
        seed: sub_seed(seed, 1),
        ..StockWorkloadConfig::default()
    };
    let mut trace = cfg.generate();
    assign_qcs(&mut trace, preset, QcShape::Step, sub_seed(seed, 2));
    trace
}

/// Spaces the trace's updates evenly over `seconds`, keeping their
/// order and contents: a ticker feed forwarding trades at a steady rate.
/// The workloads that pipeline updates over the wire use it.
///
/// The server answers a pipelined `UPD` in two writes without
/// `TCP_NODELAY`, so the reply's newline waits until the client's next
/// segment acknowledges the first write: the ack latency is the gap to
/// the client's next send. With Poisson gaps, every server wake-up
/// slower than the next gap costs the reply one more gap, so the ack
/// p50 follows the host's scheduling delays (at 2,000 updates/s its
/// spread across sets of ten runs on a shared 2-CPU host was 14–33 %,
/// at 276 updates/s 3–9 %). With even gaps the p50 is the gap plus the
/// release; slow wake-ups show in the p99.
pub fn pace_updates(trace: &mut Trace, seconds: f64) {
    let n = trace.updates.len() as f64;
    for (i, u) in trace.updates.iter_mut().enumerate() {
        u.arrival = SimTime(((i as f64 + 0.5) * seconds * 1e6 / n) as u64);
    }
}

/// The store every workload starts from: the trace's stocks at 100.0.
pub fn store() -> Store {
    Store::with_synthetic_stocks(STOCKS)
}

/// The ticker of `id` in [`store`].
pub fn symbol(id: StockId) -> String {
    format!("S{:04}", id.0)
}

/// The wire request for a trace query. `Lookup` → `GET`,
/// `MovingAverage` → `AVG`, `Compare` → `CMP`; the protocol has no
/// portfolio verb, so `Portfolio` → `CMP` of the same stocks. Every
/// contract side is sent, with full precision, so the server evaluates
/// the same contract the client does.
pub fn wire_query(q: &QuerySpec) -> String {
    let op = match &q.op {
        QueryOp::Lookup(id) => format!("GET {}", symbol(*id)),
        QueryOp::MovingAverage { stock, window } => format!("AVG {} {window}", symbol(*stock)),
        QueryOp::Compare(ids) => format!("CMP {}", symbols(ids.iter().copied())),
        QueryOp::Portfolio(pos) => format!("CMP {}", symbols(pos.iter().map(|&(id, _)| id))),
    };
    format!("{op}{}", wire_contract(&q.qc))
}

fn symbols(ids: impl Iterator<Item = StockId>) -> String {
    ids.map(symbol).collect::<Vec<_>>().join(" ")
}

fn wire_contract(qc: &QualityContract) -> String {
    let rtmax = qc.rtmax_ms().expect("trace contracts have a QoS deadline");
    format!(" QOS {} {rtmax} QOD {} 1", qc.qosmax(), qc.qodmax())
}

/// The operation the server executes for [`wire_query`]'s request.
pub fn wire_op(op: &QueryOp) -> QueryOp {
    match op {
        QueryOp::Portfolio(pos) => QueryOp::Compare(pos.iter().map(|&(id, _)| id).collect()),
        other => other.clone(),
    }
}

/// The wire request for a trace update.
pub fn wire_update(u: &UpdateSpec) -> String {
    format!(
        "UPD {} {} {}",
        symbol(u.trade.stock),
        u.trade.price,
        u.trade.volume
    )
}

/// A trace update as submitted in-process (trade time = trace index, as
/// the server numbers wire updates).
pub fn trade(u: &UpdateSpec, seq: usize) -> Trade {
    Trade {
        trade_time_ms: seq as u64,
        ..u.trade
    }
}

/// Splits `n` queries into client sessions of 2–6 queries each.
pub fn session_sizes(seed: u64, n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut left = n;
    let mut state = sub_seed(seed, 3);
    while left > 0 {
        state = splitmix64(state);
        let size = (2 + (state % 5) as usize).min(left);
        out.push(size);
        left -= size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = trace(7, 2.0, (1.0, 1.0), QcPreset::Phases);
        let b = trace(7, 2.0, (1.0, 1.0), QcPreset::Phases);
        let c = trace(8, 2.0, (1.0, 1.0), QcPreset::Phases);
        let lines = |t: &Trace| t.queries.iter().map(wire_query).collect::<Vec<_>>();
        assert_eq!(lines(&a), lines(&b));
        assert_ne!(lines(&a), lines(&c));
        assert_eq!(session_sizes(7, 100), session_sizes(7, 100));
    }

    #[test]
    fn rates_scale_the_counts_and_stay_flat() {
        let t = trace(1, 10.0, (1.5, 2.0), QcPreset::Balanced);
        assert_eq!(t.queries.len(), (PAPER_QUERY_RATE * 15.0).round() as usize);
        assert_eq!(t.updates.len(), (PAPER_UPDATE_RATE * 20.0).round() as usize);
        assert!(t.horizon().as_micros() <= 10_000_000);
        let first_half = t
            .updates
            .iter()
            .filter(|u| u.arrival.as_micros() < 5_000_000)
            .count();
        let share = first_half as f64 / t.updates.len() as f64;
        assert!(
            (0.45..0.55).contains(&share),
            "update rate not flat: {share}"
        );
    }

    #[test]
    fn paced_updates_keep_their_order_and_are_evenly_spaced() {
        let mut t = trace(5, 4.0, (1.0, 1.0), QcPreset::Balanced);
        let trades: Vec<Trade> = t.updates.iter().map(|u| u.trade).collect();
        pace_updates(&mut t, 4.0);
        assert_eq!(
            trades,
            t.updates.iter().map(|u| u.trade).collect::<Vec<_>>()
        );
        let at: Vec<u64> = t.updates.iter().map(|u| u.arrival.as_micros()).collect();
        let gap = 4e6 / at.len() as f64;
        assert!(at.windows(2).all(|w| (w[1] - w[0]) as f64 >= gap - 1.0));
        assert!(at.windows(2).all(|w| (w[1] - w[0]) as f64 <= gap + 1.0));
        assert!(*at.last().expect("updates") < 4_000_000);
    }

    #[test]
    fn every_wire_request_parses_to_the_mapped_op() {
        let t = trace(3, 5.0, (1.0, 1.0), QcPreset::Balanced);
        let store = store();
        for q in &t.queries {
            let req = quts_server::protocol::parse(&wire_query(q)).expect("query parses");
            let (syms, qc) = match req {
                quts_server::protocol::Request::Get { symbol, qc } => (vec![symbol], qc),
                quts_server::protocol::Request::Avg { symbol, qc, .. } => (vec![symbol], qc),
                quts_server::protocol::Request::Cmp { symbols, qc } => (symbols, qc),
                other => panic!("unexpected request {other:?}"),
            };
            assert_eq!(qc, q.qc, "the server sees the client's contract");
            let ids: Vec<StockId> = syms
                .iter()
                .map(|s| store.id_of(s).expect("known"))
                .collect();
            assert_eq!(ids, wire_op(&q.op).accessed_items().as_slice());
        }
        for u in &t.updates {
            assert!(quts_server::protocol::parse(&wire_update(u)).is_ok());
        }
        let sizes = session_sizes(3, t.queries.len());
        assert_eq!(sizes.iter().sum::<usize>(), t.queries.len());
        assert!(sizes.iter().all(|&s| (1..=6).contains(&s)));
    }
}
