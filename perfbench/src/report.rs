//! What one run observed, the checks it made, and the metrics derived
//! from both.

use crate::measure::{highest_supported, Dist, Profit};
use crate::spans::Spans;
use crate::wire::Exchange;
use quts_engine::LiveStats;
use quts_qc::QualityContract;
use std::time::Instant;

/// Tolerance for values the server prints with two decimals.
pub const PRINT_EPS: f64 = 0.005 + 1e-9;

/// How a query ended, as the client saw it.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Answered: the engine's response time, staleness and profit.
    Ok {
        /// Engine response time, ms.
        rt_ms: f64,
        /// Unapplied updates at execution (`#uu`).
        uu: f64,
        /// QoS profit the engine reported.
        qos: f64,
        /// QoD profit the engine reported.
        qod: f64,
    },
    /// Refused or failed, with the reason.
    Err(String),
    /// No reply came back.
    Lost,
}

/// Parses a query reply line: `OK … rt=<ms>ms uu=<n> qos=<p> qod=<p>` or
/// `ERR <reason>`.
pub fn parse_query_reply(line: &str) -> Result<Answer, String> {
    if let Some(reason) = line.strip_prefix("ERR ") {
        return Ok(Answer::Err(reason.to_string()));
    }
    let body = line
        .strip_prefix("OK ")
        .ok_or_else(|| format!("unparseable reply {line:?}"))?;
    let field = |key: &str| -> Result<f64, String> {
        body.split_whitespace()
            .find_map(|tok| tok.strip_prefix(key))
            .map(|v| v.trim_end_matches("ms"))
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("reply without {key} {line:?}"))
    };
    Ok(Answer::Ok {
        rt_ms: field("rt=")?,
        uu: field("uu=")?,
        qos: field("qos=")?,
        qod: field("qod=")?,
    })
}

/// One attempted query.
#[derive(Debug, Clone)]
pub struct QueryRec {
    /// The query's contract (as the client sent it).
    pub qc: QualityContract,
    /// When it was due.
    pub intended: Instant,
    /// When the client was free to act on it (later than `intended` if
    /// its connection slot was still held).
    pub ready: Instant,
    /// When the client began acting on it (connect or write/submit).
    pub began: Instant,
    /// When its reply was read (or its ticket resolved).
    pub done: Option<Instant>,
    /// How it ended.
    pub answer: Answer,
    /// It opened its connection (its `began` is the connect).
    pub opened_connection: bool,
    /// It spans more than one shard.
    pub cross_shard: bool,
}

impl QueryRec {
    /// Builds a record from a wire exchange; an unparseable reply is
    /// recorded as lost and reported in `bad`.
    pub fn from_exchange(qc: QualityContract, e: &Exchange, bad: &mut Vec<String>) -> QueryRec {
        let (answer, done) = match &e.reply {
            Some((line, at)) => match parse_query_reply(line) {
                Ok(a) => (a, Some(*at)),
                Err(msg) => {
                    bad.push(msg);
                    (Answer::Lost, None)
                }
            },
            None => (Answer::Lost, None),
        };
        QueryRec {
            qc,
            intended: e.intended,
            ready: e.ready,
            began: e.began,
            done,
            answer,
            opened_connection: false,
            cross_shard: false,
        }
    }

    /// Client latency from the due time, ms, if answered.
    pub fn latency_ms(&self) -> Option<f64> {
        match (&self.answer, self.done) {
            (Answer::Ok { .. }, Some(done)) => Some(ms(done, self.intended)),
            _ => None,
        }
    }

    /// Engine response time, ms, if answered.
    pub fn rt_ms(&self) -> Option<f64> {
        match self.answer {
            Answer::Ok { rt_ms, .. } => Some(rt_ms),
            _ => None,
        }
    }

    /// Client latency minus generator lateness minus engine `rt`: the
    /// time spent outside the engine (including any wait for the
    /// connection slot), ms, if answered.
    pub fn front_door_ms(&self) -> Option<f64> {
        Some(self.latency_ms()? - self.lateness_ms() - self.rt_ms()?)
    }

    /// How late the generator began this request once it was free to,
    /// ms.
    pub fn lateness_ms(&self) -> f64 {
        ms(self.began, self.ready)
    }
}

/// One attempted update.
#[derive(Debug, Clone)]
pub struct UpdateRec {
    /// When it was due.
    pub intended: Instant,
    /// When the client began sending (submitting) it.
    pub began: Instant,
    /// When it was acknowledged, if it was accepted.
    pub acked: Option<Instant>,
}

impl UpdateRec {
    /// Builds a record from a wire exchange; only `OK` is an ack, `ERR`
    /// is a failure, and anything else is reported in `bad`.
    pub fn from_exchange(e: &Exchange, bad: &mut Vec<String>) -> UpdateRec {
        let acked = match &e.reply {
            Some((line, at)) if line == "OK" => Some(*at),
            Some((line, _)) if line.starts_with("ERR ") => None,
            Some((line, _)) => {
                bad.push(format!("unparseable update reply {line:?}"));
                None
            }
            None => None,
        };
        UpdateRec {
            intended: e.intended,
            began: e.began,
            acked,
        }
    }
}

/// Milliseconds from `from` to `to` (0 if `to` is earlier).
pub fn ms(to: Instant, from: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count or other context, printed beside the value.
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            note: String::new(),
        }
    }

    /// Adds a note.
    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// Named pass/fail correctness checks.
#[derive(Debug, Default)]
pub struct Checks {
    failed: Vec<String>,
    passed: usize,
}

impl Checks {
    /// Records a check; `detail` explains a failure.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failed.push(format!("{name}: {}", detail()));
        }
    }

    /// Whether every check passed.
    pub fn all_passed(&self) -> bool {
        self.failed.is_empty()
    }

    /// Failure descriptions.
    pub fn failures(&self) -> &[String] {
        &self.failed
    }

    /// Number of checks that passed.
    pub fn passed(&self) -> usize {
        self.passed
    }
}

/// Everything one measured run produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Set-up durations, seconds, one per repetition.
    pub setup_s: Vec<f64>,
    /// Attempted queries, in trace order.
    pub queries: Vec<QueryRec>,
    /// Attempted updates, in trace order.
    pub updates: Vec<UpdateRec>,
    /// Correctness checks.
    pub checks: Checks,
    /// Per-layer metrics (filled by traced runs).
    pub layer: Vec<Metric>,
    /// Spans (filled by traced runs).
    pub spans: Spans,
    /// Origin of the run's schedule.
    pub t0: Option<Instant>,
    /// Start of the measured window: requests due earlier are warm-up,
    /// checked but not measured.
    pub measure_from: Option<Instant>,
}

impl Run {
    fn in_window(&self, intended: Instant) -> bool {
        self.measure_from.is_none_or(|from| intended >= from)
    }

    /// Queries in the measured window.
    fn measured_queries(&self) -> impl Iterator<Item = &QueryRec> {
        self.queries.iter().filter(|q| self.in_window(q.intended))
    }

    /// Updates in the measured window.
    fn measured_updates(&self) -> impl Iterator<Item = &UpdateRec> {
        self.updates.iter().filter(|u| self.in_window(u.intended))
    }

    /// Queries that failed, were refused or were lost.
    pub fn failed_queries(&self) -> usize {
        self.queries
            .iter()
            .filter(|q| !matches!(q.answer, Answer::Ok { .. }))
            .count()
    }

    /// Updates not acknowledged.
    pub fn failed_updates(&self) -> usize {
        self.updates.iter().filter(|u| u.acked.is_none()).count()
    }

    /// Latency distribution of answered queries in the measured window.
    pub fn query_latency(&self) -> Dist {
        Dist::new(
            self.measured_queries()
                .filter_map(QueryRec::latency_ms)
                .collect(),
        )
    }

    /// The checks every workload makes on its client-side records: each
    /// reply parses, each answer is within its contract's maxima, and per
    /// request lateness + front door + `rt` = client latency, with both
    /// lateness and front door non-negative.
    pub fn check_replies(&mut self, bad: Vec<String>) {
        let n_bad = bad.len();
        self.checks.check("every reply parses", bad.is_empty(), || {
            format!("{n_bad} bad replies, first: {}", bad[0])
        });
        let over = self
            .queries
            .iter()
            .filter(|q| match q.answer {
                Answer::Ok { qos, qod, .. } => {
                    qos > q.qc.qosmax() + PRINT_EPS || qod > q.qc.qodmax() + PRINT_EPS
                }
                _ => false,
            })
            .count();
        self.checks
            .check("qos <= qosmax and qod <= qodmax", over == 0, || {
                format!("{over} replies exceed their contract")
            });
        let unreconciled = self
            .queries
            .iter()
            .filter(|q| {
                let (Some(lat), Some(rt), Some(fd)) =
                    (q.latency_ms(), q.rt_ms(), q.front_door_ms())
                else {
                    return false;
                };
                let sum = q.lateness_ms() + fd + rt;
                q.began < q.ready
                    || q.ready < q.intended
                    || fd < -PRINT_EPS
                    || (sum - lat).abs() > 1e-6
            })
            .count();
        self.checks.check(
            "lateness + front door + rt = client latency",
            unreconciled == 0,
            || format!("{unreconciled} queries do not reconcile"),
        );
    }

    /// The end-to-end metrics (untraced run).
    pub fn end_to_end(&self) -> Vec<Metric> {
        let lat = self.query_latency();
        let mut profit = Profit::default();
        for q in self.measured_queries() {
            match (&q.answer, q.latency_ms()) {
                (Answer::Ok { uu, .. }, Some(l)) => profit.answered(&q.qc, l, *uu),
                _ => profit.failed(&q.qc),
            }
        }
        let acks = self.update_acks();
        let nq = self.measured_queries().count();
        let nu = self.measured_updates().count();
        let failed_q = self
            .measured_queries()
            .filter(|q| !matches!(q.answer, Answer::Ok { .. }))
            .count();
        let failed_u = self
            .measured_updates()
            .filter(|u| u.acked.is_none())
            .count();
        let ok_pct = |failed: usize, n: usize| 100.0 * (n - failed) as f64 / n.max(1) as f64;
        vec![
            Metric::new("setup_s", Dist::new(self.setup_s.clone()).pct(50.0), "s").note(format!(
                "median of {} set-ups: {}",
                self.setup_s.len(),
                self.setup_s
                    .iter()
                    .map(|t| format!("{:.1}ms", t * 1e3))
                    .collect::<Vec<_>>()
                    .join(" ")
            )),
            Metric::new("query_mean_ms", lat.mean(), "ms").note(format!("n={}", lat.n())),
            Metric::new("query_ok_pct", ok_pct(failed_q, nq), "%")
                .note(format!("{failed_q} of {nq} failed")),
            Metric::new("qc_profit_pct", profit.total_pct(), "%")
                .note(format!("offered={:.0}", profit.offered)),
            Metric::new("qos_profit_pct", profit.qos_pct(), "%"),
            Metric::new("qod_profit_pct", profit.qod_pct(), "%"),
            Metric::new("update_ack_p50_ms", acks.pct(50.0), "ms").note(format!("n={}", acks.n())),
            Metric::new("update_ok_pct", ok_pct(failed_u, nu), "%")
                .note(format!("{failed_u} of {nu} failed")),
        ]
    }

    /// Ack latency of accepted updates in the measured window.
    fn update_acks(&self) -> Dist {
        Dist::new(
            self.measured_updates()
                .filter_map(|u| Some(ms(u.acked?, u.intended)))
                .collect(),
        )
    }

    /// Per-layer metrics computed from the client-side records (the
    /// measured window, except first replies, which count every
    /// connection): generator lateness, front door, first reply, update
    /// ack tail, single- vs cross-shard tails.
    pub fn client_layers(&self) -> Vec<Metric> {
        let late = Dist::new(
            self.measured_queries()
                .map(QueryRec::lateness_ms)
                .chain(self.measured_updates().map(|u| ms(u.began, u.intended)))
                .collect(),
        );
        let front = Dist::new(
            self.measured_queries()
                .filter_map(QueryRec::front_door_ms)
                .collect(),
        );
        let acks = self.update_acks();
        let first = Dist::new(
            self.queries
                .iter()
                .filter(|q| q.opened_connection)
                .filter_map(|q| Some(ms(q.done?, q.began) - q.rt_ms()?))
                .collect(),
        );
        let split = |cross: bool| {
            Dist::new(
                self.measured_queries()
                    .filter(|q| q.cross_shard == cross)
                    .filter_map(QueryRec::latency_ms)
                    .collect(),
            )
        };
        let (single, cross) = (split(false), split(true));
        let lat = self.query_latency();
        vec![
            Metric::new("query_p50_ms", lat.pct(50.0), "ms").note(format!("n={}", lat.n())),
            Metric::new("query_p99_ms", lat.pct(99.0), "ms").note(tail_note(&lat)),
            Metric::new("update_ack_p99_ms", acks.pct(99.0), "ms").note(tail_note(&acks)),
            Metric::new("gen.late_ms_p99", late.pct(99.0), "ms").note(format!("n={}", late.n())),
            Metric::new("server.front_door_ms_p50", front.pct(50.0), "ms")
                .note(format!("n={}", front.n())),
            Metric::new("server.front_door_ms_p99", front.pct(99.0), "ms"),
            Metric::new("server.first_reply_ms_p50", first.pct(50.0), "ms")
                .note(format!("n={}", first.n())),
            Metric::new("shard.single_query_p99_ms", single.pct(99.0), "ms")
                .note(format!("n={}", single.n())),
            Metric::new("shard.cross_query_p99_ms", cross.pct(99.0), "ms")
                .note(format!("n={}", cross.n())),
        ]
    }
}

/// The sample count and the highest percentile with at least ten
/// samples beyond it.
fn tail_note(d: &Dist) -> String {
    match highest_supported(d.n()) {
        Some(p) => format!("n={}, highest percentile with 10 beyond: p{p}", d.n()),
        None => format!("n={}, too few samples for a tail", d.n()),
    }
}

/// Stats getters sampled every few ms during a traced run.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When sampled.
    pub at: Instant,
    /// Current ρ.
    pub rho: f64,
    /// Pending queries.
    pub pending_queries: u64,
    /// Pending updates.
    pub pending_updates: u64,
    /// The primary's last WAL LSN.
    pub primary_lsn: u64,
    /// The replica's applied LSN (0 without a replica).
    pub replica_lsn: u64,
}

/// Engine-, scheduler-, QC- and WAL-layer metrics from the final stats
/// and the sampled getters.
pub fn engine_layers(s: &LiveStats, samples: &[Sample]) -> Vec<Metric> {
    let q_ms = |h: &quts_metrics::LogHistogram, q: f64| h.quantile(q).unwrap_or(0) as f64 / 1e3;
    let rho = samples.iter().map(|x| x.rho).sum::<f64>() / samples.len().max(1) as f64;
    let max_of = |f: fn(&Sample) -> u64| samples.iter().map(f).max().unwrap_or(0) as f64;
    let settled = s.updates_applied + s.updates_invalidated;
    let per_update = |x: u64| x as f64 / s.wal_appended.max(1) as f64;
    vec![
        Metric::new(
            "engine.queue_wait_ms_p50",
            q_ms(&s.spans.queue_wait_us, 0.5),
            "ms",
        )
        .note(format!("n={}", s.spans.queue_wait_us.count())),
        Metric::new(
            "engine.queue_wait_ms_p99",
            q_ms(&s.spans.queue_wait_us, 0.99),
            "ms",
        ),
        Metric::new(
            "engine.service_ms_p50",
            q_ms(&s.spans.service_us, 0.5),
            "ms",
        ),
        Metric::new(
            "engine.admission_rejects",
            s.queue_full_rejections as f64,
            "count",
        ),
        Metric::new("engine.shed_expired", s.shed_expired as f64, "count"),
        Metric::new(
            "engine.updates_dropped",
            s.updates_dropped_overload as f64,
            "count",
        ),
        Metric::new("sched.rho_mean", rho, "ratio").note(format!("{} samples", samples.len())),
        Metric::new("sched.adaptations", s.adaptations as f64, "count"),
        Metric::new(
            "sched.pending_queries_max",
            max_of(|x| x.pending_queries),
            "count",
        ),
        Metric::new(
            "sched.pending_updates_max",
            max_of(|x| x.pending_updates),
            "count",
        ),
        Metric::new(
            "sched.invalidated_ratio",
            s.updates_invalidated as f64 / settled.max(1) as f64,
            "ratio",
        ),
        Metric::new("qc.engine_profit_pct", 100.0 * s.total_pct(), "%"),
        Metric::new("db.fsyncs_per_update", per_update(s.wal_fsyncs), "ratio"),
        Metric::new(
            "db.group_batch_p50",
            s.group_commit_batch.quantile(0.5).unwrap_or(0) as f64,
            "count",
        ),
        Metric::new(
            "db.group_wait_ms_p99",
            q_ms(&s.group_commit_wait_us, 0.99),
            "ms",
        ),
        Metric::new("db.snapshots", s.snapshots_written as f64, "count"),
        Metric::new(
            "db.update_delay_ms_p99",
            q_ms(&s.spans.update_delay_us, 0.99),
            "ms",
        )
        .note(format!("n={}", s.spans.update_delay_us.count())),
    ]
}
