//! The client side shared by the workloads that go through the TCP
//! server: one thread sends the queries in sessions (connect, queries,
//! `QUIT`), another pipelines the updates on one long-lived connection.

use crate::inputs;
use crate::measure::{sleep_until, Clock};
use crate::report::{QueryRec, Run, Sample, UpdateRec};
use crate::spans::{Spans, UPDATE_ID_BASE};
use crate::wire::{connect, drive, request_lines, Exchange, Scheduled};
use crate::{sampler, Ctx, START_DELAY};
use quts_engine::LiveStats;
use quts_workload::Trace;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long a connection waits for missing replies after its last send.
const DRAIN: Duration = Duration::from_secs(10);

/// Replays `trace` against the server at `addr`: queries in sessions of
/// `sessions[k]` queries each on one connection slot, updates pipelined
/// on a second connection. Traced runs also sample `stats` and
/// `replica_lsn` every few ms.
pub fn replay(
    ctx: &Ctx,
    addr: SocketAddr,
    trace: &Trace,
    sessions: &[usize],
    stats: impl FnMut() -> LiveStats + Send,
    replica_lsn: impl FnMut() -> u64 + Send,
) -> (Run, Vec<Sample>) {
    let clock = Clock {
        t0: Instant::now() + START_DELAY,
    };
    let queries: Vec<Scheduled> = trace
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| Scheduled {
            due: clock.at(q.arrival.as_micros()),
            line: inputs::wire_query(q),
            id: i as u64,
        })
        .collect();
    let updates: Vec<Scheduled> = trace
        .updates
        .iter()
        .enumerate()
        .map(|(i, u)| Scheduled {
            due: clock.at(u.arrival.as_micros()),
            line: inputs::wire_update(u),
            id: UPDATE_ID_BASE + i as u64,
        })
        .collect();
    let stop = AtomicBool::new(false);
    let ((q_out, q_spans), (u_out, u_spans), samples) = std::thread::scope(|s| {
        let q = s.spawn(|| query_sessions(addr, &queries, sessions, ctx.trace));
        let u = s.spawn(|| pipeline(addr, &updates, ctx.trace));
        let sampler = ctx.trace.then(|| {
            let stop = &stop;
            s.spawn(move || sampler(stop, stats, replica_lsn))
        });
        let q = q.join().expect("query thread");
        let u = u.join().expect("update thread");
        stop.store(true, Ordering::Release);
        let samples = sampler.map(|h| h.join().expect("sampler thread"));
        (q, u, samples.unwrap_or_default())
    });

    let mut run = Run {
        t0: Some(clock.t0),
        measure_from: Some(clock.at(ctx.warmup_us())),
        ..Run::default()
    };
    let mut bad = Vec::new();
    for ((ex, opened, byes), spec) in q_out.into_iter().zip(&trace.queries) {
        let mut rec = QueryRec::from_exchange(spec.qc.clone(), &ex, &mut bad);
        rec.opened_connection = opened;
        if let Some(bye) = byes {
            if bye != "BYE" {
                bad.push(format!("session ended with {bye:?}, not BYE"));
            }
        }
        run.queries.push(rec);
    }
    run.updates = u_out
        .iter()
        .map(|e| UpdateRec::from_exchange(e, &mut bad))
        .collect();
    run.check_replies(bad);
    run.spans.merge(q_spans);
    run.spans.merge(u_spans);
    (run, samples)
}

/// One query's exchange, whether it opened its session's connection,
/// and (for a session's last query) the reply to the session's `QUIT`.
type SessionExchange = (Exchange, bool, Option<String>);

/// Runs the query sessions one after another on one connection slot: a
/// session connects when its first query is due, or when the previous
/// session has closed if that is later.
fn query_sessions(
    addr: SocketAddr,
    queries: &[Scheduled],
    sessions: &[usize],
    trace: bool,
) -> (Vec<SessionExchange>, Spans) {
    let mut spans = Spans::default();
    let mut out = Vec::with_capacity(queries.len());
    let mut rest = queries;
    let mut slot_free = Instant::now();
    for &size in sessions {
        let (session, tail) = rest.split_at(size);
        rest = tail;
        sleep_until(session[0].due);
        let ready = slot_free.max(session[0].due);
        let connect_start = Instant::now();
        let stream = connect(addr);
        if trace {
            spans.record(session[0].id, "connect", connect_start, Instant::now());
        }
        let Ok(stream) = stream else {
            out.extend(
                session
                    .iter()
                    .map(|s| (lost(s, connect_start), false, None)),
            );
            continue;
        };
        let mut schedule = session.to_vec();
        schedule.push(Scheduled {
            line: "QUIT".into(),
            ..session[size - 1].clone()
        });
        let mut ex = drive(&stream, &schedule, DRAIN, trace.then_some(&mut spans));
        slot_free = Instant::now();
        let bye = ex
            .pop()
            .and_then(|e| e.reply)
            .map_or_else(String::new, |(l, _)| l);
        ex[0].ready = ready;
        ex[0].began = connect_start;
        let n = ex.len();
        out.extend(ex.into_iter().enumerate().map(|(i, e)| {
            let bye = (i + 1 == n).then(|| bye.clone());
            (e, i == 0, bye)
        }));
    }
    (out, spans)
}

/// The record of a request whose connection could not be opened.
fn lost(s: &Scheduled, connect_start: Instant) -> Exchange {
    Exchange {
        intended: s.due,
        ready: s.due,
        began: connect_start.max(s.due),
        reply: None,
    }
}

/// Pipelines `updates` on one connection opened at the first due time.
fn pipeline(addr: SocketAddr, updates: &[Scheduled], trace: bool) -> (Vec<Exchange>, Spans) {
    let mut spans = Spans::default();
    let Some(first) = updates.first() else {
        return (Vec::new(), spans);
    };
    sleep_until(first.due);
    let connect_start = Instant::now();
    let Ok(stream) = connect(addr) else {
        return (
            updates.iter().map(|s| lost(s, connect_start)).collect(),
            spans,
        );
    };
    if trace {
        spans.record(first.id, "connect", connect_start, Instant::now());
    }
    let mut out = drive(&stream, updates, DRAIN, trace.then_some(&mut spans));
    out[0].began = connect_start;
    (out, spans)
}

/// Sends one multi-line verb (`METRICS`, `REPL`) on a fresh connection
/// and returns its lines.
pub fn fetch(addr: SocketAddr, verb: &str) -> Vec<String> {
    request_lines(addr, verb, Duration::from_secs(10), |l| {
        l == "# EOF" || l.starts_with("ERR")
    })
    .unwrap_or_default()
}

/// The value of exposition sample `key` (`name{labels}`) in `lines`.
pub fn exposition_value(lines: &[String], key: &str) -> Option<f64> {
    lines.iter().find_map(|l| {
        let (name, value) = l.rsplit_once(' ')?;
        (name == key).then(|| value.parse().ok()).flatten()
    })
}

/// The value of `key=` on the first line of `lines` starting with
/// `prefix` (the `REPL` status format).
pub fn status_value(lines: &[String], prefix: &str, key: &str) -> Option<f64> {
    let line = lines.iter().find(|l| l.starts_with(prefix))?;
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}
