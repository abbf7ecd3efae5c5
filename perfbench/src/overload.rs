//! `paper_overload`: the paper trace replayed open-loop through one
//! in-process engine (see [`Workload::PaperOverload`]).

use crate::inputs::{self, Workload};
use crate::measure::{sleep_until, Clock};
use crate::report::{engine_layers, Answer, QueryRec, Run, UpdateRec};
use crate::spans::UPDATE_ID_BASE;
use crate::{drained, sampler, setups, setups_after, Ctx, START_DELAY};
use quts_engine::{Engine, EngineConfig, EngineHandle, QueryTicket};
use quts_server::ServerConfig;
use quts_workload::Trace;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How often outstanding tickets are polled between submissions.
const POLL: Duration = Duration::from_micros(200);

/// How long to wait for stragglers after the last submit.
const RESOLVE_DEADLINE: Duration = Duration::from_secs(30);

/// The server's default engine with the paper's service costs.
fn engine_config(seed: u64) -> EngineConfig {
    ServerConfig::default()
        .engine
        .with_paper_costs()
        .with_seed(inputs::sub_seed(seed, 4))
}

struct Sys {
    trace: Trace,
    engine: Engine,
}

/// A submitted query whose ticket is still outstanding.
struct Submitted {
    /// Position in `Run::queries`.
    idx: usize,
    /// Span id (trace index).
    id: u64,
    submitted: Instant,
    ticket: QueryTicket,
}

/// Runs the workload.
pub fn bench(ctx: &Ctx) -> Run {
    let make = |_| Sys {
        trace: inputs::trace(
            ctx.seed,
            ctx.horizon(),
            ctx.rates,
            Workload::PaperOverload.preset(),
        ),
        engine: Engine::start(inputs::store(), engine_config(ctx.seed)),
    };
    let teardown = |sys: Sys| {
        sys.engine.shutdown();
    };
    let (setup_s, sys) = setups(ctx, make, teardown);
    let Sys { trace, engine } = sys;
    let handle = engine.handle();
    let clock = Clock {
        t0: Instant::now() + START_DELAY,
    };

    // One merged schedule: (offset µs, query index or update index).
    let mut events: Vec<(u64, Result<usize, usize>)> = trace
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| (q.arrival.as_micros(), Ok(i)))
        .chain(
            trace
                .updates
                .iter()
                .enumerate()
                .map(|(i, u)| (u.arrival.as_micros(), Err(i))),
        )
        .collect();
    events.sort_by_key(|e| e.0);

    let mut run = Run {
        setup_s,
        t0: Some(clock.t0),
        measure_from: Some(clock.at(ctx.warmup_us())),
        ..Run::default()
    };
    let stop = AtomicBool::new(false);
    let samples = std::thread::scope(|s| {
        let sampler = ctx.trace.then(|| {
            let h = handle.clone();
            let stop = &stop;
            s.spawn(move || sampler(stop, || h.stats(), || 0))
        });
        replay(ctx, &trace, &handle, clock, &events, &mut run);
        stop.store(true, Ordering::Release);
        sampler
            .map(|h| h.join().expect("sampler thread"))
            .unwrap_or_default()
    });
    run.check_replies(Vec::new());
    check_counts(&mut run, &handle);
    let stats = handle.stats();
    if ctx.trace {
        run.layer = run.client_layers();
        run.layer.extend(engine_layers(&stats, &samples));
        run.layer
            .extend(crate::micro::layers(&trace, &mut run.spans));
    }
    engine.shutdown();
    run.setup_s.extend(setups_after(ctx, make, teardown));
    run
}

/// Submits every event at its due time and, between submissions, polls
/// the outstanding tickets, on this one thread: the engine's worker
/// busy-spins its service costs on one core and this thread has the
/// other to itself. A query's `done` is when its resolution was seen, at
/// most [`POLL`] after it happened.
fn replay(
    ctx: &Ctx,
    trace: &Trace,
    handle: &EngineHandle,
    clock: Clock,
    events: &[(u64, Result<usize, usize>)],
    run: &mut Run,
) {
    let mut pending: Vec<Submitted> = Vec::new();
    let mut next = 0;
    let mut last_submit = Instant::now();
    loop {
        if let Some(&(offset, ev)) = events.get(next) {
            let due = clock.at(offset);
            if Instant::now() >= due {
                next += 1;
                let began = Instant::now();
                last_submit = began;
                match ev {
                    Ok(i) => {
                        let q = &trace.queries[i];
                        let outcome = handle.submit_query(q.op.clone(), q.qc.clone());
                        let submitted = Instant::now();
                        if ctx.trace {
                            run.spans.record(i as u64, "submit", began, submitted);
                        }
                        let rec = QueryRec {
                            qc: q.qc.clone(),
                            intended: due,
                            ready: due,
                            began,
                            done: None,
                            answer: Answer::Lost,
                            opened_connection: false,
                            cross_shard: false,
                        };
                        match outcome {
                            Ok(ticket) => {
                                pending.push(Submitted {
                                    idx: run.queries.len(),
                                    id: i as u64,
                                    submitted,
                                    ticket,
                                });
                                run.queries.push(rec);
                            }
                            Err(e) => run.queries.push(QueryRec {
                                answer: Answer::Err(e.to_string()),
                                ..rec
                            }),
                        }
                    }
                    Err(j) => {
                        let outcome = handle.submit_update(inputs::trade(&trace.updates[j], j));
                        let end = Instant::now();
                        if ctx.trace {
                            run.spans
                                .record(UPDATE_ID_BASE + j as u64, "submit", began, end);
                        }
                        run.updates.push(UpdateRec {
                            intended: due,
                            began,
                            acked: outcome.is_ok().then_some(end),
                        });
                    }
                }
                continue;
            }
        } else if pending.is_empty() || last_submit.elapsed() > RESOLVE_DEADLINE {
            // Every query resolved, or the stragglers stay lost.
            return;
        }
        let now = Instant::now();
        pending.retain(|sub| match sub.ticket.try_recv() {
            None => true,
            Some(outcome) => {
                // Seen now, not at `now`: the ticket may have resolved
                // after `now` was read.
                let now = Instant::now();
                if ctx.trace {
                    run.spans.record(sub.id, "resolve", sub.submitted, now);
                }
                let rec = &mut run.queries[sub.idx];
                rec.answer = match outcome {
                    Ok(reply) => Answer::Ok {
                        rt_ms: reply.rt_ms,
                        uu: reply.staleness,
                        qos: reply.qos,
                        qod: reply.qod,
                    },
                    Err(e) => Answer::Err(e.to_string()),
                };
                rec.done = Some(now);
                false
            }
        });
        let wake = events
            .get(next)
            .map_or(now + POLL, |&(offset, _)| clock.at(offset).min(now + POLL));
        sleep_until(wake);
    }
}

/// Client counts against the engine's counters after the drain.
fn check_counts(run: &mut Run, handle: &EngineHandle) {
    let accepted = run.updates.iter().filter(|u| u.acked.is_some()).count() as u64;
    let ok = drained(|| {
        let s = handle.stats();
        s.pending_queries == 0
            && s.updates_applied + s.updates_invalidated + s.updates_dropped_overload >= accepted
    });
    let s = handle.stats();
    let submitted = run
        .queries
        .iter()
        .filter(|q| !matches!(&q.answer, Answer::Err(e) if is_refusal(e)))
        .count() as u64;
    let answered = run
        .queries
        .iter()
        .filter(|q| matches!(q.answer, Answer::Ok { .. }))
        .count() as u64;
    let settled = s.updates_applied + s.updates_invalidated + s.updates_dropped_overload;
    run.checks
        .check("engine drained", ok, || "updates never settled".into());
    run.checks.check(
        "queries submitted = engine submitted",
        submitted == s.aggregates.submitted,
        || format!("client {submitted} engine {}", s.aggregates.submitted),
    );
    run.checks.check(
        "queries answered = engine committed",
        answered == s.aggregates.committed,
        || format!("client {answered} engine {}", s.aggregates.committed),
    );
    run.checks.check(
        "accepted updates = applied + invalidated + dropped",
        accepted == settled,
        || format!("client {accepted} engine {settled}"),
    );
}

/// Whether a submit error means the query never entered the engine.
fn is_refusal(reason: &str) -> bool {
    reason.contains("queue full") || reason.contains("down")
}
