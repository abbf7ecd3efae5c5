//! The QUTS benchmark: seeded open-loop workloads against the live
//! system, with client-observed Quality-Contract profit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_overload|portal_sessions|replicated_feed> \
//!     --seed <n> --seconds <s> --trace <0|1> \
//!     [--query-rate <x>] [--update-rate <x>]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! it runs the workload untraced and then traced (same seed) and prints
//! the per-layer metrics. The last line of standard output is one JSON
//! object; the exit code is non-zero if any correctness check failed.
//! See `README.md` for the metrics and what each workload is for.

mod feed;
mod inputs;
mod measure;
mod micro;
mod overload;
mod portal;
mod report;
mod served;
mod spans;
mod wire;

use inputs::Workload;
use quts_engine::LiveStats;
use report::{Metric, Run, Sample};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-up repetitions per untraced run at each end of the measured
/// window; `setup_s` is the median of all of them.
const SETUP_REPS: usize = 15;

/// Gap between the end of set-up and the first due request.
pub const START_DELAY: Duration = Duration::from_millis(5);

/// Stats getters are sampled this often during traced runs.
const SAMPLE_EVERY: Duration = Duration::from_millis(2);

/// A run is invalid if the generator's p99 lateness exceeds this.
const MAX_LATE_P99_MS: f64 = 25.0;

/// Where runs keep their durable directories and span files, relative to
/// the working directory.
const OUT_DIR: &str = ".perfbench_out";

/// Every per-layer metric and its unit, in `BENCHMARK.json` order. A
/// metric whose layer is not on a workload's path reads 0 there.
const PER_LAYER: [(&str, &str); 44] = [
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("update_ack_p99_ms", "ms"),
    ("gen.late_ms_p99", "ms"),
    ("server.front_door_ms_p50", "ms"),
    ("server.front_door_ms_p99", "ms"),
    ("server.first_reply_ms_p50", "ms"),
    ("server.parse_us_mean", "us"),
    ("engine.queue_wait_ms_p50", "ms"),
    ("engine.queue_wait_ms_p99", "ms"),
    ("engine.service_ms_p50", "ms"),
    ("engine.admission_rejects", "count"),
    ("engine.shed_expired", "count"),
    ("engine.updates_dropped", "count"),
    ("sched.rho_mean", "ratio"),
    ("sched.adaptations", "count"),
    ("sched.pending_queries_max", "count"),
    ("sched.pending_updates_max", "count"),
    ("sched.invalidated_ratio", "ratio"),
    ("qc.engine_profit_pct", "%"),
    ("db.exec_lookup_us_mean", "us"),
    ("db.exec_avg_us_mean", "us"),
    ("db.exec_compare_us_mean", "us"),
    ("db.exec_portfolio_us_mean", "us"),
    ("db.fsyncs_per_update", "ratio"),
    ("db.group_batch_p50", "count"),
    ("db.group_wait_ms_p99", "ms"),
    ("db.wal_bytes_per_update", "bytes"),
    ("db.snapshots", "count"),
    ("db.update_delay_ms_p99", "ms"),
    ("shard.cross_txns", "count"),
    ("shard.cross_txn_failed", "count"),
    ("shard.lock_timeouts", "count"),
    ("shard.executor_steals_per_job", "ratio"),
    ("shard.single_query_p99_ms", "ms"),
    ("shard.cross_query_p99_ms", "ms"),
    ("repl.apply_lag_ms_p50", "ms"),
    ("repl.apply_lag_ms_p99", "ms"),
    ("repl.lag_frames_p99", "count"),
    ("repl.bootstraps", "count"),
    ("repl.connections", "count"),
    ("router.replica_read_share", "%"),
    ("router.shed_busy", "count"),
    ("trace_overhead_pct", "%"),
];

/// What a run needs to know.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Unmeasured seconds replayed before the measured window.
    pub warmup: f64,
    /// `(query, update)` rate multipliers over the paper's mean rates.
    pub rates: (f64, f64),
    /// Record spans and sample stats getters.
    pub trace: bool,
    /// Set-up repetitions.
    pub setup_reps: usize,
    /// Directory for the run's durable state.
    pub workdir: PathBuf,
    /// Process start, where the first set-up is timed from.
    pub started: Instant,
}

impl Ctx {
    /// Seconds of trace a run replays: warm-up plus measured window.
    pub fn horizon(&self) -> f64 {
        self.warmup + self.seconds
    }

    /// The measured window's start, µs from the schedule's origin.
    pub fn warmup_us(&self) -> u64 {
        (self.warmup * 1e6) as u64
    }
}

/// Sets the system up `ctx.setup_reps` times, tearing down all but the
/// last; returns each set-up's duration (the first from process start)
/// and the last system.
pub fn setups<S>(
    ctx: &Ctx,
    mut make: impl FnMut(usize) -> S,
    mut teardown: impl FnMut(S),
) -> (Vec<f64>, S) {
    let mut times = Vec::with_capacity(ctx.setup_reps);
    let mut rep = 0;
    loop {
        let start = if rep == 0 {
            ctx.started
        } else {
            Instant::now()
        };
        let sys = make(rep);
        times.push(start.elapsed().as_secs_f64());
        rep += 1;
        if rep >= ctx.setup_reps {
            return (times, sys);
        }
        teardown(sys);
    }
}

/// Sets the system up `ctx.setup_reps` more times after the measured
/// window, tearing each down, and returns their durations. With
/// [`setups`] this times set-up at both ends of the run, so `setup_s`
/// samples the host's speed, which drifts over tens of seconds on a
/// shared host, at two moments.
pub fn setups_after<S>(
    ctx: &Ctx,
    mut make: impl FnMut(usize) -> S,
    mut teardown: impl FnMut(S),
) -> Vec<f64> {
    (ctx.setup_reps..2 * ctx.setup_reps)
        .map(|rep| {
            let start = Instant::now();
            let sys = make(rep);
            let took = start.elapsed().as_secs_f64();
            teardown(sys);
            took
        })
        .collect()
}

/// Polls `done` every few ms for up to a minute.
pub fn drained(mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(60);
    while Instant::now() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    done()
}

/// Samples the stats getters every [`SAMPLE_EVERY`] until `stop`.
pub fn sampler(
    stop: &AtomicBool,
    mut stats: impl FnMut() -> LiveStats,
    mut replica_lsn: impl FnMut() -> u64,
) -> Vec<Sample> {
    let mut out = Vec::new();
    while !stop.load(Ordering::Acquire) {
        let s = stats();
        out.push(Sample {
            at: Instant::now(),
            rho: s.rho,
            pending_queries: s.pending_queries,
            pending_updates: s.pending_updates,
            primary_lsn: s.wal_last_lsn,
            replica_lsn: replica_lsn(),
        });
        std::thread::sleep(SAMPLE_EVERY);
    }
    out
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rates: (f64, f64),
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut rates = (None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<f64>().map_err(|_| format!("bad {flag} {v:?}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value:?}"))?,
                )
            }
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => trace = value == "1",
            "--query-rate" => rates.0 = Some(num(&value)?),
            "--update-rate" => rates.1 = Some(num(&value)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let (q, u) = workload.default_rates();
    let rates = (rates.0.unwrap_or(q), rates.1.unwrap_or(u));
    if !(rates.0 > 0.0 && rates.1 > 0.0) {
        return Err("rates must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        rates,
    })
}

fn bench(workload: Workload, ctx: &Ctx) -> Run {
    match workload {
        Workload::PaperOverload => overload::bench(ctx),
        Workload::PortalSessions => portal::bench(ctx),
        Workload::ReplicatedFeed => feed::bench(ctx),
    }
}

/// Prints one human-readable metric line.
fn print_metric(prefix: &str, m: &Metric) {
    let note = if m.note.is_empty() {
        String::new()
    } else {
        format!("  ({})", m.note)
    };
    println!("{prefix}{:<32} {:>14.4} {}{note}", m.name, m.value, m.unit);
}

/// The checked-out commit, read from `.git` if there is one.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn main() {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workdir = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&workdir) {
        eprintln!("perfbench: cannot create {}: {e}", workdir.display());
        std::process::exit(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} warmup={} query_rate={}x update_rate={}x trace={} \
         nproc={nproc} commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.workload.warmup_s(),
        args.rates.0,
        args.rates.1,
        u8::from(args.trace),
        git_commit(),
    );
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        warmup: args.workload.warmup_s(),
        rates: args.rates,
        trace: false,
        setup_reps: if args.trace { 1 } else { SETUP_REPS },
        workdir: workdir.clone(),
        started,
    };
    let plain = bench(args.workload, &ctx);
    let mut runs = vec![plain];
    if args.trace {
        ctx.trace = true;
        ctx.started = Instant::now();
        runs.push(bench(args.workload, &ctx));
    }

    let mut correct = true;
    for run in &mut runs {
        let late = run
            .client_layers()
            .iter()
            .find(|m| m.name == "gen.late_ms_p99")
            .map_or(0.0, |m| m.value);
        run.checks
            .check("generator on time", late <= MAX_LATE_P99_MS, || {
                format!("gen.late_ms_p99 = {late:.3} ms")
            });
        for failure in run.checks.failures() {
            println!("# CHECK FAILED {failure}");
        }
        correct &= run.checks.all_passed();
    }
    let measured = runs.last().expect("at least one run");
    let passed: usize = runs.iter().map(|r| r.checks.passed()).sum();
    println!("# checks passed={passed} correct={correct}");

    let metrics: Vec<Metric> = if args.trace {
        let mut layer = measured.layer.clone();
        let untraced = runs[0].query_latency().pct(50.0);
        let traced = measured.query_latency().pct(50.0);
        layer.push(
            Metric::new(
                "trace_overhead_pct",
                100.0 * (traced - untraced) / untraced.max(1e-9),
                "%",
            )
            .note(format!(
                "query p50 {traced:.3} ms traced, {untraced:.3} ms untraced; {} spans",
                measured.spans.len()
            )),
        );
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                layer
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| {
                        Metric::new(name, 0.0, unit).note("layer not on this workload's path")
                    })
            })
            .collect()
    } else {
        // The latency percentiles are printed for reading but not gated:
        // on about a thousand queries a run their run-to-run spread is
        // wider than a regression bound can be (see README.md).
        for m in measured.client_layers().iter().take(3) {
            print_metric("# not gated: ", m);
        }
        let gated = measured.end_to_end();
        // The fail shares, reported in the gate as their complements.
        for (ok, fail) in [
            ("query_ok_pct", "query_fail_pct"),
            ("update_ok_pct", "update_fail_pct"),
        ] {
            if let Some(m) = gated.iter().find(|m| m.name == ok) {
                let share = Metric::new(fail, 100.0 - m.value, "%").note(m.note.clone());
                print_metric("# not gated: ", &share);
            }
        }
        gated
    };
    for m in &metrics {
        print_metric("", m);
    }
    if args.trace {
        let path = workdir
            .parent()
            .expect("workdir has a parent")
            .join(format!(
                "spans-{}-seed{}.jsonl",
                args.workload.name(),
                args.seed
            ));
        let t0 = measured.t0.unwrap_or(started);
        let mut spans = std::mem::take(&mut runs.last_mut().expect("traced run").spans);
        match spans.write_jsonl(&path, t0) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# spans not written: {e}"),
        }
    }
    let _ = std::fs::remove_dir_all(&workdir);

    let attempted: usize = runs.last().map_or(0, |r| r.queries.len() + r.updates.len());
    let failed: usize = runs
        .last()
        .map_or(0, |r| r.failed_queries() + r.failed_updates());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
