//! Host-time benchmark of the two-case delivery simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload enum_fast --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every invocation first runs the workload at the default and held-out
//! seeds with a trace recorder attached (the correctness gate: golden
//! digest, trace counts against the report, oracles over the recorded
//! trace), then times repetitions at `--seed` for `--seconds` seconds.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` adds three traced
//! runs at `--seed` and the unit-cost benchmarks and prints the per-layer
//! ledger instead. The last stdout line is the result object; the line
//! before it records the host, the samples and each metric's spread.
//! `--peak-rss 1` makes one untimed run and prints only the process's
//! `VmHWM` in kB; `--trace 0` starts five such copies of itself.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use fugu_sim::json::Json;
use fugu_sim::trace::{CategoryMask, TraceRecord, Tracer};
use perfbench::digest::report_digest;
use perfbench::ledger::Ledger;
use perfbench::workload::{
    delivered, fast_pct, Oracles, TraceCounts, Workload, DEFAULT_SEED, HELDOUT_SEED,
};
use perfbench::{host, micro, stats};
use udm::{Machine, RunReport};

/// Committed `RunReport` digests per workload and seed.
const GOLDEN: &str = include_str!("../golden.json");
/// Timed repetitions made even when one outlasts `--seconds`.
const MIN_REPS: usize = 3;
/// Builds per set-up sample; a sample is their mean build time.
const SETUP_BATCH: usize = 8;
/// Set-up samples taken, one after each timed run, at most.
const SETUP_SAMPLES: usize = 100;
/// Fresh processes behind the `peak_rss_mb` median.
const PEAK_RSS_PROBES: usize = 5;
/// Traced runs behind `trace.overhead_pct`'s median.
const TRACED_REPS: usize = 3;
/// Trace recorder capacity; a run that overflows it fails the gate.
const RECORD_CAP: usize = 1 << 24;

const USAGE: &str = "usage: perfbench --workload enum_fast|lu_skew|barrier_oracle \
                     [--seed N] [--seconds S] [--trace 0|1] [--peak-rss 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run once and print only the process's `VmHWM` in kB.
    peak_rss: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut peak_rss) = (DEFAULT_SEED, 10, false, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} wants a whole number, got {value:?}"))
        };
        let switch = || match number()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(format!("{flag} wants 0 or 1")),
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = switch()?,
            "--peak-rss" => peak_rss = switch()?,
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        peak_rss,
    })
}

/// Runs the machine, turning a simulated panic or deadlock into an error.
fn run_caught(m: Machine) -> Result<RunReport, String> {
    catch_unwind(AssertUnwindSafe(|| m.run())).map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("run panicked: {}", msg.lines().next().unwrap_or(""))
    })
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("a run lasts under 584 years")
}

/// One untraced, timed repetition.
struct Rep {
    run_ns: u64,
    switches: Option<u64>,
    report: RunReport,
}

fn timed_rep(w: Workload, seed: u64) -> Result<Rep, String> {
    let instance = w.build(seed, None);
    let before = host::context_switches();
    let start = Instant::now();
    let report = run_caught(instance.machine)?;
    let run_ns = nanos(start.elapsed());
    let switches = host::context_switches().zip(before).map(|(a, b)| a - b);
    if let Some(failures) = instance.oracles.map(|o| o.failures()) {
        if let Some(first) = failures.first() {
            return Err(first.clone());
        }
    }
    Ok(Rep {
        run_ns,
        switches,
        report,
    })
}

/// One run with every trace category recorded.
struct Traced {
    run_ns: u64,
    report: RunReport,
    records: Vec<TraceRecord>,
    counts: TraceCounts,
}

/// Runs `w` at `seed` under a trace recorder and checks it: the trace's
/// counts must equal the report's, and the oracles (live ones, and fresh
/// ones fed the recorded trace) must find nothing wrong.
fn traced_run(w: Workload, seed: u64) -> Result<Traced, String> {
    let tracer = Tracer::recorder(RECORD_CAP, CategoryMask::ALL);
    let instance = w.build(seed, Some(tracer.clone()));
    let start = Instant::now();
    let report = run_caught(instance.machine)?;
    let run_ns = nanos(start.elapsed());
    if tracer.dropped() > 0 {
        return Err(format!("trace recorder overflowed {RECORD_CAP} records"));
    }
    let records = tracer.take_records();
    let counts = TraceCounts::tally(&records);
    let mut failures = counts.mismatches(&report);
    if let Some(live) = instance.oracles {
        failures.extend(live.failures());
    }
    let replay = Tracer::disabled();
    let oracles = Oracles::attach(&replay);
    for r in &records {
        replay.set_time(r.at);
        replay.emit(r.event.clone());
    }
    failures.extend(oracles.failures());
    match failures.into_iter().next() {
        Some(first) => Err(first),
        None => Ok(Traced {
            run_ns,
            report,
            records,
            counts,
        }),
    }
}

/// `VmHWM` of a fresh copy of this program that builds and runs `w` once
/// at `seed`: the memory the workload itself needs, free of the gate's
/// trace recorder and of whatever earlier runs left resident.
fn peak_rss_of_one_run(w: Workload, seed: u64) -> Option<u64> {
    let seed = seed.to_string();
    let out = Command::new(std::env::current_exe().ok()?)
        .args(["--workload", w.name(), "--seed", &seed, "--peak-rss", "1"])
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()?.trim().parse().ok()
}

fn golden_digest(w: Workload, seed: u64) -> Option<String> {
    let doc = Json::parse(GOLDEN).expect("golden.json is valid JSON");
    match doc.get(w.name())?.get(&seed.to_string())? {
        Json::Str(s) => Some(s.clone()),
        _ => None,
    }
}

/// Everything one invocation observed, for the two output lines.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    digests: Vec<(String, String)>,
}

impl Outcome {
    /// Records one attempted run; `Err` counts it as failed.
    fn attempt<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result
            .map_err(|e| self.failures.push(format!("{what}: {e}")))
            .ok()
    }

    /// Checks a report against the reference digest for its seed: the
    /// committed golden where there is one, otherwise the first digest this
    /// invocation saw at that seed.
    fn check_digest(&mut self, w: Workload, seed: u64, report: &RunReport) -> Result<(), String> {
        let digest = report_digest(report);
        let key = seed.to_string();
        let seen = self.digests.iter().find(|(k, _)| *k == key).map(|(_, d)| d);
        let reference = golden_digest(w, seed).or_else(|| seen.cloned());
        if seen.is_none() {
            self.digests.push((key, digest.clone()));
        }
        match reference {
            Some(r) if r != digest => Err(format!("digest {digest} differs from {r}")),
            _ => Ok(()),
        }
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::object([("value", Json::from(value)), ("unit", Json::from(unit))])
}

fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{name}")) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (sha, r) = line.split_once(' ')?;
        (r == name).then(|| sha.to_string())
    })
}

/// `nproc` is the CPU count the process was allowed before it pinned itself.
fn host_fingerprint(seed: u64, nproc: usize) -> Json {
    let absent = || "absent".to_string();
    Json::object([
        ("nproc", Json::from(nproc)),
        (
            "cpu",
            Json::from(host::host_cpu_model().unwrap_or_else(absent)),
        ),
        ("rustc", Json::from(env!("PERFBENCH_RUSTC_VERSION"))),
        ("commit", Json::from(git_commit().unwrap_or_else(absent))),
        ("seed", Json::from(seed)),
    ])
}

fn median_of(values: impl IntoIterator<Item = f64>) -> f64 {
    stats::median(&values.into_iter().collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// The median timed run's `run()` time, to the nanosecond. Every timed
/// run is at the same seed and their digests agree, so they did the same
/// simulated work and differ only in the host time it took.
fn median_run_ns(reps: &[Rep]) -> u64 {
    median_of(reps.iter().map(|r| r.run_ns as f64)).round() as u64
}

/// End-to-end metrics over the timed repetitions, as the host clock read
/// them: `run_s` is the median timed run, and `msgs_per_s` and
/// `host_ms_per_mcycle` are that run time set against the simulated work
/// every run did; `setup_s` is the median set-up sample. `peak_rss_kb` is
/// the median high-water mark of processes that made one run each. The
/// second value holds each host timing's median and spread over its
/// samples.
fn end_to_end(
    reps: &[Rep],
    setup_ns: &[f64],
    peak_rss_kb: Option<f64>,
    ok_pct: f64,
) -> (Vec<(&'static str, Json)>, Json) {
    let setup_s: Vec<f64> = setup_ns.iter().map(|ns| ns / 1e9).collect();
    let run_s: Vec<f64> = reps.iter().map(|r| r.run_ns as f64 / 1e9).collect();
    let first = &reps[0].report;
    let median_run_s = median_run_ns(reps) as f64 / 1e9;
    let mcycles = first.end_time as f64 / 1e6;
    let rss_mb = peak_rss_kb.map(|kb| kb / 1024.0);
    let mut metrics = vec![
        ("setup_s", metric(median_of(setup_s.iter().copied()), "s")),
        ("run_s", metric(median_run_s, "s")),
        (
            "msgs_per_s",
            metric(delivered(first) as f64 / median_run_s, "1/s"),
        ),
        (
            "host_ms_per_mcycle",
            metric(median_run_s * 1e3 / mcycles, "ms/Mcycle"),
        ),
    ];
    if let Some(mb) = rss_mb {
        metrics.push(("peak_rss_mb", metric(mb, "MB")));
    }
    metrics.extend([
        ("sim_mcycles", metric(mcycles, "Mcycle")),
        ("fast_pct", metric(fast_pct(first), "%")),
        ("ok_pct", metric(ok_pct, "%")),
    ]);
    let samples = [("setup_s", &setup_s), ("run_s", &run_s)];
    let summary = |f: fn(&[f64]) -> Option<f64>| {
        Json::object(samples.map(|(name, v)| (name, Json::from(f(v).unwrap_or(f64::NAN)))))
    };
    let timings = Json::object([
        ("median", summary(stats::median)),
        ("spread", summary(stats::spread)),
    ]);
    (metrics, timings)
}

/// Per-layer metrics: counts from the traced run and the timed
/// repetitions, unit costs from the layer benchmarks, and the ledger.
/// `traced_run_ns` is the median `run()` time over every traced run.
fn per_layer(
    w: Workload,
    reps: &[Rep],
    traced: &Traced,
    traced_run_ns: f64,
) -> (Vec<(&'static str, Json)>, Json) {
    let c = &traced.counts;
    let report = &traced.report;
    let run_ns = median_run_ns(reps);
    let untraced_ns = run_ns as f64;
    let run_s = run_ns as f64 / 1e9;
    let msgs = delivered(report).max(1) as f64;
    let switches = median_of(reps.iter().filter_map(|r| r.switches.map(|s| s as f64)));
    let switches = if switches.is_nan() {
        0
    } else {
        switches.round() as u64
    };
    let events = report.events_processed;
    let payload_words = (c.launch_words as f64 / c.launches.max(1) as f64).round() as usize;

    let round_trip_ns = micro::coro_round_trip_ns();
    let spawn_ns = micro::coro_spawn_ns(w.sim_threads());
    let event_op_ns = micro::event_op_ns();
    let event_cancel_ns = micro::event_cancel_ns();
    let inject_deliver_ns = micro::net_inject_deliver_ns(payload_words);
    let describe_launch_ns = micro::nic_describe_launch_ns(payload_words);
    let enqueue_dispose_ns = micro::nic_enqueue_dispose_ns(payload_words);
    let insert_pop_ns = micro::vbuf_insert_pop_ns(payload_words);
    let check_ns = micro::overflow_check_ns();
    let emit_off_ns = micro::trace_emit_off_ns();
    let emit_sub_ns = micro::trace_emit_sub_ns();
    let invariant_ns = micro::invariant_ns_per_event(&traced.records);
    let span_ns = micro::span_ns_per_event(&traced.records);

    let mut ledger = Ledger::new(run_ns);
    ledger.charge("coro", switches, round_trip_ns);
    ledger.charge("event", events, event_op_ns);
    ledger.charge("nic", c.launches, describe_launch_ns + inject_deliver_ns);
    ledger.charge("nic", c.arrivals, enqueue_dispose_ns);
    ledger.charge("glaze", c.buffer_inserts, insert_pop_ns + check_ns);
    // Only barrier_oracle runs its timed repetitions with oracles attached.
    let oracle_events = if w == Workload::BarrierOracle {
        c.events
    } else {
        0
    };
    ledger.charge("oracle", oracle_events, invariant_ns + span_ns);
    let est = |layer: &str| metric(ledger.estimate_ns(layer) as f64 / 1e9, "s");
    let unattributed_ns = ledger.unattributed_ns() as f64;

    let count = |n: u64| metric(n as f64, "count");
    let metrics = vec![
        ("coro.switches", count(switches)),
        (
            "coro.switches_per_msg",
            metric(switches as f64 / msgs, "count/msg"),
        ),
        ("coro.round_trip_us", metric(round_trip_ns / 1e3, "us")),
        ("coro.spawn_us", metric(spawn_ns / 1e3, "us")),
        ("coro.threads", count(w.sim_threads() as u64)),
        ("coro.est_s", est("coro")),
        ("event.count", count(events)),
        ("event.per_msg", metric(events as f64 / msgs, "count/msg")),
        ("events_per_s", metric(events as f64 / run_s, "1/s")),
        ("event.op_ns", metric(event_op_ns, "ns")),
        ("event.cancel_ns", metric(event_cancel_ns, "ns")),
        ("event.est_s", est("event")),
        ("net.msgs", count(c.launches)),
        ("net.inject_deliver_ns", metric(inject_deliver_ns, "ns")),
        ("nic.fast", count(c.fast)),
        (
            "nic.fast_pct",
            metric(100.0 * c.fast as f64 / c.arrivals.max(1) as f64, "%"),
        ),
        ("nic.enqueue_dispose_ns", metric(enqueue_dispose_ns, "ns")),
        ("nic.describe_launch_ns", metric(describe_launch_ns, "ns")),
        ("nic.est_s", est("nic")),
        ("vbuf.inserts", count(c.buffer_inserts)),
        ("vbuf.insert_pop_ns", metric(insert_pop_ns, "ns")),
        ("vm.page_allocs", count(c.page_allocs)),
        ("vm.peak_frames", count(report.peak_buffer_pages())),
        ("sched.quantum_switches", count(c.quantum_switches)),
        ("overflow.advises", count(c.overflow_advises)),
        ("overflow.check_ns", metric(check_ns, "ns")),
        ("glaze.est_s", est("glaze")),
        ("trace.events", count(c.events)),
        ("trace.emit_off_ns", metric(emit_off_ns, "ns")),
        ("trace.emit_sub_ns", metric(emit_sub_ns, "ns")),
        (
            "trace.overhead_pct",
            metric(100.0 * (traced_run_ns - untraced_ns) / untraced_ns, "%"),
        ),
        ("oracle.invariant_ns_per_event", metric(invariant_ns, "ns")),
        ("oracle.span_ns_per_event", metric(span_ns, "ns")),
        ("oracle.est_s", est("oracle")),
        ("machine.unattributed_s", metric(unattributed_ns / 1e9, "s")),
        (
            "machine.unattributed_pct",
            metric(100.0 * unattributed_ns / run_ns as f64, "%"),
        ),
    ];
    let ledger_json = Json::object(
        ledger
            .entries()
            .iter()
            .map(|&(layer, ns)| (layer, Json::from(ns)))
            .chain([
                ("unattributed", Json::from(ledger.unattributed_ns())),
                ("run", Json::from(ledger.run_ns())),
            ]),
    );
    (metrics, ledger_json)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Before any thread exists, so every sim-thread inherits the mask.
    let pinned = host::pin_to_one_cpu();
    let w = args.workload;
    if args.peak_rss {
        let instance = w.build(args.seed, None);
        return match run_caught(instance.machine).ok().and(host::peak_rss_kb()) {
            Some(kb) => {
                println!("{kb}");
                ExitCode::SUCCESS
            }
            None => ExitCode::FAILURE,
        };
    }
    let mut out = Outcome::default();

    // Correctness gate at the two committed seeds, which also warms up.
    for seed in [DEFAULT_SEED, HELDOUT_SEED] {
        let traced = traced_run(w, seed).and_then(|t| out.check_digest(w, seed, &t.report));
        out.attempt(&format!("gate seed {seed}"), traced);
    }

    // Set-up alone: the mean of a batch of builds, each dropped untimed
    // (which joins its parked threads). Single builds spread by more than
    // half their median within one invocation, and their median moved by
    // a quarter between invocations; batch means are far steadier.
    let setup_sample = || {
        let mut ns = 0;
        for _ in 0..SETUP_BATCH {
            let start = Instant::now();
            let instance = w.build(args.seed, None);
            ns += nanos(start.elapsed());
            drop(instance);
        }
        ns as f64 / SETUP_BATCH as f64
    };
    let mut setup_ns = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut reps = Vec::new();
    let mut timed_attempts = 0;
    while Instant::now() < deadline || (reps.len() < MIN_REPS && timed_attempts < 2 * MIN_REPS) {
        timed_attempts += 1;
        let rep = timed_rep(w, args.seed)
            .and_then(|r| out.check_digest(w, args.seed, &r.report).map(|()| r));
        if let Some(rep) = out.attempt("timed run", rep) {
            reps.push(rep);
        }
        if setup_ns.len() < SETUP_SAMPLES {
            setup_ns.push(setup_sample());
        }
    }
    let peak_rss_kb = if args.trace {
        None
    } else {
        let kb: Option<Vec<f64>> = (0..PEAK_RSS_PROBES)
            .map(|_| peak_rss_of_one_run(w, args.seed).map(|kb| kb as f64))
            .collect();
        kb.and_then(|kb| stats::median(&kb))
    };

    let mut context = vec![
        ("workload", Json::from(w.name())),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.trace)),
        ("host", host_fingerprint(args.seed, nproc)),
        ("pinned_cpu", pinned.map_or(Json::Null, Json::from)),
        ("timed_runs", Json::from(reps.len())),
        ("setup_samples", Json::from(setup_ns.len())),
        (
            "run_ns",
            Json::array(reps.iter().map(|r| Json::from(r.run_ns))),
        ),
        (
            "reference_round_trip_ns",
            Json::from(host::reference_round_trip_ns()),
        ),
    ];
    let mut metrics = Vec::new();
    if !reps.is_empty() {
        if args.trace {
            // The first traced run feeds the ledger; the median over all of
            // them sets `trace.overhead_pct`.
            let mut first = None;
            let mut traced_ns = Vec::new();
            for _ in 0..TRACED_REPS {
                let traced = traced_run(w, args.seed)
                    .and_then(|t| out.check_digest(w, args.seed, &t.report).map(|()| t));
                if let Some(traced) = out.attempt("traced run", traced) {
                    traced_ns.push(traced.run_ns as f64);
                    first.get_or_insert(traced);
                }
            }
            if let Some(traced) = first {
                context.push(("traced_runs", Json::from(traced_ns.len())));
                let (m, ledger) = per_layer(w, &reps, &traced, median_of(traced_ns));
                metrics = m;
                context.push(("ledger_ns", ledger));
            }
        } else {
            let ok = out.attempted - out.failures.len() as u64;
            let ok_pct = 100.0 * ok as f64 / out.attempted as f64;
            let (m, timings) = end_to_end(&reps, &setup_ns, peak_rss_kb, ok_pct);
            metrics = m;
            context.push(("timings", timings));
        }
    }
    let failed = out.failures.len() as u64;
    context.push((
        "digests",
        Json::object(out.digests.into_iter().map(|(k, d)| (k, Json::from(d)))),
    ));
    context.push((
        "failures",
        Json::array(out.failures.iter().map(|f| Json::from(f.as_str()))),
    ));
    println!(
        "{}",
        Json::object([("context", Json::object(context))]).render()
    );
    let result = Json::object([
        ("correct", Json::from(failed == 0 && !metrics.is_empty())),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::object(metrics)),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
