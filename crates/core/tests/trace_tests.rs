//! Observability contract of the simulated machine: identical
//! configurations produce identical trace streams, subscribers see the
//! same events the recorder does, and the run report's JSON stays pinned.

use std::sync::{Arc, Mutex};

use fugu_apps::{NullApp, SynthApp, SynthParams};
use fugu_sim::fault::FaultPlan;
use fugu_sim::json::Json;
use fugu_sim::span::{DeliveryPath, Profiler};
use fugu_sim::trace::{CategoryMask, TraceEvent, TraceRecord, Tracer};
use fugu_sim::trace_export::chrome_trace;
use udm::{Envelope, JobSpec, Machine, MachineConfig, Program, RunReport, UserCtx};

/// Every node streams bursts at its ring neighbour with a slow handler, so
/// receivers fall behind and some messages take the buffered path.
struct Chatter;
impl Program for Chatter {
    fn main(&self, ctx: &mut UserCtx<'_>) {
        let peer = (ctx.node() + 1) % ctx.nodes();
        for burst in 0..8 {
            for _ in 0..25 {
                ctx.send(peer, 0, &[burst, 1, 2]);
                ctx.compute(250);
            }
            ctx.compute(10_000);
        }
    }
    fn handler(&self, ctx: &mut UserCtx<'_>, _env: &Envelope) {
        ctx.compute(400);
    }
}

/// Background filler so the gang scheduler has something to switch to.
struct Idler;
impl Program for Idler {
    fn main(&self, ctx: &mut UserCtx<'_>) {
        loop {
            ctx.compute(10_000);
        }
    }
    fn handler(&self, _ctx: &mut UserCtx<'_>, _env: &Envelope) {}
}

/// A machine busy enough to exercise both delivery cases: chatter against
/// an idle background job on a skewed schedule.
fn busy_machine(tracer: Tracer) -> Machine {
    let mut m = Machine::new(MachineConfig {
        nodes: 4,
        skew: 0.05,
        seed: 7,
        ..Default::default()
    });
    m.set_tracer(tracer);
    m.add_job(JobSpec::new("chatter", Arc::new(Chatter)));
    m.add_job(JobSpec::new("idler", Arc::new(Idler)).background());
    m
}

fn traced_run(mask: CategoryMask) -> (RunReport, Vec<TraceRecord>) {
    let tracer = Tracer::recorder(usize::MAX, mask);
    let m = busy_machine(tracer.clone());
    let report = m.run();
    (report, tracer.take_records())
}

#[test]
fn identical_seeds_produce_identical_trace_streams() {
    let (r1, t1) = traced_run(CategoryMask::ALL);
    let (r2, t2) = traced_run(CategoryMask::ALL);
    assert!(!t1.is_empty(), "a busy run must emit events");
    assert_eq!(t1.len(), t2.len());
    assert_eq!(t1, t2, "trace streams diverged between identical runs");
    assert_eq!(r1.end_time, r2.end_time);
}

#[test]
fn trace_stream_covers_both_delivery_cases() {
    let (report, records) = traced_run(CategoryMask::ALL);
    let has = |f: &dyn Fn(&TraceEvent) -> bool| records.iter().any(|r| f(&r.event));
    assert!(has(&|e| matches!(e, TraceEvent::MsgLaunch { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::MsgArrive { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::QuantumSwitch { .. })));
    // The skewed schedule forces some messages through the second case.
    let chatter = report.job("chatter");
    assert!(chatter.delivered_buffered > 0, "workload should buffer");
    assert!(has(&|e| matches!(e, TraceEvent::BufferInsert { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::ModeEnter { .. })));
    // Timestamps are monotonically nondecreasing (the event loop stamps
    // the tracer clock from the queue).
    assert!(records.windows(2).all(|w| w[0].at <= w[1].at));
}

#[test]
fn trace_counts_match_report_counters() {
    let (report, records) = traced_run(CategoryMask::ALL);
    let count =
        |f: &dyn Fn(&TraceEvent) -> bool| records.iter().filter(|r| f(&r.event)).count() as u64;
    let sent: u64 = report.jobs.iter().map(|j| j.sent).sum();
    let buffered: u64 = report.jobs.iter().map(|j| j.delivered_buffered).sum();
    let fast: u64 = report.jobs.iter().map(|j| j.delivered_fast).sum();
    assert_eq!(count(&|e| matches!(e, TraceEvent::MsgLaunch { .. })), sent);
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::BufferInsert { .. })),
        buffered
    );
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::FastUpcall { .. }))
            + count(&|e| matches!(e, TraceEvent::PollDelivery { .. })),
        fast
    );
}

#[test]
fn category_mask_filters_recording() {
    let (_, records) = traced_run(CategoryMask::SCHED);
    assert!(!records.is_empty());
    assert!(records
        .iter()
        .all(|r| matches!(r.event, TraceEvent::QuantumSwitch { .. })));
}

#[test]
fn subscriber_sees_the_same_events_as_the_recorder() {
    let tracer = Tracer::recorder(usize::MAX, CategoryMask::MSG);
    let seen = Arc::new(Mutex::new(Vec::new()));
    {
        let seen = Arc::clone(&seen);
        tracer.subscribe(CategoryMask::MSG, move |at, event| {
            seen.lock().unwrap().push(TraceRecord {
                at,
                event: event.clone(),
            });
        });
    }
    let m = busy_machine(tracer.clone());
    m.run();
    let recorded = tracer.take_records();
    assert_eq!(*seen.lock().unwrap(), recorded);
}

#[test]
fn profiler_stitches_every_delivered_message_on_a_fault_free_run() {
    let tracer = Tracer::disabled();
    let profiler = Profiler::new();
    profiler.attach(&tracer);
    let m = busy_machine(tracer);
    let report = m.run();
    let profile = profiler.finish();
    profile.assert_clean();

    // Fault-free run: every delivered message stitches into a complete,
    // internally consistent span.
    assert!(profile.delivered > 0, "workload must deliver messages");
    assert_eq!(profile.stitched, profile.delivered);
    assert_eq!(profile.stitch_rate(), 1.0);
    assert_eq!(profile.anomalies, 0);

    // The profiler's per-path counts agree with the machine's own report
    // counters (poll extractions never run a handler yet still stitch as
    // fast-path deliveries, so compare against the summed counters).
    let fast: u64 = report.jobs.iter().map(|j| j.delivered_fast).sum();
    let buffered: u64 = report.jobs.iter().map(|j| j.delivered_buffered).sum();
    assert_eq!(profile.fast.count, fast);
    assert_eq!(profile.buffered.count, buffered);
    assert!(profile.buffered.count > 0, "workload should buffer");
    assert_eq!(profile.launched, profile.delivered + profile.in_flight);

    // Attribution partitions end-to-end latency exactly (±0) on every span.
    for span in &profile.spans {
        let Some(attr) = span.attribution() else {
            continue;
        };
        let end = span.end().unwrap();
        assert_eq!(
            attr.total(),
            end - span.launch,
            "attribution must sum to end-to-end latency for uid {}",
            span.uid
        );
        match span.path {
            Some(DeliveryPath::Fast) => assert_eq!(attr.sched + attr.vbuf, 0),
            Some(DeliveryPath::Buffered) => assert!(span.insert.is_some()),
            None => unreachable!("attributed spans carry a path"),
        }
    }

    // The Perfetto export of the real span set is valid, parseable JSON.
    let doc = chrome_trace(&profile.spans, 4);
    let rendered = doc.render();
    let parsed = Json::parse(&rendered).expect("chrome trace is valid JSON");
    assert_eq!(parsed.render(), rendered);
}

#[test]
fn run_report_json_is_schema_versioned_and_deterministic() {
    let run = || {
        let m = busy_machine(Tracer::disabled());
        m.run().to_json().render_pretty()
    };
    let a = run();
    assert_eq!(a, run(), "report JSON must be reproducible");
    assert!(a.contains("\"schema\": \"fugu-run-report/v1\""));
    assert!(a.contains("\"metrics\""));
    assert!(a.contains("\"job.chatter.sent\""));
}

/// A 12-node synth run under an active, loss-free fault plan, against a
/// background job: the report carries `faults.*` totals and node indices
/// past 9, which the fault-free 8-node benchmark goldens never reach.
fn faulty_twelve_node_report() -> RunReport {
    let mut m = Machine::new(MachineConfig {
        nodes: 12,
        skew: 0.05,
        seed: 11,
        faults: FaultPlan::parse("dup=0.05,delay=0.05").unwrap(),
        ..Default::default()
    });
    m.set_tracer(Tracer::disabled());
    m.add_job(SynthApp::spec(
        12,
        SynthParams {
            group: 10,
            groups: 4,
            ..Default::default()
        },
    ));
    m.add_job(NullApp::spec());
    m.run()
}

/// 64-bit FNV-1a, the digest the benchmark's golden reports use.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn run_report_json_is_pinned_under_faults_and_past_node_nine() {
    let text = faulty_twelve_node_report().to_json().render();
    // What the digest covers: fault totals, and keys sorted as strings so
    // that `node10` precedes `node2`.
    assert!(text.contains("\"faults.duplicated\":"));
    assert!(text.contains("\"faults.delayed\":"));
    let pos = |key: &str| text.find(key).unwrap_or_else(|| panic!("{key} missing"));
    assert!(pos("\"node10.peak_frames\"") < pos("\"node2.peak_frames\""));
    assert!(pos("\"faults.second_net_delays\"") < pos("\"job.null.atomicity_timeouts\""));
    assert_eq!(
        format!("{:016x}", fnv1a64(text.as_bytes())),
        "decd95fddf0a7a12",
        "RunReport::to_json changed: {text}"
    );
}
