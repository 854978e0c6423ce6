//! Oracle mutation tests: the delivery-invariant checker and the span
//! profiler must pass a trace recorded from a real run, and must fail in
//! exactly the expected way once one event of that trace is dropped,
//! duplicated, reordered or retimed.
//!
//! Three small runs are recorded once per test binary: `barrier` against
//! `null` at 10% skew (dense fast-path traffic), `lu` against `null` at 30%
//! skew (buffered traffic: inserts, extracts, mode flips and page
//! allocations) and `barrier` under a drop/duplicate fault plan (the
//! `FaultDrop` and `FaultDuplicate` events). Each test corrupts a copy of a
//! recorded trace and replays it through `Tracer::emit` into fresh oracles.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use fugu_apps::{BarrierApp, BarrierParams, LuApp, LuParams, NullApp};
use fugu_sim::fault::FaultPlan;
use fugu_sim::span::{ProfileReport, Profiler};
use fugu_sim::trace::{CategoryMask, TraceEvent, TraceRecord, Tracer};
use udm::{CostModel, InvariantChecker, JobSpec, Machine, MachineConfig, Program};

const NODES: usize = 4;

/// The multiprogramming cost model of the Fig. 7/8 experiments.
fn multiprogram_costs() -> CostModel {
    CostModel {
        timeslice: 50_000,
        context_switch: 250,
        ..CostModel::hard_atomicity()
    }
}

/// Runs `job` against the background `null` job and returns the full trace.
fn record(job: JobSpec, skew: f64, faults: FaultPlan) -> Vec<TraceRecord> {
    let mut m = Machine::new(MachineConfig {
        nodes: NODES,
        skew,
        seed: 0xF00D,
        costs: multiprogram_costs(),
        faults,
        ..Default::default()
    });
    let tracer = Tracer::recorder(usize::MAX, CategoryMask::ALL);
    m.set_tracer(tracer.clone());
    m.add_job(job);
    m.add_job(NullApp::spec());
    m.run();
    assert_eq!(tracer.dropped(), 0);
    tracer.take_records()
}

fn barrier_job() -> JobSpec {
    BarrierApp::spec(
        NODES,
        BarrierParams {
            barriers: 60,
            work: 0,
        },
    )
}

/// `barrier` vs `null` at 10% skew: almost every message takes the fast path.
fn barrier_trace() -> &'static [TraceRecord] {
    static TRACE: OnceLock<Vec<TraceRecord>> = OnceLock::new();
    TRACE.get_or_init(|| record(barrier_job(), 0.1, FaultPlan::default()))
}

/// `lu` vs `null` at 30% skew: enough skew that messages get buffered.
fn lu_trace() -> &'static [TraceRecord] {
    static TRACE: OnceLock<Vec<TraceRecord>> = OnceLock::new();
    TRACE.get_or_init(|| {
        let params = LuParams {
            n: 48,
            block: 12,
            flop_cost: 32,
        };
        let job = JobSpec::new("lu", LuApp::spec(NODES, params) as Arc<dyn Program>);
        record(job, 0.3, FaultPlan::default())
    })
}

/// `barrier` vs `null` with the network dropping and duplicating messages.
fn faulty_trace() -> &'static [TraceRecord] {
    static TRACE: OnceLock<Vec<TraceRecord>> = OnceLock::new();
    TRACE.get_or_init(|| {
        let faults = FaultPlan {
            drop: 0.02,
            duplicate: 0.02,
            ..FaultPlan::default()
        };
        record(barrier_job(), 0.1, faults)
    })
}

/// What both oracles made of one replayed trace.
struct Verdict {
    kinds: Vec<&'static str>,
    undelivered: u64,
    profile: ProfileReport,
}

fn replay_bounded(records: &[TraceRecord], page_bound: Option<u64>) -> Verdict {
    let tracer = Tracer::disabled();
    let checker = match page_bound {
        Some(bound) => InvariantChecker::new().with_page_bound(bound),
        None => InvariantChecker::new(),
    };
    checker.attach(&tracer);
    let profiler = Profiler::new();
    profiler.attach(&tracer);
    for r in records {
        tracer.set_time(r.at);
        tracer.emit(r.event.clone());
    }
    Verdict {
        kinds: checker.violations().iter().map(|v| v.kind).collect(),
        undelivered: checker.undelivered(),
        profile: profiler.finish(),
    }
}

fn replay(records: &[TraceRecord]) -> Verdict {
    replay_bounded(records, None)
}

/// Asserts the profiler saw nothing wrong with the stream.
fn assert_profile_clean(v: &Verdict) {
    v.profile.assert_clean();
    assert_eq!(v.profile.anomalies, 0);
    assert_eq!(v.profile.stitch_rate(), 1.0);
}

fn uid_of(ev: &TraceEvent) -> Option<u64> {
    match *ev {
        TraceEvent::MsgLaunch { uid, .. }
        | TraceEvent::MsgArrive { uid, .. }
        | TraceEvent::FastUpcall { uid, .. }
        | TraceEvent::PollDelivery { uid, .. }
        | TraceEvent::BufferInsert { uid, .. }
        | TraceEvent::BufferExtract { uid, .. }
        | TraceEvent::HandlerDone { uid, .. }
        | TraceEvent::FaultDrop { uid, .. }
        | TraceEvent::FaultDuplicate { uid, .. } => Some(uid),
        _ => None,
    }
}

/// Index of the first record matching `pred`.
fn find(records: &[TraceRecord], pred: impl Fn(&TraceEvent) -> bool) -> usize {
    records
        .iter()
        .position(|r| pred(&r.event))
        .expect("the recorded trace holds a matching event")
}

/// Index of the `MsgLaunch` stamping `uid`.
fn launch_of(records: &[TraceRecord], uid: u64) -> usize {
    find(
        records,
        |e| matches!(*e, TraceEvent::MsgLaunch { uid: u, .. } if u == uid),
    )
}

/// Index of the first fast upcall, and its uid.
fn first_upcall(records: &[TraceRecord]) -> (usize, u64) {
    let i = find(records, |e| matches!(e, TraceEvent::FastUpcall { .. }));
    (i, uid_of(&records[i].event).unwrap())
}

/// Messages inserted but not yet extracted per (node, job) after each record.
fn buffered_after(records: &[TraceRecord]) -> Vec<HashMap<(usize, usize), i64>> {
    let mut depth: HashMap<(usize, usize), i64> = HashMap::new();
    records
        .iter()
        .map(|r| {
            match r.event {
                TraceEvent::BufferInsert { node, job, .. } => {
                    *depth.entry((node, job)).or_default() += 1
                }
                TraceEvent::BufferExtract { node, job, .. } => {
                    *depth.entry((node, job)).or_default() -= 1
                }
                _ => {}
            }
            depth.clone()
        })
        .collect()
}

#[test]
fn recorded_traces_exercise_both_cases_and_faults() {
    let count = |records: &[TraceRecord], pred: fn(&TraceEvent) -> bool| {
        records.iter().filter(|r| pred(&r.event)).count()
    };
    assert!(
        count(barrier_trace(), |e| matches!(
            e,
            TraceEvent::FastUpcall { .. }
        )) > 100
    );
    let lu = lu_trace();
    assert!(count(lu, |e| matches!(e, TraceEvent::BufferInsert { .. })) > 0);
    assert!(count(lu, |e| matches!(e, TraceEvent::ModeExit { .. })) > 0);
    assert!(count(lu, |e| matches!(e, TraceEvent::PageAlloc { .. })) > 0);
    let faulty = faulty_trace();
    assert!(count(faulty, |e| matches!(e, TraceEvent::FaultDrop { .. })) > 0);
    assert!(count(faulty, |e| matches!(e, TraceEvent::FaultDuplicate { .. })) > 0);
}

#[test]
fn clean_traces_replay_without_violations() {
    for records in [barrier_trace(), lu_trace()] {
        let v = replay(records);
        assert_eq!(v.kinds, Vec::<&str>::new());
        assert_eq!(v.undelivered, 0);
        assert_profile_clean(&v);
        assert!(v.profile.stitched > 0);
    }
    // Under faults the checker stays clean; the profiler flags duplicate
    // copies as anomalies rather than errors.
    let v = replay(faulty_trace());
    assert_eq!(v.kinds, Vec::<&str>::new());
    v.profile.assert_clean();
}

#[test]
fn dropped_launch_is_an_unknown_delivery_and_a_span_orphan() {
    let mut records = barrier_trace().to_vec();
    let (_, uid) = first_upcall(&records);
    records.remove(launch_of(&records, uid));
    let v = replay(&records);
    assert_eq!(v.kinds, ["unknown-delivery"]);
    let orphans = format!("uid {uid} ");
    assert!(!v.profile.errors.is_empty());
    assert!(v
        .profile
        .errors
        .iter()
        .all(|e| e.contains(&orphans) && e.contains("without a launch")));
}

#[test]
fn duplicated_launch_is_a_uid_reuse() {
    let mut records = barrier_trace().to_vec();
    let (_, uid) = first_upcall(&records);
    let i = launch_of(&records, uid);
    records.insert(i + 1, records[i].clone());
    let v = replay(&records);
    assert_eq!(v.kinds, ["uid-reuse"]);
    assert_eq!(v.undelivered, 0);
    v.profile.assert_clean();
    assert_eq!(v.profile.anomalies, 1);
}

#[test]
fn duplicated_delivery_is_an_over_delivery_and_a_span_anomaly() {
    let mut records = barrier_trace().to_vec();
    let (i, _) = first_upcall(&records);
    records.insert(i + 1, records[i].clone());
    let v = replay(&records);
    assert_eq!(v.kinds, ["over-delivery"]);
    v.profile.assert_clean();
    assert_eq!(v.profile.anomalies, 1);
    assert!(v.profile.stitch_rate() < 1.0);
}

#[test]
fn swapped_deliveries_on_one_channel_break_fifo() {
    let records = lu_trace();
    let mut channel_of = HashMap::new();
    let mut launched = HashMap::new();
    let mut last_delivery: HashMap<(usize, usize, usize), (usize, u64)> = HashMap::new();
    // Find fast deliveries d1 (uid a) then d2 (uid b) on one channel where
    // b was launched before d1: moving d2 ahead of d1 reverses the
    // channel's delivery order but leaves every span's timestamps intact.
    let mut pick = None;
    for (i, r) in records.iter().enumerate() {
        match r.event {
            TraceEvent::MsgLaunch {
                node,
                job,
                dst,
                uid,
                ..
            } => {
                channel_of.insert(uid, (node, dst, job));
                launched.insert(uid, i);
            }
            TraceEvent::FastUpcall { uid, .. } | TraceEvent::PollDelivery { uid, .. } => {
                let chan = channel_of[&uid];
                if let Some(&(d1, a)) = last_delivery.get(&chan) {
                    if a < uid && launched[&uid] < d1 {
                        pick = Some((d1, i));
                        break;
                    }
                }
                last_delivery.insert(chan, (i, uid));
            }
            _ => {}
        }
    }
    let (d1, d2) = pick.expect("two overlapping deliveries on one channel");
    let mut records = records.to_vec();
    let moved = records.remove(d2);
    records.insert(d1, moved);
    let v = replay(&records);
    assert_eq!(v.kinds, ["fifo-order"]);
    assert_profile_clean(&v);
}

#[test]
fn duplicated_buffer_insert_is_an_over_buffering() {
    let mut records = lu_trace().to_vec();
    let i = find(&records, |e| matches!(e, TraceEvent::BufferInsert { .. }));
    records.insert(i + 1, records[i].clone());
    let v = replay(&records);
    assert_eq!(v.kinds.first(), Some(&"over-buffering"));
    // The phantom copy is never extracted, so its buffer can no longer
    // drain: every later exit from buffered mode on that process is
    // flagged too.
    assert!(v.kinds[1..].iter().all(|&k| k == "mode-exit-residual"));
    assert!(v.kinds.len() > 1);
    v.profile.assert_clean();
    assert_eq!(v.profile.anomalies, 1);
}

#[test]
fn dropped_extract_before_mode_exit_is_a_residual() {
    let records = lu_trace();
    let exit = find(records, |e| matches!(e, TraceEvent::ModeExit { .. }));
    let TraceEvent::ModeExit { node, job } = records[exit].event else {
        unreachable!()
    };
    let extract = records[..exit]
        .iter()
        .rposition(|r| {
            matches!(r.event, TraceEvent::BufferExtract { node: n, job: j, .. }
                if n == node && j == job)
        })
        .expect("buffered mode drained by an extract");
    let mut records = records.to_vec();
    records.remove(extract);
    let v = replay(&records);
    assert!(!v.kinds.is_empty());
    assert!(v.kinds.iter().all(|&k| k == "mode-exit-residual"));
    assert_eq!(v.undelivered, 1);
    // The handler retires a message that was never delivered.
    v.profile.assert_clean();
    assert_eq!(v.profile.anomalies, 1);
}

#[test]
fn extract_from_an_empty_buffer_underflows() {
    let records = lu_trace();
    let depth = buffered_after(records);
    // Repeat an extract that just emptied its process's buffer.
    let i = records
        .iter()
        .enumerate()
        .position(|(i, r)| match r.event {
            TraceEvent::BufferExtract { node, job, .. } => depth[i][&(node, job)] == 0,
            _ => false,
        })
        .expect("a buffer drains");
    let mut records = records.to_vec();
    records.insert(i + 1, records[i].clone());
    let v = replay(&records);
    // The phantom extract also delivers its message a second time.
    assert_eq!(v.kinds, ["extract-underflow", "over-delivery"]);
    v.profile.assert_clean();
    assert_eq!(v.profile.anomalies, 1);
}

#[test]
fn fault_drop_of_a_delivered_message_is_flagged() {
    let mut records = barrier_trace().to_vec();
    let (_, uid) = first_upcall(&records);
    let i = launch_of(&records, uid);
    let TraceEvent::MsgLaunch { node, dst, .. } = records[i].event else {
        unreachable!()
    };
    let fault = TraceRecord {
        at: records[i].at,
        event: TraceEvent::FaultDrop { node, dst, uid },
    };
    records.insert(i + 1, fault);
    let v = replay(&records);
    assert_eq!(v.kinds, ["dropped-delivered"]);
    assert_eq!(v.undelivered, 0);
}

#[test]
fn delivery_at_the_wrong_node_is_misrouted() {
    let mut records = barrier_trace().to_vec();
    let (i, _) = first_upcall(&records);
    if let TraceEvent::FastUpcall { node, .. } = &mut records[i].event {
        *node = (*node + 1) % NODES;
    }
    let v = replay(&records);
    assert_eq!(v.kinds, ["misrouted"]);
}

#[test]
fn repeated_quantum_switches_over_a_nonempty_buffer_stall_the_drain() {
    let records = lu_trace();
    // The first buffered episode: an insert, then the switch into
    // buffered mode it triggers.
    let enter = find(records, |e| matches!(e, TraceEvent::ModeEnter { .. }));
    let TraceEvent::ModeEnter { node, job } = records[enter].event else {
        unreachable!()
    };
    assert!(matches!(
        records[enter - 1].event,
        TraceEvent::BufferInsert { node: n, job: j, .. } if n == node && j == job
    ));
    let running = records[..enter]
        .iter()
        .rev()
        .find_map(|r| match r.event {
            TraceEvent::QuantumSwitch {
                node: n, to_job, ..
            } if n == node => Some(to_job),
            _ => None,
        })
        .expect("the node was scheduled");
    // The buffer's owner ends 64 quanta without extracting anything.
    let switch = TraceRecord {
        at: records[enter].at,
        event: TraceEvent::QuantumSwitch {
            node,
            from_job: Some(job),
            to_job: running,
        },
    };
    let mut records = records.to_vec();
    for _ in 0..64 {
        records.insert(enter + 1, switch.clone());
    }
    let v = replay(&records);
    assert_eq!(v.kinds, ["drain-stalled"]);
    assert_profile_clean(&v);
}

#[test]
fn page_bound_below_the_recorded_peak_is_flagged() {
    let records = lu_trace();
    let peak = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::PageAlloc { in_use, .. } => Some(in_use as u64),
            _ => None,
        })
        .max()
        .expect("the lu run allocates frames");
    assert!(replay_bounded(records, Some(peak)).kinds.is_empty());
    let over = records
        .iter()
        .filter(
            |r| matches!(r.event, TraceEvent::PageAlloc { in_use, .. } if in_use as u64 == peak),
        )
        .count();
    let v = replay_bounded(records, Some(peak - 1));
    assert_eq!(v.kinds, vec!["page-bound"; over]);
}

#[test]
fn dropped_delivery_leaves_one_message_undelivered() {
    let mut records = barrier_trace().to_vec();
    let (i, _) = first_upcall(&records);
    records.remove(i);
    let v = replay(&records);
    assert!(v.kinds.is_empty());
    assert_eq!(v.undelivered, 1);
    v.profile.assert_clean();
    assert_eq!(v.profile.anomalies, 1);
}

#[test]
fn arrival_retimed_before_its_launch_breaks_the_span_chain() {
    let mut records = barrier_trace().to_vec();
    let (_, uid) = first_upcall(&records);
    let launch_at = records[launch_of(&records, uid)].at;
    let arrive = find(
        &records,
        |e| matches!(*e, TraceEvent::MsgArrive { uid: u, .. } if u == uid),
    );
    records[arrive].at = launch_at - 1;
    let v = replay(&records);
    assert!(v.kinds.is_empty());
    assert_eq!(v.profile.errors.len(), 1);
    assert!(v.profile.errors[0].contains(&format!("uid {uid} closed with an inconsistent chain")));
    assert!(v.profile.stitch_rate() < 1.0);
}

#[test]
fn handler_retired_before_its_delivery_breaks_the_span_chain() {
    let mut records = barrier_trace().to_vec();
    let (i, uid) = first_upcall(&records);
    let deliver_at = records[i].at;
    let done = find(
        &records,
        |e| matches!(*e, TraceEvent::HandlerDone { uid: u, .. } if u == uid),
    );
    if let TraceEvent::HandlerDone { end, .. } = &mut records[done].event {
        *end = deliver_at - 1;
    }
    let v = replay(&records);
    assert!(v.kinds.is_empty());
    assert_eq!(v.profile.errors.len(), 1);
    assert!(v.profile.errors[0].contains(&format!("uid {uid} closed with an inconsistent chain")));
    assert!(v.profile.stitch_rate() < 1.0);
}
