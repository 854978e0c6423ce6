//! Differential property test: the trace oracle (`InvariantChecker`, which
//! folds every event into its uid-indexed message ledger) must be
//! observationally identical to a deliberately plain reference model that
//! keys every table by hash map — same violations in the same order, same
//! tally, same undelivered count, same page peak and the same span report
//! (spans, errors and JSON). The streams are seeded and random: uid gaps,
//! repeated and removed launches, reordered and repeated events, declared
//! drops and duplicates, buffer inserts and extracts, and orphans at small
//! uids and at `u64::MAX`.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap};

use fugu_sim::invariant::{InvariantChecker, Violation};
use fugu_sim::ledger::Tally;
use fugu_sim::prop::forall;
use fugu_sim::rng::DetRng;
use fugu_sim::span::{Attribution, DeliveryPath, MessageSpan, PathProfile, ProfileReport};
use fugu_sim::trace::{TraceEvent, Tracer};
use fugu_sim::Cycles;

const DRAIN_STRIKE_LIMIT: u32 = 64;

/// One message's lifecycle in the reference model (the fields of
/// `MessageSpan`, including its private residency watermark).
#[derive(Debug, Clone)]
struct Rec {
    uid: u64,
    src: usize,
    dst: usize,
    src_job: usize,
    dst_job: Option<usize>,
    words: usize,
    launch: Cycles,
    arrive: Option<Cycles>,
    insert: Option<Cycles>,
    deliver: Option<Cycles>,
    done: Option<Cycles>,
    path: Option<DeliveryPath>,
    via_poll: bool,
    swapped: bool,
    sched_wait: Cycles,
    mark: Cycles,
    anomalous: bool,
    dropped: bool,
    duplicated: bool,
    deliveries: u32,
    inserts: u32,
}

impl Rec {
    fn delivered(&self) -> bool {
        self.deliver.is_some()
    }

    fn end(&self) -> Option<Cycles> {
        self.done.or(self.deliver)
    }

    fn account_residency(&mut self, running: Option<usize>, at: Cycles) {
        if self.dst_job.is_some() && self.dst_job != running {
            self.sched_wait += at.saturating_sub(self.mark);
        }
        self.mark = at;
    }

    fn attribution(&self) -> Option<Attribution> {
        if self.anomalous {
            return None;
        }
        let arrive = self.arrive?;
        let deliver = self.deliver?;
        let end = self.end()?;
        let net = arrive.checked_sub(self.launch)?;
        let (nic, sched, vbuf) = match self.path? {
            DeliveryPath::Fast => (deliver.checked_sub(arrive)?, 0, 0),
            DeliveryPath::Buffered => {
                let insert = self.insert?;
                let nic = insert.checked_sub(arrive)?;
                let residency = deliver.checked_sub(insert)?;
                let vbuf = residency.checked_sub(self.sched_wait)?;
                (nic, self.sched_wait, vbuf)
            }
        };
        let handler = end.checked_sub(deliver)?;
        Some(Attribution {
            net,
            nic,
            sched,
            vbuf,
            handler,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Obs {
    Untracked,
    Fresh,
    Repeat,
    Orphan(u64),
}

#[derive(Default)]
struct NodeState {
    running: Option<usize>,
    resident: Vec<(u64, usize)>,
}

/// The reference oracle: the message ledger, the delivery rules and the
/// span checks, with every table a `HashMap`.
#[derive(Default)]
struct Model {
    records: Vec<Rec>,
    index: HashMap<u64, usize>,
    nodes: HashMap<usize, NodeState>,
    extracts: u64,
    last_uid: HashMap<(usize, usize, usize), u64>,
    strikes: HashMap<(usize, usize), u32>,
    page_bound: Option<u64>,
    peak_pages: u64,
    violations: Vec<Violation>,
    span_errors: Vec<String>,
}

impl Model {
    fn get(&self, uid: u64) -> Option<&Rec> {
        self.index.get(&uid).map(|&i| &self.records[i])
    }

    fn is_resident(&self, node: usize, uid: u64) -> bool {
        self.nodes
            .get(&node)
            .is_some_and(|s| s.resident.iter().any(|&(u, _)| u == uid))
    }

    fn buffered(&self, node: usize, job: usize) -> usize {
        self.nodes
            .get(&node)
            .map_or(0, |s| s.resident.iter().filter(|&&(_, j)| j == job).count())
    }

    fn undelivered(&self) -> u64 {
        self.records
            .iter()
            .filter(|s| !s.dropped && !s.delivered())
            .count() as u64
    }

    fn tally(&self) -> Tally {
        let mut tally = Tally {
            launched: self.records.len() as u64,
            ..Tally::default()
        };
        for s in &self.records {
            tally.delivered += u64::from(s.deliveries);
            tally.buffered += u64::from(s.inserts);
        }
        tally.fast = tally.delivered - self.extracts;
        tally
    }

    /// The ledger fold.
    fn observe(&mut self, at: Cycles, event: &TraceEvent) -> Obs {
        let mut running = None;
        let uid = match *event {
            TraceEvent::MsgLaunch {
                node,
                job,
                dst,
                words,
                uid,
            } if !self.index.contains_key(&uid) => {
                self.index.insert(uid, self.records.len());
                self.records.push(Rec {
                    uid,
                    src: node,
                    dst,
                    src_job: job,
                    dst_job: None,
                    words,
                    launch: at,
                    arrive: None,
                    insert: None,
                    deliver: None,
                    done: None,
                    path: None,
                    via_poll: false,
                    swapped: false,
                    sched_wait: 0,
                    mark: at,
                    anomalous: false,
                    dropped: false,
                    duplicated: false,
                    deliveries: 0,
                    inserts: 0,
                });
                return Obs::Fresh;
            }
            TraceEvent::QuantumSwitch { node, to_job, .. } => {
                let state = self.nodes.entry(node).or_default();
                for &(uid, _) in &state.resident {
                    let Some(&i) = self.index.get(&uid) else {
                        continue;
                    };
                    let span = &mut self.records[i];
                    if !span.delivered() {
                        span.account_residency(state.running, at);
                    }
                }
                state.running = to_job;
                return Obs::Untracked;
            }
            TraceEvent::BufferInsert { node, job, uid, .. } => {
                self.nodes
                    .entry(node)
                    .or_default()
                    .resident
                    .push((uid, job));
                uid
            }
            TraceEvent::BufferExtract { node, uid, .. } => {
                let state = self.nodes.entry(node).or_default();
                if let Some(pos) = state.resident.iter().position(|&(u, _)| u == uid) {
                    state.resident.remove(pos);
                }
                running = state.running;
                uid
            }
            TraceEvent::MsgLaunch { uid, .. }
            | TraceEvent::MsgArrive { uid, .. }
            | TraceEvent::FastUpcall { uid, .. }
            | TraceEvent::PollDelivery { uid, .. }
            | TraceEvent::HandlerDone { uid, .. }
            | TraceEvent::FaultDrop { uid, .. }
            | TraceEvent::FaultDuplicate { uid, .. } => uid,
            _ => return Obs::Untracked,
        };
        let Some(&i) = self.index.get(&uid) else {
            return Obs::Orphan(uid);
        };
        let span = &mut self.records[i];
        match *event {
            TraceEvent::FastUpcall { .. } | TraceEvent::PollDelivery { .. } => {
                span.deliveries += 1;
            }
            TraceEvent::BufferExtract { .. } => {
                span.deliveries += 1;
                self.extracts += 1;
            }
            TraceEvent::BufferInsert { .. } => span.inserts += 1,
            _ => {}
        }
        let fresh = match *event {
            TraceEvent::MsgArrive { .. } if span.arrive.is_none() => {
                span.arrive = Some(at);
                true
            }
            TraceEvent::FastUpcall { job, .. } | TraceEvent::PollDelivery { job, .. }
                if !span.delivered() =>
            {
                span.deliver = Some(at);
                span.path = Some(DeliveryPath::Fast);
                span.via_poll = matches!(event, TraceEvent::PollDelivery { .. });
                span.dst_job = Some(job);
                true
            }
            TraceEvent::BufferInsert { job, swapped, .. }
                if span.insert.is_none() && !span.delivered() =>
            {
                span.insert = Some(at);
                span.dst_job = Some(job);
                span.swapped |= swapped;
                span.mark = at;
                true
            }
            TraceEvent::BufferExtract { job, swapped, .. }
                if span.insert.is_some() && !span.delivered() =>
            {
                span.account_residency(running, at);
                span.deliver = Some(at);
                span.path = Some(DeliveryPath::Buffered);
                span.dst_job = Some(job);
                span.swapped |= swapped;
                true
            }
            TraceEvent::HandlerDone { end, .. } if span.delivered() && span.done.is_none() => {
                span.done = Some(end);
                true
            }
            TraceEvent::FaultDrop { .. } => {
                span.dropped = true;
                true
            }
            TraceEvent::FaultDuplicate { .. } => {
                span.duplicated = true;
                true
            }
            _ => false,
        };
        if fresh {
            Obs::Fresh
        } else {
            span.anomalous = true;
            Obs::Repeat
        }
    }

    fn violate(&mut self, at: Cycles, kind: &'static str, detail: String) {
        self.violations.push(Violation { at, kind, detail });
    }

    fn deliver(&mut self, at: Cycles, node: usize, job: usize, uid: u64, how: &str) {
        let Some(rec) = self.get(uid) else {
            self.violate(
                at,
                "unknown-delivery",
                format!("{how} of never-launched uid={uid} at node {node} job {job}"),
            );
            return;
        };
        let (src, dst, ljob) = (rec.src, rec.dst, rec.src_job);
        let allowed = 1 + u32::from(rec.duplicated);
        let (dropped, deliveries) = (rec.dropped, rec.deliveries);
        if dst != node || ljob != job {
            self.violate(
                at,
                "misrouted",
                format!(
                    "uid={uid} launched toward node {dst} job {ljob} but {how} \
                     delivered it at node {node} job {job}"
                ),
            );
            return;
        }
        if dropped {
            self.violate(
                at,
                "dropped-delivered",
                format!("uid={uid} was declared dropped yet {how} delivered it"),
            );
            return;
        }
        if deliveries > allowed {
            self.violate(
                at,
                "over-delivery",
                format!("uid={uid} delivered {deliveries} times (allowed {allowed}) via {how}"),
            );
            return;
        }
        let chan = (src, dst, job);
        let last = self.last_uid.get(&chan).copied().unwrap_or(0);
        if uid < last {
            self.violate(
                at,
                "fifo-order",
                format!("channel {src}->{dst} job {job}: uid={uid} delivered after uid={last}"),
            );
        } else {
            self.last_uid.insert(chan, uid);
        }
    }

    /// The span checks for one event just folded in as `observed`.
    fn check_event(&mut self, observed: Obs, at: Cycles, event: &TraceEvent) {
        match (observed, event) {
            (Obs::Orphan(uid), _) => {
                self.span_errors
                    .push(format!("[{at}] uid {uid} without a launch: {event:?}"));
            }
            (Obs::Fresh, &TraceEvent::MsgArrive { node, uid, .. }) => {
                if let Some(span) = self.get(uid).filter(|s| s.dst != node) {
                    let msg = format!(
                        "[{at}] uid {uid} arrived at node {node}, launched toward {}",
                        span.dst
                    );
                    self.span_errors.push(msg);
                }
            }
            (Obs::Fresh, &TraceEvent::HandlerDone { uid, .. }) => {
                if let Some(&i) = self.index.get(&uid) {
                    check_span(&self.records[i], &mut self.span_errors);
                }
            }
            _ => {}
        }
    }

    fn on_event(&mut self, at: Cycles, ev: &TraceEvent) {
        let underflow = matches!(*ev, TraceEvent::BufferExtract { node, uid, .. }
            if !self.is_resident(node, uid));
        let observed = self.observe(at, ev);
        self.check_event(observed, at, ev);
        match *ev {
            TraceEvent::MsgLaunch { uid, .. } if observed == Obs::Repeat => {
                self.violate(at, "uid-reuse", format!("uid={uid} launched twice"));
            }
            TraceEvent::FastUpcall { node, job, uid, .. } => {
                self.deliver(at, node, job, uid, "fast upcall");
            }
            TraceEvent::PollDelivery { node, job, uid, .. } => {
                self.deliver(at, node, job, uid, "poll delivery");
            }
            TraceEvent::BufferInsert { node, uid, .. } => {
                let Some(rec) = self.get(uid) else {
                    self.violate(
                        at,
                        "unknown-delivery",
                        format!("buffer insert of never-launched uid={uid} at node {node}"),
                    );
                    return;
                };
                let (inserts, dropped) = (rec.inserts, rec.dropped);
                let allowed = 1 + u32::from(rec.duplicated);
                if inserts > allowed {
                    self.violate(
                        at,
                        "over-buffering",
                        format!("uid={uid} buffered {inserts} times (allowed {allowed})"),
                    );
                }
                if dropped {
                    self.violate(
                        at,
                        "dropped-delivered",
                        format!("uid={uid} was declared dropped yet reached a buffer"),
                    );
                }
            }
            TraceEvent::BufferExtract { node, job, uid, .. } => {
                if underflow {
                    self.violate(
                        at,
                        "extract-underflow",
                        format!(
                            "node {node} job {job}: extract of uid={uid}, which is not buffered"
                        ),
                    );
                }
                self.strikes.insert((node, job), 0);
                self.deliver(at, node, job, uid, "buffered extract");
            }
            TraceEvent::ModeEnter { node, job } => {
                self.strikes.insert((node, job), 0);
            }
            TraceEvent::ModeExit { node, job } => {
                let residual = self.buffered(node, job);
                if residual != 0 {
                    self.violate(
                        at,
                        "mode-exit-residual",
                        format!(
                            "node {node} job {job} left buffered mode with {residual} \
                             message(s) still buffered"
                        ),
                    );
                }
                self.strikes.insert((node, job), 0);
            }
            TraceEvent::QuantumSwitch {
                node,
                from_job: Some(job),
                ..
            } => {
                let pending = self.buffered(node, job);
                if pending > 0 {
                    let s = self.strikes.entry((node, job)).or_insert(0);
                    *s += 1;
                    let s = *s;
                    if s == DRAIN_STRIKE_LIMIT {
                        self.violate(
                            at,
                            "drain-stalled",
                            format!(
                                "node {node} job {job}: {pending} buffered message(s) \
                                 untouched for {s} consecutive quanta"
                            ),
                        );
                    }
                }
            }
            TraceEvent::PageAlloc { node, in_use } => {
                self.peak_pages = self.peak_pages.max(in_use as u64);
                if let Some(bound) = self.page_bound {
                    if in_use as u64 > bound {
                        self.violate(
                            at,
                            "page-bound",
                            format!("node {node} reached {in_use} frames (bound {bound})"),
                        );
                    }
                }
            }
            _ => {}
        }
    }

    /// The span report `InvariantChecker::finish` builds, minus `spans`
    /// (which cannot be built outside the crate); returns the sorted
    /// records alongside.
    fn finish(self) -> (ProfileReport, Vec<Rec>) {
        let in_flight = self.undelivered();
        let mut spans = self.records;
        spans.sort_by_key(|s| s.uid);
        let mut report = ProfileReport {
            launched: spans.len() as u64,
            in_flight,
            anomalies: spans.iter().filter(|s| s.anomalous).count() as u64,
            errors: self.span_errors,
            ..ProfileReport::default()
        };
        for span in spans.iter().filter(|s| s.delivered()) {
            if span.done.is_none() {
                check_span(span, &mut report.errors);
            }
            report.delivered += 1;
            let Some(attr) = span.attribution() else {
                continue;
            };
            report.stitched += 1;
            let profile: &mut PathProfile = match span.path {
                Some(DeliveryPath::Fast) => &mut report.fast,
                Some(DeliveryPath::Buffered) => &mut report.buffered,
                None => unreachable!("attribution requires a path"),
            };
            profile.hist.record(attr.total());
            profile.attribution.add(&attr);
        }
        (report, spans)
    }
}

fn check_span(span: &Rec, errors: &mut Vec<String>) {
    if span.anomalous {
        return;
    }
    let (uid, launch) = (span.uid, span.launch);
    let Some(end) = span.end() else {
        return;
    };
    match span.attribution() {
        None => errors.push(format!(
            "[{end}] uid {uid} closed with an inconsistent chain: launch={launch} \
             arrive={:?} insert={:?} deliver={:?} done={:?} sched_wait={}",
            span.arrive, span.insert, span.deliver, span.done, span.sched_wait
        )),
        Some(attr) if attr.total() != end - launch => errors.push(format!(
            "[{end}] uid {uid} attribution {} != end-to-end latency {} \
             (net={} nic={} sched={} vbuf={} handler={})",
            attr.total(),
            end - launch,
            attr.net,
            attr.nic,
            attr.sched,
            attr.vbuf,
            attr.handler
        )),
        Some(_) => {}
    }
}

/// The publicly visible fields of one span, for comparison.
type SpanView = (
    (u64, usize, usize, usize, Option<usize>, usize, Cycles),
    [Option<Cycles>; 4],
    (Option<DeliveryPath>, bool, bool, Cycles, bool, bool, bool),
    (u32, u32, Option<Attribution>),
);

fn view_of_span(s: &MessageSpan) -> SpanView {
    (
        (
            s.uid(),
            s.src(),
            s.dst(),
            s.src_job(),
            s.dst_job(),
            s.words(),
            s.launch(),
        ),
        [s.arrive(), s.insert(), s.deliver(), s.done()],
        (
            s.path(),
            s.via_poll(),
            s.swapped(),
            s.sched_wait(),
            s.anomalous(),
            s.dropped(),
            s.duplicated(),
        ),
        (s.deliveries(), s.inserts(), s.attribution()),
    )
}

fn view_of_rec(s: &Rec) -> SpanView {
    (
        (s.uid, s.src, s.dst, s.src_job, s.dst_job, s.words, s.launch),
        [s.arrive, s.insert, s.deliver, s.done],
        (
            s.path,
            s.via_poll,
            s.swapped,
            s.sched_wait,
            s.anomalous,
            s.dropped,
            s.duplicated,
        ),
        (s.deliveries, s.inserts, s.attribution()),
    )
}

/// A launched message's generator state.
struct Msg {
    uid: u64,
    src: usize,
    dst: usize,
    job: usize,
    /// 0 launched, 1 arrived, 2 delivered or inserted, 3 extracted, 4 done.
    stage: u8,
    buffered: bool,
}

/// A random event stream: mostly well-formed lifecycles, interleaved
/// across messages and nodes, then mutated.
fn gen_stream(rng: &mut DetRng) -> Vec<(Cycles, TraceEvent)> {
    let nodes = 2 + rng.index(3);
    let jobs = 1 + rng.index(2);
    let steps = rng.range_u64(1, 400) as usize;
    let mut msgs: Vec<Msg> = Vec::new();
    let mut out = Vec::new();
    let mut next_uid = 1u64;
    let mut t: Cycles = 0;
    for _ in 0..steps {
        t += rng.range_u64(0, 30);
        let roll = rng.index(100);
        if roll < 22 || msgs.is_empty() {
            // Launch, sometimes after a uid gap.
            if rng.chance(0.1) {
                next_uid += rng.range_u64(1, 60);
            }
            let src = rng.index(nodes);
            let m = Msg {
                uid: next_uid,
                src,
                dst: (src + 1 + rng.index(nodes - 1)) % nodes,
                job: rng.index(jobs),
                stage: 0,
                buffered: rng.chance(0.35),
            };
            next_uid += 1;
            out.push((
                t,
                TraceEvent::MsgLaunch {
                    node: m.src,
                    job: m.job,
                    dst: m.dst,
                    words: 1 + rng.index(8),
                    uid: m.uid,
                },
            ));
            msgs.push(m);
        } else if roll < 72 {
            // Advance one message's lifecycle by a step.
            let k = rng.index(msgs.len());
            let m = &mut msgs[k];
            let (mut node, mut job, uid) = (m.dst, m.job, m.uid);
            if rng.chance(0.03) {
                // Misrouted: the wrong node or job.
                (node, job) = (rng.index(nodes), rng.index(jobs));
            }
            let words = 1;
            let swapped = rng.chance(0.1);
            let ev = match (m.stage, m.buffered) {
                (0, _) => TraceEvent::MsgArrive { node, qlen: 1, uid },
                (1, false) if rng.chance(0.5) => TraceEvent::FastUpcall {
                    node,
                    job,
                    words,
                    uid,
                },
                (1, false) => TraceEvent::PollDelivery {
                    node,
                    job,
                    words,
                    uid,
                },
                (1, true) => TraceEvent::BufferInsert {
                    node,
                    job,
                    words,
                    swapped,
                    uid,
                },
                (2, true) => TraceEvent::BufferExtract {
                    node,
                    job,
                    words,
                    swapped,
                    uid,
                },
                _ => TraceEvent::HandlerDone {
                    node,
                    job,
                    uid,
                    end: t + rng.range_u64(0, 40),
                },
            };
            m.stage = match (m.stage, m.buffered) {
                (1, false) => 3,
                (s, _) => (s + 1).min(4),
            };
            out.push((t, ev));
        } else if roll < 82 {
            let node = rng.index(nodes);
            let from_job = rng.chance(0.8).then(|| rng.index(jobs));
            let to_job = rng.chance(0.8).then(|| rng.index(jobs));
            // Now and then a long run of quanta, to reach the drain
            // strike limit.
            let n = if rng.chance(0.05) { 70 } else { 1 };
            for _ in 0..n {
                out.push((
                    t,
                    TraceEvent::QuantumSwitch {
                        node,
                        from_job,
                        to_job,
                    },
                ));
            }
        } else if roll < 87 {
            let (node, job) = (rng.index(nodes), rng.index(jobs));
            let ev = if rng.chance(0.5) {
                TraceEvent::ModeEnter { node, job }
            } else {
                TraceEvent::ModeExit { node, job }
            };
            out.push((t, ev));
        } else if roll < 91 {
            let m = &msgs[rng.index(msgs.len())];
            let (node, dst, uid) = (m.src, m.dst, m.uid);
            let ev = if rng.chance(0.5) {
                TraceEvent::FaultDrop { node, dst, uid }
            } else {
                TraceEvent::FaultDuplicate { node, dst, uid }
            };
            out.push((t, ev));
        } else if roll < 94 {
            let node = rng.index(nodes);
            out.push((
                t,
                TraceEvent::PageAlloc {
                    node,
                    in_use: rng.index(12),
                },
            ));
        } else {
            // An event for a uid that was never launched (so far): a small
            // one, one past the last, or `u64::MAX`.
            let uid = *rng.pick(&[0, next_uid, next_uid + 3, u64::MAX]);
            let (node, job) = (rng.index(nodes), rng.index(jobs));
            let ev = match rng.index(5) {
                0 => TraceEvent::MsgArrive { node, qlen: 1, uid },
                1 => TraceEvent::FastUpcall {
                    node,
                    job,
                    words: 1,
                    uid,
                },
                2 => TraceEvent::BufferInsert {
                    node,
                    job,
                    words: 1,
                    swapped: false,
                    uid,
                },
                3 => TraceEvent::BufferExtract {
                    node,
                    job,
                    words: 1,
                    swapped: false,
                    uid,
                },
                _ => TraceEvent::HandlerDone {
                    node,
                    job,
                    uid,
                    end: t,
                },
            };
            out.push((t, ev));
        }
    }
    mutate(rng, &mut out);
    out
}

/// Removes some launches, repeats some events (a repeated launch is a uid
/// reuse) and swaps some neighbours.
fn mutate(rng: &mut DetRng, out: &mut Vec<(Cycles, TraceEvent)>) {
    if out.is_empty() {
        return;
    }
    let p = rng.f64() * 0.1;
    out.retain(|(_, ev)| !(matches!(ev, TraceEvent::MsgLaunch { .. }) && rng.chance(p)));
    for _ in 0..rng.index(1 + out.len() / 10) {
        let i = rng.index(out.len());
        let (at, ev) = out[i].clone();
        let j = i + rng.index(out.len() - i + 1);
        out.insert(j, (at + 1, ev));
    }
    for _ in 0..rng.index(1 + out.len() / 10) {
        if out.len() > 1 {
            let i = rng.index(out.len() - 1);
            out.swap(i, i + 1);
        }
    }
}

fn assert_same(checker: &InvariantChecker, model: &Model) {
    assert_eq!(checker.violations(), model.violations);
    assert_eq!(checker.tally(), model.tally());
    assert_eq!(checker.undelivered(), model.undelivered());
    assert_eq!(checker.peak_pages(), model.peak_pages);
}

#[test]
fn uid_indexed_oracle_matches_hash_keyed_reference() {
    forall(384, 0x5EED_0021, |rng| {
        let stream = gen_stream(rng);
        let bound = rng.chance(0.3).then(|| rng.range_u64(2, 10));
        let mut checker = InvariantChecker::new();
        let mut model = Model::default();
        if let Some(bound) = bound {
            checker = checker.with_page_bound(bound);
            model.page_bound = Some(bound);
        }
        let tracer = Tracer::disabled();
        checker.attach(&tracer);
        for (i, (at, ev)) in stream.iter().enumerate() {
            tracer.set_time(*at);
            tracer.emit(ev.clone());
            model.on_event(*at, ev);
            if i % 16 == 0 {
                assert_same(&checker, &model);
            }
        }
        assert_same(&checker, &model);

        let report = checker.finish();
        let (expect, recs) = model.finish();
        assert_eq!(report.errors, expect.errors);
        assert_eq!(report.to_json(), expect.to_json());
        let got: Vec<SpanView> = report.spans.iter().map(view_of_span).collect();
        let want: Vec<SpanView> = recs.iter().map(view_of_rec).collect();
        assert_eq!(got, want);
    });
}

/// The generator reaches every rule the reference model knows, so the
/// comparison above is not vacuous.
#[test]
fn streams_reach_every_violation_kind() {
    let kinds = RefCell::new(BTreeSet::new());
    let (span_errors, stitched) = (Cell::new(0), Cell::new([0, 0]));
    forall(384, 0x5EED_0021, |rng| {
        let stream = gen_stream(rng);
        let mut model = Model {
            page_bound: rng.chance(0.3).then(|| rng.range_u64(2, 10)),
            ..Model::default()
        };
        for (at, ev) in &stream {
            model.on_event(*at, ev);
        }
        kinds
            .borrow_mut()
            .extend(model.violations.iter().map(|v| v.kind));
        span_errors.set(span_errors.get() + model.span_errors.len());
        let (report, _) = model.finish();
        let [fast, buffered] = stitched.get();
        stitched.set([
            fast + report.fast.hist.total(),
            buffered + report.buffered.hist.total(),
        ]);
    });
    let all = [
        "drain-stalled",
        "dropped-delivered",
        "extract-underflow",
        "fifo-order",
        "misrouted",
        "mode-exit-residual",
        "over-buffering",
        "over-delivery",
        "page-bound",
        "uid-reuse",
        "unknown-delivery",
    ];
    assert_eq!(kinds.take().into_iter().collect::<Vec<_>>(), all);
    assert!(span_errors.get() > 0);
    assert!(
        stitched.get().iter().all(|&n| n > 0),
        "{:?}",
        stitched.get()
    );
}
