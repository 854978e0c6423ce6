//! The message-lifecycle ledger the trace oracle reads.
//!
//! Two-case delivery is transparent only if every message's lifecycle —
//! launch, NIC arrival, a fast-path delivery or a buffer insert and later
//! extract, handler retirement — holds on both paths. The crate-private
//! `MessageLedger` folds the trace stream into one [`MessageSpan`] per
//! launch-stamped uid, plus per-node state: the job each node runs (from
//! `QuantumSwitch`) and the messages resident in its software buffer, in
//! insert order.
//!
//! Each event costs array indexing, not hashing. The machine stamps launch
//! uids from one counter, densely from 1, so the records are found through
//! a vector indexed by uid; per-node state is a vector indexed by node.
//! Both grow on demand (the uid index only on a launch), so an empty
//! ledger allocates nothing.
//!
//! The ledger applies no rules. The one oracle that owns it,
//! [`crate::invariant::InvariantChecker`], does: it folds each event in
//! once, then checks conservation, FIFO order and drain progress against
//! the records, and the span checks of [`crate::span`] against the same
//! records. [`Tally`] sums the records' counts for harnesses that
//! cross-check a run report against the trace.

use crate::trace::{CategoryMask, TraceEvent};
use crate::Cycles;

/// Which of the paper's two delivery cases a message took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryPath {
    /// First case: delivered straight from the NIC (upcall or poll).
    Fast,
    /// Second case: inserted into the software buffer and extracted later.
    Buffered,
}

impl DeliveryPath {
    /// Lower-case name used in reports (`"fast"` / `"buffered"`).
    pub fn name(self) -> &'static str {
        match self {
            DeliveryPath::Fast => "fast",
            DeliveryPath::Buffered => "buffered",
        }
    }
}

/// One message's stitched lifecycle, keyed by its launch-stamped uid.
///
/// Timestamps are simulated [`Cycles`]; every field after `launch` is
/// `None` until (unless) the corresponding trace event is observed. Each
/// timestamp keeps its first sighting; a later event that repeats a step
/// marks the span [`MessageSpan::anomalous`] instead.
#[derive(Debug, Clone)]
pub struct MessageSpan {
    /// Machine-wide unique message id (stamped at launch).
    pub uid: u64,
    /// Sending node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Sending job index.
    pub src_job: usize,
    /// Receiving job index, once a delivery-side event names it.
    pub dst_job: Option<usize>,
    /// Message length in words (header + payload).
    pub words: usize,
    /// Launch time (the span's origin).
    pub launch: Cycles,
    /// NIC arrival time at the destination.
    pub arrive: Option<Cycles>,
    /// Software-buffer insert time (buffered case only).
    pub insert: Option<Cycles>,
    /// Delivery-to-program time: upcall, poll, or buffer extract.
    pub deliver: Option<Cycles>,
    /// Handler retirement cycle (absent for peek-style extracts that run
    /// no handler, and for spans still open when the run ended).
    pub done: Option<Cycles>,
    /// The delivery case taken, known at delivery time.
    pub path: Option<DeliveryPath>,
    /// True if the fast-path delivery happened via `poll` rather than an
    /// interrupt upcall.
    pub via_poll: bool,
    /// True if the message was paged to backing store while buffered.
    pub swapped: bool,
    /// Buffered residency spent while the owning job was descheduled
    /// (maintained from the `QuantumSwitch` stream).
    pub sched_wait: Cycles,
    /// Residency-accounting watermark: start of the interval not yet
    /// folded into [`MessageSpan::sched_wait`].
    mark: Cycles,
    /// True if the stream contradicted itself for this uid (e.g. a
    /// fault-injected duplicate re-arriving); anomalous spans are counted
    /// but excluded from statistics and invariant checks.
    pub anomalous: bool,
    /// True once the fault injector declared the message dropped.
    pub dropped: bool,
    /// True once the fault injector declared the message duplicated.
    pub duplicated: bool,
    /// Delivery events seen for this uid: upcalls, polls and extracts.
    pub deliveries: u32,
    /// Buffer inserts seen for this uid.
    pub inserts: u32,
}

impl MessageSpan {
    fn new(uid: u64, src: usize, dst: usize, src_job: usize, words: usize, at: Cycles) -> Self {
        MessageSpan {
            uid,
            src,
            dst,
            src_job,
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
        }
    }

    /// The span's terminal cycle: handler retirement if a handler ran,
    /// otherwise the delivery time. `None` while still in flight.
    pub fn end(&self) -> Option<Cycles> {
        self.done.or(self.deliver)
    }

    /// True once the message reached its program (both cases).
    pub fn delivered(&self) -> bool {
        self.deliver.is_some()
    }

    /// Folds residency time since the watermark into `sched_wait` if the
    /// owning job was descheduled over that interval.
    fn account_residency(&mut self, running: Option<usize>, at: Cycles) {
        if self.dst_job.is_some() && self.dst_job != running {
            self.sched_wait += at.saturating_sub(self.mark);
        }
        self.mark = at;
    }
}

/// Message counts summed over every record of a ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Messages launched (one record each).
    pub launched: u64,
    /// Delivery events: upcalls, polls and buffer extracts, so a declared
    /// duplicate delivered twice counts twice.
    pub delivered: u64,
    /// Fast-path delivery events: upcalls and polls.
    pub fast: u64,
    /// Buffer inserts: messages that took the second case.
    pub buffered: u64,
}

/// How one trace event related to the ledger's records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Observed {
    /// The event names no message; at most per-node state changed.
    Untracked,
    /// The event advanced the record at this position.
    Fresh(usize),
    /// The event contradicts the record at this position: it repeats a
    /// step the record holds (a second launch, arrival, delivery, insert or
    /// retirement) or comes out of order (an extract before any insert, a
    /// retirement before delivery). The record keeps its first sightings
    /// and is now anomalous.
    Repeat(usize),
    /// The event names a uid that was never launched.
    Orphan(u64),
}

impl Observed {
    /// Position of the record the event named, for
    /// `MessageLedger::record`; `None` if it named no launched message.
    pub fn position(self) -> Option<usize> {
        match self {
            Observed::Fresh(i) | Observed::Repeat(i) => Some(i),
            Observed::Untracked | Observed::Orphan(_) => None,
        }
    }
}

/// Per-node lifecycle context.
#[derive(Debug, Default)]
struct NodeState {
    /// Job currently scheduled (primed by the machine's initial
    /// `QuantumSwitch`).
    running: Option<usize>,
    /// `(uid, job)` of every buffer insert not yet extracted, in insert
    /// order.
    resident: Vec<(u64, usize)>,
}

/// Every launched message's lifecycle plus per-node scheduling and buffer
/// state, folded from the trace stream.
///
/// Uid contract: the machine stamps launch uids from one counter, densely
/// from 1, so the uid index is a vector indexed by uid. It costs 4 bytes
/// per uid up to the largest uid launched, and only a launch grows it: a
/// lookup of any uid, `u64::MAX` included, reports a never-launched uid as
/// an orphan and allocates nothing. A launch uid of `u32::MAX` or more is
/// outside the contract and panics. Per-node state is a vector indexed by
/// node, grown on demand, so an empty ledger owns no allocation.
#[derive(Debug, Default)]
pub(crate) struct MessageLedger {
    /// Records in launch order.
    records: Vec<MessageSpan>,
    /// Indexed by uid: the uid's position in `records` plus 1, or 0 (or no
    /// slot at all) if it was never launched.
    index: Vec<u32>,
    /// Indexed by node.
    nodes: Vec<NodeState>,
    /// Buffer extracts of launched messages, counted in their records'
    /// `deliveries` too.
    extracts: u64,
}

/// The position in the records of `uid`, if it was launched.
fn position(index: &[u32], uid: u64) -> Option<usize> {
    let slot = *index.get(usize::try_from(uid).ok()?)?;
    (slot as usize).checked_sub(1)
}

/// `v[i]`, first growing `v` with default entries if it is too short.
pub(crate) fn grown<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if i >= v.len() {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

impl MessageLedger {
    /// The trace categories the oracle subscribes to: the lifecycle events
    /// plus the mode and page events its delivery rules read.
    pub fn mask() -> CategoryMask {
        CategoryMask::MSG
            | CategoryMask::UPCALL
            | CategoryMask::BUFFER
            | CategoryMask::MODE
            | CategoryMask::VM
            | CategoryMask::SCHED
            | CategoryMask::FAULT
            | CategoryMask::SPAN
    }

    /// Folds one event at simulated time `at` into the ledger.
    ///
    /// # Panics
    ///
    /// Panics on a `MsgLaunch` whose uid breaks the uid contract (see
    /// `MessageLedger`).
    pub fn observe(&mut self, at: Cycles, event: &TraceEvent) -> Observed {
        let mut running = None;
        let uid = match *event {
            TraceEvent::MsgLaunch {
                node,
                job,
                dst,
                words,
                uid,
            } if position(&self.index, uid).is_none() => {
                assert!(
                    uid < u64::from(u32::MAX),
                    "MsgLaunch uid {uid} breaks the message ledger's uid contract: \
                     launch uids run densely from 1 and stay below 2^32 - 1"
                );
                // One record per distinct uid below the bound leaves fewer
                // than `u32::MAX` records, so the position plus 1 fits.
                *grown(&mut self.index, uid as usize) = self.records.len() as u32 + 1;
                self.records
                    .push(MessageSpan::new(uid, node, dst, job, words, at));
                return Observed::Fresh(self.records.len() - 1);
            }
            TraceEvent::QuantumSwitch { node, to_job, .. } => {
                let state = grown(&mut self.nodes, node);
                for &(uid, _) in &state.resident {
                    let Some(i) = position(&self.index, uid) else {
                        continue;
                    };
                    let span = &mut self.records[i];
                    if !span.delivered() {
                        span.account_residency(state.running, at);
                    }
                }
                state.running = to_job;
                return Observed::Untracked;
            }
            TraceEvent::BufferInsert { node, job, uid, .. } => {
                grown(&mut self.nodes, node).resident.push((uid, job));
                uid
            }
            TraceEvent::BufferExtract { node, uid, .. } => {
                let state = grown(&mut self.nodes, node);
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
            _ => return Observed::Untracked,
        };
        let Some(i) = position(&self.index, uid) else {
            return Observed::Orphan(uid);
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
            // A lifecycle step the record already holds.
            _ => false,
        };
        if fresh {
            Observed::Fresh(i)
        } else {
            span.anomalous = true;
            Observed::Repeat(i)
        }
    }

    /// The record at `position`, as named by an [`Observed`].
    pub fn record(&self, position: usize) -> &MessageSpan {
        &self.records[position]
    }

    /// True if a message `uid` sits in `node`'s software buffer.
    pub fn is_resident(&self, node: usize, uid: u64) -> bool {
        self.nodes
            .get(node)
            .is_some_and(|s| s.resident.iter().any(|&(u, _)| u == uid))
    }

    /// Messages sitting in `node`'s software buffer for `job`.
    pub fn buffered(&self, node: usize, job: usize) -> usize {
        self.nodes
            .get(node)
            .map_or(0, |s| s.resident.iter().filter(|&&(_, j)| j == job).count())
    }

    /// Messages launched, never declared dropped and never delivered: in
    /// flight (or lost) when the stream ended.
    pub fn undelivered(&self) -> u64 {
        self.records
            .iter()
            .filter(|s| !s.dropped && !s.delivered())
            .count() as u64
    }

    /// The records' counts, summed.
    pub fn tally(&self) -> Tally {
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

    /// Every record, sorted by uid.
    pub fn into_spans(self) -> Vec<MessageSpan> {
        let mut spans = self.records;
        spans.sort_by_key(|s| s.uid);
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn launch(uid: u64) -> TraceEvent {
        TraceEvent::MsgLaunch {
            node: 0,
            job: 0,
            dst: 1,
            words: 3,
            uid,
        }
    }

    fn upcall(uid: u64) -> TraceEvent {
        TraceEvent::FastUpcall {
            node: 1,
            job: 0,
            words: 3,
            uid,
        }
    }

    #[test]
    fn repeated_step_marks_the_record_anomalous() {
        let mut ledger = MessageLedger::default();
        assert_eq!(ledger.observe(0, &launch(1)), Observed::Fresh(0));
        assert_eq!(ledger.observe(12, &upcall(1)), Observed::Fresh(0));
        assert_eq!(ledger.observe(13, &upcall(1)), Observed::Repeat(0));
        let span = ledger.record(0);
        assert_eq!(
            (span.deliver, span.deliveries, span.anomalous),
            (Some(12), 2, true)
        );
        let tally = ledger.tally();
        assert_eq!((tally.launched, tally.delivered, tally.fast), (1, 2, 2));
    }

    #[test]
    fn never_launched_uids_are_orphans_and_do_not_grow_the_index() {
        let mut ledger = MessageLedger::default();
        assert_eq!(ledger.observe(0, &upcall(7)), Observed::Orphan(7));
        assert!(ledger.index.is_empty());
        ledger.observe(1, &launch(2));
        let len = ledger.index.len();
        for uid in [0, 1, 3, 1 << 40, u64::MAX] {
            assert_eq!(ledger.observe(2, &upcall(uid)), Observed::Orphan(uid));
            let arrive = TraceEvent::MsgArrive {
                node: 1,
                qlen: 1,
                uid,
            };
            assert_eq!(ledger.observe(2, &arrive), Observed::Orphan(uid));
        }
        assert_eq!(ledger.index.len(), len);
        assert_eq!(ledger.tally().launched, 1);
    }

    #[test]
    fn a_launch_after_a_uid_gap_is_found_and_the_gap_stays_empty() {
        let mut ledger = MessageLedger::default();
        ledger.observe(0, &launch(1));
        assert_eq!(ledger.observe(5, &launch(100)), Observed::Fresh(1));
        assert_eq!(ledger.observe(9, &upcall(100)), Observed::Fresh(1));
        assert_eq!(ledger.record(1).uid, 100);
        assert!(ledger.index[2..100].iter().all(|&slot| slot == 0));
        for uid in 2..100 {
            assert_eq!(ledger.observe(10, &upcall(uid)), Observed::Orphan(uid));
        }
        assert_eq!(ledger.observe(11, &upcall(1)), Observed::Fresh(0));
        let uids: Vec<u64> = ledger.into_spans().iter().map(|s| s.uid).collect();
        assert_eq!(uids, [1, 100]);
    }

    #[test]
    #[should_panic(expected = "breaks the message ledger's uid contract")]
    fn a_launch_uid_outside_the_contract_panics() {
        let mut ledger = MessageLedger::default();
        ledger.observe(0, &launch(u64::from(u32::MAX)));
    }
}
