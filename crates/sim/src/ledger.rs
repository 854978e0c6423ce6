//! The message-lifecycle ledger every trace oracle reads.
//!
//! Two-case delivery is transparent only if every message's lifecycle —
//! launch, NIC arrival, a fast-path delivery or a buffer insert and later
//! extract, handler retirement — holds on both paths. A [`MessageLedger`]
//! folds the trace stream into one [`MessageSpan`] per launch-stamped uid,
//! plus per-node state: the job each node runs (from `QuantumSwitch`) and
//! the messages resident in its software buffer, in insert order.
//!
//! The ledger applies no rules. Its readers do: `udm::invariant` checks
//! conservation, FIFO order and drain progress, [`crate::span`] checks and
//! sums the cycle attribution. Each owns one ledger, feeds it every event
//! under [`MessageLedger::mask`] and reads the [`Observed`] outcome and the
//! records.
//!
//! ```
//! use fugu_sim::ledger::{MessageLedger, Observed};
//! use fugu_sim::trace::TraceEvent;
//!
//! let mut ledger = MessageLedger::default();
//! let launch = TraceEvent::MsgLaunch { node: 0, job: 0, dst: 1, words: 3, uid: 1 };
//! assert_eq!(ledger.observe(0, &launch), Observed::Fresh);
//! let upcall = TraceEvent::FastUpcall { node: 1, job: 0, words: 3, uid: 1 };
//! assert_eq!(ledger.observe(12, &upcall), Observed::Fresh);
//! assert_eq!(ledger.observe(13, &upcall), Observed::Repeat);
//! let span = ledger.get(1).unwrap();
//! assert_eq!((span.deliver, span.deliveries, span.anomalous), (Some(12), 2, true));
//! ```

use std::collections::HashMap;

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

/// How one trace event related to the ledger's records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observed {
    /// The event names no message; at most per-node state changed.
    Untracked,
    /// The event advanced its message's record.
    Fresh,
    /// The event contradicts the message's record: it repeats a step the
    /// record holds (a second launch, arrival, delivery, insert or
    /// retirement) or comes out of order (an extract before any insert, a
    /// retirement before delivery). The record keeps its first sightings
    /// and is now anomalous.
    Repeat,
    /// The event names a uid that was never launched.
    Orphan(u64),
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
#[derive(Debug, Default)]
pub struct MessageLedger {
    /// Records in launch order.
    records: Vec<MessageSpan>,
    /// uid → position in `records`.
    index: HashMap<u64, usize>,
    nodes: HashMap<usize, NodeState>,
}

impl MessageLedger {
    /// The trace categories every oracle built on the ledger subscribes
    /// to: the lifecycle events plus the mode and page events the
    /// invariant checker reads.
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
    pub fn observe(&mut self, at: Cycles, event: &TraceEvent) -> Observed {
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
                self.records
                    .push(MessageSpan::new(uid, node, dst, job, words, at));
                return Observed::Fresh;
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
                return Observed::Untracked;
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
            _ => return Observed::Untracked,
        };
        let Some(&i) = self.index.get(&uid) else {
            return Observed::Orphan(uid);
        };
        let span = &mut self.records[i];
        match *event {
            TraceEvent::FastUpcall { .. }
            | TraceEvent::PollDelivery { .. }
            | TraceEvent::BufferExtract { .. } => span.deliveries += 1,
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
            Observed::Fresh
        } else {
            span.anomalous = true;
            Observed::Repeat
        }
    }

    /// The record of `uid`, if it was launched.
    pub fn get(&self, uid: u64) -> Option<&MessageSpan> {
        self.index.get(&uid).map(|&i| &self.records[i])
    }

    /// True if a message `uid` sits in `node`'s software buffer.
    pub fn is_resident(&self, node: usize, uid: u64) -> bool {
        self.nodes
            .get(&node)
            .is_some_and(|s| s.resident.iter().any(|&(u, _)| u == uid))
    }

    /// Messages sitting in `node`'s software buffer for `job`.
    pub fn buffered(&self, node: usize, job: usize) -> usize {
        self.nodes
            .get(&node)
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

    /// Every record, sorted by uid.
    pub fn into_spans(self) -> Vec<MessageSpan> {
        let mut spans = self.records;
        spans.sort_by_key(|s| s.uid);
        spans
    }
}
