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
//! ledger allocates nothing. The records themselves sit in fixed chunks of
//! 4,096, allocated one at a time as launches fill them: a record never
//! moves once written, and growing the store never copies it or holds two
//! copies at once, as a doubling vector would.
//!
//! An attached oracle holds one record per launched message, so the record
//! is packed into 80 bytes: seven plain cycle counts, the uid in 32 bits,
//! nodes, jobs and word counts in 16, the delivery and insert counts in
//! 32, and one flag word for the delivery path, the five booleans and
//! which optional times were seen. The uid and width contracts on
//! `MessageLedger` bound what the narrow fields must hold; an event
//! outside them panics.
//!
//! The ledger applies no rules. The one oracle that owns it,
//! [`crate::invariant::InvariantChecker`], does: it folds each event in
//! once, then checks conservation, FIFO order and drain progress against
//! the records, and the span checks of [`crate::span`] against the same
//! records. [`Tally`] sums the records' counts for harnesses that
//! cross-check a run report against the trace.

use std::fmt;

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
/// Timestamps are simulated [`Cycles`]; every time after
/// [`launch`](MessageSpan::launch) reads `None` until (unless) the
/// corresponding trace event is observed. Each timestamp keeps its first
/// sighting; a later event that repeats a step marks the span
/// [`anomalous`](MessageSpan::anomalous) instead.
///
/// The record is 80 bytes, because an attached oracle holds one per
/// launched message. Every cycle count is a plain [`Cycles`]; whether each
/// optional time was seen is a bit in one flag word, which also holds the
/// delivery path and the five booleans, so every cycle value stays
/// representable. The uid is stored in 32 bits and nodes, jobs and word
/// counts in 16, under the contracts on `MessageLedger`; read the fields
/// through the accessors, which return the natural widths.
#[derive(Clone)]
pub struct MessageSpan {
    launch: Cycles,
    /// Arrival, insert, delivery and retirement, each meaningful only while
    /// its `Stamp` bit is set in `flags`.
    stamps: [Cycles; 4],
    sched_wait: Cycles,
    /// Residency-accounting watermark: start of the interval not yet
    /// folded into `sched_wait`.
    mark: Cycles,
    uid: u32,
    deliveries: u32,
    inserts: u32,
    src: u16,
    dst: u16,
    src_job: u16,
    /// Meaningful only while `DST_JOB` is set in `flags`.
    dst_job: u16,
    words: u16,
    flags: u16,
}

/// The optional lifecycle timestamps, by their index in
/// `MessageSpan::stamps` and their presence bit in `MessageSpan::flags`.
#[derive(Clone, Copy)]
enum Stamp {
    Arrive,
    Insert,
    Deliver,
    Done,
}

impl Stamp {
    fn bit(self) -> u16 {
        1 << self as u16
    }
}

/// `MessageSpan::flags` bits above the four `Stamp` presence bits.
const DST_JOB: u16 = 1 << 4;
const FAST: u16 = 1 << 5;
const BUFFERED: u16 = 1 << 6;
const VIA_POLL: u16 = 1 << 7;
const SWAPPED: u16 = 1 << 8;
const ANOMALOUS: u16 = 1 << 9;
const DROPPED: u16 = 1 << 10;
const DUPLICATED: u16 = 1 << 11;

/// `value` as a 16-bit record field, under the ledger's width contract.
fn narrow(value: usize, what: &str) -> u16 {
    match u16::try_from(value) {
        Ok(v) if v < u16::MAX => v,
        _ => panic!(
            "{what} {value} breaks the message ledger's width contract: nodes, jobs \
             and word counts stay below 65,535"
        ),
    }
}

impl MessageSpan {
    fn new(uid: u32, src: u16, dst: u16, src_job: u16, words: u16, at: Cycles) -> Self {
        MessageSpan {
            launch: at,
            stamps: [0; 4],
            sched_wait: 0,
            mark: at,
            uid,
            deliveries: 0,
            inserts: 0,
            src,
            dst,
            src_job,
            dst_job: 0,
            words,
            flags: 0,
        }
    }

    fn flag(&self, bit: u16) -> bool {
        self.flags & bit != 0
    }

    fn stamp(&self, which: Stamp) -> Option<Cycles> {
        self.flag(which.bit()).then(|| self.stamps[which as usize])
    }

    fn set_stamp(&mut self, which: Stamp, at: Cycles) {
        self.stamps[which as usize] = at;
        self.flags |= which.bit();
    }

    fn set_dst_job(&mut self, job: u16) {
        self.dst_job = job;
        self.flags |= DST_JOB;
    }

    fn set_path(&mut self, path: DeliveryPath) {
        self.flags |= match path {
            DeliveryPath::Fast => FAST,
            DeliveryPath::Buffered => BUFFERED,
        };
    }

    /// Machine-wide unique message id (stamped at launch).
    pub fn uid(&self) -> u64 {
        u64::from(self.uid)
    }

    /// Sending node.
    pub fn src(&self) -> usize {
        usize::from(self.src)
    }

    /// Destination node.
    pub fn dst(&self) -> usize {
        usize::from(self.dst)
    }

    /// Sending job index.
    pub fn src_job(&self) -> usize {
        usize::from(self.src_job)
    }

    /// Receiving job index, once a delivery-side event names it.
    pub fn dst_job(&self) -> Option<usize> {
        self.flag(DST_JOB).then_some(usize::from(self.dst_job))
    }

    /// Message length in words (header + payload).
    pub fn words(&self) -> usize {
        usize::from(self.words)
    }

    /// Launch time (the span's origin).
    pub fn launch(&self) -> Cycles {
        self.launch
    }

    /// NIC arrival time at the destination.
    pub fn arrive(&self) -> Option<Cycles> {
        self.stamp(Stamp::Arrive)
    }

    /// Software-buffer insert time (buffered case only).
    pub fn insert(&self) -> Option<Cycles> {
        self.stamp(Stamp::Insert)
    }

    /// Delivery-to-program time: upcall, poll, or buffer extract.
    pub fn deliver(&self) -> Option<Cycles> {
        self.stamp(Stamp::Deliver)
    }

    /// Handler retirement cycle (absent for peek-style extracts that run
    /// no handler, and for spans still open when the run ended).
    pub fn done(&self) -> Option<Cycles> {
        self.stamp(Stamp::Done)
    }

    /// The delivery case taken, known at delivery time.
    pub fn path(&self) -> Option<DeliveryPath> {
        if self.flag(FAST) {
            Some(DeliveryPath::Fast)
        } else if self.flag(BUFFERED) {
            Some(DeliveryPath::Buffered)
        } else {
            None
        }
    }

    /// True if the fast-path delivery happened via `poll` rather than an
    /// interrupt upcall.
    pub fn via_poll(&self) -> bool {
        self.flag(VIA_POLL)
    }

    /// True if the message was paged to backing store while buffered.
    pub fn swapped(&self) -> bool {
        self.flag(SWAPPED)
    }

    /// Buffered residency spent while the owning job was descheduled
    /// (maintained from the `QuantumSwitch` stream).
    pub fn sched_wait(&self) -> Cycles {
        self.sched_wait
    }

    /// True if the stream contradicted itself for this uid (e.g. a
    /// fault-injected duplicate re-arriving); anomalous spans are counted
    /// but excluded from statistics and invariant checks.
    pub fn anomalous(&self) -> bool {
        self.flag(ANOMALOUS)
    }

    /// True once the fault injector declared the message dropped.
    pub fn dropped(&self) -> bool {
        self.flag(DROPPED)
    }

    /// True once the fault injector declared the message duplicated.
    pub fn duplicated(&self) -> bool {
        self.flag(DUPLICATED)
    }

    /// Delivery events seen for this uid: upcalls, polls and extracts.
    pub fn deliveries(&self) -> u32 {
        self.deliveries
    }

    /// Buffer inserts seen for this uid.
    pub fn inserts(&self) -> u32 {
        self.inserts
    }

    /// The span's terminal cycle: handler retirement if a handler ran,
    /// otherwise the delivery time. `None` while still in flight.
    pub fn end(&self) -> Option<Cycles> {
        self.done().or(self.deliver())
    }

    /// True once the message reached its program (both cases).
    pub fn delivered(&self) -> bool {
        self.flag(Stamp::Deliver.bit())
    }

    /// Folds residency time since the watermark into `sched_wait` if the
    /// owning job was descheduled over that interval.
    fn account_residency(&mut self, running: Option<usize>, at: Cycles) {
        if self.dst_job().is_some_and(|job| Some(job) != running) {
            self.sched_wait += at.saturating_sub(self.mark);
        }
        self.mark = at;
    }
}

impl fmt::Debug for MessageSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MessageSpan")
            .field("uid", &self.uid())
            .field("src", &self.src())
            .field("dst", &self.dst())
            .field("src_job", &self.src_job())
            .field("dst_job", &self.dst_job())
            .field("words", &self.words())
            .field("launch", &self.launch())
            .field("arrive", &self.arrive())
            .field("insert", &self.insert())
            .field("deliver", &self.deliver())
            .field("done", &self.done())
            .field("path", &self.path())
            .field("via_poll", &self.via_poll())
            .field("swapped", &self.swapped())
            .field("sched_wait", &self.sched_wait())
            .field("anomalous", &self.anomalous())
            .field("dropped", &self.dropped())
            .field("duplicated", &self.duplicated())
            .field("deliveries", &self.deliveries())
            .field("inserts", &self.inserts())
            .finish()
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
///
/// Width contract: a record stores nodes, jobs and word counts in 16 bits.
/// The harnesses cap a machine at 64 nodes (`fugu_bench::MAX_NODES`) and a
/// message has at most 16 words (`fugu_net::MAX_MESSAGE_WORDS`), so an
/// event that names a node, job or word count of 65,535 or more is outside
/// the contract: folding it into a record panics.
#[derive(Debug, Default)]
pub(crate) struct MessageLedger {
    /// Records in launch order.
    records: Records,
    /// Indexed by uid: the uid's position in `records` plus 1, or 0 (or no
    /// slot at all) if it was never launched.
    index: Vec<u32>,
    /// Indexed by node.
    nodes: Vec<NodeState>,
    /// Buffer extracts of launched messages, counted in their records'
    /// `deliveries` too.
    extracts: u64,
}

/// Records per chunk of [`Records`].
const CHUNK: usize = 4096;

/// The ledger's records in launch order, in chunks of [`CHUNK`] that are
/// allocated full-size and never reallocated, so a record keeps its place
/// in memory while the store grows.
#[derive(Debug, Default)]
struct Records {
    chunks: Vec<Vec<MessageSpan>>,
    len: usize,
}

impl Records {
    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, span: MessageSpan) {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.chunks
            .last_mut()
            .expect("a chunk was just ensured")
            .push(span);
        self.len += 1;
    }

    fn iter(&self) -> impl Iterator<Item = &MessageSpan> {
        self.chunks.iter().flatten()
    }
}

impl std::ops::Index<usize> for Records {
    type Output = MessageSpan;

    fn index(&self, i: usize) -> &MessageSpan {
        &self.chunks[i / CHUNK][i % CHUNK]
    }
}

impl std::ops::IndexMut<usize> for Records {
    fn index_mut(&mut self, i: usize) -> &mut MessageSpan {
        &mut self.chunks[i / CHUNK][i % CHUNK]
    }
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
                let span = MessageSpan::new(
                    uid as u32,
                    narrow(node, "MsgLaunch node"),
                    narrow(dst, "MsgLaunch dst"),
                    narrow(job, "MsgLaunch job"),
                    narrow(words, "MsgLaunch words"),
                    at,
                );
                // One record per distinct uid below the bound leaves fewer
                // than `u32::MAX` records, so the position plus 1 fits.
                *grown(&mut self.index, uid as usize) = self.records.len() as u32 + 1;
                self.records.push(span);
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
            TraceEvent::MsgArrive { .. } if span.arrive().is_none() => {
                span.set_stamp(Stamp::Arrive, at);
                true
            }
            TraceEvent::FastUpcall { job, .. } | TraceEvent::PollDelivery { job, .. }
                if !span.delivered() =>
            {
                let poll = matches!(event, TraceEvent::PollDelivery { .. });
                span.set_stamp(Stamp::Deliver, at);
                span.set_path(DeliveryPath::Fast);
                span.flags |= if poll { VIA_POLL } else { 0 };
                span.set_dst_job(narrow(job, "delivery job"));
                true
            }
            TraceEvent::BufferInsert { job, swapped, .. }
                if span.insert().is_none() && !span.delivered() =>
            {
                span.set_stamp(Stamp::Insert, at);
                span.set_dst_job(narrow(job, "BufferInsert job"));
                span.flags |= if swapped { SWAPPED } else { 0 };
                span.mark = at;
                true
            }
            TraceEvent::BufferExtract { job, swapped, .. }
                if span.insert().is_some() && !span.delivered() =>
            {
                span.account_residency(running, at);
                span.set_stamp(Stamp::Deliver, at);
                span.set_path(DeliveryPath::Buffered);
                span.set_dst_job(narrow(job, "BufferExtract job"));
                span.flags |= if swapped { SWAPPED } else { 0 };
                true
            }
            TraceEvent::HandlerDone { end, .. } if span.delivered() && span.done().is_none() => {
                span.set_stamp(Stamp::Done, end);
                true
            }
            TraceEvent::FaultDrop { .. } => {
                span.flags |= DROPPED;
                true
            }
            TraceEvent::FaultDuplicate { .. } => {
                span.flags |= DUPLICATED;
                true
            }
            // A lifecycle step the record already holds.
            _ => false,
        };
        if fresh {
            Observed::Fresh(i)
        } else {
            span.flags |= ANOMALOUS;
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
            .filter(|s| !s.dropped() && !s.delivered())
            .count() as u64
    }

    /// The records' counts, summed.
    pub fn tally(&self) -> Tally {
        let mut tally = Tally {
            launched: self.records.len() as u64,
            ..Tally::default()
        };
        for s in self.records.iter() {
            tally.delivered += u64::from(s.deliveries);
            tally.buffered += u64::from(s.inserts);
        }
        tally.fast = tally.delivered - self.extracts;
        tally
    }

    /// Every record, sorted by uid.
    pub fn into_spans(self) -> Vec<MessageSpan> {
        let mut spans = Vec::with_capacity(self.records.len());
        spans.extend(self.records.chunks.into_iter().flatten());
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
            (span.deliver(), span.deliveries(), span.anomalous()),
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
        assert_eq!(ledger.record(1).uid(), 100);
        assert!(ledger.index[2..100].iter().all(|&slot| slot == 0));
        for uid in 2..100 {
            assert_eq!(ledger.observe(10, &upcall(uid)), Observed::Orphan(uid));
        }
        assert_eq!(ledger.observe(11, &upcall(1)), Observed::Fresh(0));
        let uids: Vec<u64> = ledger.into_spans().iter().map(|s| s.uid()).collect();
        assert_eq!(uids, [1, 100]);
    }

    #[test]
    fn records_keep_their_positions_and_addresses_across_chunks() {
        let mut ledger = MessageLedger::default();
        ledger.observe(0, &launch(1));
        let first = std::ptr::from_ref(ledger.record(0));
        let launches = 2 * CHUNK as u64 + 5;
        for uid in 2..=launches {
            assert_eq!(
                ledger.observe(uid, &launch(uid)),
                Observed::Fresh(uid as usize - 1)
            );
        }
        // Growing the store moved no record.
        assert!(std::ptr::eq(first, ledger.record(0)));
        let late = CHUNK as u64 + 3;
        assert_eq!(
            ledger.observe(9, &upcall(late)),
            Observed::Fresh(late as usize - 1)
        );
        assert_eq!(ledger.record(late as usize - 1).deliver(), Some(9));
        assert_eq!(ledger.tally().launched, launches);
        let uids: Vec<u64> = ledger.into_spans().iter().map(|s| s.uid()).collect();
        assert_eq!(uids, (1..=launches).collect::<Vec<_>>());
    }

    #[test]
    fn a_record_is_at_most_80_bytes() {
        assert!(std::mem::size_of::<MessageSpan>() <= 80);
    }

    #[test]
    fn times_at_cycle_0_read_back_as_seen() {
        let mut ledger = MessageLedger::default();
        ledger.observe(0, &launch(1));
        let arrive = TraceEvent::MsgArrive {
            node: 1,
            qlen: 1,
            uid: 1,
        };
        assert_eq!(ledger.observe(0, &arrive), Observed::Fresh(0));
        let span = ledger.record(0);
        assert_eq!((span.launch(), span.arrive()), (0, Some(0)));
        assert_eq!(
            (span.insert(), span.deliver(), span.done()),
            (None, None, None)
        );
        assert_eq!((span.path(), span.dst_job()), (None, None));
        ledger.observe(0, &upcall(1));
        let done = TraceEvent::HandlerDone {
            node: 1,
            job: 0,
            uid: 1,
            end: 0,
        };
        ledger.observe(0, &done);
        let span = ledger.record(0);
        assert_eq!((span.deliver(), span.done()), (Some(0), Some(0)));
        assert_eq!(
            (span.path(), span.dst_job()),
            (Some(DeliveryPath::Fast), Some(0))
        );
        assert!(!span.anomalous() && !span.via_poll() && !span.swapped());
    }

    #[test]
    fn widths_up_to_65534_are_kept_and_65535_or_more_panics_naming_the_contract() {
        let event = |node, job, dst, words| TraceEvent::MsgLaunch {
            node,
            job,
            dst,
            words,
            uid: 1,
        };
        let max = usize::from(u16::MAX) - 1;
        let mut ledger = MessageLedger::default();
        ledger.observe(0, &event(max, max, max, max));
        let span = ledger.record(0);
        assert_eq!(
            (span.src(), span.src_job(), span.dst(), span.words()),
            (max, max, max, max)
        );
        for bad in [max + 1, 1 << 20, usize::MAX] {
            for launch in [
                event(bad, 0, 1, 3),
                event(0, bad, 1, 3),
                event(0, 0, bad, 3),
                event(0, 0, 1, bad),
            ] {
                let panic = std::panic::catch_unwind(|| {
                    MessageLedger::default().observe(0, &launch);
                })
                .expect_err("a launch outside the width contract must panic");
                let message = panic.downcast_ref::<String>().expect("formatted panic");
                assert!(
                    message.contains("breaks the message ledger's width contract"),
                    "{message}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "delivery job 65535 breaks the message ledger's width contract")]
    fn a_delivery_job_outside_the_width_contract_panics() {
        let mut ledger = MessageLedger::default();
        ledger.observe(0, &launch(1));
        ledger.observe(
            1,
            &TraceEvent::FastUpcall {
                node: 1,
                job: 65_535,
                words: 3,
                uid: 1,
            },
        );
    }

    #[test]
    #[should_panic(expected = "breaks the message ledger's uid contract")]
    fn a_launch_uid_outside_the_contract_panics() {
        let mut ledger = MessageLedger::default();
        ledger.observe(0, &launch(u64::from(u32::MAX)));
    }
}
