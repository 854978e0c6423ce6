//! The trace oracle: delivery invariants and span attribution over one
//! message ledger.
//!
//! Two-case delivery's promise (§4.3, §5.1) is that no matter which path a
//! message takes — fast upcall, polled extraction, or transparent replay
//! from the virtual buffer — delivery is *exactly once*, *in order per
//! sender*, buffered backlogs both drain and stay bounded, and the two
//! cases are transparent down to the cycle. The fault injector
//! ([`crate::fault`]) exists to attack those guarantees; this module
//! watches the trace stream and verifies they hold anyway.
//!
//! An [`InvariantChecker`] subscribes once to a machine's
//! [`Tracer`] and folds every event into one message
//! ledger ([`crate::ledger`]). Against those records it validates, online:
//!
//! * **Conservation** — every delivery corresponds to exactly one launch;
//!   a message is delivered at most once (twice when the fault injector
//!   declared a duplicate), and a declared drop is never delivered.
//! * **FIFO order** — per (source, destination, job) channel, deliveries
//!   occur in launch order (the machine stamps a monotonic uid at launch).
//! * **Drain progress** — a process with messages in its software buffer
//!   (which the machine allows only in buffered mode) must extract
//!   *something* within a bounded number of its own scheduling quanta.
//! * **Bounded buffering** — optionally, the per-node page-frame high-water
//!   mark stays under a configured bound (the paper's §5.1 claim).
//! * **Span consistency** — every closed span carries a complete, monotone
//!   event chain whose cycle attribution sums exactly to its end-to-end
//!   latency ([`crate::span`]).
//!
//! Violations carry a structured `{at, kind, detail}` diagnostic and are
//! collected for inspection ([`InvariantChecker::violations`],
//! [`InvariantChecker::assert_clean`]); span errors and the per-path
//! latency profile come out of [`InvariantChecker::finish`].
//!
//! # Example
//!
//! ```
//! use fugu_sim::invariant::InvariantChecker;
//! use fugu_sim::trace::{TraceEvent, Tracer};
//!
//! let tracer = Tracer::disabled();
//! let oracle = InvariantChecker::new();
//! oracle.attach(&tracer);
//!
//! // Node 0 sends uid 1 to node 1, which takes it by poll; then a second
//! // copy of the same message arrives that no fault plan declared.
//! tracer.emit(TraceEvent::MsgLaunch { node: 0, job: 0, dst: 1, words: 1, uid: 1 });
//! tracer.set_time(9);
//! tracer.emit(TraceEvent::MsgArrive { node: 1, qlen: 1, uid: 1 });
//! tracer.emit(TraceEvent::PollDelivery { node: 1, job: 0, words: 1, uid: 1 });
//! assert!(oracle.violations().is_empty());
//! tracer.emit(TraceEvent::PollDelivery { node: 1, job: 0, words: 1, uid: 1 });
//! assert_eq!(oracle.violations()[0].kind, "over-delivery");
//! assert_eq!(oracle.tally().delivered, 2);
//! let profile = oracle.finish();
//! assert_eq!((profile.delivered, profile.anomalies), (1, 1));
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use crate::ledger::{grown, MessageLedger, Observed, Tally};
use crate::span::{self, ProfileReport};
use crate::trace::{TraceEvent, Tracer};
use crate::Cycles;

/// Consecutive quanta a buffered-mode process may let a nonempty buffer sit
/// without a single extraction before the checker calls it a livelock.
const DRAIN_STRIKE_LIMIT: u32 = 64;

/// One invariant violation: where, which invariant, and what happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Simulated time of the offending trace event.
    pub at: Cycles,
    /// Which invariant broke (a stable kebab-case identifier).
    pub kind: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:>12}] {}: {}", self.at, self.kind, self.detail)
    }
}

/// The delivery rules' state for one destination node.
#[derive(Default)]
struct NodeRules {
    /// Highest uid delivered here per (src, job) channel, as
    /// `last_uid[src][job]`.
    last_uid: Vec<Vec<u64>>,
    /// Consecutive extraction-free quanta per buffered job.
    strikes: Vec<u32>,
}

/// Everything the oracle holds, in its one `RefCell`: the ledger, the
/// delivery rules' state and what both kinds of check found. Every table
/// grows on demand, so a new oracle allocates nothing but its handle.
#[derive(Default)]
struct State {
    ledger: MessageLedger,
    /// Indexed by destination node.
    nodes: Vec<NodeRules>,
    page_bound: Option<u64>,
    /// Highest per-node frame count seen in a `PageAlloc` event.
    peak_pages: u64,
    violations: Vec<Violation>,
    /// Span consistency errors, in detection order.
    span_errors: Vec<String>,
}

impl State {
    fn violate(&mut self, at: Cycles, kind: &'static str, detail: String) {
        self.violations.push(Violation { at, kind, detail });
    }

    /// Clears `job`'s drain strikes at `node`.
    fn reset_strikes(&mut self, node: usize, job: usize) {
        if let Some(s) = self
            .nodes
            .get_mut(node)
            .and_then(|n| n.strikes.get_mut(job))
        {
            *s = 0;
        }
    }

    /// Checks a delivery of `uid` that the ledger just folded in as
    /// `observed`.
    fn deliver(
        &mut self,
        at: Cycles,
        observed: Observed,
        node: usize,
        job: usize,
        uid: u64,
        how: &str,
    ) {
        let Some(i) = observed.position() else {
            self.violate(
                at,
                "unknown-delivery",
                format!("{how} of never-launched uid={uid} at node {node} job {job}"),
            );
            return;
        };
        let rec = self.ledger.record(i);
        let (src, dst, ljob) = (rec.src(), rec.dst(), rec.src_job());
        // A declared duplicate may arrive twice.
        let allowed = 1 + u32::from(rec.duplicated());
        let (dropped, deliveries) = (rec.dropped(), rec.deliveries());
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
        // FIFO per (src, dst, job): uids are stamped in launch order, so
        // deliveries on a channel must see non-decreasing uids (equal only
        // for the second copy of a declared duplicate).
        let last = grown(grown(&mut grown(&mut self.nodes, dst).last_uid, src), job);
        if uid >= *last {
            *last = uid;
            return;
        }
        let last = *last;
        self.violate(
            at,
            "fifo-order",
            format!("channel {src}->{dst} job {job}: uid={uid} delivered after uid={last}"),
        );
    }

    fn on_event(&mut self, at: Cycles, ev: &TraceEvent) {
        // An extract must take a message that is in the buffer before it.
        let underflow = matches!(*ev, TraceEvent::BufferExtract { node, uid, .. }
            if !self.ledger.is_resident(node, uid));
        let observed = self.ledger.observe(at, ev);
        span::check_event(&self.ledger, observed, at, ev, &mut self.span_errors);
        match *ev {
            TraceEvent::MsgLaunch { uid, .. } if matches!(observed, Observed::Repeat(_)) => {
                self.violate(at, "uid-reuse", format!("uid={uid} launched twice"));
            }
            TraceEvent::FastUpcall { node, job, uid, .. } => {
                self.deliver(at, observed, node, job, uid, "fast upcall");
            }
            TraceEvent::PollDelivery { node, job, uid, .. } => {
                self.deliver(at, observed, node, job, uid, "poll delivery");
            }
            TraceEvent::BufferInsert { node, uid, .. } => {
                let Some(i) = observed.position() else {
                    self.violate(
                        at,
                        "unknown-delivery",
                        format!("buffer insert of never-launched uid={uid} at node {node}"),
                    );
                    return;
                };
                let rec = self.ledger.record(i);
                let (inserts, dropped) = (rec.inserts(), rec.dropped());
                let allowed = 1 + u32::from(rec.duplicated());
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
                self.reset_strikes(node, job);
                self.deliver(at, observed, node, job, uid, "buffered extract");
            }
            TraceEvent::ModeEnter { node, job } => self.reset_strikes(node, job),
            TraceEvent::ModeExit { node, job } => {
                let residual = self.ledger.buffered(node, job);
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
                self.reset_strikes(node, job);
            }
            TraceEvent::QuantumSwitch {
                node,
                from_job: Some(job),
                ..
            } => {
                // The outgoing job just finished a whole quantum; if it is
                // sitting on buffered messages and never extracted one, that
                // is a strike toward a drain-progress livelock.
                let pending = self.ledger.buffered(node, job);
                if pending > 0 {
                    let s = grown(&mut grown(&mut self.nodes, node).strikes, job);
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
}

/// The trace oracle: one message ledger, checked against the delivery
/// invariants and the span rules as events arrive.
///
/// Cloning is cheap (a non-atomic `Rc` clone) and clones share state, so a
/// test can keep one handle while the trace subscription owns another.
///
/// Like the [`Tracer`] it watches, a checker belongs to the thread that
/// built it; it cannot be sent to another:
///
/// ```compile_fail,E0277
/// fn send<T: Send>() {}
/// send::<fugu_sim::invariant::InvariantChecker>();
/// ```
#[derive(Clone, Default)]
pub struct InvariantChecker {
    inner: Rc<RefCell<State>>,
}

impl std::fmt::Debug for InvariantChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.borrow();
        f.debug_struct("InvariantChecker")
            .field("violations", &st.violations.len())
            .field("peak_pages", &st.peak_pages)
            .finish()
    }
}

impl InvariantChecker {
    /// A checker that collects violations for later inspection.
    pub fn new() -> Self {
        InvariantChecker::default()
    }

    /// Additionally enforces the §5.1 bounded-buffering claim: no node's
    /// frame allocation may exceed `bound` pages.
    pub fn with_page_bound(self, bound: u64) -> Self {
        self.inner.borrow_mut().page_bound = Some(bound);
        self
    }

    /// Subscribes this oracle to `tracer`, once, under the ledger's
    /// categories. Attaching widens the tracer's effective mask, so
    /// emission sites pay for event construction only while an oracle (or
    /// another sink) is watching. Attach before the machine runs so every
    /// event of the run is observed.
    pub fn attach(&self, tracer: &Tracer) {
        let handle = self.clone();
        tracer.subscribe(MessageLedger::mask(), move |at, ev| {
            handle.inner.borrow_mut().on_event(at, ev);
        });
    }

    /// Violations observed so far (empty is the goal).
    pub fn violations(&self) -> Vec<Violation> {
        self.inner.borrow().violations.clone()
    }

    /// Launch, delivery and per-path counts summed over the ledger.
    pub fn tally(&self) -> Tally {
        self.inner.borrow().ledger.tally()
    }

    /// Highest per-node frame count seen in a `PageAlloc` event.
    pub fn peak_pages(&self) -> u64 {
        self.inner.borrow().peak_pages
    }

    /// Messages launched, never declared dropped, and never delivered —
    /// in flight (or lost) when the run ended. A retry protocol makes this
    /// benign; a transport bug makes it grow with the drop rate.
    pub fn undelivered(&self) -> u64 {
        self.inner.borrow().ledger.undelivered()
    }

    /// Builds the span profile from the ledger, handing the ledger and the
    /// span errors over to the report: afterwards [`Self::tally`] and
    /// [`Self::undelivered`] read a fresh, empty ledger, so read them
    /// first. Violations and the page peak are kept.
    pub fn finish(&self) -> ProfileReport {
        let mut st = self.inner.borrow_mut();
        let ledger = std::mem::take(&mut st.ledger);
        ProfileReport::from_ledger(ledger, std::mem::take(&mut st.span_errors))
    }

    /// Panics with every collected violation if any invariant broke.
    pub fn assert_clean(&self) {
        let vs = self.violations();
        if !vs.is_empty() {
            let mut msg = format!("{} delivery invariant violation(s):\n", vs.len());
            for v in &vs {
                msg.push_str(&format!("  {v}\n"));
            }
            panic!("{msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CategoryMask;

    fn checker_and_tracer() -> (InvariantChecker, Tracer) {
        let tracer = Tracer::recorder(0, CategoryMask::NONE);
        let checker = InvariantChecker::new();
        checker.attach(&tracer);
        (checker, tracer)
    }

    fn launch(tracer: &Tracer, uid: u64, src: usize, dst: usize, job: usize) {
        tracer.emit(TraceEvent::MsgLaunch {
            node: src,
            job,
            dst,
            words: 1,
            uid,
        });
    }

    fn upcall(tracer: &Tracer, uid: u64, node: usize, job: usize) {
        tracer.emit(TraceEvent::FastUpcall {
            node,
            job,
            words: 1,
            uid,
        });
    }

    #[test]
    fn clean_exactly_once_stream_passes() {
        let (checker, tracer) = checker_and_tracer();
        for uid in 1..=5 {
            launch(&tracer, uid, 0, 1, 0);
            upcall(&tracer, uid, 1, 0);
        }
        checker.assert_clean();
        let tally = checker.tally();
        assert_eq!(tally.launched, 5);
        assert_eq!(tally.delivered, 5);
        assert_eq!(checker.undelivered(), 0);
    }

    #[test]
    fn double_delivery_is_flagged() {
        let (checker, tracer) = checker_and_tracer();
        launch(&tracer, 1, 0, 1, 0);
        upcall(&tracer, 1, 1, 0);
        upcall(&tracer, 1, 1, 0);
        let vs = checker.violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, "over-delivery");
    }

    #[test]
    fn declared_duplicate_may_deliver_twice_but_not_thrice() {
        let (checker, tracer) = checker_and_tracer();
        launch(&tracer, 1, 0, 1, 0);
        tracer.emit(TraceEvent::FaultDuplicate {
            node: 0,
            dst: 1,
            uid: 1,
        });
        upcall(&tracer, 1, 1, 0);
        upcall(&tracer, 1, 1, 0);
        checker.assert_clean();
        upcall(&tracer, 1, 1, 0);
        assert_eq!(checker.violations()[0].kind, "over-delivery");
    }

    #[test]
    fn dropped_message_must_stay_dropped() {
        let (checker, tracer) = checker_and_tracer();
        launch(&tracer, 1, 0, 1, 0);
        tracer.emit(TraceEvent::FaultDrop {
            node: 0,
            dst: 1,
            uid: 1,
        });
        assert_eq!(checker.undelivered(), 0, "a declared drop is accounted for");
        upcall(&tracer, 1, 1, 0);
        assert_eq!(checker.violations()[0].kind, "dropped-delivered");
    }

    #[test]
    fn out_of_order_delivery_is_flagged() {
        let (checker, tracer) = checker_and_tracer();
        launch(&tracer, 1, 0, 1, 0);
        launch(&tracer, 2, 0, 1, 0);
        upcall(&tracer, 2, 1, 0);
        upcall(&tracer, 1, 1, 0);
        assert_eq!(checker.violations()[0].kind, "fifo-order");
    }

    #[test]
    fn independent_channels_do_not_interfere() {
        let (checker, tracer) = checker_and_tracer();
        launch(&tracer, 1, 0, 2, 0);
        launch(&tracer, 2, 1, 2, 0);
        // Different sources: uid 2 may land before uid 1.
        upcall(&tracer, 2, 2, 0);
        upcall(&tracer, 1, 2, 0);
        checker.assert_clean();
    }

    #[test]
    fn mode_exit_with_residual_buffer_is_flagged() {
        let (checker, tracer) = checker_and_tracer();
        launch(&tracer, 1, 0, 1, 0);
        tracer.emit(TraceEvent::ModeEnter { node: 1, job: 0 });
        tracer.emit(TraceEvent::BufferInsert {
            node: 1,
            job: 0,
            words: 1,
            swapped: false,
            uid: 1,
        });
        tracer.emit(TraceEvent::ModeExit { node: 1, job: 0 });
        assert_eq!(checker.violations()[0].kind, "mode-exit-residual");
    }

    #[test]
    fn buffered_round_trip_is_clean_and_counts_one_delivery() {
        let (checker, tracer) = checker_and_tracer();
        launch(&tracer, 1, 0, 1, 0);
        tracer.emit(TraceEvent::ModeEnter { node: 1, job: 0 });
        tracer.emit(TraceEvent::BufferInsert {
            node: 1,
            job: 0,
            words: 1,
            swapped: false,
            uid: 1,
        });
        tracer.emit(TraceEvent::BufferExtract {
            node: 1,
            job: 0,
            words: 1,
            swapped: false,
            uid: 1,
        });
        tracer.emit(TraceEvent::ModeExit { node: 1, job: 0 });
        checker.assert_clean();
        let tally = checker.tally();
        assert_eq!((tally.delivered, tally.fast, tally.buffered), (1, 0, 1));
    }

    #[test]
    fn drain_livelock_is_flagged_after_strike_limit() {
        let (checker, tracer) = checker_and_tracer();
        launch(&tracer, 1, 0, 1, 0);
        tracer.emit(TraceEvent::ModeEnter { node: 1, job: 0 });
        tracer.emit(TraceEvent::BufferInsert {
            node: 1,
            job: 0,
            words: 1,
            swapped: false,
            uid: 1,
        });
        for _ in 0..DRAIN_STRIKE_LIMIT {
            tracer.emit(TraceEvent::QuantumSwitch {
                node: 1,
                from_job: Some(0),
                to_job: Some(1),
            });
        }
        assert_eq!(checker.violations()[0].kind, "drain-stalled");
    }

    #[test]
    fn page_bound_is_enforced_when_configured() {
        let (_, tracer) = checker_and_tracer();
        let bounded = InvariantChecker::new().with_page_bound(4);
        bounded.attach(&tracer);
        tracer.emit(TraceEvent::PageAlloc { node: 0, in_use: 4 });
        bounded.assert_clean();
        tracer.emit(TraceEvent::PageAlloc { node: 0, in_use: 5 });
        assert_eq!(bounded.violations()[0].kind, "page-bound");
        assert_eq!(bounded.peak_pages(), 5);
    }
}
