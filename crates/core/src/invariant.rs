//! Online delivery-guarantee invariant checking.
//!
//! Two-case delivery's promise (§4.3, §5.1) is that no matter which path a
//! message takes — fast upcall, polled extraction, or transparent replay
//! from the virtual buffer — delivery is *exactly once*, *in order per
//! sender*, and buffered backlogs both drain and stay bounded. The fault
//! injector ([`fugu_sim::fault`]) exists to attack those guarantees; this
//! module watches the trace stream and verifies they hold anyway.
//!
//! An [`InvariantChecker`] subscribes to a machine's
//! [`Tracer`](fugu_sim::trace::Tracer) and validates, online:
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
//!
//! The per-message lifecycle the rules read (launch, deliveries, buffer
//! inserts, declared drops and duplicates, buffer residency) lives in a
//! [`MessageLedger`], the model every trace oracle shares; the checker
//! keeps only its own rule state: the last uid delivered per channel, the
//! drain strikes and the page bound.
//!
//! Violations carry a structured `{at, kind, detail}` diagnostic and are
//! collected for inspection ([`InvariantChecker::violations`],
//! [`InvariantChecker::assert_clean`]).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use fugu_sim::trace::{CategoryMask, Tracer};
//! use udm::invariant::InvariantChecker;
//! use udm::{JobSpec, Machine, MachineConfig, Program, UserCtx};
//!
//! struct Ping;
//! impl Program for Ping {
//!     fn main(&self, ctx: &mut UserCtx<'_>) {
//!         if ctx.node() == 0 {
//!             ctx.send(1, 0, &[1]);
//!         } else {
//!             ctx.begin_atomic();
//!             while !ctx.poll() {
//!                 ctx.compute(10);
//!             }
//!             ctx.end_atomic();
//!         }
//!     }
//!     fn handler(&self, _ctx: &mut UserCtx<'_>, _env: &udm::Envelope) {}
//! }
//!
//! let mut m = Machine::new(MachineConfig { nodes: 2, ..Default::default() });
//! let tracer = Tracer::recorder(0, CategoryMask::NONE);
//! let checker = InvariantChecker::new();
//! checker.attach(&tracer);
//! m.set_tracer(tracer);
//! m.add_job(JobSpec::new("ping", Arc::new(Ping)));
//! m.run();
//! checker.assert_clean();
//! assert_eq!(checker.stats().delivered, 1);
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use fugu_net::NodeId;
use fugu_sim::ledger::{MessageLedger, Observed};
use fugu_sim::trace::{TraceEvent, Tracer};
use fugu_sim::Cycles;

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

/// Aggregate counters the checker accumulates alongside its checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvariantStats {
    /// Messages launched (uid stamped).
    pub launched: u64,
    /// Deliveries observed (fast upcall, poll, or buffered extract).
    pub delivered: u64,
    /// Highest per-node frame count seen in a `PageAlloc` event.
    pub peak_pages: u64,
}

#[derive(Default)]
struct State {
    ledger: MessageLedger,
    /// Highest uid delivered per (src, dst, job) channel.
    last_uid: HashMap<(NodeId, NodeId, usize), u64>,
    /// Consecutive extraction-free quanta per buffered (node, job).
    strikes: HashMap<(NodeId, usize), u32>,
    page_bound: Option<u64>,
    stats: InvariantStats,
    violations: Vec<Violation>,
}

impl State {
    fn violate(&mut self, at: Cycles, kind: &'static str, detail: String) {
        self.violations.push(Violation { at, kind, detail });
    }

    fn deliver(&mut self, at: Cycles, node: NodeId, job: usize, uid: u64, how: &str) {
        self.stats.delivered += 1;
        let Some(rec) = self.ledger.get(uid) else {
            self.violate(
                at,
                "unknown-delivery",
                format!("{how} of never-launched uid={uid} at node {node} job {job}"),
            );
            return;
        };
        let (src, dst, ljob) = (rec.src, rec.dst, rec.src_job);
        // A declared duplicate may arrive twice.
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
        // FIFO per (src, dst, job): uids are stamped in launch order, so
        // deliveries on a channel must see non-decreasing uids (equal only
        // for the second copy of a declared duplicate).
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

    fn on_event(&mut self, at: Cycles, ev: &TraceEvent) {
        // An extract must take a message that is in the buffer before it.
        let underflow = matches!(*ev, TraceEvent::BufferExtract { node, uid, .. }
            if !self.ledger.is_resident(node, uid));
        let observed = self.ledger.observe(at, ev);
        match *ev {
            TraceEvent::MsgLaunch { uid, .. } => {
                self.stats.launched += 1;
                if observed == Observed::Repeat {
                    self.violate(at, "uid-reuse", format!("uid={uid} launched twice"));
                }
            }
            TraceEvent::FastUpcall { node, job, uid, .. } => {
                self.deliver(at, node, job, uid, "fast upcall");
            }
            TraceEvent::PollDelivery { node, job, uid, .. } => {
                self.deliver(at, node, job, uid, "poll delivery");
            }
            TraceEvent::BufferInsert { node, uid, .. } => {
                let Some(rec) = self.ledger.get(uid) else {
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
                self.strikes.insert((node, job), 0);
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
                self.stats.peak_pages = self.stats.peak_pages.max(in_use as u64);
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

/// A delivery-guarantee checker attached to a machine's trace stream.
///
/// Cloning is cheap and clones share state, so a test can keep one handle
/// while the trace subscription owns another.
#[derive(Clone, Default)]
pub struct InvariantChecker {
    inner: Arc<Mutex<State>>,
}

impl std::fmt::Debug for InvariantChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.lock().unwrap();
        f.debug_struct("InvariantChecker")
            .field("violations", &st.violations.len())
            .field("stats", &st.stats)
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
        self.inner.lock().unwrap().page_bound = Some(bound);
        self
    }

    /// Subscribes this checker to `tracer`. Call before
    /// [`Machine::set_tracer`](crate::Machine::set_tracer) so every event
    /// of the run is observed.
    pub fn attach(&self, tracer: &Tracer) {
        let handle = self.clone();
        tracer.subscribe(MessageLedger::mask(), move |at, ev| {
            handle.inner.lock().unwrap().on_event(at, ev);
        });
    }

    /// Violations observed so far (empty is the goal).
    pub fn violations(&self) -> Vec<Violation> {
        self.inner.lock().unwrap().violations.clone()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> InvariantStats {
        self.inner.lock().unwrap().stats
    }

    /// Messages launched, never declared dropped, and never delivered —
    /// in flight (or lost) when the run ended. A retry protocol makes this
    /// benign; a transport bug makes it grow with the drop rate.
    pub fn undelivered(&self) -> u64 {
        self.inner.lock().unwrap().ledger.undelivered()
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
    use fugu_sim::trace::CategoryMask;

    fn checker_and_tracer() -> (InvariantChecker, Tracer) {
        let tracer = Tracer::recorder(0, CategoryMask::NONE);
        let checker = InvariantChecker::new();
        checker.attach(&tracer);
        (checker, tracer)
    }

    fn launch(tracer: &Tracer, uid: u64, src: NodeId, dst: NodeId, job: usize) {
        tracer.emit(TraceEvent::MsgLaunch {
            node: src,
            job,
            dst,
            words: 1,
            uid,
        });
    }

    fn upcall(tracer: &Tracer, uid: u64, node: NodeId, job: usize) {
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
        let stats = checker.stats();
        assert_eq!(stats.launched, 5);
        assert_eq!(stats.delivered, 5);
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
        assert_eq!(checker.stats().delivered, 1);
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
        assert_eq!(bounded.stats().peak_pages, 5);
    }
}
