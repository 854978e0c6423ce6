//! Structured trace events for the delivery machinery.
//!
//! The paper's argument is made by *observing* two-case delivery: which
//! messages took the fast NIC path, when a node fell into buffered mode, how
//! often the atomicity timer revoked interrupt-disable, how many physical
//! pages backed the software buffer. This module provides the typed event
//! stream those observations flow through:
//!
//! * [`TraceEvent`] — one variant per interesting occurrence, grouped into
//!   [`CategoryMask`] categories so consumers pay only for what they watch;
//! * [`Tracer`] — a cheaply cloneable handle shared by every instrumented
//!   component on the machine's one thread. It can record events into a
//!   bounded ring buffer, fan them out to subscriber callbacks, or both;
//!   when nothing is attached a single `Cell` read short-circuits every
//!   emission site.
//!
//! Simulated time is stamped by whoever owns the clock (the machine's event
//! loop calls [`Tracer::set_time`]) so emission sites do not need to thread
//! the current cycle count around.
//!
//! # Example
//!
//! ```
//! use fugu_sim::trace::{CategoryMask, TraceEvent, Tracer};
//!
//! let tracer = Tracer::recorder(64, CategoryMask::ALL);
//! tracer.set_time(1_000);
//! tracer.emit(TraceEvent::ModeEnter { node: 3, job: 0 });
//! let records = tracer.take_records();
//! assert_eq!(records.len(), 1);
//! assert_eq!(records[0].at, 1_000);
//! assert_eq!(records[0].event, TraceEvent::ModeEnter { node: 3, job: 0 });
//! ```

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::ops::BitOr;
use std::rc::Rc;

use crate::Cycles;

/// A set of trace categories, used both to tag events and to filter them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CategoryMask(u32);

impl CategoryMask {
    /// The empty set: nothing enabled.
    pub const NONE: CategoryMask = CategoryMask(0);
    /// Message launches and arrivals.
    pub const MSG: CategoryMask = CategoryMask(1 << 0);
    /// Fast-path deliveries into user code (upcalls and polls).
    pub const UPCALL: CategoryMask = CategoryMask(1 << 1);
    /// Software-buffer inserts and extracts (the second delivery case).
    pub const BUFFER: CategoryMask = CategoryMask(1 << 2);
    /// Buffered-mode entry/exit and NIC divert flips.
    pub const MODE: CategoryMask = CategoryMask(1 << 3);
    /// Atomicity-timer revocations and polling-watchdog fires.
    pub const ATOMICITY: CategoryMask = CategoryMask(1 << 4);
    /// Buffer-overflow advise/suspend decisions.
    pub const OVERFLOW: CategoryMask = CategoryMask(1 << 5);
    /// Page-frame allocation, release and page faults.
    pub const VM: CategoryMask = CategoryMask(1 << 6);
    /// Gang-scheduler quantum switches.
    pub const SCHED: CategoryMask = CategoryMask(1 << 7);
    /// Injected faults (drops, duplicates, stalls — see [`crate::fault`]).
    pub const FAULT: CategoryMask = CategoryMask(1 << 8);
    /// Message-lifecycle span boundaries consumed by the profiler
    /// ([`crate::span`]): handler-completion marks.
    pub const SPAN: CategoryMask = CategoryMask(1 << 9);
    /// Every category.
    pub const ALL: CategoryMask = CategoryMask(0x3FF);

    /// Every name [`CategoryMask::parse`] accepts, with the mask it selects.
    pub const NAMES: [(&'static str, CategoryMask); 11] = [
        ("msg", CategoryMask::MSG),
        ("upcall", CategoryMask::UPCALL),
        ("buffer", CategoryMask::BUFFER),
        ("mode", CategoryMask::MODE),
        ("atomicity", CategoryMask::ATOMICITY),
        ("overflow", CategoryMask::OVERFLOW),
        ("vm", CategoryMask::VM),
        ("sched", CategoryMask::SCHED),
        ("fault", CategoryMask::FAULT),
        ("span", CategoryMask::SPAN),
        ("all", CategoryMask::ALL),
    ];

    /// Raw bit representation.
    pub fn bits(self) -> u32 {
        self.0
    }

    /// True if the two sets share any category.
    pub fn intersects(self, other: CategoryMask) -> bool {
        self.0 & other.0 != 0
    }

    /// True if no category is enabled.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Parses a comma-separated list of category names (as used by the
    /// `FUGU_TRACE` environment variable) from [`CategoryMask::NAMES`],
    /// case-insensitively. Unknown names are ignored; use
    /// [`CategoryMask::parse_report`] to find out which names were not
    /// recognised.
    ///
    /// # Example
    ///
    /// ```
    /// use fugu_sim::trace::CategoryMask;
    ///
    /// let m = CategoryMask::parse("msg,buffer");
    /// assert!(m.intersects(CategoryMask::MSG));
    /// assert!(m.intersects(CategoryMask::BUFFER));
    /// assert!(!m.intersects(CategoryMask::VM));
    /// assert_eq!(CategoryMask::parse("all"), CategoryMask::ALL);
    /// ```
    pub fn parse(names: &str) -> CategoryMask {
        CategoryMask::parse_report(names).0
    }

    /// Like [`CategoryMask::parse`], but also returns the names that did not
    /// match any category (trimmed, in input order; empty segments are not
    /// reported, so trailing commas stay harmless).
    ///
    /// # Example
    ///
    /// ```
    /// use fugu_sim::trace::CategoryMask;
    ///
    /// let (m, unknown) = CategoryMask::parse_report("msg,nope,");
    /// assert_eq!(m, CategoryMask::MSG);
    /// assert_eq!(unknown, ["nope"]);
    /// ```
    pub fn parse_report(names: &str) -> (CategoryMask, Vec<String>) {
        let mut mask = CategoryMask::NONE;
        let mut unknown = Vec::new();
        for name in names.split(',') {
            let name = name.trim().to_ascii_lowercase();
            if name.is_empty() {
                continue;
            }
            match CategoryMask::NAMES.iter().find(|(known, _)| *known == name) {
                Some(&(_, m)) => mask = mask | m,
                None => unknown.push(name),
            }
        }
        (mask, unknown)
    }
}

impl BitOr for CategoryMask {
    type Output = CategoryMask;
    fn bitor(self, rhs: CategoryMask) -> CategoryMask {
        CategoryMask(self.0 | rhs.0)
    }
}

/// One observed occurrence inside the simulated machine.
///
/// Node, job and page identifiers are plain indices to keep this crate free
/// of dependencies on the machine layers above it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A user program launched a message from `node` toward `dst`.
    MsgLaunch {
        /// Sending node.
        node: usize,
        /// Sending job index.
        job: usize,
        /// Destination node.
        dst: usize,
        /// Total message length in words (header + payload).
        words: usize,
        /// Machine-wide unique message id, stamped at launch from one
        /// counter, so uids run densely from 1. The trace oracle indexes
        /// its message records by uid, at 4 bytes per uid up to the
        /// largest launched, and panics on a launch uid of `u32::MAX` or
        /// more.
        uid: u64,
    },
    /// A message reached `node`'s NIC input queue.
    MsgArrive {
        /// Receiving node.
        node: usize,
        /// Input-queue depth after the arrival.
        qlen: usize,
        /// Unique id of the arriving message.
        uid: u64,
    },
    /// A message was delivered by interrupting the running program (first
    /// case: the fast path).
    FastUpcall {
        /// Delivering node.
        node: usize,
        /// Receiving job index.
        job: usize,
        /// Message length in words.
        words: usize,
        /// Unique id of the delivered message.
        uid: u64,
    },
    /// A message was delivered because the program polled for it while the
    /// NIC still held it (also the fast path, without an interrupt).
    PollDelivery {
        /// Delivering node.
        node: usize,
        /// Receiving job index.
        job: usize,
        /// Message length in words.
        words: usize,
        /// Unique id of the delivered message.
        uid: u64,
    },
    /// The kernel moved a message from the NIC into the software buffer
    /// (second case).
    BufferInsert {
        /// Buffering node.
        node: usize,
        /// Owning job index.
        job: usize,
        /// Message length in words.
        words: usize,
        /// True if the insert went to swapped (paged-out) storage.
        swapped: bool,
        /// Unique id of the buffered message.
        uid: u64,
    },
    /// A buffered message was handed to its program.
    BufferExtract {
        /// Extracting node.
        node: usize,
        /// Receiving job index.
        job: usize,
        /// Message length in words.
        words: usize,
        /// True if the message had to be paged back in first.
        swapped: bool,
        /// Unique id of the extracted message.
        uid: u64,
    },
    /// `node` entered buffered mode: arrivals now divert to the kernel.
    ModeEnter {
        /// The node changing mode.
        node: usize,
        /// The job whose delivery is now buffered.
        job: usize,
    },
    /// `node` left buffered mode and resumed fast-path delivery.
    ModeExit {
        /// The node changing mode.
        node: usize,
        /// The job whose buffer drained.
        job: usize,
    },
    /// The NIC divert register flipped.
    NicDivert {
        /// The node whose NIC changed.
        node: usize,
        /// New divert state.
        on: bool,
    },
    /// The atomicity timer expired and revoked a user's interrupt-disable.
    AtomicityRevoke {
        /// The node whose timer fired.
        node: usize,
        /// The job that held atomicity too long.
        job: usize,
    },
    /// The polling watchdog fired (ablation variant of revocation).
    WatchdogFire {
        /// The node whose watchdog fired.
        node: usize,
        /// The job being watched.
        job: usize,
    },
    /// Overflow control advised gang-scheduling the buffer's owner.
    OverflowAdvise {
        /// The node running low on frames.
        node: usize,
        /// Free frames remaining at the decision.
        free_frames: usize,
    },
    /// Overflow control suspended message injection globally.
    OverflowSuspend {
        /// The node that ran out of frames.
        node: usize,
        /// Free frames remaining at the decision.
        free_frames: usize,
    },
    /// A physical page frame was allocated to the software buffer.
    PageAlloc {
        /// The allocating node.
        node: usize,
        /// Frames in use after the allocation.
        in_use: usize,
    },
    /// Physical page frames were returned.
    PageRelease {
        /// The releasing node.
        node: usize,
        /// Frames in use after the release.
        in_use: usize,
    },
    /// A user program touched an unmapped page.
    PageFault {
        /// The faulting node.
        node: usize,
        /// The faulting job index.
        job: usize,
        /// The virtual page number touched.
        page: usize,
    },
    /// A delivered message's handler finished executing.
    ///
    /// Emitted when the processor retires the upcall and returns to the
    /// interrupted context. The trace clock at emission is the event-loop
    /// time, which can lag the cycle the handler actually retired at, so the
    /// retirement cycle is carried explicitly in `end` (the same pattern as
    /// [`TraceEvent::FaultNicStall::until`]).
    HandlerDone {
        /// The node whose handler completed.
        node: usize,
        /// The job the handler ran for.
        job: usize,
        /// Unique id of the message the handler consumed.
        uid: u64,
        /// Cycle the handler retired at (processor busy-until time).
        end: Cycles,
    },
    /// The gang scheduler switched `node` to a different job.
    QuantumSwitch {
        /// The switching node.
        node: usize,
        /// Job running before the switch, if any.
        from_job: Option<usize>,
        /// Job running after the switch, if any.
        to_job: Option<usize>,
    },
    /// Fault injection dropped a launched message.
    FaultDrop {
        /// Sending node.
        node: usize,
        /// Intended destination.
        dst: usize,
        /// Unique id of the dropped message.
        uid: u64,
    },
    /// Fault injection duplicated a launched message.
    FaultDuplicate {
        /// Sending node.
        node: usize,
        /// Destination (both copies).
        dst: usize,
        /// Unique id shared by both copies.
        uid: u64,
    },
    /// Fault injection added extra transit delay to a message.
    FaultDelay {
        /// Sending node.
        node: usize,
        /// Destination.
        dst: usize,
        /// Unique id of the delayed message.
        uid: u64,
        /// Extra transit cycles added.
        extra: Cycles,
    },
    /// Fault injection opened a NIC input stall window.
    FaultNicStall {
        /// The stalled node.
        node: usize,
        /// Simulated time the window closes.
        until: Cycles,
    },
    /// Fault injection force-failed a frame allocation.
    FaultFrameFail {
        /// The node whose allocation failed.
        node: usize,
    },
    /// Fault injection forced a handler page fault, diverting an
    /// interrupt-driven delivery onto the buffered path.
    FaultHandlerFault {
        /// The affected node.
        node: usize,
        /// The job whose delivery was diverted.
        job: usize,
    },
}

impl TraceEvent {
    /// The category this event belongs to.
    pub fn category(&self) -> CategoryMask {
        match self {
            TraceEvent::MsgLaunch { .. } | TraceEvent::MsgArrive { .. } => CategoryMask::MSG,
            TraceEvent::FastUpcall { .. } | TraceEvent::PollDelivery { .. } => CategoryMask::UPCALL,
            TraceEvent::BufferInsert { .. } | TraceEvent::BufferExtract { .. } => {
                CategoryMask::BUFFER
            }
            TraceEvent::ModeEnter { .. }
            | TraceEvent::ModeExit { .. }
            | TraceEvent::NicDivert { .. } => CategoryMask::MODE,
            TraceEvent::AtomicityRevoke { .. } | TraceEvent::WatchdogFire { .. } => {
                CategoryMask::ATOMICITY
            }
            TraceEvent::OverflowAdvise { .. } | TraceEvent::OverflowSuspend { .. } => {
                CategoryMask::OVERFLOW
            }
            TraceEvent::PageAlloc { .. }
            | TraceEvent::PageRelease { .. }
            | TraceEvent::PageFault { .. } => CategoryMask::VM,
            TraceEvent::HandlerDone { .. } => CategoryMask::SPAN,
            TraceEvent::QuantumSwitch { .. } => CategoryMask::SCHED,
            TraceEvent::FaultDrop { .. }
            | TraceEvent::FaultDuplicate { .. }
            | TraceEvent::FaultDelay { .. }
            | TraceEvent::FaultNicStall { .. }
            | TraceEvent::FaultFrameFail { .. }
            | TraceEvent::FaultHandlerFault { .. } => CategoryMask::FAULT,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::MsgLaunch {
                node,
                job,
                dst,
                words,
                uid,
            } => {
                write!(
                    f,
                    "msg-launch node={node} job={job} dst={dst} words={words} uid={uid}"
                )
            }
            TraceEvent::MsgArrive { node, qlen, uid } => {
                write!(f, "msg-arrive node={node} qlen={qlen} uid={uid}")
            }
            TraceEvent::FastUpcall {
                node,
                job,
                words,
                uid,
            } => {
                write!(
                    f,
                    "fast-upcall node={node} job={job} words={words} uid={uid}"
                )
            }
            TraceEvent::PollDelivery {
                node,
                job,
                words,
                uid,
            } => {
                write!(
                    f,
                    "poll-delivery node={node} job={job} words={words} uid={uid}"
                )
            }
            TraceEvent::BufferInsert {
                node,
                job,
                words,
                swapped,
                uid,
            } => {
                write!(
                    f,
                    "buffer-insert node={node} job={job} words={words} swapped={swapped} uid={uid}"
                )
            }
            TraceEvent::BufferExtract {
                node,
                job,
                words,
                swapped,
                uid,
            } => {
                write!(
                    f,
                    "buffer-extract node={node} job={job} words={words} swapped={swapped} uid={uid}"
                )
            }
            TraceEvent::ModeEnter { node, job } => write!(f, "mode-enter node={node} job={job}"),
            TraceEvent::ModeExit { node, job } => write!(f, "mode-exit node={node} job={job}"),
            TraceEvent::NicDivert { node, on } => write!(f, "nic-divert node={node} on={on}"),
            TraceEvent::AtomicityRevoke { node, job } => {
                write!(f, "atomicity-revoke node={node} job={job}")
            }
            TraceEvent::WatchdogFire { node, job } => {
                write!(f, "watchdog-fire node={node} job={job}")
            }
            TraceEvent::OverflowAdvise { node, free_frames } => {
                write!(f, "overflow-advise node={node} free={free_frames}")
            }
            TraceEvent::OverflowSuspend { node, free_frames } => {
                write!(f, "overflow-suspend node={node} free={free_frames}")
            }
            TraceEvent::PageAlloc { node, in_use } => {
                write!(f, "page-alloc node={node} in_use={in_use}")
            }
            TraceEvent::PageRelease { node, in_use } => {
                write!(f, "page-release node={node} in_use={in_use}")
            }
            TraceEvent::PageFault { node, job, page } => {
                write!(f, "page-fault node={node} job={job} page={page}")
            }
            TraceEvent::HandlerDone {
                node,
                job,
                uid,
                end,
            } => {
                write!(f, "handler-done node={node} job={job} uid={uid} end={end}")
            }
            TraceEvent::QuantumSwitch {
                node,
                from_job,
                to_job,
            } => {
                write!(
                    f,
                    "quantum-switch node={node} from={} to={}",
                    fmt_job(*from_job),
                    fmt_job(*to_job)
                )
            }
            TraceEvent::FaultDrop { node, dst, uid } => {
                write!(f, "fault-drop node={node} dst={dst} uid={uid}")
            }
            TraceEvent::FaultDuplicate { node, dst, uid } => {
                write!(f, "fault-duplicate node={node} dst={dst} uid={uid}")
            }
            TraceEvent::FaultDelay {
                node,
                dst,
                uid,
                extra,
            } => {
                write!(
                    f,
                    "fault-delay node={node} dst={dst} uid={uid} extra={extra}"
                )
            }
            TraceEvent::FaultNicStall { node, until } => {
                write!(f, "fault-nic-stall node={node} until={until}")
            }
            TraceEvent::FaultFrameFail { node } => {
                write!(f, "fault-frame-fail node={node}")
            }
            TraceEvent::FaultHandlerFault { node, job } => {
                write!(f, "fault-handler-fault node={node} job={job}")
            }
        }
    }
}

fn fmt_job(j: Option<usize>) -> String {
    match j {
        Some(j) => j.to_string(),
        None => "-".to_string(),
    }
}

/// A timestamped [`TraceEvent`] as stored by the ring-buffer recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time the event was emitted at.
    pub at: Cycles,
    /// The event itself.
    pub event: TraceEvent,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>12}] {}", self.at, self.event)
    }
}

/// A subscriber callback: invoked synchronously with the emission time and
/// the event, in emission order.
type Subscriber = Box<dyn FnMut(Cycles, &TraceEvent)>;

struct Sinks {
    ring_mask: CategoryMask,
    capacity: usize,
    ring: VecDeque<TraceRecord>,
    dropped: u64,
    subscribers: Vec<(CategoryMask, Subscriber)>,
}

impl Sinks {
    fn effective_mask(&self) -> u32 {
        let ring = if self.capacity > 0 {
            self.ring_mask.bits()
        } else {
            0
        };
        self.subscribers
            .iter()
            .fold(ring, |acc, (m, _)| acc | m.bits())
    }
}

struct Inner {
    /// Union of the ring mask and every subscriber mask; the only thing an
    /// emission site touches when tracing is disabled.
    mask: Cell<u32>,
    now: Cell<Cycles>,
    sinks: RefCell<Sinks>,
}

/// A shared handle to a trace sink.
///
/// Cloning is cheap (a non-atomic `Rc` clone); all clones feed the same
/// ring buffer and subscriber list. Components hold a clone and call
/// [`Tracer::emit`] or [`Tracer::emit_with`]; the clock owner calls
/// [`Tracer::set_time`].
///
/// # Example: counting events with a subscriber
///
/// ```
/// use std::cell::Cell;
/// use std::rc::Rc;
/// use fugu_sim::trace::{CategoryMask, TraceEvent, Tracer};
///
/// let tracer = Tracer::disabled();
/// let seen = Rc::new(Cell::new(0u64));
/// let seen2 = Rc::clone(&seen);
/// tracer.subscribe(CategoryMask::VM, move |_, _| seen2.set(seen2.get() + 1));
/// tracer.emit(TraceEvent::PageAlloc { node: 0, in_use: 1 });
/// tracer.emit(TraceEvent::ModeEnter { node: 0, job: 0 }); // filtered out: not VM
/// assert_eq!(seen.get(), 1);
/// ```
///
/// A tracer belongs to the thread that built it; it cannot be sent to
/// another:
///
/// ```compile_fail,E0277
/// fn send<T: Send>() {}
/// send::<fugu_sim::trace::Tracer>();
/// ```
#[derive(Clone)]
pub struct Tracer {
    inner: Rc<Inner>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("mask", &self.inner.mask.get())
            .field("now", &self.inner.now.get())
            .finish_non_exhaustive()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    fn with_sinks(sinks: Sinks) -> Tracer {
        let mask = sinks.effective_mask();
        Tracer {
            inner: Rc::new(Inner {
                mask: Cell::new(mask),
                now: Cell::new(0),
                sinks: RefCell::new(sinks),
            }),
        }
    }

    /// A tracer with no sinks: every emission reduces to one `Cell` read.
    /// Subscribers can still be attached later.
    pub fn disabled() -> Tracer {
        Tracer::with_sinks(Sinks {
            ring_mask: CategoryMask::NONE,
            capacity: 0,
            ring: VecDeque::new(),
            dropped: 0,
            subscribers: Vec::new(),
        })
    }

    /// A tracer that records up to `capacity` events matching `mask` into a
    /// ring buffer; once full, the oldest record is dropped for each new one
    /// and [`Tracer::dropped`] counts the loss exactly.
    pub fn recorder(capacity: usize, mask: CategoryMask) -> Tracer {
        Tracer::with_sinks(Sinks {
            ring_mask: mask,
            capacity,
            ring: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
            subscribers: Vec::new(),
        })
    }

    /// Builds a tracer from the `FUGU_TRACE` environment variable, a
    /// comma-separated category list (see [`CategoryMask::parse`]). When
    /// any category is selected, a stderr line-printer subscriber is
    /// installed for it; otherwise the tracer starts disabled. Category
    /// names that match nothing draw a one-time stderr warning (misspelling
    /// `buffer` as `buffers` should not silently trace nothing).
    pub fn from_env() -> Tracer {
        let tracer = Tracer::disabled();
        let Ok(names) = std::env::var("FUGU_TRACE") else {
            return tracer;
        };
        let (mask, unknown) = CategoryMask::parse_report(&names);
        if !unknown.is_empty() {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "warning: FUGU_TRACE: unknown categor{} {}; known names: {}",
                    if unknown.len() == 1 { "y" } else { "ies" },
                    unknown.join(", "),
                    CategoryMask::NAMES.map(|(name, _)| name).join(", ")
                );
            });
        }
        if !mask.is_empty() {
            tracer.subscribe(mask, |at, event| {
                eprintln!("[trace {at:>12}] {event}");
            });
        }
        tracer
    }

    /// True if at least one sink wants events in any of `cats`. Emission
    /// sites that need to compute anything beyond the event itself should
    /// guard on this (or use [`Tracer::emit_with`]).
    #[inline]
    pub fn is_enabled(&self, cats: CategoryMask) -> bool {
        self.inner.mask.get() & cats.bits() != 0
    }

    /// Stamps the current simulated time onto subsequent emissions.
    #[inline]
    pub fn set_time(&self, now: Cycles) {
        self.inner.now.set(now);
    }

    /// Emits an event to every interested sink. A no-op (one `Cell` read)
    /// when no sink matches the event's category.
    pub fn emit(&self, event: TraceEvent) {
        if !self.is_enabled(event.category()) {
            return;
        }
        self.dispatch(event);
    }

    /// Emits the event built by `make` only if `cats` is enabled, so
    /// emission sites can skip constructing the event entirely on the
    /// disabled path.
    #[inline]
    pub fn emit_with(&self, cats: CategoryMask, make: impl FnOnce() -> TraceEvent) {
        if self.is_enabled(cats) {
            self.dispatch(make());
        }
    }

    fn dispatch(&self, event: TraceEvent) {
        let at = self.inner.now.get();
        let cat = event.category();
        let mut sinks = self.inner.sinks.borrow_mut();
        if sinks.capacity > 0 && sinks.ring_mask.intersects(cat) {
            if sinks.ring.len() == sinks.capacity {
                sinks.ring.pop_front();
                sinks.dropped += 1;
            }
            sinks.ring.push_back(TraceRecord {
                at,
                event: event.clone(),
            });
        }
        for (mask, callback) in sinks.subscribers.iter_mut() {
            if mask.intersects(cat) {
                callback(at, &event);
            }
        }
    }

    /// Attaches a callback invoked synchronously, in emission order, for
    /// every event matching `mask`. A subscriber must not call back into the
    /// tracer that invokes it: the sinks stay borrowed for the whole
    /// dispatch, so such a call panics.
    pub fn subscribe(
        &self,
        mask: CategoryMask,
        callback: impl FnMut(Cycles, &TraceEvent) + 'static,
    ) {
        let mut sinks = self.inner.sinks.borrow_mut();
        sinks.subscribers.push((mask, Box::new(callback)));
        self.inner.mask.set(sinks.effective_mask());
    }

    /// Drains and returns the recorded ring-buffer contents, oldest first.
    pub fn take_records(&self) -> Vec<TraceRecord> {
        self.inner.sinks.borrow_mut().ring.drain(..).collect()
    }

    /// Copies the recorded ring-buffer contents without draining them.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.inner.sinks.borrow().ring.iter().cloned().collect()
    }

    /// Number of records evicted from the full ring so far.
    pub fn dropped(&self) -> u64 {
        self.inner.sinks.borrow().dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_parses_and_together_they_cover_all() {
        let mut union = CategoryMask::NONE;
        for (name, mask) in CategoryMask::NAMES {
            assert_eq!(CategoryMask::parse_report(name), (mask, Vec::new()));
            assert_eq!(CategoryMask::parse(&name.to_ascii_uppercase()), mask);
            union = union | mask;
        }
        assert_eq!(union, CategoryMask::ALL);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled(CategoryMask::ALL));
        t.emit(TraceEvent::ModeEnter { node: 0, job: 0 });
        assert!(t.take_records().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn recorder_filters_by_category() {
        let t = Tracer::recorder(8, CategoryMask::MODE);
        t.emit(TraceEvent::ModeEnter { node: 1, job: 0 });
        t.emit(TraceEvent::PageAlloc { node: 1, in_use: 3 });
        let recs = t.take_records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].event, TraceEvent::ModeEnter { node: 1, job: 0 });
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let t = Tracer::recorder(2, CategoryMask::ALL);
        for node in 0..5 {
            t.emit(TraceEvent::ModeEnter { node, job: 0 });
        }
        let recs = t.take_records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].event, TraceEvent::ModeEnter { node: 3, job: 0 });
        assert_eq!(recs[1].event, TraceEvent::ModeEnter { node: 4, job: 0 });
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn time_stamps_records() {
        let t = Tracer::recorder(4, CategoryMask::ALL);
        t.set_time(7);
        t.emit(TraceEvent::ModeEnter { node: 0, job: 0 });
        t.set_time(19);
        t.emit(TraceEvent::ModeExit { node: 0, job: 0 });
        let recs = t.take_records();
        assert_eq!(recs[0].at, 7);
        assert_eq!(recs[1].at, 19);
    }

    #[test]
    fn subscriber_enables_mask_on_disabled_tracer() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled(CategoryMask::MSG));
        let seen = Rc::new(RefCell::new(Vec::new()));
        let seen2 = Rc::clone(&seen);
        t.subscribe(CategoryMask::MSG, move |at, ev| {
            seen2.borrow_mut().push((at, ev.clone()));
        });
        assert!(t.is_enabled(CategoryMask::MSG));
        assert!(!t.is_enabled(CategoryMask::VM));
        t.set_time(5);
        t.emit(TraceEvent::MsgArrive {
            node: 2,
            qlen: 1,
            uid: 11,
        });
        t.emit(TraceEvent::PageAlloc { node: 2, in_use: 1 });
        let seen = seen.borrow();
        assert_eq!(
            &*seen,
            &[(
                5,
                TraceEvent::MsgArrive {
                    node: 2,
                    qlen: 1,
                    uid: 11,
                }
            )]
        );
    }

    #[test]
    fn emit_with_skips_construction_when_disabled() {
        let t = Tracer::disabled();
        t.emit_with(CategoryMask::MSG, || {
            panic!("constructor must not run while disabled")
        });
    }

    #[test]
    fn display_formats() {
        let r = TraceRecord {
            at: 12,
            event: TraceEvent::BufferInsert {
                node: 1,
                job: 0,
                words: 3,
                swapped: false,
                uid: 9,
            },
        };
        assert_eq!(
            r.to_string(),
            "[          12] buffer-insert node=1 job=0 words=3 swapped=false uid=9"
        );
        let r = TraceRecord {
            at: 40,
            event: TraceEvent::FaultDrop {
                node: 2,
                dst: 0,
                uid: 17,
            },
        };
        assert_eq!(
            r.to_string(),
            "[          40] fault-drop node=2 dst=0 uid=17"
        );
    }

    #[test]
    fn parse_ignores_unknown_names() {
        assert_eq!(CategoryMask::parse("nope"), CategoryMask::NONE);
        assert_eq!(
            CategoryMask::parse(" vm , sched "),
            CategoryMask::VM | CategoryMask::SCHED
        );
        assert_eq!(CategoryMask::parse("fault"), CategoryMask::FAULT);
        assert_eq!(CategoryMask::parse("span"), CategoryMask::SPAN);
    }

    #[test]
    fn parse_report_names_the_unknowns() {
        let (mask, unknown) = CategoryMask::parse_report("msg, bogus ,sched,wat");
        assert_eq!(mask, CategoryMask::MSG | CategoryMask::SCHED);
        assert_eq!(unknown, ["bogus", "wat"]);
        // Empty segments (trailing commas, doubled separators) are noise,
        // not mistakes worth warning about.
        let (mask, unknown) = CategoryMask::parse_report("vm,,");
        assert_eq!(mask, CategoryMask::VM);
        assert!(unknown.is_empty());
    }

    #[test]
    fn all_covers_every_category() {
        for cat in [
            CategoryMask::MSG,
            CategoryMask::UPCALL,
            CategoryMask::BUFFER,
            CategoryMask::MODE,
            CategoryMask::ATOMICITY,
            CategoryMask::OVERFLOW,
            CategoryMask::VM,
            CategoryMask::SCHED,
            CategoryMask::FAULT,
            CategoryMask::SPAN,
        ] {
            assert!(CategoryMask::ALL.intersects(cat));
        }
    }

    #[test]
    fn clones_share_state() {
        let a = Tracer::recorder(4, CategoryMask::ALL);
        let b = a.clone();
        b.set_time(3);
        b.emit(TraceEvent::ModeEnter { node: 0, job: 0 });
        assert_eq!(a.records().len(), 1);
    }
}
