//! The user-level UDM API: what simulated application code sees.
//!
//! §3 of the paper defines UDM as (1) messages with `inject`/`extract`
//! operations and (2) an explicit atomicity mechanism. [`UserCtx`] is that
//! interface. Application code is an implementation of [`Program`]: a
//! `main` entry point per node plus an Active-Messages-style `handler`
//! invoked for every incoming message, either via simulated user-level
//! interrupt or from a polling loop.
//!
//! Both are `async`: each returns a [`Sim`] future that the machine polls
//! on its own thread, one context at a time. Every `UserCtx` method that
//! acts on the machine is an `async fn`; awaiting it hands one request to
//! the machine through a one-slot exchange and resumes with the answer.
//!
//! Crucially — and this is the paper's *transparent access* principle
//! (§4.3) — nothing in this API reveals whether a message was delivered
//! from the network-interface hardware (fast case) or replayed from the
//! software buffer in virtual memory (buffered case). The machine switches
//! between the two cases freely; user code cannot tell, except by timing.

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::Poll;

use fugu_net::{HandlerId, NodeId, Payload};
use fugu_sim::rng::DetRng;
use fugu_sim::Cycles;

/// A received message as presented to a handler: source node, handler word
/// and payload. The routing header and GID have been consumed by the
/// delivery path (hardware demultiplexing or the software buffer).
///
/// The payload is a [`Payload`] — shared with the message it was delivered
/// from, so constructing an envelope never copies the words. It dereferences
/// to `&[u32]`, so `env.payload[0]` and `&env.payload[4..]` read as before.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sending node.
    pub src: NodeId,
    /// The handler word the sender named.
    pub handler: HandlerId,
    /// Payload words.
    pub payload: Payload,
}

/// Requests a sim-thread makes of the machine: the protocol between
/// [`UserCtx`] and the machine, private to this crate.
#[derive(Debug)]
pub(crate) enum SimCall {
    /// Consume `0` CPU cycles of computation (preemptible by interrupts).
    Compute(Cycles),
    /// Blocking `inject`: describe + launch a message.
    Send {
        /// Destination node.
        dst: NodeId,
        /// Handler word.
        handler: HandlerId,
        /// Payload words (at most 14).
        payload: Payload,
    },
    /// Conditional `injectc`: like `Send` but reports acceptance instead of
    /// blocking.
    TrySend {
        /// Destination node.
        dst: NodeId,
        /// Handler word.
        handler: HandlerId,
        /// Payload words (at most 14).
        payload: Payload,
    },
    /// Poll the message-available flag; if a message is pending, run its
    /// handler (on the handler context) and report `true`.
    PollDispatch,
    /// Poll and extract the pending message raw, without dispatching.
    PollExtract,
    /// Examine the pending message without consuming it (§3's `peek`).
    Peek,
    /// Touch a page of the process's demand-zero heap; may page-fault.
    TouchPage(u32),
    /// Enter an atomic section (disable message interrupts).
    BeginAtomic,
    /// Leave an atomic section.
    EndAtomic,
    /// Deschedule this thread until [`SimCall::Wake`] on the same key.
    Block(u32),
    /// Like [`SimCall::Block`] but with a deadline: responds `Bool(true)`
    /// if woken by [`SimCall::Wake`], `Bool(false)` if `timeout` cycles
    /// elapse first (the wake permit is then left banked for a later
    /// block). Used by retry protocols under fault injection.
    BlockTimeout {
        /// Wake key, as for [`SimCall::Block`].
        key: u32,
        /// Cycles to wait before giving up.
        timeout: Cycles,
    },
    /// Wake the main thread if blocked on the key (otherwise bank a permit).
    Wake(u32),
    /// Read the current simulated time.
    Now,
    /// Handler context only: report completion of the previous handler and
    /// wait for the next dispatch.
    AwaitUpcall,
}

/// Responses paired with [`SimCall`]s.
#[derive(Debug)]
pub(crate) enum SimResp {
    /// Generic acknowledgement.
    Ok,
    /// Boolean result (`TrySend`, `PollDispatch`).
    Bool(bool),
    /// Current simulated time.
    Time(Cycles),
    /// Extracted message, if any.
    Extract(Option<Envelope>),
    /// A message dispatched to the handler context.
    Upcall(Envelope),
}

/// The one-slot request/response cell between the machine and the context
/// it is running. Only one context runs at a time, so one exchange per
/// machine serves them all: a pending context leaves its [`SimCall`] in
/// `call`, and the machine puts the answer in `resp` before polling it
/// again.
#[derive(Default)]
pub(crate) struct Exchange {
    pub(crate) call: Cell<Option<SimCall>>,
    pub(crate) resp: Cell<Option<SimResp>>,
}

/// The future a [`Program`] entry point returns: simulated code that the
/// machine polls on its own thread.
pub type Sim<'a> = Pin<Box<dyn Future<Output = ()> + 'a>>;

/// A simulated parallel program: one gang of processes, one per node.
///
/// A single `Program` value is shared by every node of the job and by both
/// execution contexts (main thread and handler) on each node, so per-node
/// mutable state lives behind interior mutability — conventionally a
/// `Vec<RefCell<State>>` indexed by [`UserCtx::node`]. The machine runs one
/// context at a time on one host thread, so a borrow is never contended as
/// long as it is not held across an `.await`.
pub trait Program: 'static {
    /// Per-node entry point. The job completes when `main` has returned on
    /// every node.
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a>;

    /// Message handler, invoked with interrupts disabled (an atomic
    /// section), either by a *message-available* user interrupt, by a
    /// polling loop, or — transparently — from the software buffer in
    /// buffered mode.
    ///
    /// The default implementation panics: programs that receive messages
    /// must override it.
    fn handler<'a>(&'a self, ctx: &'a mut UserCtx, env: &'a Envelope) -> Sim<'a> {
        let _ = ctx;
        panic!(
            "program received message {:?} but defines no handler",
            env.handler
        );
    }
}

/// Which execution context a [`UserCtx`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtxKind {
    /// The per-node main thread.
    Main,
    /// The handler (upcall) context.
    Handler,
}

/// Handle through which simulated code acts on the machine.
///
/// All methods charge simulated cycles according to the machine's
/// [`CostModel`](fugu_glaze::CostModel); see each method for which Table 4/5
/// entry applies.
pub struct UserCtx {
    exchange: Rc<Exchange>,
    node: NodeId,
    nodes: usize,
    job: usize,
    kind: CtxKind,
    faults_active: bool,
    rng: DetRng,
}

impl std::fmt::Debug for UserCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UserCtx")
            .field("node", &self.node)
            .field("nodes", &self.nodes)
            .field("job", &self.job)
            .field("kind", &self.kind)
            .finish()
    }
}

impl UserCtx {
    /// Used by the machine when building a process's two contexts.
    pub(crate) fn new(
        exchange: Rc<Exchange>,
        node: NodeId,
        nodes: usize,
        job: usize,
        kind: CtxKind,
        faults_active: bool,
        seed: u64,
    ) -> Self {
        UserCtx {
            exchange,
            node,
            nodes,
            job,
            kind,
            faults_active,
            rng: DetRng::new(seed),
        }
    }

    /// Hands `call` to the machine and resumes with its response: the
    /// first poll posts the request and yields; the next takes the answer.
    async fn call(&self, call: SimCall) -> SimResp {
        let mut request = Some(call);
        std::future::poll_fn(|_| match request.take() {
            Some(call) => {
                self.exchange.call.set(Some(call));
                Poll::Pending
            }
            None => Poll::Ready(
                self.exchange
                    .resp
                    .take()
                    .expect("the machine answers a call before polling its caller again"),
            ),
        })
        .await
    }

    /// Issues a call whose response is an acknowledgement.
    async fn call_ok(&self, call: SimCall) {
        match self.call(call).await {
            SimResp::Ok => {}
            other => unreachable!("bad response {other:?}"),
        }
    }

    /// Issues a call whose response is a boolean.
    async fn call_bool(&self, call: SimCall) -> bool {
        match self.call(call).await {
            SimResp::Bool(b) => b,
            other => unreachable!("bad response {other:?}"),
        }
    }

    /// Issues a call whose response is an optional message.
    async fn call_extract(&self, call: SimCall) -> Option<Envelope> {
        match self.call(call).await {
            SimResp::Extract(e) => e,
            other => unreachable!("bad response {other:?}"),
        }
    }

    /// This process's node index.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of nodes in the machine.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Index of this job in the machine's job table.
    pub fn job(&self) -> usize {
        self.job
    }

    /// Which context this is (main thread or handler).
    pub fn kind(&self) -> CtxKind {
        self.kind
    }

    /// A deterministic per-context random-number generator.
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// Current simulated time in cycles.
    pub async fn now(&mut self) -> Cycles {
        match self.call(SimCall::Now).await {
            SimResp::Time(t) => t,
            other => unreachable!("bad response {other:?}"),
        }
    }

    /// Performs `cycles` of local computation. Preemptible: interrupts,
    /// kernel buffer-insert handlers and quantum switches may interleave.
    pub async fn compute(&mut self, cycles: Cycles) {
        if cycles == 0 {
            return;
        }
        self.call_ok(SimCall::Compute(cycles)).await;
    }

    /// `inject`: sends a message (Table 4: 7 cycles + 3 per payload word).
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds 14 words (the 16-word send buffer) or
    /// `dst` is not a valid node.
    pub async fn send(&mut self, dst: NodeId, handler: u32, payload: &[u32]) {
        self.call_ok(SimCall::Send {
            dst,
            handler: HandlerId(handler),
            payload: Payload::from(payload),
        })
        .await;
    }

    /// `injectc`: conditional send; returns `false` if the network refused
    /// the message (never blocks).
    pub async fn try_send(&mut self, dst: NodeId, handler: u32, payload: &[u32]) -> bool {
        self.call_bool(SimCall::TrySend {
            dst,
            handler: HandlerId(handler),
            payload: Payload::from(payload),
        })
        .await
    }

    /// Polls for a message and, if one is pending, runs its handler to
    /// completion; returns whether a message was handled (Table 4: 9 cycles
    /// for a null message in the fast case; Table 5 costs when the process
    /// is in buffered mode — transparently).
    ///
    /// Per the UDM model (§3), polling-style reception is meaningful inside
    /// an atomic section: call [`UserCtx::begin_atomic`] first, or arriving
    /// messages will be delivered by interrupt (upcall) between polls and
    /// this method will keep returning `false`.
    ///
    /// # Panics
    ///
    /// Panics when called from the handler context (the handler context
    /// cannot dispatch to itself; use [`UserCtx::poll_extract`] there).
    pub async fn poll(&mut self) -> bool {
        assert_eq!(
            self.kind,
            CtxKind::Main,
            "poll() dispatches to the handler context; handlers must use poll_extract()"
        );
        self.call_bool(SimCall::PollDispatch).await
    }

    /// Polls for a message and extracts it raw, without running a handler.
    /// This is the `extract` operation for programs that orchestrate their
    /// own receive loops; also the only receive primitive legal inside a
    /// handler (for draining bursts).
    pub async fn poll_extract(&mut self) -> Option<Envelope> {
        self.call_extract(SimCall::PollExtract).await
    }

    /// `peek` (§3): examines the next pending message without dequeuing it.
    /// Like every receive primitive this is transparent — in buffered mode
    /// it peeks the software buffer instead of the hardware queue.
    pub async fn peek(&mut self) -> Option<Envelope> {
        self.call_extract(SimCall::Peek).await
    }

    /// Touches page `page` of this process's demand-zero heap (Glaze
    /// "supports faults to pages that are allocated and zero-filled on
    /// demand", §5). The first touch of a page takes a page fault; a fault
    /// inside a message handler switches the process to buffered mode so
    /// the network is not blocked while the fault is serviced (§4.3's
    /// first mode-transition cause).
    pub async fn touch_page(&mut self, page: u32) {
        self.call_ok(SimCall::TouchPage(page)).await;
    }

    /// Enters an atomic section: message interrupts are deferred; the
    /// process must poll to observe messages. Subject to revocation — hold
    /// atomicity too long with a message waiting and the OS switches the
    /// process to buffered mode (§4.1 "Revocable Interrupt Disable").
    pub async fn begin_atomic(&mut self) {
        self.call_ok(SimCall::BeginAtomic).await;
    }

    /// Leaves an atomic section; deferred messages are then delivered.
    pub async fn end_atomic(&mut self) {
        self.call_ok(SimCall::EndAtomic).await;
    }

    /// Blocks the main thread until a handler calls [`UserCtx::wake`] with
    /// the same key. Wakes are counted, so a wake that arrives first is not
    /// lost.
    ///
    /// # Panics
    ///
    /// Panics when called from a handler (handlers run in atomic sections
    /// and must not block, per the UDM model).
    pub async fn block(&mut self, key: u32) {
        assert_eq!(self.kind, CtxKind::Main, "handlers must not block");
        self.call_ok(SimCall::Block(key)).await;
    }

    /// Like [`UserCtx::block`] but gives up after `timeout` cycles. Returns
    /// `true` if woken by [`UserCtx::wake`], `false` on timeout. A banked
    /// wake permit satisfies the block immediately; a wake that arrives
    /// after the timeout stays banked for the next block on the key.
    ///
    /// This is the foundation of the CRL retry protocol: a requester blocks
    /// with a deadline and, on timeout, re-sends its (idempotent,
    /// sequence-numbered) request.
    ///
    /// # Panics
    ///
    /// Panics when called from a handler (handlers must not block).
    pub async fn block_timeout(&mut self, key: u32, timeout: Cycles) -> bool {
        assert_eq!(self.kind, CtxKind::Main, "handlers must not block");
        self.call_bool(SimCall::BlockTimeout { key, timeout }).await
    }

    /// Whether the machine is running with an active fault-injection plan.
    /// Programs gate their retry/timeout machinery on this so that
    /// fault-free runs are byte-identical to builds predating fault
    /// injection. The plan is fixed when the machine is built, so this
    /// reads a field and costs no simulated cycles.
    pub fn faults_active(&self) -> bool {
        self.faults_active
    }

    /// Wakes the main thread blocked on `key` (or banks a permit).
    pub async fn wake(&mut self, key: u32) {
        self.call_ok(SimCall::Wake(key)).await;
    }

    /// Handler context's dispatch loop: reports completion of the previous
    /// handler and waits for the next message.
    pub(crate) async fn await_upcall(&mut self) -> Envelope {
        match self.call(SimCall::AwaitUpcall).await {
            SimResp::Upcall(e) => e,
            other => unreachable!("bad response {other:?}"),
        }
    }
}
