//! The simulated FUGU machine: two-case delivery in action.
//!
//! This module composes the substrate crates into a whole machine and
//! implements the paper's §4 control flow:
//!
//! * **Fast case** (§4.1): a message whose GID matches the scheduled
//!   process is disposed straight out of the NIC and its handler runs as a
//!   user-level upcall (or from a polling loop), charged with the Table 4
//!   costs.
//! * **Buffered case** (§4.2): on GID mismatch, divert-mode, atomicity
//!   timeout or quantum expiry, the kernel's *mismatch-available* handler
//!   copies the message into the target process's virtual buffer (Table 5
//!   costs, demand-allocating page frames), and the process replays it
//!   later through the same handler — *transparent access* (§4.3).
//! * **Revocable interrupt disable** (§4.1): a user atomic section with a
//!   message waiting starts the atomicity timer; expiry revokes physical
//!   atomicity and switches the process to buffered mode.
//!
//! Execution model: there is one thread of control, the caller's. Each
//! process on each node has two sim-threads, each an `async` future
//! ([`Sim`](crate::Sim)) that the machine polls with a no-op waker: its
//! `main`, and one `handler` future per delivered message, built when the
//! message is taken and run to completion (an upcall, §3). The handler
//! context's [`UserCtx`] outlives its dispatches: each future borrows it
//! and hands it back when it finishes. A future runs until it awaits a
//! machine request. Calls without an answer (`send`, `wake`, the atomic
//! section bounds, `touch_page`) are posts: the future queues them in the
//! exchange and runs on, and the machine applies them in program order
//! after every poll, before the request the poll ended with. The machine
//! then services the request and either polls the future again with the
//! answer or parks it (a `compute` block, a `block`, a main polling its
//! handler).
//! The machine's event loop processes network arrivals, compute
//! completions, atomicity timeouts and quantum switches; each node's
//! processor is a resource on which kernel work preempts user work,
//! exactly one activity computes at a time, and preempted computation
//! resumes with its remaining cycles intact.

use std::collections::{BTreeSet, VecDeque};
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use fugu_glaze::{FrameAllocator, GangScheduler, OverflowAction, OverflowControl, VirtualBuffer};
use fugu_net::{Gid, Message, Network, NetworkConfig, NodeId};
use fugu_nic::{HeadDisposition, Mode, Nic, UacMask};
use fugu_sim::event::{EventId, EventQueue};
use fugu_sim::fault::{FaultInjector, NetFault};
use fugu_sim::json::Json;
use fugu_sim::trace::{CategoryMask, TraceEvent, Tracer};
use fugu_sim::Cycles;

use crate::config::{JobSpec, MachineConfig};
use crate::report::{JobReport, NodeReport, RunReport};
use crate::user::{CtxKind, Envelope, Exchange, Post, Program, SimCall, SimResp, UserCtx};

/// Events in the machine's global future-event list.
#[derive(Debug)]
enum Ev {
    /// A message reaches a node's network interface.
    Arrive { node: NodeId, msg: Message },
    /// The node's running `compute` block ([`NodeState::active`]) completes.
    AdvanceDone { node: NodeId },
    /// The atomicity timer on a node expired: revoke interrupt disable.
    AtomTimeout { node: NodeId },
    /// Gang-scheduler quantum boundary on a node.
    Quantum { node: NodeId },
    /// A `block_timeout` deadline expired without a wake.
    BlockTimeout { node: NodeId, job: usize, key: u32 },
    /// An injected NIC input-stall window ended: admit the held arrivals.
    StallEnd { node: NodeId },
}

/// Scheduling state of one sim-thread.
#[derive(Debug)]
enum TState {
    /// Runnable: a response is ready to deliver at next dispatch.
    Ready(SimResp),
    /// Occupying the processor in the node's [`NodeState::active`] compute.
    Computing,
    /// Preempted or descheduled mid-`compute`.
    PausedCompute { remaining: Cycles },
    /// Main thread blocked on a wake key. With a `deadline`, the pending
    /// [`Ev::BlockTimeout`] is cancelled if the wake arrives first.
    Blocked { key: u32, deadline: Option<EventId> },
    /// Main thread waiting for a `poll`-dispatched handler to complete.
    WaitingPoll,
    /// Future completed: a finished main, or a handler between messages.
    Done,
}

/// A sim-thread's future. It hands its context back when it finishes, so
/// the handler context survives from one message to the next.
type Task = Pin<Box<dyn Future<Output = UserCtx>>>;

struct ThreadSlot {
    /// `None` once the future has finished.
    task: Option<Task>,
    state: TState,
}

/// The `compute` block occupying a node's processor over `[start, until)`.
#[derive(Debug, Clone, Copy)]
struct Compute {
    job: usize,
    which: CtxKind,
    start: Cycles,
    until: Cycles,
    /// The pending [`Ev::AdvanceDone`].
    event: EventId,
}

/// A handler dispatch in flight on a process.
#[derive(Debug, Clone, Copy)]
struct Upcall {
    /// How the handler was entered, which determines the completion charge.
    kind: UpcallKind,
    start: Cycles,
    /// Uid of the message being serviced (profiler bookkeeping only; echoed
    /// in [`TraceEvent::HandlerDone`]).
    uid: u64,
}

/// How a handler was entered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UpcallKind {
    /// Message-available user interrupt (Table 4 pre/post costs).
    Interrupt,
    /// Fast-path polling dispatch (Table 4 polling costs, charged at
    /// dispatch).
    Poll,
    /// Replay from the software buffer (Table 5 costs, charged at
    /// dispatch).
    Buffered,
}

/// Delivery mode of a process (the "case" of two-case delivery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeliveryMode {
    Fast,
    Buffered,
}

/// Per-(job, node) process state.
struct Proc {
    main: ThreadSlot,
    handler: ThreadSlot,
    mode: DeliveryMode,
    vbuf: VirtualBuffer,
    /// User-level atomicity intent (persists across descheduling; mirrored
    /// into the NIC's interrupt-disable bit while scheduled).
    atomic: bool,
    /// The handler dispatch in flight; `None` when the handler is idle.
    upcall: Option<Upcall>,
    /// The handler context while idle; the running dispatch holds it.
    handler_ctx: Option<UserCtx>,
    /// `(key, count)` of the wakes banked for keys the main thread was not
    /// blocked on, one entry per key with a nonzero count. A process banks
    /// on only a handful of keys, so a linear scan beats hashing.
    wake_permits: Vec<(u32, u32)>,
    /// Demand-zero heap pages already faulted in.
    heap_pages: BTreeSet<u32>,
}

impl Proc {
    /// Banks a wake permit for `key`.
    fn bank_permit(&mut self, key: u32) {
        match self.wake_permits.iter_mut().find(|(k, _)| *k == key) {
            Some((_, count)) => *count += 1,
            None => self.wake_permits.push((key, 1)),
        }
    }

    /// Consumes a banked wake permit for `key`, if there is one.
    fn take_permit(&mut self, key: u32) -> bool {
        let Some(i) = self.wake_permits.iter().position(|&(k, _)| k == key) else {
            return false;
        };
        let count = &mut self.wake_permits[i].1;
        *count -= 1;
        if *count == 0 {
            self.wake_permits.swap_remove(i);
        }
        true
    }
}

/// Per-node machine state.
struct NodeState {
    nic: Nic,
    /// When the processor is next free. While a compute runs this is its
    /// end time (the CPU is committed through it).
    free_at: Cycles,
    cur_job: usize,
    /// Messages held in the network fabric because the NIC queue is full.
    backlog: VecDeque<Message>,
    /// Arrivals deferred by an injected input-stall window, admitted in
    /// order when the window's [`Ev::StallEnd`] fires.
    stall_q: VecDeque<Message>,
    timer_ev: Option<EventId>,
    /// The compute currently occupying the CPU.
    active: Option<Compute>,
    procs: Vec<Proc>,
    frames: FrameAllocator,
    report: NodeReport,
}

/// Per-job bookkeeping.
struct JobState {
    spec: JobSpec,
    /// A non-atomic handle to `spec.program`, cloned for each handler
    /// dispatch so the per-message path leaves the `Arc`'s count alone.
    program: Rc<Arc<dyn Program>>,
    gid: Gid,
    mains_remaining: usize,
    suspended: bool,
    report: JobReport,
}

/// A simulated FUGU multicomputer.
///
/// Create one with [`Machine::new`], add gang-scheduled jobs with
/// [`Machine::add_job`], then consume it with [`Machine::run`].
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use udm::{Envelope, JobSpec, Machine, MachineConfig, Program, Sim, UserCtx};
///
/// struct Hello;
/// impl Program for Hello {
///     fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
///         Box::pin(async move {
///             if ctx.node() == 0 {
///                 ctx.send(1, 0, &[42]).await;
///             } else {
///                 ctx.begin_atomic().await; // poll-mode reception: defer interrupts
///                 while !ctx.poll().await {
///                     ctx.compute(10).await;
///                 }
///                 ctx.end_atomic().await;
///             }
///         })
///     }
///     fn handler<'a>(&'a self, _ctx: &'a mut UserCtx, env: &'a Envelope) -> Sim<'a> {
///         Box::pin(async move {
///             assert_eq!(env.payload, [42]);
///         })
///     }
/// }
///
/// let mut m = Machine::new(MachineConfig { nodes: 2, ..Default::default() });
/// m.add_job(JobSpec::new("hello", Arc::new(Hello)));
/// let report = m.run();
/// assert_eq!(report.job("hello").sent, 1);
/// assert_eq!(report.job("hello").delivered_fast, 1);
/// ```
pub struct Machine {
    cfg: MachineConfig,
    queue: EventQueue<Ev>,
    /// The post queue and request/response slots every context's
    /// [`UserCtx`] shares.
    exchange: Rc<Exchange>,
    net: Network,
    sched: Option<GangScheduler>,
    swap_cost: Cycles,
    jobs: Vec<JobState>,
    nodes: Vec<NodeState>,
    foreground_remaining: usize,
    /// The free-frame watermark policy every node applies at buffer insert.
    overflow: OverflowControl,
    tracer: Tracer,
    faults: FaultInjector,
    /// Machine-wide message-uid counter; every launch stamps the next one.
    next_uid: u64,
    /// Events popped from the queue by [`Machine::run`]. Wall-clock
    /// instrumentation only (`perfbench`'s events/sec denominator);
    /// never serialized into run reports.
    events_processed: u64,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("nodes", &self.cfg.nodes)
            .field("jobs", &self.jobs.len())
            .field("now", &self.queue.now())
            .finish()
    }
}

impl Machine {
    /// Builds an idle machine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration names zero nodes.
    pub fn new(cfg: MachineConfig) -> Self {
        assert!(cfg.nodes > 0, "machine needs at least one node");
        let swap_cost = cfg.page_swap_cost();
        let overflow = OverflowControl::new(cfg.overflow_advise, cfg.overflow_suspend);
        let tracer = Tracer::from_env();
        let faults = FaultInjector::new(cfg.faults.clone(), mix_seed(cfg.seed, 0, 0, 2), cfg.nodes);
        let nodes = (0..cfg.nodes)
            .map(|n| {
                let mut node = NodeState {
                    nic: Nic::new(cfg.nic),
                    free_at: 0,
                    cur_job: 0,
                    backlog: VecDeque::new(),
                    stall_q: VecDeque::new(),
                    timer_ev: None,
                    active: None,
                    procs: Vec::new(),
                    frames: FrameAllocator::new(cfg.costs.frames_per_node),
                    report: NodeReport::default(),
                };
                node.frames.attach_tracer(tracer.clone(), n);
                node.frames.attach_faults(faults.clone());
                node
            })
            .collect();
        Machine {
            cfg,
            queue: EventQueue::new(),
            exchange: Rc::default(),
            net: Network::new(NetworkConfig::main_network()),
            sched: None,
            swap_cost,
            jobs: Vec::new(),
            nodes,
            foreground_remaining: 0,
            overflow,
            tracer,
            faults,
            next_uid: 0,
            events_processed: 0,
        }
    }

    /// Replaces the machine's [`Tracer`] (by default built from the
    /// `FUGU_TRACE` environment, see [`Tracer::from_env`]) and re-attaches
    /// it to every node's frame allocator, the one component that emits
    /// its own events.
    /// Call before [`Machine::run`]; typically with
    /// [`Tracer::recorder`](fugu_sim::trace::Tracer::recorder) to capture
    /// the event stream in tests, or with a subscriber installed.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
        for (n, node) in self.nodes.iter_mut().enumerate() {
            node.frames.attach_tracer(self.tracer.clone(), n);
        }
    }

    /// The machine's trace sink (shared with every node's frame allocator).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Adds a gang-scheduled job (one process per node). Jobs are assigned
    /// GIDs in submission order.
    ///
    /// # Panics
    ///
    /// Panics if called after [`Machine::run`] began (machines are
    /// single-shot), or if another job already has the same name (names
    /// key the run report).
    pub fn add_job(&mut self, spec: JobSpec) -> usize {
        assert!(self.sched.is_none(), "cannot add jobs to a running machine");
        assert!(
            self.jobs.iter().all(|j| j.spec.name != spec.name),
            "duplicate job name {:?}",
            spec.name
        );
        let job = self.jobs.len();
        let gid = Gid::new(job as u16 + 1);
        if !spec.background {
            self.foreground_remaining += 1;
        }
        let nnodes = self.cfg.nodes;
        let seed = self.cfg.seed;
        let faults = self.faults.is_active();
        let program = Rc::new(Arc::clone(&spec.program));
        for n in 0..nnodes {
            let ctx = |kind, salt| {
                let seed = mix_seed(seed, job, n, salt);
                UserCtx::new(
                    Rc::clone(&self.exchange),
                    n,
                    nnodes,
                    job,
                    kind,
                    faults,
                    seed,
                )
            };
            let program = Rc::clone(&program);
            let mut ctx_main = ctx(CtxKind::Main, 0);
            let main: Task = Box::pin(async move {
                program.main(&mut ctx_main).await;
                ctx_main
            });
            self.nodes[n].procs.push(Proc {
                // A future runs nothing until its first poll, whose
                // response it never reads, so a main starts as any ready
                // thread does.
                main: ThreadSlot {
                    task: Some(main),
                    state: TState::Ready(SimResp::Ok),
                },
                handler: ThreadSlot {
                    task: None,
                    state: TState::Done,
                },
                mode: DeliveryMode::Fast,
                vbuf: VirtualBuffer::new(self.cfg.costs.page_size_bytes),
                atomic: false,
                upcall: None,
                handler_ctx: Some(ctx(CtxKind::Handler, 1)),
                wake_permits: Vec::new(),
                heap_pages: BTreeSet::new(),
            });
        }
        self.jobs.push(JobState {
            report: JobReport::new(&spec.name),
            spec,
            program,
            gid,
            mains_remaining: nnodes,
            suspended: false,
        });
        job
    }

    /// Runs the machine until every foreground job's `main` has returned on
    /// every node, then returns the measurements.
    ///
    /// # Panics
    ///
    /// Panics if no jobs were added, if a simulated program panics, if the
    /// simulation deadlocks (no pending events while foreground jobs are
    /// unfinished), or if simulated time exceeds `max_cycles`.
    pub fn run(mut self) -> RunReport {
        assert!(!self.jobs.is_empty(), "run with no jobs");
        let sched = GangScheduler::new(
            self.cfg.costs.timeslice,
            self.cfg.skew,
            self.jobs.len(),
            self.cfg.nodes,
        );
        // Prime each node: schedule its first quantum boundary and start the
        // initially scheduled process.
        for n in 0..self.cfg.nodes {
            self.nodes[n].cur_job = sched.job_at(n, 0);
            let gid = self.jobs[self.nodes[n].cur_job].gid;
            self.nodes[n].nic.set_gid(gid);
            // Tell SCHED subscribers (the span profiler's residency
            // accounting) which job holds the CPU from cycle 0. The
            // invariant checker ignores `from_job: None` switches.
            let to_job = self.nodes[n].cur_job;
            self.tracer
                .emit_with(CategoryMask::SCHED, || TraceEvent::QuantumSwitch {
                    node: n,
                    from_job: None,
                    to_job: Some(to_job),
                });
            if self.jobs.len() > 1 {
                let at = sched.next_switch(n, 0);
                self.queue.schedule(at, Ev::Quantum { node: n });
            }
        }
        self.sched = Some(sched);
        for n in 0..self.cfg.nodes {
            self.schedule_node(n);
        }

        while self.foreground_remaining > 0 {
            let Some((t, ev)) = self.queue.pop() else {
                panic!(
                    "simulation deadlock at {} cycles: {} foreground job(s) unfinished \
                     and no pending events (a main thread is blocked forever?)\n\
                     machine state dump:\n{}",
                    self.queue.now(),
                    self.foreground_remaining,
                    self.diagnostic_dump().render_pretty()
                );
            };
            if t > self.cfg.max_cycles {
                panic!(
                    "simulation exceeded max_cycles = {}\nmachine state dump:\n{}",
                    self.cfg.max_cycles,
                    self.diagnostic_dump().render_pretty()
                );
            }
            self.tracer.set_time(t);
            self.events_processed += 1;
            match ev {
                Ev::Arrive { node, msg } => self.on_arrive(node, msg),
                Ev::AdvanceDone { node } => self.on_advance_done(node),
                Ev::AtomTimeout { node } => self.on_atom_timeout(node),
                Ev::Quantum { node } => self.on_quantum(node),
                Ev::BlockTimeout { node, job, key } => self.on_block_timeout(node, job, key),
                Ev::StallEnd { node } => self.on_stall_end(node),
            }
        }
        self.collect_report()
    }

    /// Structured snapshot of the machine for the deadlock diagnostic:
    /// per-node processor/NIC/buffer state and per-job progress, rendered
    /// as deterministic JSON so a wedged chaos run can be debugged from
    /// its panic message alone.
    fn diagnostic_dump(&self) -> Json {
        let nodes = self.nodes.iter().enumerate().map(|(n, node)| {
            let thread_state = |s: &TState| -> String {
                match s {
                    TState::Ready(_) => "ready".into(),
                    TState::Computing => {
                        let until = node.active.map_or(0, |c| c.until);
                        format!("active-compute until={until}")
                    }
                    TState::PausedCompute { remaining } => {
                        format!("paused-compute remaining={remaining}")
                    }
                    TState::Blocked {
                        key,
                        deadline: None,
                    } => format!("blocked key={key:#x}"),
                    TState::Blocked { key, .. } => format!("blocked-timeout key={key:#x}"),
                    TState::WaitingPoll => "waiting-poll".into(),
                    TState::Done => "done".into(),
                }
            };
            let procs = node.procs.iter().enumerate().map(|(j, p)| {
                Json::object([
                    ("job", Json::from(self.jobs[j].spec.name.as_str())),
                    (
                        "mode",
                        Json::from(match p.mode {
                            DeliveryMode::Fast => "fast",
                            DeliveryMode::Buffered => "buffered",
                        }),
                    ),
                    ("main", Json::from(thread_state(&p.main.state))),
                    ("handler", Json::from(thread_state(&p.handler.state))),
                    ("buffered_msgs", Json::from(p.vbuf.len())),
                    ("atomic", Json::from(p.atomic)),
                    ("in_upcall", Json::from(p.upcall.is_some())),
                ])
            });
            Json::object([
                ("node", Json::from(n)),
                ("cur_job", Json::from(node.cur_job)),
                ("free_at", Json::from(node.free_at)),
                ("nic_queue", Json::from(node.nic.queue_len())),
                ("fabric_backlog", Json::from(node.backlog.len())),
                ("stalled_arrivals", Json::from(node.stall_q.len())),
                ("free_frames", Json::from(node.frames.free())),
                ("procs", Json::array(procs)),
            ])
        });
        let jobs = self.jobs.iter().map(|j| {
            Json::object([
                ("name", Json::from(j.spec.name.as_str())),
                ("mains_remaining", Json::from(j.mains_remaining)),
                ("suspended", Json::from(j.suspended)),
                ("sent", Json::from(j.report.sent)),
                ("delivered", Json::from(j.report.delivered())),
            ])
        });
        let outstanding: u64 = (0..self.cfg.nodes).map(|d| self.net.in_flight(d)).sum();
        Json::object([
            ("at", Json::from(self.queue.now())),
            ("outstanding_messages", Json::from(outstanding)),
            ("jobs", Json::array(jobs)),
            ("nodes", Json::array(nodes)),
        ])
    }

    // ==================================================================
    // Event handlers
    // ==================================================================

    fn on_arrive(&mut self, n: NodeId, msg: Message) {
        // An injected input-stall window defers arrivals to the window's
        // end. Arrivals land behind any already-held messages (even if the
        // window itself has lapsed but its drain event has not fired yet),
        // so FIFO order survives every event-queue tie-break.
        if !self.nodes[n].stall_q.is_empty() {
            self.nodes[n].stall_q.push_back(msg);
            return;
        }
        if let Some(until) = self.faults.nic_stall(n, self.queue.now()) {
            self.tracer
                .emit_with(CategoryMask::FAULT, || TraceEvent::FaultNicStall {
                    node: n,
                    until,
                });
            self.nodes[n].stall_q.push_back(msg);
            self.queue.schedule(until, Ev::StallEnd { node: n });
            return;
        }
        self.admit(n, [msg]);
        self.schedule_node(n);
    }

    /// Admits the arrivals a lapsed stall window was holding, in arrival
    /// order. Held messages are not re-rolled against the stall plan — the
    /// window already deferred them once.
    fn on_stall_end(&mut self, n: NodeId) {
        let held = std::mem::take(&mut self.nodes[n].stall_q);
        self.admit(n, held);
        self.schedule_node(n);
    }

    fn on_advance_done(&mut self, n: NodeId) {
        let node = &mut self.nodes[n];
        let c = node
            .active
            .take()
            .expect("AdvanceDone with no compute running");
        debug_assert_eq!(c.until, self.queue.now());
        node.free_at = c.until;
        slot_mut(&mut node.procs[c.job], c.which).state = TState::Ready(SimResp::Ok);
        self.schedule_node(n);
    }

    /// Atomicity-timer expiry: the revocation path of §4.1. The user kept
    /// interrupts disabled while a message waited at the head of the queue
    /// for `atomicity_timeout` cycles, so the OS revokes physical atomicity
    /// and switches the process to buffered mode. The user thread keeps
    /// running — its atomicity is now *virtual* (emulated against the
    /// software buffer).
    fn on_atom_timeout(&mut self, n: NodeId) {
        self.nodes[n].timer_ev = None;
        let j = self.nodes[n].cur_job;
        if self.cfg.polling_watchdog {
            // Polling-watchdog variant (§2): instead of revoking to
            // buffered mode, force the deferred message-available
            // interrupt through, breaking the atomic section. Falls back
            // to revocation when a handler is already running.
            let can_force =
                self.nodes[n].nic.message_available() && self.nodes[n].procs[j].upcall.is_none();
            if can_force {
                self.jobs[j].report.watchdog_fires += 1;
                self.tracer
                    .emit_with(CategoryMask::ATOMICITY, || TraceEvent::WatchdogFire {
                        node: n,
                        job: j,
                    });
                self.preempt_active(n);
                self.dispatch_upcall(n, j);
                self.schedule_node(n);
                return;
            }
        }
        self.jobs[j].report.atomicity_timeouts += 1;
        self.tracer
            .emit_with(CategoryMask::ATOMICITY, || TraceEvent::AtomicityRevoke {
                node: n,
                job: j,
            });
        self.enter_buffered(n, j);
        self.schedule_node(n);
    }

    /// Gang-scheduler quantum boundary: context switch to the next job.
    fn on_quantum(&mut self, n: NodeId) {
        let t = self.queue.now();
        self.preempt_active(n);
        let (new_job, next) = {
            let sched = self.sched.as_ref().expect("running");
            (sched.job_at(n, t), sched.next_switch(n, t))
        };
        // Injected per-node jitter delays the *next* boundary; the gang
        // scheduler itself is a pure function of time, so a late switch
        // simply shortens the following quantum.
        self.queue
            .schedule(next + self.faults.quantum_jitter(), Ev::Quantum { node: n });

        let prev_job = self.nodes[n].cur_job;
        self.tracer
            .emit_with(CategoryMask::SCHED, || TraceEvent::QuantumSwitch {
                node: n,
                from_job: Some(prev_job),
                to_job: Some(new_job),
            });
        let node = &mut self.nodes[n];
        node.free_at = node.free_at.max(t) + self.cfg.costs.context_switch;
        node.report.quantum_switches += 1;
        node.cur_job = new_job;
        node.nic.set_gid(self.jobs[new_job].gid);
        let incoming = &node.procs[new_job];
        let divert = incoming.mode == DeliveryMode::Buffered;
        let disable = incoming.atomic || incoming.upcall.is_some();
        self.set_divert(n, divert);
        // Restore the incoming process's atomicity state into the hardware.
        let nic = &mut self.nodes[n].nic;
        if disable {
            nic.kernel_set_uac(UacMask::INTERRUPT_DISABLE);
        } else {
            nic.kernel_clear_uac(UacMask::INTERRUPT_DISABLE);
        }
        self.reset_timer(n);
        self.schedule_node(n);
    }

    /// A `block_timeout` deadline fired. The wake path cancels the pending
    /// event, so a firing event always finds the thread still blocked.
    fn on_block_timeout(&mut self, n: NodeId, j: usize, key: u32) {
        let proc = &mut self.nodes[n].procs[j];
        match proc.main.state {
            TState::Blocked {
                key: k,
                deadline: Some(_),
            } if k == key => {
                proc.main.state = TState::Ready(SimResp::Bool(false));
            }
            ref other => panic!("BlockTimeout(key={key:#x}) fired for thread in state {other:?}"),
        }
        self.schedule_node(n);
    }

    // ==================================================================
    // The node scheduler: what runs next on a node's processor
    // ==================================================================

    /// Drives node `n` until no more progress can be made without a future
    /// event. Priorities, highest first: kernel message diversion, buffered
    /// replay, fast-path upcalls, handler compute, then the main thread.
    fn schedule_node(&mut self, n: NodeId) {
        loop {
            // 1. Kernel work: divert mismatched (or divert-mode) arrivals
            //    into software buffers. Preempts anything.
            if matches!(
                self.nodes[n].nic.head_disposition(),
                Some(HeadDisposition::KernelInterrupt)
            ) {
                self.preempt_active(n);
                self.kernel_insert(n);
                self.admit(n, []);
                continue;
            }
            // 2. Admit fabric-held messages once the queue has space.
            if !self.nodes[n].backlog.is_empty() && !self.nodes[n].nic.queue_full() {
                self.admit(n, []);
                continue;
            }

            let j = self.nodes[n].cur_job;

            // 3. Buffered-mode replay: the message-handling thread runs at
            //    higher priority than background threads (§4.2), but defers
            //    to a user atomic section (virtual atomicity).
            {
                let proc = &self.nodes[n].procs[j];
                if proc.mode == DeliveryMode::Buffered
                    && !proc.vbuf.is_empty()
                    && !proc.atomic
                    && proc.upcall.is_none()
                {
                    self.preempt_active(n);
                    let start = self.nodes[n].free_at.max(self.queue.now());
                    self.take_buffered(n, j, start, true)
                        .expect("vbuf nonempty");
                    self.run_burst(n, j, CtxKind::Handler, SimResp::Ok);
                    continue;
                }
            }
            // 4. Leave buffered mode once the last buffered message has
            //    been handled.
            {
                let proc = &self.nodes[n].procs[j];
                if proc.mode == DeliveryMode::Buffered
                    && proc.vbuf.is_empty()
                    && proc.upcall.is_none()
                {
                    self.tracer
                        .emit_with(CategoryMask::MODE, || TraceEvent::ModeExit {
                            node: n,
                            job: j,
                        });
                    self.nodes[n].procs[j].mode = DeliveryMode::Fast;
                    self.set_divert(n, false);
                    continue;
                }
            }
            // 5. Fast-path upcall.
            if matches!(
                self.nodes[n].nic.head_disposition(),
                Some(HeadDisposition::UserInterrupt)
            ) && self.nodes[n].procs[j].upcall.is_none()
            {
                // Injected handler page fault: the upcall would fault on
                // entry, so the OS charges the fault and switches the
                // process to buffered mode — the next loop iteration then
                // diverts the message into the software buffer (§4.3).
                if self.faults.handler_fault() {
                    self.tracer
                        .emit_with(CategoryMask::FAULT, || TraceEvent::FaultHandlerFault {
                            node: n,
                            job: j,
                        });
                    self.jobs[j].report.page_faults += 1;
                    let now = self.queue.now();
                    let node = &mut self.nodes[n];
                    node.free_at = node.free_at.max(now) + self.cfg.costs.page_fault;
                    self.enter_buffered(n, j);
                    continue;
                }
                self.preempt_active(n);
                self.dispatch_upcall(n, j);
                continue;
            }
            // 6. Resume computation if the CPU is idle: a suspended handler
            //    outranks the main thread, which waits out a global
            //    suspension.
            if self.nodes[n].active.is_some() {
                break;
            }
            let which = match self.nodes[n].procs[j].handler.state {
                TState::Ready(_) | TState::PausedCompute { .. } => CtxKind::Handler,
                _ if !self.jobs[j].suspended => CtxKind::Main,
                _ => break,
            };
            let slot = slot_mut(&mut self.nodes[n].procs[j], which);
            // `Done` is a placeholder until run_burst or start_compute sets
            // the real state.
            match std::mem::replace(&mut slot.state, TState::Done) {
                TState::Ready(resp) => {
                    let now = self.queue.now();
                    let node = &mut self.nodes[n];
                    node.free_at = node.free_at.max(now);
                    self.run_burst(n, j, which, resp);
                    continue;
                }
                TState::PausedCompute { remaining } => self.start_compute(n, j, which, remaining),
                other => slot.state = other,
            }
            break;
        }
        self.reconcile_timer(n);
    }

    /// Puts a thread's `cycles` of computation on the processor from the
    /// end of committed work: a new `compute` block, or a paused one
    /// resuming.
    fn start_compute(&mut self, n: NodeId, job: usize, which: CtxKind, cycles: Cycles) {
        let node = &mut self.nodes[n];
        let start = node.free_at.max(self.queue.now());
        let until = start + cycles;
        node.free_at = until;
        let event = self.queue.schedule(until, Ev::AdvanceDone { node: n });
        node.active = Some(Compute {
            job,
            which,
            start,
            until,
            event,
        });
        slot_mut(&mut node.procs[job], which).state = TState::Computing;
    }

    /// Pauses the node's active compute (if any), crediting the unspent
    /// cycles back to the thread. The processor becomes free at the
    /// preemption point (never earlier than work already committed before
    /// the compute began).
    fn preempt_active(&mut self, n: NodeId) {
        let Some(c) = self.nodes[n].active.take() else {
            return;
        };
        self.queue.cancel(c.event);
        let p = self.queue.now().clamp(c.start, c.until);
        let node = &mut self.nodes[n];
        slot_mut(&mut node.procs[c.job], c.which).state = TState::PausedCompute {
            remaining: c.until - p,
        };
        node.free_at = p;
    }

    // ==================================================================
    // Delivery paths
    // ==================================================================

    /// Kernel *mismatch-available* service: move the head message into its
    /// process's virtual buffer (Table 5 costs; §4.2).
    fn kernel_insert(&mut self, n: NodeId) {
        let now = self.queue.now();
        let msg = self.nodes[n]
            .nic
            .kernel_extract()
            .expect("head was present");
        let j = (msg.gid().raw() as usize)
            .checked_sub(1)
            .filter(|&j| j < self.jobs.len())
            .unwrap_or_else(|| panic!("message with unknown {} arrived", msg.gid()));
        let words = msg.payload().len();
        let uid = msg.uid();
        let mut swapped = false;
        let cost;
        {
            let swap = self.swap_cost;
            let node = &mut self.nodes[n];
            let t = node.free_at.max(now);
            let frames = &mut node.frames;
            let proc = &mut node.procs[j];
            // The clone copies the message's inline words, so the
            // fallback path below can still consume `msg`.
            cost = match proc.vbuf.insert(msg.clone(), frames) {
                Ok(outcome) => {
                    if outcome.allocated_page {
                        node.report.vmallocs += 1;
                        self.cfg.costs.buf_insert_vmalloc
                    } else {
                        self.cfg.costs.buf_insert_min
                    }
                }
                Err(_) => {
                    // No frames available: guaranteed delivery via the
                    // second network's path to backing store (§4.2).
                    proc.vbuf.insert_swapped(msg);
                    swapped = true;
                    self.cfg.costs.buf_insert_min + swap
                }
            };
            node.report.vbuf_inserts += 1;
            node.free_at = t + cost + self.cfg.costs.extra_buffer_cost;
        }
        if swapped {
            self.jobs[j].report.swapped += 1;
            // An injected second-network slowdown stretches the transfer.
            self.nodes[n].free_at += self.faults.second_net_delay();
        }
        self.jobs[j].report.delivered_buffered += 1;
        self.tracer
            .emit_with(CategoryMask::BUFFER, || TraceEvent::BufferInsert {
                node: n,
                job: j,
                words,
                swapped,
                uid,
            });
        self.enter_buffered(n, j);
        // Overflow control watches the free-frame count at every insert.
        let free = self.nodes[n].frames.free();
        match self.overflow.check(free) {
            Some(OverflowAction::AdviseGangSchedule) => {
                self.tracer
                    .emit_with(CategoryMask::OVERFLOW, || TraceEvent::OverflowAdvise {
                        node: n,
                        free_frames: free as usize,
                    });
                self.nodes[n].report.overflow_advises += 1;
            }
            Some(OverflowAction::SuspendGlobally) => {
                self.tracer
                    .emit_with(CategoryMask::OVERFLOW, || TraceEvent::OverflowSuspend {
                        node: n,
                        free_frames: free as usize,
                    });
                self.nodes[n].report.overflow_suspends += 1;
                if !self.jobs[j].suspended {
                    self.jobs[j].suspended = true;
                    self.jobs[j].report.overflow_suspensions += 1;
                }
                // "Globally suspended while paging clears out space on the
                // node": page the offender's buffer to backing store over
                // the second network, freeing its frames, then let it run
                // again.
                let (pages, msgs) = {
                    let node = &mut self.nodes[n];
                    let frames = &mut node.frames;
                    node.procs[j].vbuf.page_out_all(frames)
                };
                self.nodes[n].free_at += pages * self.swap_cost;
                if pages > 0 {
                    self.nodes[n].free_at += self.faults.second_net_delay();
                }
                self.jobs[j].report.swapped += msgs;
                self.maybe_unsuspend(n, j);
            }
            None => {}
        }
    }

    /// Hands `arrivals` to node `n`'s interface: they join the fabric
    /// backlog behind any held messages, and the NIC takes held messages in
    /// arrival order while its queue has room. This is the one place a
    /// message enters a NIC, so the one place `MsgArrive` is emitted;
    /// messages still held are traced when they are admitted.
    fn admit(&mut self, n: NodeId, arrivals: impl IntoIterator<Item = Message>) {
        let node = &mut self.nodes[n];
        node.backlog.extend(arrivals);
        while !node.nic.queue_full() {
            let Some(msg) = node.backlog.pop_front() else {
                break;
            };
            let uid = msg.uid();
            node.nic.enqueue(msg).expect("space was checked");
            self.net.deliver(n);
            let qlen = node.nic.queue_len();
            self.tracer
                .emit_with(CategoryMask::MSG, || TraceEvent::MsgArrive {
                    node: n,
                    qlen,
                    uid,
                });
        }
    }

    /// Sets node `n`'s *divert-mode* register, emitting `NicDivert` only
    /// when the register changes.
    fn set_divert(&mut self, n: NodeId, on: bool) {
        let nic = &mut self.nodes[n].nic;
        if nic.divert_mode() != on {
            self.tracer
                .emit_with(CategoryMask::MODE, || TraceEvent::NicDivert { node: n, on });
            nic.set_divert(on);
        }
    }

    /// Fast-path user-level interrupt delivery (Figure 2's timeline).
    fn dispatch_upcall(&mut self, n: NodeId, j: usize) {
        let start = self.nodes[n].free_at.max(self.queue.now());
        // Charge the interrupt entry sequence plus the handler's minimum
        // (dispose + per-word reads); the handler body's own `compute`
        // comes on top. An empty body therefore costs exactly Table 4's
        // interrupt total (87 cycles at hard atomicity).
        let entry = self.cfg.costs.rx_interrupt.pre() + self.cfg.costs.null_handler;
        self.take_fast(n, j, start, entry, Some(UpcallKind::Interrupt));
        self.run_burst(n, j, CtxKind::Handler, SimResp::Ok);
    }

    /// Whether process `j` on node `n` reads the software buffer rather
    /// than the NIC: it is in buffered mode, or not scheduled at all.
    fn buffered_case(&self, n: NodeId, j: usize) -> bool {
        let node = &self.nodes[n];
        node.procs[j].mode == DeliveryMode::Buffered || node.cur_job != j
    }

    /// Fast case: disposes the head message straight out of the NIC,
    /// charging `entry` plus the per-word reads from `start`. With an
    /// `upcall` the handler is entered in an atomic section (see
    /// [`Machine::begin_upcall`]).
    fn take_fast(
        &mut self,
        n: NodeId,
        j: usize,
        start: Cycles,
        entry: Cycles,
        upcall: Option<UpcallKind>,
    ) -> Envelope {
        let node = &mut self.nodes[n];
        let msg = node
            .nic
            .dispose(Mode::User)
            .expect("head was a matching user message");
        let (words, uid) = (msg.payload().len(), msg.uid());
        node.free_at = start + entry + self.cfg.costs.rx_per_word * words as Cycles;
        if let Some(kind) = upcall {
            // Handlers begin in an atomic section.
            node.nic.kernel_set_uac(UacMask::INTERRUPT_DISABLE);
            self.begin_upcall(n, j, Upcall { kind, start, uid }, envelope(&msg));
        }
        self.jobs[j].report.delivered_fast += 1;
        let (node, job) = (n, j);
        self.tracer
            .emit_with(CategoryMask::UPCALL, || match upcall {
                Some(UpcallKind::Interrupt) => TraceEvent::FastUpcall {
                    node,
                    job,
                    words,
                    uid,
                },
                _ => TraceEvent::PollDelivery {
                    node,
                    job,
                    words,
                    uid,
                },
            });
        self.reset_timer(n);
        envelope(&msg)
    }

    /// Buffered case: pops the process's software buffer, charging the
    /// Table 5 extraction (plus the swap-in of a paged-out message) from
    /// `start`, and enters the handler if `upcall` (see
    /// [`Machine::begin_upcall`]). `None` when the buffer is empty.
    fn take_buffered(
        &mut self,
        n: NodeId,
        j: usize,
        start: Cycles,
        upcall: bool,
    ) -> Option<Envelope> {
        let node = &mut self.nodes[n];
        let (msg, swapped) = node.procs[j].vbuf.pop(&mut node.frames)?;
        let (words, uid) = (msg.payload().len(), msg.uid());
        node.free_at = start + self.cfg.costs.buf_extract_total(words);
        if swapped {
            // Swap the paged-out message back in over the second network.
            node.free_at += self.swap_cost + self.faults.second_net_delay();
        }
        if upcall {
            let kind = UpcallKind::Buffered;
            self.begin_upcall(n, j, Upcall { kind, start, uid }, envelope(&msg));
        }
        self.tracer
            .emit_with(CategoryMask::BUFFER, || TraceEvent::BufferExtract {
                node: n,
                job: j,
                words,
                swapped,
                uid,
            });
        self.maybe_unsuspend(n, j);
        Some(envelope(&msg))
    }

    /// Records a handler dispatch on process `j` and builds its future,
    /// which lends the handler context to `program.handler` for `env` and
    /// returns it when the handler finishes. The caller runs the future
    /// with [`Machine::run_burst`]; like a main's, its first poll reads no
    /// response.
    fn begin_upcall(&mut self, n: NodeId, j: usize, upcall: Upcall, env: Envelope) {
        let program = Rc::clone(&self.jobs[j].program);
        let proc = &mut self.nodes[n].procs[j];
        let mut ctx = proc
            .handler_ctx
            .take()
            .expect("an idle handler holds its context");
        proc.upcall = Some(upcall);
        proc.handler.task = Some(Box::pin(async move {
            program.handler(&mut ctx, &env).await;
            ctx
        }));
    }

    /// Switches a process to buffered mode (the uniform response to all
    /// exceptional conditions, §4.2 "Buffering Mechanics").
    fn enter_buffered(&mut self, n: NodeId, j: usize) {
        let node = &mut self.nodes[n];
        if node.procs[j].mode != DeliveryMode::Buffered {
            self.tracer
                .emit_with(CategoryMask::MODE, || TraceEvent::ModeEnter {
                    node: n,
                    job: j,
                });
        }
        node.procs[j].mode = DeliveryMode::Buffered;
        if node.cur_job == j {
            self.set_divert(n, true);
        }
    }

    fn maybe_unsuspend(&mut self, n: NodeId, j: usize) {
        if self.jobs[j].suspended && self.nodes[n].frames.free() >= self.cfg.overflow_advise {
            self.jobs[j].suspended = false;
        }
    }

    // ==================================================================
    // Sim-thread execution
    // ==================================================================

    /// Resumes a thread with `resp` and services its posts and requests
    /// until it suspends or finishes. After every poll the thread's posts
    /// are applied first, in program order, then whatever the poll ended
    /// with: its request, its completion, or its panic, which is caught
    /// here and re-raised naming the job, context and node.
    fn run_burst(&mut self, n: NodeId, j: usize, which: CtxKind, first: SimResp) {
        let mut resp = first;
        loop {
            self.exchange.resp.set(Some(resp));
            let slot = slot_mut(&mut self.nodes[n].procs[j], which);
            let task = slot.task.as_mut().expect("a running thread has a future");
            let mut cx = Context::from_waker(Waker::noop());
            let polled = catch_unwind(AssertUnwindSafe(|| task.as_mut().poll(&mut cx)));
            self.apply_posts(n, j);
            match polled {
                Ok(Poll::Ready(ctx)) => {
                    let slot = slot_mut(&mut self.nodes[n].procs[j], which);
                    slot.task = None;
                    slot.state = TState::Done;
                    self.on_thread_finished(n, j, which, ctx);
                    return;
                }
                Ok(Poll::Pending) => {
                    let call = self
                        .exchange
                        .call
                        .take()
                        .expect("a pending sim-thread awaits only machine calls");
                    match self.apply(n, j, which, call) {
                        Some(r) => resp = r,
                        None => return, // suspended; state set inside apply
                    }
                }
                Err(payload) => panic!(
                    "job '{}' {:?} context on node {} panicked: {}",
                    self.jobs[j].spec.name,
                    which,
                    n,
                    panic_message(payload.as_ref())
                ),
            }
        }
    }

    /// Applies the posts the running thread of process `j` queued since
    /// its last poll, in program order. The queue's buffer goes back into
    /// the exchange, so steady-state posting allocates nothing.
    fn apply_posts(&mut self, n: NodeId, j: usize) {
        let mut posts = self.exchange.posts.take();
        for post in posts.drain(..) {
            self.post(n, j, post);
        }
        self.exchange.posts.replace(posts);
    }

    fn on_thread_finished(&mut self, n: NodeId, j: usize, which: CtxKind, ctx: UserCtx) {
        match which {
            CtxKind::Handler => {
                self.nodes[n].procs[j].handler_ctx = Some(ctx);
                self.on_handler_complete(n, j);
            }
            CtxKind::Main => {
                let t = self.nodes[n].free_at.max(self.queue.now());
                let job = &mut self.jobs[j];
                job.mains_remaining -= 1;
                if job.mains_remaining == 0 {
                    job.report.completion = Some(t);
                    if !job.spec.background {
                        self.foreground_remaining -= 1;
                    }
                }
            }
        }
    }

    /// Services one request from a thread. Returns `Some(resp)` to
    /// continue the burst, or `None` if the thread suspended (its state has
    /// been recorded).
    fn apply(&mut self, n: NodeId, j: usize, which: CtxKind, call: SimCall) -> Option<SimResp> {
        match call {
            SimCall::Now => Some(SimResp::Time(self.nodes[n].free_at)),

            SimCall::Compute(c) => {
                self.start_compute(n, j, which, c);
                None
            }

            SimCall::TrySend {
                dst,
                handler,
                payload,
            } => {
                // `injectc`: refuse instead of blocking when the fabric
                // toward the destination is congested. Messages held in
                // the destination's fabric backlog are still in flight.
                self.check_dst(dst);
                if self.net.in_flight(dst) >= self.cfg.inject_window {
                    // The failed probe still costs the descriptor check.
                    self.nodes[n].free_at += self.cfg.costs.send_descriptor;
                    Some(SimResp::Bool(false))
                } else {
                    self.do_send(n, j, dst, handler, payload);
                    Some(SimResp::Bool(true))
                }
            }

            SimCall::Block { key, timeout } => {
                if self.nodes[n].procs[j].take_permit(key) {
                    return Some(SimResp::Bool(true));
                }
                let deadline = timeout.map(|timeout| {
                    let at = self.nodes[n].free_at.max(self.queue.now()) + timeout;
                    self.queue.schedule(
                        at,
                        Ev::BlockTimeout {
                            node: n,
                            job: j,
                            key,
                        },
                    )
                });
                self.nodes[n].procs[j].main.state = TState::Blocked { key, deadline };
                None
            }

            SimCall::PollExtract => Some(SimResp::Extract(self.poll_take(n, j, false))),

            SimCall::Peek => {
                self.nodes[n].free_at += self.cfg.costs.poll_check;
                let node = &self.nodes[n];
                // Transparent access: peek whichever case is active.
                let msg = if self.buffered_case(n, j) {
                    node.procs[j].vbuf.peek()
                } else {
                    node.nic.peek()
                };
                Some(SimResp::Extract(msg.map(envelope)))
            }

            SimCall::PollDispatch => {
                if self.poll_take(n, j, true).is_none() {
                    return Some(SimResp::Bool(false));
                }
                // Park the polling main *before* the handler runs: the
                // handler may complete synchronously inside this call, and
                // its completion is what re-readies the main thread.
                self.nodes[n].procs[j].main.state = TState::WaitingPoll;
                self.run_burst(n, j, CtxKind::Handler, SimResp::Ok);
                None
            }
        }
    }

    /// Applies one post from process `j`'s running thread.
    fn post(&mut self, n: NodeId, j: usize, post: Post) {
        match post {
            Post::Send {
                dst,
                handler,
                payload,
            } => self.do_send(n, j, dst, handler, payload),

            Post::BeginAtomic => {
                let node = &mut self.nodes[n];
                node.free_at += 1;
                node.procs[j].atomic = true;
                if node.cur_job == j {
                    node.nic
                        .beginatom(Mode::User, UacMask::INTERRUPT_DISABLE)
                        .expect("interrupt-disable is a user bit");
                }
                self.reconcile_timer(n);
            }

            Post::EndAtomic => {
                let node = &mut self.nodes[n];
                node.free_at += 1;
                node.procs[j].atomic = false;
                if node.cur_job == j && node.procs[j].upcall.is_none() {
                    node.nic.kernel_clear_uac(UacMask::INTERRUPT_DISABLE);
                }
                self.reconcile_timer(n);
            }

            Post::Wake(key) => {
                let proc = &mut self.nodes[n].procs[j];
                match proc.main.state {
                    TState::Blocked { key: k, deadline } if k == key => {
                        // A wake on a deadline-block cancels its pending
                        // timeout.
                        if let Some(event) = deadline {
                            self.queue.cancel(event);
                        }
                        proc.main.state = TState::Ready(SimResp::Bool(true));
                    }
                    _ => proc.bank_permit(key),
                }
            }

            Post::TouchPage(page) => {
                let hit = self.nodes[n].procs[j].heap_pages.contains(&page);
                if hit {
                    self.nodes[n].free_at += 1;
                } else {
                    // Demand-zero fault: allocate a frame (sharing the pool
                    // with virtual buffering, §4.2) and zero-fill it. If a
                    // handler faults, the process transparently switches to
                    // buffered mode so the network is not blocked while the
                    // fault is serviced (§4.3).
                    self.jobs[j].report.page_faults += 1;
                    self.tracer
                        .emit_with(CategoryMask::VM, || TraceEvent::PageFault {
                            node: n,
                            job: j,
                            page: page as usize,
                        });
                    let node = &mut self.nodes[n];
                    node.free_at += self.cfg.costs.page_fault;
                    if node.frames.allocate().is_err() {
                        // Pool exhausted: page something out over the
                        // second network first.
                        node.free_at += self.swap_cost + self.faults.second_net_delay();
                    }
                    node.procs[j].heap_pages.insert(page);
                    if self.nodes[n].procs[j].upcall.is_some() {
                        self.enter_buffered(n, j);
                    }
                }
            }
        }
    }

    /// Describe + launch through the NIC, stamp, and put on the wire.
    fn do_send(
        &mut self,
        n: NodeId,
        j: usize,
        dst: NodeId,
        handler: fugu_net::HandlerId,
        payload: fugu_net::Payload,
    ) {
        self.check_dst(dst);
        let node = &mut self.nodes[n];
        let words = payload.len();
        node.free_at += self.cfg.costs.send_total(words);
        let msg = Message::new(n, dst, self.jobs[j].gid, handler, payload);
        node.nic.describe(msg);
        self.next_uid += 1;
        let uid = self.next_uid;
        let stamped = node
            .nic
            .launch(Mode::User)
            .expect("user GIDs are never the kernel GID")
            .expect("descriptor was just written")
            .with_uid(uid);
        self.jobs[j].report.sent += 1;
        self.tracer
            .emit_with(CategoryMask::MSG, || TraceEvent::MsgLaunch {
                node: n,
                job: j,
                dst,
                words,
                uid,
            });
        // The sender has paid the full launch cost by this point; the fault
        // injector decides what the *network* does with the message.
        let (copies, extra) = match self.faults.on_send() {
            NetFault::Deliver => (1, 0),
            NetFault::Drop => {
                // Never injected: no in-flight accounting, no arrival.
                self.tracer
                    .emit_with(CategoryMask::FAULT, || TraceEvent::FaultDrop {
                        node: n,
                        dst,
                        uid,
                    });
                (0, 0)
            }
            NetFault::Duplicate => {
                self.tracer
                    .emit_with(CategoryMask::FAULT, || TraceEvent::FaultDuplicate {
                        node: n,
                        dst,
                        uid,
                    });
                (2, 0)
            }
            NetFault::Delay(extra) => {
                self.tracer
                    .emit_with(CategoryMask::FAULT, || TraceEvent::FaultDelay {
                        node: n,
                        dst,
                        uid,
                        extra,
                    });
                (1, extra)
            }
        };
        for msg in std::iter::repeat_n(stamped, copies) {
            let arrival = self.net.inject_delayed(self.nodes[n].free_at, &msg, extra);
            self.queue.schedule(arrival, Ev::Arrive { node: dst, msg });
        }
    }

    /// Panics unless `dst` names a node of this machine.
    fn check_dst(&self, dst: NodeId) {
        assert!(
            dst < self.cfg.nodes,
            "send to node {dst} but the machine has {} nodes",
            self.cfg.nodes
        );
    }

    /// `extract` (or, with `dispatch`, a polling handler dispatch) against
    /// whichever delivery case is active — the essence of transparent
    /// access (§4.3). `None` when no message is waiting.
    fn poll_take(&mut self, n: NodeId, j: usize, dispatch: bool) -> Option<Envelope> {
        self.nodes[n].free_at += self.cfg.costs.poll_check;
        let start = self.nodes[n].free_at;
        if self.buffered_case(n, j) {
            // Transparent: the base register points at the software buffer.
            self.take_buffered(n, j, start, dispatch)
        } else if !self.nodes[n].nic.message_available() {
            None
        } else if dispatch {
            let entry = self.cfg.costs.poll_dispatch + self.cfg.costs.poll_null_handler;
            Some(self.take_fast(n, j, start, entry, Some(UpcallKind::Poll)))
        } else {
            Some(self.take_fast(n, j, start, 0, None))
        }
    }

    fn on_handler_complete(&mut self, n: NodeId, j: usize) {
        let Upcall { kind, start, uid } = self.nodes[n].procs[j]
            .upcall
            .take()
            .expect("a finished handler was dispatched");
        if kind == UpcallKind::Interrupt {
            self.nodes[n].free_at += self.cfg.costs.rx_interrupt.post();
        }
        let elapsed = self.nodes[n].free_at.saturating_sub(start);
        self.jobs[j].report.handler_cycles.record(elapsed);
        // The handler retires at `free_at`, which can run ahead of the
        // trace clock at this emission (the completion is processed inside
        // the same event that charged the handler's cycles), so the event
        // carries the retirement cycle explicitly — same convention as
        // `FaultNicStall::until`.
        let end = self.nodes[n].free_at;
        self.tracer
            .emit_with(CategoryMask::SPAN, || TraceEvent::HandlerDone {
                node: n,
                job: j,
                uid,
                end,
            });
        {
            let node = &mut self.nodes[n];
            let user_atomic = node.procs[j].atomic;
            // Leave the handler's atomic section unless the user holds one.
            if node.cur_job == j && !user_atomic {
                node.nic.kernel_clear_uac(UacMask::INTERRUPT_DISABLE);
            }
            // A poll-dispatched handler completion releases the polling main.
            let proc = &mut node.procs[j];
            if matches!(kind, UpcallKind::Poll | UpcallKind::Buffered)
                && matches!(proc.main.state, TState::WaitingPoll)
            {
                proc.main.state = TState::Ready(SimResp::Bool(true));
            }
        }
        self.reconcile_timer(n);
    }

    // ==================================================================
    // Atomicity timer
    // ==================================================================

    /// Ensures a timeout event is pending iff the hardware timer should be
    /// counting.
    ///
    /// The timer decrements per *user* cycle, so its base is the node's
    /// logical "now": wall-clock time if a compute block is in progress
    /// (`free_at` then points at the compute's end, which is the future),
    /// otherwise the end of committed work.
    fn reconcile_timer(&mut self, n: NodeId) {
        let should = self.nodes[n].nic.timer_should_run();
        match (should, self.nodes[n].timer_ev) {
            (true, None) => {
                let base = if self.nodes[n].active.is_some() {
                    self.queue.now()
                } else {
                    self.nodes[n].free_at.max(self.queue.now())
                };
                let at = base + self.cfg.costs.atomicity_timeout;
                let ev = self.queue.schedule(at, Ev::AtomTimeout { node: n });
                self.nodes[n].timer_ev = Some(ev);
            }
            (false, Some(ev)) => {
                self.queue.cancel(ev);
                self.nodes[n].timer_ev = None;
            }
            _ => {}
        }
    }

    /// `dispose` presets the timer: cancel and re-arm from scratch.
    fn reset_timer(&mut self, n: NodeId) {
        if let Some(ev) = self.nodes[n].timer_ev.take() {
            self.queue.cancel(ev);
        }
        self.reconcile_timer(n);
    }

    // ==================================================================
    // Reporting
    // ==================================================================

    fn collect_report(self) -> RunReport {
        RunReport::new(
            self.queue.now(),
            self.jobs.into_iter().map(|j| j.report).collect(),
            self.nodes
                .into_iter()
                .map(|n| NodeReport {
                    peak_frames: n.frames.peak_used(),
                    ..n.report
                })
                .collect(),
            self.faults.is_active().then(|| self.faults.counts()),
            self.events_processed,
        )
    }
}

fn envelope(msg: &Message) -> Envelope {
    Envelope {
        src: msg.src(),
        handler: msg.handler(),
        payload: msg.payload_words(),
    }
}

/// Extracts a readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    match payload.downcast_ref::<&'static str>() {
        Some(s) => s,
        None => payload
            .downcast_ref::<String>()
            .map_or("non-string payload", |s| s),
    }
}

fn slot_mut(proc: &mut Proc, which: CtxKind) -> &mut ThreadSlot {
    match which {
        CtxKind::Main => &mut proc.main,
        CtxKind::Handler => &mut proc.handler,
    }
}

fn mix_seed(seed: u64, job: usize, node: usize, salt: u64) -> u64 {
    seed ^ (job as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (node as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ salt.wrapping_mul(0x1656_67B1_9E37_79F9)
}
