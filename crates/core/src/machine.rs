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
//! Execution model: simulated programs run on sim-threads (one main thread
//! and one handler context per process per node). The machine's event loop
//! processes network arrivals, compute completions, atomicity timeouts and
//! quantum switches; each node's processor is a resource on which kernel
//! work preempts user work, exactly one activity computes at a time, and
//! preempted computation resumes with its remaining cycles intact.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use fugu_glaze::{FrameAllocator, GangScheduler, OverflowAction, OverflowControl, VirtualBuffer};
use fugu_net::{Gid, Message, Network, NetworkConfig, NodeId};
use fugu_nic::{HeadDisposition, Mode, Nic, UacMask};
use fugu_sim::coro::{CoEvent, CoId, CoRuntime};
use fugu_sim::event::{EventId, EventQueue};
use fugu_sim::fault::{FaultInjector, NetFault};
use fugu_sim::json::Json;
use fugu_sim::trace::{CategoryMask, TraceEvent, Tracer};
use fugu_sim::Cycles;

use crate::config::{JobSpec, MachineConfig};
use crate::report::{JobReport, NodeReport, RunReport};
use crate::user::{CtxKind, Envelope, SimCall, SimResp, UserCtx};

/// Events in the machine's global future-event list.
#[derive(Debug)]
enum Ev {
    /// A message reaches a node's network interface.
    Arrive { node: NodeId, msg: Message },
    /// A thread's `compute` block completes.
    AdvanceDone {
        node: NodeId,
        job: usize,
        which: CtxKind,
    },
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
    /// Occupying the processor in a `compute` block scheduled over
    /// `[start, until)`.
    ActiveCompute {
        start: Cycles,
        until: Cycles,
        event: EventId,
    },
    /// Preempted or descheduled mid-`compute`.
    PausedCompute { remaining: Cycles },
    /// Blocked on a wake key.
    Blocked(u32),
    /// Blocked on a wake key with a deadline; the pending
    /// [`Ev::BlockTimeout`] is cancelled if the wake arrives first.
    BlockedTimeout { key: u32, event: EventId },
    /// Main thread waiting for a `poll`-dispatched handler to complete.
    WaitingPoll,
    /// Handler context idle, awaiting the next upcall.
    AwaitUpcall,
    /// Thread's closure returned.
    Done,
}

#[derive(Debug)]
struct ThreadSlot {
    coid: CoId,
    state: TState,
}

/// How the currently executing handler was entered, which determines the
/// completion charge.
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
#[derive(Debug)]
struct Proc {
    main: ThreadSlot,
    handler: ThreadSlot,
    mode: DeliveryMode,
    vbuf: VirtualBuffer,
    /// User-level atomicity intent (persists across descheduling; mirrored
    /// into the NIC's interrupt-disable bit while scheduled).
    atomic: bool,
    /// A handler dispatch is in flight on this process.
    in_upcall: bool,
    upcall_kind: UpcallKind,
    upcall_start: Cycles,
    /// Uid of the message the in-flight handler dispatch is servicing
    /// (profiler bookkeeping only; echoed in [`TraceEvent::HandlerDone`]).
    upcall_uid: u64,
    wake_permits: HashMap<u32, u32>,
    /// Demand-zero heap pages already faulted in.
    heap_pages: std::collections::HashSet<u32>,
}

impl Proc {
    /// Consumes a banked wake permit for `key`, if there is one.
    fn take_permit(&mut self, key: u32) -> bool {
        let permits = self.wake_permits.entry(key).or_insert(0);
        let banked = *permits > 0;
        if banked {
            *permits -= 1;
        }
        banked
    }
}

/// Per-node machine state.
struct NodeState {
    nic: Nic,
    /// When the processor is next free. During an `ActiveCompute` this is
    /// the compute's end time (the CPU is committed through it).
    free_at: Cycles,
    cur_job: usize,
    /// Messages held in the network fabric because the NIC queue is full.
    backlog: VecDeque<Message>,
    /// Arrivals deferred by an injected input-stall window, admitted in
    /// order when the window's [`Ev::StallEnd`] fires.
    stall_q: VecDeque<Message>,
    timer_ev: Option<EventId>,
    /// The thread currently occupying the CPU with an `ActiveCompute`.
    active: Option<(usize, CtxKind)>,
    procs: Vec<Proc>,
    frames: FrameAllocator,
    overflow: OverflowControl,
    report: NodeReport,
}

/// Per-job bookkeeping.
struct JobState {
    spec: JobSpec,
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
/// use udm::{JobSpec, Machine, MachineConfig, Program, UserCtx};
///
/// struct Hello;
/// impl Program for Hello {
///     fn main(&self, ctx: &mut UserCtx<'_>) {
///         if ctx.node() == 0 {
///             ctx.send(1, 0, &[42]);
///         } else {
///             ctx.begin_atomic(); // poll-mode reception: defer interrupts
///             while !ctx.poll() {
///                 ctx.compute(10);
///             }
///             ctx.end_atomic();
///         }
///     }
///     fn handler(&self, _ctx: &mut UserCtx<'_>, env: &udm::Envelope) {
///         assert_eq!(env.payload, [42]);
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
    coro: CoRuntime<SimCall, SimResp>,
    net: Network,
    sched: Option<GangScheduler>,
    swap_cost: Cycles,
    jobs: Vec<JobState>,
    nodes: Vec<NodeState>,
    foreground_remaining: usize,
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
                    overflow: OverflowControl::new(cfg.overflow_advise, cfg.overflow_suspend),
                    report: NodeReport::default(),
                };
                node.nic.attach_tracer(tracer.clone(), n);
                node.frames.attach_tracer(tracer.clone(), n);
                node.overflow.attach_tracer(tracer.clone(), n);
                node.nic.attach_faults(faults.clone());
                node.frames.attach_faults(faults.clone());
                node
            })
            .collect();
        Machine {
            cfg,
            queue: EventQueue::new(),
            coro: CoRuntime::new(),
            net: Network::new(NetworkConfig::main_network()),
            sched: None,
            swap_cost,
            jobs: Vec::new(),
            nodes,
            foreground_remaining: 0,
            tracer,
            faults,
            next_uid: 0,
            events_processed: 0,
        }
    }

    /// Replaces the machine's [`Tracer`] (by default built from the
    /// `FUGU_TRACE` environment, see [`Tracer::from_env`]) and re-attaches
    /// it to every node's NIC, frame allocator and overflow controller.
    /// Call before [`Machine::run`]; typically with
    /// [`Tracer::recorder`](fugu_sim::trace::Tracer::recorder) to capture
    /// the event stream in tests, or with a subscriber installed.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
        for (n, node) in self.nodes.iter_mut().enumerate() {
            node.nic.attach_tracer(self.tracer.clone(), n);
            node.frames.attach_tracer(self.tracer.clone(), n);
            node.overflow.attach_tracer(self.tracer.clone(), n);
        }
    }

    /// The machine's trace sink (shared with every node's components).
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
        for n in 0..nnodes {
            let program = Arc::clone(&spec.program);
            let main_seed = mix_seed(seed, job, n, 0);
            let main = self.coro.spawn(move |co| {
                let mut ctx = UserCtx::new(co, n, nnodes, job, CtxKind::Main, faults, main_seed);
                program.main(&mut ctx);
            });
            let program = Arc::clone(&spec.program);
            let handler_seed = mix_seed(seed, job, n, 1);
            let handler = self.coro.spawn(move |co| {
                let kind = CtxKind::Handler;
                let mut ctx = UserCtx::new(co, n, nnodes, job, kind, faults, handler_seed);
                loop {
                    let env = ctx.await_upcall();
                    program.handler(&mut ctx, &env);
                }
            });
            self.nodes[n].procs.push(Proc {
                // The first resume's response is discarded, so a main
                // starts as any ready thread does; `run` parks the handler.
                main: ThreadSlot {
                    coid: main,
                    state: TState::Ready(SimResp::Ok),
                },
                handler: ThreadSlot {
                    coid: handler,
                    state: TState::AwaitUpcall,
                },
                mode: DeliveryMode::Fast,
                vbuf: VirtualBuffer::new(self.cfg.costs.page_size_bytes),
                atomic: false,
                in_upcall: false,
                upcall_kind: UpcallKind::Interrupt,
                upcall_start: 0,
                upcall_uid: 0,
                wake_permits: HashMap::new(),
                heap_pages: std::collections::HashSet::new(),
            });
        }
        self.jobs.push(JobState {
            report: JobReport::new(&spec.name),
            spec,
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
        // Prime each node: schedule its first quantum boundary, park every
        // handler context in its dispatch loop, and start the initially
        // scheduled process.
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
            for j in 0..self.jobs.len() {
                self.run_burst(n, j, CtxKind::Handler, SimResp::Ok);
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
            assert!(
                t <= self.cfg.max_cycles,
                "simulation exceeded max_cycles = {}",
                self.cfg.max_cycles
            );
            self.tracer.set_time(t);
            self.events_processed += 1;
            match ev {
                Ev::Arrive { node, msg } => self.on_arrive(node, msg),
                Ev::AdvanceDone { node, job, which } => self.on_advance_done(node, job, which),
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
        let thread_state = |s: &TState| -> String {
            match s {
                TState::Ready(_) => "ready".into(),
                TState::ActiveCompute { until, .. } => format!("active-compute until={until}"),
                TState::PausedCompute { remaining } => {
                    format!("paused-compute remaining={remaining}")
                }
                TState::Blocked(key) => format!("blocked key={key:#x}"),
                TState::BlockedTimeout { key, .. } => format!("blocked-timeout key={key:#x}"),
                TState::WaitingPoll => "waiting-poll".into(),
                TState::AwaitUpcall => "await-upcall".into(),
                TState::Done => "done".into(),
            }
        };
        let nodes = self.nodes.iter().enumerate().map(|(n, node)| {
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
                    ("in_upcall", Json::from(p.in_upcall)),
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
        Json::object([
            ("at", Json::from(self.queue.now())),
            (
                "outstanding_messages",
                Json::from(self.net.injected() - self.net.delivered()),
            ),
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
        if let Some(until) = self.nodes[n].nic.input_stalled(self.queue.now()) {
            self.nodes[n].stall_q.push_back(msg);
            self.queue.schedule(until, Ev::StallEnd { node: n });
            return;
        }
        // The NIC emits `TraceEvent::MsgArrive` when the message enters its
        // queue; backlogged messages are traced on admission, not here.
        let node = &mut self.nodes[n];
        if node.backlog.is_empty() && !node.nic.queue_full() {
            node.nic.enqueue(msg).expect("queue_full was checked");
            self.net.deliver(n);
        } else {
            // The interface is full: the message waits in the fabric,
            // preserving FIFO order behind earlier held messages.
            node.backlog.push_back(msg);
        }
        self.schedule_node(n);
    }

    /// Admits the arrivals a lapsed stall window was holding, in arrival
    /// order. Held messages are not re-rolled against the stall plan — the
    /// window already deferred them once.
    fn on_stall_end(&mut self, n: NodeId) {
        while let Some(msg) = self.nodes[n].stall_q.pop_front() {
            let node = &mut self.nodes[n];
            if node.backlog.is_empty() && !node.nic.queue_full() {
                node.nic.enqueue(msg).expect("queue_full was checked");
                self.net.deliver(n);
            } else {
                node.backlog.push_back(msg);
            }
        }
        self.schedule_node(n);
    }

    fn on_advance_done(&mut self, n: NodeId, job: usize, which: CtxKind) {
        debug_assert_eq!(self.nodes[n].active, Some((job, which)));
        let node = &mut self.nodes[n];
        let slot = slot_mut(&mut node.procs[job], which);
        match slot.state {
            TState::ActiveCompute { until, .. } => {
                debug_assert_eq!(until, self.queue.now());
                node.free_at = until;
                slot.state = TState::Ready(SimResp::Ok);
            }
            ref other => panic!("AdvanceDone for thread in state {other:?}"),
        }
        node.active = None;
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
            // to revocation when the handler context is unavailable.
            let can_force = self.nodes[n].nic.message_available()
                && matches!(self.nodes[n].procs[j].handler.state, TState::AwaitUpcall)
                && !self.nodes[n].procs[j].in_upcall;
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
        let disable = incoming.atomic || incoming.in_upcall;
        node.nic.set_divert(divert);
        // Restore the incoming process's atomicity state into the hardware.
        if disable {
            node.nic.kernel_set_uac(UacMask::INTERRUPT_DISABLE);
        } else {
            node.nic.kernel_clear_uac(UacMask::INTERRUPT_DISABLE);
        }
        self.reset_timer(n);
        self.schedule_node(n);
    }

    /// A `block_timeout` deadline fired. The wake path cancels the pending
    /// event, so a firing event always finds the thread still blocked.
    fn on_block_timeout(&mut self, n: NodeId, j: usize, key: u32) {
        let proc = &mut self.nodes[n].procs[j];
        match proc.main.state {
            TState::BlockedTimeout { key: k, .. } if k == key => {
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
                self.refill_nic(n);
                continue;
            }
            // 2. Admit fabric-held messages once the queue has space.
            if !self.nodes[n].backlog.is_empty() && !self.nodes[n].nic.queue_full() {
                self.refill_nic(n);
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
                    && !proc.in_upcall
                    && matches!(proc.handler.state, TState::AwaitUpcall)
                {
                    self.preempt_active(n);
                    let start = self.nodes[n].free_at.max(self.queue.now());
                    let env = self
                        .take_buffered(n, j, start, true)
                        .expect("vbuf nonempty");
                    self.run_burst(n, j, CtxKind::Handler, SimResp::Upcall(env));
                    continue;
                }
            }
            // 4. Leave buffered mode once the last buffered message has
            //    been handled.
            {
                let proc = &self.nodes[n].procs[j];
                if proc.mode == DeliveryMode::Buffered && proc.vbuf.is_empty() && !proc.in_upcall {
                    self.tracer
                        .emit_with(CategoryMask::MODE, || TraceEvent::ModeExit {
                            node: n,
                            job: j,
                        });
                    self.nodes[n].procs[j].mode = DeliveryMode::Fast;
                    self.nodes[n].nic.set_divert(false);
                    continue;
                }
            }
            // 5. Fast-path upcall.
            if matches!(
                self.nodes[n].nic.head_disposition(),
                Some(HeadDisposition::UserInterrupt)
            ) && matches!(self.nodes[n].procs[j].handler.state, TState::AwaitUpcall)
                && !self.nodes[n].procs[j].in_upcall
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
            // `Done` is a placeholder until run_burst or resume_compute sets
            // the real state.
            match std::mem::replace(&mut slot.state, TState::Done) {
                TState::Ready(resp) => {
                    let now = self.queue.now();
                    let node = &mut self.nodes[n];
                    node.free_at = node.free_at.max(now);
                    self.run_burst(n, j, which, resp);
                    continue;
                }
                TState::PausedCompute { remaining } => self.resume_compute(n, j, which, remaining),
                other => slot.state = other,
            }
            break;
        }
        self.reconcile_timer(n);
    }

    /// Reschedules a paused compute on the now-free processor.
    fn resume_compute(&mut self, n: NodeId, j: usize, which: CtxKind, remaining: Cycles) {
        let now = self.queue.now();
        let node = &mut self.nodes[n];
        let start = node.free_at.max(now);
        let until = start + remaining;
        node.free_at = until;
        let event = self.queue.schedule(
            until,
            Ev::AdvanceDone {
                node: n,
                job: j,
                which,
            },
        );
        slot_mut(&mut self.nodes[n].procs[j], which).state = TState::ActiveCompute {
            start,
            until,
            event,
        };
        self.nodes[n].active = Some((j, which));
    }

    /// Pauses the node's active compute (if any), crediting the unspent
    /// cycles back to the thread. The processor becomes free at the
    /// preemption point (never earlier than work already committed before
    /// the compute began).
    fn preempt_active(&mut self, n: NodeId) {
        let Some((j, w)) = self.nodes[n].active.take() else {
            return;
        };
        let t = self.queue.now();
        let node = &mut self.nodes[n];
        let slot = slot_mut(&mut node.procs[j], w);
        match slot.state {
            TState::ActiveCompute {
                start,
                until,
                event,
            } => {
                self.queue.cancel(event);
                let p = t.clamp(start, until);
                slot.state = TState::PausedCompute {
                    remaining: until - p,
                };
                node.free_at = p;
            }
            ref other => panic!("active thread in state {other:?}"),
        }
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
            // The clone is O(1): the payload is Arc-shared, so the fallback
            // path below can still consume `msg` without a deep copy here.
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
            node.report.peak_frames = node.report.peak_frames.max(node.frames.peak_used());
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
        match self.nodes[n].overflow.check(free) {
            Some(OverflowAction::AdviseGangSchedule) => {
                self.nodes[n].report.overflow_advises += 1;
            }
            Some(OverflowAction::SuspendGlobally) => {
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

    /// Moves fabric-held messages into freed NIC queue slots.
    fn refill_nic(&mut self, n: NodeId) {
        let node = &mut self.nodes[n];
        while !node.backlog.is_empty() && !node.nic.queue_full() {
            let msg = node.backlog.pop_front().expect("nonempty");
            node.nic.enqueue(msg).expect("space was checked");
            self.net.deliver(n);
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
        let env = self.take_fast(n, j, start, entry, Some(UpcallKind::Interrupt));
        self.run_burst(n, j, CtxKind::Handler, SimResp::Upcall(env));
    }

    /// Whether process `j` on node `n` reads the software buffer rather
    /// than the NIC: it is in buffered mode, or not scheduled at all.
    fn buffered_case(&self, n: NodeId, j: usize) -> bool {
        let node = &self.nodes[n];
        node.procs[j].mode == DeliveryMode::Buffered || node.cur_job != j
    }

    /// Fast case: disposes the head message straight out of the NIC,
    /// charging `entry` plus the per-word reads from `start`. With an
    /// `upcall` the handler is entered in an atomic section.
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
            self.begin_upcall(n, j, kind, start, uid);
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
    /// `start`, and enters the handler if `upcall`. `None` when the buffer
    /// is empty.
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
            self.begin_upcall(n, j, UpcallKind::Buffered, start, uid);
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

    /// Marks a handler dispatch of message `uid` in flight from `start`.
    fn begin_upcall(&mut self, n: NodeId, j: usize, kind: UpcallKind, start: Cycles, uid: u64) {
        let proc = &mut self.nodes[n].procs[j];
        proc.in_upcall = true;
        proc.upcall_kind = kind;
        proc.upcall_start = start;
        proc.upcall_uid = uid;
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
            node.nic.set_divert(true);
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

    /// Resumes a thread with `resp` and services its requests until it
    /// suspends or finishes.
    fn run_burst(&mut self, n: NodeId, j: usize, which: CtxKind, first: SimResp) {
        let mut resp = first;
        loop {
            let coid = slot_mut(&mut self.nodes[n].procs[j], which).coid;
            match self.coro.resume(coid, resp) {
                CoEvent::Finished => {
                    self.on_thread_finished(n, j, which);
                    return;
                }
                CoEvent::Panicked(m) => panic!(
                    "job '{}' {:?} context on node {} panicked: {}",
                    self.jobs[j].spec.name, which, n, m
                ),
                CoEvent::Request(call) => match self.apply(n, j, which, call) {
                    Some(r) => resp = r,
                    None => return, // suspended; state set inside apply
                },
            }
        }
    }

    fn on_thread_finished(&mut self, n: NodeId, j: usize, which: CtxKind) {
        match which {
            CtxKind::Handler => panic!(
                "handler context of job '{}' on node {} exited its dispatch loop",
                self.jobs[j].spec.name, n
            ),
            CtxKind::Main => {
                self.nodes[n].procs[j].main.state = TState::Done;
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

    /// Services one simulator call from a thread. Returns `Some(resp)` to
    /// continue the burst, or `None` if the thread suspended (its state has
    /// been recorded).
    fn apply(&mut self, n: NodeId, j: usize, which: CtxKind, call: SimCall) -> Option<SimResp> {
        match call {
            SimCall::Now => Some(SimResp::Time(self.nodes[n].free_at)),

            SimCall::Compute(c) => {
                let node = &mut self.nodes[n];
                let start = node.free_at;
                let until = start + c;
                node.free_at = until;
                let event = self.queue.schedule(
                    until,
                    Ev::AdvanceDone {
                        node: n,
                        job: j,
                        which,
                    },
                );
                slot_mut(&mut node.procs[j], which).state = TState::ActiveCompute {
                    start,
                    until,
                    event,
                };
                node.active = Some((j, which));
                None
            }

            SimCall::Send {
                dst,
                handler,
                payload,
            } => {
                self.do_send(n, j, dst, handler, payload);
                Some(SimResp::Ok)
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

            SimCall::BeginAtomic => {
                let node = &mut self.nodes[n];
                node.free_at += 1;
                node.procs[j].atomic = true;
                if node.cur_job == j {
                    node.nic
                        .beginatom(Mode::User, UacMask::INTERRUPT_DISABLE)
                        .expect("interrupt-disable is a user bit");
                }
                self.reconcile_timer(n);
                Some(SimResp::Ok)
            }

            SimCall::EndAtomic => {
                let node = &mut self.nodes[n];
                node.free_at += 1;
                node.procs[j].atomic = false;
                if node.cur_job == j && !node.procs[j].in_upcall {
                    node.nic.kernel_clear_uac(UacMask::INTERRUPT_DISABLE);
                }
                self.reconcile_timer(n);
                Some(SimResp::Ok)
            }

            SimCall::Block(key) => {
                assert_eq!(which, CtxKind::Main, "handlers must not block");
                let proc = &mut self.nodes[n].procs[j];
                if proc.take_permit(key) {
                    Some(SimResp::Ok)
                } else {
                    proc.main.state = TState::Blocked(key);
                    None
                }
            }

            SimCall::BlockTimeout { key, timeout } => {
                assert_eq!(which, CtxKind::Main, "handlers must not block");
                if self.nodes[n].procs[j].take_permit(key) {
                    Some(SimResp::Bool(true))
                } else {
                    let deadline = self.nodes[n].free_at.max(self.queue.now()) + timeout;
                    let event = self.queue.schedule(
                        deadline,
                        Ev::BlockTimeout {
                            node: n,
                            job: j,
                            key,
                        },
                    );
                    self.nodes[n].procs[j].main.state = TState::BlockedTimeout { key, event };
                    None
                }
            }

            SimCall::Wake(key) => {
                // A wake on a deadline-block cancels its pending timeout.
                let timed = match self.nodes[n].procs[j].main.state {
                    TState::Blocked(k) if k == key => Some(None),
                    TState::BlockedTimeout { key: k, event } if k == key => Some(Some(event)),
                    _ => None,
                };
                match timed {
                    Some(None) => {
                        self.nodes[n].procs[j].main.state = TState::Ready(SimResp::Ok);
                    }
                    Some(Some(event)) => {
                        self.queue.cancel(event);
                        self.nodes[n].procs[j].main.state = TState::Ready(SimResp::Bool(true));
                    }
                    None => {
                        *self.nodes[n].procs[j].wake_permits.entry(key).or_insert(0) += 1;
                    }
                }
                Some(SimResp::Ok)
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

            SimCall::TouchPage(page) => {
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
                    node.report.peak_frames = node.report.peak_frames.max(node.frames.peak_used());
                    node.procs[j].heap_pages.insert(page);
                    if self.nodes[n].procs[j].in_upcall {
                        self.enter_buffered(n, j);
                    }
                }
                Some(SimResp::Ok)
            }

            SimCall::PollDispatch => {
                assert_eq!(which, CtxKind::Main, "handler context cannot poll-dispatch");
                let Some(env) = self.poll_take(n, j, true) else {
                    return Some(SimResp::Bool(false));
                };
                // Park the polling main *before* the handler runs: the
                // handler may complete synchronously inside this call, and
                // its completion is what re-readies the main thread.
                self.nodes[n].procs[j].main.state = TState::WaitingPoll;
                self.run_burst(n, j, CtxKind::Handler, SimResp::Upcall(env));
                None
            }

            SimCall::AwaitUpcall => {
                assert_eq!(which, CtxKind::Handler);
                // Completion of the previous dispatch.
                self.on_handler_complete(n, j);
                self.nodes[n].procs[j].handler.state = TState::AwaitUpcall;
                None
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
        match self.faults.on_send() {
            NetFault::Deliver => {
                let arrival = self.net.inject(self.nodes[n].free_at, &stamped);
                self.queue.schedule(
                    arrival,
                    Ev::Arrive {
                        node: dst,
                        msg: stamped,
                    },
                );
            }
            NetFault::Drop => {
                // Never injected: no in-flight accounting, no arrival.
                self.tracer
                    .emit_with(CategoryMask::FAULT, || TraceEvent::FaultDrop {
                        node: n,
                        dst,
                        uid,
                    });
            }
            NetFault::Duplicate => {
                self.tracer
                    .emit_with(CategoryMask::FAULT, || TraceEvent::FaultDuplicate {
                        node: n,
                        dst,
                        uid,
                    });
                for _ in 0..2 {
                    let arrival = self.net.inject(self.nodes[n].free_at, &stamped);
                    self.queue.schedule(
                        arrival,
                        Ev::Arrive {
                            node: dst,
                            msg: stamped.clone(),
                        },
                    );
                }
            }
            NetFault::Delay(extra) => {
                self.tracer
                    .emit_with(CategoryMask::FAULT, || TraceEvent::FaultDelay {
                        node: n,
                        dst,
                        uid,
                        extra,
                    });
                let arrival = self
                    .net
                    .inject_delayed(self.nodes[n].free_at, &stamped, extra);
                self.queue.schedule(
                    arrival,
                    Ev::Arrive {
                        node: dst,
                        msg: stamped,
                    },
                );
            }
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
        let (kind, start, uid) = {
            let proc = &mut self.nodes[n].procs[j];
            if !proc.in_upcall {
                return; // `run` parking the handler: nothing to complete
            }
            proc.in_upcall = false;
            (proc.upcall_kind, proc.upcall_start, proc.upcall_uid)
        };
        if kind == UpcallKind::Interrupt {
            self.nodes[n].free_at += self.cfg.costs.rx_interrupt.post();
        }
        let elapsed = self.nodes[n].free_at.saturating_sub(start);
        let report = &mut self.jobs[j].report;
        report.handler_cycles.push(elapsed as f64);
        report.handler_hist.record(elapsed);
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
                    peak_frames: n.report.peak_frames.max(n.frames.peak_used()),
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
        payload: msg.payload_shared(),
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
