//! Integration tests of the simulated FUGU machine: cost-model fidelity
//! (Tables 4/5), two-case delivery transitions, transparent access,
//! revocation, overflow control and determinism.

// `JobSpec` holds an `Arc<dyn Program>`; these programs are single-threaded.
#![allow(clippy::arc_with_non_send_sync)]

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use fugu_sim::fault::FaultPlan;
use fugu_sim::trace::{CategoryMask, TraceEvent, Tracer};
use udm::{
    CostModel, CtxKind, Envelope, JobSpec, Machine, MachineConfig, NicConfig, Program, RunReport,
    Sim, UserCtx,
};

/// Convenience: a machine with `nodes` nodes and otherwise default config.
fn machine(nodes: usize) -> Machine {
    Machine::new(MachineConfig {
        nodes,
        ..Default::default()
    })
}

// ======================================================================
// Basic delivery
// ======================================================================

/// Node 0 sends one interrupt-delivered null message to node 1, which just
/// computes until the handler flips a flag.
struct OneShot {
    got: Cell<bool>,
}

impl Program for OneShot {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            match ctx.node() {
                0 => ctx.send(1, 7, &[]).await,
                1 => {
                    while !self.got.get() {
                        ctx.compute(50).await;
                    }
                }
                _ => {}
            }
        })
    }
    fn handler<'a>(&'a self, ctx: &'a mut UserCtx, env: &'a Envelope) -> Sim<'a> {
        Box::pin(async move {
            assert_eq!(env.handler.0, 7);
            assert_eq!(env.src, 0);
            assert_eq!(ctx.node(), 1);
            self.got.set(true);
        })
    }
}

#[test]
fn interrupt_delivery_reaches_handler() {
    let mut m = machine(2);
    m.add_job(JobSpec::new(
        "oneshot",
        Arc::new(OneShot {
            got: Cell::new(false),
        }),
    ));
    let r = m.run();
    let j = r.job("oneshot");
    assert_eq!(j.sent, 1);
    assert_eq!(j.delivered_fast, 1);
    assert_eq!(j.delivered_buffered, 0);
    assert_eq!(j.buffered_fraction(), 0.0);
}

/// An interrupt-delivered null message into an idle compute loop costs
/// exactly the Table 4 total (87 cycles at hard atomicity) — measured from
/// the machine, not asserted from the constants.
#[test]
fn table4_interrupt_cost_is_emergent() {
    for (column, costs, expect) in [
        ("kernel mode", CostModel::kernel(), 54.0),
        ("hard atomicity", CostModel::hard_atomicity(), 87.0),
        ("soft atomicity", CostModel::soft_atomicity(), 115.0),
    ] {
        let mut m = Machine::new(MachineConfig {
            nodes: 2,
            costs,
            ..Default::default()
        });
        m.add_job(JobSpec::new(
            "oneshot",
            Arc::new(OneShot {
                got: Cell::new(false),
            }),
        ));
        let r = m.run();
        let j = r.job("oneshot");
        assert_eq!(j.handler_cycles.total(), 1);
        assert_eq!(
            j.handler_cycles.mean(),
            expect,
            "interrupt total for {column}"
        );
    }
}

/// Per-word receive charge: a 4-word payload adds 2 cycles/word to the
/// interrupt total.
#[test]
fn table4_per_word_receive_cost() {
    struct WordShot;
    impl Program for WordShot {
        fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
            Box::pin(async move {
                if ctx.node() == 0 {
                    ctx.send(1, 0, &[1, 2, 3, 4]).await;
                } else {
                    ctx.compute(5_000).await;
                }
            })
        }
        fn handler<'a>(&'a self, _ctx: &'a mut UserCtx, env: &'a Envelope) -> Sim<'a> {
            Box::pin(async move {
                assert_eq!(env.payload, [1, 2, 3, 4]);
            })
        }
    }
    let mut m = machine(2);
    m.add_job(JobSpec::new("words", Arc::new(WordShot)));
    let r = m.run();
    assert_eq!(r.job("words").handler_cycles.mean(), 87.0 + 8.0);
}

// ======================================================================
// Polling
// ======================================================================

/// Ping-pong via polling inside atomic sections.
struct PollPong {
    rounds: u32,
}

impl Program for PollPong {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            ctx.begin_atomic().await;
            if ctx.node() == 0 {
                for _ in 0..self.rounds {
                    ctx.send(1, 0, &[]).await;
                    while !ctx.poll().await {
                        ctx.compute(5).await;
                    }
                }
            } else {
                for _ in 0..self.rounds {
                    while !ctx.poll().await {
                        ctx.compute(5).await;
                    }
                }
            }
            ctx.end_atomic().await;
        })
    }
    fn handler<'a>(&'a self, ctx: &'a mut UserCtx, env: &'a Envelope) -> Sim<'a> {
        Box::pin(async move {
            if ctx.node() == 1 {
                ctx.send(env.src, 0, &[]).await;
            }
        })
    }
}

#[test]
fn polling_ping_pong_round_trips() {
    let mut m = machine(2);
    m.add_job(JobSpec::new("pp", Arc::new(PollPong { rounds: 10 })));
    let r = m.run();
    let j = r.job("pp");
    assert_eq!(j.sent, 20);
    assert_eq!(j.delivered_fast, 20);
    assert_eq!(j.delivered_buffered, 0, "atomic polling must not time out");
    assert_eq!(j.atomicity_timeouts, 0);
}

/// Raw extraction (`poll_extract`) without handler dispatch.
struct RawExtract;
impl Program for RawExtract {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            if ctx.node() == 0 {
                ctx.send(1, 3, &[9, 9]).await;
            } else {
                ctx.begin_atomic().await;
                loop {
                    if let Some(env) = ctx.poll_extract().await {
                        assert_eq!(env.handler.0, 3);
                        assert_eq!(env.payload, [9, 9]);
                        break;
                    }
                    ctx.compute(10).await;
                }
                ctx.end_atomic().await;
            }
        })
    }
}

#[test]
fn raw_extract_bypasses_handler() {
    let mut m = machine(2);
    m.add_job(JobSpec::new("raw", Arc::new(RawExtract)));
    let r = m.run();
    assert_eq!(r.job("raw").delivered_fast, 1);
    assert_eq!(r.job("raw").handler_cycles.total(), 0);
}

// ======================================================================
// Revocable interrupt disable (the paper's §4.1 centerpiece)
// ======================================================================

/// Node 1 sits in an atomic section far longer than the atomicity timeout
/// while node 0 sends it a message: the OS must revoke interrupt disable,
/// divert the message to the software buffer, and deliver it transparently
/// when node 1 finally polls.
struct AtomicHog;
impl Program for AtomicHog {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            if ctx.node() == 0 {
                ctx.send(1, 0, &[5]).await;
            } else {
                ctx.begin_atomic().await;
                ctx.compute(100_000).await; // >> default 8192-cycle timeout
                                            // Transparent access: this poll is served from the software
                                            // buffer (the message was revoked into it long ago).
                let mut got = false;
                while !got {
                    got = ctx.poll().await;
                }
                ctx.end_atomic().await;
            }
        })
    }
    fn handler<'a>(&'a self, _ctx: &'a mut UserCtx, env: &'a Envelope) -> Sim<'a> {
        Box::pin(async move {
            assert_eq!(env.payload, [5]);
        })
    }
}

#[test]
fn atomicity_timeout_revokes_to_buffered_mode() {
    let mut m = machine(2);
    m.add_job(JobSpec::new("hog", Arc::new(AtomicHog)));
    let r = m.run();
    let j = r.job("hog");
    assert_eq!(j.atomicity_timeouts, 1, "timer must have revoked once");
    assert_eq!(
        j.delivered_buffered, 1,
        "message must take the buffered path"
    );
    assert_eq!(j.delivered_fast, 0);
    assert!(r.peak_buffer_pages() >= 1);
}

/// A well-behaved atomic section (polls promptly) is never revoked, even
/// over many messages: dispose presets the timer.
#[test]
fn prompt_polling_is_never_revoked() {
    let mut m = machine(2);
    m.add_job(JobSpec::new("pp", Arc::new(PollPong { rounds: 200 })));
    let r = m.run();
    assert_eq!(r.job("pp").atomicity_timeouts, 0);
    assert_eq!(r.job("pp").delivered_buffered, 0);
}

// ======================================================================
// Multiprogramming: GID mismatch, quantum switches, transparency
// ======================================================================

/// The experiments' "null" application: computes forever.
pub struct NullApp;
impl Program for NullApp {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            loop {
                ctx.compute(10_000).await;
            }
        })
    }
}

/// All-to-all exchanger used to drive cross-quantum traffic: each node
/// sends `count` messages to each peer with gaps, then waits until it has
/// received everything.
struct Exchanger {
    count: u32,
    gap: u64,
    received: Vec<Cell<u32>>,
}

impl Exchanger {
    fn new(nodes: usize, count: u32, gap: u64) -> Self {
        Exchanger {
            count,
            gap,
            received: (0..nodes).map(|_| Cell::new(0)).collect(),
        }
    }
}

impl Program for Exchanger {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            let me = ctx.node();
            let n = ctx.nodes();
            let expect = (n as u32 - 1) * self.count;
            for _ in 0..self.count {
                for dst in 0..n {
                    if dst != me {
                        ctx.send(dst, 0, &[me as u32]).await;
                    }
                }
                ctx.compute(self.gap).await;
            }
            while self.received[me].get() < expect {
                ctx.compute(500).await;
            }
        })
    }
    fn handler<'a>(&'a self, ctx: &'a mut UserCtx, _env: &'a Envelope) -> Sim<'a> {
        Box::pin(async move {
            self.received[ctx.node()].set(self.received[ctx.node()].get() + 1);
        })
    }
}

#[test]
fn multiprogrammed_skewed_run_buffers_but_loses_nothing() {
    let nodes = 4;
    let mut m = Machine::new(MachineConfig {
        nodes,
        skew: 0.2,
        costs: CostModel {
            timeslice: 20_000, // small timeslice to force many switches
            ..CostModel::hard_atomicity()
        },
        ..Default::default()
    });
    m.add_job(JobSpec::new(
        "exchange",
        Arc::new(Exchanger::new(nodes, 40, 800)),
    ));
    m.add_job(JobSpec::new("null", Arc::new(NullApp)).background());
    let r = m.run();
    let j = r.job("exchange");
    let total = (nodes as u64) * (nodes as u64 - 1) * 40;
    assert_eq!(j.sent, total);
    assert_eq!(
        j.delivered(),
        total,
        "every message must be delivered exactly once (fast {} + buffered {})",
        j.delivered_fast,
        j.delivered_buffered
    );
    assert!(
        j.delivered_buffered > 0,
        "a skewed multiprogrammed run must exercise the buffered path"
    );
    assert!(
        j.delivered_fast > 0,
        "the fast path must still carry traffic"
    );
    assert!(r.nodes.iter().all(|n| n.quantum_switches > 0));
}

#[test]
fn zero_skew_multiprogramming_buffers_little() {
    let nodes = 4;
    let run = |skew: f64| -> RunReport {
        let mut m = Machine::new(MachineConfig {
            nodes,
            skew,
            costs: CostModel {
                timeslice: 50_000,
                ..CostModel::hard_atomicity()
            },
            ..Default::default()
        });
        m.add_job(JobSpec::new(
            "exchange",
            Arc::new(Exchanger::new(nodes, 40, 400)),
        ));
        m.add_job(JobSpec::new("null", Arc::new(NullApp)).background());
        m.run()
    };
    let aligned = run(0.0);
    let skewed = run(0.4);
    let f0 = aligned.job("exchange").buffered_fraction();
    let f4 = skewed.job("exchange").buffered_fraction();
    assert!(f4 > f0, "skew must increase buffering: {f0:.3} !< {f4:.3}");
    // The fast case is the common case when schedules align.
    assert!(f0 < 0.25, "aligned run buffered {:.1}%", f0 * 100.0);
}

/// The paper's §5.1 headline: physical memory for buffering stays small.
#[test]
fn buffering_uses_few_physical_pages() {
    let nodes = 4;
    let mut m = Machine::new(MachineConfig {
        nodes,
        skew: 0.3,
        costs: CostModel {
            timeslice: 20_000,
            ..CostModel::hard_atomicity()
        },
        ..Default::default()
    });
    m.add_job(JobSpec::new(
        "exchange",
        Arc::new(Exchanger::new(nodes, 60, 500)),
    ));
    m.add_job(JobSpec::new("null", Arc::new(NullApp)).background());
    let r = m.run();
    assert!(r.job("exchange").delivered_buffered > 0);
    assert!(
        r.peak_buffer_pages() <= 7,
        "paper claims <7 pages/node; saw {}",
        r.peak_buffer_pages()
    );
}

// ======================================================================
// Block / wake
// ======================================================================

struct BlockWake;
impl Program for BlockWake {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            if ctx.node() == 0 {
                ctx.compute(1_000).await;
                ctx.send(1, 0, &[]).await;
            } else {
                ctx.block(42).await; // sleep until the handler wakes us
            }
        })
    }
    fn handler<'a>(&'a self, ctx: &'a mut UserCtx, _env: &'a Envelope) -> Sim<'a> {
        Box::pin(async move {
            ctx.wake(42).await;
        })
    }
}

#[test]
fn handler_wakes_blocked_main() {
    let mut m = machine(2);
    m.add_job(JobSpec::new("bw", Arc::new(BlockWake)));
    let r = m.run();
    assert_eq!(r.job("bw").delivered_fast, 1);
}

/// A wake that lands before the block must not be lost.
struct EarlyWake;
impl Program for EarlyWake {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            if ctx.node() == 0 {
                ctx.send(1, 0, &[]).await;
            } else {
                // Compute long enough that the message (and its wake) arrives
                // before we block.
                ctx.compute(50_000).await;
                ctx.block(1).await;
            }
        })
    }
    fn handler<'a>(&'a self, ctx: &'a mut UserCtx, _env: &'a Envelope) -> Sim<'a> {
        Box::pin(async move {
            ctx.wake(1).await;
        })
    }
}

#[test]
fn early_wake_is_banked_not_lost() {
    let mut m = machine(2);
    m.add_job(JobSpec::new("ew", Arc::new(EarlyWake)));
    let r = m.run();
    assert_eq!(r.job("ew").delivered_fast, 1);
}

/// Node 1's main makes a deadline-block that a handler wakes in time, one
/// that times out, and then a plain block whose wake arrived after that
/// timeout. Each handler wakes the key named by its handler word.
#[derive(Default)]
struct TimedBlocks {
    /// (first block_timeout, second block_timeout, cycles the second waited,
    /// cycles the final block waited).
    seen: Cell<Option<(bool, bool, u64, u64)>>,
}

impl Program for TimedBlocks {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            if ctx.node() == 0 {
                ctx.compute(1_000).await;
                ctx.send(1, 1, &[]).await;
                // Lands long after node 1's second deadline has passed.
                ctx.compute(3_000_000).await;
                ctx.send(1, 2, &[]).await;
                return;
            }
            let first = ctx.block_timeout(1, 1_000_000).await;
            // Run well past the first deadline: had its cancelled event
            // fired, the machine would panic here.
            ctx.compute(2_000_000).await;
            let t0 = ctx.now().await;
            let second = ctx.block_timeout(2, 5_000).await;
            let waited = ctx.now().await - t0;
            // The key-2 wake arrives during this compute and is banked.
            ctx.compute(2_000_000).await;
            let t1 = ctx.now().await;
            ctx.block(2).await;
            let blocked = ctx.now().await - t1;
            self.seen.set(Some((first, second, waited, blocked)));
        })
    }
    fn handler<'a>(&'a self, ctx: &'a mut UserCtx, env: &'a Envelope) -> Sim<'a> {
        Box::pin(async move {
            ctx.wake(env.handler.0).await;
        })
    }
}

#[test]
fn block_timeout_wakes_times_out_and_banks_late_wakes() {
    let p = Arc::new(TimedBlocks::default());
    let mut m = machine(2);
    m.add_job(JobSpec::new("tb", Arc::clone(&p) as Arc<dyn Program>));
    let r = m.run();
    assert_eq!(r.job("tb").delivered_fast, 2);
    let (first, second, waited, blocked) = p.seen.get().expect("node 1's main finished");
    assert!(first, "a wake before the deadline returns true");
    assert!(!second, "an unwoken deadline-block returns false");
    assert!(waited >= 5_000, "timed out after {waited} < 5000 cycles");
    assert_eq!(
        blocked, 0,
        "the late wake was banked, so block returns at once"
    );
}

/// While node 1's main computes, handlers bank wakes on keys A, B and A.
/// Then two blocks on A and one on B return at once, and a block on A
/// waits for a later wake. A deadline-block on A in between must time out
/// although B still holds a permit, so a permit taken for the wrong key
/// fails the test, and so does one merged into another key or lost.
#[derive(Default)]
struct BankedKeys {
    /// Cycles each block waited, in order: A, A, the A probe, B, the last A.
    waits: RefCell<Vec<u64>>,
    /// Whether the A probe was woken (it must time out instead).
    probe_woken: Cell<Option<bool>>,
}

impl BankedKeys {
    const A: u32 = 7;
    const B: u32 = 9;
}

impl Program for BankedKeys {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            let (a, b) = (BankedKeys::A, BankedKeys::B);
            if ctx.node() == 0 {
                for key in [a, b, a] {
                    ctx.send(1, key, &[]).await;
                }
                ctx.compute(1_000_000).await;
                ctx.send(1, a, &[]).await;
                return;
            }
            ctx.compute(50_000).await;
            for (i, key) in [a, a, a, b, a].into_iter().enumerate() {
                let t0 = ctx.now().await;
                if i == 2 {
                    self.probe_woken
                        .set(Some(ctx.block_timeout(key, 5_000).await));
                } else {
                    ctx.block(key).await;
                }
                let waited = ctx.now().await - t0;
                self.waits.borrow_mut().push(waited);
            }
        })
    }
    fn handler<'a>(&'a self, ctx: &'a mut UserCtx, env: &'a Envelope) -> Sim<'a> {
        Box::pin(async move {
            ctx.wake(env.handler.0).await;
        })
    }
}

#[test]
fn wake_permits_are_banked_per_key() {
    let p = Arc::new(BankedKeys::default());
    let mut m = machine(2);
    m.add_job(JobSpec::new("bk", Arc::clone(&p) as Arc<dyn Program>));
    let r = m.run();
    assert_eq!(r.job("bk").delivered_fast, 4);
    let waits = p.waits.borrow().clone();
    assert_eq!(waits.len(), 5, "node 1's main finished: {waits:?}");
    assert_eq!(
        (waits[0], waits[1], waits[3]),
        (0, 0, 0),
        "two banked A permits and one banked B permit return at once: {waits:?}"
    );
    assert_eq!(
        p.probe_woken.get(),
        Some(false),
        "no third A permit was banked"
    );
    assert!(waits[2] >= 5_000, "the A probe timed out: {waits:?}");
    assert!(
        waits[4] >= 500_000,
        "the last block on A waits for node 0's later wake: {waits:?}"
    );
}

/// Node 0 sends node 1 several messages; node 1's handler draws from its
/// context's rng on each dispatch.
#[derive(Default)]
struct HandlerDraws {
    draws: RefCell<Vec<u64>>,
}

const DRAW_MSGS: usize = 6;

impl Program for HandlerDraws {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            if ctx.node() == 0 {
                for _ in 0..DRAW_MSGS {
                    ctx.send(1, 0, &[]).await;
                    ctx.compute(500).await;
                }
            } else {
                for _ in 0..DRAW_MSGS {
                    ctx.block(0).await;
                }
            }
        })
    }
    fn handler<'a>(&'a self, ctx: &'a mut UserCtx, _env: &'a Envelope) -> Sim<'a> {
        Box::pin(async move {
            let x = ctx.rng().next_u64();
            self.draws.borrow_mut().push(x);
            ctx.wake(0).await;
        })
    }
}

#[test]
fn handler_rng_stream_persists_across_dispatches() {
    let run = || {
        let p = Arc::new(HandlerDraws::default());
        let mut m = machine(2);
        m.add_job(JobSpec::new("draws", Arc::clone(&p) as Arc<dyn Program>));
        m.run();
        p.draws.take()
    };
    let a = run();
    assert_eq!(a.len(), DRAW_MSGS);
    let mut distinct = a.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(
        distinct.len(),
        DRAW_MSGS,
        "a dispatch repeated a draw: {a:?}"
    );
    assert_eq!(a, run(), "same seed, different handler draws");
}

// ======================================================================
// Backpressure: tiny NIC queue
// ======================================================================

#[test]
fn full_nic_queue_holds_messages_in_fabric_without_loss() {
    struct Burst {
        seen: Cell<u32>,
    }
    impl Program for Burst {
        fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
            Box::pin(async move {
                if ctx.node() == 0 {
                    for i in 0..64 {
                        ctx.send(1, 0, &[i]).await;
                    }
                } else {
                    // Hold atomicity briefly so the 2-slot queue overflows into
                    // the fabric, then drain by polling.
                    ctx.begin_atomic().await;
                    ctx.compute(3_000).await;
                    let mut got = 0;
                    while got < 64 {
                        if ctx.poll().await {
                            got += 1;
                        } else {
                            ctx.compute(5).await;
                        }
                    }
                    ctx.end_atomic().await;
                    assert_eq!(self.seen.get(), 64);
                }
            })
        }
        fn handler<'a>(&'a self, _ctx: &'a mut UserCtx, env: &'a Envelope) -> Sim<'a> {
            Box::pin(async move {
                // FIFO order must survive the fabric backlog.
                assert_eq!(env.payload[0], self.seen.get());
                self.seen.set(self.seen.get() + 1);
            })
        }
    }
    let mut m = Machine::new(MachineConfig {
        nodes: 2,
        nic: NicConfig {
            input_queue_msgs: 2,
        },
        ..Default::default()
    });
    m.add_job(JobSpec::new(
        "burst",
        Arc::new(Burst { seen: Cell::new(0) }),
    ));
    let r = m.run();
    let j = r.job("burst");
    assert_eq!(j.delivered(), 64);
}

// ======================================================================
// Overflow control and swap
// ======================================================================

#[test]
fn frame_exhaustion_swaps_and_suspends_instead_of_losing_messages() {
    struct Flood {
        drained: Cell<u32>,
    }
    impl Program for Flood {
        fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
            Box::pin(async move {
                if ctx.node() == 0 {
                    for i in 0..400 {
                        ctx.send(1, 0, &[i, i, i, i, i, i]).await;
                    }
                    ctx.compute(10).await;
                } else {
                    // Receiver stays atomic long past the timeout so everything
                    // is diverted to the (tiny) buffer, then drains.
                    ctx.begin_atomic().await;
                    ctx.compute(2_000_000).await;
                    let mut got = 0;
                    while got < 400 {
                        if ctx.poll().await {
                            got += 1;
                        } else {
                            ctx.compute(5).await;
                        }
                    }
                    ctx.end_atomic().await;
                    assert_eq!(self.drained.get(), 400);
                }
            })
        }
        fn handler<'a>(&'a self, _ctx: &'a mut UserCtx, _env: &'a Envelope) -> Sim<'a> {
            Box::pin(async move {
                self.drained.set(self.drained.get() + 1);
            })
        }
    }
    let mut m = Machine::new(MachineConfig {
        nodes: 2,
        costs: CostModel {
            frames_per_node: 3, // starve the buffer pool
            page_size_bytes: 128,
            ..CostModel::hard_atomicity()
        },
        overflow_advise: 2,
        overflow_suspend: 1,
        ..Default::default()
    });
    m.add_job(JobSpec::new(
        "flood",
        Arc::new(Flood {
            drained: Cell::new(0),
        }),
    ));
    let r = m.run();
    let j = r.job("flood");
    assert_eq!(j.delivered(), 400, "guaranteed delivery despite exhaustion");
    assert!(
        j.swapped > 0,
        "some messages must have gone to backing store"
    );
    let node1 = &r.nodes[1];
    assert!(node1.overflow_suspends > 0 || node1.overflow_advises > 0);
}

// ======================================================================
// Determinism
// ======================================================================

#[test]
fn identical_configs_produce_identical_runs() {
    let run = || {
        let nodes = 4;
        let mut m = Machine::new(MachineConfig {
            nodes,
            skew: 0.25,
            costs: CostModel {
                timeslice: 30_000,
                ..CostModel::hard_atomicity()
            },
            seed: 1234,
            ..Default::default()
        });
        m.add_job(JobSpec::new(
            "exchange",
            Arc::new(Exchanger::new(nodes, 30, 700)),
        ));
        m.add_job(JobSpec::new("null", Arc::new(NullApp)).background());
        m.run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.end_time, b.end_time);
    let (ja, jb) = (a.job("exchange"), b.job("exchange"));
    assert_eq!(ja.sent, jb.sent);
    assert_eq!(ja.delivered_fast, jb.delivered_fast);
    assert_eq!(ja.delivered_buffered, jb.delivered_buffered);
    assert_eq!(ja.completion, jb.completion);
    for (na, nb) in a.nodes.iter().zip(&b.nodes) {
        assert_eq!(na.vbuf_inserts, nb.vbuf_inserts);
        assert_eq!(na.quantum_switches, nb.quantum_switches);
        assert_eq!(na.peak_frames, nb.peak_frames);
    }
}

/// The trace oracle's message ledger indexes its records by uid, which is
/// sound only because the machine stamps launch uids from one counter,
/// densely from 1, across every node and job, and a fault-injected copy
/// reuses its original's uid instead of drawing a new one.
#[test]
fn launch_uids_are_dense_from_one() {
    struct Spray;
    impl Program for Spray {
        fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
            Box::pin(async move {
                let (me, n) = (ctx.node(), ctx.nodes());
                for i in 0..25 {
                    for dst in (0..n).filter(|&d| d != me) {
                        ctx.send(dst, 0, &[i]).await;
                    }
                    ctx.compute(400).await;
                }
            })
        }
        fn handler<'a>(&'a self, _ctx: &'a mut UserCtx, _env: &'a Envelope) -> Sim<'a> {
            Box::pin(async move {})
        }
    }
    let tracer = Tracer::recorder(usize::MAX, CategoryMask::MSG | CategoryMask::FAULT);
    let mut m = Machine::new(MachineConfig {
        nodes: 4,
        skew: 0.2,
        faults: FaultPlan::parse("drop=0.1,dup=0.1,delay=0.1").unwrap(),
        seed: 21,
        ..Default::default()
    });
    m.set_tracer(tracer.clone());
    m.add_job(JobSpec::new("a", Arc::new(Spray)));
    m.add_job(JobSpec::new("b", Arc::new(Spray)));
    let r = m.run();
    let sent = r.job("a").sent + r.job("b").sent;
    assert_eq!(sent, 2 * 4 * 3 * 25);
    let records = tracer.take_records();
    let launched: Vec<u64> = records
        .iter()
        .filter_map(|rec| match rec.event {
            TraceEvent::MsgLaunch { uid, .. } => Some(uid),
            _ => None,
        })
        .collect();
    assert_eq!(launched, (1..=sent).collect::<Vec<_>>());
    // The plan fired all three message faults.
    let fired = |f: fn(&TraceEvent) -> bool| records.iter().any(|rec| f(&rec.event));
    assert!(fired(|e| matches!(e, TraceEvent::FaultDrop { .. })));
    assert!(fired(|e| matches!(e, TraceEvent::FaultDuplicate { .. })));
    assert!(fired(|e| matches!(e, TraceEvent::FaultDelay { .. })));
}

// ======================================================================
// peek / page faults / polling watchdog / injectc backpressure
// ======================================================================

#[test]
fn peek_observes_without_consuming_in_both_modes() {
    struct Full;
    impl Program for Full {
        fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
            Box::pin(async move {
                if ctx.node() == 0 {
                    ctx.send(1, 9, &[1, 2]).await;
                    ctx.compute(10_000).await;
                    ctx.send(1, 10, &[]).await;
                } else {
                    ctx.begin_atomic().await;
                    loop {
                        if let Some(env) = ctx.peek().await {
                            assert_eq!(env.handler.0, 9);
                            break;
                        }
                        ctx.compute(10).await;
                    }
                    let env = ctx
                        .poll_extract()
                        .await
                        .expect("peeked message still there");
                    assert_eq!(env.payload, [1, 2]);
                    ctx.compute(50_000).await; // second message times out into vbuf
                    assert_eq!(ctx.peek().await.expect("buffered peek").handler.0, 10);
                    assert!(ctx.poll_extract().await.is_some());
                    ctx.end_atomic().await;
                }
            })
        }
    }
    let mut m = machine(2);
    m.add_job(JobSpec::new("peek", Arc::new(Full)));
    let r = m.run();
    let j = r.job("peek");
    assert_eq!(j.delivered_fast, 1);
    assert_eq!(j.delivered_buffered, 1);
}

#[test]
fn page_fault_in_handler_switches_to_buffered_mode() {
    struct FaultyHandler {
        handled: Cell<u32>,
    }
    impl Program for FaultyHandler {
        fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
            Box::pin(async move {
                if ctx.node() == 0 {
                    ctx.send(1, 0, &[]).await;
                    ctx.compute(2_000).await;
                    ctx.send(1, 0, &[]).await; // arrives while node 1 services a fault
                } else {
                    while self.handled.get() < 2 {
                        ctx.compute(100).await;
                    }
                }
            })
        }
        fn handler<'a>(&'a self, ctx: &'a mut UserCtx, _env: &'a Envelope) -> Sim<'a> {
            Box::pin(async move {
                self.handled.set(self.handled.get() + 1);
                if self.handled.get() == 1 {
                    ctx.touch_page(7).await; // demand-zero fault inside the handler
                    ctx.compute(5_000).await;
                }
            })
        }
    }
    let mut m = machine(2);
    m.add_job(JobSpec::new(
        "faulty",
        Arc::new(FaultyHandler {
            handled: Cell::new(0),
        }),
    ));
    let r = m.run();
    let j = r.job("faulty");
    assert_eq!(j.page_faults, 1);
    assert_eq!(
        j.delivered_buffered, 1,
        "the message arriving during the fault must take the buffered path"
    );
    assert_eq!(j.delivered(), 2);
}

#[test]
fn touch_page_faults_once_per_page() {
    struct Toucher {
        done: Cell<bool>,
    }
    impl Program for Toucher {
        fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
            Box::pin(async move {
                if ctx.node() == 0 {
                    let t0 = ctx.now().await;
                    ctx.touch_page(0).await; // fault
                    let t1 = ctx.now().await;
                    ctx.touch_page(0).await; // hit
                    let t2 = ctx.now().await;
                    assert!(t1 - t0 > 1_000, "first touch must fault");
                    assert!(t2 - t1 < 10, "second touch must hit");
                    self.done.set(true);
                }
            })
        }
    }
    let mut m = machine(1);
    let p = Arc::new(Toucher {
        done: Cell::new(false),
    });
    m.add_job(JobSpec::new("touch", Arc::clone(&p) as Arc<dyn Program>));
    let r = m.run();
    assert!(p.done.get());
    assert_eq!(r.job("touch").page_faults, 1);
}

#[test]
fn polling_watchdog_forces_interrupts_instead_of_buffering() {
    struct Sluggish {
        received: Cell<u32>,
    }
    impl Program for Sluggish {
        fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
            Box::pin(async move {
                if ctx.node() == 0 {
                    for _ in 0..20 {
                        ctx.send(1, 0, &[]).await;
                        ctx.compute(5_000).await;
                    }
                } else {
                    ctx.begin_atomic().await;
                    while self.received.get() < 20 {
                        ctx.compute(30_000).await; // far past the 8192 timeout
                        while ctx.poll().await {}
                    }
                    ctx.end_atomic().await;
                }
            })
        }
        fn handler<'a>(&'a self, _ctx: &'a mut UserCtx, _env: &'a Envelope) -> Sim<'a> {
            Box::pin(async move {
                self.received.set(self.received.get() + 1);
            })
        }
    }
    let run = |watchdog: bool| {
        let mut m = Machine::new(MachineConfig {
            nodes: 2,
            polling_watchdog: watchdog,
            ..Default::default()
        });
        m.add_job(JobSpec::new(
            "slug",
            Arc::new(Sluggish {
                received: Cell::new(0),
            }) as Arc<dyn Program>,
        ));
        m.run()
    };
    let revoke = run(false);
    let watchdog = run(true);
    let jr = revoke.job("slug");
    let jw = watchdog.job("slug");
    assert!(jr.atomicity_timeouts > 0 && jr.delivered_buffered > 0);
    assert_eq!(jr.watchdog_fires, 0);
    assert!(jw.watchdog_fires > 0, "watchdog must force interrupts");
    assert_eq!(
        jw.delivered_buffered, 0,
        "watchdog avoids the buffered path"
    );
    assert_eq!(jw.delivered(), 20);
}

#[test]
fn injectc_refuses_when_fabric_congested() {
    struct Flooder {
        refused: Cell<u32>,
    }
    impl Program for Flooder {
        fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
            Box::pin(async move {
                if ctx.node() == 0 {
                    // Fire as fast as possible at a receiver that is asleep in
                    // an atomic section; the window must eventually refuse.
                    let mut sent = 0;
                    while sent < 64 {
                        if ctx.try_send(1, 0, &[]).await {
                            sent += 1;
                        } else {
                            self.refused.set(self.refused.get() + 1);
                            ctx.compute(200).await;
                        }
                    }
                } else {
                    ctx.begin_atomic().await;
                    ctx.compute(100_000).await;
                    let mut got = 0;
                    while got < 64 {
                        if ctx.poll().await {
                            got += 1;
                        } else {
                            ctx.compute(10).await;
                        }
                    }
                    ctx.end_atomic().await;
                }
            })
        }
        fn handler<'a>(&'a self, _ctx: &'a mut UserCtx, _env: &'a Envelope) -> Sim<'a> {
            Box::pin(async move {})
        }
    }
    let p = Arc::new(Flooder {
        refused: Cell::new(0),
    });
    let mut m = Machine::new(MachineConfig {
        nodes: 2,
        inject_window: 8,
        ..Default::default()
    });
    m.add_job(JobSpec::new("flood", Arc::clone(&p) as Arc<dyn Program>));
    let r = m.run();
    assert!(
        p.refused.get() > 0,
        "a closed 8-message window must refuse some injectc attempts"
    );
    assert_eq!(
        r.job("flood").delivered(),
        64,
        "refusals must not lose messages"
    );
}

#[test]
fn try_send_window_counts_fabric_held_messages_once() {
    // The receiver sits in an atomic section, so its one NIC slot fills
    // and later arrivals wait in the fabric. Those are in flight toward it
    // and count once against the window: the sender gets the window's 4
    // plus the one message the NIC admitted before the first refusal.
    struct Prober {
        accepted: Cell<u32>,
    }
    impl Program for Prober {
        fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
            Box::pin(async move {
                if ctx.node() == 0 {
                    let mut accepted = 0;
                    while accepted < 64 && ctx.try_send(1, 0, &[]).await {
                        accepted += 1;
                        ctx.compute(100).await;
                    }
                    self.accepted.set(accepted);
                } else {
                    ctx.begin_atomic().await;
                    ctx.compute(5_000).await;
                    ctx.end_atomic().await;
                }
            })
        }
        fn handler<'a>(&'a self, _ctx: &'a mut UserCtx, _env: &'a Envelope) -> Sim<'a> {
            Box::pin(async move {})
        }
    }
    let p = Arc::new(Prober {
        accepted: Cell::new(0),
    });
    let mut m = Machine::new(MachineConfig {
        nodes: 2,
        inject_window: 4,
        nic: NicConfig {
            input_queue_msgs: 1,
        },
        ..Default::default()
    });
    m.add_job(JobSpec::new("probe", Arc::clone(&p) as Arc<dyn Program>));
    m.run();
    assert_eq!(p.accepted.get(), 5);
}

#[test]
fn faults_active_reads_the_plan_from_both_contexts() {
    // Node 0 pings node 1; each context records what `faults_active`
    // reports, keyed by (node, context).
    struct Reader {
        seen: RefCell<Vec<(usize, CtxKind, bool)>>,
    }
    impl Program for Reader {
        fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
            Box::pin(async move {
                let active = ctx.faults_active();
                self.seen
                    .borrow_mut()
                    .push((ctx.node(), ctx.kind(), active));
                if ctx.node() == 0 {
                    ctx.send(1, 0, &[]).await;
                } else {
                    ctx.block(0).await;
                }
            })
        }
        fn handler<'a>(&'a self, ctx: &'a mut UserCtx, _env: &'a Envelope) -> Sim<'a> {
            Box::pin(async move {
                let active = ctx.faults_active();
                self.seen
                    .borrow_mut()
                    .push((ctx.node(), ctx.kind(), active));
                ctx.wake(0).await;
            })
        }
    }
    for (faults, expect) in [
        (FaultPlan::default(), false),
        (FaultPlan::parse("dup=0.05").unwrap(), true),
    ] {
        let p = Arc::new(Reader {
            seen: RefCell::new(Vec::new()),
        });
        let mut m = Machine::new(MachineConfig {
            nodes: 2,
            faults,
            ..Default::default()
        });
        m.add_job(JobSpec::new("reader", Arc::clone(&p) as Arc<dyn Program>));
        m.run();
        let mut seen = p.seen.take();
        seen.sort_by_key(|&(node, kind, _)| (node, kind == CtxKind::Handler));
        seen.dedup();
        assert_eq!(
            seen,
            [
                (0, CtxKind::Main, expect),
                (1, CtxKind::Main, expect),
                (1, CtxKind::Handler, expect),
            ]
        );
    }
}

#[test]
#[should_panic(expected = "but the machine has")]
fn try_send_to_missing_node_fails_even_when_congested() {
    // A closed window makes every probe congested; a nonexistent
    // destination must still fail loudly instead of being refused forever.
    struct Stray;
    impl Program for Stray {
        fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
            Box::pin(async move {
                if ctx.node() == 0 {
                    ctx.try_send(2, 0, &[]).await;
                }
            })
        }
        fn handler<'a>(&'a self, _ctx: &'a mut UserCtx, _env: &'a Envelope) -> Sim<'a> {
            Box::pin(async move {})
        }
    }
    let mut m = Machine::new(MachineConfig {
        nodes: 2,
        inject_window: 0,
        ..Default::default()
    });
    m.add_job(JobSpec::new("stray", Arc::new(Stray)));
    m.run();
}

#[test]
#[should_panic(expected = "duplicate job name")]
fn duplicate_job_names_are_rejected() {
    // Job names key the run report (`RunReport::job`, the `job.<name>.*`
    // JSON keys), so a second job under the same name is refused.
    let mut m = machine(2);
    m.add_job(JobSpec::new("null", Arc::new(NullApp)).background());
    m.add_job(JobSpec::new("null", Arc::new(NullApp)).background());
}

// ======================================================================
// Protection: GID isolation between jobs
// ======================================================================

/// Two foreground jobs timeshare the machine. Job "talker" exchanges
/// messages; job "bystander" must never observe any of them — neither by
/// handler upcall nor by polling — despite running on the same nodes with
/// the same handler ids. This is the paper's core protection property,
/// enforced by the hardware GID stamp/check.
#[test]
fn gid_isolation_between_jobs() {
    struct Talker;
    impl Program for Talker {
        fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
            Box::pin(async move {
                let peer = 1 - ctx.node();
                for i in 0..50 {
                    ctx.send(peer, 1, &[i]).await;
                    ctx.compute(3_000).await;
                }
                ctx.compute(50_000).await;
            })
        }
        fn handler<'a>(&'a self, _ctx: &'a mut UserCtx, env: &'a Envelope) -> Sim<'a> {
            Box::pin(async move {
                assert_eq!(env.handler.0, 1);
            })
        }
    }
    struct Bystander {
        intrusions: Cell<u32>,
    }
    impl Program for Bystander {
        fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
            Box::pin(async move {
                // Poll aggressively and also leave interrupt windows open; we
                // must see nothing.
                for _ in 0..200 {
                    if let Some(env) = ctx.poll_extract().await {
                        let _ = env;
                        self.intrusions.set(self.intrusions.get() + 1);
                    }
                    ctx.compute(1_000).await;
                }
            })
        }
        fn handler<'a>(&'a self, _ctx: &'a mut UserCtx, _env: &'a Envelope) -> Sim<'a> {
            Box::pin(async move {
                self.intrusions.set(self.intrusions.get() + 1);
            })
        }
    }
    let bystander = Arc::new(Bystander {
        intrusions: Cell::new(0),
    });
    let mut m = Machine::new(MachineConfig {
        nodes: 2,
        skew: 0.3, // force cross-quantum (buffered) deliveries too
        costs: CostModel {
            timeslice: 20_000,
            ..CostModel::hard_atomicity()
        },
        ..Default::default()
    });
    m.add_job(JobSpec::new("talker", Arc::new(Talker)));
    m.add_job(JobSpec::new(
        "bystander",
        Arc::clone(&bystander) as Arc<dyn Program>,
    ));
    let r = m.run();
    assert_eq!(
        bystander.intrusions.get(),
        0,
        "bystander observed another group's messages"
    );
    let talker = r.job("talker");
    assert_eq!(talker.delivered(), talker.sent);
    assert!(
        talker.delivered_buffered > 0,
        "skewed timesharing should divert some messages through the buffer"
    );
    assert_eq!(r.job("bystander").delivered(), 0);
}

/// Two communicating foreground jobs interleave without crosstalk and both
/// complete with full delivery.
#[test]
fn two_communicating_jobs_interleave_cleanly() {
    let mk = |marker: u32| {
        struct Chat {
            marker: u32,
            got: Cell<u32>,
        }
        impl Program for Chat {
            fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
                Box::pin(async move {
                    let peer = 1 - ctx.node();
                    for _ in 0..30 {
                        ctx.send(peer, self.marker, &[self.marker]).await;
                        ctx.compute(2_000).await;
                    }
                    while self.got.get() < 30 {
                        ctx.compute(1_000).await;
                    }
                })
            }
            fn handler<'a>(&'a self, _ctx: &'a mut UserCtx, env: &'a Envelope) -> Sim<'a> {
                Box::pin(async move {
                    assert_eq!(env.handler.0, self.marker, "crosstalk between jobs!");
                    assert_eq!(env.payload, [self.marker]);
                    self.got.set(self.got.get() + 1);
                })
            }
        }
        Arc::new(Chat {
            marker,
            got: Cell::new(0),
        }) as Arc<dyn Program>
    };
    let mut m = Machine::new(MachineConfig {
        nodes: 2,
        skew: 0.2,
        costs: CostModel {
            timeslice: 15_000,
            ..CostModel::hard_atomicity()
        },
        ..Default::default()
    });
    m.add_job(JobSpec::new("alpha", mk(0xA)));
    m.add_job(JobSpec::new("beta", mk(0xB)));
    let r = m.run();
    for name in ["alpha", "beta"] {
        let j = r.job(name);
        assert_eq!(j.sent, 60);
        assert_eq!(j.delivered(), 60, "{name} lost messages");
    }
}

// ======================================================================
// Engine: one thread of control, panic classification, teardown
// ======================================================================

/// Runs `m`, which must panic, and returns the panic's message.
fn run_panic_message(m: Machine) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || m.run()))
        .expect_err("the run should panic");
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .expect("panic payload is a string")
            .to_string(),
    }
}

/// A main that panics on one node, with a runtime-formatted message or a
/// string literal.
struct Panicky {
    formatted: bool,
}

impl Program for Panicky {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            ctx.compute(100).await;
            if ctx.node() == 1 {
                if self.formatted {
                    panic!("boom {}", ctx.node() * 7);
                }
                panic!("static boom");
            }
        })
    }
}

#[test]
fn main_panic_with_formatted_message_names_job_context_and_node() {
    let mut m = machine(2);
    m.add_job(JobSpec::new(
        "boomer",
        Arc::new(Panicky { formatted: true }),
    ));
    assert_eq!(
        run_panic_message(m),
        "job 'boomer' Main context on node 1 panicked: boom 7"
    );
}

#[test]
fn main_panic_with_literal_message_names_job_context_and_node() {
    let mut m = machine(2);
    m.add_job(JobSpec::new(
        "boomer",
        Arc::new(Panicky { formatted: false }),
    ));
    assert_eq!(
        run_panic_message(m),
        "job 'boomer' Main context on node 1 panicked: static boom"
    );
}

#[test]
fn message_to_a_program_without_handler_panics_in_its_handler_context() {
    struct Mute;
    impl Program for Mute {
        fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
            Box::pin(async move {
                if ctx.node() == 0 {
                    ctx.send(1, 3, &[]).await;
                }
                ctx.compute(10_000).await;
            })
        }
    }
    let mut m = machine(2);
    m.add_job(JobSpec::new("mute", Arc::new(Mute)));
    let msg = run_panic_message(m);
    assert!(
        msg.starts_with("job 'mute' Handler context on node 1 panicked: "),
        "{msg}"
    );
    assert!(msg.contains("defines no handler"), "{msg}");
}

#[test]
fn main_blocked_forever_is_a_simulation_deadlock() {
    struct Sleeper;
    impl Program for Sleeper {
        fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
            Box::pin(async move {
                ctx.block(0x5EE9).await;
            })
        }
    }
    let mut m = machine(2);
    m.add_job(JobSpec::new("sleeper", Arc::new(Sleeper)));
    let msg = run_panic_message(m);
    assert!(msg.contains("simulation deadlock"), "{msg}");
}

#[test]
fn run_past_max_cycles_panics_with_the_machine_dump() {
    struct Spinner;
    impl Program for Spinner {
        fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
            Box::pin(async move {
                loop {
                    ctx.compute(1_000).await;
                }
            })
        }
    }
    let mut m = Machine::new(MachineConfig {
        nodes: 1,
        max_cycles: 10_000,
        ..Default::default()
    });
    m.add_job(JobSpec::new("spinner", Arc::new(Spinner)));
    let msg = run_panic_message(m);
    let mut lines = msg.lines();
    assert_eq!(
        lines.next(),
        Some("simulation exceeded max_cycles = 10000"),
        "{msg}"
    );
    assert_eq!(lines.next(), Some("machine state dump:"), "{msg}");
    assert!(msg.contains("active-compute until="), "{msg}");
}

#[test]
fn machine_dropped_without_run_returns_promptly_and_runs_nothing() {
    struct Untouched {
        ran: Cell<bool>,
    }
    impl Program for Untouched {
        fn main<'a>(&'a self, _ctx: &'a mut UserCtx) -> Sim<'a> {
            Box::pin(async move { self.ran.set(true) })
        }
    }
    let p = Arc::new(Untouched {
        ran: Cell::new(false),
    });
    let start = std::time::Instant::now();
    let mut m = machine(8);
    m.add_job(JobSpec::new("a", Arc::clone(&p) as Arc<dyn Program>));
    m.add_job(JobSpec::new("b", Arc::new(NullApp)).background());
    drop(m);
    assert!(start.elapsed() < std::time::Duration::from_secs(10));
    assert!(!p.ran.get(), "dropping a machine must not run its programs");
}

#[test]
fn every_context_runs_on_the_thread_that_called_run() {
    struct WhereAmI {
        threads: RefCell<Vec<(CtxKind, std::thread::ThreadId)>>,
    }
    impl Program for WhereAmI {
        fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
            Box::pin(async move {
                let here = std::thread::current().id();
                self.threads.borrow_mut().push((ctx.kind(), here));
                if ctx.node() == 0 {
                    ctx.send(1, 0, &[]).await;
                } else {
                    ctx.block(0).await;
                }
            })
        }
        fn handler<'a>(&'a self, ctx: &'a mut UserCtx, _env: &'a Envelope) -> Sim<'a> {
            Box::pin(async move {
                let here = std::thread::current().id();
                self.threads.borrow_mut().push((ctx.kind(), here));
                ctx.wake(0).await;
            })
        }
    }
    let p = Arc::new(WhereAmI {
        threads: RefCell::new(Vec::new()),
    });
    let mut m = machine(2);
    m.add_job(JobSpec::new("where", Arc::clone(&p) as Arc<dyn Program>));
    m.run();
    let caller = std::thread::current().id();
    let threads = p.threads.take();
    assert_eq!(threads.len(), 3, "two mains and one handler ran");
    assert!(threads.iter().any(|&(kind, _)| kind == CtxKind::Handler));
    for (kind, thread) in threads {
        assert_eq!(
            thread, caller,
            "{kind:?} context ran off the caller's thread"
        );
    }
}

// ======================================================================
// Posts and requests: answer-free calls never yield
// ======================================================================

/// Node 0 sends `sends` one-word messages to node 1 and then reads the
/// clock; node 1 computes until all of them were handled.
struct SendThenNow {
    sends: u32,
    handled: Cell<u32>,
    read: Cell<Option<u64>>,
}

impl Program for SendThenNow {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            if ctx.node() == 0 {
                for i in 0..self.sends {
                    ctx.send(1, 0, &[i]).await;
                }
                self.read.set(Some(ctx.now().await));
            } else {
                while self.handled.get() < self.sends {
                    ctx.compute(100).await;
                }
            }
        })
    }
    fn handler<'a>(&'a self, _ctx: &'a mut UserCtx, _env: &'a Envelope) -> Sim<'a> {
        Box::pin(async move {
            self.handled.set(self.handled.get() + 1);
        })
    }
}

#[test]
fn posts_are_charged_before_a_later_request_reads_the_clock() {
    let p = Arc::new(SendThenNow {
        sends: 5,
        handled: Cell::new(0),
        read: Cell::new(None),
    });
    let mut m = machine(2);
    m.add_job(JobSpec::new("sendnow", Arc::clone(&p) as Arc<dyn Program>));
    let r = m.run();
    // The main starts at cycle 0, so the clock reads exactly the five
    // launches' Table 4 charges.
    assert_eq!(p.read.get(), Some(5 * CostModel::default().send_total(1)));
    assert_eq!(r.job("sendnow").delivered(), 5);
}

#[test]
fn posts_before_a_main_returns_are_still_launched_and_handled() {
    // OneShot's node-0 main ends on its `send`: the post is applied with
    // the main's completion, and the message still reaches the handler.
    let p = Arc::new(OneShot {
        got: Cell::new(false),
    });
    let mut m = machine(2);
    m.add_job(JobSpec::new("last", Arc::clone(&p) as Arc<dyn Program>));
    let r = m.run();
    assert!(p.got.get());
    assert_eq!(r.job("last").sent, 1);
    assert_eq!(r.job("last").delivered_fast, 1);
}

#[test]
fn posts_a_wake_only_handler_releases_its_main_within_the_same_event() {
    // Node 1's main blocks; the handler of node 0's message only wakes it.
    // The woken main's reply is launched in the arrival's own event, so
    // its launch carries the upcall's trace time.
    struct WakeOnly;
    impl Program for WakeOnly {
        fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
            Box::pin(async move {
                if ctx.node() == 0 {
                    ctx.send(1, 0, &[]).await;
                    ctx.block(9).await;
                } else {
                    ctx.block(9).await;
                    ctx.send(0, 0, &[]).await;
                }
            })
        }
        fn handler<'a>(&'a self, ctx: &'a mut UserCtx, _env: &'a Envelope) -> Sim<'a> {
            Box::pin(async move {
                ctx.wake(9).await;
            })
        }
    }
    let mut m = machine(2);
    let tracer = Tracer::recorder(64, CategoryMask::ALL);
    m.set_tracer(tracer.clone());
    m.add_job(JobSpec::new("wake", Arc::new(WakeOnly)));
    let r = m.run();
    assert_eq!(r.job("wake").delivered_fast, 2);
    let records = tracer.records();
    let upcall_at = records
        .iter()
        .find(|rec| matches!(rec.event, TraceEvent::FastUpcall { node: 1, .. }))
        .expect("node 1 took an upcall")
        .at;
    let reply_at = records
        .iter()
        .find(|rec| matches!(rec.event, TraceEvent::MsgLaunch { node: 1, .. }))
        .expect("node 1's main replied")
        .at;
    assert_eq!(reply_at, upcall_at);
}

#[test]
fn posts_then_a_panic_apply_the_posts_and_name_the_context() {
    struct SendThenPanic;
    impl Program for SendThenPanic {
        fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
            Box::pin(async move {
                if ctx.node() == 0 {
                    ctx.send(1, 0, &[]).await;
                    panic!("after the send");
                }
                ctx.compute(1_000).await;
            })
        }
        fn handler<'a>(&'a self, _ctx: &'a mut UserCtx, _env: &'a Envelope) -> Sim<'a> {
            Box::pin(async move {})
        }
    }
    let mut m = machine(2);
    let tracer = Tracer::recorder(16, CategoryMask::MSG);
    m.set_tracer(tracer.clone());
    m.add_job(JobSpec::new("sendpanic", Arc::new(SendThenPanic)));
    assert_eq!(
        run_panic_message(m),
        "job 'sendpanic' Main context on node 0 panicked: after the send"
    );
    // The send was posted before the panic, so its launch is traced.
    assert!(tracer
        .records()
        .iter()
        .any(|rec| matches!(rec.event, TraceEvent::MsgLaunch { node: 0, .. })));
}

/// Wraps a sim-thread future and counts how often the machine polls it.
struct CountPolls<'a> {
    inner: Sim<'a>,
    polls: &'a Cell<u32>,
}

impl std::future::Future for CountPolls<'_> {
    type Output = ();

    fn poll(
        mut self: std::pin::Pin<&mut Self>,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<()> {
        self.polls.set(self.polls.get() + 1);
        self.inner.as_mut().poll(cx)
    }
}

#[test]
fn posts_never_yield_a_main_that_makes_only_posts_is_polled_once() {
    // Node 0's main makes only posts — N sends, a wake and an atomic
    // section — and returns, so the machine polls it exactly once.
    const N: u32 = 8;
    struct PostsOnly {
        polls: Cell<u32>,
        handled: Cell<u32>,
    }
    impl Program for PostsOnly {
        fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
            if ctx.node() != 0 {
                return Box::pin(async move {
                    while self.handled.get() < N {
                        ctx.compute(100).await;
                    }
                });
            }
            let inner: Sim<'a> = Box::pin(async move {
                for i in 0..N {
                    ctx.send(1, 0, &[i]).await;
                }
                ctx.wake(3).await;
                ctx.begin_atomic().await;
                ctx.end_atomic().await;
            });
            Box::pin(CountPolls {
                inner,
                polls: &self.polls,
            })
        }
        fn handler<'a>(&'a self, _ctx: &'a mut UserCtx, _env: &'a Envelope) -> Sim<'a> {
            Box::pin(async move {
                self.handled.set(self.handled.get() + 1);
            })
        }
    }
    let p = Arc::new(PostsOnly {
        polls: Cell::new(0),
        handled: Cell::new(0),
    });
    let mut m = machine(2);
    m.add_job(JobSpec::new("posts", Arc::clone(&p) as Arc<dyn Program>));
    let r = m.run();
    assert_eq!(p.polls.get(), 1, "a post suspended the main");
    assert_eq!(r.job("posts").sent, u64::from(N));
    assert_eq!(r.job("posts").delivered(), u64::from(N));
}

// ======================================================================
// Payloads: at most 14 inline words
// ======================================================================

/// The widest payload the 16-word send buffer carries.
const WIDE: [u32; 14] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14];

/// Node 0 sends one 14-word message to node 1, which takes it through an
/// upcall (fast path) or, holding an atomic section past the atomicity
/// timeout, by polling the software buffer (buffered path).
struct Wide {
    buffered: bool,
    got: RefCell<Option<Vec<u32>>>,
}

impl Program for Wide {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            if ctx.node() == 0 {
                ctx.send(1, 0, &WIDE).await;
            } else if self.buffered {
                ctx.begin_atomic().await;
                ctx.compute(100_000).await; // >> default 8192-cycle timeout
                while !ctx.poll().await {}
                ctx.end_atomic().await;
            } else {
                while self.got.borrow().is_none() {
                    ctx.compute(50).await;
                }
            }
        })
    }
    fn handler<'a>(&'a self, _ctx: &'a mut UserCtx, env: &'a Envelope) -> Sim<'a> {
        Box::pin(async move {
            *self.got.borrow_mut() = Some(env.payload.to_vec());
        })
    }
}

#[test]
fn payload_of_14_words_reaches_the_handler_on_both_paths() {
    for buffered in [false, true] {
        let p = Arc::new(Wide {
            buffered,
            got: RefCell::new(None),
        });
        let mut m = machine(2);
        m.add_job(JobSpec::new("wide", Arc::clone(&p) as Arc<dyn Program>));
        let r = m.run();
        let j = r.job("wide");
        assert_eq!(
            (j.delivered_fast, j.delivered_buffered),
            if buffered { (0, 1) } else { (1, 0) }
        );
        assert_eq!(p.got.take().as_deref(), Some(&WIDE[..]));
    }
}

#[test]
fn payload_of_15_words_panics_in_the_sending_context_naming_the_send_buffer() {
    // The payload is built inside the sim-thread, so the send-buffer check
    // fails there and the machine re-raises it with the job prefix.
    struct TooWide;
    impl Program for TooWide {
        fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
            Box::pin(async move {
                if ctx.node() == 0 {
                    ctx.send(1, 0, &[0; 15]).await;
                }
            })
        }
    }
    let mut m = machine(2);
    m.add_job(JobSpec::new("toowide", Arc::new(TooWide)));
    assert_eq!(
        run_panic_message(m),
        "job 'toowide' Main context on node 0 panicked: message of 17 words \
         exceeds the 16-word send buffer (use DMA for bulk data)"
    );
}
