//! Integration tests of the simulated FUGU machine: cost-model fidelity
//! (Tables 4/5), two-case delivery transitions, transparent access,
//! revocation, overflow control and determinism.

use std::sync::{Arc, Mutex};

use fugu_sim::fault::FaultPlan;
use udm::{
    CostModel, CtxKind, Envelope, JobSpec, Machine, MachineConfig, NicConfig, Program, RunReport,
    UserCtx,
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
    got: Mutex<bool>,
}

impl Program for OneShot {
    fn main(&self, ctx: &mut UserCtx<'_>) {
        match ctx.node() {
            0 => ctx.send(1, 7, &[]),
            1 => {
                while !*self.got.lock().unwrap() {
                    ctx.compute(50);
                }
            }
            _ => {}
        }
    }
    fn handler(&self, ctx: &mut UserCtx<'_>, env: &Envelope) {
        assert_eq!(env.handler.0, 7);
        assert_eq!(env.src, 0);
        assert_eq!(ctx.node(), 1);
        *self.got.lock().unwrap() = true;
    }
}

#[test]
fn interrupt_delivery_reaches_handler() {
    let mut m = machine(2);
    m.add_job(JobSpec::new(
        "oneshot",
        Arc::new(OneShot {
            got: Mutex::new(false),
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
    for (costs, expect) in [
        (CostModel::kernel(), 54.0),
        (CostModel::hard_atomicity(), 87.0),
        (CostModel::soft_atomicity(), 115.0),
    ] {
        let mut m = Machine::new(MachineConfig {
            nodes: 2,
            costs,
            ..Default::default()
        });
        m.add_job(JobSpec::new(
            "oneshot",
            Arc::new(OneShot {
                got: Mutex::new(false),
            }),
        ));
        let r = m.run();
        let j = r.job("oneshot");
        assert_eq!(j.handler_cycles.count(), 1);
        assert_eq!(
            j.handler_cycles.mean(),
            expect,
            "interrupt total for {:?}",
            costs.atomicity
        );
    }
}

/// Per-word receive charge: a 4-word payload adds 2 cycles/word to the
/// interrupt total.
#[test]
fn table4_per_word_receive_cost() {
    struct WordShot;
    impl Program for WordShot {
        fn main(&self, ctx: &mut UserCtx<'_>) {
            if ctx.node() == 0 {
                ctx.send(1, 0, &[1, 2, 3, 4]);
            } else {
                ctx.compute(5_000);
            }
        }
        fn handler(&self, _ctx: &mut UserCtx<'_>, env: &Envelope) {
            assert_eq!(env.payload, [1, 2, 3, 4]);
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
    fn main(&self, ctx: &mut UserCtx<'_>) {
        ctx.begin_atomic();
        if ctx.node() == 0 {
            for _ in 0..self.rounds {
                ctx.send(1, 0, &[]);
                while !ctx.poll() {
                    ctx.compute(5);
                }
            }
        } else {
            for _ in 0..self.rounds {
                while !ctx.poll() {
                    ctx.compute(5);
                }
            }
        }
        ctx.end_atomic();
    }
    fn handler(&self, ctx: &mut UserCtx<'_>, env: &Envelope) {
        if ctx.node() == 1 {
            ctx.send(env.src, 0, &[]);
        }
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
    fn main(&self, ctx: &mut UserCtx<'_>) {
        if ctx.node() == 0 {
            ctx.send(1, 3, &[9, 9]);
        } else {
            ctx.begin_atomic();
            loop {
                if let Some(env) = ctx.poll_extract() {
                    assert_eq!(env.handler.0, 3);
                    assert_eq!(env.payload, [9, 9]);
                    break;
                }
                ctx.compute(10);
            }
            ctx.end_atomic();
        }
    }
}

#[test]
fn raw_extract_bypasses_handler() {
    let mut m = machine(2);
    m.add_job(JobSpec::new("raw", Arc::new(RawExtract)));
    let r = m.run();
    assert_eq!(r.job("raw").delivered_fast, 1);
    assert_eq!(r.job("raw").handler_cycles.count(), 0);
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
    fn main(&self, ctx: &mut UserCtx<'_>) {
        if ctx.node() == 0 {
            ctx.send(1, 0, &[5]);
        } else {
            ctx.begin_atomic();
            ctx.compute(100_000); // >> default 8192-cycle timeout
                                  // Transparent access: this poll is served from the software
                                  // buffer (the message was revoked into it long ago).
            let mut got = false;
            while !got {
                got = ctx.poll();
            }
            ctx.end_atomic();
        }
    }
    fn handler(&self, _ctx: &mut UserCtx<'_>, env: &Envelope) {
        assert_eq!(env.payload, [5]);
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
    fn main(&self, ctx: &mut UserCtx<'_>) {
        loop {
            ctx.compute(10_000);
        }
    }
}

/// All-to-all exchanger used to drive cross-quantum traffic: each node
/// sends `count` messages to each peer with gaps, then waits until it has
/// received everything.
struct Exchanger {
    count: u32,
    gap: u64,
    received: Vec<Mutex<u32>>,
}

impl Exchanger {
    fn new(nodes: usize, count: u32, gap: u64) -> Self {
        Exchanger {
            count,
            gap,
            received: (0..nodes).map(|_| Mutex::new(0)).collect(),
        }
    }
}

impl Program for Exchanger {
    fn main(&self, ctx: &mut UserCtx<'_>) {
        let me = ctx.node();
        let n = ctx.nodes();
        let expect = (n as u32 - 1) * self.count;
        for _ in 0..self.count {
            for dst in 0..n {
                if dst != me {
                    ctx.send(dst, 0, &[me as u32]);
                }
            }
            ctx.compute(self.gap);
        }
        while *self.received[me].lock().unwrap() < expect {
            ctx.compute(500);
        }
    }
    fn handler(&self, ctx: &mut UserCtx<'_>, _env: &Envelope) {
        *self.received[ctx.node()].lock().unwrap() += 1;
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
    fn main(&self, ctx: &mut UserCtx<'_>) {
        if ctx.node() == 0 {
            ctx.compute(1_000);
            ctx.send(1, 0, &[]);
        } else {
            ctx.block(42); // sleep until the handler wakes us
        }
    }
    fn handler(&self, ctx: &mut UserCtx<'_>, _env: &Envelope) {
        ctx.wake(42);
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
    fn main(&self, ctx: &mut UserCtx<'_>) {
        if ctx.node() == 0 {
            ctx.send(1, 0, &[]);
        } else {
            // Compute long enough that the message (and its wake) arrives
            // before we block.
            ctx.compute(50_000);
            ctx.block(1);
        }
    }
    fn handler(&self, ctx: &mut UserCtx<'_>, _env: &Envelope) {
        ctx.wake(1);
    }
}

#[test]
fn early_wake_is_banked_not_lost() {
    let mut m = machine(2);
    m.add_job(JobSpec::new("ew", Arc::new(EarlyWake)));
    let r = m.run();
    assert_eq!(r.job("ew").delivered_fast, 1);
}

// ======================================================================
// Backpressure: tiny NIC queue
// ======================================================================

#[test]
fn full_nic_queue_holds_messages_in_fabric_without_loss() {
    struct Burst {
        seen: Mutex<u32>,
    }
    impl Program for Burst {
        fn main(&self, ctx: &mut UserCtx<'_>) {
            if ctx.node() == 0 {
                for i in 0..64 {
                    ctx.send(1, 0, &[i]);
                }
            } else {
                // Hold atomicity briefly so the 2-slot queue overflows into
                // the fabric, then drain by polling.
                ctx.begin_atomic();
                ctx.compute(3_000);
                let mut got = 0;
                while got < 64 {
                    if ctx.poll() {
                        got += 1;
                    } else {
                        ctx.compute(5);
                    }
                }
                ctx.end_atomic();
                assert_eq!(*self.seen.lock().unwrap(), 64);
            }
        }
        fn handler(&self, _ctx: &mut UserCtx<'_>, env: &Envelope) {
            let mut seen = self.seen.lock().unwrap();
            // FIFO order must survive the fabric backlog.
            assert_eq!(env.payload[0], *seen);
            *seen += 1;
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
        Arc::new(Burst {
            seen: Mutex::new(0),
        }),
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
        drained: Mutex<u32>,
    }
    impl Program for Flood {
        fn main(&self, ctx: &mut UserCtx<'_>) {
            if ctx.node() == 0 {
                for i in 0..400 {
                    ctx.send(1, 0, &[i, i, i, i, i, i]);
                }
                ctx.compute(10);
            } else {
                // Receiver stays atomic long past the timeout so everything
                // is diverted to the (tiny) buffer, then drains.
                ctx.begin_atomic();
                ctx.compute(2_000_000);
                let mut got = 0;
                while got < 400 {
                    if ctx.poll() {
                        got += 1;
                    } else {
                        ctx.compute(5);
                    }
                }
                ctx.end_atomic();
                assert_eq!(*self.drained.lock().unwrap(), 400);
            }
        }
        fn handler(&self, _ctx: &mut UserCtx<'_>, _env: &Envelope) {
            *self.drained.lock().unwrap() += 1;
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
            drained: Mutex::new(0),
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

// ======================================================================
// peek / page faults / polling watchdog / injectc backpressure
// ======================================================================

#[test]
fn peek_observes_without_consuming_in_both_modes() {
    struct Full;
    impl Program for Full {
        fn main(&self, ctx: &mut UserCtx<'_>) {
            if ctx.node() == 0 {
                ctx.send(1, 9, &[1, 2]);
                ctx.compute(10_000);
                ctx.send(1, 10, &[]);
            } else {
                ctx.begin_atomic();
                loop {
                    if let Some(env) = ctx.peek() {
                        assert_eq!(env.handler.0, 9);
                        break;
                    }
                    ctx.compute(10);
                }
                let env = ctx.poll_extract().expect("peeked message still there");
                assert_eq!(env.payload, [1, 2]);
                ctx.compute(50_000); // second message times out into vbuf
                assert_eq!(ctx.peek().expect("buffered peek").handler.0, 10);
                assert!(ctx.poll_extract().is_some());
                ctx.end_atomic();
            }
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
        handled: Mutex<u32>,
    }
    impl Program for FaultyHandler {
        fn main(&self, ctx: &mut UserCtx<'_>) {
            if ctx.node() == 0 {
                ctx.send(1, 0, &[]);
                ctx.compute(2_000);
                ctx.send(1, 0, &[]); // arrives while node 1 services a fault
            } else {
                while *self.handled.lock().unwrap() < 2 {
                    ctx.compute(100);
                }
            }
        }
        fn handler(&self, ctx: &mut UserCtx<'_>, _env: &Envelope) {
            let first = {
                let mut h = self.handled.lock().unwrap();
                *h += 1;
                *h == 1
            };
            if first {
                ctx.touch_page(7); // demand-zero fault inside the handler
                ctx.compute(5_000);
            }
        }
    }
    let mut m = machine(2);
    m.add_job(JobSpec::new(
        "faulty",
        Arc::new(FaultyHandler {
            handled: Mutex::new(0),
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
        done: Mutex<bool>,
    }
    impl Program for Toucher {
        fn main(&self, ctx: &mut UserCtx<'_>) {
            if ctx.node() == 0 {
                let t0 = ctx.now();
                ctx.touch_page(0); // fault
                let t1 = ctx.now();
                ctx.touch_page(0); // hit
                let t2 = ctx.now();
                assert!(t1 - t0 > 1_000, "first touch must fault");
                assert!(t2 - t1 < 10, "second touch must hit");
                *self.done.lock().unwrap() = true;
            }
        }
    }
    let mut m = machine(1);
    let p = Arc::new(Toucher {
        done: Mutex::new(false),
    });
    m.add_job(JobSpec::new("touch", Arc::clone(&p) as Arc<dyn Program>));
    let r = m.run();
    assert!(*p.done.lock().unwrap());
    assert_eq!(r.job("touch").page_faults, 1);
}

#[test]
fn polling_watchdog_forces_interrupts_instead_of_buffering() {
    struct Sluggish {
        received: Mutex<u32>,
    }
    impl Program for Sluggish {
        fn main(&self, ctx: &mut UserCtx<'_>) {
            if ctx.node() == 0 {
                for _ in 0..20 {
                    ctx.send(1, 0, &[]);
                    ctx.compute(5_000);
                }
            } else {
                ctx.begin_atomic();
                while *self.received.lock().unwrap() < 20 {
                    ctx.compute(30_000); // far past the 8192 timeout
                    while ctx.poll() {}
                }
                ctx.end_atomic();
            }
        }
        fn handler(&self, _ctx: &mut UserCtx<'_>, _env: &Envelope) {
            *self.received.lock().unwrap() += 1;
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
                received: Mutex::new(0),
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
        refused: Mutex<u32>,
    }
    impl Program for Flooder {
        fn main(&self, ctx: &mut UserCtx<'_>) {
            if ctx.node() == 0 {
                // Fire as fast as possible at a receiver that is asleep in
                // an atomic section; the window must eventually refuse.
                let mut sent = 0;
                while sent < 64 {
                    if ctx.try_send(1, 0, &[]) {
                        sent += 1;
                    } else {
                        *self.refused.lock().unwrap() += 1;
                        ctx.compute(200);
                    }
                }
            } else {
                ctx.begin_atomic();
                ctx.compute(100_000);
                let mut got = 0;
                while got < 64 {
                    if ctx.poll() {
                        got += 1;
                    } else {
                        ctx.compute(10);
                    }
                }
                ctx.end_atomic();
            }
        }
        fn handler(&self, _ctx: &mut UserCtx<'_>, _env: &Envelope) {}
    }
    let p = Arc::new(Flooder {
        refused: Mutex::new(0),
    });
    let mut m = Machine::new(MachineConfig {
        nodes: 2,
        inject_window: 8,
        ..Default::default()
    });
    m.add_job(JobSpec::new("flood", Arc::clone(&p) as Arc<dyn Program>));
    let r = m.run();
    assert!(
        *p.refused.lock().unwrap() > 0,
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
        accepted: Mutex<u32>,
    }
    impl Program for Prober {
        fn main(&self, ctx: &mut UserCtx<'_>) {
            if ctx.node() == 0 {
                let mut accepted = 0;
                while accepted < 64 && ctx.try_send(1, 0, &[]) {
                    accepted += 1;
                    ctx.compute(100);
                }
                *self.accepted.lock().unwrap() = accepted;
            } else {
                ctx.begin_atomic();
                ctx.compute(5_000);
                ctx.end_atomic();
            }
        }
        fn handler(&self, _ctx: &mut UserCtx<'_>, _env: &Envelope) {}
    }
    let p = Arc::new(Prober {
        accepted: Mutex::new(0),
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
    assert_eq!(*p.accepted.lock().unwrap(), 5);
}

#[test]
fn faults_active_reads_the_plan_from_both_contexts() {
    // Node 0 pings node 1; each context records what `faults_active`
    // reports, keyed by (node, context).
    struct Reader {
        seen: Mutex<Vec<(usize, CtxKind, bool)>>,
    }
    impl Program for Reader {
        fn main(&self, ctx: &mut UserCtx<'_>) {
            let active = ctx.faults_active();
            self.seen
                .lock()
                .unwrap()
                .push((ctx.node(), ctx.kind(), active));
            if ctx.node() == 0 {
                ctx.send(1, 0, &[]);
            } else {
                ctx.block(0);
            }
        }
        fn handler(&self, ctx: &mut UserCtx<'_>, _env: &Envelope) {
            let active = ctx.faults_active();
            self.seen
                .lock()
                .unwrap()
                .push((ctx.node(), ctx.kind(), active));
            ctx.wake(0);
        }
    }
    for (faults, expect) in [
        (FaultPlan::default(), false),
        (FaultPlan::parse("dup=0.05").unwrap(), true),
    ] {
        let p = Arc::new(Reader {
            seen: Mutex::new(Vec::new()),
        });
        let mut m = Machine::new(MachineConfig {
            nodes: 2,
            faults,
            ..Default::default()
        });
        m.add_job(JobSpec::new("reader", Arc::clone(&p) as Arc<dyn Program>));
        m.run();
        let mut seen = p.seen.lock().unwrap().clone();
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
        fn main(&self, ctx: &mut UserCtx<'_>) {
            if ctx.node() == 0 {
                ctx.try_send(2, 0, &[]);
            }
        }
        fn handler(&self, _ctx: &mut UserCtx<'_>, _env: &Envelope) {}
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
        fn main(&self, ctx: &mut UserCtx<'_>) {
            let peer = 1 - ctx.node();
            for i in 0..50 {
                ctx.send(peer, 1, &[i]);
                ctx.compute(3_000);
            }
            ctx.compute(50_000);
        }
        fn handler(&self, _ctx: &mut UserCtx<'_>, env: &Envelope) {
            assert_eq!(env.handler.0, 1);
        }
    }
    struct Bystander {
        intrusions: Mutex<u32>,
    }
    impl Program for Bystander {
        fn main(&self, ctx: &mut UserCtx<'_>) {
            // Poll aggressively and also leave interrupt windows open; we
            // must see nothing.
            for _ in 0..200 {
                if let Some(env) = ctx.poll_extract() {
                    let _ = env;
                    *self.intrusions.lock().unwrap() += 1;
                }
                ctx.compute(1_000);
            }
        }
        fn handler(&self, _ctx: &mut UserCtx<'_>, _env: &Envelope) {
            *self.intrusions.lock().unwrap() += 1;
        }
    }
    let bystander = Arc::new(Bystander {
        intrusions: Mutex::new(0),
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
        *bystander.intrusions.lock().unwrap(),
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
            got: Mutex<u32>,
        }
        impl Program for Chat {
            fn main(&self, ctx: &mut UserCtx<'_>) {
                let peer = 1 - ctx.node();
                for _ in 0..30 {
                    ctx.send(peer, self.marker, &[self.marker]);
                    ctx.compute(2_000);
                }
                while *self.got.lock().unwrap() < 30 {
                    ctx.compute(1_000);
                }
            }
            fn handler(&self, _ctx: &mut UserCtx<'_>, env: &Envelope) {
                assert_eq!(env.handler.0, self.marker, "crosstalk between jobs!");
                assert_eq!(env.payload, [self.marker]);
                *self.got.lock().unwrap() += 1;
            }
        }
        Arc::new(Chat {
            marker,
            got: Mutex::new(0),
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
