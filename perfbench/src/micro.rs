//! Unit costs: each layer's public operations timed from outside, on the
//! operation mix the traced run recorded.
//!
//! Every function returns host nanoseconds per operation in the fastest of
//! [`BATCHES`] timed batches: load from outside only adds time. The ledger
//! sets these against the median timed run, so its residual also holds
//! what host load added to that run.

use std::hint::black_box;
use std::time::Instant;

use fugu_glaze::{CostModel, FrameAllocator, OverflowControl, VirtualBuffer};
use fugu_net::{Gid, HandlerId, Message, Network, NetworkConfig, Payload};
use fugu_nic::{Mode, Nic, NicConfig};
use fugu_sim::coro::CoRuntime;
use fugu_sim::event::EventQueue;
use fugu_sim::rng::DetRng;
use fugu_sim::span::Profiler;
use fugu_sim::trace::{CategoryMask, TraceEvent, TraceRecord, Tracer};
use udm::InvariantChecker;

use crate::workload::NODES;

/// Timed batches per unit cost.
const BATCHES: usize = 15;
/// Pending events the queue benchmarks keep: a few per sim-thread of an
/// 8-node, 2-job machine.
const QUEUE_DEPTH: u64 = 48;

/// Fewest nanoseconds per operation `batch()` took over [`BATCHES`] runs;
/// `batch` returns the number of operations it performed.
fn per_op(mut batch: impl FnMut() -> u64) -> f64 {
    (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            let ops = batch();
            start.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// One engine→sim-thread→engine resume of a parked sim-thread.
pub fn coro_round_trip_ns() -> f64 {
    const RESUMES: u64 = 2_000;
    per_op(|| {
        let mut rt: CoRuntime<u64, u64> = CoRuntime::new();
        let id = rt.spawn(|ctx| {
            let mut x = 0;
            loop {
                x = ctx.call(x + 1);
            }
        });
        for i in 0..RESUMES {
            black_box(rt.resume(id, i));
        }
        RESUMES
    })
}

/// Spawning one sim-thread (an OS thread parked at its start gate).
/// Tearing the runtime down is not timed.
pub fn coro_spawn_ns(threads: usize) -> f64 {
    let mut spawned = Vec::new();
    let ns = per_op(|| {
        let mut rt: CoRuntime<u64, u64> = CoRuntime::new();
        for _ in 0..threads {
            rt.spawn(|ctx| {
                ctx.call(0);
            });
        }
        spawned.push(rt);
        threads as u64
    });
    drop(spawned);
    ns
}

fn prefilled_queue(rng: &mut DetRng) -> EventQueue<u64> {
    let mut q = EventQueue::new();
    for i in 0..QUEUE_DEPTH {
        q.schedule_in(1 + rng.range_u64(0, 1_000), i);
    }
    q
}

/// One schedule plus one pop at a steady queue depth.
pub fn event_op_ns() -> f64 {
    const OPS: u64 = 200_000;
    per_op(|| {
        let mut rng = DetRng::new(1);
        let mut q = prefilled_queue(&mut rng);
        for i in 0..OPS {
            let (_, ev) = q.pop().expect("queue stays at depth");
            q.schedule_in(1 + rng.range_u64(0, 1_000), black_box(ev ^ i));
        }
        OPS
    })
}

/// One schedule plus one cancel of the scheduled event: the churn of a
/// compute block preempted by an upcall.
pub fn event_cancel_ns() -> f64 {
    const OPS: u64 = 200_000;
    per_op(|| {
        let mut rng = DetRng::new(2);
        let mut q = prefilled_queue(&mut rng);
        for i in 0..OPS {
            let id = q.schedule_in(1 + rng.range_u64(0, 1_000), i);
            black_box(q.cancel(id));
        }
        OPS
    })
}

/// A message shaped like the run's traffic.
fn message(src: usize, dst: usize, payload_words: usize) -> Message {
    let payload: Payload = vec![7u32; payload_words].into();
    Message::new(src, dst, Gid::new(1), HandlerId(1), payload)
}

/// One `Network::inject` plus the matching `deliver`.
pub fn net_inject_deliver_ns(payload_words: usize) -> f64 {
    const OPS: u64 = 200_000;
    let msgs: Vec<Message> = (0..NODES)
        .map(|n| message(n, (n + 1) % NODES, payload_words))
        .collect();
    per_op(|| {
        let mut net = Network::new(NetworkConfig::main_network());
        for i in 0..OPS {
            let m = &msgs[i as usize % NODES];
            black_box(net.inject(i * 10, m));
            net.deliver(m.dst());
        }
        OPS
    })
}

/// Building a message, `describe` and a user `launch`.
pub fn nic_describe_launch_ns(payload_words: usize) -> f64 {
    const OPS: u64 = 200_000;
    let payload: Payload = vec![7u32; payload_words].into();
    per_op(|| {
        let mut nic = Nic::new(NicConfig::default());
        nic.set_gid(Gid::new(1));
        for i in 0..OPS {
            let m = Message::new(0, 1, Gid::new(1), HandlerId(i as u32), payload.clone());
            nic.describe(m);
            black_box(
                nic.launch(Mode::User)
                    .expect("user gid")
                    .expect("described"),
            );
        }
        OPS
    })
}

/// One `enqueue` into the NIC input queue plus the user `dispose` of it.
pub fn nic_enqueue_dispose_ns(payload_words: usize) -> f64 {
    const OPS: u64 = 200_000;
    let m = message(1, 0, payload_words);
    per_op(|| {
        let mut nic = Nic::new(NicConfig::default());
        nic.set_gid(Gid::new(1));
        for _ in 0..OPS {
            nic.enqueue(m.clone()).expect("queue drained each time");
            black_box(nic.dispose(Mode::User).expect("message available"));
        }
        OPS
    })
}

/// One `VirtualBuffer::insert` plus its `pop`, buffering eight messages
/// deep so frames are allocated and released as pages fill and drain.
pub fn vbuf_insert_pop_ns(payload_words: usize) -> f64 {
    const ROUNDS: u64 = 25_000;
    const DEPTH: u64 = 8;
    let costs = CostModel::hard_atomicity();
    let m = message(1, 0, payload_words);
    per_op(|| {
        let mut frames = FrameAllocator::new(costs.frames_per_node);
        let mut vb = VirtualBuffer::new(costs.page_size_bytes);
        for _ in 0..ROUNDS {
            for _ in 0..DEPTH {
                black_box(vb.insert(m.clone(), &mut frames).expect("frames suffice"));
            }
            for _ in 0..DEPTH {
                black_box(vb.pop(&mut frames));
            }
        }
        ROUNDS * DEPTH
    })
}

/// One overflow-control check above both watermarks (the common case).
pub fn overflow_check_ns() -> f64 {
    const OPS: u64 = 1_000_000;
    per_op(|| {
        let mut oc = OverflowControl::new(16, 4);
        for i in 0..OPS {
            black_box(oc.check(black_box(200 + (i & 31))));
        }
        OPS
    })
}

fn arrive(i: u64) -> TraceEvent {
    TraceEvent::MsgArrive {
        node: (i as usize) % NODES,
        qlen: 1,
        uid: i,
    }
}

/// One emission into a tracer with nothing attached: the cost every trace
/// site pays in an untraced run.
pub fn trace_emit_off_ns() -> f64 {
    const OPS: u64 = 1_000_000;
    let tracer = Tracer::disabled();
    per_op(|| {
        for i in 0..OPS {
            tracer.emit_with(CategoryMask::MSG, || arrive(black_box(i)));
        }
        OPS
    })
}

/// One emission into a tracer with a single counting subscriber.
pub fn trace_emit_sub_ns() -> f64 {
    const OPS: u64 = 200_000;
    let tracer = Tracer::disabled();
    let mut seen = 0u64;
    tracer.subscribe(CategoryMask::ALL, move |_, _| {
        seen += 1;
        black_box(seen);
    });
    per_op(|| {
        for i in 0..OPS {
            tracer.emit_with(CategoryMask::MSG, || arrive(i));
        }
        OPS
    })
}

/// Replays `records` through `Tracer::emit` into a fresh tracer that
/// `attach` subscribes an oracle to; nanoseconds per replayed event.
fn replay_ns(records: &[TraceRecord], attach: impl Fn(&Tracer)) -> f64 {
    per_op(|| {
        let tracer = Tracer::disabled();
        attach(&tracer);
        for r in records {
            tracer.set_time(r.at);
            tracer.emit(r.event.clone());
        }
        records.len() as u64
    })
}

/// The invariant checker's cost per recorded event.
pub fn invariant_ns_per_event(records: &[TraceRecord]) -> f64 {
    replay_ns(records, |t| InvariantChecker::new().attach(t))
}

/// The span profiler's cost per recorded event.
pub fn span_ns_per_event(records: &[TraceRecord]) -> f64 {
    replay_ns(records, |t| Profiler::new().attach(t))
}
