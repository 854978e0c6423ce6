//! Property-based tests of the virtual buffer: for arbitrary interleavings
//! of inserts, pops, paging sweeps and (fault-injected) frame-allocation
//! failures, messages come back exactly in insertion order, counts balance,
//! and every physical frame is accounted for.

use std::collections::VecDeque;

use fugu_glaze::{FrameAllocator, VirtualBuffer};
use fugu_net::{Gid, HandlerId, Message};
use fugu_sim::fault::{FaultInjector, FaultPlan};
use fugu_sim::prop::forall;
use fugu_sim::rng::DetRng;

/// A message whose first payload word is a unique tag.
fn msg(tag: u32, words: usize) -> Message {
    let mut payload = vec![0u32; words.max(1)];
    payload[0] = tag;
    Message::new(0, 1, Gid::new(1), HandlerId(0), payload)
}

/// Drives one random schedule against a model queue of expected tags.
fn drive(rng: &mut DetRng, faulty: bool) {
    let page = [64usize, 128, 256][rng.index(3)];
    let pool = 1 + rng.index(6) as u64;
    let mut frames = FrameAllocator::new(pool);
    if faulty {
        let plan = FaultPlan {
            frame_fail: 0.05 + 0.3 * rng.f64(),
            frame_fail_burst: 1 + rng.index(3) as u32,
            ..FaultPlan::default()
        };
        frames.attach_faults(FaultInjector::new(plan, rng.next_u64(), 1));
    }
    let mut vb = VirtualBuffer::new(page);
    let mut model: VecDeque<u32> = VecDeque::new();
    let mut next_tag = 0u32;
    let mut accepted = 0u64;
    let mut swapped = 0u64;
    // Every accepted message pops exactly once, and reports a swap-in iff
    // it went to backing store (on insert or in a page-out sweep).
    let mut popped = 0u64;
    let mut popped_swapped = 0u64;
    let mut tally = |was_swapped: bool| {
        popped += 1;
        popped_swapped += u64::from(was_swapped);
    };

    for _ in 0..100 + rng.index(200) {
        match rng.index(10) {
            0..=5 => {
                let tag = next_tag;
                next_tag += 1;
                let m = msg(tag, 1 + rng.index(12));
                match vb.insert(m.clone(), &mut frames) {
                    Ok(_) => {
                        model.push_back(tag);
                        accepted += 1;
                    }
                    Err(_) => {
                        // Out of frames (really, or by injection). Overflow
                        // control either pages the message to backing store
                        // over the second network or stalls the sender (the
                        // message is then never enqueued at all).
                        if rng.chance(0.7) {
                            vb.insert_swapped(m);
                            model.push_back(tag);
                            accepted += 1;
                            swapped += 1;
                        }
                    }
                }
            }
            6..=8 => match vb.pop(&mut frames) {
                Some((m, was_swapped)) => {
                    tally(was_swapped);
                    let want = model.pop_front().expect("pop from empty model");
                    assert_eq!(m.payload()[0], want, "out-of-order delivery");
                }
                None => assert!(model.is_empty(), "buffer empty but model is not"),
            },
            _ => {
                let (_released, converted) = vb.page_out_all(&mut frames);
                swapped += converted;
                assert_eq!(vb.pages_in_use(), 0, "page-out left frames behind");
            }
        }
        // Frame conservation: the buffer's backing is exactly what the
        // allocator handed out, and never exceeds the pool.
        assert_eq!(vb.pages_in_use(), frames.used());
        assert!(frames.used() <= pool);
        assert_eq!(vb.len(), model.len());
    }

    // Drain: the full insertion order comes back, then everything is free.
    while let Some((m, was_swapped)) = vb.pop(&mut frames) {
        tally(was_swapped);
        let want = model.pop_front().expect("drain past model");
        assert_eq!(m.payload()[0], want, "out-of-order delivery during drain");
    }
    assert!(model.is_empty());
    assert_eq!(frames.used(), 0, "drained buffer must return all frames");
    assert_eq!(popped, accepted);
    assert_eq!(popped_swapped, swapped);
}

#[test]
fn vbuf_order_and_counts_under_random_schedules() {
    forall(200, 0xB0F_0001, |rng| drive(rng, false));
}

#[test]
fn vbuf_order_and_counts_under_forced_frame_failures() {
    forall(200, 0xB0F_0002, |rng| drive(rng, true));
}
