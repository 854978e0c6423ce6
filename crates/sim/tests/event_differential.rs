//! Differential property test: the slab-backed event queue must be
//! observationally identical to a deliberately naive reference model over
//! randomized schedule / cancel / pop interleavings — same pop order, same
//! `now()`, same cancel and pending semantics, same lengths. The
//! whole-machine byte-identical-results guarantee rests on this
//! equivalence.

use fugu_sim::event::{EventId, EventQueue};
use fugu_sim::prop::forall;
use fugu_sim::rng::DetRng;

/// Reference model sharing no code with `EventQueue`: every event ever
/// scheduled, as `(time, seq, tag, live)`, where `seq` is the schedule
/// order and doubles as the event's id. The next event is found by
/// scanning for the live entry with the least `(time, seq)`.
#[derive(Default)]
struct Model {
    events: Vec<(u64, u64, u32, bool)>,
    now: u64,
}

impl Model {
    fn schedule_in(&mut self, delay: u64, tag: u32) -> usize {
        let seq = self.events.len();
        self.events.push((self.now + delay, seq as u64, tag, true));
        seq
    }

    fn cancel(&mut self, id: usize) -> Option<u32> {
        let (_, _, tag, live) = &mut self.events[id];
        std::mem::replace(live, false).then_some(*tag)
    }

    fn is_pending(&self, id: usize) -> bool {
        self.events[id].3
    }

    fn next(&self) -> Option<usize> {
        let live = (0..self.events.len()).filter(|&i| self.events[i].3);
        live.min_by_key(|&i| (self.events[i].0, self.events[i].1))
    }

    fn peek_time(&self) -> Option<u64> {
        self.next().map(|i| self.events[i].0)
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let i = self.next()?;
        self.events[i].3 = false;
        self.now = self.events[i].0;
        Some((self.now, self.events[i].2))
    }

    fn len(&self) -> usize {
        self.events.iter().filter(|e| e.3).count()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Schedule {
        delay: u64,
        tag: u32,
    },
    /// Cancel the n-th (mod len) id ever scheduled, oldest first.
    CancelNth(usize),
    Pop,
    Peek,
}

fn gen_op(rng: &mut DetRng) -> Op {
    // Weight toward cancellation: the machine's timer churn is exactly the
    // regime where the queue could plausibly diverge from the model
    // (tombstone handling, compaction, slot reuse).
    match rng.index(8) {
        0..=2 => Op::Schedule {
            delay: rng.range_u64(0, 500),
            tag: rng.next_u64() as u32,
        },
        3..=5 => Op::CancelNth(rng.index(64)),
        6 => Op::Pop,
        _ => Op::Peek,
    }
}

#[test]
fn slab_queue_matches_reference_model() {
    forall(512, 0x5EED_0003, |rng| {
        let n_ops = rng.range_u64(1, 300) as usize;
        let mut slab: EventQueue<u32> = EventQueue::new();
        let mut model = Model::default();
        // The i-th schedule produced both ids, so the i-th cancel targets
        // the same logical event in the queue and the model.
        let mut ids: Vec<(EventId, usize)> = Vec::new();

        for _ in 0..n_ops {
            match gen_op(rng) {
                Op::Schedule { delay, tag } => {
                    let a = slab.schedule_in(delay, tag);
                    let b = model.schedule_in(delay, tag);
                    ids.push((a, b));
                }
                Op::CancelNth(n) => {
                    if !ids.is_empty() {
                        let (a, b) = ids[n % ids.len()];
                        assert_eq!(slab.is_pending(a), model.is_pending(b));
                        assert_eq!(slab.cancel(a), model.cancel(b));
                        // Cancelling twice is a no-op in both.
                        assert_eq!(slab.cancel(a), None);
                        assert_eq!(model.cancel(b), None);
                    }
                }
                Op::Pop => {
                    assert_eq!(slab.pop(), model.pop());
                }
                Op::Peek => {
                    assert_eq!(slab.peek_time(), model.peek_time());
                }
            }
            assert_eq!(slab.now(), model.now);
            assert_eq!(slab.len(), model.len());
            assert_eq!(slab.is_empty(), model.len() == 0);
        }

        // Drain: the remaining pop sequences must agree exactly.
        loop {
            let (a, b) = (slab.pop(), model.pop());
            assert_eq!(a, b);
            assert_eq!(slab.now(), model.now);
            if a.is_none() {
                break;
            }
        }
    });
}
