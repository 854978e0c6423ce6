//! Cancellable future-event list.
//!
//! The engine of the simulated FUGU machine needs one non-obvious feature
//! from its event queue: *cancellation*. When a message-available interrupt
//! preempts a user thread in the middle of a `compute` block, the thread's
//! already-scheduled completion event must be withdrawn and re-issued later
//! with the remaining work. [`EventQueue::cancel`] supports exactly that.
//!
//! Events at equal times are delivered in insertion order (FIFO), which is
//! what makes whole-machine simulations deterministic.
//!
//! # Implementation
//!
//! Payloads live in a slab (a plain `Vec` of generation-counted slots with
//! a free list); the heap orders `(time, sequence)` keys that carry their
//! slot index. Scheduling, popping and cancelling therefore cost a heap
//! operation plus an array index — no hashing. Cancellation is lazy (the
//! heap entry stays behind as a tombstone, detected by a generation
//! mismatch) with two bounds that the old `BinaryHeap` + `HashMap`
//! implementation lacked:
//!
//! * dead entries are skimmed off the heap head eagerly, so the earliest
//!   heap entry is always live and [`EventQueue::peek_time`] needs only
//!   `&self`;
//! * when tombstones outnumber live events the heap is compacted, so a
//!   cancel/re-schedule-heavy workload (every interrupt-preempted `compute`
//!   block) keeps the heap within a constant factor of the live count
//!   instead of growing without bound.
//!
//! `tests/event_differential.rs` checks the queue against a plain
//! scan-for-the-minimum reference model over randomized interleavings.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::Cycles;

/// Handle to a scheduled event, used to cancel it before it fires.
///
/// Identifiers are unique for the lifetime of the queue; cancelling or
/// popping an event invalidates its identifier. (Internally an identifier
/// packs a slab slot and its generation; a slot must be reused 2³² times
/// before an identifier could repeat.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, gen: u32) -> Self {
        EventId((u64::from(gen) << 32) | u64::from(slot))
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// One slab slot: the payload of a pending event, plus a generation
/// counter that invalidates stale [`EventId`]s and heap tombstones.
#[derive(Debug)]
struct Slot<E> {
    gen: u32,
    payload: Option<E>,
}

/// A time-ordered, cancellable queue of future events.
///
/// `E` is the event payload type. The queue tracks the current simulated
/// time: [`EventQueue::pop`] advances [`EventQueue::now`] to the time of the
/// popped event.
///
/// # Example
///
/// ```
/// use fugu_sim::event::EventQueue;
///
/// let mut q = EventQueue::new();
/// let a = q.schedule(100, "timeout");
/// q.schedule(50, "arrival");
/// assert_eq!(q.cancel(a), Some("timeout"));
/// assert_eq!(q.pop(), Some((50, "arrival")));
/// assert_eq!(q.now(), 50);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Min-heap (via `Reverse`) of `(time, seq, slot, gen)`. `seq` is
    /// unique, so ordering on the full tuple equals ordering on
    /// `(time, seq)` — FIFO among equal times — and `slot`/`gen` ride
    /// along to locate the payload without a lookup table.
    heap: BinaryHeap<Reverse<(Cycles, u64, u32, u32)>>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Pending (non-cancelled) events.
    live: usize,
    /// Cancelled entries still sitting in the heap as tombstones.
    dead: usize,
    next_seq: u64,
    now: Cycles,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            dead: 0,
            next_seq: 0,
            now: 0,
        }
    }

    /// Current simulated time: the timestamp of the most recently popped
    /// event (zero before any event has fired).
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`EventQueue::now`]; the simulation
    /// may not travel backwards.
    pub fn schedule(&mut self, at: Cycles, event: E) -> EventId {
        assert!(
            at >= self.now,
            "scheduled event at {} before current time {}",
            at,
            self.now
        );
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].payload = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("event slab overflow");
                self.slots.push(Slot {
                    gen: 0,
                    payload: Some(event),
                });
                slot
            }
        };
        let gen = self.slots[slot as usize].gen;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq, slot, gen)));
        self.live += 1;
        EventId::new(slot, gen)
    }

    /// Schedules `event` to fire `delay` cycles from now.
    pub fn schedule_in(&mut self, delay: Cycles, event: E) -> EventId {
        let at = self
            .now
            .checked_add(delay)
            .expect("simulated time overflow");
        self.schedule(at, event)
    }

    /// Withdraws a scheduled event, returning its payload, or `None` if the
    /// event already fired or was already cancelled.
    pub fn cancel(&mut self, id: EventId) -> Option<E> {
        let slot = self.slots.get_mut(id.slot() as usize)?;
        if slot.gen != id.gen() {
            return None;
        }
        let event = slot.payload.take()?;
        self.retire(id.slot());
        self.live -= 1;
        self.dead += 1;
        self.skim_dead();
        self.maybe_compact();
        Some(event)
    }

    /// Returns `true` if the event has neither fired nor been cancelled.
    pub fn is_pending(&self, id: EventId) -> bool {
        self.slots
            .get(id.slot() as usize)
            .is_some_and(|s| s.gen == id.gen() && s.payload.is_some())
    }

    /// Time of the earliest pending event, if any.
    ///
    /// Dead heap entries are skimmed eagerly by [`EventQueue::cancel`] and
    /// [`EventQueue::pop`], so the heap head is always a live event and
    /// peeking needs no mutation.
    pub fn peek_time(&self) -> Option<Cycles> {
        self.heap.peek().map(|Reverse((t, ..))| *t)
    }

    /// Removes and returns the earliest pending event, advancing the clock
    /// to its timestamp. Ties fire in insertion order.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        loop {
            let Reverse((t, _seq, slot, gen)) = self.heap.pop()?;
            let s = &mut self.slots[slot as usize];
            if s.gen != gen {
                // Tombstone of a cancelled event. Unreachable while the
                // eager skim holds, but popping must stay correct even if
                // the invariant is ever relaxed.
                self.dead -= 1;
                continue;
            }
            let ev = s.payload.take().expect("live slot has a payload");
            self.retire(slot);
            self.live -= 1;
            debug_assert!(t >= self.now);
            self.now = t;
            self.skim_dead();
            return Some((t, ev));
        }
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Heap entries currently allocated, *including* tombstones of
    /// cancelled events. Exposed so tests (and curious benchmarks) can
    /// assert that compaction keeps the heap within a constant factor of
    /// [`EventQueue::len`] under cancel-heavy churn.
    pub fn heap_entries(&self) -> usize {
        self.heap.len()
    }

    /// Bumps a slot's generation (invalidating its id and any heap
    /// tombstone pointing at it) and returns it to the free list.
    fn retire(&mut self, slot: u32) {
        self.slots[slot as usize].gen = self.slots[slot as usize].gen.wrapping_add(1);
        self.free.push(slot);
    }

    /// Drops tombstones sitting at the head of the heap, restoring the
    /// invariant that the earliest heap entry is live.
    fn skim_dead(&mut self) {
        while let Some(Reverse((_, _, slot, gen))) = self.heap.peek() {
            if self.slots[*slot as usize].gen == *gen {
                break;
            }
            self.heap.pop();
            self.dead -= 1;
        }
    }

    /// Rebuilds the heap without tombstones once they outnumber live
    /// events. Amortized O(1) per cancel: a compaction costing O(n) is
    /// paid for by the n cancels that created the tombstones.
    fn maybe_compact(&mut self) {
        if self.dead <= self.live {
            return;
        }
        let entries = std::mem::take(&mut self.heap).into_vec();
        self.heap = entries
            .into_iter()
            .filter(|Reverse((_, _, slot, gen))| self.slots[*slot as usize].gen == *gen)
            .collect();
        self.dead = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 3);
        q.schedule(10, 1);
        q.schedule(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..16 {
            q.schedule(42, i);
        }
        for i in 0..16 {
            assert_eq!(q.pop(), Some((42, i)));
        }
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(10, "a");
        let b = q.schedule(20, "b");
        assert!(q.is_pending(a));
        assert_eq!(q.cancel(a), Some("a"));
        assert!(!q.is_pending(a));
        assert_eq!(q.cancel(a), None);
        assert_eq!(q.pop(), Some((20, "b")));
        assert!(!q.is_pending(b));
    }

    #[test]
    fn peek_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.schedule(10, "a");
        q.schedule(20, "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(20));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_needs_no_mutation() {
        let mut q = EventQueue::new();
        q.schedule(5, "x");
        let shared = &q;
        assert_eq!(shared.peek_time(), Some(5));
        assert_eq!(shared.peek_time(), Some(5));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(100, "x");
        q.pop();
        q.schedule_in(5, "y");
        assert_eq!(q.pop(), Some((105, "y")));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(100, "x");
        q.pop();
        q.schedule(99, "y");
    }

    #[test]
    fn now_starts_at_zero_and_tracks_pops() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.now(), 0);
        q.schedule(7, ());
        q.pop();
        assert_eq!(q.now(), 7);
    }

    #[test]
    fn stale_id_does_not_hit_reused_slot() {
        let mut q = EventQueue::new();
        let a = q.schedule(10, "a");
        q.cancel(a);
        // The slot is reused for a fresh event; the stale id must not see it.
        let b = q.schedule(20, "b");
        assert!(!q.is_pending(a));
        assert_eq!(q.cancel(a), None);
        assert!(q.is_pending(b));
        assert_eq!(q.pop(), Some((20, "b")));
    }

    #[test]
    fn cancel_churn_keeps_heap_bounded() {
        // Regression test for the unbounded-tombstone bug: a workload that
        // perpetually cancels and re-schedules (as interrupt-preempted
        // compute blocks do) must not grow the heap without bound.
        let mut q = EventQueue::new();
        let mut pending = Vec::new();
        for i in 0..64 {
            pending.push(q.schedule(1_000 + i, i));
        }
        for round in 0..10_000u64 {
            let id = pending.remove((round % 64) as usize);
            assert!(q.cancel(id).is_some());
            pending.push(q.schedule(2_000 + round, round));
        }
        assert_eq!(q.len(), 64);
        // With lazy deletion alone the heap would hold >10k entries here.
        assert!(
            q.heap_entries() <= 2 * q.len() + 1,
            "heap retained {} entries for {} live events",
            q.heap_entries(),
            q.len()
        );
        // The queue still drains correctly after heavy churn.
        let mut last = 0;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            popped += 1;
        }
        assert_eq!(popped, 64);
    }
}
