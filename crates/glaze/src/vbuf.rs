//! The virtual buffer: an application's software message queue, living in
//! its virtual memory with physical frames allocated on demand (§4.2).
//!
//! Messages are appended at a monotonically increasing virtual *tail*
//! address and consumed from a *head* address. The number of physical
//! frames backing the buffer at any instant is the number of pages spanned
//! by `[head, tail)`; crossing a page boundary on insert triggers a demand
//! allocation (the expensive "w/vmalloc" case of Table 5), and a page whose
//! last message has been consumed is returned to the frame pool.

use std::collections::VecDeque;

use fugu_net::Message;

use crate::vm::{FrameAllocator, OutOfFrames};

/// Result of inserting one message, telling the machine which Table 5 cost
/// to charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertOutcome {
    /// `true` if the insert had to demand-allocate fresh physical page
    /// frame(s) — charge `buf_insert_vmalloc` instead of `buf_insert_min`.
    pub allocated_page: bool,
}

/// A per-process software message buffer in virtual memory.
///
/// # Example
///
/// ```
/// use fugu_glaze::{FrameAllocator, VirtualBuffer};
/// use fugu_net::{Gid, HandlerId, Message};
///
/// let mut frames = FrameAllocator::new(16);
/// let mut vb = VirtualBuffer::new(4096);
/// let m = Message::new(0, 1, Gid::new(1), HandlerId(0), vec![1, 2, 3]);
/// let outcome = vb.insert(m.clone(), &mut frames).unwrap();
/// assert!(outcome.allocated_page); // very first insert touches a new page
/// assert_eq!(vb.pop(&mut frames), Some((m, false)));
/// assert_eq!(frames.used(), 0);    // drained buffer returns its frames
/// ```
#[derive(Debug)]
pub struct VirtualBuffer {
    page_size: usize,
    queue: VecDeque<Entry>,
    head_addr: u64,
    tail_addr: u64,
    /// Pages currently backed by physical frames: addresses
    /// `[backed_from_page, backed_to_page)`.
    backed_from_page: u64,
    backed_to_page: u64,
}

/// One buffered message: either resident at `[.., end_addr)` in the backed
/// region, or swapped to backing store over the second network.
#[derive(Debug)]
enum Entry {
    Resident { msg: Message, end_addr: u64 },
    Swapped { msg: Message },
}

impl VirtualBuffer {
    /// Creates an empty buffer using pages of `page_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be nonzero");
        VirtualBuffer {
            page_size,
            queue: VecDeque::new(),
            head_addr: 0,
            tail_addr: 0,
            backed_from_page: 0,
            backed_to_page: 0,
        }
    }

    /// Bytes a message occupies in the buffer: its words plus a two-word
    /// stored header (length + source/GID bookkeeping).
    fn footprint(msg: &Message) -> u64 {
        ((msg.len_words() + 2) * 4) as u64
    }

    fn page_of(&self, addr: u64) -> u64 {
        addr / self.page_size as u64
    }

    /// Appends a message, demand-allocating frames for any newly touched
    /// pages.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfFrames`] if a needed frame cannot be allocated. The
    /// message is *not* enqueued; the caller must stall the network and
    /// invoke overflow control (§4.2).
    pub fn insert(
        &mut self,
        msg: Message,
        frames: &mut FrameAllocator,
    ) -> Result<InsertOutcome, OutOfFrames> {
        let new_tail = self.tail_addr + Self::footprint(&msg);
        // Pages needed to cover [head, new_tail): last touched page + 1.
        let needed_to_page = self.page_of(new_tail - 1) + 1;
        let mut allocated = false;
        if needed_to_page > self.backed_to_page {
            let want = needed_to_page - self.backed_to_page;
            // Allocate all-or-nothing so a failure leaves clean state.
            // Even with enough free frames an allocation can be refused by
            // fault injection; roll back so forced failures look exactly
            // like real exhaustion to overflow control.
            if frames.free() < want {
                return Err(OutOfFrames);
            }
            for done in 0..want {
                if frames.allocate().is_err() {
                    frames.release(done);
                    return Err(OutOfFrames);
                }
            }
            self.backed_to_page = needed_to_page;
            allocated = true;
        }
        self.tail_addr = new_tail;
        self.queue.push_back(Entry::Resident {
            msg,
            end_addr: new_tail,
        });
        Ok(InsertOutcome {
            allocated_page: allocated,
        })
    }

    /// Appends a message **without** physical backing: it has been written
    /// to backing store over the second network (§4.2 "a guaranteed path to
    /// backing store"). The caller charges the page-out cost; popping it
    /// later reports `was_swapped = true` so the swap-in can be charged.
    pub fn insert_swapped(&mut self, msg: Message) {
        self.queue.push_back(Entry::Swapped { msg });
    }

    /// Consumes the oldest message, releasing any pages that the head has
    /// moved past. The boolean is `true` if the message had been swapped to
    /// backing store (charge the swap-in cost).
    ///
    /// The interval from the machine's `BufferInsert` to the
    /// `BufferExtract` it emits around this call is what the span profiler
    /// reports as buffered residency, split into `sched` (owning job
    /// descheduled) and `vbuf` (scheduled but not yet drained) time; the
    /// extraction and swap-in costs themselves are charged to the CPU after
    /// extraction, so they land in the span's `handler` segment.
    pub fn pop(&mut self, frames: &mut FrameAllocator) -> Option<(Message, bool)> {
        let (msg, end_addr) = match self.queue.pop_front()? {
            Entry::Swapped { msg } => {
                if self.queue.is_empty() {
                    self.release_all(frames);
                }
                return Some((msg, true));
            }
            Entry::Resident { msg, end_addr } => (msg, end_addr),
        };
        self.head_addr = end_addr;
        if self.queue.is_empty() {
            self.release_all(frames);
        } else {
            // A page is freed once the head has moved beyond it.
            let keep_from_page = self.page_of(self.head_addr);
            if keep_from_page > self.backed_from_page {
                frames.release(keep_from_page - self.backed_from_page);
                self.backed_from_page = keep_from_page;
            }
        }
        Some((msg, false))
    }

    /// Fully drained: release everything (the paper's system returns buffer
    /// memory to the shared pool) and realign head and tail to the next
    /// page boundary so the released partial page is never written again
    /// without a fresh allocation.
    fn release_all(&mut self, frames: &mut FrameAllocator) {
        frames.release(self.backed_to_page - self.backed_from_page);
        let page = self.page_size as u64;
        let aligned = self.tail_addr.div_ceil(page) * page;
        self.head_addr = aligned;
        self.tail_addr = aligned;
        self.backed_from_page = aligned / page;
        self.backed_to_page = self.backed_from_page;
    }

    /// Oldest message without consuming it.
    pub fn peek(&self) -> Option<&Message> {
        self.queue.front().map(|e| match e {
            Entry::Resident { msg, .. } | Entry::Swapped { msg } => msg,
        })
    }

    /// Number of buffered messages.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` if no messages are buffered.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Physical pages currently backing the buffer.
    pub fn pages_in_use(&self) -> u64 {
        self.backed_to_page - self.backed_from_page
    }

    /// Pages every resident message out to backing store, releasing all
    /// physical frames. This is the "globally suspended while paging clears
    /// out space on the node" action of §4.2's overflow control. Returns
    /// `(pages_released, messages_paged)`; the caller charges a
    /// second-network page-out per released page, and later pops report the
    /// messages as swapped (charging the swap-in).
    pub fn page_out_all(&mut self, frames: &mut FrameAllocator) -> (u64, u64) {
        let mut converted = 0;
        for entry in &mut self.queue {
            if let Entry::Resident { msg, .. } = entry {
                let msg = msg.clone();
                *entry = Entry::Swapped { msg };
                converted += 1;
            }
        }
        let released = self.backed_to_page - self.backed_from_page;
        frames.release(released);
        let page = self.page_size as u64;
        let aligned = self.tail_addr.div_ceil(page) * page;
        self.head_addr = aligned;
        self.tail_addr = aligned;
        self.backed_from_page = aligned / page;
        self.backed_to_page = self.backed_from_page;
        (released, converted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fugu_net::{Gid, HandlerId};

    fn msg(words: usize) -> Message {
        Message::new(0, 1, Gid::new(1), HandlerId(0), vec![0; words])
    }

    fn setup(page: usize, frames: u64) -> (VirtualBuffer, FrameAllocator) {
        (VirtualBuffer::new(page), FrameAllocator::new(frames))
    }

    #[test]
    fn fifo_order_preserved() {
        let (mut vb, mut fa) = setup(4096, 8);
        for i in 0..10 {
            vb.insert(msg(i % 5), &mut fa).unwrap();
        }
        for i in 0..10 {
            assert_eq!(vb.pop(&mut fa).unwrap().0.payload().len(), i % 5);
        }
        assert!(vb.pop(&mut fa).is_none());
    }

    #[test]
    fn swapped_messages_keep_fifo_and_report_swap() {
        let (mut vb, mut fa) = setup(64, 8);
        vb.insert(msg(1), &mut fa).unwrap();
        vb.insert_swapped(msg(2));
        vb.insert(msg(3), &mut fa).unwrap();
        let (m, sw) = vb.pop(&mut fa).unwrap();
        assert_eq!((m.payload().len(), sw), (1, false));
        let (m, sw) = vb.pop(&mut fa).unwrap();
        assert_eq!((m.payload().len(), sw), (2, true));
        let (m, sw) = vb.pop(&mut fa).unwrap();
        assert_eq!((m.payload().len(), sw), (3, false));
        assert_eq!(fa.used(), 0);
    }

    #[test]
    fn trailing_swapped_entry_still_releases_frames_on_drain() {
        let (mut vb, mut fa) = setup(64, 8);
        vb.insert(msg(0), &mut fa).unwrap();
        vb.insert_swapped(msg(0));
        vb.pop(&mut fa); // resident; queue still holds the swapped one
        assert_eq!(fa.used(), 1, "page pinned while swapped entry remains");
        vb.pop(&mut fa); // swapped; buffer now empty
        assert_eq!(fa.used(), 0, "drain with swapped tail leaked frames");
        // Buffer remains usable afterwards.
        vb.insert(msg(0), &mut fa).unwrap();
        assert!(!vb.pop(&mut fa).unwrap().1);
    }

    #[test]
    fn first_insert_allocates_then_reuses_page() {
        let (mut vb, mut fa) = setup(4096, 8);
        assert!(vb.insert(msg(0), &mut fa).unwrap().allocated_page);
        // Null message footprint is 16 bytes; many fit on the page.
        assert!(!vb.insert(msg(0), &mut fa).unwrap().allocated_page);
        assert_eq!(vb.pages_in_use(), 1);
        assert_eq!(fa.used(), 1);
    }

    #[test]
    fn crossing_a_page_boundary_allocates() {
        // Page of 64 bytes; a null message (16 bytes) fits 4 per page.
        let (mut vb, mut fa) = setup(64, 8);
        for _ in 0..4 {
            vb.insert(msg(0), &mut fa).unwrap();
        }
        assert_eq!(vb.pages_in_use(), 1);
        assert!(vb.insert(msg(0), &mut fa).unwrap().allocated_page);
        assert_eq!(vb.pages_in_use(), 2);
    }

    #[test]
    fn draining_returns_all_frames() {
        let (mut vb, mut fa) = setup(64, 8);
        for _ in 0..9 {
            vb.insert(msg(0), &mut fa).unwrap();
        }
        assert_eq!(fa.used(), 3);
        for _ in 0..9 {
            vb.pop(&mut fa);
        }
        assert_eq!(fa.used(), 0);
        assert_eq!(vb.pages_in_use(), 0);
        assert_eq!(fa.peak_used(), 3);
    }

    #[test]
    fn head_progress_releases_pages_incrementally() {
        let (mut vb, mut fa) = setup(64, 8);
        for _ in 0..8 {
            vb.insert(msg(0), &mut fa).unwrap();
        }
        assert_eq!(fa.used(), 2);
        // Pop the four messages on page 0.
        for _ in 0..4 {
            vb.pop(&mut fa);
        }
        assert_eq!(fa.used(), 1, "page 0 should be freed");
        assert_eq!(vb.len(), 4);
    }

    #[test]
    fn out_of_frames_leaves_message_out_and_state_clean() {
        let (mut vb, mut fa) = setup(64, 1);
        for _ in 0..4 {
            vb.insert(msg(0), &mut fa).unwrap();
        }
        let err = vb.insert(msg(0), &mut fa);
        assert!(err.is_err());
        assert_eq!(vb.len(), 4);
        assert_eq!(fa.used(), 1);
        // Draining then re-inserting works again.
        for _ in 0..4 {
            vb.pop(&mut fa);
        }
        vb.insert(msg(0), &mut fa).unwrap();
        assert_eq!(vb.len(), 1);
    }

    #[test]
    fn large_message_spanning_pages_allocates_all_or_nothing() {
        // 32-byte pages; a 14-word message = 64 bytes spans 2+ pages.
        let (mut vb, mut fa) = setup(32, 1);
        let err = vb.insert(msg(14), &mut fa);
        assert!(err.is_err());
        assert_eq!(fa.used(), 0, "partial allocation leaked frames");
    }

    #[test]
    fn peek_does_not_consume() {
        let (mut vb, mut fa) = setup(4096, 4);
        vb.insert(msg(3), &mut fa).unwrap();
        assert_eq!(vb.peek().unwrap().payload().len(), 3);
        assert_eq!(vb.len(), 1);
    }

    #[test]
    fn page_out_all_releases_frames_and_marks_swapped() {
        let (mut vb, mut fa) = setup(64, 8);
        for _ in 0..6 {
            vb.insert(msg(0), &mut fa).unwrap();
        }
        assert_eq!(fa.used(), 2);
        let (pages, msgs) = vb.page_out_all(&mut fa);
        assert_eq!((pages, msgs), (2, 6));
        assert_eq!(fa.used(), 0);
        assert_eq!(vb.len(), 6, "messages survive the page-out");
        for _ in 0..6 {
            assert!(vb.pop(&mut fa).unwrap().1, "popped message not swapped");
        }
        // Buffer is fully usable afterwards.
        assert!(vb.insert(msg(0), &mut fa).unwrap().allocated_page);
        assert!(!vb.pop(&mut fa).unwrap().1);
        assert_eq!(fa.used(), 0);
    }

    #[test]
    fn page_out_all_skips_already_swapped_entries() {
        let (mut vb, mut fa) = setup(64, 8);
        vb.insert(msg(0), &mut fa).unwrap();
        vb.insert_swapped(msg(1));
        let (pages, msgs) = vb.page_out_all(&mut fa);
        assert_eq!((pages, msgs), (1, 1));
        assert!(vb.pop(&mut fa).unwrap().1, "paged-out entry not swapped");
        assert!(vb.pop(&mut fa).unwrap().1, "swapped entry lost its flag");
    }
}
