//! The cycle-cost model: Tables 4 and 5 of the paper as parameters.
//!
//! The paper measured these constants on FUGU hardware / the Sparcle
//! simulator; in this reproduction they are *inputs* to the machine model.
//! The `table4`/`table5` harnesses then verify that a simulated ping-pong
//! reproduces exactly the totals implied by the itemization, validating
//! that the machine charges every step of the fast and buffered paths.

use fugu_sim::Cycles;

/// Itemized interrupt-receive costs: the middle section of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxInterruptCosts {
    /// Interrupt overhead (pipeline flush, vector).
    pub interrupt_overhead: Cycles,
    /// Register save.
    pub register_save: Cycles,
    /// GID check (zero in unprotected kernel mode).
    pub gid_check: Cycles,
    /// Atomicity-timer setup.
    pub timer_setup: Cycles,
    /// Virtual-buffering bookkeeping on the fast path.
    pub vbuf_overhead: Cycles,
    /// Dispatch (plus upcall transition at user level).
    pub dispatch: Cycles,
    /// Upcall cleanup (zero in kernel mode).
    pub upcall_cleanup: Cycles,
    /// Atomicity-timer cleanup.
    pub timer_cleanup: Cycles,
    /// Register restore.
    pub register_restore: Cycles,
}

impl RxInterruptCosts {
    /// Cycles charged between message arrival and the first handler
    /// instruction (the paper's "subtotal" minus the handler).
    pub fn pre(&self) -> Cycles {
        self.interrupt_overhead
            + self.register_save
            + self.gid_check
            + self.timer_setup
            + self.vbuf_overhead
            + self.dispatch
    }

    /// Cycles charged after the handler returns, before the interrupted
    /// thread resumes.
    pub fn post(&self) -> Cycles {
        self.upcall_cleanup + self.timer_cleanup + self.register_restore
    }

    /// Total interrupt receive cost for a null message with a
    /// `null_handler`-cycle handler body.
    pub fn total(&self, null_handler: Cycles) -> Cycles {
        self.pre() + null_handler + self.post()
    }
}

/// The full cycle-cost model of the simulated FUGU node.
///
/// Construct via one of the presets ([`CostModel::hard_atomicity`] is the
/// paper's headline configuration) and override individual fields for
/// ablations (e.g. `extra_buffer_cost` regenerates Figure 10).
///
/// # Example
///
/// ```
/// use fugu_glaze::CostModel;
///
/// let c = CostModel::hard_atomicity();
/// assert_eq!(c.rx_interrupt.total(c.null_handler), 87);   // Table 4
/// assert_eq!(c.send_total(0), 7);                          // Table 4
/// assert_eq!(c.buffered_total_null(), 232);                // §4.2
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    // ---- send (Table 4 top) ----
    /// Descriptor construction for a null message.
    pub send_descriptor: Cycles,
    /// The `launch` instruction.
    pub send_launch: Cycles,
    /// Additional descriptor cycles per argument word.
    pub send_per_word: Cycles,

    // ---- receive via interrupt (Table 4 middle) ----
    /// Itemized interrupt path.
    pub rx_interrupt: RxInterruptCosts,
    /// Null handler body including its `dispose`.
    pub null_handler: Cycles,
    /// Additional handler cycles per argument word (fast path reads the
    /// message out of network-interface SRAM).
    pub rx_per_word: Cycles,

    // ---- receive via polling (Table 4 bottom) ----
    /// One poll of the *message-available* flag.
    pub poll_check: Cycles,
    /// Dispatch through the handler address on a successful poll.
    pub poll_dispatch: Cycles,
    /// Null handler body (with dispose) in the polling loop.
    pub poll_null_handler: Cycles,

    // ---- buffered path (Table 5) ----
    /// Minimum buffer-insert handler (kernel copies message from the NIC
    /// into an existing page of the software buffer).
    pub buf_insert_min: Cycles,
    /// Buffer-insert when a fresh physical page must be allocated
    /// ("maximum handler (w/vmalloc)").
    pub buf_insert_vmalloc: Cycles,
    /// Executing a null handler from the software buffer (includes one
    /// expected cache miss for the header).
    pub buf_extract_null: Cycles,
    /// Extraction cost per **two** argument words (the paper reports ~4.5
    /// cycles/word: 2 cycles/word DRAM + 10 cycles per 4-word cache line).
    pub buf_extract_per_2words: Cycles,
    /// Artificial latency added to every buffer-insert (the Figure 10
    /// sweep knob; zero in the real system).
    pub extra_buffer_cost: Cycles,

    // ---- OS / scheduling ----
    /// Atomicity-timeout preset: user cycles a blocked message may wait in
    /// an atomic section before revocation. "A free parameter that may be
    /// changed without affecting correctness" (§4.1).
    pub atomicity_timeout: Cycles,
    /// Gang-scheduler timeslice (§5: 500,000 cycles).
    pub timeslice: Cycles,
    /// Kernel cost of a context switch at a quantum boundary.
    pub context_switch: Cycles,
    /// Servicing a demand-zero page fault (allocate + zero-fill a frame);
    /// same order as the buffer path's vmalloc case.
    pub page_fault: Cycles,
    /// Virtual-memory page size in bytes.
    pub page_size_bytes: usize,
    /// Physical page frames available per node for virtual buffering.
    pub frames_per_node: u64,
}

impl CostModel {
    /// Table 4, column "FUGU kernel mode": unprotected kernel-level
    /// messaging (the baseline the protected path is compared against).
    pub fn kernel() -> Self {
        CostModel {
            rx_interrupt: RxInterruptCosts {
                interrupt_overhead: 6,
                register_save: 16,
                gid_check: 0,
                timer_setup: 0,
                vbuf_overhead: 0,
                dispatch: 10,
                upcall_cleanup: 0,
                timer_cleanup: 0,
                register_restore: 17,
            },
            ..Self::hard_atomicity()
        }
    }

    /// Table 4, column "FUGU hard atomicity": the paper's design point,
    /// with the revocable interrupt disable implemented in hardware.
    pub fn hard_atomicity() -> Self {
        CostModel {
            send_descriptor: 6,
            send_launch: 1,
            send_per_word: 3,
            rx_interrupt: RxInterruptCosts {
                interrupt_overhead: 6,
                register_save: 16,
                gid_check: 10,
                timer_setup: 1,
                vbuf_overhead: 8,
                dispatch: 13,
                upcall_cleanup: 10,
                timer_cleanup: 1,
                register_restore: 17,
            },
            null_handler: 5,
            rx_per_word: 2,
            poll_check: 3,
            poll_dispatch: 5,
            poll_null_handler: 1,
            buf_insert_min: 180,
            buf_insert_vmalloc: 3162,
            buf_extract_null: 52,
            buf_extract_per_2words: 9,
            extra_buffer_cost: 0,
            page_fault: 3_162,
            atomicity_timeout: 8192,
            timeslice: 500_000,
            context_switch: 2_500,
            page_size_bytes: 4096,
            frames_per_node: 256,
        }
    }

    /// Table 4, column "FUGU soft atomicity": atomicity and GID handling
    /// emulated in software (first-silicon CMMU / the paper's simulator).
    pub fn soft_atomicity() -> Self {
        CostModel {
            rx_interrupt: RxInterruptCosts {
                interrupt_overhead: 6,
                register_save: 16,
                gid_check: 10,
                timer_setup: 13,
                vbuf_overhead: 8,
                dispatch: 13,
                upcall_cleanup: 10,
                timer_cleanup: 17,
                register_restore: 17,
            },
            ..Self::hard_atomicity()
        }
    }

    /// Total cost to send a message with `words` payload words (Table 4:
    /// "Add 3 cycles per argument to the send cost").
    pub fn send_total(&self, words: usize) -> Cycles {
        self.send_descriptor + self.send_launch + self.send_per_word * words as Cycles
    }

    /// Cost of receiving a `words`-payload message via interrupt with a
    /// null handler.
    pub fn rx_interrupt_total(&self, words: usize) -> Cycles {
        self.rx_interrupt.total(self.null_handler) + self.rx_per_word * words as Cycles
    }

    /// Cost of receiving a null message in a polling loop (Table 4: 9
    /// cycles at both user and kernel level).
    pub fn poll_total(&self, words: usize) -> Cycles {
        self.poll_check
            + self.poll_dispatch
            + self.poll_null_handler
            + self.rx_per_word * words as Cycles
    }

    /// Minimum buffered-path cost per null message: insert plus extract
    /// (the paper's 232 = 180 + 52).
    pub fn buffered_total_null(&self) -> Cycles {
        self.buf_insert_min + self.extra_buffer_cost + self.buf_extract_null
    }

    /// Extraction cost from the software buffer for a `words`-payload
    /// message ("add roughly 4.5 cycles per argument word").
    pub fn buf_extract_total(&self, words: usize) -> Cycles {
        self.buf_extract_null + (self.buf_extract_per_2words * words as Cycles).div_ceil(2)
    }
}

impl Default for CostModel {
    /// The paper's design point: hard atomicity.
    fn default() -> Self {
        CostModel::hard_atomicity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests pin the model to the exact numbers printed in the paper;
    // if a preset drifts, Table 4/5 reproduction breaks loudly here.

    #[test]
    fn table4_interrupt_totals() {
        assert_eq!(CostModel::kernel().rx_interrupt_total(0), 54);
        assert_eq!(CostModel::hard_atomicity().rx_interrupt_total(0), 87);
        assert_eq!(CostModel::soft_atomicity().rx_interrupt_total(0), 115);
    }

    #[test]
    fn table4_interrupt_subtotals() {
        assert_eq!(CostModel::kernel().rx_interrupt.pre(), 32);
        assert_eq!(CostModel::hard_atomicity().rx_interrupt.pre(), 54);
        assert_eq!(CostModel::soft_atomicity().rx_interrupt.pre(), 66);
    }

    #[test]
    fn table4_send_totals() {
        for m in [
            CostModel::kernel(),
            CostModel::hard_atomicity(),
            CostModel::soft_atomicity(),
        ] {
            assert_eq!(m.send_total(0), 7);
            assert_eq!(m.send_total(4), 7 + 12);
        }
    }

    #[test]
    fn table4_polling_total() {
        assert_eq!(CostModel::hard_atomicity().poll_total(0), 9);
        assert_eq!(CostModel::kernel().poll_total(0), 9);
    }

    #[test]
    fn table5_buffered_costs() {
        let m = CostModel::hard_atomicity();
        assert_eq!(m.buf_insert_min, 180);
        assert_eq!(m.buf_insert_vmalloc, 3162);
        assert_eq!(m.buf_extract_total(0), 52);
        assert_eq!(m.buffered_total_null(), 232);
        // ~4.5 cycles per argument word.
        assert_eq!(m.buf_extract_total(4), 52 + 18);
        assert_eq!(m.buf_extract_total(3), 52 + 14); // 13.5 rounded up
    }

    #[test]
    fn figure10_knob_inflates_buffered_path() {
        let mut m = CostModel::hard_atomicity();
        m.extra_buffer_cost = 500;
        assert_eq!(m.buffered_total_null(), 732);
    }

    #[test]
    fn per_word_receive_costs() {
        let m = CostModel::hard_atomicity();
        assert_eq!(m.rx_interrupt_total(2), 87 + 4);
        assert_eq!(m.poll_total(2), 9 + 4);
    }
}
