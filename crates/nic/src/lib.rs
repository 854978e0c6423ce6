//! The FUGU network interface, modeled as a pure state machine.
//!
//! This crate transcribes §4.1 of the paper: the memory-mapped register set
//! of Figure 3, the atomic operations of Table 1 (`launch`, `dispose`,
//! `beginatom`, `endatom`), the interrupts and traps of Table 2, and the
//! User Atomicity Control (UAC) flags of Table 3 — including the
//! *revocable interrupt disable* atomicity timer.
//!
//! The state machine is **time-free**: it never looks at a clock. Timing
//! behavior (when the atomicity timer expires, when an interrupt handler
//! begins) is the machine layer's job in the `udm` crate; this crate only
//! answers questions like "given this head message and these UAC bits,
//! which interrupt fires?" and "should the atomicity timer be running?".
//! That split keeps every hardware protection rule unit-testable in
//! isolation.
//!
//! It also holds no trace sink or fault injector. The machine observes the
//! interface from outside: it emits `MsgArrive` when it enqueues an
//! arrival, `NicDivert` when it flips *divert-mode*, and `FaultNicStall`
//! when the fault injector it consults opens an input-stall window.
//!
//! # Example: the common-case receive path
//!
//! ```
//! use fugu_net::{Gid, HandlerId, Message};
//! use fugu_nic::{HeadDisposition, Mode, Nic, NicConfig};
//!
//! let mut nic = Nic::new(NicConfig::default());
//! nic.set_gid(Gid::new(1)); // the scheduled application's group
//!
//! let m = Message::new(0, 1, Gid::new(1), HandlerId(0), vec![]);
//! nic.enqueue(m).unwrap();
//! // GID matches and interrupts are enabled: user-level interrupt.
//! assert_eq!(nic.head_disposition(), Some(HeadDisposition::UserInterrupt));
//! assert!(nic.message_available());
//! let got = nic.dispose(Mode::User).unwrap();
//! assert_eq!(got.gid(), Gid::new(1));
//! ```

mod uac;

pub use uac::{Uac, UacMask};

use std::collections::VecDeque;

use fugu_net::{Gid, Message, MAX_MESSAGE_WORDS};

/// Privilege level of the code executing a NIC operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Application code: subject to every protection check.
    User,
    /// Operating-system code: may touch kernel registers and extract
    /// mismatched messages.
    Kernel,
}

/// Synchronous traps of Table 2 (raised by the instruction that caused
/// them, unlike interrupts, which are asynchronous).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// User access to kernel registers, or user `launch` of a message with
    /// the kernel GID in its header.
    ProtectionViolation,
    /// `dispose` executed with no pending message.
    BadDispose,
    /// `dispose` executed while *divert-mode* is set: the OS must emulate
    /// disposal from the software buffer (§4.2, §4.3).
    DisposeExtend,
    /// `endatom` while *dispose-pending* is set: the handler exited its
    /// atomic section without freeing the message.
    DisposeFailure,
    /// `endatom` while *atomicity-extend* is set: the OS asked to regain
    /// control at the end of the current atomic section.
    AtomicityExtend,
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Trap::ProtectionViolation => "protection-violation",
            Trap::BadDispose => "bad-dispose",
            Trap::DisposeExtend => "dispose-extend",
            Trap::DisposeFailure => "dispose-failure",
            Trap::AtomicityExtend => "atomicity-extend",
        };
        f.write_str(name)
    }
}

/// What the hardware signals when a message sits at the head of the input
/// queue (the asynchronous half of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadDisposition {
    /// GID matches, fast mode, interrupts enabled: raise the
    /// *message-available* user interrupt.
    UserInterrupt,
    /// GID matches, fast mode, but the user holds atomicity: set only the
    /// *message-available* flag (and run the atomicity timer).
    UserFlagOnly,
    /// GID mismatch, or *divert-mode* set: raise the kernel
    /// *mismatch-available* interrupt.
    KernelInterrupt,
}

/// Hardware build-time parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicConfig {
    /// Capacity of the hardware input queue in messages. FUGU keeps this
    /// "small" (§2: "a small, single message queue"); when it fills, the
    /// network backs up and subsequent arrivals wait in the fabric.
    pub input_queue_msgs: usize,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            input_queue_msgs: 4,
        }
    }
}

/// Error returned when the hardware input queue is full and the network
/// must hold the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueFull(pub Message);

/// The network-interface register file and queues (Figure 3).
#[derive(Debug)]
pub struct Nic {
    config: NicConfig,
    /// Output descriptor being composed; `descriptor_length` register is
    /// `descriptor.as_ref().map_or(0, ..)`.
    descriptor: Option<Message>,
    /// Hardware input message queue; the head is visible through the input
    /// message buffer window.
    in_queue: VecDeque<Message>,
    /// Kernel register: GID of the currently scheduled application.
    gid: Gid,
    /// Kernel register: when set, *all* arrivals interrupt the OS and user
    /// `dispose` traps (buffered mode steady state, §4.2).
    divert_mode: bool,
    /// User Atomicity Control register (Table 3).
    uac: Uac,
}

impl Nic {
    /// Creates a quiescent interface with no scheduled group (kernel GID).
    pub fn new(config: NicConfig) -> Self {
        Nic {
            config,
            descriptor: None,
            in_queue: VecDeque::new(),
            gid: Gid::KERNEL,
            divert_mode: false,
            uac: Uac::new(),
        }
    }

    // ------------------------------------------------------------------
    // Send side: describe + launch (§4.1 "Send and Receive")
    // ------------------------------------------------------------------

    /// Writes a complete message descriptor into the output buffer.
    ///
    /// This models the sequence of stores that describe a message; the
    /// two-phase describe/launch split is what makes `inject` atomic and
    /// context-switchable (the descriptor can be unloaded and reloaded).
    ///
    /// # Panics
    ///
    /// Panics if the message exceeds the 16-word send buffer; `Message`
    /// construction already enforces this, so this cannot normally fire.
    pub fn describe(&mut self, msg: Message) {
        assert!(msg.len_words() <= MAX_MESSAGE_WORDS);
        self.descriptor = Some(msg);
    }

    /// The *descriptor-length* register: words currently described.
    pub fn descriptor_length(&self) -> usize {
        self.descriptor.as_ref().map_or(0, Message::len_words)
    }

    /// The *space-available* register: output-buffer words writable without
    /// blocking.
    pub fn space_available(&self) -> usize {
        MAX_MESSAGE_WORDS - self.descriptor_length()
    }

    /// `launch(N)` from Table 1: atomically commits the described message.
    ///
    /// The hardware stamps the sender's GID: user launches are stamped with
    /// the scheduled GID; kernel launches carry [`Gid::KERNEL`].
    ///
    /// # Errors
    ///
    /// * [`Trap::ProtectionViolation`] if user code launches a message whose
    ///   header claims the kernel GID.
    /// * Returns `Ok(None)` if the descriptor is empty (the hardware
    ///   `launch` is a no-op when `descriptor-length == 0`).
    pub fn launch(&mut self, mode: Mode) -> Result<Option<Message>, Trap> {
        let Some(msg) = self.descriptor.take() else {
            return Ok(None);
        };
        let stamped = match mode {
            Mode::User => {
                if msg.gid().is_kernel() {
                    // Put the descriptor back: the trap does not consume it.
                    self.descriptor = Some(msg);
                    return Err(Trap::ProtectionViolation);
                }
                msg.with_gid(self.gid)
            }
            Mode::Kernel => msg,
        };
        Ok(Some(stamped))
    }

    // ------------------------------------------------------------------
    // Receive side
    // ------------------------------------------------------------------

    /// Offers an arriving message to the input queue.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] with the message when the hardware queue is at
    /// capacity; the network holds the message and must retry after a
    /// dispose or kernel extract frees a slot.
    pub fn enqueue(&mut self, msg: Message) -> Result<(), QueueFull> {
        if self.in_queue.len() >= self.config.input_queue_msgs {
            return Err(QueueFull(msg));
        }
        self.in_queue.push_back(msg);
        Ok(())
    }

    /// Number of messages waiting in the hardware input queue.
    pub fn queue_len(&self) -> usize {
        self.in_queue.len()
    }

    /// Returns `true` if a subsequent [`Nic::enqueue`] would be refused.
    pub fn queue_full(&self) -> bool {
        self.in_queue.len() >= self.config.input_queue_msgs
    }

    /// The *message-available* flag: a message the **user** may read sits
    /// at the head of the queue (GID matches and divert-mode is clear).
    pub fn message_available(&self) -> bool {
        !self.divert_mode && self.in_queue.front().is_some_and(|m| m.gid() == self.gid)
    }

    /// `peek`: examines the head message without dequeuing (§3).
    ///
    /// Returns `None` when [`Nic::message_available`] is false; user code
    /// cannot observe other groups' messages.
    pub fn peek(&self) -> Option<&Message> {
        if self.message_available() {
            self.in_queue.front()
        } else {
            None
        }
    }

    /// Which interrupt, if any, the head of the queue provokes (Table 2
    /// demultiplexing rules from §4.1 "Protection" and §4.2).
    ///
    /// Returns `None` when the queue is empty.
    pub fn head_disposition(&self) -> Option<HeadDisposition> {
        let head = self.in_queue.front()?;
        if self.divert_mode || head.gid() != self.gid {
            return Some(HeadDisposition::KernelInterrupt);
        }
        if self.uac.get(UacMask::INTERRUPT_DISABLE) {
            Some(HeadDisposition::UserFlagOnly)
        } else {
            Some(HeadDisposition::UserInterrupt)
        }
    }

    /// `dispose` from Table 1: frees the head message.
    ///
    /// # Errors
    ///
    /// * [`Trap::DisposeExtend`] for user dispose with *divert-mode* set
    ///   (the OS emulates disposal from the software buffer);
    /// * [`Trap::BadDispose`] when no user message is available.
    ///
    /// A successful dispose clears the *dispose-pending* UAC bit and
    /// presets the atomicity timer (forward progress was made).
    pub fn dispose(&mut self, mode: Mode) -> Result<Message, Trap> {
        if mode == Mode::User && self.divert_mode {
            return Err(Trap::DisposeExtend);
        }
        if !self.message_available() {
            return Err(Trap::BadDispose);
        }
        let msg = self.in_queue.pop_front().expect("head checked above");
        self.uac.clear(UacMask::DISPOSE_PENDING);
        Ok(msg)
    }

    /// Kernel-only extraction of the head message regardless of GID; used
    /// by the *mismatch-available* handler to drain the queue into the
    /// software buffer.
    pub fn kernel_extract(&mut self) -> Option<Message> {
        self.in_queue.pop_front()
    }

    // ------------------------------------------------------------------
    // Atomicity (Table 1 beginatom/endatom, Table 3 UAC flags)
    // ------------------------------------------------------------------

    /// `beginatom(MASK)`: `UAC := UAC | MASK`.
    ///
    /// # Errors
    ///
    /// [`Trap::ProtectionViolation`] if user code names a kernel-only bit.
    pub fn beginatom(&mut self, mode: Mode, mask: UacMask) -> Result<(), Trap> {
        if mode == Mode::User && mask.intersects(UacMask::KERNEL_BITS) {
            return Err(Trap::ProtectionViolation);
        }
        self.uac.set(mask);
        Ok(())
    }

    /// `endatom(MASK)`: clears bits, unless the kernel has planted a trap.
    ///
    /// # Errors
    ///
    /// Per Table 1, in priority order:
    /// * [`Trap::DisposeFailure`] if *dispose-pending* is still set;
    /// * [`Trap::AtomicityExtend`] if *atomicity-extend* is set;
    /// * [`Trap::ProtectionViolation`] if user code names a kernel bit.
    pub fn endatom(&mut self, mode: Mode, mask: UacMask) -> Result<(), Trap> {
        if mode == Mode::User {
            if self.uac.get(UacMask::DISPOSE_PENDING) {
                return Err(Trap::DisposeFailure);
            }
            if self.uac.get(UacMask::ATOMICITY_EXTEND) {
                return Err(Trap::AtomicityExtend);
            }
            if mask.intersects(UacMask::KERNEL_BITS) {
                return Err(Trap::ProtectionViolation);
            }
        }
        self.uac.clear(mask);
        Ok(())
    }

    /// Read access to the UAC register.
    pub fn uac(&self) -> Uac {
        self.uac
    }

    /// Kernel write access to the UAC register (sets bits).
    pub fn kernel_set_uac(&mut self, mask: UacMask) {
        self.uac.set(mask);
    }

    /// Kernel write access to the UAC register (clears bits).
    pub fn kernel_clear_uac(&mut self, mask: UacMask) {
        self.uac.clear(mask);
    }

    /// Whether the dedicated atomicity timer should currently be counting
    /// down (Table 3): *timer-force* unconditionally, or
    /// *interrupt-disable* with a user message pending.
    pub fn timer_should_run(&self) -> bool {
        self.uac.get(UacMask::TIMER_FORCE)
            || (self.uac.get(UacMask::INTERRUPT_DISABLE) && self.message_available())
    }

    // ------------------------------------------------------------------
    // Kernel registers
    // ------------------------------------------------------------------

    /// Sets the scheduled application's GID (kernel register, written at
    /// context switch).
    pub fn set_gid(&mut self, gid: Gid) {
        self.gid = gid;
    }

    /// The scheduled GID.
    pub fn gid(&self) -> Gid {
        self.gid
    }

    /// Sets or clears *divert-mode* (kernel register; §4.2 buffered-mode
    /// steady state).
    pub fn set_divert(&mut self, divert: bool) {
        self.divert_mode = divert;
    }

    /// Current *divert-mode* state.
    pub fn divert_mode(&self) -> bool {
        self.divert_mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fugu_net::HandlerId;

    fn nic_for(gid: u16) -> Nic {
        let mut n = Nic::new(NicConfig::default());
        n.set_gid(Gid::new(gid));
        n
    }

    fn msg(gid: u16, words: usize) -> Message {
        Message::new(0, 1, Gid::new(gid), HandlerId(0), vec![7; words])
    }

    // --- send side -----------------------------------------------------

    #[test]
    fn describe_then_launch_stamps_user_gid() {
        let mut n = nic_for(3);
        n.describe(msg(9, 2)); // user-claimed GID is overwritten by hardware
        assert_eq!(n.descriptor_length(), 4);
        assert_eq!(n.space_available(), 12);
        let sent = n.launch(Mode::User).unwrap().unwrap();
        assert_eq!(sent.gid(), Gid::new(3));
        assert_eq!(n.descriptor_length(), 0);
        assert_eq!(n.space_available(), MAX_MESSAGE_WORDS);
    }

    #[test]
    fn launch_with_empty_descriptor_is_noop() {
        let mut n = nic_for(1);
        assert_eq!(n.launch(Mode::User).unwrap(), None);
    }

    #[test]
    fn user_launch_of_kernel_message_traps() {
        let mut n = nic_for(1);
        n.describe(msg(0, 0)); // header claims kernel GID
        assert_eq!(n.launch(Mode::User), Err(Trap::ProtectionViolation));
        // Descriptor survives the trap.
        assert_eq!(n.descriptor_length(), 2);
        // The kernel may launch it.
        let sent = n.launch(Mode::Kernel).unwrap().unwrap();
        assert!(sent.gid().is_kernel());
    }

    // --- receive side: demultiplexing ------------------------------------

    #[test]
    fn matching_message_raises_user_interrupt() {
        let mut n = nic_for(2);
        n.enqueue(msg(2, 0)).unwrap();
        assert_eq!(n.head_disposition(), Some(HeadDisposition::UserInterrupt));
        assert!(n.message_available());
        assert!(n.peek().is_some());
    }

    #[test]
    fn mismatched_gid_raises_kernel_interrupt_and_hides_message() {
        let mut n = nic_for(2);
        n.enqueue(msg(5, 0)).unwrap();
        assert_eq!(n.head_disposition(), Some(HeadDisposition::KernelInterrupt));
        assert!(!n.message_available());
        assert!(n.peek().is_none(), "user peeked at another group's message");
    }

    #[test]
    fn divert_mode_sends_everything_to_kernel() {
        let mut n = nic_for(2);
        n.set_divert(true);
        n.enqueue(msg(2, 0)).unwrap(); // even a matching GID
        assert_eq!(n.head_disposition(), Some(HeadDisposition::KernelInterrupt));
        assert!(!n.message_available());
    }

    #[test]
    fn atomic_section_defers_interrupt_to_flag() {
        let mut n = nic_for(2);
        n.beginatom(Mode::User, UacMask::INTERRUPT_DISABLE).unwrap();
        n.enqueue(msg(2, 0)).unwrap();
        assert_eq!(n.head_disposition(), Some(HeadDisposition::UserFlagOnly));
        assert!(
            n.message_available(),
            "flag must still be visible for polling"
        );
    }

    #[test]
    fn empty_queue_has_no_disposition() {
        let n = nic_for(1);
        assert_eq!(n.head_disposition(), None);
        assert!(!n.message_available());
    }

    // --- receive side: dispose trap matrix (Table 1) ---------------------

    #[test]
    fn dispose_pops_in_fifo_order() {
        let mut n = nic_for(1);
        n.enqueue(msg(1, 1)).unwrap();
        n.enqueue(msg(1, 2)).unwrap();
        assert_eq!(n.dispose(Mode::User).unwrap().payload().len(), 1);
        assert_eq!(n.dispose(Mode::User).unwrap().payload().len(), 2);
    }

    #[test]
    fn dispose_with_divert_mode_traps_dispose_extend() {
        let mut n = nic_for(1);
        n.enqueue(msg(1, 0)).unwrap();
        n.set_divert(true);
        assert_eq!(n.dispose(Mode::User), Err(Trap::DisposeExtend));
    }

    #[test]
    fn dispose_with_no_message_traps_bad_dispose() {
        let mut n = nic_for(1);
        assert_eq!(n.dispose(Mode::User), Err(Trap::BadDispose));
    }

    #[test]
    fn dispose_of_mismatched_head_traps_bad_dispose() {
        let mut n = nic_for(1);
        n.enqueue(msg(9, 0)).unwrap();
        assert_eq!(n.dispose(Mode::User), Err(Trap::BadDispose));
        // The kernel can still clear it.
        assert!(n.kernel_extract().is_some());
    }

    #[test]
    fn dispose_clears_dispose_pending() {
        let mut n = nic_for(1);
        n.enqueue(msg(1, 0)).unwrap();
        n.kernel_set_uac(UacMask::DISPOSE_PENDING);
        n.dispose(Mode::User).unwrap();
        assert!(!n.uac().get(UacMask::DISPOSE_PENDING));
    }

    // --- atomicity: beginatom/endatom trap matrix -------------------------

    #[test]
    fn beginatom_endatom_toggle_user_bits() {
        let mut n = nic_for(1);
        n.beginatom(Mode::User, UacMask::INTERRUPT_DISABLE).unwrap();
        assert!(n.uac().get(UacMask::INTERRUPT_DISABLE));
        n.endatom(Mode::User, UacMask::INTERRUPT_DISABLE).unwrap();
        assert!(!n.uac().get(UacMask::INTERRUPT_DISABLE));
    }

    #[test]
    fn user_beginatom_of_kernel_bits_traps() {
        let mut n = nic_for(1);
        assert_eq!(
            n.beginatom(Mode::User, UacMask::DISPOSE_PENDING),
            Err(Trap::ProtectionViolation)
        );
        n.beginatom(Mode::Kernel, UacMask::DISPOSE_PENDING).unwrap();
        assert!(n.uac().get(UacMask::DISPOSE_PENDING));
    }

    #[test]
    fn endatom_with_dispose_pending_traps_dispose_failure() {
        let mut n = nic_for(1);
        n.kernel_set_uac(UacMask::DISPOSE_PENDING);
        assert_eq!(
            n.endatom(Mode::User, UacMask::INTERRUPT_DISABLE),
            Err(Trap::DisposeFailure)
        );
    }

    #[test]
    fn endatom_with_atomicity_extend_traps() {
        let mut n = nic_for(1);
        n.kernel_set_uac(UacMask::ATOMICITY_EXTEND);
        assert_eq!(
            n.endatom(Mode::User, UacMask::INTERRUPT_DISABLE),
            Err(Trap::AtomicityExtend)
        );
    }

    #[test]
    fn dispose_failure_takes_priority_over_atomicity_extend() {
        let mut n = nic_for(1);
        n.kernel_set_uac(UacMask::DISPOSE_PENDING);
        n.kernel_set_uac(UacMask::ATOMICITY_EXTEND);
        assert_eq!(
            n.endatom(Mode::User, UacMask::INTERRUPT_DISABLE),
            Err(Trap::DisposeFailure)
        );
    }

    #[test]
    fn kernel_endatom_bypasses_traps() {
        let mut n = nic_for(1);
        n.kernel_set_uac(UacMask::DISPOSE_PENDING);
        n.endatom(Mode::Kernel, UacMask::DISPOSE_PENDING).unwrap();
        assert!(!n.uac().get(UacMask::DISPOSE_PENDING));
    }

    // --- atomicity timer ---------------------------------------------------

    #[test]
    fn timer_runs_only_with_disable_and_pending_message() {
        let mut n = nic_for(1);
        assert!(!n.timer_should_run());
        n.beginatom(Mode::User, UacMask::INTERRUPT_DISABLE).unwrap();
        assert!(!n.timer_should_run(), "no message pending yet");
        n.enqueue(msg(1, 0)).unwrap();
        assert!(n.timer_should_run());
        n.dispose(Mode::User).unwrap();
        assert!(!n.timer_should_run(), "queue drained");
    }

    #[test]
    fn timer_force_runs_unconditionally() {
        let mut n = nic_for(1);
        n.beginatom(Mode::User, UacMask::TIMER_FORCE).unwrap();
        assert!(n.timer_should_run());
    }

    #[test]
    fn mismatched_message_does_not_run_user_timer() {
        let mut n = nic_for(1);
        n.beginatom(Mode::User, UacMask::INTERRUPT_DISABLE).unwrap();
        n.enqueue(msg(9, 0)).unwrap();
        assert!(
            !n.timer_should_run(),
            "another group's message must not charge this user's timer"
        );
    }

    // --- input queue capacity ---------------------------------------------

    #[test]
    fn queue_refuses_when_full() {
        let mut n = Nic::new(NicConfig {
            input_queue_msgs: 2,
        });
        n.set_gid(Gid::new(1));
        n.enqueue(msg(1, 0)).unwrap();
        n.enqueue(msg(1, 0)).unwrap();
        assert!(n.queue_full());
        let refused = n.enqueue(msg(1, 3));
        assert!(matches!(refused, Err(QueueFull(m)) if m.payload().len() == 3));
        n.dispose(Mode::User).unwrap();
        assert!(!n.queue_full());
        n.enqueue(msg(1, 0)).unwrap();
    }
}
