//! Glaze: the operating-system substrate of the FUGU reproduction.
//!
//! The paper's OS ("Glaze", a custom multiuser exokernel) supplies the
//! *software half* of two-case delivery. This crate reimplements the pieces
//! the evaluation depends on:
//!
//! * [`costs`] — the cycle-cost model: every constant from Tables 4 and 5
//!   (fast-path send/receive itemization, buffered-path insert/extract) as
//!   explicit, overridable parameters;
//! * [`vm`] — per-node physical page-frame allocation (the pool virtual
//!   buffering draws from on demand);
//! * [`vbuf`] — the virtual buffer itself: a FIFO of diverted messages
//!   living in the application's virtual memory, acquiring and releasing
//!   page frames as it grows and drains (§4.2 "Guaranteed Delivery");
//! * [`sched`] — the loose gang scheduler with controllable per-node skew
//!   used to degrade schedule quality in §5's experiments;
//! * [`overflow`] — the overflow-control policy that suspends an
//!   application about to exhaust physical memory and advises the scheduler
//!   to gang-schedule it (§4.2).
//!
//! Everything here is mechanism + policy with no event loop; the `udm`
//! crate drives these pieces from the simulated machine.

pub mod costs;
pub mod overflow;
pub mod sched;
pub mod vbuf;
pub mod vm;

pub use costs::{CostModel, RxInterruptCosts};
pub use overflow::{OverflowAction, OverflowControl};
pub use sched::GangScheduler;
pub use vbuf::{InsertOutcome, VirtualBuffer};
pub use vm::FrameAllocator;
