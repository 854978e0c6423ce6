//! **UDM: User Direct Messaging with two-case delivery and virtual
//! buffering** — the primary contribution of *"Exploiting Two-Case Delivery
//! for Fast Protected Messaging"* (Mackenzie et al., HPCA 1998),
//! reimplemented as a deterministic simulation.
//!
//! The crate exposes three layers:
//!
//! * [`Program`] / [`UserCtx`] — the UDM user model of §3: `inject`,
//!   `extract`, polling, user-level interrupts via Active-Messages-style
//!   handlers, and an explicit atomicity mechanism (`begin_atomic` /
//!   `end_atomic`) whose interrupt-disable privilege is *revocable*;
//! * [`Machine`] / [`MachineConfig`] / [`JobSpec`] — the simulated FUGU
//!   multicomputer: multiprogrammed, gang-scheduled with controllable
//!   skew, with GID-protected network interfaces and an OS (Glaze) that
//!   implements two-case delivery and virtual buffering;
//! * [`RunReport`] — the measurements (messages buffered vs fast, handler
//!   cycles, peak buffer pages, ...) that the paper's tables and figures
//!   are built from.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use udm::{Envelope, JobSpec, Machine, MachineConfig, Program, UserCtx};
//!
//! /// Node 0 pings every other node; the others pong back.
//! struct PingPong;
//!
//! const PING: u32 = 0;
//! const PONG: u32 = 1;
//!
//! impl Program for PingPong {
//!     fn main(&self, ctx: &mut UserCtx<'_>) {
//!         // Polling-style reception: disable message interrupts first
//!         // (otherwise arrivals are delivered by upcall instead). The
//!         // disable is *revocable*: hold it too long with a message
//!         // waiting and the OS switches us to buffered mode.
//!         ctx.begin_atomic();
//!         if ctx.node() == 0 {
//!             for peer in 1..ctx.nodes() {
//!                 ctx.send(peer, PING, &[peer as u32]);
//!             }
//!             let mut pongs = 0;
//!             while pongs < ctx.nodes() - 1 {
//!                 if ctx.poll() {
//!                     pongs += 1;
//!                 } else {
//!                     ctx.compute(20);
//!                 }
//!             }
//!         } else {
//!             while !ctx.poll() {
//!                 ctx.compute(20);
//!             }
//!         }
//!         ctx.end_atomic();
//!     }
//!
//!     fn handler(&self, ctx: &mut UserCtx<'_>, env: &Envelope) {
//!         if env.handler.0 == PING {
//!             ctx.send(env.src, PONG, &[]);
//!         }
//!     }
//! }
//!
//! let mut machine = Machine::new(MachineConfig { nodes: 4, ..Default::default() });
//! machine.add_job(JobSpec::new("pingpong", Arc::new(PingPong)));
//! let report = machine.run();
//! let job = report.job("pingpong");
//! assert_eq!(job.sent, 6); // 3 pings + 3 pongs
//! assert_eq!(job.delivered_fast, 6); // standalone: everything takes the fast path
//! assert_eq!(job.buffered_fraction(), 0.0);
//! ```

pub mod config;
pub mod invariant;
pub mod machine;
pub mod report;
pub mod user;

pub use config::{JobSpec, MachineConfig};
pub use invariant::InvariantChecker;
pub use machine::Machine;
pub use report::{JobReport, NodeReport, RunReport};
pub use user::{CtxKind, Envelope, Program, UserCtx};

// Re-export the substrate types that appear in this crate's public API so
// downstream users need only depend on `udm`.
pub use fugu_glaze::{AtomicityImpl, CostModel, RxInterruptCosts};
pub use fugu_net::{Gid, HandlerId, NetworkConfig, NodeId};
pub use fugu_nic::NicConfig;
pub use fugu_sim::Cycles;
