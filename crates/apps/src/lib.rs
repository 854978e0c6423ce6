//! The workloads of the two-case delivery paper (Table 6 and §5).
//!
//! Five applications drive the paper's evaluation, plus two synthetic
//! programs:
//!
//! | module        | paper name | model | character |
//! |---------------|-----------|-------|-----------|
//! | [`barnes`]    | Barnes    | CRL   | N-body (Barnes–Hut), read-mostly sharing |
//! | [`water`]     | Water     | CRL   | molecular dynamics, neighbor exchange |
//! | [`lu`]        | LU        | CRL   | blocked dense factorization |
//! | [`barrier`]   | Barrier   | UDM   | nothing but barriers (constant synchronization) |
//! | [`enumerate`] | Enum      | UDM   | triangle-puzzle search: many unacknowledged messages, rare synchronization |
//! | [`synth`]     | synth-N   | UDM   | §5.2 producer/consumer with tunable synchronization |
//! | [`null`]      | "null"    | —     | the compute-only multiprogramming partner |
//!
//! Every workload is deterministic for a fixed machine seed, exposes a
//! `Params` struct whose defaults are scaled-down versions of the paper's
//! data sets (documented in EXPERIMENTS.md), and validates its own output
//! (solution counts, factorization residuals, conservation checks) so the
//! experiment harnesses double as correctness tests.

// `JobSpec` holds programs as `Arc<dyn Program>`, the type perfbench
// casts `EnumApp::spec` to. The programs are deliberately `!Sync`: the
// machine polls them on one thread, so their per-node state is `RefCell`.
#![allow(clippy::arc_with_non_send_sync)]

pub mod barnes;
pub mod barrier;
pub mod enumerate;
pub mod lu;
pub mod null;
pub mod sync;
pub mod synth;
pub mod water;

pub use barnes::{BarnesApp, BarnesParams};
pub use barrier::{BarrierApp, BarrierParams};
pub use enumerate::{EnumApp, EnumParams};
pub use lu::{LuApp, LuParams};
pub use null::NullApp;
pub use synth::{SynthApp, SynthParams};
pub use water::{WaterApp, WaterParams};
