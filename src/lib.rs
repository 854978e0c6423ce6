//! **two-case-delivery**: a Rust reproduction of *"Exploiting Two-Case
//! Delivery for Fast Protected Messaging"* (Mackenzie, Kubiatowicz, Frank,
//! Lee, Lee, Agarwal, Kaashoek — HPCA 1998).
//!
//! This umbrella crate re-exports the whole stack:
//!
//! * [`udm`] — the paper's contribution: the UDM user model, the simulated
//!   FUGU machine with two-case delivery, virtual buffering and the
//!   revocable interrupt disable;
//! * [`sim`] — the deterministic discrete-event engine;
//! * [`net`] / [`nic`] / [`glaze`] — the network, network-interface and
//!   operating-system substrates;
//! * [`crl`] — the region-based software DSM the SPLASH workloads run on;
//! * [`apps`] — the paper's five benchmark applications plus `synth-N` and
//!   the null application.
//!
//! Start with [`udm::Machine`] and the `examples/` directory:
//!
//! ```bash
//! cargo run --release --example quickstart
//! cargo run --release --example multiprogram -- 0.2
//! cargo run --release --example crl_dsm
//! cargo run --release --example synth_overload
//! ```
//!
//! The experiment harnesses reproducing every table and figure of the
//! paper live in the `fugu-bench` crate (`cargo run -p fugu-bench
//! --release --bin fig7`, etc.); see EXPERIMENTS.md for measured results.

pub use fugu_apps as apps;
pub use fugu_crl as crl;
pub use fugu_glaze as glaze;
pub use fugu_net as net;
pub use fugu_nic as nic;
pub use fugu_sim as sim;
pub use udm;

// The most common entry points, re-exported flat for examples and tests.
pub use udm::{
    CostModel, Cycles, Envelope, JobSpec, Machine, MachineConfig, Program, RunReport, Sim, UserCtx,
};
