//! Host-time benchmark of the two-case delivery simulator.
//!
//! The binary (`src/main.rs`) times `Machine::new` + `add_job` and
//! `Machine::run` on three workloads, gates every run on a committed
//! digest of its `RunReport`, and in a traced mode splits `run_s` across
//! the crates by timing each layer's public API from outside. See
//! `README.md` in this directory for the metrics and what each should move.

pub mod digest;
pub mod host;
pub mod ledger;
pub mod micro;
pub mod stats;
pub mod workload;
