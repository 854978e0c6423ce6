//! Deterministic discrete-event simulation engine for the FUGU reproduction.
//!
//! This crate is the machine-independent substrate under the simulated FUGU
//! multicomputer of the HPCA 1998 paper *"Exploiting Two-Case Delivery for
//! Fast Protected Messaging"*. It knows nothing about networks, network
//! interfaces or operating systems. It provides:
//!
//! * [`event::EventQueue`] — a cancellable, strictly ordered future-event
//!   list keyed by simulated [`Cycles`];
//! * [`coro`] — a sim-thread runtime on OS threads, unused by the
//!   workspace and kept only for perfbench's micro-benchmarks;
//! * [`rng::DetRng`] — a small, self-contained, seedable PRNG so results do
//!   not depend on external crate versions;
//! * [`fault`] — a seeded, deterministic fault-injection plan consulted by
//!   the machine layers, zero-cost when inert;
//! * [`stats`] — accumulators, histograms and high-water marks for run
//!   reports and the experiment harnesses;
//! * [`trace`] — typed [`trace::TraceEvent`]s with a ring-buffer recorder
//!   and subscriber callbacks, zero-cost when disabled;
//! * [`ledger`] — the per-message lifecycle record, folded from the trace
//!   stream, that the trace oracle reads;
//! * [`invariant`] — the one trace oracle: delivery invariants
//!   (conservation, FIFO, drain progress, page bound) and span checks over
//!   one ledger;
//! * [`span`] — per-message causal spans with exact cycle attribution and
//!   the per-path latency report the oracle builds from its ledger;
//! * [`trace_export`] — Chrome trace-event / Perfetto JSON export of
//!   those spans;
//! * [`json`] — a dependency-free, deterministic JSON serializer for the
//!   harnesses' schema-versioned reports;
//! * [`prop`] — a tiny seeded property-testing driver for the workspace's
//!   randomized model tests.
//!
//! # Example
//!
//! ```
//! use fugu_sim::event::EventQueue;
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(10, "b");
//! q.schedule(5, "a");
//! assert_eq!(q.pop(), Some((5, "a")));
//! assert_eq!(q.pop(), Some((10, "b")));
//! assert_eq!(q.pop(), None);
//! ```

#![warn(missing_docs)]

pub mod coro;
pub mod event;
pub mod fault;
pub mod invariant;
pub mod json;
pub mod ledger;
pub mod prop;
pub mod rng;
pub mod span;
pub mod stats;
pub mod trace;
pub mod trace_export;

/// Simulated time, measured in processor clock cycles.
///
/// The paper reports every cost in cycles of the FUGU (Sparcle) processor;
/// we keep the same unit throughout the reproduction.
pub type Cycles = u64;
