//! The three workloads, how each machine is built, and the checks every
//! run must pass. Why each workload exists is recorded in `README.md`.

use std::sync::Arc;

use fugu_apps::{EnumApp, EnumParams, NullApp};
use fugu_bench::{machine, multiprogram_costs, AppKind};
use fugu_sim::span::Profiler;
use fugu_sim::trace::{TraceEvent, TraceRecord, Tracer};
use udm::{CostModel, InvariantChecker, JobSpec, Machine, Program, RunReport};

/// Seed of every committed result in the repository.
pub const DEFAULT_SEED: u64 = 0xF00D;
/// A second seed the workloads were not sized on, for rechecking a gain.
pub const HELDOUT_SEED: u64 = 0x5EED;
/// Simulated nodes in every workload.
pub const NODES: usize = 8;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `enum` standalone at zero skew (Table 6 conditions).
    EnumFast,
    /// `lu` gang-scheduled against `null` at 30% skew (Fig. 7/8 conditions).
    LuSkew,
    /// `barrier` against `null` at 10% skew under the oracle stack.
    BarrierOracle,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::EnumFast,
        Workload::LuSkew,
        Workload::BarrierOracle,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EnumFast => "enum_fast",
            Workload::LuSkew => "lu_skew",
            Workload::BarrierOracle => "barrier_oracle",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sim-threads the machine spawns: a main and a handler context per
    /// job per node.
    pub fn sim_threads(self) -> usize {
        let jobs = match self {
            Workload::EnumFast => 1,
            Workload::LuSkew | Workload::BarrierOracle => 2,
        };
        2 * NODES * jobs
    }

    /// Builds the machine (`Machine::new` plus `add_job`) for `seed`. With
    /// `tracer`, the machine emits into it; `barrier_oracle` always attaches
    /// its oracles to the machine's tracer.
    pub fn build(self, seed: u64, tracer: Option<Tracer>) -> Instance {
        let mut m = match self {
            Workload::EnumFast => machine(NODES, 0.0, seed, CostModel::hard_atomicity()),
            Workload::LuSkew => machine(NODES, 0.3, seed, multiprogram_costs()),
            Workload::BarrierOracle => machine(NODES, 0.1, seed, multiprogram_costs()),
        };
        if let Some(tracer) = tracer {
            m.set_tracer(tracer);
        }
        match self {
            Workload::EnumFast => {
                // The full-size parameters from the interior hole instead
                // of the apex: ~45k messages and ~3 s a run pinned, where
                // the apex board takes over ten times as long. Its length
                // varies ~1% with the seed; the 10-hole boards, ~100x
                // smaller, vary 10-20%.
                let params = EnumParams {
                    side: 5,
                    empty: 4,
                    spray_depth: 4,
                    spray_percent: 12,
                    steal_batch: 2,
                    expand_cost: 150,
                };
                m.add_job(JobSpec::new(
                    "enum",
                    EnumApp::spec(NODES, params) as Arc<dyn Program>,
                ));
            }
            Workload::LuSkew => {
                m.add_job(AppKind::Lu.job(NODES, false));
                m.add_job(NullApp::spec());
            }
            Workload::BarrierOracle => {
                m.add_job(AppKind::Barrier.job(NODES, false));
                m.add_job(NullApp::spec());
            }
        }
        let oracles = (self == Workload::BarrierOracle).then(|| Oracles::attach(m.tracer()));
        Instance {
            machine: m,
            oracles,
        }
    }
}

/// A built machine, ready to run.
pub struct Instance {
    /// The machine.
    pub machine: Machine,
    /// The oracles watching it, if the workload attaches them.
    pub oracles: Option<Oracles>,
}

/// The oracle stack the scenario explorer attaches: the delivery-invariant
/// checker and the span profiler.
pub struct Oracles {
    checker: InvariantChecker,
    profiler: Profiler,
}

impl Oracles {
    /// Subscribes a fresh checker and profiler to `tracer`.
    pub fn attach(tracer: &Tracer) -> Oracles {
        let checker = InvariantChecker::new();
        checker.attach(tracer);
        let profiler = Profiler::new();
        profiler.attach(tracer);
        Oracles { checker, profiler }
    }

    /// What the oracles found wrong with the run they watched: invariant
    /// violations, span-stitching errors, or a delivered message whose
    /// span did not stitch (these runs are fault-free).
    pub fn failures(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .checker
            .violations()
            .iter()
            .map(|v| format!("invariant: {v}"))
            .collect();
        let profile = self.profiler.finish();
        out.extend(profile.errors.iter().map(|e| format!("span: {e}")));
        if profile.stitch_rate() != 1.0 {
            out.push(format!("span: stitch rate {}", profile.stitch_rate()));
        }
        out
    }
}

/// Counts of the trace events one run emitted.
#[derive(Debug, Default)]
pub struct TraceCounts {
    /// Every event.
    pub events: u64,
    /// `MsgLaunch`: messages sent.
    pub launches: u64,
    /// Payload words over all launches.
    pub launch_words: u64,
    /// `MsgArrive`: messages the NICs accepted.
    pub arrivals: u64,
    /// `FastUpcall` and `PollDelivery`: fast-path deliveries.
    pub fast: u64,
    /// `BufferInsert`: buffered-path deliveries.
    pub buffer_inserts: u64,
    /// `PageAlloc`: frames allocated.
    pub page_allocs: u64,
    /// `QuantumSwitch` events with an outgoing job (the initial
    /// assignment at cycle 0 is not a switch).
    pub quantum_switches: u64,
    /// `OverflowAdvise`.
    pub overflow_advises: u64,
}

impl TraceCounts {
    /// Tallies a recorded event stream.
    pub fn tally(records: &[TraceRecord]) -> TraceCounts {
        let mut c = TraceCounts::default();
        for r in records {
            c.events += 1;
            match &r.event {
                TraceEvent::MsgLaunch { words, .. } => {
                    c.launches += 1;
                    c.launch_words += *words as u64;
                }
                TraceEvent::MsgArrive { .. } => c.arrivals += 1,
                TraceEvent::FastUpcall { .. } | TraceEvent::PollDelivery { .. } => c.fast += 1,
                TraceEvent::BufferInsert { .. } => c.buffer_inserts += 1,
                TraceEvent::PageAlloc { .. } => c.page_allocs += 1,
                TraceEvent::QuantumSwitch {
                    from_job: Some(_), ..
                } => c.quantum_switches += 1,
                TraceEvent::OverflowAdvise { .. } => c.overflow_advises += 1,
                _ => {}
            }
        }
        c
    }

    /// Every count the trace and the run report both give that disagrees.
    pub fn mismatches(&self, report: &RunReport) -> Vec<String> {
        let jobs = |f: fn(&udm::JobReport) -> u64| report.jobs.iter().map(f).sum::<u64>();
        let nodes = |f: fn(&udm::NodeReport) -> u64| report.nodes.iter().map(f).sum::<u64>();
        [
            ("sent", self.launches, jobs(|j| j.sent)),
            ("delivered_fast", self.fast, jobs(|j| j.delivered_fast)),
            (
                "delivered_buffered",
                self.buffer_inserts,
                jobs(|j| j.delivered_buffered),
            ),
            (
                "vbuf_inserts",
                self.buffer_inserts,
                nodes(|n| n.vbuf_inserts),
            ),
            (
                "quantum_switches",
                self.quantum_switches,
                nodes(|n| n.quantum_switches),
            ),
        ]
        .into_iter()
        .filter(|(_, trace, report)| trace != report)
        .map(|(name, trace, report)| format!("{name}: trace {trace} vs report {report}"))
        .collect()
    }
}

/// Messages the run delivered, on either path.
pub fn delivered(report: &RunReport) -> u64 {
    report.jobs.iter().map(|j| j.delivered()).sum()
}

/// Percentage of delivered messages that took the fast path.
pub fn fast_pct(report: &RunReport) -> f64 {
    let fast: u64 = report.jobs.iter().map(|j| j.delivered_fast).sum();
    100.0 * fast as f64 / delivered(report).max(1) as f64
}
