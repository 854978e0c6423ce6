//! The scenario runner shared by `explore` and `chaos`.
//!
//! [`run_scenario`] builds a machine from a [`ScenarioSpec`], instantiates
//! the spec's [`Workload`] and runs it under the full oracle stack, all
//! read from the one trace oracle ([`InvariantChecker`]) and its message
//! ledger:
//!
//! - delivery invariants: conservation, per-channel FIFO, drain progress,
//!   buffering accounting, frame-budget bound;
//! - span checks on fault-free runs: 100% stitch rate and exact
//!   per-message cycle attribution;
//! - report/trace cross-check on fault-free runs: the run report's send,
//!   fast-delivery and buffered-delivery counters must equal the same
//!   counts summed over the ledger, per delivery case.
//!
//! A panic inside the run (a deadlock, a `max_cycles` trip, an application
//! precondition) is caught and classified with [`RunStatus::classify`]
//! instead of unwinding into the caller. [`run_checked`] adds the
//! byte-identical replay check. Any spec, and so any failure, replays from
//! a shell as `explore --replay '<spec>'` (docs/TESTING.md).

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

use fugu_apps::{
    BarnesApp, BarrierApp, BarrierParams, EnumApp, EnumParams, LuApp, NullApp, SynthApp,
    SynthParams, WaterApp,
};
use fugu_sim::fault::FaultPlan;
use fugu_sim::ledger::Tally;
use udm::{CostModel, InvariantChecker, Machine, MachineConfig, RunReport};

use crate::explore::{Outcome, RunStatus, ScenarioSpec};
use crate::{barnes_params, lu_params, water_params, AppKind, Opts, Workload};

/// One scenario run: the oracle stack's verdict plus what a harness reads
/// beyond it.
pub struct ScenarioRun {
    /// What the oracle stack observed.
    pub outcome: Outcome,
    /// The machine's run report; `None` when the run panicked.
    pub report: Option<RunReport>,
    /// The application's summary result: checksum (barnes, water),
    /// residual bits (lu) or solution count (enum). `None` for the other
    /// workloads and for a run that did not finish.
    pub result: Option<u64>,
    /// CRL request retries fired by the timeout protocol; `None` for
    /// workloads that do not run over CRL and for a run that panicked.
    pub crl_retries: Option<u64>,
}

/// The machine a spec describes. The spec's knobs override the paper's
/// defaults: machine shape (`nodes`, `frames`), scheduler timing
/// (`timeslice`, `skew`, `watchdog`), the atomicity timeout, the fault plan
/// and the seed. The overflow-control watermarks scale with the frame
/// budget (the defaults assume 256 frames; a generated 8-frame machine
/// would otherwise start life below its own advise watermark), keeping
/// `overflow_suspend <= overflow_advise` for every budget.
fn machine_config(spec: &ScenarioSpec) -> MachineConfig {
    let mut costs = CostModel::hard_atomicity();
    costs.timeslice = spec.timeslice;
    costs.atomicity_timeout = spec.atom_timeout;
    costs.frames_per_node = spec.frames;
    MachineConfig {
        nodes: spec.nodes,
        costs,
        skew: spec.skew_pct as f64 / 100.0,
        seed: spec.seed,
        // Generated timeslices reach 2M cycles and lossy plans retry; a
        // generous ceiling keeps runaway scenarios bounded without tripping
        // on legitimately slow ones (observed end times are tens of
        // Mcycles).
        max_cycles: 1 << 33,
        overflow_advise: (spec.frames / 16).clamp(2, 16),
        overflow_suspend: (spec.frames / 64).clamp(1, 4),
        polling_watchdog: spec.watchdog,
        faults: spec.faults.clone(),
        ..MachineConfig::default()
    }
}

/// The `enum` workload's search at data-set tier `scale`.
fn enum_params(scale: usize) -> EnumParams {
    EnumParams {
        side: 4,
        empty: [1, 1, 2][scale],
        spray_depth: 4,
        spray_percent: 25,
        steal_batch: 2,
        expand_cost: 150,
    }
}

/// Reads the application's result and CRL retries once its run is over.
type Probe = Box<dyn FnOnce() -> (Option<u64>, Option<u64>)>;

/// Instantiates the spec's workload jobs on the machine. `scale` picks one
/// of three data-set tiers; for barnes, water and lu, tiers 1 and 2 are the
/// figure harnesses' `--quick` and full sizes.
fn add_workload(m: &mut Machine, spec: &ScenarioSpec) -> Probe {
    let nodes = spec.nodes;
    let scale = spec.scale as usize;
    let synth = |scale: usize| {
        SynthApp::spec(
            nodes,
            SynthParams {
                group: [4, 10, 32][scale],
                groups: [4, 8, 16][scale],
                t_betw: 1_000,
                handler_stall: 193,
            },
        )
    };
    let enumerate = |scale: usize| EnumApp::spec(nodes, enum_params(scale));
    let no_result: Probe = Box::new(|| (None, None));
    let probe: Probe = match spec.workload {
        Workload::Synth => {
            m.add_job(synth(scale));
            no_result
        }
        Workload::App(AppKind::Barrier) => {
            m.add_job(BarrierApp::spec(
                nodes,
                BarrierParams {
                    barriers: [20, 60, 150][scale],
                    work: 0,
                },
            ));
            no_result
        }
        Workload::App(AppKind::Enum) => {
            let a = enumerate(scale);
            m.add_job(EnumApp::job(&a));
            Box::new(move || (a.solutions(), None))
        }
        Workload::App(AppKind::Lu) => {
            let a = LuApp::spec(nodes, lu_params([24, 48, 96][scale]));
            m.add_job(LuApp::job(&a));
            Box::new(move || {
                let bits = a.residual().map(|r| u64::from(r.to_bits()));
                (bits, Some(a.crl_retries()))
            })
        }
        Workload::App(AppKind::Barnes) => {
            let a = BarnesApp::spec(nodes, barnes_params([16, 64, 256][scale]));
            m.add_job(BarnesApp::job(&a));
            Box::new(move || (a.checksum(), Some(a.crl_retries())))
        }
        Workload::App(AppKind::Water) => {
            let a = WaterApp::spec(nodes, water_params([8, 32, 128][scale]));
            m.add_job(WaterApp::job(&a));
            Box::new(move || (a.checksum(), Some(a.crl_retries())))
        }
        Workload::Mix => {
            // Two foreground jobs gang-scheduled against each other.
            m.add_job(EnumApp::job(&enumerate(scale.min(1))));
            m.add_job(synth(scale.min(1)));
            no_result
        }
    };
    if spec.bg_null {
        m.add_job(NullApp::spec());
    }
    probe
}

/// Runs one scenario under the full oracle stack.
pub fn run_scenario(spec: &ScenarioSpec) -> ScenarioRun {
    let mut m = Machine::new(machine_config(spec));
    let oracle = InvariantChecker::new().with_page_bound(spec.frames);
    oracle.attach(m.tracer());

    // Job construction runs inside the catch too: a hand-written replay
    // spec can violate an application precondition (e.g. the barrier's
    // power-of-two node count), which should classify, not crash.
    let run = catch_unwind(AssertUnwindSafe(move || {
        let probe = add_workload(&mut m, spec);
        let report = m.run();
        (report, probe())
    }));

    let trace = oracle.tally();
    let mut violations: Vec<(String, String)> = oracle
        .violations()
        .iter()
        .map(|v| (v.kind.to_string(), format!("[{}] {}", v.at, v.detail)))
        .collect();
    let mut out = ScenarioRun {
        outcome: Outcome {
            spec: spec.clone(),
            status: RunStatus::Completed,
            detail: None,
            cycles: 0,
            launched: trace.launched,
            delivered: trace.delivered,
            fast: 0,
            buffered: 0,
            revocations: 0,
            peak_pages: oracle.peak_pages(),
            suspensions: 0,
            violations: Vec::new(),
        },
        report: None,
        result: None,
        crl_retries: None,
    };
    let outcome = &mut out.outcome;
    match run {
        Ok((report, (result, crl_retries))) => {
            outcome.cycles = report.end_time;
            let mut sent = 0u64;
            for j in &report.jobs {
                sent += j.sent;
                outcome.fast += j.delivered_fast;
                outcome.buffered += j.delivered_buffered;
                outcome.revocations += j.atomicity_timeouts;
            }
            outcome.suspensions = report.nodes.iter().map(|n| n.overflow_suspends).sum();
            if !spec.faults.is_active() {
                // Fault-free runs: the report's counters and the trace
                // oracle's must agree exactly, and every delivered span
                // must stitch with an exact cycle attribution.
                let counted = Tally {
                    launched: sent,
                    delivered: outcome.fast + outcome.buffered,
                    fast: outcome.fast,
                    buffered: outcome.buffered,
                };
                if let Some(detail) = report_trace_divergence(&counted, &trace) {
                    violations.push(("report-trace-divergence".to_string(), detail));
                }
                let profile = oracle.finish();
                for err in &profile.errors {
                    violations.push(("span-profile".to_string(), err.clone()));
                }
                if profile.stitch_rate() < 1.0 {
                    violations.push((
                        "span-stitch".to_string(),
                        format!(
                            "stitched {}/{} delivered spans",
                            profile.stitched, profile.delivered
                        ),
                    ));
                }
            }
            out.report = Some(report);
            out.result = result;
            out.crl_retries = crl_retries;
        }
        Err(payload) => {
            let message = panic_message(payload);
            outcome.status = RunStatus::classify(&message);
            let brief: String = message
                .lines()
                .next()
                .unwrap_or("")
                .chars()
                .take(160)
                .collect();
            outcome.detail = Some(brief);
        }
    }
    out.outcome.violations = violations;
    out
}

/// The message a caught panic carried.
pub(crate) fn panic_message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Compares what the run report counted against the same counts summed
/// over the trace oracle's ledger, per delivery case: sends against
/// launches, fast deliveries against upcalls and polls, buffered
/// deliveries (Fig. 7's numerator) against buffer inserts, and all
/// deliveries against delivery events. Returns the mismatch, if any.
fn report_trace_divergence(report: &Tally, trace: &Tally) -> Option<String> {
    (report != trace).then(|| {
        format!(
            "report sent {} / fast {} / buffered {} / delivered {} vs trace \
             launched {} / fast {} / buffered {} / delivered {}",
            report.launched,
            report.fast,
            report.buffered,
            report.delivered,
            trace.launched,
            trace.fast,
            trace.buffered,
            trace.delivered
        )
    })
}

/// Runs a scenario and, when `check_replay` (or when it fails), runs it a
/// second time and flags any byte-level divergence between the two
/// outcomes.
pub fn run_checked(spec: &ScenarioSpec, check_replay: bool) -> Outcome {
    let mut outcome = run_scenario(spec).outcome;
    if check_replay || outcome.failed() {
        let again = run_scenario(spec).outcome;
        if again.to_json().render() != outcome.to_json().render() {
            outcome.violations.push((
                "nondeterministic-replay".to_string(),
                "same spec produced two different outcomes".to_string(),
            ));
        }
    }
    outcome
}

/// The scenario of one `chaos` cell: `workload` at data-set tier 1
/// (`--quick`) or 2, on the explorer's default machine, under one knob
/// `rate` scaled into a plan that exercises every injection site at once
/// (none at rate 0), seeded `opts.seed + trial`.
pub fn chaos_spec(workload: Workload, rate: f64, trial: u32, opts: &Opts) -> ScenarioSpec {
    let faults = if rate == 0.0 {
        FaultPlan::default()
    } else {
        FaultPlan {
            drop: rate,
            duplicate: rate / 2.0,
            delay: rate,
            second_net_delay: rate,
            nic_stall: rate / 2.0,
            frame_fail: rate / 2.0,
            handler_fault: rate,
            quantum_jitter: 2_000,
            ..FaultPlan::default()
        }
    };
    ScenarioSpec {
        nodes: opts.nodes,
        seed: opts.seed + u64::from(trial),
        workload,
        scale: if opts.quick { 1 } else { 2 },
        faults,
        ..ScenarioSpec::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_config_applies_every_knob() {
        let spec = ScenarioSpec::parse(
            "seed=99:nodes=3:timeslice=120000:skew=25:frames=64:atimeout=777:\
             watchdog=1:faults=dup=0.25,jitter=400",
        )
        .unwrap();
        let cfg = machine_config(&spec);
        assert_eq!(cfg.nodes, 3);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.costs.timeslice, 120_000);
        assert_eq!(cfg.costs.atomicity_timeout, 777);
        assert_eq!(cfg.costs.frames_per_node, 64);
        assert_eq!(cfg.skew, 0.25);
        assert!(cfg.polling_watchdog);
        assert_eq!(cfg.faults.duplicate, 0.25);
        assert_eq!(cfg.faults.quantum_jitter, 400);
        assert_eq!(cfg.max_cycles, 1 << 33);
    }

    #[test]
    fn machine_config_scales_watermarks_in_order() {
        for frames in [1u64, 8, 16, 64, 256, 512, 4096] {
            let spec = ScenarioSpec {
                frames,
                ..ScenarioSpec::default()
            };
            let cfg = machine_config(&spec);
            assert!(
                cfg.overflow_suspend <= cfg.overflow_advise,
                "frames {frames}: suspend {} > advise {}",
                cfg.overflow_suspend,
                cfg.overflow_advise
            );
            assert!(cfg.overflow_suspend >= 1);
        }
        // The paper's default budget reproduces the default watermarks.
        let cfg = machine_config(&ScenarioSpec::default());
        let def = MachineConfig::default();
        assert_eq!(cfg.overflow_advise, def.overflow_advise);
        assert_eq!(cfg.overflow_suspend, def.overflow_suspend);
    }

    #[test]
    fn cross_check_compares_each_delivery_case() {
        let report = Tally {
            launched: 10,
            delivered: 10,
            fast: 7,
            buffered: 3,
        };
        assert_eq!(report_trace_divergence(&report, &report), None);
        // The same totals with the fast/buffered split swapped: a sum-only
        // comparison would pass this.
        let swapped = Tally {
            fast: 3,
            buffered: 7,
            ..report
        };
        let detail = report_trace_divergence(&report, &swapped).unwrap();
        assert!(detail.contains("fast 7 / buffered 3"), "{detail}");
        assert!(detail.contains("fast 3 / buffered 7"), "{detail}");
    }

    /// Every fault class that loses and copies nothing leaves enum's
    /// solution count exact, alone and gang-scheduled against `null` at
    /// 20% skew. Drops and duplicates do not: enum's work messages are
    /// unacknowledged (docs/ROBUSTNESS.md).
    #[test]
    fn enum_counts_exactly_under_every_non_lossy_fault_class() {
        let classes = [
            FaultPlan {
                delay: 0.2,
                ..FaultPlan::default()
            },
            FaultPlan {
                delay: 0.2,
                delay_cycles: 50_000,
                ..FaultPlan::default()
            },
            FaultPlan {
                nic_stall: 0.2,
                ..FaultPlan::default()
            },
            FaultPlan {
                frame_fail: 0.2,
                ..FaultPlan::default()
            },
            FaultPlan {
                handler_fault: 0.2,
                ..FaultPlan::default()
            },
            FaultPlan {
                quantum_jitter: 2_000,
                ..FaultPlan::default()
            },
            FaultPlan {
                second_net_delay: 0.2,
                ..FaultPlan::default()
            },
        ];
        let expected = EnumApp::reference_count(enum_params(1));
        for faults in classes {
            for seed in 0..2 {
                for bg_null in [false, true] {
                    let spec = ScenarioSpec {
                        seed,
                        workload: Workload::App(AppKind::Enum),
                        scale: 1,
                        bg_null,
                        timeslice: 50_000,
                        skew_pct: if bg_null { 20 } else { 0 },
                        faults: faults.clone(),
                        ..ScenarioSpec::default()
                    };
                    let run = run_scenario(&spec);
                    let repro = spec.render();
                    assert!(!run.outcome.failed(), "{repro}: {:?}", run.outcome);
                    assert_eq!(run.result, Some(expected), "{repro}");
                }
            }
        }
    }
}
