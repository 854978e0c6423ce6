//! Differential test of the paper's central transparency claim (§3, §4.1):
//! an application cannot tell which delivery case its messages took.
//!
//! One workload runs under three regimes — the ordinary fast path, a regime
//! where every message is forced down the buffered path (the receiver holds
//! atomicity far past the timeout, so the OS revokes interrupt disable and
//! diverts everything into the virtual buffer), and a regime where every
//! upcall attempt faults into buffering — and the application-visible
//! results (per-sender handler invocation order, payload sums) must be
//! identical in all three. Only the delivery-path counters may differ, and
//! the forced runs must prove they actually exercised the buffered path.

// `JobSpec` holds an `Arc<dyn Program>`; these programs are single-threaded.
#![allow(clippy::arc_with_non_send_sync)]

use std::cell::RefCell;
use std::sync::Arc;

use two_case_delivery::sim::fault::FaultPlan;
use two_case_delivery::udm::InvariantChecker;
use two_case_delivery::{
    CostModel, Envelope, JobSpec, Machine, MachineConfig, Program, RunReport, Sim, UserCtx,
};

const NODES: usize = 4;
const PER_SENDER: u32 = 40;

/// One receiver (node 0) and `NODES - 1` senders. Each sender transmits
/// `PER_SENDER` messages carrying `[sender, seq, value]` with small
/// rng-jittered compute gaps; the receiver's handler logs every arrival.
///
/// With `hold == 0` the receiver polls promptly and every message takes
/// the fast path. With a large `hold` the receiver sits in an atomic
/// section for `hold` cycles per loop iteration, so (under a short
/// atomicity timeout) every in-flight message is revoked into the
/// software buffer and served from there on the next poll.
struct DiffApp {
    hold: u64,
    arrivals: RefCell<Vec<(u32, u32, u32)>>,
}

impl DiffApp {
    fn new(hold: u64) -> Self {
        DiffApp {
            hold,
            arrivals: RefCell::new(Vec::new()),
        }
    }

    fn payload(sender: u32, seq: u32) -> u32 {
        sender * 10_000 + seq * 7 + 3
    }

    fn expected_total() -> usize {
        (NODES - 1) * PER_SENDER as usize
    }

    /// Arrivals of one sender, in handler-invocation order.
    fn sender_view(&self, sender: u32) -> Vec<(u32, u32)> {
        self.arrivals
            .borrow()
            .iter()
            .filter(|(s, _, _)| *s == sender)
            .map(|(_, seq, value)| (*seq, *value))
            .collect()
    }

    fn payload_sum(&self) -> u64 {
        self.arrivals
            .borrow()
            .iter()
            .map(|(_, _, v)| u64::from(*v))
            .sum()
    }
}

impl Program for DiffApp {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            if ctx.node() == 0 {
                loop {
                    if self.hold > 0 {
                        // Hold atomicity far past the timeout, then drain the
                        // backlog — every drained message was revoked into the
                        // virtual buffer while we were holding.
                        ctx.begin_atomic().await;
                        ctx.compute(self.hold).await;
                        while ctx.poll().await {}
                        ctx.end_atomic().await;
                    } else {
                        ctx.poll().await;
                    }
                    if self.arrivals.borrow().len() >= Self::expected_total() {
                        break;
                    }
                    ctx.compute(25).await;
                }
            } else {
                let me = ctx.node() as u32;
                for seq in 0..PER_SENDER {
                    ctx.send(0, 0, &[me, seq, Self::payload(me, seq)]).await;
                    let gap = 40 + ctx.rng().next_u64() % 400;
                    ctx.compute(gap).await;
                }
            }
        })
    }

    fn handler<'a>(&'a self, ctx: &'a mut UserCtx, env: &'a Envelope) -> Sim<'a> {
        Box::pin(async move {
            assert_eq!(ctx.node(), 0, "all traffic targets the receiver");
            let [sender, seq, value] = env.payload[..] else {
                panic!("malformed payload: {:?}", env.payload);
            };
            self.arrivals.borrow_mut().push((sender, seq, value));
        })
    }
}

struct RunOutcome {
    report: RunReport,
    per_sender: Vec<Vec<(u32, u32)>>,
    sum: u64,
}

fn run(config: MachineConfig, hold: u64) -> RunOutcome {
    let app = Arc::new(DiffApp::new(hold));
    let mut m = Machine::new(config);
    let checker = InvariantChecker::new();
    checker.attach(m.tracer());
    m.add_job(JobSpec::new("diff", app.clone()));
    let report = m.run();
    checker.assert_clean();

    let total: usize = (1..NODES as u32).map(|s| app.sender_view(s).len()).sum();
    assert_eq!(total, DiffApp::expected_total(), "messages went missing");
    RunOutcome {
        report,
        per_sender: (1..NODES as u32).map(|s| app.sender_view(s)).collect(),
        sum: app.payload_sum(),
    }
}

fn base_config() -> MachineConfig {
    MachineConfig {
        nodes: NODES,
        ..MachineConfig::default()
    }
}

/// Asserts the application-visible results of two runs are identical:
/// the paper's transparency claim, sender by sender.
fn assert_app_identical(fast: &RunOutcome, other: &RunOutcome, regime: &str) {
    assert_eq!(fast.sum, other.sum, "{regime}: payload sums diverged");
    for (idx, (a, b)) in fast.per_sender.iter().zip(&other.per_sender).enumerate() {
        assert_eq!(a, b, "{regime}: sender {} handler order diverged", idx + 1);
    }
}

#[test]
fn buffered_path_is_transparent_to_the_application() {
    // Baseline: prompt polling, everything takes the fast path.
    let fast = run(base_config(), 0);
    let j = fast.report.job("diff");
    assert_eq!(j.delivered_fast, DiffApp::expected_total() as u64);
    assert_eq!(j.delivered_buffered, 0);

    // Forced-buffered: a 500-cycle atomicity timeout against 50,000-cycle
    // atomic holds — every message in flight during a hold is revoked
    // into the virtual buffer and replayed from software.
    let forced_cfg = MachineConfig {
        costs: CostModel {
            atomicity_timeout: 500,
            ..CostModel::hard_atomicity()
        },
        ..base_config()
    };
    let forced = run(forced_cfg, 50_000);
    let j = forced.report.job("diff");
    assert!(
        j.atomicity_timeouts > 0,
        "revocation regime never tripped the atomicity timer"
    );
    assert!(
        j.delivered_buffered > 0,
        "revocation regime never used the buffered path"
    );
    assert_eq!(
        j.delivered_fast + j.delivered_buffered,
        DiffApp::expected_total() as u64
    );
    assert_app_identical(&fast, &forced, "revocation");
}

#[test]
fn handler_faults_into_buffering_are_transparent() {
    let fast = run(base_config(), 0);

    // Every upcall attempt faults: the OS diverts the message to the
    // virtual buffer and replays it later (the paper's second-case entry
    // via page faults in the handler, §4.2).
    let faulty_cfg = MachineConfig {
        faults: FaultPlan::parse("handler-fault=1.0").unwrap(),
        ..base_config()
    };
    let faulty = run(faulty_cfg, 0);
    let j = faulty.report.job("diff");
    assert!(
        j.delivered_buffered > 0,
        "handler-fault regime never used the buffered path"
    );
    assert_app_identical(&fast, &faulty, "handler-fault");
}

#[test]
fn differential_runs_are_deterministic() {
    // The differential comparison itself is only meaningful because each
    // regime is a deterministic function of its config; spot-check that.
    let a = run(base_config(), 0);
    let b = run(base_config(), 0);
    assert_eq!(a.sum, b.sum);
    assert_eq!(a.per_sender, b.per_sender);
    assert_eq!(a.report.end_time, b.report.end_time);
}
