//! Property-based tests of the CRL retry/timeout protocol: under arbitrary
//! seeded drop/duplicate/delay patterns, sequence-numbered region
//! operations stay idempotent — every write is applied exactly once — and
//! runs are deterministic per seed.

// `JobSpec` holds an `Arc<dyn Program>`; these programs are single-threaded.
#![allow(clippy::arc_with_non_send_sync)]

use std::cell::Cell;
use std::sync::Arc;

use fugu_apps::sync::MsgBarrier;
use fugu_crl::Crl;
use fugu_sim::fault::FaultPlan;
use fugu_sim::prop::forall;
use udm::{Envelope, JobSpec, Machine, MachineConfig, Program, Sim, UserCtx};

/// A torture program: every node applies `writes` increments, each to a
/// region chosen by a fixed pseudo-random schedule, then node 0 sums all
/// region words. With exactly-once semantics the sum is `nodes × writes`
/// no matter what the network drops or duplicates.
struct IncApp {
    crl: Crl,
    barrier: MsgBarrier,
    regions: u32,
    writes: usize,
    total: Cell<Option<u64>>,
}

impl IncApp {
    fn spec(nodes: usize, regions: u32, writes: usize) -> Arc<IncApp> {
        Arc::new(IncApp {
            crl: Crl::new(nodes),
            barrier: MsgBarrier::new(nodes),
            regions,
            writes,
            total: Cell::new(None),
        })
    }

    fn job(app: &Arc<IncApp>) -> JobSpec {
        JobSpec::new("inc", Arc::clone(app) as Arc<dyn Program>)
    }
}

impl Program for IncApp {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            let me = ctx.node();
            let p = ctx.nodes();
            for r in 0..self.regions {
                self.crl.create(ctx, r, &[0]).await;
            }
            self.barrier.wait(ctx).await;
            for i in 0..self.writes {
                let r = ((me * 31 + i * 7) % self.regions as usize) as u32;
                self.crl.start_write(ctx, r).await;
                self.crl.update(ctx, r, |w| w[0] += 1);
                self.crl.end_write(ctx, r).await;
            }
            self.barrier.wait(ctx).await;
            if me == 0 {
                let mut sum = 0u64;
                for r in 0..self.regions {
                    self.crl.start_read(ctx, r).await;
                    sum += self.crl.snapshot(ctx, r)[0] as u64;
                    self.crl.end_read(ctx, r).await;
                }
                self.total.set(Some(sum));
            }
            self.barrier.wait(ctx).await;
            let _ = p;
        })
    }

    fn handler<'a>(&'a self, ctx: &'a mut UserCtx, env: &'a Envelope) -> Sim<'a> {
        Box::pin(async move {
            if self.crl.handle(ctx, env).await {
                return;
            }
            if self.barrier.handle(ctx, env).await {
                return;
            }
            panic!("inc: unexpected handler {}", env.handler.0);
        })
    }
}

/// Runs one randomized configuration; returns `(sum, end_time, retries)`.
fn run_once(
    nodes: usize,
    regions: u32,
    writes: usize,
    plan: FaultPlan,
    seed: u64,
) -> (u64, u64, u64) {
    let app = IncApp::spec(nodes, regions, writes);
    let mut m = Machine::new(MachineConfig {
        nodes,
        seed,
        faults: plan,
        ..Default::default()
    });
    m.add_job(IncApp::job(&app));
    let r = m.run();
    let total = app.total.get().expect("run did not finish");
    (total, r.end_time, app.crl.retries())
}

#[test]
fn crl_writes_apply_exactly_once_under_drops_and_duplicates() {
    forall(30, 0xC41_0001, |rng| {
        let nodes = [2usize, 4][rng.index(2)];
        let regions = 1 + rng.index(3) as u32;
        let writes = 4 + rng.index(8);
        let plan = FaultPlan {
            drop: 0.03 * rng.f64(),
            duplicate: 0.02 * rng.f64(),
            delay: 0.03 * rng.f64(),
            ..FaultPlan::default()
        };
        let seed = rng.next_u64();
        let (sum, end_time, retries) = run_once(nodes, regions, writes, plan.clone(), seed);
        assert_eq!(
            sum,
            (nodes * writes) as u64,
            "lost or double-applied writes (plan {plan:?}, seed {seed:#x})"
        );
        // Determinism: the identical configuration replays byte-for-byte.
        let (sum2, end_time2, retries2) = run_once(nodes, regions, writes, plan, seed);
        assert_eq!((sum2, end_time2, retries2), (sum, end_time, retries));
    });
}

#[test]
fn crl_retries_fire_and_stay_transparent_at_high_drop_rates() {
    // A fixed hostile plan: heavy drops and duplicates. Exactly-once must
    // still hold, and the timeout protocol must actually be doing the work.
    let plan = FaultPlan {
        drop: 0.05,
        duplicate: 0.03,
        delay: 0.05,
        ..FaultPlan::default()
    };
    let mut fired = 0u64;
    for seed in 0..4u64 {
        let (sum, _, retries) = run_once(4, 2, 8, plan.clone(), seed);
        assert_eq!(sum, 32, "lost or double-applied writes at seed {seed}");
        fired += retries;
    }
    assert!(fired > 0, "no CRL retries fired under a 5% drop plan");
}
