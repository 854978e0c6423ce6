//! Coherence tests for the CRL reimplementation, run on the simulated FUGU
//! machine: single-writer/multi-reader invariants, data integrity across
//! invalidations and recalls, write serialization, and survival of the
//! protocol under multiprogrammed, skewed (buffering-heavy) schedules.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use fugu_crl::Crl;
use udm::{CostModel, Envelope, JobSpec, Machine, MachineConfig, Program, Sim, UserCtx};

fn run_on(nodes: usize, program: Arc<dyn Program>) -> udm::RunReport {
    let mut m = Machine::new(MachineConfig {
        nodes,
        ..Default::default()
    });
    m.add_job(JobSpec::new("crl", program));
    m.run()
}

/// Program shell that owns a Crl and forwards protocol messages.
struct CrlProg<F: for<'a> Fn(&'a Crl, &'a mut UserCtx) -> Sim<'a> + 'static> {
    crl: Crl,
    body: F,
}

impl<F: for<'a> Fn(&'a Crl, &'a mut UserCtx) -> Sim<'a> + 'static> Program for CrlProg<F> {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        (self.body)(&self.crl, ctx)
    }
    fn handler<'a>(&'a self, ctx: &'a mut UserCtx, env: &'a Envelope) -> Sim<'a> {
        Box::pin(async move {
            assert!(
                self.crl.handle(ctx, env).await,
                "unexpected non-CRL message"
            );
        })
    }
}

fn crl_prog<F: for<'a> Fn(&'a Crl, &'a mut UserCtx) -> Sim<'a> + 'static>(
    nodes: usize,
    body: F,
) -> Arc<dyn Program> {
    Arc::new(CrlProg {
        crl: Crl::new(nodes),
        body,
    })
}

/// Simple barrier over CRL itself is circular; tests use compute-delays and
/// the protocol's own blocking instead.

#[test]
fn home_local_read_and_write() {
    // Region 0 lives on node 0; only node 0 touches it.
    run_on(
        2,
        crl_prog(2, |crl, ctx| {
            Box::pin(async move {
                crl.create(ctx, 0, &[1, 2, 3, 4]).await;
                if ctx.node() == 0 {
                    crl.start_read(ctx, 0).await;
                    assert_eq!(crl.snapshot(ctx, 0), vec![1, 2, 3, 4]);
                    crl.end_read(ctx, 0).await;
                    crl.start_write(ctx, 0).await;
                    crl.update(ctx, 0, |d| d[0] = 99);
                    crl.end_write(ctx, 0).await;
                    crl.start_read(ctx, 0).await;
                    assert_eq!(crl.snapshot(ctx, 0)[0], 99);
                    crl.end_read(ctx, 0).await;
                }
            })
        }),
    );
}

#[test]
fn remote_read_fetches_master_copy() {
    run_on(
        2,
        crl_prog(2, |crl, ctx| {
            Box::pin(async move {
                // Region 1 is homed on node 1; node 0 reads it remotely.
                let init: Vec<u32> = (0..37).collect(); // multi-chunk transfer
                crl.create(ctx, 1, &init).await;
                if ctx.node() == 0 {
                    crl.start_read(ctx, 1).await;
                    assert_eq!(crl.snapshot(ctx, 1), (0..37).collect::<Vec<u32>>());
                    crl.end_read(ctx, 1).await;
                }
            })
        }),
    );
}

#[test]
fn remote_write_then_remote_read_sees_update() {
    let written = Rc::new(Cell::new(false));
    run_on(
        4,
        crl_prog(4, move |crl, ctx| {
            let written = Rc::clone(&written);
            Box::pin(async move {
                crl.create(ctx, 2, &[0; 8]).await; // homed on node 2
                match ctx.node() {
                    0 => {
                        crl.start_write(ctx, 2).await;
                        crl.update(ctx, 2, |d| d[3] = 777);
                        crl.end_write(ctx, 2).await;
                        written.set(true);
                    }
                    1 => {
                        // Wait until node 0 finished its write (host-side flag is
                        // fine: we only need *some* ordering, the protocol supplies
                        // the data correctness).
                        while !written.get() {
                            ctx.compute(500).await;
                        }
                        crl.start_read(ctx, 2).await;
                        assert_eq!(crl.snapshot(ctx, 2)[3], 777);
                        crl.end_read(ctx, 2).await;
                    }
                    _ => {}
                }
            })
        }),
    );
}

#[test]
fn concurrent_writers_serialize_increments() {
    const PER_NODE: u32 = 25;
    let nodes = 4;
    run_on(
        nodes,
        crl_prog(nodes, move |crl, ctx| {
            Box::pin(async move {
                crl.create(ctx, 3, &[0]).await; // counter homed on node 3
                for _ in 0..PER_NODE {
                    crl.start_write(ctx, 3).await;
                    crl.update(ctx, 3, |d| d[0] += 1);
                    crl.end_write(ctx, 3).await;
                    ctx.compute(200).await;
                }
                // Everyone checks the final value once all increments are in.
                loop {
                    crl.start_read(ctx, 3).await;
                    let v = crl.snapshot(ctx, 3)[0];
                    crl.end_read(ctx, 3).await;
                    if v == PER_NODE * nodes as u32 {
                        break;
                    }
                    assert!(
                        v < PER_NODE * nodes as u32,
                        "counter overshot: {v} (lost or doubled increments)"
                    );
                    ctx.compute(1_000).await;
                }
            })
        }),
    );
}

#[test]
fn read_sharers_are_invalidated_by_writer() {
    let nodes = 3;
    run_on(
        nodes,
        crl_prog(nodes, move |crl, ctx| {
            Box::pin(async move {
                crl.create(ctx, 0, &[5]).await;
                match ctx.node() {
                    1 | 2 => {
                        // Become a sharer, release, then keep re-reading; we must
                        // eventually observe the writer's value.
                        crl.start_read(ctx, 0).await;
                        let first = crl.snapshot(ctx, 0)[0];
                        crl.end_read(ctx, 0).await;
                        assert!(first == 5 || first == 6);
                        loop {
                            crl.start_read(ctx, 0).await;
                            let v = crl.snapshot(ctx, 0)[0];
                            crl.end_read(ctx, 0).await;
                            if v == 6 {
                                break;
                            }
                            ctx.compute(500).await;
                        }
                    }
                    0 => {
                        ctx.compute(5_000).await; // let the readers cache it first
                        crl.start_write(ctx, 0).await;
                        crl.update(ctx, 0, |d| d[0] = 6);
                        crl.end_write(ctx, 0).await;
                    }
                    _ => unreachable!(),
                }
            })
        }),
    );
}

#[test]
fn held_region_defers_recall_until_end() {
    // Node 1 takes a long write hold; node 2's read must block until the
    // hold ends, then see the final value (no torn intermediate state).
    let nodes = 3;
    run_on(
        nodes,
        crl_prog(nodes, move |crl, ctx| {
            Box::pin(async move {
                crl.create(ctx, 0, &[0, 0]).await;
                match ctx.node() {
                    1 => {
                        crl.start_write(ctx, 0).await;
                        crl.update(ctx, 0, |d| d[0] = 1);
                        ctx.compute(50_000).await; // hold across node 2's request
                        crl.update(ctx, 0, |d| d[1] = 1);
                        crl.end_write(ctx, 0).await;
                    }
                    2 => {
                        ctx.compute(10_000).await; // let node 1 acquire first
                        crl.start_read(ctx, 0).await;
                        let snap = crl.snapshot(ctx, 0);
                        crl.end_read(ctx, 0).await;
                        assert!(
                            snap == vec![0, 0] || snap == vec![1, 1],
                            "torn read: {snap:?}"
                        );
                    }
                    _ => {}
                }
            })
        }),
    );
}

#[test]
fn many_regions_many_nodes_stress() {
    // Every node hammers a set of regions with read-modify-writes; at the
    // end each region's value must equal the total number of increments
    // applied to it. Deterministic per-seed.
    const REGIONS: u32 = 8;
    const OPS: usize = 40;
    let nodes = 4;
    let done = Rc::new(Cell::new(0usize));
    run_on(
        nodes,
        crl_prog(nodes, move |crl, ctx| {
            let done = Rc::clone(&done);
            Box::pin(async move {
                for r in 0..REGIONS {
                    crl.create(ctx, r, &[0]).await;
                }
                for i in 0..OPS {
                    let r = {
                        let rng = ctx.rng();
                        rng.range_u64(0, REGIONS as u64) as u32
                    };
                    if (i + ctx.node()) % 3 == 0 {
                        crl.start_read(ctx, r).await;
                        let _ = crl.snapshot(ctx, r);
                        crl.end_read(ctx, r).await;
                    } else {
                        crl.start_write(ctx, r).await;
                        crl.update(ctx, r, |d| d[0] += 1);
                        crl.end_write(ctx, r).await;
                    }
                    ctx.compute(300).await;
                }
                done.set(done.get() + 1);
                // Wait for everyone, then node 0 audits the global sum.
                while done.get() < ctx.nodes() {
                    ctx.compute(1_000).await;
                }
                if ctx.node() == 0 {
                    let mut sum = 0;
                    for r in 0..REGIONS {
                        crl.start_read(ctx, r).await;
                        sum += crl.snapshot(ctx, r)[0];
                        crl.end_read(ctx, r).await;
                    }
                    // Each node performed OPS ops of which ~2/3 are increments;
                    // count exactly:
                    let mut expect = 0;
                    for node in 0..ctx.nodes() {
                        for i in 0..OPS {
                            if (i + node) % 3 != 0 {
                                expect += 1;
                            }
                        }
                    }
                    assert_eq!(sum, expect, "increments lost or duplicated");
                }
            })
        }),
    );
}

#[test]
fn protocol_survives_multiprogrammed_buffered_delivery() {
    // The headline integration: CRL traffic under a skewed gang schedule
    // multiprogrammed with a null app. Some protocol messages take the
    // buffered path; coherence must be unaffected.
    struct NullApp;
    impl Program for NullApp {
        fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
            Box::pin(async move {
                loop {
                    ctx.compute(10_000).await;
                }
            })
        }
    }
    let nodes = 4;
    let prog = crl_prog(nodes, move |crl, ctx| {
        Box::pin(async move {
            crl.create(ctx, 7, &[0]).await; // homed on node 3
            for _ in 0..30 {
                crl.start_write(ctx, 7).await;
                crl.update(ctx, 7, |d| d[0] += 1);
                crl.end_write(ctx, 7).await;
                ctx.compute(2_000).await;
            }
            loop {
                crl.start_read(ctx, 7).await;
                let v = crl.snapshot(ctx, 7)[0];
                crl.end_read(ctx, 7).await;
                if v == 30 * ctx.nodes() as u32 {
                    break;
                }
                ctx.compute(2_000).await;
            }
        })
    });
    let mut m = Machine::new(MachineConfig {
        nodes,
        skew: 0.25,
        costs: CostModel {
            timeslice: 25_000,
            ..CostModel::hard_atomicity()
        },
        ..Default::default()
    });
    m.add_job(JobSpec::new("crl", prog));
    m.add_job(JobSpec::new("null", Arc::new(NullApp)).background());
    let r = m.run();
    let j = r.job("crl");
    assert!(
        j.delivered_buffered > 0,
        "skewed run should buffer some protocol messages"
    );
    assert_eq!(j.delivered(), j.sent, "no protocol message lost");
}
