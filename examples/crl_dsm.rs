//! Software distributed shared memory over UDM: a shared counter and a
//! blocked LU factorization on the CRL reimplementation, showing how the
//! paper's coherence-protocol workload (Table 6's CRL rows) is built from
//! nothing but UDM messages and handlers.
//!
//! Run: `cargo run --release --example crl_dsm`

// `JobSpec` holds an `Arc<dyn Program>`; these programs are single-threaded.
#![allow(clippy::arc_with_non_send_sync)]

use std::sync::Arc;

use two_case_delivery::apps::lu::{LuApp, LuParams};
use two_case_delivery::crl::Crl;
use two_case_delivery::{Envelope, JobSpec, Machine, MachineConfig, Program, Sim, UserCtx};

/// Every node increments a shared counter region 100 times.
struct SharedCounter {
    crl: Crl,
}

impl Program for SharedCounter {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            self.crl.create(ctx, 0, &[0]).await;
            for _ in 0..100 {
                self.crl.start_write(ctx, 0).await;
                self.crl.update(ctx, 0, |d| d[0] += 1);
                self.crl.end_write(ctx, 0).await;
                ctx.compute(500).await;
            }
            // Spin-read until every increment landed.
            loop {
                self.crl.start_read(ctx, 0).await;
                let v = self.crl.snapshot(ctx, 0)[0];
                self.crl.end_read(ctx, 0).await;
                if v == 100 * ctx.nodes() as u32 {
                    if ctx.node() == 0 {
                        println!("  shared counter reached {v} (no lost increments)");
                    }
                    return;
                }
                ctx.compute(1_000).await;
            }
        })
    }
    fn handler<'a>(&'a self, ctx: &'a mut UserCtx, env: &'a Envelope) -> Sim<'a> {
        Box::pin(async move {
            assert!(self.crl.handle(ctx, env).await);
        })
    }
}

fn main() {
    let nodes = 4;

    println!("CRL on UDM — shared counter, {nodes} nodes:");
    let mut machine = Machine::new(MachineConfig {
        nodes,
        ..Default::default()
    });
    machine.add_job(JobSpec::new(
        "counter",
        Arc::new(SharedCounter {
            crl: Crl::new(nodes),
        }) as Arc<dyn Program>,
    ));
    let report = machine.run();
    let job = report.job("counter");
    println!(
        "  coherence messages: {} ({} fast, {} buffered)",
        job.sent, job.delivered_fast, job.delivered_buffered
    );

    println!("\nblocked LU factorization (64×64, 16×16 blocks), {nodes} nodes:");
    let app = LuApp::spec(
        nodes,
        LuParams {
            n: 64,
            block: 16,
            flop_cost: 4,
        },
    );
    let mut machine = Machine::new(MachineConfig {
        nodes,
        ..Default::default()
    });
    machine.add_job(LuApp::job(&app));
    let report = machine.run();
    let job = report.job("lu");
    println!(
        "  residual max|LU - A|/max|A| = {:.2e}",
        app.residual().expect("validated on node 0")
    );
    println!(
        "  protocol traffic: {} messages over {:.1}M cycles",
        job.sent,
        job.completion.unwrap() as f64 / 1e6
    );
}
